#include "pdsi/common/units.h"

#include <cmath>
#include <cstdio>

namespace pdsi {
namespace {

/// `v` with `decimals` places, then " unit" (nothing for an empty unit).
std::string Fixed(double v, int decimals, const char* unit) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%s%s", decimals, v, *unit ? " " : "",
                unit);
  return buf;
}

/// Three significant digits for values in [1, 1000).
std::string WithUnit(double v, const char* unit) {
  return Fixed(v, v >= 100.0 ? 0 : v >= 10.0 ? 1 : 2, unit);
}

}  // namespace

std::string FormatBytes(double bytes) {
  static const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB", "PiB"};
  int i = 0;
  double v = bytes;
  while (std::abs(v) >= 1024.0 && i < 5) {
    v /= 1024.0;
    ++i;
  }
  return WithUnit(v, units[i]);
}

std::string FormatRate(double bytes_per_second) {
  static const char* units[] = {"B/s", "KiB/s", "MiB/s", "GiB/s", "TiB/s", "PiB/s"};
  int i = 0;
  double v = bytes_per_second;
  while (std::abs(v) >= 1024.0 && i < 5) {
    v /= 1024.0;
    ++i;
  }
  return WithUnit(v, units[i]);
}

std::string FormatDuration(double seconds) {
  const double a = std::abs(seconds);
  if (a < 1e-6) return WithUnit(seconds * 1e9, "ns");
  if (a < 1e-3) return WithUnit(seconds * 1e6, "us");
  if (a < 1.0) return WithUnit(seconds * 1e3, "ms");
  if (a < 120.0) return WithUnit(seconds, "s");
  if (a < 2.0 * kHour) return WithUnit(seconds / kMinute, "min");
  if (a < 2.0 * kDay) return WithUnit(seconds / kHour, "h");
  if (a < kYear) return WithUnit(seconds / kDay, "d");
  return WithUnit(seconds / kYear, "yr");
}

std::string FormatCount(double count) {
  const double a = std::abs(count);
  if (a < 1e3) {
    return count == std::floor(count) ? Fixed(count, 0, "")
                                      : WithUnit(count, "");
  }
  if (a < 1e6) return WithUnit(count / 1e3, "K");
  if (a < 1e9) return WithUnit(count / 1e6, "M");
  return WithUnit(count / 1e9, "G");
}

}  // namespace pdsi
