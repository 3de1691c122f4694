// Byte/time unit constants and human-readable formatting shared by all
// benchmark harnesses, so tables across figures use consistent notation.
#pragma once

#include <cstdint>
#include <string>

namespace pdsi {

inline constexpr std::uint64_t KiB = 1024ULL;
inline constexpr std::uint64_t MiB = 1024ULL * KiB;
inline constexpr std::uint64_t GiB = 1024ULL * MiB;
inline constexpr std::uint64_t TiB = 1024ULL * GiB;
inline constexpr std::uint64_t PiB = 1024ULL * TiB;

/// Simulated time is kept in double seconds throughout; these helpers make
/// call sites self-describing.
inline constexpr double kMicrosecond = 1e-6;
inline constexpr double kMillisecond = 1e-3;
inline constexpr double kSecond = 1.0;
inline constexpr double kMinute = 60.0;
inline constexpr double kHour = 3600.0;
inline constexpr double kDay = 86400.0;
inline constexpr double kYear = 365.25 * kDay;

/// "4.0 KiB", "1.5 GiB" etc.
std::string FormatBytes(double bytes);

/// "123.4 MiB/s" etc.
std::string FormatRate(double bytes_per_second);

/// "12.3 us", "4.5 ms", "6.7 s", "2.1 h" — picks the natural unit.
std::string FormatDuration(double seconds);

/// "6", "4.50", "12.5 K", "4.56 M" for op counts / ops-per-second: a
/// whole count below 1000 prints as an integer.
std::string FormatCount(double count);

}  // namespace pdsi
