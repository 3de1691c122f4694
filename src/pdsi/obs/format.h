// Byte-stable text formatting shared by the obs exporters (traces, metric
// dumps, profiles, critical paths, monitor reports) and the benches'
// BENCH_ lines: the same doubles always print the same characters.
#pragma once

#include <cstdio>
#include <string>

namespace pdsi::obs {

/// `v` with `decimals` fixed decimals.
inline std::string FmtFixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

/// `v` to nine significant digits.
inline std::string FmtG(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// `s` escaped for use inside a JSON string literal.
inline std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace pdsi::obs
