// Canonical text rendering for sweep specs and result exports.
//
// One formatter backs both the spec's canonical form and the CSV/JSON
// exporters (campaign tables and tune trajectories), so "byte-identical
// output" and "round-trips exactly" are the same guarantee: enough digits
// to round-trip the values people write in specs, short for the common
// ones ("0.05", "800").
#pragma once

#include <cstdio>
#include <string>

namespace xpl::sweep {

inline std::string fmt_double(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.15g", value);
  return buf;
}

/// JSON string escaping (error messages are free-form exception text).
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// RFC-4180 quoting for free-form CSV fields (error messages may carry
/// commas, quotes or newlines); plain fields pass through unquoted.
inline std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace xpl::sweep
