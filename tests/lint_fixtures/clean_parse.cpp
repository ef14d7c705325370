// Clean twin for the number-parsing check (XL402): numbers read through
// the shared text front end, look-alike names that parse nothing, and a
// justified suppression. tests/lint_test.py asserts zero findings here.
#include <cstdint>
#include <cstdlib>
#include <string>

#include "src/common/text.hpp"

namespace fixture {

inline std::uint64_t fifo_depth(const std::string& token, std::size_t line) {
  return xpl::text::parse_u64(token, {"spec", line}, 1,
                              xpl::text::kMaxFifoDepth);
}

inline double rate(const std::string& token, std::size_t line) {
  return xpl::text::parse_f64(token, {"sweep", line}, 0.0, 1.0);
}

// Identifiers that merely contain the banned names, and the names inside
// comments ("std::stoull(x)") and string literals, are not calls.
struct Store {
  int restore(int x) { return x; }
  int stoi_count = 0;
};
inline const char* describe() { return "uses std::stod(token) nowhere"; }

inline std::size_t jobs(const char* arg) {
  // xlint: parse-ok(fixture stand-in for a CLI flag outside the file formats)
  return static_cast<std::size_t>(std::strtoull(arg, nullptr, 10));
}

}  // namespace fixture
