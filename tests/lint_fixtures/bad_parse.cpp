// Seeded violations for the number-parsing check (XL402).
// Never compiled; consumed by tests/lint_test.py.
//
// Each private number reader is a second grammar: stoull wraps "-1" to
// 2^64-1, stod accepts "nan" and "0x1p3", atoi overflows silently. The
// file formats read numbers through text::parse_u64/parse_f64 only.
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace fixture {

inline std::uint64_t fifo_depth(const std::string& token) {
  return std::stoull(token);  // xlint-expect: XL402
}

inline double rate(const std::string& token) {
  std::size_t used = 0;
  return std::stod(token, &used);  // xlint-expect: XL402
}

inline double metric(const char* token) {
  char* end = nullptr;
  return std::strtod(token, &end);  // xlint-expect: XL402
}

inline int threads(const char* token) {
  return atoi(token);  // xlint-expect: XL402
}

inline unsigned width(const std::string& token) {
  unsigned value = 0;
  // xlint-expect: XL402
  std::from_chars(token.data(), token.data() + token.size(), value);
  return value;
}

}  // namespace fixture
