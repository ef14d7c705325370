#include "src/common/text.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/common/error.hpp"

namespace xpl::text {

namespace {

constexpr std::string_view kSpace = " \t\n\v\f\r";  // isspace, C locale

[[noreturn]] void bad_number(std::string_view token, const Where& at) {
  fail(at, "bad number '" + std::string(token) + "'");
}

/// Shortest text that reads back as `value` ("1", "0.5", "1e+06").
std::string shortest(double value) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

std::size_t skip_digits(std::string_view s, std::size_t i) {
  while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
  return i;
}

/// `-`? digits [`.` digits] [`e` [`+-`] digits], with at least one
/// mantissa digit on either side of the point.
bool is_decimal(std::string_view s) {
  std::size_t i = !s.empty() && s[0] == '-' ? 1 : 0;
  const std::size_t int_end = skip_digits(s, i);
  std::size_t mantissa_digits = int_end - i;
  i = int_end;
  if (i < s.size() && s[i] == '.') {
    const std::size_t frac_end = skip_digits(s, i + 1);
    mantissa_digits += frac_end - (i + 1);
    i = frac_end;
  }
  if (mantissa_digits == 0) return false;
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    const std::size_t exp_end = skip_digits(s, i);
    if (exp_end == i) return false;
    i = exp_end;
  }
  return i == s.size();
}

}  // namespace

void fail(const Where& at, const std::string& what) {
  if (at.line == 0) throw Error(std::string(at.format) + ": " + what);
  throw Error(std::string(at.format) + " line " + std::to_string(at.line) +
              ": " + what);
}

std::string read_text_file(const std::string& path, const std::string& who) {
  std::ifstream in(path);
  require(in.good(), who + ": cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string_view next_token(std::string_view& rest) {
  const std::size_t begin = rest.find_first_not_of(kSpace);
  if (begin == std::string_view::npos) {
    rest = {};
    return {};
  }
  const std::size_t end = std::min(rest.find_first_of(kSpace, begin),
                                   rest.size());
  const std::string_view token = rest.substr(begin, end - begin);
  rest.remove_prefix(end);
  return token;
}

std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  for (std::string_view t = next_token(line); !t.empty() && t[0] != '#';
       t = next_token(line)) {
    tokens.emplace_back(t);
  }
  return tokens;
}

std::uint64_t parse_u64(std::string_view token, const Where& at,
                        std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t value = 0;
  const char* end = token.data() + token.size();
  if (token.empty() || skip_digits(token, 0) != token.size()) {
    bad_number(token, at);
  }
  const auto res = std::from_chars(token.data(), end, value);
  if (res.ec != std::errc() || res.ptr != end) bad_number(token, at);
  if (value < lo || value > hi) {
    fail(at, "value " + std::string(token) + " out of range [" +
                 std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return value;
}

double parse_f64(std::string_view token, const Where& at, double lo,
                 double hi) {
  double value = 0;
  const char* end = token.data() + token.size();
  if (!is_decimal(token)) bad_number(token, at);
  const auto res = std::from_chars(token.data(), end, value);
  if (res.ec != std::errc() || res.ptr != end) bad_number(token, at);
  if (!(value >= lo && value <= hi)) {
    fail(at, "value " + std::string(token) + " out of range [" +
                 shortest(lo) + ", " + shortest(hi) + "]");
  }
  return value;
}

double parse_hexfloat(std::string_view token, const Where& at) {
  const std::string s(token);  // strtod needs a terminator
  char* end = nullptr;
  const double value = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size()) {
    fail(at, "bad float '" + s + "'");
  }
  return value;
}

bool LineReader::next_raw() {
  if (rest_.empty()) return false;
  const std::size_t newline = rest_.find('\n');
  raw_ = rest_.substr(0, newline);
  rest_.remove_prefix(newline == std::string_view::npos ? rest_.size()
                                                        : newline + 1);
  ++number_;
  return true;
}

bool LineReader::next() {
  while (next_raw()) {
    tokens_ = tokenize(raw_);
    if (!tokens_.empty()) return true;
  }
  return false;
}

}  // namespace xpl::text
