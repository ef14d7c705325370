// Numeric command-line flags of the CLI tools, read through the text
// front end (src/common/text.hpp): the same grammar and caps as the
// matching file fields, so `--estimate 9OO` or `--jobs x` is an error
// rather than a silent prefix or zero. A bad value prints
// "<tool>: <flag>: <reason>" and exits 2, like any other usage error.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/common/error.hpp"
#include "src/common/text.hpp"

namespace xpl::cli {

inline std::uint64_t flag_u64(const char* tool, const std::string& flag,
                              const char* value, std::uint64_t lo,
                              std::uint64_t hi) {
  try {
    return text::parse_u64(value, text::flag(flag.c_str()), lo, hi);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s: %s\n", tool, e.what());
    std::exit(2);
  }
}

inline double flag_f64(const char* tool, const std::string& flag,
                       const char* value, double lo, double hi) {
  try {
    return text::parse_f64(value, text::flag(flag.c_str()), lo, hi);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s: %s\n", tool, e.what());
    std::exit(2);
  }
}

}  // namespace xpl::cli
