// Clean twin for XL402 in a CLI tool: numeric flags read through the
// text front end with the caps of the matching file fields.
// tests/lint_test.py asserts zero findings here.
#include <cstddef>
#include <string>

#include "src/common/text.hpp"

namespace fixture {

struct Options {
  double estimate_mhz = 0.0;
  std::size_t jobs = 0;
};

inline Options parse_flags(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--estimate") {
      o.estimate_mhz =
          xpl::text::parse_f64(argv[++i], xpl::text::flag("--estimate"),
                               xpl::text::kMinTargetMhz,
                               xpl::text::kMaxTargetMhz);
    } else if (arg == "--jobs") {
      o.jobs = static_cast<std::size_t>(xpl::text::parse_u64(
          argv[++i], xpl::text::flag("--jobs"), 1, xpl::text::kMaxThreads));
    }
  }
  return o;
}

}  // namespace fixture
