// Seeded violations for the number-parsing check (XL402) in a CLI tool.
// Never compiled; consumed by tests/lint_test.py.
//
// A flag read with atof/atoll takes the longest numeric prefix and
// ignores the rest: `--estimate 9OO` reads 9, `--jobs x` reads 0. The
// tools read numeric flags through the text front end like file fields.
#include <cstddef>
#include <cstdlib>
#include <string>

namespace fixture {

struct Options {
  double estimate_mhz = 0.0;
  std::size_t jobs = 0;
  unsigned long halt_after = 0;
};

inline Options parse_flags(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--estimate") {
      o.estimate_mhz = std::atof(argv[++i]);  // xlint-expect: XL402
    } else if (arg == "--jobs") {
      // xlint-expect: XL402
      o.jobs = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--halt-after") {
      o.halt_after = std::strtoul(argv[++i], nullptr, 10);  // xlint-expect: XL402
    }
  }
  return o;
}

}  // namespace fixture
