// One text front end for the line-oriented file formats (.noc, .sweep,
// .tune, .trace, .ckpt — docs/FORMATS.md).
//
// Every format reads through the same pieces: read_text_file loads a
// file, LineReader walks the text line by line (counting lines and
// splitting each into tokens), and parse_u64 / parse_f64 read numbers
// with one grammar and a mandatory range. Every error is an xpl::Error
// that starts "<format> line N: ".
//
// Tokens are separated by whitespace; a token that starts with '#' opens
// a comment that runs to the end of the line. The named caps below bound
// every field that sizes an allocation, a thread pool or an int cast, so
// a typo'd number fails at its line instead of deep inside a build.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace xpl::text {

inline constexpr std::uint64_t kMaxU32 =
    std::numeric_limits<std::uint32_t>::max();
inline constexpr std::uint64_t kMaxU64 =
    std::numeric_limits<std::uint64_t>::max();
/// Any finite double (parse_f64 already rejects inf and nan).
inline constexpr double kMaxF64 = std::numeric_limits<double>::max();
/// The largest double below 1: the top of half-open [0, 1) ranges.
inline constexpr double kBelowOne = 0x1.fffffffffffffp-1;

// Caps (docs/FORMATS.md "Numbers and limits").
inline constexpr std::uint64_t kMaxFlitWidth = 1024;     ///< bits
inline constexpr std::uint64_t kMaxBeatWidth = 64;       ///< bits (NI limit)
inline constexpr std::uint64_t kMaxBurst = 1024;         ///< beats
inline constexpr std::uint64_t kMaxOcpThreads = 256;     ///< OCP thread ids
inline constexpr std::uint64_t kMaxTargetWindow = 1ull << 32;  ///< bytes
inline constexpr std::uint64_t kMaxFifoDepth = 1024;     ///< flits
inline constexpr std::uint64_t kMaxExtraPipeline = 64;   ///< switch stages
inline constexpr std::uint64_t kMaxPartitions = 4096;    ///< = switch cap
inline constexpr std::uint64_t kMaxThreads = 256;        ///< worker threads
inline constexpr std::uint64_t kMaxDimension = 4096;     ///< width/height
inline constexpr std::uint64_t kMaxConcentration = 64;   ///< NIs per switch
inline constexpr std::uint64_t kMaxLinkStages = 64;      ///< pipeline stages
inline constexpr std::uint64_t kMaxLinkClass = 255;      ///< uint8 field
inline constexpr std::uint64_t kMaxCoord = 65535;        ///< int cast
inline constexpr double kMinTargetMhz = 1.0;
inline constexpr double kMaxTargetMhz = 100000.0;

/// Where a token came from: the format's error prefix ("spec", "sweep",
/// "tune", "trace", "checkpoint") and the 1-based line number. Line 0
/// names a command-line flag instead: `format` is the flag ("--jobs").
struct Where {
  const char* format;
  std::size_t line;
};

/// A command-line flag's value, read with the same grammar and caps as
/// the file fields.
inline Where flag(const char* name) { return {name, 0}; }

/// Throws xpl::Error("<format> line <N>: <what>"), or "<flag>: <what>"
/// for a flag.
[[noreturn]] void fail(const Where& at, const std::string& what);

/// The whole file as a string; throws "<who>: cannot open <path>".
std::string read_text_file(const std::string& path, const std::string& who);

/// Pops the next whitespace-separated token off the front of `rest` (an
/// empty view once none is left). No comment handling: the checkpoint
/// reads a result row's free-text tail verbatim after its tokens.
std::string_view next_token(std::string_view& rest);

/// `line`'s tokens up to the first one that starts with '#'.
std::vector<std::string> tokenize(std::string_view line);

/// Plain decimal digits (no sign, no base prefix) naming a value in
/// [lo, hi]; anything else fails at `at`.
std::uint64_t parse_u64(std::string_view token, const Where& at,
                        std::uint64_t lo, std::uint64_t hi);

/// A finite decimal, `-`? digits [`.` digits] [`e` [`+-`] digits], naming
/// a value in [lo, hi]; inf, nan and hex floats fail at `at`.
double parse_f64(std::string_view token, const Where& at, double lo,
                 double hi);

/// The checkpoint's exact double encoding: whatever printf's %a writes,
/// non-finite values included.
double parse_hexfloat(std::string_view token, const Where& at);

/// Walks a text line by line with 1-based line numbers (std::getline
/// semantics: a final line needs no newline). Holds views into `text`,
/// which must outlive the reader.
class LineReader {
 public:
  LineReader(std::string_view text, const char* format)
      : rest_(text), format_(format) {}

  /// Advances to the next line that holds a token; false at the end.
  bool next();
  /// Advances to the next line, blank or not; false at the end.
  bool next_raw();

  std::string_view raw() const { return raw_; }
  /// Tokens of the current line (filled by next(), not next_raw()).
  const std::vector<std::string>& tokens() const { return tokens_; }
  Where at() const { return {format_, number_}; }

 private:
  std::string_view rest_;
  const char* format_;
  std::size_t number_ = 0;
  std::string_view raw_;
  std::vector<std::string> tokens_;
};

}  // namespace xpl::text
