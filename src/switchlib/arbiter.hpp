// Output-port arbiters.
//
// Each switch output port owns one arbiter choosing among the input ports
// that request it. The paper offers two policies: fixed priority (cheapest
// logic) and round robin (fair). Arbiters are plain combinational-logic
// models, unit-testable in isolation and mirrored gate-for-gate by the
// synthesis estimator.
//
// Requests arrive as a word mask: requester r is bit r % 64 of word
// r / 64, and bits at or past the requester count are zero. A grant is a
// count-trailing-zeros over the words, so the common case of at most 64
// requesters is one word and one instruction; wider arbiters walk more
// words on the same code path.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

namespace xpl::switchlib {

enum class ArbiterKind : std::uint8_t { kFixedPriority, kRoundRobin };

const char* arbiter_name(ArbiterKind kind);

/// Bits per request-mask word.
inline constexpr std::size_t kMaskWordBits = 64;

/// Words in a request mask over `n` requesters.
constexpr std::size_t mask_words(std::size_t n) {
  return (n + kMaskWordBits - 1) / kMaskWordBits;
}

/// Sets bit `i` of `mask`.
inline void mask_set(std::span<std::uint64_t> mask, std::size_t i) {
  mask[i / kMaskWordBits] |= std::uint64_t{1} << (i % kMaskWordBits);
}

/// Clears bit `i` of `mask`.
inline void mask_clear(std::span<std::uint64_t> mask, std::size_t i) {
  mask[i / kMaskWordBits] &= ~(std::uint64_t{1} << (i % kMaskWordBits));
}

/// Lowest set bit of `mask` at or above `from` (from < 64 * words), or
/// nullopt when there is none.
std::optional<std::size_t> first_set(std::span<const std::uint64_t> mask,
                                     std::size_t from);

/// Grants the lowest-indexed requester.
class FixedPriorityArbiter {
 public:
  explicit FixedPriorityArbiter(std::size_t num_inputs)
      : num_inputs_(num_inputs) {}

  /// Returns the granted input, or nullopt if `requests` is all zero.
  std::optional<std::size_t> grant(std::span<const std::uint64_t> requests);

  std::size_t num_inputs() const { return num_inputs_; }

 private:
  std::size_t num_inputs_;
};

/// Grants the first requester at or after a rotating pointer; the pointer
/// advances past each grant, giving each input a fair share.
class RoundRobinArbiter {
 public:
  explicit RoundRobinArbiter(std::size_t num_inputs)
      : num_inputs_(num_inputs) {}

  std::optional<std::size_t> grant(std::span<const std::uint64_t> requests);

  /// Pointer state (the synthesis model charges log2(n) flops for it).
  std::size_t pointer() const { return pointer_; }

  std::size_t num_inputs() const { return num_inputs_; }

 private:
  std::size_t num_inputs_;
  std::size_t pointer_ = 0;
};

/// Policy-erased arbiter used by the switch.
class Arbiter {
 public:
  Arbiter(ArbiterKind kind, std::size_t num_inputs)
      : kind_(kind), fixed_(num_inputs), rr_(num_inputs) {}

  std::optional<std::size_t> grant(std::span<const std::uint64_t> requests) {
    return kind_ == ArbiterKind::kFixedPriority ? fixed_.grant(requests)
                                                : rr_.grant(requests);
  }

  ArbiterKind kind() const { return kind_; }

 private:
  ArbiterKind kind_;
  FixedPriorityArbiter fixed_;
  RoundRobinArbiter rr_;
};

}  // namespace xpl::switchlib
