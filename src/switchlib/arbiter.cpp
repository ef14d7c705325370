#include "src/switchlib/arbiter.hpp"

#include <bit>

#include "src/common/error.hpp"

namespace xpl::switchlib {

const char* arbiter_name(ArbiterKind kind) {
  switch (kind) {
    case ArbiterKind::kFixedPriority:
      return "fixed";
    case ArbiterKind::kRoundRobin:
      return "round-robin";
  }
  return "?";
}

std::optional<std::size_t> first_set(std::span<const std::uint64_t> mask,
                                     std::size_t from) {
  std::size_t w = from / kMaskWordBits;
  XPL_ASSERT(w < mask.size());
  std::uint64_t word = mask[w] & (~std::uint64_t{0} << (from % kMaskWordBits));
  while (word == 0) {
    if (++w == mask.size()) return std::nullopt;
    word = mask[w];
  }
  return w * kMaskWordBits + static_cast<std::size_t>(std::countr_zero(word));
}

std::optional<std::size_t> FixedPriorityArbiter::grant(
    std::span<const std::uint64_t> requests) {
  XPL_ASSERT(requests.size() == mask_words(num_inputs_));
  return first_set(requests, 0);
}

std::optional<std::size_t> RoundRobinArbiter::grant(
    std::span<const std::uint64_t> requests) {
  XPL_ASSERT(requests.size() == mask_words(num_inputs_));
  // The requesters at or above the pointer first, then wrap to the whole
  // mask (the bits above the pointer are already known clear).
  std::optional<std::size_t> i = first_set(requests, pointer_);
  if (!i.has_value() && pointer_ != 0) i = first_set(requests, 0);
  if (i.has_value()) pointer_ = *i + 1 == num_inputs_ ? 0 : *i + 1;
  return i;
}

}  // namespace xpl::switchlib
