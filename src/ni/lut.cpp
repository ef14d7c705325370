#include "src/ni/lut.hpp"

#include <algorithm>
#include <iterator>

#include "src/common/error.hpp"

namespace xpl::ni {

void RouteLut::add_range(const AddressRange& range) {
  require(range.size > 0, "RouteLut: empty address range");
  // ranges_ is sorted by base and pairwise disjoint, so a new window
  // overlaps some range iff it overlaps a neighbour at its sorted slot.
  const auto next = std::upper_bound(
      ranges_.begin(), ranges_.end(), range.base,
      [](std::uint64_t base, const AddressRange& r) { return base < r.base; });
  const auto disjoint = [&range](const AddressRange& existing) {
    return range.base + range.size <= existing.base ||
           existing.base + existing.size <= range.base;
  };
  require((next == ranges_.begin() || disjoint(*std::prev(next))) &&
              (next == ranges_.end() || disjoint(*next)),
          "RouteLut: overlapping address ranges");
  ranges_.insert(next, range);
}

void RouteLut::set_route(std::uint32_t dst, Route route) {
  if (dst >= routes_.size()) routes_.resize(dst + 1);
  routes_[dst] = std::move(route);
}

std::optional<LutHit> RouteLut::lookup(std::uint64_t addr) const {
  // The only window that can hold `addr` is the last one based at or
  // below it.
  const auto next = std::upper_bound(
      ranges_.begin(), ranges_.end(), addr,
      [](std::uint64_t a, const AddressRange& r) { return a < r.base; });
  if (next == ranges_.begin()) return std::nullopt;
  const AddressRange& range = *std::prev(next);
  if (!range.contains(addr)) return std::nullopt;
  const Route* route = route_to(range.dst);
  require(route != nullptr, "RouteLut: range maps to routeless target");
  return LutHit{range.dst, addr - range.base, route};
}

const Route* RouteLut::route_to(std::uint32_t dst) const {
  if (dst >= routes_.size() || !routes_[dst].has_value()) return nullptr;
  return &*routes_[dst];
}

std::size_t RouteLut::num_routes() const {
  std::size_t n = 0;
  for (const auto& r : routes_) {
    if (r.has_value()) ++n;
  }
  return n;
}

void ResponseLut::set_route(std::uint32_t src, Route route) {
  if (src >= routes_.size()) routes_.resize(src + 1);
  routes_[src] = std::move(route);
}

const Route* ResponseLut::route_to(std::uint32_t src) const {
  if (src >= routes_.size() || !routes_[src].has_value()) return nullptr;
  return &*routes_[src];
}

std::size_t ResponseLut::num_routes() const {
  std::size_t n = 0;
  for (const auto& r : routes_) {
    if (r.has_value()) ++n;
  }
  return n;
}

}  // namespace xpl::ni
