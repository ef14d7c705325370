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

std::optional<LutHit> RouteLut::lookup(std::uint64_t addr) const {
  // The only window that can hold `addr` is the last one based at or
  // below it.
  const auto next = std::upper_bound(
      ranges_.begin(), ranges_.end(), addr,
      [](std::uint64_t a, const AddressRange& r) { return a < r.base; });
  if (next == ranges_.begin()) return std::nullopt;
  const AddressRange& range = *std::prev(next);
  if (!range.contains(addr)) return std::nullopt;
  const std::optional<RouteBytes> route = route_to(range.dst);
  require(route.has_value(), "RouteLut: range maps to routeless target");
  return LutHit{range.dst, addr - range.base, *route};
}

void RouteArena::set(std::uint32_t id, RouteBytes path, RouteBytes tail) {
  if (id >= slots_.size()) slots_.resize(id + 1);
  slots_[id] = {static_cast<std::uint32_t>(bytes_.size()),
                static_cast<std::uint32_t>(path.size() + tail.size())};
  bytes_.insert(bytes_.end(), path.begin(), path.end());
  bytes_.insert(bytes_.end(), tail.begin(), tail.end());
}

std::optional<RouteBytes> RouteArena::get(std::uint32_t id) const {
  if (id >= slots_.size() || slots_[id].offset == kAbsent) {
    return std::nullopt;
  }
  return RouteBytes(bytes_.data() + slots_[id].offset, slots_[id].length);
}

std::size_t RouteArena::size() const {
  return static_cast<std::size_t>(
      std::count_if(slots_.begin(), slots_.end(),
                    [](const Slot& s) { return s.offset != kAbsent; }));
}

}  // namespace xpl::ni
