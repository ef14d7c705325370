// Route look-up tables programmed into the NIs by the xpipesCompiler.
//
// The paper's packetization step fills the header's route "from MAddr
// after LUT": the initiator NI maps the OCP address to a target NI and a
// precomputed source route. The target NI holds the mirror table mapping
// a source NI id back to the response route. Both tables are static
// configuration — in hardware they synthesize to small ROMs, which the
// synthesis estimator charges accordingly.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/packet/header.hpp"

namespace xpl::ni {

/// One entry of the initiator NI's address decoder.
struct AddressRange {
  std::uint64_t base = 0;   ///< first byte address of the window
  std::uint64_t size = 0;   ///< window length in bytes
  std::uint32_t dst = 0;    ///< target NI id the window maps to

  bool contains(std::uint64_t addr) const {
    return addr >= base && addr - base < size;
  }
};

/// Bytes of one installed route, valid while its LUT lives and is not
/// re-programmed.
using RouteBytes = std::span<const std::uint8_t>;

/// Result of an address lookup.
struct LutHit {
  std::uint32_t dst = 0;      ///< target NI id
  std::uint64_t offset = 0;   ///< address offset within the window
  RouteBytes route;           ///< precomputed source route
};

/// Routes keyed by NI id, stored back to back in one byte arena: the ROM
/// both LUTs hold. Installing a route appends it; re-installing one
/// leaves the old bytes unused (a LUT is programmed once, at build).
class RouteArena {
 public:
  /// Installs `path` followed by `tail` as the route for `id`.
  void set(std::uint32_t id, RouteBytes path, RouteBytes tail = {});
  std::optional<RouteBytes> get(std::uint32_t id) const;
  std::size_t size() const;

 private:
  static constexpr std::uint32_t kAbsent = static_cast<std::uint32_t>(-1);
  struct Slot {
    std::uint32_t offset = kAbsent;
    std::uint32_t length = 0;
  };
  std::vector<std::uint8_t> bytes_;
  std::vector<Slot> slots_;  ///< indexed by NI id
};

/// Initiator-side LUT: address ranges plus one route per reachable target.
class RouteLut {
 public:
  RouteLut() = default;

  /// Adds an address window; windows must not overlap. O(log T) search
  /// plus the sorted insert.
  void add_range(const AddressRange& range);

  /// Installs the route used to reach target `dst`: `path` then `tail`
  /// (the compiler passes a table route's link hops and exit port).
  void set_route(std::uint32_t dst, RouteBytes path, RouteBytes tail = {}) {
    routes_.set(dst, path, tail);
  }

  /// Decodes `addr` by binary search; nullopt means no window matches
  /// (the NI reports an OCP ERR response locally without touching the
  /// network).
  std::optional<LutHit> lookup(std::uint64_t addr) const;

  std::optional<RouteBytes> route_to(std::uint32_t dst) const {
    return routes_.get(dst);
  }

  std::size_t num_ranges() const { return ranges_.size(); }
  std::size_t num_routes() const { return routes_.size(); }

 private:
  std::vector<AddressRange> ranges_;  ///< sorted by base, disjoint
  RouteArena routes_;                 ///< keyed by dst id
};

/// Target-side LUT: response route per initiator id.
class ResponseLut {
 public:
  void set_route(std::uint32_t src, RouteBytes path, RouteBytes tail = {}) {
    routes_.set(src, path, tail);
  }
  std::optional<RouteBytes> route_to(std::uint32_t src) const {
    return routes_.get(src);
  }
  std::size_t num_routes() const { return routes_.size(); }

 private:
  RouteArena routes_;  ///< keyed by src id
};

}  // namespace xpl::ni
