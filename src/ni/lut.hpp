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

/// Result of an address lookup.
struct LutHit {
  std::uint32_t dst = 0;      ///< target NI id
  std::uint64_t offset = 0;   ///< address offset within the window
  const Route* route = nullptr;  ///< precomputed source route
};

/// Initiator-side LUT: address ranges plus one route per reachable target.
class RouteLut {
 public:
  RouteLut() = default;

  /// Adds an address window; windows must not overlap. O(log T) search
  /// plus the sorted insert.
  void add_range(const AddressRange& range);

  /// Installs the route used to reach target `dst`.
  void set_route(std::uint32_t dst, Route route);

  /// Decodes `addr` by binary search; nullopt means no window matches
  /// (the NI reports an OCP ERR response locally without touching the
  /// network).
  std::optional<LutHit> lookup(std::uint64_t addr) const;

  const Route* route_to(std::uint32_t dst) const;

  std::size_t num_ranges() const { return ranges_.size(); }
  std::size_t num_routes() const;

 private:
  std::vector<AddressRange> ranges_;  ///< sorted by base, disjoint
  std::vector<std::optional<Route>> routes_;  ///< indexed by dst id
};

/// Target-side LUT: response route per initiator id.
class ResponseLut {
 public:
  void set_route(std::uint32_t src, Route route);
  const Route* route_to(std::uint32_t src) const;
  std::size_t num_routes() const;

 private:
  std::vector<std::optional<Route>> routes_;  ///< indexed by src id
};

}  // namespace xpl::ni
