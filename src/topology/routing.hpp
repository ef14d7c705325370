// Source-route computation — the routing-function half of the paper's
// "topology selection / routing function co-design" step.
//
// xpipes lite switches are source-routed: the whole path is decided at the
// initiator and carried in the header. The compiler computes one Route per
// (source NI, destination NI) pair with one of two algorithms:
//
//  * kShortestPath — BFS over the link graph with deterministic tie
//    breaking (insertion order), valid for any topology;
//  * kXY — dimension-order routing, defined only for switches with grid
//    coordinates (make_mesh/make_torus); provably deadlock-free on meshes;
//  * kUpDown — up*/down* routing over a BFS spanning order (Autonet):
//    shortest path that never takes an up link after a down link;
//    deadlock-free on any topology, used for rings/stars/spidergons.
//
// Each Route entry is the *output port index* to take at the successive
// switches of the path, ending with the port that exits to the
// destination NI (topology.hpp's port numbering).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/packet/header.hpp"
#include "src/topology/topology.hpp"

namespace xpl::topology {

enum class RoutingAlgorithm : std::uint8_t { kShortestPath, kXY, kUpDown };

const char* routing_name(RoutingAlgorithm algorithm);

/// Computes the source route from NI `src` to NI `dst`. Throws xpl::Error
/// if no path exists or kXY is requested without grid coordinates.
Route compute_route(const Topology& topo, std::uint32_t src,
                    std::uint32_t dst, RoutingAlgorithm algorithm);

/// One stored route: the link selectors of its switch path, then the port
/// that exits to the destination NI. Views into a RoutingTables arena,
/// valid while the table lives.
struct RouteRef {
  std::span<const std::uint8_t> links;
  std::uint8_t exit = 0;

  std::size_t size() const { return links.size() + 1; }
  std::uint8_t operator[](std::size_t hop) const {
    return hop < links.size() ? links[hop] : exit;
  }
  /// The whole route as a header carries it.
  Route to_route() const;
};

/// All-pairs routes the compiler programs into the NI LUTs: initiator ->
/// every target (request routes) and target -> every initiator (response
/// routes). An NI-pair route is its switch pair's path plus the
/// destination NI's exit port, so each (source switch, destination switch)
/// path is elaborated once and stored once, back to back in one byte
/// arena. A default-constructed table holds no routes.
class RoutingTables {
 public:
  /// The route from NI `src` to NI `dst`; throws unless one of them is an
  /// initiator and the other a target of the routed topology. O(1).
  RouteRef at(std::uint32_t src, std::uint32_t dst) const;
  /// Number of NI-pair routes: 2 * initiators * targets.
  std::size_t size() const { return 2 * initiators_.size() * targets_.size(); }
  /// Longest route in the table, in hops (switch traversals).
  std::size_t max_hops() const { return max_hops_; }

  /// Calls fn(src, dst, RouteRef) for every NI-pair route in ascending
  /// (src, dst) order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint32_t src = 0; src < nis_.size(); ++src) {
      const auto& dsts = nis_[src].initiator ? targets_ : initiators_;
      for (const std::uint32_t dst : dsts) fn(src, dst, route(src, dst));
    }
  }

  /// Calls fn(from_switch, to_switch, links) once per distinct switch
  /// path the table's routes take (each NI-pair route is one of these
  /// plus an exit port).
  template <typename Fn>
  void for_each_path(Fn&& fn) const {
    const std::size_t e = endpoints_.size();
    for (std::size_t p = 0; p < paths_.size(); ++p) {
      if (paths_[p].offset == kNoPath) continue;
      fn(endpoints_[p / e], endpoints_[p % e], path(p));
    }
  }

 private:
  friend RoutingTables compute_all_routes(const Topology& topo,
                                          RoutingAlgorithm algorithm);

  static constexpr std::uint32_t kNoPath = static_cast<std::uint32_t>(-1);
  struct Path {
    std::uint32_t offset = kNoPath;  ///< into bytes_; kNoPath = not routed
    std::uint32_t length = 0;
  };
  struct NiSlot {
    std::uint32_t rank = 0;  ///< index of the NI's switch in endpoints_
    std::uint8_t exit = 0;   ///< output port from that switch to the NI
    bool initiator = false;
  };

  std::span<const std::uint8_t> path(std::size_t p) const {
    return {bytes_.data() + paths_[p].offset, paths_[p].length};
  }
  std::size_t path_index(std::uint32_t src, std::uint32_t dst) const {
    return nis_[src].rank * endpoints_.size() + nis_[dst].rank;
  }
  RouteRef route(std::uint32_t src, std::uint32_t dst) const {
    return {path(path_index(src, dst)), nis_[dst].exit};
  }

  std::vector<std::uint8_t> bytes_;         ///< every switch path's selectors
  std::vector<Path> paths_;                 ///< [src rank * E + dst rank]
  std::vector<NiSlot> nis_;                 ///< per NI id
  std::vector<std::uint32_t> endpoints_;    ///< switches hosting NIs (E)
  std::vector<std::uint32_t> initiators_;   ///< ascending NI ids
  std::vector<std::uint32_t> targets_;      ///< ascending NI ids
  std::size_t max_hops_ = 0;
};

RoutingTables compute_all_routes(const Topology& topo,
                                 RoutingAlgorithm algorithm);

/// Switch sequence visited by a route starting at NI `src` (a test
/// reference). Includes the injection switch first; a route's link
/// selectors alone give the same sequence.
std::vector<std::uint32_t> route_switch_path(
    const Topology& topo, std::uint32_t src,
    std::span<const std::uint8_t> route);

/// Lane (virtual channel) of each switch-to-switch link a route traverses
/// under the dateline discipline: a packet starts on lane 0, resets to
/// lane 0 whenever the link vc_class changes, and bumps one lane when it
/// crosses a dateline link. This is the exact rule every switch applies
/// locally (switchlib::SwitchConfig::VcMap::kDateline), so the deadlock
/// checker can analyse the channels the hardware will actually use. The
/// returned vector parallels the route's link hops (the final ejection
/// hop, which exits to an NI, is excluded). Throws xpl::Error if any hop
/// needs a lane >= vcs.
std::vector<std::uint8_t> dateline_route_vcs(
    const Topology& topo, std::uint32_t src,
    std::span<const std::uint8_t> route, std::size_t vcs);

/// One hop of that rule: the lane on `link` of a packet that held lane
/// `vc` on `prev_link` (-1 at injection). Throws like dateline_route_vcs.
std::uint8_t dateline_step(const Topology& topo, std::int64_t prev_link,
                           std::uint32_t link, std::uint8_t vc,
                           std::size_t vcs);

}  // namespace xpl::topology
