#include "src/topology/routing.hpp"

#include <algorithm>

namespace xpl::topology {

const char* routing_name(RoutingAlgorithm algorithm) {
  switch (algorithm) {
    case RoutingAlgorithm::kShortestPath:
      return "shortest-path";
    case RoutingAlgorithm::kXY:
      return "xy";
    case RoutingAlgorithm::kUpDown:
      return "up-down";
  }
  return "?";
}

namespace {

constexpr std::int64_t kUnseen = -2;
constexpr std::int64_t kRoot = -1;
constexpr std::size_t kBlocked = static_cast<std::size_t>(-1);

// Breadth-first search tree over (switch, phase) states, grown from one
// source switch until the queue empties. Output ports are explored in
// port order (links in insertion order), via[] is written when a state is
// first discovered and never overwritten, and reach[] records the first
// state of each switch taken off the queue. A per-pair search that stops
// at its destination stops at exactly that state, having written the
// same via[] entries on the way, so one tree answers every destination
// with the path the per-pair search returns.
struct StateTree {
  /// kUnseen, kRoot, or packed (predecessor state << 32 | output port).
  std::vector<std::int64_t> via;
  /// First dequeued state per switch; -1 if unreachable.
  std::vector<std::int64_t> reach;
};

// `next_phase(link, phase)` is the state phase after taking `link`, or
// kBlocked if the link may not be taken in `phase`. Phase 0 is the start.
template <typename NextPhase>
StateTree grow_tree(const Topology& topo, std::uint32_t from_sw,
                    std::size_t phases, NextPhase next_phase) {
  const std::size_t n = topo.num_switches();
  StateTree tree;
  tree.via.assign(n * phases, kUnseen);
  tree.reach.assign(n, -1);
  // Every state is queued at most once, so a flat vector is the queue.
  std::vector<std::size_t> queue{from_sw * phases};
  tree.via[queue.front()] = kRoot;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::size_t state = queue[head];
    const std::size_t s = state / phases;
    const std::size_t phase = state % phases;
    if (tree.reach[s] < 0) tree.reach[s] = static_cast<std::int64_t>(state);
    const auto& ports = topo.output_ports(static_cast<std::uint32_t>(s));
    for (std::size_t p = 0; p < ports.size(); ++p) {
      if (ports[p].kind != PortRef::Kind::kLink) continue;
      const Link& link = topo.link(ports[p].id);
      const std::size_t next = next_phase(link, phase);
      if (next == kBlocked) continue;
      const std::size_t to = link.to * phases + next;
      if (tree.via[to] == kUnseen) {
        tree.via[to] = static_cast<std::int64_t>(state) * 0x100000000ll +
                       static_cast<std::int64_t>(p);
        queue.push_back(to);
      }
    }
  }
  return tree;
}

// Output-port selectors of the tree path to `to_sw` (link hops only).
Route tree_path(const StateTree& tree, std::uint32_t to_sw,
                const char* unreachable) {
  require(tree.reach[to_sw] >= 0, unreachable);
  Route ports;
  for (std::int64_t packed =
           tree.via[static_cast<std::size_t>(tree.reach[to_sw])];
       packed != kRoot;
       packed = tree.via[static_cast<std::size_t>(packed >> 32)]) {
    ports.push_back(static_cast<std::uint8_t>(packed & 0xFFFFFFFFll));
  }
  std::reverse(ports.begin(), ports.end());
  return ports;
}

// Dimension-order: full X displacement, then Y. Requires coordinates and
// a grid link in the needed direction at every step. Returns the output
// ports of the link hops.
Route xy_path(const Topology& topo, std::uint32_t from_sw,
              std::uint32_t to_sw) {
  Route path;
  std::uint32_t cur = from_sw;
  auto step_toward = [&](bool x_dim) {
    const SwitchNode& here = topo.switch_node(cur);
    const SwitchNode& goal = topo.switch_node(to_sw);
    require(here.x >= 0 && here.y >= 0 && goal.x >= 0 && goal.y >= 0,
            "compute_route: XY routing needs grid coordinates");
    const int want = x_dim ? (goal.x > here.x ? 1 : goal.x < here.x ? -1 : 0)
                           : (goal.y > here.y ? 1 : goal.y < here.y ? -1 : 0);
    if (want == 0) return false;
    const auto& ports = topo.output_ports(cur);
    for (std::size_t p = 0; p < ports.size(); ++p) {
      if (ports[p].kind != PortRef::Kind::kLink) continue;
      const Link& link = topo.link(ports[p].id);
      const SwitchNode& next = topo.switch_node(link.to);
      const int dx = next.x - here.x;
      const int dy = next.y - here.y;
      if ((x_dim && dx == want && dy == 0) ||
          (!x_dim && dy == want && dx == 0)) {
        path.push_back(static_cast<std::uint8_t>(p));
        cur = link.to;
        return true;
      }
    }
    throw Error("compute_route: grid link missing for XY step");
  };
  while (step_toward(/*x_dim=*/true)) {
  }
  while (step_toward(/*x_dim=*/false)) {
  }
  XPL_ASSERT(cur == to_sw);
  return path;
}

// Routes of one algorithm over one topology. What the algorithm needs
// from the whole topology (the vc_class table, the up*/down* levels) is
// computed once, and kShortestPath / kUpDown grow one search tree per
// source switch, on first use, for every destination it routes to.
class Router {
 public:
  Router(const Topology& topo, RoutingAlgorithm algorithm)
      : topo_(topo), algorithm_(algorithm), trees_(topo.num_switches()) {
    if (algorithm == RoutingAlgorithm::kShortestPath) {
      for (std::uint32_t l = 0; l < topo.num_links(); ++l) {
        classes_.push_back(topo.link(l).vc_class);
      }
      std::sort(classes_.begin(), classes_.end());
      classes_.erase(std::unique(classes_.begin(), classes_.end()),
                     classes_.end());
    } else if (algorithm == RoutingAlgorithm::kUpDown) {
      compute_levels();
    }
  }

  Route route(std::uint32_t src, std::uint32_t dst) {
    require(src < topo_.num_nis() && dst < topo_.num_nis(),
            "compute_route: NI id out of range");
    require(src != dst, "compute_route: src and dst NIs are the same");
    const std::uint32_t from_sw = topo_.ni(src).switch_id;
    const std::uint32_t to_sw = topo_.ni(dst).switch_id;

    Route route;
    switch (algorithm_) {
      case RoutingAlgorithm::kShortestPath:
        route = tree_path(tree(from_sw), to_sw,
                          "compute_route: destination switch unreachable "
                          "by a class-monotone path");
        break;
      case RoutingAlgorithm::kXY:
        route = xy_path(topo_, from_sw, to_sw);
        break;
      case RoutingAlgorithm::kUpDown:
        route = tree_path(tree(from_sw), to_sw,
                          "compute_route: no up*/down* path");
        break;
    }
    // Final hop: exit the last switch toward the destination NI.
    const std::size_t exit_port =
        topo_.output_index(to_sw, PortRef{PortRef::Kind::kNi, dst});
    XPL_ASSERT(exit_port != Topology::npos);
    route.push_back(static_cast<std::uint8_t>(exit_port));
    return route;
  }

 private:
  // Up*/down* routing (Autonet): each switch gets a BFS level from switch
  // 0; a link is "up" when it goes to a strictly lower (level, id) pair.
  void compute_levels() {
    level_.assign(topo_.num_switches(), kBlocked);
    std::vector<std::uint32_t> queue{0};
    level_[0] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::uint32_t s = queue[head];
      for (const PortRef& port : topo_.output_ports(s)) {
        if (port.kind != PortRef::Kind::kLink) continue;
        const std::uint32_t to = topo_.link(port.id).to;
        if (level_[to] == kBlocked) {
          level_[to] = level_[s] + 1;
          queue.push_back(to);
        }
      }
    }
  }

  const StateTree& tree(std::uint32_t from_sw) {
    StateTree& tree = trees_[from_sw];
    if (!tree.via.empty()) return tree;
    if (algorithm_ == RoutingAlgorithm::kShortestPath) {
      // Class-monotone paths: links are traversed in non-decreasing
      // vc_class order, the structure the dateline lane discipline needs
      // (torus routes go x-then-y, spidergon routes take the cross link
      // first). The phase is the index of the last-taken link's class in
      // the distinct-class table. On a topology whose links all share one
      // class — every mesh, ring, star, tree and custom topology without
      // annotations — the phase dimension collapses to plain BFS. On
      // annotated topologies (make_torus, make_spidergon) class-monotone
      // shortest paths have the same length as unconstrained ones: the
      // dimensions of a torus displace independently, and a spidergon
      // cross hop commutes with ring hops.
      const std::size_t phases = std::max<std::size_t>(classes_.size(), 1);
      tree = grow_tree(topo_, from_sw, phases,
                       [&](const Link& link, std::size_t phase) {
                         const auto link_phase = static_cast<std::size_t>(
                             std::lower_bound(classes_.begin(),
                                              classes_.end(),
                                              link.vc_class) -
                             classes_.begin());
                         return link_phase < phase ? kBlocked : link_phase;
                       });
    } else {
      // Legal up*/down* paths take zero or more up links then zero or
      // more down links — the channel dependency graph over such paths is
      // acyclic on any topology. Phase 0 may still go up, phase 1 is
      // down only.
      tree = grow_tree(topo_, from_sw, 2,
                       [&](const Link& link, std::size_t phase) {
                         const bool up =
                             level_[link.to] < level_[link.from] ||
                             (level_[link.to] == level_[link.from] &&
                              link.to < link.from);
                         if (phase == 1 && up) return kBlocked;
                         return up ? phase : std::size_t{1};
                       });
    }
    return tree;
  }

  const Topology& topo_;
  RoutingAlgorithm algorithm_;
  std::vector<std::uint8_t> classes_;   ///< sorted distinct vc classes
  std::vector<std::size_t> level_;      ///< up*/down* BFS level
  std::vector<StateTree> trees_;        ///< per source switch
};

}  // namespace

Route compute_route(const Topology& topo, std::uint32_t src,
                    std::uint32_t dst, RoutingAlgorithm algorithm) {
  return Router(topo, algorithm).route(src, dst);
}

const Route& RoutingTables::at(std::uint32_t src, std::uint32_t dst) const {
  const auto it = routes.find({src, dst});
  require(it != routes.end(), "RoutingTables: no route for pair");
  return it->second;
}

std::size_t RoutingTables::max_hops() const {
  std::size_t hops = 0;
  for (const auto& [key, route] : routes) {
    hops = std::max(hops, route.size());
  }
  return hops;
}

RoutingTables compute_all_routes(const Topology& topo,
                                 RoutingAlgorithm algorithm) {
  // One router for the whole table: each source switch's search tree is
  // grown once and read for every destination.
  Router router(topo, algorithm);
  const std::vector<std::uint32_t> targets = topo.target_ids();
  RoutingTables tables;
  for (const std::uint32_t ini : topo.initiator_ids()) {
    for (const std::uint32_t tgt : targets) {
      tables.routes[{ini, tgt}] = router.route(ini, tgt);
      tables.routes[{tgt, ini}] = router.route(tgt, ini);
    }
  }
  return tables;
}

std::vector<std::uint8_t> dateline_route_vcs(const Topology& topo,
                                             std::uint32_t src,
                                             const Route& route,
                                             std::size_t vcs) {
  std::vector<std::uint8_t> lanes;
  std::uint32_t cur = topo.ni(src).switch_id;
  std::int64_t prev_link = -1;
  std::uint8_t vc = 0;
  for (std::size_t hop = 0; hop < route.size(); ++hop) {
    const auto& ports = topo.output_ports(cur);
    require(route[hop] < ports.size(),
            "dateline_route_vcs: selector out of range");
    const PortRef& ref = ports[route[hop]];
    if (ref.kind == PortRef::Kind::kNi) break;  // ejection keeps the lane
    const Link& link = topo.link(ref.id);
    if (prev_link < 0 ||
        topo.link(static_cast<std::uint32_t>(prev_link)).vc_class !=
            link.vc_class) {
      vc = 0;  // injection or routing-phase change: back to lane 0
    }
    if (link.dateline) ++vc;
    require(vc < vcs, "dateline_route_vcs: route needs lane " +
                          std::to_string(int(vc)) + " but the network has " +
                          std::to_string(vcs) + " lane(s)");
    lanes.push_back(vc);
    prev_link = ref.id;
    cur = link.to;
  }
  return lanes;
}

std::vector<std::uint32_t> route_switch_path(const Topology& topo,
                                             std::uint32_t src,
                                             const Route& route) {
  std::vector<std::uint32_t> path;
  std::uint32_t cur = topo.ni(src).switch_id;
  path.push_back(cur);
  for (std::size_t hop = 0; hop < route.size(); ++hop) {
    const auto& ports = topo.output_ports(cur);
    require(route[hop] < ports.size(),
            "route_switch_path: selector out of range");
    const PortRef& ref = ports[route[hop]];
    if (ref.kind == PortRef::Kind::kNi) {
      require(hop + 1 == route.size(),
              "route_switch_path: route continues past an NI exit");
      break;
    }
    cur = topo.link(ref.id).to;
    path.push_back(cur);
  }
  return path;
}

}  // namespace xpl::topology
