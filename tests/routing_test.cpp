// Source-route computation: validity, shortest paths, XY discipline,
// up*/down* legality.
#include "src/topology/routing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "src/common/error.hpp"
#include "src/topology/generators.hpp"

namespace xpl::topology {
namespace {

// Walks `route` from NI `src` and returns the NI it ejects at, or throws.
std::uint32_t walk_route(const Topology& topo, std::uint32_t src,
                         const Route& route) {
  std::uint32_t cur = topo.ni(src).switch_id;
  for (std::size_t hop = 0; hop < route.size(); ++hop) {
    const auto ports = topo.output_ports(cur);
    require(route[hop] < ports.size(), "selector out of range");
    const PortRef& ref = ports[route[hop]];
    if (ref.kind == PortRef::Kind::kNi) {
      require(hop + 1 == route.size(), "route continues past ejection");
      return ref.id;
    }
    cur = topo.link(ref.id).to;
  }
  throw Error("route never ejects");
}

TEST(Routing, RouteEndsAtDestination) {
  const auto t = make_mesh(3, 3, NiPlan::uniform(9, 1, 1));
  for (const auto algo :
       {RoutingAlgorithm::kShortestPath, RoutingAlgorithm::kXY,
        RoutingAlgorithm::kUpDown}) {
    for (const auto src : t.initiator_ids()) {
      for (const auto dst : t.target_ids()) {
        const Route route = compute_route(t, src, dst, algo);
        EXPECT_EQ(walk_route(t, src, route), dst)
            << routing_name(algo) << " " << src << "->" << dst;
      }
    }
  }
}

TEST(Routing, SameSwitchPairIsOneHop) {
  Topology t;
  const auto a = t.add_switch();
  const auto b = t.add_switch();
  t.add_duplex(a, b);
  const auto ini = t.attach_initiator(a);
  const auto tgt = t.attach_target(a);
  const Route route =
      compute_route(t, ini, tgt, RoutingAlgorithm::kShortestPath);
  EXPECT_EQ(route.size(), 1u);  // just the ejection port
  EXPECT_EQ(walk_route(t, ini, route), tgt);
}

TEST(Routing, ShortestPathHopCountOnMesh) {
  const auto t = make_mesh(4, 4, NiPlan::uniform(16, 1, 1));
  // NI ids: switch s hosts initiator 2s and target 2s+1.
  // Corner (0,0) to corner (3,3): manhattan 6 + ejection = 7 selectors.
  const auto inis = t.initiator_ids();
  const auto tgts = t.target_ids();
  const Route route = compute_route(t, inis.front(), tgts.back(),
                                    RoutingAlgorithm::kShortestPath);
  EXPECT_EQ(route.size(), 7u);
  const Route xy =
      compute_route(t, inis.front(), tgts.back(), RoutingAlgorithm::kXY);
  EXPECT_EQ(xy.size(), 7u);
}

TEST(Routing, XyGoesXFirst) {
  const auto t = make_mesh(3, 3, NiPlan::uniform(9, 1, 1));
  // From switch (0,0) to (2,2): XY visits (1,0),(2,0),(2,1),(2,2).
  const auto src = t.initiator_ids()[0];  // on switch 0 = (0,0)
  const auto dst = t.target_ids()[8];     // on switch 8 = (2,2)
  const Route route = compute_route(t, src, dst, RoutingAlgorithm::kXY);
  const auto path = route_switch_path(t, src, route);
  const std::vector<std::uint32_t> expected{0, 1, 2, 5, 8};
  EXPECT_EQ(path, expected);
}

TEST(Routing, XyRequiresCoordinates) {
  const auto t = make_ring(4, NiPlan::uniform(4, 1, 1));
  EXPECT_THROW(
      compute_route(t, t.initiator_ids()[0], t.target_ids()[2],
                    RoutingAlgorithm::kXY),
      Error);
}

TEST(Routing, UpDownNeverTakesUpAfterDown) {
  const auto t = make_spidergon(8, NiPlan::uniform(8, 1, 1));
  // Reconstruct levels like the router does.
  const auto dist_from_0 = [&t] {
    std::vector<std::size_t> level(t.num_switches(), SIZE_MAX);
    level[0] = 0;
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::uint32_t l = 0; l < t.num_links(); ++l) {
        const auto& link = t.link(l);
        if (level[link.from] != SIZE_MAX &&
            level[link.from] + 1 < level[link.to]) {
          level[link.to] = level[link.from] + 1;
          changed = true;
        }
      }
    }
    return level;
  }();
  auto is_up = [&](std::uint32_t from, std::uint32_t to) {
    return dist_from_0[to] < dist_from_0[from] ||
           (dist_from_0[to] == dist_from_0[from] && to < from);
  };
  for (const auto src : t.initiator_ids()) {
    for (const auto dst : t.target_ids()) {
      const Route route =
          compute_route(t, src, dst, RoutingAlgorithm::kUpDown);
      const auto path = route_switch_path(t, src, route);
      bool gone_down = false;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const bool up = is_up(path[i], path[i + 1]);
        if (gone_down) {
          EXPECT_FALSE(up) << "up after down " << src << "->" << dst;
        }
        if (!up) gone_down = true;
      }
      EXPECT_EQ(walk_route(t, src, route), dst);
    }
  }
}

TEST(Routing, AllRoutesTablesComplete) {
  const auto t = make_mesh(2, 3, NiPlan::uniform(6, 1, 1));
  const auto tables = compute_all_routes(t, RoutingAlgorithm::kXY);
  const auto inis = t.initiator_ids();
  const auto tgts = t.target_ids();
  EXPECT_EQ(tables.routes.size(), 2 * inis.size() * tgts.size());
  for (const auto i : inis) {
    for (const auto g : tgts) {
      EXPECT_EQ(walk_route(t, i, tables.at(i, g)), g);
      EXPECT_EQ(walk_route(t, g, tables.at(g, i)), i);
    }
  }
}

TEST(Routing, MaxHopsMatchesDiameter) {
  const auto t = make_mesh(4, 4, NiPlan::uniform(16, 1, 1));
  const auto tables = compute_all_routes(t, RoutingAlgorithm::kXY);
  EXPECT_EQ(tables.max_hops(), 7u);  // manhattan 6 + ejection
}

TEST(Routing, RejectsSameNi) {
  const auto t = make_mesh(2, 2, NiPlan::uniform(4, 1, 1));
  EXPECT_THROW(
      compute_route(t, 0, 0, RoutingAlgorithm::kShortestPath), Error);
}

// Route validity across topologies and algorithms.
struct SweepCase {
  const char* name;
  Topology topo;
  RoutingAlgorithm algorithm;
};

class RoutingSweep : public ::testing::TestWithParam<int> {
 public:
  static std::vector<SweepCase> cases() {
    std::vector<SweepCase> out;
    out.push_back({"mesh_xy", make_mesh(3, 4, NiPlan::uniform(12, 1, 1)),
                   RoutingAlgorithm::kXY});
    out.push_back({"mesh_sp", make_mesh(3, 4, NiPlan::uniform(12, 1, 1)),
                   RoutingAlgorithm::kShortestPath});
    out.push_back({"torus_sp", make_torus(3, 3, NiPlan::uniform(9, 1, 1)),
                   RoutingAlgorithm::kShortestPath});
    out.push_back({"ring_ud", make_ring(6, NiPlan::uniform(6, 1, 1)),
                   RoutingAlgorithm::kUpDown});
    out.push_back({"star_ud", make_star(4, NiPlan::uniform(5, 1, 1)),
                   RoutingAlgorithm::kUpDown});
    out.push_back({"tree_ud",
                   make_binary_tree(3, NiPlan::uniform(7, 1, 1)),
                   RoutingAlgorithm::kUpDown});
    out.push_back({"spidergon_ud",
                   make_spidergon(8, NiPlan::uniform(8, 1, 1)),
                   RoutingAlgorithm::kUpDown});
    return out;
  }
};

TEST_P(RoutingSweep, EveryPairRoutes) {
  static const auto cases_vec = cases();
  const SweepCase& c = cases_vec[static_cast<std::size_t>(GetParam())];
  for (const auto src : c.topo.initiator_ids()) {
    for (const auto dst : c.topo.target_ids()) {
      const Route route = compute_route(c.topo, src, dst, c.algorithm);
      EXPECT_EQ(walk_route(c.topo, src, route), dst)
          << c.name << " " << src << "->" << dst;
      EXPECT_GE(route.size(), 1u);
    }
  }
}

// Per-pair reference search, independent of the port index and of the
// per-source trees: breadth-first over (switch, phase) states, scanning
// the whole link table at every step and stopping at the first dequeued
// state of the destination switch. Ports are counted from the link and
// NI tables directly.
Route reference_route(const Topology& t, std::uint32_t src,
                      std::uint32_t dst, RoutingAlgorithm algorithm) {
  const std::size_t n = t.num_switches();
  constexpr std::size_t kBlocked = static_cast<std::size_t>(-1);
  std::vector<std::uint8_t> classes;
  std::vector<std::size_t> level(n, kBlocked);
  std::size_t phases = 2;
  if (algorithm == RoutingAlgorithm::kShortestPath) {
    for (std::uint32_t l = 0; l < t.num_links(); ++l) {
      classes.push_back(t.link(l).vc_class);
    }
    std::sort(classes.begin(), classes.end());
    classes.erase(std::unique(classes.begin(), classes.end()),
                  classes.end());
    phases = std::max<std::size_t>(classes.size(), 1);
  } else {
    std::deque<std::uint32_t> queue{0};
    level[0] = 0;
    while (!queue.empty()) {
      const std::uint32_t s = queue.front();
      queue.pop_front();
      for (std::uint32_t l = 0; l < t.num_links(); ++l) {
        const Link& link = t.link(l);
        if (link.from == s && level[link.to] == kBlocked) {
          level[link.to] = level[s] + 1;
          queue.push_back(link.to);
        }
      }
    }
  }
  auto next_phase = [&](const Link& link, std::size_t phase) {
    if (algorithm == RoutingAlgorithm::kShortestPath) {
      const auto p = static_cast<std::size_t>(
          std::find(classes.begin(), classes.end(), link.vc_class) -
          classes.begin());
      return p < phase ? kBlocked : p;
    }
    const bool up = level[link.to] < level[link.from] ||
                    (level[link.to] == level[link.from] && link.to < link.from);
    if (phase == 1 && up) return kBlocked;
    return up ? phase : std::size_t{1};
  };

  const std::uint32_t from_sw = t.ni(src).switch_id;
  const std::uint32_t to_sw = t.ni(dst).switch_id;
  // (previous state, link) per state; the start state points at itself.
  std::vector<std::pair<std::size_t, std::uint32_t>> via(
      n * phases, {kBlocked, 0});
  std::deque<std::size_t> queue{from_sw * phases};
  via[from_sw * phases] = {from_sw * phases, 0};
  std::size_t final_state = kBlocked;
  while (!queue.empty()) {
    const std::size_t state = queue.front();
    queue.pop_front();
    if (state / phases == to_sw) {
      final_state = state;
      break;
    }
    for (std::uint32_t l = 0; l < t.num_links(); ++l) {
      const Link& link = t.link(l);
      if (link.from != state / phases) continue;
      const std::size_t phase = next_phase(link, state % phases);
      if (phase == kBlocked) continue;
      const std::size_t next = link.to * phases + phase;
      if (via[next].first == kBlocked) {
        via[next] = {state, l};
        queue.push_back(next);
      }
    }
  }
  require(final_state != kBlocked, "reference_route: unreachable");
  std::vector<std::uint32_t> links;
  for (std::size_t s = final_state; via[s].first != s; s = via[s].first) {
    links.push_back(via[s].second);
  }
  std::reverse(links.begin(), links.end());

  Route route;
  for (const std::uint32_t l : links) {
    std::uint8_t port = 0;  // earlier links out of the same switch
    for (std::uint32_t k = 0; k < l; ++k) {
      if (t.link(k).from == t.link(l).from) ++port;
    }
    route.push_back(port);
  }
  std::uint8_t exit = 0;  // every link out of to_sw, then earlier NIs
  for (std::uint32_t k = 0; k < t.num_links(); ++k) {
    if (t.link(k).from == to_sw) ++exit;
  }
  for (std::uint32_t k = 0; k < dst; ++k) {
    if (t.ni(k).switch_id == to_sw) ++exit;
  }
  route.push_back(exit);
  return route;
}

// An irregular custom topology: a ring with class-1 chords (one of them
// one-way), a shortcut, several NIs per switch and NIs attached between
// links.
Topology irregular_topology() {
  Topology t;
  for (int i = 0; i < 6; ++i) t.add_switch();
  t.attach_initiator(0);
  for (std::uint32_t i = 0; i < 6; ++i) t.add_duplex(i, (i + 1) % 6);
  t.attach_target(1);
  t.add_duplex(0, 3, 0, /*vc_class=*/1);
  t.attach_initiator(2);
  t.attach_target(3);
  t.add_link(2, 5, 0, /*vc_class=*/1);
  t.add_duplex(4, 1);
  t.attach_initiator(4);
  t.attach_target(5);
  t.attach_initiator(3);
  t.attach_target(0);
  return t;
}

// The all-pairs tables read one search tree per source switch; every
// route must equal what a per-pair search from scratch returns.
TEST(Routing, PerSourceTreesMatchPerPairSearch) {
  const std::vector<std::pair<const char*, Topology>> topos = {
      {"torus", make_torus(4, 3, NiPlan::uniform(12, 1, 1))},
      {"spidergon", make_spidergon(8, NiPlan::uniform(8, 1, 1))},
      {"ring", make_ring(6, NiPlan::uniform(6, 1, 2))},
      {"mesh", make_mesh(4, 4, NiPlan::uniform(16, 1, 1))},
      {"star", make_star(5, NiPlan::uniform(6, 1, 1))},
      {"irregular", irregular_topology()},
  };
  for (const auto algorithm :
       {RoutingAlgorithm::kShortestPath, RoutingAlgorithm::kUpDown}) {
    for (const auto& [name, topo] : topos) {
      const RoutingTables tables = compute_all_routes(topo, algorithm);
      EXPECT_EQ(tables.routes.size(),
                2 * topo.initiator_ids().size() * topo.target_ids().size());
      for (const auto& [key, route] : tables.routes) {
        const Route expected =
            reference_route(topo, key.first, key.second, algorithm);
        EXPECT_EQ(route, expected) << name << " " << routing_name(algorithm)
                                   << " " << key.first << "->" << key.second;
        EXPECT_EQ(compute_route(topo, key.first, key.second, algorithm),
                  expected)
            << name;
        EXPECT_EQ(walk_route(topo, key.first, route), key.second) << name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, RoutingSweep,
                         ::testing::Range(0, 7));

}  // namespace
}  // namespace xpl::topology
