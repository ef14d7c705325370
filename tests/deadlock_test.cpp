// Channel-dependency-graph deadlock analysis.
#include "src/topology/deadlock.hpp"

#include <gtest/gtest.h>

#include "src/topology/generators.hpp"

namespace xpl::topology {
namespace {

TEST(Deadlock, XyOnMeshIsFree) {
  for (std::size_t w = 2; w <= 4; ++w) {
    for (std::size_t h = 2; h <= 4; ++h) {
      const auto t = make_mesh(w, h, NiPlan::uniform(w * h, 1, 1));
      const auto tables = compute_all_routes(t, RoutingAlgorithm::kXY);
      const auto report = check_deadlock(t, tables);
      EXPECT_TRUE(report.deadlock_free) << w << "x" << h;
    }
  }
}

TEST(Deadlock, ShortestPathOnMeshIsFree) {
  // BFS with deterministic tie-break on a mesh yields minimal routes;
  // with links enumerated row-major these happen to be dimension-ordered,
  // hence deadlock-free. This documents (and pins) that property.
  const auto t = make_mesh(3, 3, NiPlan::uniform(9, 1, 1));
  const auto tables =
      compute_all_routes(t, RoutingAlgorithm::kShortestPath);
  EXPECT_TRUE(check_deadlock(t, tables).deadlock_free);
}

// A unidirectional ring forces every route around the loop: the channel
// dependency graph is exactly the ring -> guaranteed cycle.
Topology unidirectional_ring(std::size_t n) {
  Topology t;
  for (std::size_t i = 0; i < n; ++i) t.add_switch();
  for (std::size_t i = 0; i < n; ++i) {
    t.add_link(static_cast<std::uint32_t>(i),
               static_cast<std::uint32_t>((i + 1) % n));
  }
  for (std::size_t i = 0; i < n; ++i) {
    t.attach_initiator(static_cast<std::uint32_t>(i));
    t.attach_target(static_cast<std::uint32_t>(i));
  }
  return t;
}

TEST(Deadlock, UnidirectionalRingCycles) {
  const auto t = unidirectional_ring(4);
  const auto tables =
      compute_all_routes(t, RoutingAlgorithm::kShortestPath);
  const auto report = check_deadlock(t, tables);
  EXPECT_FALSE(report.deadlock_free);
  EXPECT_GE(report.cycle.size(), 2u);
  EXPECT_EQ(report.to_string(t),
            "channel-dependency cycle: sw1->sw2 sw2->sw3 sw3->sw0 sw0->sw1");
}

TEST(Deadlock, TorusShortestPathReport) {
  // On a small torus, BFS with deterministic tie-breaks may or may not
  // produce cyclic dependencies; the checker must at least terminate and
  // the up*/down* alternative must always be clean.
  const auto t = make_torus(3, 3, NiPlan::uniform(9, 1, 1));
  const auto sp = compute_all_routes(t, RoutingAlgorithm::kShortestPath);
  EXPECT_EQ(check_deadlock(t, sp).to_string(t), "deadlock-free");
  const auto ud = compute_all_routes(t, RoutingAlgorithm::kUpDown);
  EXPECT_TRUE(check_deadlock(t, ud).deadlock_free);
}

TEST(Deadlock, UpDownIsFreeEverywhere) {
  std::vector<Topology> topologies;
  topologies.push_back(make_ring(8, NiPlan::uniform(8, 1, 1)));
  topologies.push_back(make_spidergon(8, NiPlan::uniform(8, 1, 1)));
  topologies.push_back(make_torus(3, 3, NiPlan::uniform(9, 1, 1)));
  topologies.push_back(make_binary_tree(4, NiPlan::uniform(15, 1, 1)));
  topologies.push_back(make_star(6, NiPlan::uniform(7, 1, 1)));
  for (const auto& t : topologies) {
    const auto tables = compute_all_routes(t, RoutingAlgorithm::kUpDown);
    EXPECT_TRUE(check_deadlock(t, tables).deadlock_free);
  }
}

TEST(Deadlock, BidirectionalRingShortestPathCycles) {
  // Minimal routing on a bidirectional ring still wraps in both
  // directions, so the dependency graph carries both ring cycles.
  const auto t = make_ring(6, NiPlan::uniform(6, 1, 1));
  const auto tables =
      compute_all_routes(t, RoutingAlgorithm::kShortestPath);
  const auto report = check_deadlock(t, tables);
  EXPECT_FALSE(report.deadlock_free);
  EXPECT_EQ(report.to_string(t),
            "channel-dependency cycle: sw1->sw2 sw2->sw3 sw3->sw4 sw4->sw5 "
            "sw5->sw0 sw0->sw1");
}

TEST(Deadlock, TorusShortestPathCyclesAtOneLane) {
  // One lane cannot break the wrap-around rings a minimal torus route
  // closes; the report names the first ring the search meets.
  const auto t = make_torus(4, 4, NiPlan::uniform(16, 1, 1));
  const auto tables =
      compute_all_routes(t, RoutingAlgorithm::kShortestPath);
  EXPECT_EQ(check_deadlock(t, tables, VcPolicy{1, false}).to_string(t),
            "channel-dependency cycle: sw_1_0->sw_2_0 sw_2_0->sw_3_0 "
            "sw_3_0->sw_0_0 sw_0_0->sw_1_0");
}

TEST(Deadlock, VcAwareCheckerMatchesSeedAtOneLane) {
  // The (link, vc) graph with one lane is exactly the seed's link graph:
  // same verdicts on a free and on a cycling case.
  const auto mesh = make_mesh(3, 3, NiPlan::uniform(9, 1, 1));
  const auto mesh_sp =
      compute_all_routes(mesh, RoutingAlgorithm::kShortestPath);
  EXPECT_TRUE(check_deadlock(mesh, mesh_sp, VcPolicy{1, false})
                  .deadlock_free);

  const auto ring = make_ring(6, NiPlan::uniform(6, 1, 1));
  const auto ring_sp =
      compute_all_routes(ring, RoutingAlgorithm::kShortestPath);
  EXPECT_FALSE(check_deadlock(ring, ring_sp, VcPolicy{1, false})
                   .deadlock_free);
}

TEST(Deadlock, DatelineBreaksRingAndTorusCycles) {
  for (auto topo : {make_ring(8, NiPlan::uniform(8, 1, 1)),
                    make_torus(4, 4, NiPlan::uniform(16, 1, 1)),
                    make_spidergon(8, NiPlan::uniform(8, 1, 1))}) {
    const auto tables =
        compute_all_routes(topo, RoutingAlgorithm::kShortestPath);
    const auto p2 =
        make_vc_policy(topo, RoutingAlgorithm::kShortestPath, 2);
    EXPECT_TRUE(p2.dateline);
    EXPECT_TRUE(check_deadlock(topo, tables, p2).deadlock_free);
  }
}

TEST(Deadlock, CycleReportNamesLanes) {
  const auto ring = make_ring(6, NiPlan::uniform(6, 1, 1));
  const auto tables =
      compute_all_routes(ring, RoutingAlgorithm::kShortestPath);
  // Two lanes *without* the dateline discipline: the cycle survives in
  // both lane copies and the report names a concrete (link, lane) cycle.
  const auto report =
      check_deadlock(ring, tables, VcPolicy{2, /*dateline=*/false});
  ASSERT_FALSE(report.deadlock_free);
  EXPECT_GE(report.cycle.size(), 2u);
  for (const auto& ch : report.cycle) EXPECT_LT(ch.vc, 2);
  EXPECT_EQ(report.to_string(ring),
            "channel-dependency cycle: sw1->sw2 sw2->sw3 sw3->sw4 sw4->sw5 "
            "sw5->sw0 sw0->sw1");
}

TEST(Deadlock, ReportPrintsFreeForCleanTables) {
  const auto t = make_mesh(2, 2, NiPlan::uniform(4, 1, 1));
  const auto tables = compute_all_routes(t, RoutingAlgorithm::kXY);
  const auto report = check_deadlock(t, tables);
  EXPECT_EQ(report.to_string(t), "deadlock-free");
}

TEST(Deadlock, EmptyTablesAreFree) {
  const auto t = make_mesh(2, 2, NiPlan::uniform(4, 1, 1));
  RoutingTables tables;
  EXPECT_TRUE(check_deadlock(t, tables).deadlock_free);
}

}  // namespace
}  // namespace xpl::topology
