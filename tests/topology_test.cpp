// Topology structure, port numbering, generators.
#include "src/topology/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/common/error.hpp"
#include "src/topology/generators.hpp"

namespace xpl::topology {
namespace {

TEST(Topology, BuildSmall) {
  Topology t;
  const auto a = t.add_switch("a");
  const auto b = t.add_switch("b");
  t.add_duplex(a, b);
  const auto ini = t.attach_initiator(a);
  const auto tgt = t.attach_target(b);
  EXPECT_EQ(t.num_switches(), 2u);
  EXPECT_EQ(t.num_links(), 2u);
  EXPECT_EQ(t.num_nis(), 2u);
  EXPECT_TRUE(t.ni(ini).initiator);
  EXPECT_FALSE(t.ni(tgt).initiator);
  t.validate();
}

TEST(Topology, PortNumberingLinksBeforeNis) {
  Topology t;
  const auto a = t.add_switch();
  const auto b = t.add_switch();
  const auto c = t.add_switch();
  t.add_duplex(a, b);  // links 0 (a->b), 1 (b->a)
  t.add_duplex(b, c);  // links 2 (b->c), 3 (c->b)
  const auto ni = t.attach_initiator(b);

  const auto outs = t.output_ports(b);
  ASSERT_EQ(outs.size(), 3u);
  EXPECT_EQ(outs[0], (PortRef{PortRef::Kind::kLink, 1}));  // b->a
  EXPECT_EQ(outs[1], (PortRef{PortRef::Kind::kLink, 2}));  // b->c
  EXPECT_EQ(outs[2], (PortRef{PortRef::Kind::kNi, ni}));

  const auto ins = t.input_ports(b);
  ASSERT_EQ(ins.size(), 3u);
  EXPECT_EQ(ins[0], (PortRef{PortRef::Kind::kLink, 0}));  // a->b
  EXPECT_EQ(ins[1], (PortRef{PortRef::Kind::kLink, 3}));  // c->b
  EXPECT_EQ(ins[2], (PortRef{PortRef::Kind::kNi, ni}));
}

TEST(Topology, PortIndexLookup) {
  Topology t;
  const auto a = t.add_switch();
  const auto b = t.add_switch();
  t.add_duplex(a, b);
  const auto ni = t.attach_target(a);
  EXPECT_EQ(t.output_index(a, {PortRef::Kind::kNi, ni}), 1u);
  EXPECT_EQ(t.output_index(a, {PortRef::Kind::kLink, 0}), 0u);
  EXPECT_EQ(t.output_index(a, {PortRef::Kind::kLink, 99}), Topology::npos);
}

TEST(Topology, SelfLoopRejected) {
  Topology t;
  const auto a = t.add_switch();
  EXPECT_THROW(t.add_link(a, a), Error);
}

TEST(Topology, ValidateCatchesDisconnected) {
  Topology t;
  const auto a = t.add_switch();
  const auto b = t.add_switch();
  const auto c = t.add_switch();
  t.add_duplex(a, b);
  t.attach_initiator(a);
  t.attach_target(c);  // c has no links
  EXPECT_THROW(t.validate(), Error);
}

// validate()'s message for `t`, or "" if it passes.
std::string validate_error(const Topology& t) {
  try {
    t.validate();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Topology, ValidateMessages) {
  {
    Topology t;  // c has neither links nor NIs
    t.add_switch("a");
    t.add_switch("b");
    t.add_switch("c");
    t.add_duplex(0, 1);
    t.attach_initiator(0);
    t.attach_target(1);
    EXPECT_EQ(validate_error(t), "Topology: switch c has unused ports");
  }
  {
    Topology t;  // two islands: {a, b} and {c, d}
    for (const char* name : {"a", "b", "c", "d"}) t.add_switch(name);
    t.add_duplex(0, 1);
    t.add_duplex(2, 3);
    t.attach_initiator(0);
    t.attach_target(3);
    EXPECT_EQ(validate_error(t), "Topology: switch c unreachable from a");
  }
  {
    Topology t;  // c is a sink: only its NI ports lead out of it
    t.add_switch("a");
    t.add_switch("b");
    t.add_switch("c");
    t.add_duplex(0, 1);
    t.add_link(1, 2);
    t.attach_target(2);
    EXPECT_EQ(validate_error(t), "Topology: switch a unreachable from c");
  }
  {
    Topology t;
    EXPECT_EQ(validate_error(t), "Topology: no switches");
    t.add_switch("a");
    EXPECT_EQ(validate_error(t), "Topology: no network interfaces");
  }
}

// The whole-table scan the per-switch port index replaces.
std::vector<PortRef> scan_ports(const Topology& t, std::uint32_t s,
                                bool outputs) {
  std::vector<PortRef> ports;
  for (std::uint32_t l = 0; l < t.num_links(); ++l) {
    if ((outputs ? t.link(l).from : t.link(l).to) == s) {
      ports.push_back(PortRef{PortRef::Kind::kLink, l});
    }
  }
  for (std::uint32_t n = 0; n < t.num_nis(); ++n) {
    if (t.ni(n).switch_id == s) ports.push_back(PortRef{PortRef::Kind::kNi, n});
  }
  return ports;
}

void expect_index_matches_scan(const Topology& t, const std::string& name) {
  std::size_t max_in = 0;
  std::size_t max_out = 0;
  for (std::uint32_t s = 0; s < t.num_switches(); ++s) {
    const auto& ins = t.input_ports(s);
    const auto& outs = t.output_ports(s);
    EXPECT_EQ(ins, scan_ports(t, s, /*outputs=*/false)) << name << " " << s;
    EXPECT_EQ(outs, scan_ports(t, s, /*outputs=*/true)) << name << " " << s;
    for (std::size_t i = 0; i < ins.size(); ++i) {
      EXPECT_EQ(t.input_index(s, ins[i]), i) << name << " " << s;
    }
    for (std::size_t i = 0; i < outs.size(); ++i) {
      EXPECT_EQ(t.output_index(s, outs[i]), i) << name << " " << s;
    }
    max_in = std::max(max_in, ins.size());
    max_out = std::max(max_out, outs.size());
  }
  EXPECT_EQ(t.max_radix_in(), max_in) << name;
  EXPECT_EQ(t.max_radix_out(), max_out) << name;
}

TEST(Topology, PortIndexMatchesScanOnEveryGenerator) {
  expect_index_matches_scan(make_mesh(4, 3, NiPlan::uniform(12, 1, 2)),
                            "mesh");
  expect_index_matches_scan(make_torus(4, 3, NiPlan::uniform(12, 1, 1)),
                            "torus");
  expect_index_matches_scan(make_ring(5, NiPlan::uniform(5, 2, 1), 1),
                            "ring");
  expect_index_matches_scan(make_spidergon(8, NiPlan::uniform(8, 1, 1)),
                            "spidergon");
  expect_index_matches_scan(make_star(5, NiPlan::uniform(6, 1, 1)), "star");
  expect_index_matches_scan(make_binary_tree(3, NiPlan::uniform(7, 1, 1)),
                            "tree");
  expect_index_matches_scan(make_cmesh(3, 2, 3), "cmesh");
  expect_index_matches_scan(make_paper_case_study(), "paper");
}

TEST(Topology, PortIndexKeepsLinksBeforeNisWhenInterleaved) {
  Topology t;
  const auto a = t.add_switch();
  const auto b = t.add_switch();
  const auto c = t.add_switch();
  const auto ni0 = t.attach_initiator(b);  // before any link of b
  t.add_duplex(a, b);                      // links 0 (a->b), 1 (b->a)
  const auto ni1 = t.attach_target(b);
  t.add_link(c, b);  // link 2
  t.attach_initiator(a);
  t.add_link(b, c);  // link 3
  t.add_duplex(a, c);
  t.attach_target(c);
  expect_index_matches_scan(t, "interleaved");
  using K = PortRef::Kind;
  EXPECT_EQ(t.output_ports(b),
            (std::vector<PortRef>{{K::kLink, 1}, {K::kLink, 3},
                                  {K::kNi, ni0}, {K::kNi, ni1}}));
  EXPECT_EQ(t.input_ports(b),
            (std::vector<PortRef>{{K::kLink, 0}, {K::kLink, 2},
                                  {K::kNi, ni0}, {K::kNi, ni1}}));
}

TEST(Topology, CopyCarriesItsOwnIndex) {
  const Topology original = make_ring(4, NiPlan::uniform(4, 1, 1));
  Topology copy = original;
  copy.add_link(0, 2);
  expect_index_matches_scan(original, "original");
  expect_index_matches_scan(copy, "copy");
  EXPECT_EQ(copy.output_ports(0).size(), original.output_ports(0).size() + 1);
}

TEST(Topology, SetLinkStagesChangesOnlyTheDepth) {
  Topology t = make_mesh(2, 2, NiPlan::uniform(4, 1, 1));
  const Link before = t.link(1);
  t.set_link_stages(1, 3);
  EXPECT_EQ(t.link(1).stages, 3u);
  EXPECT_EQ(t.link(1).from, before.from);
  EXPECT_EQ(t.link(1).to, before.to);
  expect_index_matches_scan(t, "restaged");
  EXPECT_THROW(t.set_link_stages(99, 1), Error);
}

TEST(Topology, InitiatorAndTargetLists) {
  Topology t;
  const auto a = t.add_switch();
  const auto b = t.add_switch();
  t.add_duplex(a, b);
  t.attach_initiator(a);
  t.attach_target(a);
  t.attach_initiator(b);
  t.attach_target(b);
  EXPECT_EQ(t.initiator_ids(), (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(t.target_ids(), (std::vector<std::uint32_t>{1, 3}));
}

TEST(Generators, MeshShape) {
  const auto t = make_mesh(3, 4, NiPlan::uniform(12, 1, 1));
  EXPECT_EQ(t.num_switches(), 12u);
  // Grid links: 2*(2*4 + 3*3) = 34 directed.
  EXPECT_EQ(t.num_links(), 34u);
  EXPECT_EQ(t.num_nis(), 24u);
  t.validate();
  // Coordinates for XY routing.
  EXPECT_EQ(t.switch_node(0).x, 0);
  EXPECT_EQ(t.switch_node(0).y, 0);
  EXPECT_EQ(t.switch_node(5).x, 2);
  EXPECT_EQ(t.switch_node(5).y, 1);
}

TEST(Generators, MeshCornerAndCenterRadix) {
  const auto t = make_mesh(3, 3, NiPlan::uniform(9, 1, 0));
  // Corner: 2 links + 1 NI = 3; center: 4 links + 1 NI = 5.
  EXPECT_EQ(t.output_ports(0).size(), 3u);
  EXPECT_EQ(t.output_ports(4).size(), 5u);
  EXPECT_EQ(t.max_radix_out(), 5u);
}

TEST(Generators, CmeshConcentratesNis) {
  const auto t = make_cmesh(4, 2, 4);
  EXPECT_EQ(t.num_switches(), 8u);
  // Same grid links as a 4x2 mesh: 2*(3*2 + 4*1) = 20 directed.
  EXPECT_EQ(t.num_links(), 20u);
  // Concentration 4: 4 initiator + 4 target NIs per switch.
  EXPECT_EQ(t.num_nis(), 64u);
  t.validate();
  // Coordinates survive for XY routing.
  EXPECT_EQ(t.switch_node(5).x, 1);
  EXPECT_EQ(t.switch_node(5).y, 1);
  // Default one relay stage per grid link (fat tiles; also what makes
  // partitioned simulation run 2-cycle lookahead epochs).
  for (std::uint32_t l = 0; l < t.num_links(); ++l) {
    EXPECT_EQ(t.link(l).stages, 1u);
  }
  EXPECT_THROW(make_cmesh(4, 2, 0), Error);
}

TEST(Generators, TorusAddsWrapLinks) {
  const auto t = make_torus(3, 3, NiPlan::uniform(9, 1, 0));
  EXPECT_EQ(t.num_switches(), 9u);
  // Every switch has degree 4 in a torus: 9*4 = 36 directed links.
  EXPECT_EQ(t.num_links(), 36u);
  t.validate();
}

TEST(Generators, Ring) {
  const auto t = make_ring(5, NiPlan::uniform(5, 1, 1));
  EXPECT_EQ(t.num_switches(), 5u);
  EXPECT_EQ(t.num_links(), 10u);
  t.validate();
}

TEST(Generators, StarHubRadix) {
  const auto t = make_star(4, NiPlan::uniform(5, 1, 0));
  EXPECT_EQ(t.num_switches(), 5u);
  // Hub: 4 links out + 1 NI.
  EXPECT_EQ(t.output_ports(0).size(), 5u);
  t.validate();
}

TEST(Generators, Spidergon) {
  const auto t = make_spidergon(6, NiPlan::uniform(6, 1, 0));
  EXPECT_EQ(t.num_switches(), 6u);
  // Ring 12 + cross 6 directed links.
  EXPECT_EQ(t.num_links(), 18u);
  t.validate();
  EXPECT_THROW(make_spidergon(5, NiPlan::uniform(5, 1, 0)), Error);
}

TEST(Generators, BinaryTree) {
  const auto t = make_binary_tree(3, NiPlan::uniform(7, 1, 0));
  EXPECT_EQ(t.num_switches(), 7u);
  EXPECT_EQ(t.num_links(), 12u);
  t.validate();
}

TEST(Generators, PaperCaseStudyInventory) {
  const auto t = make_paper_case_study();
  EXPECT_EQ(t.num_switches(), 12u);
  // The paper: 8 processors, 11 slaves on a 3x4 mesh.
  EXPECT_EQ(t.initiator_ids().size(), 8u);
  EXPECT_EQ(t.target_ids().size(), 11u);
  t.validate();
  // The two switch shapes the paper reports: 4x4 and 6x4.
  std::size_t max_in = t.max_radix_in();
  std::size_t max_out = t.max_radix_out();
  EXPECT_EQ(max_in, 6u);
  EXPECT_EQ(max_out, 6u);
}

TEST(Generators, DegenerateDimensionsRejected) {
  EXPECT_THROW(make_mesh(0, 3, NiPlan{}), Error);
  EXPECT_THROW(make_ring(2, NiPlan{}), Error);
  EXPECT_THROW(make_torus(2, 3, NiPlan{}), Error);
}

}  // namespace
}  // namespace xpl::topology
