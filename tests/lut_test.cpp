// NI route look-up tables.
#include "src/ni/lut.hpp"

#include <gtest/gtest.h>

#include <string>

#include "src/common/error.hpp"

namespace xpl::ni {
namespace {

Route as_route(RouteBytes bytes) { return Route(bytes.begin(), bytes.end()); }

TEST(RouteLut, LookupHitReturnsOffsetAndRoute) {
  RouteLut lut;
  lut.add_range({0x1000, 0x100, 5});
  lut.set_route(5, Route{1, 2, 3});
  const auto hit = lut.lookup(0x1042);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->dst, 5u);
  EXPECT_EQ(hit->offset, 0x42u);
  EXPECT_EQ(as_route(hit->route), (Route{1, 2, 3}));
}

TEST(RouteLut, MissReturnsNullopt) {
  RouteLut lut;
  lut.add_range({0x1000, 0x100, 5});
  lut.set_route(5, Route{1});
  EXPECT_FALSE(lut.lookup(0x0FFF).has_value());
  EXPECT_FALSE(lut.lookup(0x1100).has_value());
}

TEST(RouteLut, BoundariesAreInclusiveExclusive) {
  RouteLut lut;
  lut.add_range({0x100, 0x10, 1});
  lut.set_route(1, Route{0});
  EXPECT_TRUE(lut.lookup(0x100).has_value());
  EXPECT_TRUE(lut.lookup(0x10F).has_value());
  EXPECT_FALSE(lut.lookup(0x110).has_value());
}

TEST(RouteLut, OverlappingRangesRejected) {
  RouteLut lut;
  lut.add_range({0x0, 0x100, 0});
  EXPECT_THROW(lut.add_range({0x80, 0x100, 1}), Error);
  EXPECT_THROW(lut.add_range({0x0, 0x10, 2}), Error);
  // Adjacent is fine.
  lut.add_range({0x100, 0x100, 1});
}

// Windows are kept sorted by base and only the insert slot's neighbours
// are checked, so overlaps must be caught arriving from either side and
// in any insertion order, with the same message as ever.
TEST(RouteLut, OverlapFromEitherSideRejected) {
  RouteLut lut;
  lut.add_range({0x2000, 0x1000, 0});
  lut.add_range({0x8000, 0x1000, 1});
  const auto rejects = [&lut](const AddressRange& r) {
    try {
      lut.add_range(r);
    } catch (const Error& e) {
      return std::string(e.what()) == "RouteLut: overlapping address ranges";
    }
    return false;
  };
  EXPECT_TRUE(rejects({0x1800, 0x1000, 2}));  // from below, into 0x2000
  EXPECT_TRUE(rejects({0x2FFF, 0x10, 2}));    // from above, out of 0x2000
  EXPECT_TRUE(rejects({0x2100, 0x10, 2}));    // nested inside
  EXPECT_TRUE(rejects({0x1000, 0x8000, 2}));  // spanning both windows
  EXPECT_TRUE(rejects({0x8000, 0x1, 2}));     // same base
  EXPECT_TRUE(rejects({0x7000, 0x1001, 2}));  // one byte into 0x8000
  EXPECT_EQ(lut.num_ranges(), 2u);
}

TEST(RouteLut, AdjacentWindowsAcceptedAndHitAtBothEnds) {
  RouteLut lut;
  // Inserted out of address order: the table sorts them.
  const AddressRange windows[] = {{0x3000, 0x1000, 3},
                                  {0x1000, 0x1000, 1},
                                  {0x2000, 0x1000, 2},
                                  {0x0, 0x1000, 0},
                                  {0x4000, 0x1, 4}};
  for (const AddressRange& w : windows) {
    lut.add_range(w);
    lut.set_route(w.dst, Route{static_cast<std::uint8_t>(w.dst)});
  }
  EXPECT_EQ(lut.num_ranges(), 5u);
  for (const AddressRange& w : windows) {
    const auto first = lut.lookup(w.base);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->dst, w.dst);
    EXPECT_EQ(first->offset, 0u);
    const auto last = lut.lookup(w.base + w.size - 1);
    ASSERT_TRUE(last.has_value());
    EXPECT_EQ(last->dst, w.dst);
    EXPECT_EQ(last->offset, w.size - 1);
  }
  EXPECT_FALSE(lut.lookup(0x4001).has_value());
}

TEST(RouteLut, EmptyRangeRejected) {
  RouteLut lut;
  EXPECT_THROW(lut.add_range({0x0, 0, 0}), Error);
}

TEST(RouteLut, RangeWithoutRouteFailsLookup) {
  RouteLut lut;
  lut.add_range({0x0, 0x100, 3});
  EXPECT_THROW(lut.lookup(0x10), Error);
}

TEST(RouteLut, MultipleWindows) {
  RouteLut lut;
  for (std::uint32_t t = 0; t < 8; ++t) {
    lut.add_range({t * 0x1000ull, 0x1000, t});
    lut.set_route(t, Route{static_cast<std::uint8_t>(t % 4)});
  }
  EXPECT_EQ(lut.num_ranges(), 8u);
  EXPECT_EQ(lut.num_routes(), 8u);
  for (std::uint32_t t = 0; t < 8; ++t) {
    const auto hit = lut.lookup(t * 0x1000ull + 0x123);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->dst, t);
    EXPECT_EQ(hit->offset, 0x123u);
  }
}

TEST(ResponseLut, RoutesPerSource) {
  ResponseLut lut;
  lut.set_route(2, Route{3, 1});
  lut.set_route(7, Route{0});
  ASSERT_TRUE(lut.route_to(2).has_value());
  EXPECT_EQ(as_route(*lut.route_to(2)), (Route{3, 1}));
  ASSERT_TRUE(lut.route_to(7).has_value());
  EXPECT_FALSE(lut.route_to(3).has_value());
  EXPECT_FALSE(lut.route_to(100).has_value());
  EXPECT_EQ(lut.num_routes(), 2u);
}

TEST(ResponseLut, RouteOverwrite) {
  ResponseLut lut;
  lut.set_route(1, Route{1});
  lut.set_route(1, Route{2, 2});
  EXPECT_EQ(as_route(*lut.route_to(1)), (Route{2, 2}));
  EXPECT_EQ(lut.num_routes(), 1u);
}

}  // namespace
}  // namespace xpl::ni
