// Unit tests for the hot-path ring-buffer FIFO (common/ring.hpp).
#include "src/common/ring.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>

#include "src/common/rng.hpp"

namespace xpl {
namespace {

TEST(Ring, StartsEmpty) {
  Ring<int> r(4);
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.size(), 0u);
  EXPECT_GE(r.capacity(), 4u);
}

TEST(Ring, FifoOrder) {
  Ring<int> r(4);
  for (int i = 0; i < 4; ++i) r.push_back(i);
  EXPECT_EQ(r.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(r.front(), i);
    r.pop_front();
  }
  EXPECT_TRUE(r.empty());
}

TEST(Ring, WrapsAroundWithoutReallocation) {
  Ring<int> r(4);
  const std::size_t cap = r.capacity();
  int next = 0;
  // Push/pop through several times the capacity: head wraps, capacity
  // must never change (this is the steady-state hot path).
  for (int round = 0; round < 50; ++round) {
    r.push_back(next++);
    r.push_back(next++);
    EXPECT_EQ(r.front(), next - 2);
    r.pop_front();
    r.pop_front();
  }
  EXPECT_EQ(r.capacity(), cap);
  EXPECT_TRUE(r.empty());
}

TEST(Ring, IndexingIsFifoRelative) {
  Ring<int> r(8);
  for (int i = 0; i < 5; ++i) r.push_back(10 + i);
  r.pop_front();
  r.pop_front();
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0], 12);
  EXPECT_EQ(r[1], 13);
  EXPECT_EQ(r[2], 14);
  EXPECT_EQ(r.back(), 14);
  r[1] = 99;
  EXPECT_EQ(r[1], 99);
}

TEST(Ring, GrowsPreservingOrderWhenFull) {
  Ring<int> r;  // capacity 0: first push allocates
  for (int i = 0; i < 100; ++i) r.push_back(i);
  EXPECT_EQ(r.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(r.front(), i);
    r.pop_front();
  }
}

TEST(Ring, GrowsPreservingOrderWhenWrapped) {
  Ring<std::string> r(4);
  const std::size_t cap = r.capacity();
  // Wrap the head first, then overfill so regrow must unwrap correctly.
  for (std::size_t i = 0; i < cap; ++i) r.push_back("x");
  r.pop_front();
  r.pop_front();
  std::deque<std::string> model(cap - 2, "x");
  for (int i = 0; i < 20; ++i) {
    const std::string v = std::string("v").append(std::to_string(i));
    r.push_back(v);
    model.push_back(v);
  }
  ASSERT_EQ(r.size(), model.size());
  for (std::size_t i = 0; i < model.size(); ++i) EXPECT_EQ(r[i], model[i]);
}

TEST(Ring, MatchesDequeUnderRandomOps) {
  Ring<int> r(2);
  std::deque<int> model;
  Rng rng(1234);
  int next = 0;
  for (int step = 0; step < 10000; ++step) {
    if (model.empty() || rng.chance(0.55)) {
      r.push_back(next);
      model.push_back(next);
      ++next;
    } else {
      ASSERT_EQ(r.front(), model.front());
      r.pop_front();
      model.pop_front();
    }
    ASSERT_EQ(r.size(), model.size());
    if (!model.empty()) {
      ASSERT_EQ(r.back(), model.back());
      const std::size_t mid = model.size() / 2;
      ASSERT_EQ(r[mid], model[mid]);
    }
  }
}

TEST(Ring, ClearResets) {
  Ring<int> r(4);
  r.push_back(1);
  r.push_back(2);
  r.clear();
  EXPECT_TRUE(r.empty());
  r.push_back(7);
  EXPECT_EQ(r.front(), 7);
}

TEST(Ring, MoveOnlyFriendly) {
  // The flit path moves payload-bearing values through rings.
  Ring<std::unique_ptr<int>> r(2);
  r.push_back(std::make_unique<int>(5));
  r.emplace_back(new int(6));
  auto p = std::move(r.front());
  r.pop_front();
  EXPECT_EQ(*p, 5);
  EXPECT_EQ(*r.front(), 6);
}

}  // namespace
}  // namespace xpl
