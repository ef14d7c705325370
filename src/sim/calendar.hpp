// Timed-wake calendar for the time-leap scheduler (DESIGN.md §2).
//
// Modules that go idle *with pending future state* (a link beat mid-pipe,
// a slave job inside its latency window, a master blocked on a release
// cycle, a driver between injections) declare the cycle of their next
// self-driven state change via Module::next_event(). The kernel parks
// them here; when the active set drains it leaps the clock straight to
// the calendar's next due cycle instead of walking the gap.
//
// Structure: a bucketed time wheel for near dues plus an overflow
// min-heap for far ones. The wheel covers a sliding window of
// kWheelBuckets cycles starting at window_start_; scheduling inside the
// window is O(1) (links, slaves and credit round trips land here — dues
// a few cycles out), anything beyond goes to the heap (driver
// next-injection cycles across long idle gaps). The wheel never migrates
// heap entries on small slides: the heap is drained directly by
// advance(), so wheel residency is purely an optimization and both
// containers agree on semantics.
//
// Entries are never deleted early. A module woken by a signal before its
// due cycle leaves a stale entry behind; the resulting spurious wake
// ticks a module whose frozen ticks are observable no-ops (the same
// contract that makes time-leap == full), so duplicates and stale entries
// are harmless by construction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/error.hpp"

namespace xpl::sim {

class Module;

/// Sentinel for "no pending due cycle" / "no self-driven next event".
inline constexpr std::uint64_t kNever = ~std::uint64_t{0};

class WakeCalendar {
 public:
  /// Parks `m` for a wake at cycle `due`. `due` must be strictly greater
  /// than the current cycle (the kernel wakes immediately otherwise).
  void schedule(std::uint64_t due, Module* m) {
    XPL_ASSERT(due >= window_start_);
    if (due - window_start_ < kWheelBuckets) {
      Bucket& b = wheel_[due % kWheelBuckets];
      XPL_ASSERT(b.entries.empty() || b.due == due);
      b.due = due;
      b.entries.push_back(m);
      set_bit(due % kWheelBuckets);
    } else {
      heap_.push_back({due, m});
      std::push_heap(heap_.begin(), heap_.end(), later);
    }
    ++size_;
  }

  /// Wakes every parked module whose due cycle is <= `now` and slides the
  /// window to start at now + 1. Cost is proportional to the entries
  /// actually due plus a bitmap-word scan — not to the distance slid, so
  /// leaping a million-cycle gap costs the same as stepping one cycle.
  void advance(std::uint64_t now);

  /// Earliest pending due cycle, or kNever when nothing is parked.
  std::uint64_t next_due() const;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

 private:
  struct Entry {
    std::uint64_t due = 0;
    Module* module = nullptr;
  };
  /// Wheel slot. Single-due invariant: a bucket only holds entries of one
  /// due cycle at a time — a new due can map to an occupied bucket only
  /// one full wheel revolution later, and advance() has emptied it by
  /// then (it never slides past an unserved due).
  struct Bucket {
    std::uint64_t due = 0;
    std::vector<Module*> entries;
  };

  static constexpr std::size_t kWheelBuckets = 256;
  static constexpr std::size_t kBitmapWords = kWheelBuckets / 64;

  static bool later(const Entry& a, const Entry& b) { return a.due > b.due; }

  void set_bit(std::size_t bucket) {
    bitmap_[bucket / 64] |= std::uint64_t{1} << (bucket % 64);
  }
  void clear_bit(std::size_t bucket) {
    bitmap_[bucket / 64] &= ~(std::uint64_t{1} << (bucket % 64));
  }

  std::vector<Bucket> wheel_{kWheelBuckets};
  std::uint64_t bitmap_[kBitmapWords] = {0, 0, 0, 0};
  std::vector<Entry> heap_;  ///< std::push_heap/pop_heap min-heap on due
  std::uint64_t window_start_ = 0;  ///< wheel covers [start, start + 256)
  std::size_t size_ = 0;
};

}  // namespace xpl::sim
