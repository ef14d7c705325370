#include "src/sim/kernel.hpp"

#include <algorithm>
#include <bit>

#include "src/sim/partition.hpp"

namespace xpl::sim {

namespace detail {
constinit thread_local const std::uint64_t* g_cycle_override = nullptr;
}  // namespace detail

bool ActiveSet::any_awake() const {
  return std::any_of(awake_.begin(), awake_.end(),
                     [](std::uint64_t w) { return w != 0; });
}

std::size_t ActiveSet::awake_count() const {
  std::size_t n = 0;
  for (const std::uint64_t w : awake_) n += std::popcount(w);
  return n;
}

Kernel::Kernel(Scheduler scheduler) : scheduler_(scheduler) {
  partitions_.push_back(std::make_unique<Partition>());
}
Kernel::~Kernel() = default;

void Kernel::configure_partitions(std::size_t partitions,
                                  std::size_t threads) {
  // Must precede all signal/module creation: dirty-list routing and
  // partition membership are fixed at creation time.
  XPL_ASSERT(modules_.empty() && signal_count_ == 0);
  if (partitions <= 1) return;
  while (partitions_.size() < partitions) {
    partitions_.push_back(std::make_unique<Partition>());
  }
  threads_ = std::clamp<std::size_t>(threads, 1, partitions);
}

std::uint64_t Kernel::cut_flits() const {
  std::uint64_t total = 0;
  for (const CutChannel* c : cuts_) total += c->flits_exchanged();
  return total;
}

bool Kernel::any_awake(Parts parts) {
  return std::any_of(parts.begin(), parts.end(),
                     [](const auto& p) { return p->active.any_awake(); });
}

bool Kernel::run_cycle(Parts parts, std::uint64_t& clock) {
  // Serve the calendars first: a module due this cycle must tick this
  // cycle. wake() also sets the woken bit, so a calendar-woken module
  // stays in the active set one extra cycle — a harmless frozen-tick no-op.
  for (const auto& p : parts) p->calendar.advance(clock);
  // Tick the awake bits in ascending slot order. Writes to watched
  // signals set the consumers' bits and append dirty entries; the word is
  // re-read after every tick, so a consumer woken at a later slot ticks
  // this same cycle, one at an earlier slot on the next (Module::wake).
  for (const auto& p : parts) {
    const ActiveSet& set = p->active;
    for (std::size_t w = 0; w < set.awake_.size(); ++w) {
      std::uint64_t ahead = ~std::uint64_t{0};  // slots not yet passed
      while (const std::uint64_t bits = set.awake_[w] & ahead) {
        const int b = std::countr_zero(bits);
        ahead = b == 63 ? 0 : ~std::uint64_t{0} << (b + 1);
        p->modules[w * 64 + b]->tick(*this);
      }
    }
  }
  // Commit exactly the signals written this cycle. Signals of distinct
  // partitions are distinct, so commit order across parts is free.
  for (const auto& p : parts) {
    for (const DirtyEntry& e : p->dirty) e.commit(e.signal);
    p->dirty.clear();
  }
  bool awake = scheduler_ == Scheduler::kFull;
  if (!awake) {
    // Active-set update, after commit so next_event() reads committed
    // values. It visits only the awake bits: a woken module stays in the
    // set; any other awake module ticked this cycle and stays only when
    // its next event is the next cycle. Otherwise it leaves the set, and
    // parks on its partition's calendar unless that event is kNever.
    for (const auto& p : parts) {
      ActiveSet& set = p->active;
      for (std::size_t w = 0; w < set.awake_.size(); ++w) {
        std::uint64_t keep = set.woken_[w];
        set.woken_[w] = 0;
        for (std::uint64_t ticked = set.awake_[w] & ~keep; ticked != 0;
             ticked &= ticked - 1) {
          const int b = std::countr_zero(ticked);
          Module* m = p->modules[w * 64 + b];
          if (const std::uint64_t e = m->next_event(clock); e > clock + 1) {
            if (e != kNever) p->calendar.schedule(e, m);
            continue;
          }
          keep |= std::uint64_t{1} << b;
        }
        set.awake_[w] = keep;
        awake = awake || keep != 0;
      }
    }
  }
  ++clock;
  for (auto& probe : probes_) probe(clock);
  return awake;
}

std::uint64_t Kernel::leap_target(Parts parts, std::uint64_t now,
                                  std::uint64_t end) const {
  // Probes observe every committed cycle, and a leapt cycle is never
  // committed.
  if (scheduler_ == Scheduler::kFull || !probes_.empty()) return now;
  std::uint64_t due = end;
  for (const auto& p : parts) due = std::min(due, p->calendar.next_due());
  return std::max(due, now);
}

std::uint64_t Kernel::advance(std::uint64_t end,
                              const std::function<bool()>* done) {
  const std::uint64_t start = cycle_;
  // Counted afresh on entry: external wakes (push_transaction between
  // runs) set awake bits without the loop seeing them.
  bool awake = any_awake(partitions_);
  while (cycle_ < end && (done == nullptr || !(*done)())) {
    // When every partition sleeps, no cycle before the earliest calendar
    // due can tick, stage or exchange anything (all-asleep implies no
    // undelivered wakes), so those cycles — and any epochs in them —
    // need not execute at all.
    const std::uint64_t to =
        awake ? cycle_ : leap_target(partitions_, cycle_, end);
    if (to > cycle_) {
      partitions_[0]->leapt += to - cycle_;
      cycle_ = to;
      continue;
    }
    const std::uint64_t k = done != nullptr ? 1 : lookahead();
    awake = run_epoch(std::min(k, end - cycle_));
  }
  return cycle_ - start;
}

bool Kernel::run_epoch(std::uint64_t k) {
  if (!partitioned()) return run_cycle(partitions_, cycle_);
  const std::uint64_t end = cycle_ + k;
  if (threads_ > 1) {
    if (!pool_) pool_ = std::make_unique<PartitionPool>(*this, threads_);
    pool_->run_epoch(k);
  } else if (k == 1) {
    // Serial one-cycle epochs (mesh cuts have zero stages) gain nothing
    // from per-partition leap loops, so all partitions run as one cycle:
    // each phase walks the partitions in turn. Bit-exact: cross-partition
    // reads and watches are forbidden by construction, so no tick of one
    // partition can see another's.
    run_cycle(partitions_, cycle_);
  } else {
    for (std::size_t i = 0; i < partitions_.size(); ++i) run_partition(i, k);
  }
  cycle_ = end;
  // Single-threaded exchange in registration (= topology link id) order:
  // the determinism anchor for all cross-partition effects.
  for (CutChannel* c : cuts_) c->exchange();
  ++epochs_;
  return any_awake(partitions_);
}

void Kernel::run_partition(std::size_t i, std::uint64_t k) {
  Partition& p = *partitions_[i];
  const Parts parts = Parts(partitions_).subspan(i, 1);
  const std::uint64_t end = cycle_ + k;
  p.local_cycle = cycle_;
  detail::g_cycle_override = &p.local_cycle;
  // Exchange deliveries and external pushes set awake bits between
  // epochs, so the partition's state is read afresh here. A leap stops at
  // the epoch barrier: a record staged for a neighbour is only delivered
  // there.
  bool awake = p.active.any_awake();
  while (p.local_cycle < end) {
    const std::uint64_t to =
        awake ? p.local_cycle : leap_target(parts, p.local_cycle, end);
    if (to > p.local_cycle) {
      p.leapt += to - p.local_cycle;
      p.local_cycle = to;
      continue;
    }
    awake = run_cycle(parts, p.local_cycle);
  }
  detail::g_cycle_override = nullptr;
}

void Kernel::step() { run_epoch(1); }

void Kernel::run(std::uint64_t cycles) { advance(cycle_ + cycles, nullptr); }

std::uint64_t Kernel::run_until(const std::function<bool()>& done,
                                std::uint64_t max_cycles) {
  return advance(cycle_ + max_cycles, &done);
}

std::size_t Kernel::awake_count() const {
  std::size_t n = 0;
  for (const auto& p : partitions_) n += p->active.awake_count();
  return n;
}

std::uint64_t Kernel::digest() const {
  Digest d;
  for (const auto& pool : pools_) pool->digest_into(d);
  return d.value();
}

std::uint64_t Kernel::leapt_cycles() const {
  std::uint64_t total = 0;
  for (const auto& p : partitions_) total += p->leapt;
  return total;
}

}  // namespace xpl::sim
