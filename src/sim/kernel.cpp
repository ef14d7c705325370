#include "src/sim/kernel.hpp"

#include <algorithm>

#include "src/sim/partition.hpp"

namespace xpl::sim {

namespace detail {
constinit thread_local const std::uint64_t* g_cycle_override = nullptr;
}  // namespace detail

Kernel::Kernel(Scheduler scheduler) : scheduler_(scheduler) {}
Kernel::~Kernel() = default;

void Kernel::configure_partitions(std::size_t partitions,
                                  std::size_t threads) {
  // Must precede all signal/module creation: dirty-list routing and
  // partition membership are fixed at creation time.
  XPL_ASSERT(modules_.empty() && signal_count_ == 0);
  if (partitions <= 1) return;
  partitions_.reserve(partitions);
  for (std::size_t p = 0; p < partitions; ++p) {
    partitions_.push_back(std::make_unique<Partition>());
  }
  threads_ = std::clamp<std::size_t>(threads, 1, partitions);
}

std::uint64_t Kernel::cut_flits() const {
  std::uint64_t total = 0;
  for (const CutChannel* c : cuts_) total += c->flits_exchanged();
  return total;
}

void Kernel::step() {
  if (partitioned()) {
    run_epoch(1);
    return;
  }
  if (scheduler_ == Scheduler::kGated) {
    step_gated();
    return;
  }
  if (scheduler_ == Scheduler::kTimeLeap) {
    // A single step never leaps: step() is the cycle-exact primitive the
    // differential harness and run_until lean on.
    step_timeleap();
    return;
  }
  for (Module* m : modules_) {
    m->tick(*this);
  }
  // Commit per type pool: one virtual dispatch per signal *type*, then a
  // tight non-virtual loop testing each signal's written flag (see
  // Signal::commit and DESIGN.md §2).
  for (auto& pool : pools_) {
    pool->commit_all();
  }
  ++cycle_;
  for (auto& p : probes_) {
    p(cycle_);
  }
}

void Kernel::step_gated() {
  // Tick only the active set. Writes to watched signals during this phase
  // set the writers' consumers' woken flags and append dirty entries.
  for (Module* m : modules_) {
    if (m->awake_) m->tick(*this);
  }
  // Commit exactly the signals written this cycle. Under gating write
  // density is low (idle modules drive nothing), so the dirty list beats
  // the full-pool flag scan that wins at ~100% density (DESIGN.md §2/§9).
  for (const DirtyEntry& e : dirty_) {
    e.commit(e.signal);
  }
  dirty_.clear();
  // Active-set update, after commit so is_idle() reads committed values:
  // a woken module joins the set; a ticked module leaves it only when its
  // quiescence predicate holds.
  for (Module* m : modules_) {
    if (m->woken_) {
      m->awake_ = true;
      m->woken_ = false;
    } else if (m->awake_) {
      m->awake_ = !m->is_idle();
    }
  }
  ++cycle_;
  for (auto& p : probes_) {
    p(cycle_);
  }
}

void Kernel::step_timeleap() {
  // Serve the calendar first: a module due this cycle must tick this
  // cycle. wake() also sets woken_, so a calendar-woken module stays in
  // the active set one extra cycle — a harmless frozen-tick no-op, the
  // same slack gated wakes have.
  calendar_.advance(cycle_);
  for (Module* m : modules_) {
    if (m->awake_) m->tick(*this);
  }
  for (const DirtyEntry& e : dirty_) {
    e.commit(e.signal);
  }
  dirty_.clear();
  // Active-set update, gated rules plus the calendar exit: a busy module
  // whose next self-driven change lies beyond the next cycle parks on the
  // calendar instead of spinning through bookkeeping-only ticks.
  std::size_t awake = 0;
  for (Module* m : modules_) {
    if (m->woken_) {
      m->awake_ = true;
      m->woken_ = false;
      ++awake;
    } else if (m->awake_) {
      if (m->is_idle()) {
        m->awake_ = false;  // signal-wake only, exactly as gated
      } else {
        const std::uint64_t e = m->next_event(cycle_);
        if (e <= cycle_ + 1) {
          ++awake;
        } else {
          m->awake_ = false;
          if (e != kNever) calendar_.schedule(e, m);
        }
      }
    }
  }
  awake_n_ = awake;
  ++cycle_;
  for (auto& p : probes_) {
    p(cycle_);
  }
}

void Kernel::refresh_awake_n() {
  std::size_t n = 0;
  for (const Module* m : modules_) {
    if (m->awake_) ++n;
  }
  awake_n_ = n;
}

void Kernel::run_timeleap(std::uint64_t cycles) {
  refresh_awake_n();
  const std::uint64_t end = cycle_ + cycles;
  while (cycle_ < end) {
    // Probes force per-cycle stepping: they observe every committed
    // cycle, and a leapt cycle is never committed.
    if (awake_n_ == 0 && probes_.empty()) {
      const std::uint64_t target = std::min(calendar_.next_due(), end);
      if (target > cycle_) {
        leapt_cycles_ += target - cycle_;
        cycle_ = target;
        continue;
      }
    }
    step_timeleap();
  }
}

void Kernel::run_partition(Partition& p, std::uint64_t k) {
  p.local_cycle = cycle_;
  detail::g_cycle_override = &p.local_cycle;
  if (scheduler_ == Scheduler::kGated) {
    for (std::uint64_t i = 0; i < k; ++i) {
      for (Module* m : p.modules) {
        if (m->awake_) m->tick(*this);
      }
      for (const DirtyEntry& e : p.dirty) {
        e.commit(e.signal);
      }
      p.dirty.clear();
      for (Module* m : p.modules) {
        if (m->woken_) {
          m->awake_ = true;
          m->woken_ = false;
        } else if (m->awake_) {
          m->awake_ = !m->is_idle();
        }
      }
      ++p.local_cycle;
    }
  } else if (scheduler_ == Scheduler::kTimeLeap) {
    // Refresh the partition's awake count at epoch entry: exchange
    // deliveries and external pushes flip awake_ flags between epochs
    // without this loop seeing them.
    std::size_t awake = 0;
    for (const Module* m : p.modules) {
      if (m->awake_) ++awake;
    }
    const std::uint64_t epoch_end = cycle_ + k;
    while (p.local_cycle < epoch_end) {
      if (awake == 0) {
        // Partition-local leap, capped at the epoch barrier: a record
        // staged for a neighbour is only delivered at the barrier, so a
        // leap may never cross it.
        const std::uint64_t target =
            std::min(p.calendar.next_due(), epoch_end);
        if (target > p.local_cycle) {
          p.leapt += target - p.local_cycle;
          p.local_cycle = target;
          continue;
        }
      }
      p.calendar.advance(p.local_cycle);
      for (Module* m : p.modules) {
        if (m->awake_) m->tick(*this);
      }
      for (const DirtyEntry& e : p.dirty) {
        e.commit(e.signal);
      }
      p.dirty.clear();
      awake = 0;
      for (Module* m : p.modules) {
        if (m->woken_) {
          m->awake_ = true;
          m->woken_ = false;
          ++awake;
        } else if (m->awake_) {
          if (m->is_idle()) {
            m->awake_ = false;
          } else {
            const std::uint64_t e = m->next_event(p.local_cycle);
            if (e <= p.local_cycle + 1) {
              ++awake;
            } else {
              m->awake_ = false;
              if (e != kNever) p.calendar.schedule(e, m);
            }
          }
        }
      }
      ++p.local_cycle;
    }
  } else {
    // Full scheduler, partitioned: tick everything, but commit via the
    // partition dirty list — the per-type pool sweep cannot be split by
    // partition. Wake flags set by watched writes are ignored here.
    for (std::uint64_t i = 0; i < k; ++i) {
      for (Module* m : p.modules) {
        m->tick(*this);
      }
      for (const DirtyEntry& e : p.dirty) {
        e.commit(e.signal);
      }
      p.dirty.clear();
      ++p.local_cycle;
    }
  }
  detail::g_cycle_override = nullptr;
}

// Serial one-cycle epochs (mesh cuts have zero stages, so k == 1) gain
// nothing from per-partition passes but pay their cache cost: two walks
// over the module list and signal working set per cycle instead of one.
// At saturation that measured ~25-35% on a 1-core host. Fuse the
// partitions into one global-registration-order pass — bit-exact, since
// cross-partition reads and watches are forbidden by construction,
// partition module lists are subsequences of modules_, and commits of
// distinct signals commute (the invariance suite and goldens pin this).
void Kernel::step_partitions_fused() {
  if (scheduler_ == Scheduler::kGated) {
    for (Module* m : modules_) {
      if (m->awake_) m->tick(*this);
    }
    for (auto& p : partitions_) {
      for (const DirtyEntry& e : p->dirty) {
        e.commit(e.signal);
      }
      p->dirty.clear();
    }
    for (Module* m : modules_) {
      if (m->woken_) {
        m->awake_ = true;
        m->woken_ = false;
      } else if (m->awake_) {
        m->awake_ = !m->is_idle();
      }
    }
  } else if (scheduler_ == Scheduler::kTimeLeap) {
    // Fused one-cycle epoch, time-leap flavour: same global-order pass as
    // gated, but idle-with-future-state modules park on their partition's
    // calendar. Intra-epoch leaps are impossible at k == 1; the wholesale
    // all-asleep fast-forward lives in Kernel::run.
    for (auto& p : partitions_) {
      p->calendar.advance(cycle_);
    }
    for (Module* m : modules_) {
      if (m->awake_) m->tick(*this);
    }
    for (auto& p : partitions_) {
      for (const DirtyEntry& e : p->dirty) {
        e.commit(e.signal);
      }
      p->dirty.clear();
    }
    for (Module* m : modules_) {
      if (m->woken_) {
        m->awake_ = true;
        m->woken_ = false;
      } else if (m->awake_) {
        if (m->is_idle()) {
          m->awake_ = false;
        } else {
          const std::uint64_t e = m->next_event(cycle_);
          if (e > cycle_ + 1) {
            m->awake_ = false;
            if (e != kNever) {
              partitions_[m->partition_]->calendar.schedule(e, m);
            }
          }
        }
      }
    }
  } else {
    for (Module* m : modules_) {
      m->tick(*this);
    }
    for (auto& p : partitions_) {
      for (const DirtyEntry& e : p->dirty) {
        e.commit(e.signal);
      }
      p->dirty.clear();
    }
  }
}

void Kernel::run_epoch(std::uint64_t k) {
  if (threads_ > 1) {
    if (!pool_) pool_ = std::make_unique<PartitionPool>(*this, threads_);
    pool_->run_epoch(k);
  } else if (k == 1) {
    step_partitions_fused();
  } else {
    for (auto& p : partitions_) {
      run_partition(*p, k);
    }
  }
  cycle_ += k;
  // Single-threaded exchange in registration (= topology link id) order:
  // the determinism anchor for all cross-partition effects.
  for (CutChannel* c : cuts_) {
    c->exchange();
  }
  ++epochs_;
}

std::size_t Kernel::awake_count() const {
  if (scheduler_ == Scheduler::kFull) return modules_.size();
  std::size_t n = 0;
  for (const Module* m : modules_) {
    if (m->awake_) ++n;
  }
  return n;
}

std::uint64_t Kernel::digest() const {
  Digest d;
  for (const auto& pool : pools_) {
    pool->digest_into(d);
  }
  return d.value();
}

void Kernel::run(std::uint64_t cycles) {
  if (!partitioned()) {
    if (scheduler_ == Scheduler::kTimeLeap) {
      run_timeleap(cycles);
      return;
    }
    for (std::uint64_t i = 0; i < cycles; ++i) step();
    return;
  }
  while (cycles > 0) {
    if (scheduler_ == Scheduler::kTimeLeap) {
      // Wholesale epoch fast-forward: when every module in every
      // partition is asleep, no epoch before the earliest calendar due
      // can tick anything, stage anything, or exchange anything (empty
      // exchanges are no-ops, and all-asleep implies no undelivered
      // wakes), so the skipped epochs need not execute at all. epochs()
      // counts executed barriers only.
      bool any_awake = false;
      for (const Module* m : modules_) {
        if (m->awake_) {
          any_awake = true;
          break;
        }
      }
      if (!any_awake) {
        std::uint64_t min_due = kNever;
        for (const auto& p : partitions_) {
          min_due = std::min(min_due, p->calendar.next_due());
        }
        std::uint64_t skip = cycles;
        if (min_due != kNever) {
          skip = std::min(skip, min_due > cycle_ ? min_due - cycle_
                                                 : std::uint64_t{0});
        }
        if (skip > 0) {
          cycle_ += skip;
          leapt_cycles_ += skip;
          cycles -= skip;
          continue;
        }
      }
    }
    const std::uint64_t k = std::min<std::uint64_t>(lookahead_, cycles);
    run_epoch(k);
    cycles -= k;
  }
}

std::uint64_t Kernel::run_until(const std::function<bool()>& done,
                                std::uint64_t max_cycles) {
  if (scheduler_ == Scheduler::kTimeLeap && !partitioned()) {
    // Leaping stays cycle-exact for the callers this interface serves:
    // done() predicates read module state (drain/quiescence checks),
    // which is frozen across a leapt gap, so one evaluation before the
    // leap covers every skipped boundary.
    refresh_awake_n();
    std::uint64_t n = 0;
    while (n < max_cycles && !done()) {
      if (awake_n_ == 0 && probes_.empty()) {
        const std::uint64_t end = cycle_ + (max_cycles - n);
        const std::uint64_t target = std::min(calendar_.next_due(), end);
        if (target > cycle_) {
          const std::uint64_t d = target - cycle_;
          leapt_cycles_ += d;
          cycle_ = target;
          n += d;
          continue;
        }
      }
      step_timeleap();
      ++n;
    }
    return n;
  }
  std::uint64_t n = 0;
  while (n < max_cycles && !done()) {
    step();
    ++n;
  }
  return n;
}

std::uint64_t Kernel::leapt_cycles() const {
  std::uint64_t total = leapt_cycles_;
  for (const auto& p : partitions_) total += p->leapt;
  return total;
}

}  // namespace xpl::sim
