// The one injection engine behind both traffic sources.
//
// TrafficDriver (synthetic traffic) and TracePlayer (trace replay) differ
// only in what one source cycle injects; how source cycles line up with
// kernel cycles, and how a multi-cycle run interleaves them with the
// network, lives here once (DESIGN.md §2, §12).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "src/common/error.hpp"
#include "src/noc/network.hpp"

namespace xpl::traffic {

/// Rolls a `Source` alongside its network, one source cycle per kernel
/// cycle. The source supplies the policy through two members, called on
/// the concrete type (no virtual call per rolled cycle):
///
///   bool roll(std::uint64_t cycle, std::uint64_t release);
///     Rolls source cycle `cycle`, queueing its transactions for release
///     at kernel cycle `release`; returns whether anything was injected.
///   std::uint64_t next_injection(std::uint64_t cycle) const;
///     The first source cycle >= `cycle` whose roll can inject, or
///     sim::kNever. Every roll before it must be silent (no injection, no
///     RNG draw): the engine skips those in O(1).
///
/// The engine owns the source clock: source cycle = number of cycles
/// rolled so far. step() rolls one, released now. run(n) steps the
/// network n cycles with one roll per cycle, the schedule of n ×
/// (step(); network.step()), on one of two paths:
///
///  * Unpartitioned time-leap kernel: the engine is registered as a
///    module that ticks after every network module, so the kernel takes
///    the whole span at once. A tick at cycle c rolls through c + 1 (its
///    masters tick before the engine within c + 1), then keeps rolling
///    until a roll injects, and sleeps until that cycle: the kernel leaps
///    the gap.
///  * Otherwise (the kFull reference, partitioned kernels): each
///    lookahead epoch's cycles are rolled before the kernel runs it.
///
/// Both paths queue transactions early through
/// MasterCore::push_transaction_at, whose release gate makes the queueing
/// time unobservable, and roll in cycle order, so RNG draws match too.
template <typename Source>
class InjectionEngine final : public sim::Module {
 public:
  InjectionEngine(noc::Network& network, Source& source, std::string name)
      : sim::Module(std::move(name)), network_(network), source_(source) {
    const sim::Kernel& kernel = network.kernel();
    injector_ = !kernel.partitioned() &&
                kernel.scheduler() == sim::Scheduler::kTimeLeap;
  }

  /// Registers the injector module (time-leap kernels only). Call last
  /// in the source's constructor: a constructor that throws after this
  /// would leave the kernel holding a destroyed module.
  void attach() {
    if (injector_) network_.kernel().add_module(*this);
  }

  /// Rolls one source cycle, released at the current kernel cycle.
  void step() { source_.roll(rolled_++, network_.kernel().cycle()); }

  /// Steps the network `cycles` cycles, rolling one source cycle per
  /// cycle.
  void run(std::size_t cycles) {
    sim::Kernel& kernel = network_.kernel();
    const std::uint64_t span = injector_ ? cycles : kernel.lookahead();
    for (std::size_t done = 0; done < cycles;) {
      const std::size_t n = std::min<std::uint64_t>(span, cycles - done);
      next_ = kernel.cycle();
      horizon_ = next_ + n;
      // The injector path rolls what is released at the first cycle
      // (the masters tick before the engine); pre-roll does the epoch.
      roll_ahead(injector_ ? next_ : horizon_ - 1);
      active_ = injector_;
      wake();
      network_.step(n);
      active_ = false;
      // Both paths rolled through the horizon (the injector before its
      // last sleep), so a following step() or run() starts where the
      // per-cycle schedule would.
      XPL_ASSERT(next_ == horizon_);
      done += n;
    }
  }

  /// Source cycles rolled so far.
  std::uint64_t rolled() const { return rolled_; }

  void tick(sim::Kernel& kernel) override {
    if (active_) roll_ahead(kernel.cycle() + 1);
  }
  std::uint64_t next_event(std::uint64_t now) const override {
    // Wake at the last rolled cycle: that tick rolls the next one.
    if (!active_ || next_ >= horizon_) return sim::kNever;
    return std::max(now + 1, next_ - 1);
  }

 private:
  /// Rolls every unrolled cycle of the run up to `through`; past it,
  /// keeps rolling until a roll injects or the horizon is reached.
  void roll_ahead(std::uint64_t through) {
    while (next_ < horizon_) {
      const std::uint64_t silent = std::min(
          source_.next_injection(rolled_) - rolled_, horizon_ - next_);
      if (silent != 0) {
        rolled_ += silent;
        next_ += silent;
        continue;
      }
      if (source_.roll(rolled_++, next_++) && next_ > through) return;
    }
  }

  noc::Network& network_;
  Source& source_;
  bool injector_ = false;  ///< unpartitioned time-leap kernel
  bool active_ = false;    ///< inside run()
  std::uint64_t rolled_ = 0;   ///< source cycles rolled: the source clock
  std::uint64_t next_ = 0;     ///< first kernel cycle of the run not rolled
  std::uint64_t horizon_ = 0;  ///< first kernel cycle past the run's span
};

}  // namespace xpl::traffic
