// Cycle-accurate two-phase simulation kernel.
//
// This is the repository's substitute for the SystemC runtime the original
// xpipes lite library was written against (see DESIGN.md §2). The modelling
// discipline matches fully synchronous, fully registered RTL:
//
//  * Every inter-module connection is a Signal<T> with current/next values.
//  * Each cycle the kernel calls Module::tick() on every awake module. A
//    tick reads only *current* signal values and writes *next* values,
//    then the kernel commits all written signals at once. Module
//    evaluation order therefore cannot affect results, and every signal
//    hop costs exactly one cycle — the same semantics as a flop-to-flop
//    path in the synthesizable RTL.
//  * xpipes lite was explicitly "designed for pipelined links", i.e. all of
//    its interfaces tolerate register stages, so this discipline models the
//    real library without combinational cross-module paths.
//
// Signals hold their value until rewritten. Modules drive each output wire
// on change (plus one trailing reset write when the wire returns to idle),
// so a wire's committed per-cycle value sequence is identical to the
// classic drive-every-cycle discipline.
//
// One loop body runs every cycle (Kernel::run_cycle, DESIGN.md §2): serve
// the wake calendar, tick the awake modules, commit the signals written
// this cycle, then update the active set. Each ticked module answers one
// question, Module::next_event(): kNever leaves the set until a signal it
// watches is written (Signal::watch) or it is woken explicitly
// (Module::wake); a cycle beyond the next parks it on a timed-wake
// calendar (calendar.hpp) until then. When nothing is awake the kernel
// leaps the clock to the calendar's next due cycle instead of walking the
// gap.
//
// Two schedulers share the body (Scheduler): kTimeLeap, the production
// loop, and kFull, the reference, which never lets a module sleep and
// never leaps. The differential harness (tests/kernel_equiv_test.cpp,
// tests/timeleap_test.cpp) checks per-cycle Kernel::digest() equality
// between the two over randomized scenarios.
//
// Partitioned execution (DESIGN.md §10) splits the module/signal graph
// into partitions that never share a signal; cross-partition links are
// replaced by CutChannel mailboxes, and every partition advances
// `lookahead` cycles between exchange barriers. An unpartitioned kernel is
// one partition. Exports stay byte-identical at any partition and thread
// count because signal creation order — and hence digest order — is
// independent of the partitioning, and mailboxes are flushed
// single-threaded in registration order.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <typeindex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/sim/calendar.hpp"

namespace xpl::sim {

class Kernel;
class PartitionPool;

namespace detail {
/// Per-thread pointer to the executing partition's local cycle counter.
/// Inside a lookahead epoch each partition advances its own clock, so
/// Kernel::cycle() must answer with the ticking partition's time — not
/// the global counter, which only moves at epoch barriers. Null outside
/// partitioned execution (the common case: one predictable branch).
/// constinit tells every includer the variable is statically initialised,
/// so reads are plain TLS loads instead of calls through GCC's lazy-init
/// wrapper (which UBSan flags as a null load under -fsanitize=null).
extern thread_local constinit const std::uint64_t* g_cycle_override;
}  // namespace detail

/// A deterministic cross-partition conduit (e.g. link::CutLink). The
/// kernel calls exchange() between epochs — single-threaded, in
/// registration order — to move staged records to their delivery side.
class CutChannel {
 public:
  virtual ~CutChannel() = default;

  /// Flushes every record staged during the finished epoch to the
  /// receiving side and wakes the consuming half-modules.
  virtual void exchange() = 0;

  /// Valid forward beats moved across the cut so far (bench counter).
  virtual std::uint64_t flits_exchanged() const = 0;
};

/// Kernel scheduling mode; fixed at Kernel construction.
enum class Scheduler : std::uint8_t {
  kFull,      ///< reference: tick every module every cycle, never leap
  kTimeLeap,  ///< skip quiescent modules and quiescent cycle gaps
};

inline const char* scheduler_name(Scheduler s) {
  return s == Scheduler::kFull ? "full" : "time_leap";
}

/// One partition's active set: an awake bit and a woken bit per module,
/// indexed by the module's slot in its partition's tick list. The kernel
/// ticks the awake bits in ascending slot order and visits only those
/// bits in the active-set update, so a cycle costs what is awake plus one
/// word test per 64 modules. Partitions never share a set, so the worker
/// threads of a partitioned run never write the same word.
class ActiveSet {
 public:
  /// Adds the next slot, awake (a fresh module ticks on its first cycle).
  std::size_t add() {
    const std::size_t slot = size_++;
    if (slot % 64 == 0) {
      awake_.push_back(0);
      woken_.push_back(0);
    }
    awake_[slot / 64] |= bit(slot);
    return slot;
  }

  /// Sets the slot's awake and woken bits.
  void wake(std::size_t slot) {
    awake_[slot / 64] |= bit(slot);
    woken_[slot / 64] |= bit(slot);
  }

  bool awake(std::size_t slot) const {
    return (awake_[slot / 64] & bit(slot)) != 0;
  }
  bool any_awake() const;
  std::size_t awake_count() const;

 private:
  friend class Kernel;

  static std::uint64_t bit(std::size_t slot) {
    return std::uint64_t{1} << (slot % 64);
  }

  std::vector<std::uint64_t> awake_;  ///< in the set: ticks this cycle
  std::vector<std::uint64_t> woken_;  ///< wake requested during this cycle
  std::size_t size_ = 0;
};

/// Base class of all clocked hardware modules.
class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  const std::string& name() const { return name_; }

  /// One clock cycle: read current signal values, write next values and
  /// stage internal state updates. Called once per cycle while the module
  /// is awake (every cycle under the full reference).
  virtual void tick(Kernel& kernel) = 0;

  /// Re-arms this module. Called automatically when a watched signal is
  /// written; call it directly when injecting work from outside the
  /// simulation (e.g. MasterCore::push_transaction). Arms the *current*
  /// tick phase too: an externally-injected transaction must be served
  /// the same cycle as under the full scheduler, and an extra tick of a
  /// sleeping module is a no-op by the next_event() contract, so a
  /// mid-phase wake of a later-ordered module is harmless.
  /// A module not yet registered with a kernel has no active set; it
  /// joins awake, so waking it is a no-op.
  void wake() {
    if (active_ != nullptr) active_->wake(slot_);
  }

  /// True while the module is in the active set (always true under the
  /// full reference, which never lets a module sleep).
  bool awake() const { return active_ == nullptr || active_->awake(slot_); }

  /// The module's sleep contract: the cycle of its next *self-driven*
  /// state change. The kernel asks after each tick's commit, so
  /// implementations read committed signal values.
  ///
  ///  * now + 1 (the safe default) — stay awake; tick again next cycle.
  ///  * kNever — sleep until a watched signal is written or wake() is
  ///    called; every tick until then would be an observable no-op.
  ///  * any c > now + 1 — sleep on the wake calendar until cycle c; every
  ///    tick in (now, c) must be an observable no-op.
  ///
  /// An observable no-op changes no committed signal and no internal state
  /// a later cycle could see. A counter that would have advanced on the
  /// skipped ticks (a starved credit sender's stalls) is caught up in
  /// closed form on the next tick (DESIGN.md §2). Spurious early wakes are
  /// harmless by the same contract; a too-late cycle is a correctness bug
  /// the differential harness catches.
  virtual std::uint64_t next_event(std::uint64_t now) const {
    return now + 1;
  }

 private:
  friend class Kernel;

  std::string name_;
  ActiveSet* active_ = nullptr;  ///< the owning partition's set
  std::size_t slot_ = 0;         ///< index in that set and tick list
  std::size_t partition_ = 0;  ///< owning partition (0 when unpartitioned)
};

/// Accumulating 64-bit state hash (FNV-1a style). Used by the differential
/// kernel-equivalence tests to compare the schedulers per cycle;
/// never touched on the simulation hot path.
class Digest {
 public:
  void mix(std::uint64_t v) {
    state_ ^= v;
    state_ *= 1099511628211ULL;
  }

  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 14695981039346656037ULL;
};

/// Customization point: overload hash_append(Digest&, const T&) in T's
/// namespace for every type carried on a Signal that tests digest. The
/// generic overload covers arithmetic and enum payloads.
template <typename T>
  requires(std::is_arithmetic_v<T> || std::is_enum_v<T>)
inline void hash_append(Digest& d, const T& v) {
  d.mix(static_cast<std::uint64_t>(v));
}

/// One staged signal awaiting commit in its partition's dirty list. The commit
/// thunk devirtualizes per-entry dispatch into a direct function-pointer
/// call; committing a signal whose written flag is already clear is a no-op,
/// so duplicate entries (possible when a test commits a signal by hand) are
/// harmless.
struct DirtyEntry {
  void* signal = nullptr;
  void (*commit)(void*) = nullptr;
};
using DirtyList = std::vector<DirtyEntry>;

/// A registered wire of type T between two modules.
///
/// read() returns the value as of the last commit; write() stages a value
/// that becomes visible after the current cycle's commit. Signals have no
/// virtual functions: the kernel owns them in per-type pools, and the
/// first write of a cycle enqueues the signal on its partition's dirty
/// list, which the kernel commits through a direct function pointer.
template <typename T>
class Signal {
 public:
  explicit Signal(T reset = T{}) : curr_(reset), next_(std::move(reset)) {}

  Signal(const Signal&) = delete;
  Signal& operator=(const Signal&) = delete;

  const T& read() const { return curr_; }

  void write(const T& value) {
    next_ = value;
    mark_written();
  }
  void write(T&& value) {
    next_ = std::move(value);
    mark_written();
  }

  bool written() const { return written_; }

  /// The value this signal will hold after this cycle's commit: the
  /// staged write if one happened, else the held value. Cut-link sender
  /// halves sample this during the tick phase — they are registered
  /// after every module that can drive the wire, so a beat written at
  /// cycle t is captured at t and replayed downstream at t+1+stages,
  /// exactly the uncut PipelinedLink timing (DESIGN.md §10).
  const T& staged() const { return written_ ? next_ : curr_; }

  /// Registers `consumer` to be woken whenever this signal is written.
  /// Two slots: one reading consumer plus one passive observer (e.g. an
  /// ocp::Monitor snooping a wire it does not own).
  void watch(Module& consumer) {
    if (watchers_[0] == nullptr || watchers_[0] == &consumer) {
      watchers_[0] = &consumer;
      return;
    }
    XPL_ASSERT(watchers_[1] == nullptr || watchers_[1] == &consumer);
    watchers_[1] = &consumer;
  }

  /// Applies the staged value. Called via the dirty-list thunk; the
  /// written-flag test makes duplicate dirty entries no-ops.
  void commit() {
    if (written_) {
      curr_ = std::move(next_);
      written_ = false;
    }
  }

 private:
  friend class Kernel;

  /// The first write of a cycle enqueues the signal for commit and wakes
  /// its watchers.
  void mark_written() {
    if (!written_) {
      dirty_list_->push_back(
          {this, [](void* s) { static_cast<Signal<T>*>(s)->commit(); }});
      if (watchers_[0] != nullptr) watchers_[0]->wake();
      if (watchers_[1] != nullptr) watchers_[1]->wake();
      written_ = true;
    }
  }

  T curr_;
  T next_;
  bool written_ = false;
  DirtyList* dirty_list_ = nullptr;  ///< the owning partition's list
  Module* watchers_[2] = {nullptr, nullptr};
};

/// Owns signals, schedules modules, and advances simulated time.
class Kernel {
 public:
  // Both out of line: PartitionPool is incomplete here (pool_ member).
  /// The default is the full reference: unit tests that drive single
  /// modules by hand get every module ticked every cycle.
  explicit Kernel(Scheduler scheduler = Scheduler::kFull);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  Scheduler scheduler() const { return scheduler_; }

  /// Splits execution into `partitions` groups of modules/signals that
  /// run concurrently on up to `threads` worker threads (clamped to the
  /// partition count; 1 = serial epochs). Must be called before any
  /// signal or module is created; partitions <= 1 is a no-op and leaves
  /// the kernel unpartitioned (one partition holding everything).
  /// Signals and modules created afterwards join the partition selected
  /// by set_creation_partition(). Cross-partition connections must go
  /// through a registered CutChannel — a signal written in one partition
  /// and read or watched in another is a data race by construction.
  void configure_partitions(std::size_t partitions, std::size_t threads);

  bool partitioned() const { return partitions_.size() > 1; }
  std::size_t partition_count() const { return partitions_.size(); }
  std::size_t thread_count() const { return threads_; }

  /// Selects the partition that subsequently created signals and modules
  /// join (construction-time only).
  void set_creation_partition(std::size_t partition) {
    XPL_ASSERT(partition < partitions_.size());
    creation_partition_ = partition;
  }

  /// Registers a cross-partition conduit, flushed after every epoch in
  /// registration order (the determinism anchor for exchange effects).
  void register_cut(CutChannel& cut) { cuts_.push_back(&cut); }

  /// Sets the conservative window: cycles each partition advances
  /// between exchange barriers. Safe iff k <= 1 + min stage count over
  /// all cut links (a record sampled at cycle t is due at t+1+stages,
  /// and must not be due before the next barrier delivers it).
  void set_lookahead(std::uint64_t k) {
    XPL_ASSERT(k >= 1);
    lookahead_ = k;
  }
  /// Cycles per epoch (1 unless partitioned with pipelined cuts).
  std::uint64_t lookahead() const { return partitioned() ? lookahead_ : 1; }

  /// Epoch barriers executed so far (0 unless partitioned).
  std::uint64_t epochs() const { return epochs_; }

  /// Total valid forward beats moved across all cuts (bench counter).
  std::uint64_t cut_flits() const;

  /// Creates a kernel-owned signal and returns a stable reference. The
  /// signal joins the pool of its type (pools use deque storage, so
  /// references never move while the pool grows) and commits through the
  /// creation partition's dirty list. Pool membership — and hence digest
  /// order — tracks creation order only, never partition assignment,
  /// which is what keeps digests comparable across partitionings.
  template <typename T>
  Signal<T>& make_signal(T reset = T{}) {
    SignalPool<T>& pool = pool_for<T>();
    pool.signals.emplace_back(std::move(reset));
    ++signal_count_;
    Partition& part = *partitions_[creation_partition_];
    // A signal enters its dirty list at most once per cycle, so room for
    // every signal of the partition keeps commits allocation-free.
    if (part.dirty.capacity() < ++part.signals) {
      part.dirty.reserve(2 * part.signals);
    }
    Signal<T>& sig = pool.signals.back();
    sig.dirty_list_ = &part.dirty;
    return sig;
  }

  /// Registers a module. The kernel does not take ownership; modules must
  /// outlive the kernel's run (the Network owns them in practice). The
  /// module also joins the current creation partition's tick list (a
  /// subsequence of the global registration order).
  void add_module(Module& module) {
    XPL_ASSERT(module.active_ == nullptr);
    Partition& part = *partitions_[creation_partition_];
    modules_.push_back(&module);
    module.partition_ = creation_partition_;
    module.active_ = &part.active;
    module.slot_ = part.active.add();
    part.modules.push_back(&module);
  }

  /// Registers a callback run after every commit (statistics probes).
  /// Probes see every cycle, so the kernel never leaps while one is
  /// registered. Incompatible with partitioned execution: inside an
  /// epoch there is no globally committed cycle to observe.
  void add_probe(std::function<void(std::uint64_t cycle)> probe) {
    XPL_ASSERT(!partitioned());
    probes_.push_back(std::move(probe));
  }

  /// Advances exactly one clock cycle and never leaps: the cycle-exact
  /// primitive. Partitioned: a one-cycle epoch.
  void step();

  /// Advances `cycles` clock cycles, leaping gaps in which nothing is
  /// awake. Partitioned: runs epochs of up to lookahead() cycles with a
  /// cut exchange between epochs.
  void run(std::uint64_t cycles);

  /// Runs until `done()` returns true or `max_cycles` elapse; returns the
  /// number of cycles actually run. `done` is evaluated at every cycle
  /// boundary the kernel walks, so partitioned runs use one-cycle epochs
  /// (lookahead batching would overshoot). A leap skips only boundaries at
  /// which nothing is awake: done() predicates read module state, which is
  /// frozen across the gap, so the one evaluation before the leap covers
  /// every skipped boundary.
  std::uint64_t run_until(const std::function<bool()>& done,
                          std::uint64_t max_cycles);

  /// Cycles skipped (never walked) by clock leaps, summed over partitions.
  /// 0 under the full reference; the bench suite reports
  /// leapt_cycles()/cycles as leapt_frac.
  std::uint64_t leapt_cycles() const;

  /// Cycles elapsed since construction. Callable from module ticks even
  /// inside a lookahead epoch: the executing partition's local clock is
  /// threaded through detail::g_cycle_override.
  std::uint64_t cycle() const {
    const std::uint64_t* over = detail::g_cycle_override;
    return over != nullptr ? *over : cycle_;
  }

  std::size_t module_count() const { return modules_.size(); }
  /// Registered modules in tick order (quiescence-invariant tests walk
  /// this to check every module's next_event() claim after a drain).
  const std::vector<Module*>& modules() const { return modules_; }
  std::size_t signal_count() const { return signal_count_; }
  /// Modules in the active set (== module_count() under kFull).
  std::size_t awake_count() const;

  /// Hash of every signal's committed value, in creation order. Two
  /// identically constructed kernels in the same state produce the same
  /// digest regardless of scheduler — the oracle of the differential
  /// kernel-equivalence tests. Test-only: never called on the hot path.
  std::uint64_t digest() const;

 private:
  /// Type-erased pool handle (digest only; commits go through dirty lists).
  struct SignalPoolBase {
    virtual ~SignalPoolBase() = default;
    virtual void digest_into(Digest& d) const = 0;
  };

  /// All signals of one type T. Deque storage keeps references stable
  /// under growth.
  template <typename T>
  struct SignalPool final : SignalPoolBase {
    std::deque<Signal<T>> signals;

    void digest_into(Digest& d) const override {
      for (const Signal<T>& s : signals) hash_append(d, s.read());
    }
  };

  template <typename T>
  SignalPool<T>& pool_for() {
    const std::type_index key(typeid(T));
    auto it = pool_index_.find(key);
    if (it == pool_index_.end()) {
      auto pool = std::make_unique<SignalPool<T>>();
      SignalPool<T>* raw = pool.get();
      pools_.push_back(std::move(pool));
      it = pool_index_.emplace(key, raw).first;
    }
    return *static_cast<SignalPool<T>*>(it->second);
  }

  /// One execution group: its modules (a subsequence of modules_) and
  /// their active set, its own dirty list (no sharing — commits race-free
  /// by construction), its wake calendar and leap counter, and its clock
  /// inside the current epoch. Nothing here is shared across threads.
  struct Partition {
    std::vector<Module*> modules;
    ActiveSet active;
    DirtyList dirty;
    std::size_t signals = 0;  ///< signals committing through `dirty`
    std::uint64_t local_cycle = 0;
    WakeCalendar calendar;
    std::uint64_t leapt = 0;
  };
  using Parts = std::span<const std::unique_ptr<Partition>>;

  /// The kernel loop body: one cycle of the partitions `parts` against
  /// `clock`, serving their calendars, active sets and dirty lists.
  /// Returns whether any module is still awake for the next cycle.
  bool run_cycle(Parts parts, std::uint64_t& clock);

  /// Whether any module of `parts` is in its active set.
  static bool any_awake(Parts parts);

  /// The leap helper: the cycle a loop with nothing awake may jump to
  /// from `now` — the earliest calendar due among `parts`, capped at
  /// `end`. Returns `now` (no leap) under the full reference and while
  /// probes exist.
  std::uint64_t leap_target(Parts parts, std::uint64_t now,
                            std::uint64_t end) const;

  /// Shared driver of run() and run_until(): walks or leaps toward `end`,
  /// stopping early once `done` (when given) holds. Returns cycles run.
  std::uint64_t advance(std::uint64_t end, const std::function<bool()>* done);

  /// One epoch of up to `k` cycles (one cycle when unpartitioned): runs
  /// every partition (pooled, fused when k == 1, else one by one),
  /// advances global time, then flushes cuts in registration order.
  /// Returns whether any module is awake afterwards.
  bool run_epoch(std::uint64_t k);

  /// Advances partition `i` for `k` cycles against its local clock,
  /// leaping inside the epoch when the partition sleeps. Called from
  /// worker threads; touches only partition-local state.
  void run_partition(std::size_t i, std::uint64_t k);

  friend class PartitionPool;

  Scheduler scheduler_ = Scheduler::kFull;
  std::vector<Module*> modules_;
  std::vector<std::unique_ptr<SignalPoolBase>> pools_;
  std::unordered_map<std::type_index, SignalPoolBase*> pool_index_;
  std::size_t signal_count_ = 0;
  std::vector<std::function<void(std::uint64_t)>> probes_;
  std::uint64_t cycle_ = 0;

  std::vector<std::unique_ptr<Partition>> partitions_;  ///< at least one
  std::vector<CutChannel*> cuts_;
  std::size_t creation_partition_ = 0;
  std::size_t threads_ = 1;
  std::uint64_t lookahead_ = 1;
  std::uint64_t epochs_ = 0;
  std::unique_ptr<PartitionPool> pool_;  ///< lazily built when threads_ > 1
};

}  // namespace xpl::sim
