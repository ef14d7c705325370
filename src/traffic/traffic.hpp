// Synthetic traffic generation.
//
// Drives the Network's OCP master cores with the workloads the paper's
// evaluation implies: uniform random, hotspot (shared memory), fixed
// permutation, and bandwidth-weighted application traffic (the task-graph
// flows of the SunMap step, see appgraph/). A TrafficDriver is stepped
// alongside the kernel and injects transactions at a configurable mean
// rate, either memorylessly (Bernoulli) or in on/off bursts (two-state
// Markov modulation — see TrafficConfig::burstiness). The workload layer
// (src/workload/) builds app-benchmark and trace-replay scenarios on top.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/noc/network.hpp"

namespace xpl::traffic {

enum class Pattern : std::uint8_t {
  kUniformRandom,  ///< every target equally likely
  kHotspot,        ///< one target attracts `hotspot_fraction` of traffic
  kPermutation,    ///< initiator i always talks to target i mod T
  kWeighted,       ///< per-pair weights (application flows)
};

const char* pattern_name(Pattern pattern);

struct TrafficConfig {
  Pattern pattern = Pattern::kUniformRandom;
  /// Mean offered load: expected transactions per cycle per initiator,
  /// in [0, 1]. With burstiness == 0 this is a per-cycle Bernoulli coin;
  /// with burstiness > 0 the same mean is delivered in on/off bursts.
  double injection_rate = 0.05;
  /// Probability in [0, 1] that an injected transaction is a read; the
  /// rest are posted writes (no response, excluded from latency stats).
  double read_fraction = 0.5;
  /// Burst length is uniform in [min_burst, max_burst] beats (one beat =
  /// one OCP data word). Must satisfy 1 <= min <= max <= the network's
  /// max_burst.
  std::uint32_t min_burst = 1;
  std::uint32_t max_burst = 4;
  /// kHotspot: index of the target that attracts `hotspot_fraction` in
  /// [0, 1] of the traffic; the remainder is uniform over all targets.
  std::uint32_t hotspot_target = 0;
  double hotspot_fraction = 0.5;
  /// kWeighted: weight[i][t] — relative traffic from initiator i to
  /// target t (rows may be any non-negative values, zero row = silent).
  std::vector<std::vector<double>> weights;
  /// Temporal burstiness in [0, 1): the OFF-duty fraction of a two-state
  /// Markov (on/off) modulation of the injection process. 0 is the
  /// memoryless Bernoulli process. At burstiness b each initiator is ON
  /// a fraction (1-b) of the time and injects at rate
  /// injection_rate/(1-b) while ON, so the mean rate is preserved while
  /// variance grows — the bursty MPEG-style arrivals of DESIGN.md §5.
  /// Rates above the ON-duty fraction saturate (peak rate clamps at 1).
  double burstiness = 0.0;
  /// Mean ON-dwell in cycles (geometric) when burstiness > 0; the mean
  /// OFF-dwell follows from the duty cycle: avg_burst_cycles * b/(1-b).
  double avg_burst_cycles = 10.0;
  /// Seeds the driver's private xoshiro256** stream (independent of the
  /// network's seed, which drives link error injection).
  std::uint64_t seed = 42;
};

/// One scheduled transaction of a trace (trace-driven workloads: replay
/// recorded traffic instead of synthetic patterns).
struct TraceEntry {
  std::uint64_t cycle = 0;      ///< injection cycle (non-decreasing)
  std::uint32_t initiator = 0;  ///< initiator index
  std::uint32_t target = 0;     ///< target index
  ocp::Cmd cmd = ocp::Cmd::kRead;
  std::uint64_t addr_offset = 0;  ///< within the target's window
  std::uint32_t burst = 1;
  /// OCP thread id. Part of the schedule: responses match per thread, so
  /// replay timing is only faithful if the trace pins it.
  std::uint32_t thread = 0;
};

/// Trace-body command mnemonic ("read" | "write" | "writenp") — the
/// command column of the trace file format (workload/trace.hpp). Throws
/// on Cmd::kIdle.
const char* trace_cmd_name(ocp::Cmd cmd);

/// Replays a trace into a network; step once per cycle like TrafficDriver.
/// Validates every entry against the network (initiator/target/thread
/// ranges, burst fit) at construction. This is the one replay engine:
/// workload::TraceDriver layers the trace *file* format and a seed-free
/// payload policy on top of it.
///
/// On an unpartitioned time-leap kernel the player registers a small
/// injector module with the kernel so run() can hand the whole span to
/// Kernel::run at once: the injector declares the next entry's cycle via
/// next_event(), the kernel leaps the silent gaps, and the release gate
/// in MasterCore keeps the issue schedule bit-exact (DESIGN.md §2).
class TracePlayer {
 public:
  /// Write payload for beat `beat` of entry `index`. The default (null)
  /// draws from the player's fixed-seed RNG stream.
  using PayloadFn =
      std::function<std::uint64_t(std::size_t index, std::uint32_t beat)>;

  TracePlayer(noc::Network& network, std::vector<TraceEntry> trace,
              PayloadFn payload = nullptr);

  void step();
  /// Steps player and network together. On a partitioned network the
  /// injections for each lookahead epoch are pre-rolled (released at
  /// their exact cycles via push_transaction_at), so replay timing is
  /// identical at any partition/thread count.
  void run(std::size_t cycles);
  /// True when every entry has been injected.
  bool done() const { return next_ == trace_.size(); }
  std::uint64_t injected() const { return next_; }

 private:
  /// Schedulable face of the player (time-leap runs only): ticks after
  /// every network module, rolling the player far enough ahead that any
  /// transaction released at cycle c is queued before c begins. Inert
  /// (is_idle) outside run().
  class Injector : public sim::Module {
   public:
    explicit Injector(TracePlayer& owner)
        : sim::Module("trace_player.injector"), owner_(owner) {}
    void tick(sim::Kernel& kernel) override { owner_.injector_tick(kernel); }
    bool is_idle() const override { return !owner_.active_; }
    std::uint64_t next_event(std::uint64_t now) const override {
      return owner_.injector_next_event(now);
    }

   private:
    TracePlayer& owner_;
  };

  /// Injects the entries of player-cycle `cycle_`, released at `release`
  /// (the matching kernel cycle), then advances the player clock.
  void roll_cycle(std::uint64_t release);
  /// Rolls player cycles whose kernel release is <= `kernel_limit` (and
  /// below the run horizon), bulk-skipping entry-free stretches — silent
  /// rolls draw no RNG, so the skip is unobservable.
  void roll_until(std::uint64_t kernel_limit);
  void injector_tick(sim::Kernel& kernel);
  std::uint64_t injector_next_event(std::uint64_t now) const;

  noc::Network& network_;
  std::vector<TraceEntry> trace_;
  PayloadFn payload_;
  std::size_t next_ = 0;
  std::uint64_t cycle_ = 0;
  Rng rng_;  ///< write payload generation (default policy)

  Injector injector_{*this};
  bool use_injector_ = false;  ///< unpartitioned time-leap kernel
  bool active_ = false;        ///< inside run()
  /// Kernel cycle = player cycle + offset_ for the current run (unsigned
  /// wrap-around arithmetic; only the sum is meaningful).
  std::uint64_t offset_ = 0;
  std::uint64_t horizon_ = 0;  ///< first kernel cycle past the run
};

/// Injects transactions into every master of `network` when step() is
/// called once per simulated cycle.
///
/// On an unpartitioned time-leap kernel the driver registers an injector
/// module (see TracePlayer) so run() can hand the whole span to
/// Kernel::run: the injector rolls ahead through silent cycles until a
/// roll injects (RNG draw order is cycle order either way), sleeps until
/// the cycle before the next unrolled one, and the kernel leaps the gap.
class TrafficDriver {
 public:
  TrafficDriver(noc::Network& network, const TrafficConfig& config);

  /// Rolls injection for every initiator for one cycle.
  void step();

  /// Convenience: step the network and the driver together. On a
  /// partitioned network each lookahead epoch's injections are
  /// pre-rolled (released at their exact cycles), preserving both the
  /// RNG draw order and the issue schedule of the per-cycle loop.
  void run(std::size_t cycles);

  std::uint64_t injected() const { return injected_; }

 private:
  /// Schedulable face of the driver (time-leap runs only); see
  /// TracePlayer::Injector.
  class Injector : public sim::Module {
   public:
    explicit Injector(TrafficDriver& owner)
        : sim::Module("traffic_driver.injector"), owner_(owner) {}
    void tick(sim::Kernel& kernel) override { owner_.injector_tick(kernel); }
    bool is_idle() const override { return !owner_.active_; }
    std::uint64_t next_event(std::uint64_t now) const override {
      return owner_.injector_next_event(now);
    }

   private:
    TrafficDriver& owner_;
  };

  /// Rolls one driver cycle, releasing injections at kernel cycle
  /// `release` (== the current cycle when called via step()).
  void roll_cycle(std::uint64_t release);
  void injector_tick(sim::Kernel& kernel);
  std::uint64_t injector_next_event(std::uint64_t now) const;
  std::size_t pick_target(std::size_t initiator);
  /// Rolls the injection coin (and, when bursty, the on/off Markov
  /// chain) for initiators from, from + 1, ... of the current cycle and
  /// returns the first that injects, or num_initiators() if none does.
  /// The draws are exactly those of one chance() call per coin.
  std::size_t next_injector(std::size_t from);

  noc::Network& network_;
  TrafficConfig config_;
  Rng rng_;
  std::uint64_t injected_ = 0;
  /// Prefix sums per initiator for kWeighted.
  std::vector<std::vector<double>> cumulative_;
  /// Per-initiator ON/OFF state (burstiness > 0 only).
  std::vector<bool> burst_on_;
  std::uint64_t rate_threshold_ = 0;  ///< chance_threshold(injection_rate)
  double peak_rate_ = 0.0;   ///< injection probability while ON
  double p_on_to_off_ = 0.0;
  double p_off_to_on_ = 0.0;

  Injector injector_{*this};
  bool use_injector_ = false;    ///< unpartitioned time-leap kernel
  bool active_ = false;          ///< inside run()
  std::uint64_t rolled_next_ = 0;  ///< first kernel cycle not yet rolled
  std::uint64_t horizon_ = 0;      ///< first kernel cycle past the run
};

}  // namespace xpl::traffic
