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

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/noc/network.hpp"
#include "src/traffic/injection.hpp"

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
/// payload policy on top of it. An entry's cycle is a source cycle of
/// the InjectionEngine, which knows the next entry exactly and so skips
/// entry-free stretches in O(1).
class TracePlayer {
 public:
  /// Write payload for beat `beat` of entry `index`. The default (null)
  /// draws from the player's fixed-seed RNG stream.
  using PayloadFn =
      std::function<std::uint64_t(std::size_t index, std::uint32_t beat)>;

  TracePlayer(noc::Network& network, std::vector<TraceEntry> trace,
              PayloadFn payload = nullptr);

  /// Injects the entries of the next source cycle, released now.
  void step() { engine_.step(); }
  /// Steps player and network together (see InjectionEngine::run).
  void run(std::size_t cycles) { engine_.run(cycles); }
  /// True when every entry has been injected.
  bool done() const { return next_ == trace_.size(); }
  std::uint64_t injected() const { return next_; }
  /// Cycles of step() (or run()) left until done().
  std::uint64_t cycles_to_done() const {
    return done() ? 0 : trace_.back().cycle + 1 - engine_.rolled();
  }

 private:
  friend class InjectionEngine<TracePlayer>;

  bool roll(std::uint64_t cycle, std::uint64_t release);
  std::uint64_t next_injection(std::uint64_t cycle) const {
    return done() ? sim::kNever : std::max(cycle, trace_[next_].cycle);
  }

  noc::Network& network_;
  std::vector<TraceEntry> trace_;
  PayloadFn payload_;
  std::size_t next_ = 0;  ///< first entry not yet injected
  Rng rng_;  ///< write payload generation (default policy)
  InjectionEngine<TracePlayer> engine_{network_, *this,
                                       "trace_player.injector"};
};

/// Injects transactions into every master of `network` when step() is
/// called once per simulated cycle. Every source cycle draws from the
/// RNG, so the InjectionEngine skips none.
class TrafficDriver {
 public:
  TrafficDriver(noc::Network& network, const TrafficConfig& config);

  /// Rolls injection for every initiator for one cycle.
  void step() { engine_.step(); }

  /// Steps the network and the driver together (see
  /// InjectionEngine::run): the RNG draw order and the issue schedule
  /// are those of the per-cycle loop.
  void run(std::size_t cycles) { engine_.run(cycles); }

  std::uint64_t injected() const { return injected_; }

 private:
  friend class InjectionEngine<TrafficDriver>;

  bool roll(std::uint64_t cycle, std::uint64_t release);
  std::uint64_t next_injection(std::uint64_t cycle) const { return cycle; }
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
  InjectionEngine<TrafficDriver> engine_{network_, *this,
                                         "traffic_driver.injector"};
};

}  // namespace xpl::traffic
