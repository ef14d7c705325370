#include "src/traffic/traffic.hpp"

#include <algorithm>

#include "src/common/error.hpp"

namespace xpl::traffic {

const char* pattern_name(Pattern pattern) {
  switch (pattern) {
    case Pattern::kUniformRandom:
      return "uniform";
    case Pattern::kHotspot:
      return "hotspot";
    case Pattern::kPermutation:
      return "permutation";
    case Pattern::kWeighted:
      return "weighted";
  }
  return "?";
}

const char* trace_cmd_name(ocp::Cmd cmd) {
  switch (cmd) {
    case ocp::Cmd::kRead:
      return "read";
    case ocp::Cmd::kWrite:
      return "write";
    case ocp::Cmd::kWriteNp:
      return "writenp";
    case ocp::Cmd::kIdle:
      break;
  }
  throw Error("trace_cmd_name: kIdle has no trace mnemonic");
}

TracePlayer::TracePlayer(noc::Network& network, std::vector<TraceEntry> trace,
                         PayloadFn payload)
    : network_(network),
      trace_(std::move(trace)),
      payload_(std::move(payload)),
      rng_(0xFEED) {
  for (const TraceEntry& entry : trace_) {
    require(entry.initiator < network.num_initiators(),
            "TracePlayer: initiator index out of range");
    require(entry.target < network.num_targets(),
            "TracePlayer: target index out of range");
    require(entry.burst <= network.config().max_burst,
            "TracePlayer: burst exceeds network max_burst");
    require(entry.thread < network.config().num_threads,
            "TracePlayer: thread id exceeds network num_threads");
  }
  engine_.attach();
}

bool TracePlayer::roll(std::uint64_t cycle, std::uint64_t release) {
  const std::size_t first = next_;
  while (next_ < trace_.size() && trace_[next_].cycle <= cycle) {
    const TraceEntry& entry = trace_[next_];
    ocp::Transaction txn;
    txn.cmd = entry.cmd;
    txn.addr = network_.target_base(entry.target) + entry.addr_offset;
    txn.burst_len = entry.burst;
    txn.thread_id = entry.thread;
    if (entry.cmd != ocp::Cmd::kRead) {
      for (std::uint32_t b = 0; b < entry.burst; ++b) {
        txn.data.push_back(payload_ ? payload_(next_, b)
                                    : rng_.next_u64());
      }
    }
    network_.master(entry.initiator)
        .push_transaction_at(std::move(txn), release);
    ++next_;
  }
  return next_ != first;
}

TrafficDriver::TrafficDriver(noc::Network& network,
                             const TrafficConfig& config)
    : network_(network), config_(config), rng_(config.seed) {
  require(network.num_targets() > 0, "TrafficDriver: no targets");
  require(config.min_burst >= 1 && config.min_burst <= config.max_burst,
          "TrafficDriver: bad burst range");
  require(config.max_burst <= network.config().max_burst,
          "TrafficDriver: burst exceeds network max_burst");
  // Even the shortest burst must fit a target's address window (8 bytes
  // per beat), or every injected transaction would spill past the window
  // into the next target's address space.
  require(8ull * config.min_burst <= network.config().target_window,
          "TrafficDriver: min_burst does not fit the target window");
  if (config.pattern == Pattern::kWeighted) {
    require(config.weights.size() == network.num_initiators(),
            "TrafficDriver: weights rows must match initiators");
    cumulative_.resize(config.weights.size());
    for (std::size_t i = 0; i < config.weights.size(); ++i) {
      require(config.weights[i].size() == network.num_targets(),
              "TrafficDriver: weights cols must match targets");
      double sum = 0;
      for (double w : config.weights[i]) {
        require(w >= 0, "TrafficDriver: negative weight");
        sum += w;
        cumulative_[i].push_back(sum);
      }
    }
  }
  if (config.pattern == Pattern::kHotspot) {
    require(config.hotspot_target < network.num_targets(),
            "TrafficDriver: hotspot target out of range");
  }
  require(config.burstiness >= 0.0 && config.burstiness < 1.0,
          "TrafficDriver: burstiness must be in [0, 1)");
  rate_threshold_ = Rng::chance_threshold(config.injection_rate);
  if (config.burstiness > 0.0) {
    require(config.avg_burst_cycles >= 1.0,
            "TrafficDriver: avg_burst_cycles must be >= 1");
    const double duty = 1.0 - config.burstiness;
    p_on_to_off_ = 1.0 / config.avg_burst_cycles;
    // Mean OFF dwell avg_burst_cycles * b/(1-b) puts the stationary ON
    // fraction at `duty`. A per-cycle chain cannot dwell OFF for less
    // than one expected cycle, so for very small b the exit probability
    // clamps at 1; the peak rate below compensates from the *achieved*
    // ON fraction, keeping the mean rate exact either way.
    p_off_to_on_ =
        std::min(1.0, duty / (config.burstiness * config.avg_burst_cycles));
    const double on_fraction =
        p_off_to_on_ / (p_off_to_on_ + p_on_to_off_);
    peak_rate_ = std::min(1.0, config.injection_rate / on_fraction);
    burst_on_.resize(network.num_initiators());
    for (std::size_t i = 0; i < burst_on_.size(); ++i) {
      burst_on_[i] = rng_.chance(on_fraction);  // stationary start
    }
  }
  engine_.attach();
}

std::size_t TrafficDriver::next_injector(std::size_t from) {
  const std::size_t n = network_.num_initiators();
  if (config_.burstiness > 0.0) {
    // Dwell transition first, then the injection coin in the (possibly
    // new) state, so even a one-cycle ON dwell can inject.
    for (; from < n; ++from) {
      const bool on = burst_on_[from] ? !rng_.chance(p_on_to_off_)
                                      : rng_.chance(p_off_to_on_);
      burst_on_[from] = on;
      if (on && rng_.chance(peak_rate_)) return from;
    }
    return n;
  }
  // chance(rate) per initiator, with its edge cases kept: no draw and no
  // hit at rate <= 0, no draw and a hit at rate >= 1, otherwise one draw
  // against the threshold hoisted into the constructor.
  const double rate = config_.injection_rate;
  if (rate <= 0.0) return n;
  if (rate >= 1.0) return from;
  const std::uint64_t threshold = rate_threshold_;
  while (from < n && !rng_.below_threshold(threshold)) ++from;
  return from;
}

std::size_t TrafficDriver::pick_target(std::size_t initiator) {
  const std::size_t num_targets = network_.num_targets();
  switch (config_.pattern) {
    case Pattern::kUniformRandom:
      return rng_.next_below(num_targets);
    case Pattern::kHotspot:
      if (rng_.chance(config_.hotspot_fraction)) {
        return config_.hotspot_target;
      }
      return rng_.next_below(num_targets);
    case Pattern::kPermutation:
      return initiator % num_targets;
    case Pattern::kWeighted: {
      const auto& cum = cumulative_[initiator];
      const double total = cum.back();
      if (total <= 0) return num_targets;  // silent initiator sentinel
      const double roll = rng_.next_double() * total;
      for (std::size_t t = 0; t < cum.size(); ++t) {
        if (roll < cum[t]) return t;
      }
      return cum.size() - 1;
    }
  }
  return 0;
}

bool TrafficDriver::roll(std::uint64_t, std::uint64_t release) {
  const std::uint64_t before = injected_;
  const std::size_t initiators = network_.num_initiators();
  for (std::size_t i = next_injector(0); i < initiators;
       i = next_injector(i + 1)) {
    const std::size_t target = pick_target(i);
    if (target >= network_.num_targets()) continue;  // silent row

    ocp::Transaction txn;
    std::uint32_t burst =
        config_.min_burst +
        static_cast<std::uint32_t>(rng_.next_below(
            config_.max_burst - config_.min_burst + 1));
    // Clamp the rolled burst to what the window can hold (the ctor
    // guarantees min_burst fits, so the clamp never reaches zero); an
    // unclamped burst would run past the target's window into the next
    // target's address space.
    const std::uint64_t window = network_.config().target_window;
    if (8ull * burst > window) {
      burst = static_cast<std::uint32_t>(window / 8);
    }
    txn.burst_len = burst;
    txn.thread_id = static_cast<std::uint32_t>(
        rng_.next_below(network_.config().num_threads));
    // Aligned address inside the window, room for the whole burst. The
    // max(1, ...) covers windows that are not multiples of 8: the tail
    // fragment leaves (window - span) / 8 == 0 aligned starts past base.
    const std::uint64_t span = 8ull * burst;
    const std::uint64_t slots =
        window > span ? std::max<std::uint64_t>(1, (window - span) / 8) : 1;
    txn.addr = network_.target_base(target) + 8 * rng_.next_below(slots);
    if (rng_.chance(config_.read_fraction)) {
      txn.cmd = ocp::Cmd::kRead;
    } else {
      txn.cmd = ocp::Cmd::kWrite;
      for (std::uint32_t b = 0; b < burst; ++b) {
        txn.data.push_back(rng_.next_u64());
      }
    }
    network_.master(i).push_transaction_at(std::move(txn), release);
    ++injected_;
  }
  return injected_ != before;
}

}  // namespace xpl::traffic
