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
  sim::Kernel& kernel = network_.kernel();
  use_injector_ = !kernel.partitioned() &&
                  kernel.scheduler() == sim::Scheduler::kTimeLeap;
  if (use_injector_) kernel.add_module(injector_);
}

void TracePlayer::roll_until(std::uint64_t kernel_limit) {
  while (true) {
    const std::uint64_t release = cycle_ + offset_;
    if (release >= horizon_ || release > kernel_limit) break;
    if (next_ < trace_.size() && trace_[next_].cycle <= cycle_) {
      roll_cycle(release);
      continue;
    }
    // Entry-free stretch: jump the player clock (silent rolls are pure
    // increments — no RNG draw, no injection).
    std::uint64_t target = std::min<std::uint64_t>(kernel_limit + 1, horizon_);
    if (next_ < trace_.size()) {
      target = std::min(target, trace_[next_].cycle + offset_);
    }
    cycle_ = target - offset_;
  }
}

void TracePlayer::injector_tick(sim::Kernel& kernel) {
  if (!active_) return;
  // Transactions released at cycle c must be queued before c begins (the
  // masters tick earlier in module order), so roll through now + 1.
  roll_until(kernel.cycle() + 1);
}

std::uint64_t TracePlayer::injector_next_event(std::uint64_t now) const {
  if (!active_ || next_ >= trace_.size()) return sim::kNever;
  const std::uint64_t release =
      std::max(trace_[next_].cycle, cycle_) + offset_;
  if (release >= horizon_) return sim::kNever;  // next run's business
  // The entry must be queued by the tick before its release cycle.
  return std::max(now + 1, release - 1);
}

void TracePlayer::roll_cycle(std::uint64_t release) {
  while (next_ < trace_.size() && trace_[next_].cycle <= cycle_) {
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
  ++cycle_;
}

void TracePlayer::step() { roll_cycle(network_.kernel().cycle()); }

void TracePlayer::run(std::size_t cycles) {
  if (use_injector_) {
    const std::uint64_t base = network_.kernel().cycle();
    // Unsigned wrap-around is fine: only cycle_ + offset_ is ever read.
    offset_ = base - cycle_;
    horizon_ = base + cycles;
    // Entries due at `base` itself must be queued before the run starts.
    roll_until(base);
    active_ = true;
    injector_.wake();
    network_.step(cycles);
    active_ = false;
    // Normalize the player clock across a leapt silent tail so the next
    // run starts from the same player cycle as the per-cycle schedule.
    if (cycle_ + offset_ < horizon_) cycle_ = horizon_ - offset_;
    return;
  }
  const std::size_t k =
      std::max<std::size_t>(1, network_.kernel().lookahead());
  std::size_t done = 0;
  while (done < cycles) {
    const std::size_t n = std::min(k, cycles - done);
    const std::uint64_t base = network_.kernel().cycle();
    for (std::size_t j = 0; j < n; ++j) roll_cycle(base + j);
    network_.step(n);
    done += n;
  }
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
  sim::Kernel& kernel = network.kernel();
  use_injector_ = !kernel.partitioned() &&
                  kernel.scheduler() == sim::Scheduler::kTimeLeap;
  if (use_injector_) kernel.add_module(injector_);
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

void TrafficDriver::roll_cycle(std::uint64_t release) {
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
}

void TrafficDriver::step() {
  roll_cycle(network_.kernel().cycle());
  // Keep the injector's bookmark coherent when step() and run() mix.
  rolled_next_ = std::max(rolled_next_, network_.kernel().cycle() + 1);
}

void TrafficDriver::injector_tick(sim::Kernel& kernel) {
  if (!active_) return;
  const std::uint64_t now = kernel.cycle();
  // Mandatory: cycle now + 1 must be rolled before its masters tick.
  // Past that, keep rolling silent cycles so next_event() can name the
  // cycle before the next unrolled one — the kernel leaps the gap. RNG
  // draw order is cycle order either way; the release gate in MasterCore
  // makes early queuing unobservable.
  while (rolled_next_ < horizon_) {
    const std::uint64_t before = injected_;
    roll_cycle(rolled_next_);
    ++rolled_next_;
    if (rolled_next_ > now + 1 && injected_ != before) break;
  }
}

std::uint64_t TrafficDriver::injector_next_event(std::uint64_t now) const {
  if (!active_ || rolled_next_ >= horizon_) return sim::kNever;
  return std::max(now + 1, rolled_next_ - 1);
}

void TrafficDriver::run(std::size_t cycles) {
  if (use_injector_) {
    const std::uint64_t base = network_.kernel().cycle();
    rolled_next_ = std::max(rolled_next_, base);
    horizon_ = base + cycles;
    // Injections released at `base` itself must be queued before the run
    // starts: the masters tick before the injector within a cycle.
    while (rolled_next_ <= base && rolled_next_ < horizon_) {
      roll_cycle(rolled_next_);
      ++rolled_next_;
    }
    active_ = true;
    injector_.wake();
    network_.step(cycles);
    active_ = false;
    // Safety net: a run cut short of the injector's last wake (never in
    // normal operation) still leaves RNG state and injected() matching
    // the per-cycle schedule.
    while (rolled_next_ < horizon_) {
      roll_cycle(rolled_next_);
      ++rolled_next_;
    }
    return;
  }
  // Epoch batching: pre-roll the injections for the whole conservative
  // window (RNG order is per cycle, per initiator — identical to the
  // per-cycle schedule), then let the kernel run the epoch. The release
  // gate in MasterCore makes issue timing bit-exact either way.
  const std::size_t k =
      std::max<std::size_t>(1, network_.kernel().lookahead());
  std::size_t done = 0;
  while (done < cycles) {
    const std::size_t n = std::min(k, cycles - done);
    const std::uint64_t base = network_.kernel().cycle();
    for (std::size_t j = 0; j < n; ++j) roll_cycle(base + j);
    network_.step(n);
    done += n;
  }
}

}  // namespace xpl::traffic
