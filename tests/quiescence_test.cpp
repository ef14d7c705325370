// Per-module quiescence invariants for the time-leap kernel's active set.
//
// The time-leap kernel puts a module to sleep whenever its
// next_event(now) returns kNever (until a watched write or wake()), so
// that contract is load-bearing for correctness: kNever may be claimed
// only when every further tick would provably change no internal state
// and write no signal value differing from what the wires already hold
// (a starved credit sender's stall count aside: it is caught up in
// closed form). These tests pin that contract from three directions:
//
//  * kernel-level: active-set mechanics with toy modules (sleep, wake
//    on watched writes, same-cycle wake(), two-watcher fanout);
//  * one-step oracle: on a single-module bench, every kNever claim is
//    verified by stepping once more and requiring the kernel digest to
//    be a fixed point — including a credit-starved switch, which sleeps
//    while its stall count must keep matching per-cycle ticking;
//  * module-level: each network module class must actually reach kNever
//    after a drain (sleeping must not be vacuous), must not sleep
//    through time-driven state (SlaveCore's latency window), and the
//    network as a whole must never be fully asleep with work pending.
//
// The cycle-by-cycle proof that skipping never changes results lives in
// tests/kernel_equiv_test.cpp; this file proves the claims say "asleep"
// exactly when they are entitled to.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/rng.hpp"
#include "src/link/link.hpp"
#include "src/noc/network.hpp"
#include "src/ocp/agents.hpp"
#include "src/sim/kernel.hpp"
#include "src/switchlib/switch.hpp"
#include "src/topology/generators.hpp"
#include "src/traffic/traffic.hpp"

namespace xpl {
namespace {

/// A module's sleep claim as the kernel reads it right after the last
/// tick (`now` = the cycle just ticked): true when the module would
/// leave the active set until a watched write or wake().
bool sleeps(const sim::Module& m, const sim::Kernel& kernel) {
  const std::uint64_t now = kernel.cycle() == 0 ? 0 : kernel.cycle() - 1;
  return m.next_event(now) == sim::kNever;
}

// ---------------------------------------------------------------------
// Kernel-level active-set mechanics.
// ---------------------------------------------------------------------

/// Emits `pulses` increasing values, with a write-on-change trailing
/// reset, then idles.
class Pulser : public sim::Module {
 public:
  Pulser(sim::Kernel& kernel, std::size_t pulses)
      : sim::Module("pulser"),
        out_(kernel.make_signal<std::uint64_t>()),
        pulses_left_(pulses) {}

  void tick(sim::Kernel&) override {
    if (pulses_left_ > 0) {
      out_.write(++value_);
      --pulses_left_;
      dirty_ = true;
    } else if (dirty_) {
      out_.write(0);
      dirty_ = false;
    }
  }

  std::uint64_t next_event(std::uint64_t now) const override {
    return pulses_left_ == 0 && !dirty_ ? sim::kNever : now + 1;
  }

  void add_pulse() {
    ++pulses_left_;
    wake();  // external injection, exactly like push_transaction
  }

  sim::Signal<std::uint64_t>& out() { return out_; }

 private:
  sim::Signal<std::uint64_t>& out_;
  std::size_t pulses_left_;
  std::uint64_t value_ = 0;
  bool dirty_ = false;
};

/// Counts the nonzero values it observes on a watched wire.
class Counter : public sim::Module {
 public:
  Counter(sim::Signal<std::uint64_t>& in, std::string name = "counter")
      : sim::Module(std::move(name)), in_(in) {
    in_.watch(*this);
  }

  void tick(sim::Kernel&) override {
    if (in_.read() != 0) ++seen_;
  }

  /// Input-driven: a nonzero value on the wire means the next tick
  /// counts it, so the module may sleep only on a zero wire.
  std::uint64_t next_event(std::uint64_t now) const override {
    return in_.read() == 0 ? sim::kNever : now + 1;
  }

  std::size_t seen() const { return seen_; }

 private:
  sim::Signal<std::uint64_t>& in_;
  std::size_t seen_ = 0;
};

TEST(Quiescence, ActiveSetDrainsToZeroAndDigestIsAFixedPoint) {
  sim::Kernel kernel(sim::Scheduler::kTimeLeap);
  Pulser pulser(kernel, 3);
  Counter counter(pulser.out());
  kernel.add_module(pulser);
  kernel.add_module(counter);

  kernel.run(10);
  EXPECT_EQ(counter.seen(), 3u);
  EXPECT_EQ(kernel.awake_count(), 0u) << "modules failed to leave the set";
  const std::uint64_t d0 = kernel.digest();
  kernel.run(25);
  EXPECT_EQ(kernel.digest(), d0) << "asleep kernel changed state";
  EXPECT_EQ(counter.seen(), 3u);
}

TEST(Quiescence, WatchedWriteWakesASleepingConsumer) {
  sim::Kernel kernel(sim::Scheduler::kTimeLeap);
  Pulser pulser(kernel, 0);
  Counter counter(pulser.out());
  kernel.add_module(pulser);
  kernel.add_module(counter);
  kernel.run(5);
  ASSERT_EQ(kernel.awake_count(), 0u);

  // A testbench write to the watched signal must re-arm the consumer.
  // The testbench acts as a write-on-change producer: one valid value,
  // then the trailing reset.
  pulser.out().write(42);
  kernel.step();  // commit the write; counter was woken for this step
  EXPECT_TRUE(counter.awake());
  pulser.out().write(0);
  kernel.step();  // counter reads 42; the reset commits behind it
  EXPECT_EQ(counter.seen(), 1u);
  kernel.run(5);
  EXPECT_EQ(kernel.awake_count(), 0u);
  EXPECT_EQ(counter.seen(), 1u);
}

TEST(Quiescence, ExplicitWakeArmsTheCurrentCycle) {
  // wake() must make the very next step() tick the module — matching the
  // full scheduler for externally injected work (MasterCore's
  // push_transaction is this exact pattern).
  sim::Kernel kernel(sim::Scheduler::kTimeLeap);
  Pulser pulser(kernel, 1);
  Counter counter(pulser.out());
  kernel.add_module(pulser);
  kernel.add_module(counter);
  kernel.run(6);
  ASSERT_EQ(kernel.awake_count(), 0u);

  pulser.add_pulse();
  EXPECT_TRUE(pulser.awake()) << "wake() must arm immediately";
  kernel.step();  // pulser emits on this very step, not one later
  kernel.step();  // counter consumes
  EXPECT_EQ(counter.seen(), 2u);
}

TEST(Quiescence, BothWatcherSlotsAreWoken) {
  sim::Kernel kernel(sim::Scheduler::kTimeLeap);
  Pulser pulser(kernel, 0);
  Counter first(pulser.out(), "first");
  Counter second(pulser.out(), "second");  // second watcher slot
  kernel.add_module(pulser);
  kernel.add_module(first);
  kernel.add_module(second);
  kernel.run(5);
  ASSERT_EQ(kernel.awake_count(), 0u);

  pulser.out().write(7);
  kernel.step();
  pulser.out().write(0);  // trailing reset before the value is re-read
  kernel.step();
  kernel.run(5);
  EXPECT_EQ(first.seen(), 1u);
  EXPECT_EQ(second.seen(), 1u);
  EXPECT_EQ(kernel.awake_count(), 0u);
}

/// Records the cycles it ticks at; asleep whenever asked, so it ticks
/// only when woken.
class TickLog : public sim::Module {
 public:
  explicit TickLog(sim::Signal<std::uint64_t>& in) : sim::Module("log") {
    in.watch(*this);
  }
  void tick(sim::Kernel& kernel) override { ticks_.push_back(kernel.cycle()); }
  std::uint64_t next_event(std::uint64_t) const override {
    return sim::kNever;
  }
  const std::vector<std::uint64_t>& ticks() const { return ticks_; }

 private:
  std::vector<std::uint64_t> ticks_;
};

/// Writes `outs` once per kick().
class Fanout : public sim::Module {
 public:
  explicit Fanout(std::vector<sim::Signal<std::uint64_t>*> outs)
      : sim::Module("fanout"), outs_(std::move(outs)) {}
  void tick(sim::Kernel&) override {
    for (; kicks_ > 0; --kicks_) {
      for (sim::Signal<std::uint64_t>* s : outs_) s->write(++value_);
    }
  }
  std::uint64_t next_event(std::uint64_t now) const override {
    return kicks_ == 0 ? sim::kNever : now + 1;
  }
  void kick() {
    ++kicks_;
    wake();
  }

 private:
  std::vector<sim::Signal<std::uint64_t>*> outs_;
  std::size_t kicks_ = 0;
  std::uint64_t value_ = 0;
};

TEST(Quiescence, MidTickWakesFollowRegistrationOrderAcrossWords) {
  // The active set keeps one bit per module in 64-bit words. A module
  // woken during the tick phase ticks this cycle if it is registered after
  // the writer and next cycle if before, in the writer's word or another.
  sim::Kernel kernel(sim::Scheduler::kTimeLeap);
  std::vector<sim::Signal<std::uint64_t>*> wires;
  for (int i = 0; i < 4; ++i) {
    wires.push_back(&kernel.make_signal<std::uint64_t>());
  }
  Fanout fanout(wires);
  std::vector<std::unique_ptr<TickLog>> logs;
  for (sim::Signal<std::uint64_t>* w : wires) {
    logs.push_back(std::make_unique<TickLog>(*w));
  }
  // Slots: log 0 at 30 (word 0), log 1 at 70 and the writer at 100
  // (word 1), log 2 at 101 (word 1), log 3 at 150 (word 2).
  const std::size_t slot_of_log[4] = {30, 70, 101, 150};
  std::vector<std::unique_ptr<Pulser>> fillers;
  for (std::size_t slot = 0; slot < 160; ++slot) {
    const std::size_t* it = std::find(slot_of_log, slot_of_log + 4, slot);
    if (slot == 100) {
      kernel.add_module(fanout);
    } else if (it != slot_of_log + 4) {
      kernel.add_module(*logs[static_cast<std::size_t>(it - slot_of_log)]);
    } else {
      fillers.push_back(std::make_unique<Pulser>(kernel, 0));
      kernel.add_module(*fillers.back());
    }
  }
  kernel.run(3);
  ASSERT_EQ(kernel.awake_count(), 0u);
  for (auto& log : logs) ASSERT_EQ(log->ticks().size(), 1u);  // cycle 0

  fanout.kick();
  const std::uint64_t c = kernel.cycle();
  kernel.run(4);
  EXPECT_EQ(logs[0]->ticks()[1], c + 1);
  EXPECT_EQ(logs[1]->ticks()[1], c + 1);
  EXPECT_EQ(logs[2]->ticks()[1], c);
  EXPECT_EQ(logs[3]->ticks()[1], c);
  EXPECT_EQ(kernel.awake_count(), 0u);
  EXPECT_EQ(kernel.module_count(), 160u);
}

// ---------------------------------------------------------------------
// One-step oracle: a module claiming kNever on a single-module bench
// must leave the kernel digest a fixed point when stepped with inert
// inputs.
// ---------------------------------------------------------------------

TEST(Quiescence, LinkIdleClaimsAreFixedPoints) {
  // The bench owns every signal and the link is the only module, so
  // stepping once with no testbench writes exercises exactly the sleep
  // contract: claimed kNever => nothing may change.
  sim::Kernel kernel;  // full scheduler: every claim is *checked*, not used
  link::LinkWires up = link::LinkWires::make(kernel);
  link::LinkWires down = link::LinkWires::make(kernel);
  link::PipelinedLink dut("dut", up, down,
                          link::PipelinedLink::Config{2, 0.0, 11});
  kernel.add_module(dut);

  Rng rng(2024);
  bool fwd_dirty = false;
  bool rev_dirty = false;
  std::size_t checked = 0;
  for (int cycle = 0; cycle < 400; ++cycle) {
    bool wrote = false;
    if (rng.chance(0.25)) {
      Flit f(BitVector(32, rng.next_u64() & 0xFFFFFFFF), true, true);
      flit_seal(f, CrcKind::kCrc8);
      up.fwd->write(FlitBeat{true, std::move(f)});
      fwd_dirty = wrote = true;
    } else if (fwd_dirty) {
      up.fwd->write(FlitBeat{});
      fwd_dirty = false;
      wrote = true;
    }
    if (rng.chance(0.15)) {
      down.rev->write(AckBeat{true, true, 1});
      rev_dirty = wrote = true;
    } else if (rev_dirty) {
      down.rev->write(AckBeat{});
      rev_dirty = false;
      wrote = true;
    }
    kernel.step();
    if (wrote || !sleeps(dut, kernel)) continue;
    const std::uint64_t d0 = kernel.digest();
    kernel.step();  // no stimulus: the claim must be a fixed point
    ASSERT_EQ(kernel.digest(), d0)
        << "link claimed kNever at cycle " << cycle << " but changed state";
    ASSERT_TRUE(sleeps(dut, kernel));
    ++checked;
  }
  EXPECT_GT(checked, 20u) << "stimulus never let the link go idle";
  EXPECT_GT(dut.flits_carried(), 0u) << "stimulus never exercised the link";
}

TEST(Quiescence, StarvedCreditSwitchIsAFixedPoint) {
  // A credit-starved switch with nothing buffered sleeps (kNever) although
  // its sender counts a stall every cycle: the count is caught up in
  // closed form, which the old strict idle predicate could not express.
  // The same bench runs under both schedulers in lock step. Under kFull
  // every kNever claim is checked (digest fixed point, one stall per
  // step); under kTimeLeap the switch really sleeps, and its
  // credit_stalls(now), read mid-gap, must equal the kFull count.
  struct Bench {
    sim::Kernel kernel;
    link::LinkWires in;
    link::LinkWires out;
    link::CreditSender feed;  // the testbench's side of the input link
    switchlib::Switch dut;

    static switchlib::SwitchConfig config() {
      switchlib::SwitchConfig c;
      c.num_inputs = 1;
      c.num_outputs = 1;
      c.flow = link::FlowControl::kCredit;
      c.protocol = link::ProtocolConfig::for_link(0);
      return c;
    }
    explicit Bench(sim::Scheduler sched)
        : kernel(sched),
          in(link::LinkWires::make(kernel)),
          out(link::LinkWires::make(kernel)),
          feed(in, config().protocol),
          dut("dut", config(), {in}, {out}) {
      kernel.add_module(dut);
    }
    // One cycle: the testbench offers a single-flit packet for output 0
    // while `offer` holds; nothing ever returns a credit on the output.
    // Returns whether the packet went in.
    bool step(bool offer) {
      feed.begin_cycle(kernel.cycle());
      const bool sent = offer && feed.can_accept();
      if (sent) {
        feed.accept(Flit(BitVector(32, 0), /*head=*/true, /*tail=*/true));
      }
      feed.end_cycle();
      kernel.step();
      return sent;
    }
  };
  Bench full(sim::Scheduler::kFull);
  Bench leap(sim::Scheduler::kTimeLeap);
  const std::size_t window = Bench::config().protocol.window;

  // Exactly one window of flits: all of them leave the switch, and the
  // output sender ends with zero credits and nothing left to send.
  std::size_t offered = 0;
  std::size_t checked = 0;
  for (int cycle = 0; cycle < 60; ++cycle) {
    const bool offer = offered < window;
    if (full.step(offer)) ++offered;
    leap.step(offer);
    const std::uint64_t now = full.kernel.cycle();
    ASSERT_EQ(full.kernel.digest(), leap.kernel.digest()) << "cycle " << now;
    ASSERT_EQ(leap.dut.credit_stalls(now), full.dut.credit_stalls(now))
        << "mid-gap stall count diverged at cycle " << now;
    if (!sleeps(full.dut, full.kernel) || !full.feed.gate_idle()) continue;

    ASSERT_GT(full.dut.credit_stalls(now), 0u) << "switch is not starved";
    ASSERT_FALSE(leap.dut.awake()) << "starved switch kept awake";
    const std::uint64_t d0 = full.kernel.digest();
    const std::uint64_t stalls = full.dut.credit_stalls(now);
    full.step(false);
    leap.step(false);
    ASSERT_EQ(full.kernel.digest(), d0)
        << "starved switch claimed kNever but changed state";
    ASSERT_TRUE(sleeps(full.dut, full.kernel));
    ASSERT_EQ(full.dut.credit_stalls(now + 1), stalls + 1);
    ASSERT_EQ(leap.dut.credit_stalls(now + 1), stalls + 1);
    ++checked;
  }
  EXPECT_EQ(full.dut.flits_switched(), window);
  EXPECT_GT(checked, 10u) << "the switch never starved asleep";
}

// ---------------------------------------------------------------------
// OCP endpoint predicates.
// ---------------------------------------------------------------------

struct OcpBench {
  sim::Kernel kernel;
  ocp::OcpWires wires;
  ocp::MasterCore master;
  ocp::SlaveCore slave;

  explicit OcpBench(std::uint32_t latency,
                    sim::Scheduler sched = sim::Scheduler::kFull)
      : kernel(sched),
        wires(ocp::OcpWires::make(kernel)),
        master("master", wires, master_config()),
        slave("slave", wires, slave_config(latency)) {
    kernel.add_module(master);
    kernel.add_module(slave);
  }

  static ocp::MasterCore::Config master_config() {
    ocp::MasterCore::Config c;
    c.req_credits = ocp::SlaveCore::Config{}.req_fifo_depth;
    return c;
  }

  static ocp::SlaveCore::Config slave_config(std::uint32_t latency) {
    ocp::SlaveCore::Config c;
    c.latency = latency;
    return c;
  }
};

TEST(Quiescence, MasterIdleTracksItsWorkQueue) {
  OcpBench b(/*latency=*/2, sim::Scheduler::kTimeLeap);
  b.kernel.run(3);
  EXPECT_TRUE(sleeps(b.master, b.kernel));
  EXPECT_TRUE(sleeps(b.slave, b.kernel));
  ASSERT_EQ(b.kernel.awake_count(), 0u);

  ocp::Transaction txn;
  txn.cmd = ocp::Cmd::kRead;
  txn.addr = 0x40;
  txn.burst_len = 1;
  b.master.push_transaction(txn);
  EXPECT_TRUE(b.master.awake()) << "queued work must wake it";
  b.kernel.step();  // issues the request beat
  EXPECT_FALSE(sleeps(b.master, b.kernel)) << "a beat on the wire";

  b.kernel.run_until([&] { return b.master.quiescent(); }, 5000);
  b.kernel.run(20);
  EXPECT_TRUE(sleeps(b.master, b.kernel));
  EXPECT_TRUE(sleeps(b.slave, b.kernel));
  EXPECT_EQ(b.kernel.awake_count(), 0u);
  EXPECT_EQ(b.master.completed().size(), 1u);
}

TEST(Quiescence, SlaveStaysAwakeThroughItsLatencyWindow) {
  // The service-latency wait is time-driven: no wire write will re-arm
  // the slave, so kNever mid-window would hang the time-leap kernel.
  // Probe the middle of a long window directly: the claim must name a
  // finite wake cycle.
  OcpBench b(/*latency=*/30);
  ocp::Transaction txn;
  txn.cmd = ocp::Cmd::kRead;
  txn.addr = 0x8;
  txn.burst_len = 1;
  b.master.push_transaction(txn);
  b.kernel.run(15);  // request delivered; response ~15 cycles away
  EXPECT_FALSE(sleeps(b.slave, b.kernel))
      << "slave slept on a job awaiting its ready_cycle";
  EXPECT_TRUE(sleeps(b.master, b.kernel))
      << "awaiting a response is sleepable (the beat wakes it)";

  b.kernel.run_until([&] { return b.master.quiescent(); }, 5000);
  b.kernel.run(20);
  EXPECT_EQ(b.master.completed().size(), 1u);
  EXPECT_TRUE(sleeps(b.slave, b.kernel));
}

// ---------------------------------------------------------------------
// Whole-network predicates.
// ---------------------------------------------------------------------

noc::NetworkConfig mesh_config() {
  noc::NetworkConfig cfg;
  cfg.routing = topology::RoutingAlgorithm::kXY;
  cfg.target_window = 1 << 12;
  return cfg;
}

TEST(Quiescence, EveryModuleClassReachesIdleAfterDrain) {
  // Sleeping must not be vacuous for any module class: after a full
  // drain every switch, link, NI and core must claim kNever, the active
  // set must be empty, and the asleep network must be a digest fixed
  // point.
  noc::NetworkConfig cfg = mesh_config();
  cfg.vcs = 2;
  noc::Network net(topology::make_mesh(3, 2, topology::NiPlan::uniform(6, 1, 1)),
                   cfg);
  traffic::TrafficConfig tcfg;
  tcfg.injection_rate = 0.1;
  tcfg.seed = 17;
  traffic::TrafficDriver driver(net, tcfg);
  driver.run(300);
  ASSERT_GT(driver.injected(), 0u);
  net.run_until_quiescent(30000);
  ASSERT_TRUE(net.quiescent());
  net.step(20);  // let trailing drive-idle resets land and the set decay

  for (const sim::Module* m : net.kernel().modules()) {
    EXPECT_TRUE(sleeps(*m, net.kernel()))
        << "still claims work after drain: " << m->name();
  }
  EXPECT_EQ(net.kernel().awake_count(), 0u);
  const std::uint64_t d0 = net.kernel().digest();
  net.step(50);
  EXPECT_EQ(net.kernel().digest(), d0);
}

TEST(Quiescence, StarvedSwitchesSleepOnASaturatedCreditMesh) {
  // Full and time-leap runs of one saturated credit mesh, in lock step.
  // A switch whose sender sits starved with nothing left to send claims
  // kNever while its stall count keeps growing. Read mid-gap, every
  // switch's credit_stalls(now) must equal the per-cycle kFull count.
  // A hotspot saturates the mesh and parks whole packets in front of it,
  // which leaves drained switches starved; the seed is pinned so that
  // this happens often (127 starved-asleep switch-cycles).
  noc::NetworkConfig cfg = mesh_config();
  cfg.flow = link::FlowControl::kCredit;
  cfg.vcs = 2;
  noc::NetworkConfig full_cfg = cfg;
  full_cfg.scheduler = sim::Scheduler::kFull;
  const auto topo = [] {
    return topology::make_mesh(3, 3, topology::NiPlan::uniform(9, 1, 1));
  };
  noc::Network full(topo(), full_cfg);
  noc::Network leap(topo(), cfg);
  traffic::TrafficConfig tcfg;
  tcfg.pattern = traffic::Pattern::kHotspot;
  tcfg.hotspot_fraction = 0.7;
  tcfg.injection_rate = 0.4;
  tcfg.seed = 2;
  traffic::TrafficDriver full_driver(full, tcfg);
  traffic::TrafficDriver leap_driver(leap, tcfg);

  std::vector<std::uint64_t> last(leap.num_switches(), 0);
  std::size_t starved_asleep = 0;
  for (std::size_t c = 0; c < 1500; ++c) {
    full_driver.step();
    full.step();
    leap_driver.step();
    leap.step();
    const std::uint64_t now = leap.kernel().cycle();
    for (std::size_t s = 0; s < leap.num_switches(); ++s) {
      const switchlib::Switch& sw = leap.switch_at(s);
      const std::uint64_t stalls = sw.credit_stalls(now);
      ASSERT_EQ(stalls, full.switch_at(s).credit_stalls(now))
          << "switch " << s << " at cycle " << now;
      if (!sw.awake() && stalls > last[s]) {
        ASSERT_TRUE(sleeps(sw, leap.kernel())) << "switch " << s;
        ++starved_asleep;
      }
      last[s] = stalls;
    }
  }
  EXPECT_EQ(full.kernel().digest(), leap.kernel().digest());
  EXPECT_GT(starved_asleep, 20u) << "switches rarely slept while starved";
}

TEST(Quiescence, NetworkIsNeverFullyAsleepWithWorkPending) {
  // The lost-wakeup failure mode: some module transfers responsibility
  // without waking the responsible party and the network wedges with
  // work in flight. Invariant: awake_count() == 0 implies quiescent().
  noc::NetworkConfig cfg = mesh_config();
  cfg.bit_error_rate = 2e-4;  // retransmission timers in play
  cfg.crc = CrcKind::kCrc16;
  noc::Network net(topology::make_mesh(3, 3, topology::NiPlan::uniform(9, 1, 1)),
                   cfg);
  traffic::TrafficConfig tcfg;
  tcfg.injection_rate = 0.08;
  tcfg.burstiness = 0.4;
  tcfg.seed = 23;
  traffic::TrafficDriver driver(net, tcfg);

  auto check = [&](std::size_t cycle) {
    if (net.kernel().awake_count() == 0) {
      ASSERT_TRUE(net.quiescent())
          << "all asleep with work pending at cycle " << cycle;
    }
  };
  for (std::size_t c = 0; c < 400; ++c) {
    driver.step();
    net.step();
    check(c);
  }
  std::size_t drained = 0;
  for (; drained < 30000 && !net.quiescent(); ++drained) {
    net.step();
    check(400 + drained);
  }
  ASSERT_TRUE(net.quiescent()) << "network failed to drain";
  std::size_t completed = 0;
  for (std::size_t i = 0; i < net.num_initiators(); ++i) {
    completed += net.master(i).completed().size();
  }
  EXPECT_EQ(completed, driver.injected());
}

TEST(Quiescence, ServiceWindowSleepsOnTheCalendarAndIsLeapt) {
  // End-to-end view of the latency-window contract: one read through a
  // quiet network; while the slave waits out its (long) service latency
  // everything else goes to sleep around it, and the slave itself parks
  // on the wake calendar (next_event() names the window's end), so the
  // kernel leaps the window instead of walking it.
  noc::NetworkConfig cfg = mesh_config();
  cfg.slave_latency = 60;
  noc::Network net(topology::make_mesh(2, 2, topology::NiPlan::uniform(4, 1, 1)),
                   cfg);
  ocp::Transaction txn;
  txn.cmd = ocp::Cmd::kRead;
  txn.addr = net.target_base(3) + 0x10;
  txn.burst_len = 1;
  net.master(0).push_transaction(txn);

  std::size_t min_busy_awake = net.kernel().module_count();
  std::size_t steps = 0;
  while (!net.quiescent() && steps < 5000) {
    net.step();
    ++steps;
    if (!net.quiescent()) {
      min_busy_awake = std::min(min_busy_awake, net.kernel().awake_count());
    }
  }
  ASSERT_TRUE(net.quiescent());
  EXPECT_EQ(net.master(0).completed().size(), 1u);
  EXPECT_EQ(min_busy_awake, 0u)
      << "the service window should put the whole network to sleep";
  EXPECT_GT(net.kernel().leapt_cycles(), cfg.slave_latency / 2)
      << "the service window was walked, not leapt";
}

}  // namespace
}  // namespace xpl
