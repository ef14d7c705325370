// Time-leap scheduler corner tests (PR 10).
//
// The calendar-driven kTimeLeap kernel must be bit-exact against the
// full reference while actually skipping quiescent cycle gaps. The
// randomized sweep lives in tests/kernel_equiv_test.cpp; this file pins
// the corners a random draw undersamples:
//   - a leap truncated at a partitioned epoch barrier,
//   - a calendar wake landing exactly on the leap target,
//   - an external push_transaction at a cycle the kernel reached by
//     leaping (stale calendars, sleeping masters),
//   - closed-form catch-up of credit-stall and go-back-N counters
//     queried mid-sleep,
//   - a partitioned drain (run_until) leaping its all-asleep stretches.
// Each correctness assertion is paired with an anti-vacuousness check
// (leapt_cycles() > 0 or a nonzero stall/retransmission count) so a
// regression that silently stops leaping fails loudly too.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "src/link/flow.hpp"
#include "src/noc/network.hpp"
#include "src/ocp/ocp.hpp"
#include "src/sim/kernel.hpp"
#include "src/traffic/traffic.hpp"
#include "tests/support/differential.hpp"

namespace xpl {
namespace {

using testsupport::DiffResult;
using testsupport::DiffScenario;
using testsupport::run_differential_timeleap;
using testsupport::run_differential_timeleap_partitioned;

/// A near-silent scenario: idle gaps dwarf both the calendar window and
/// any partition lookahead, so every leap mechanism engages.
DiffScenario quiet_scenario() {
  DiffScenario s;
  s.topology = "mesh";
  s.width = 3;
  s.height = 3;
  s.injection_rate = 0.002;
  s.cycles = 1200;
  s.traffic_seed = 41;
  return s;
}

TEST(TimeLeap, ActuallyLeapsAtLowLoad) {
  const DiffScenario s = quiet_scenario();
  noc::Network net(s.build_topology(),
                   s.net_config(sim::Scheduler::kTimeLeap));
  traffic::TrafficDriver driver(net, s.traffic_config());
  driver.run(s.cycles);
  // At a 0.002 injection rate most cycles are quiescent; if fewer than
  // half were leapt the scheduler is not earning its keep and the
  // equivalence results below would be vacuous.
  EXPECT_GT(net.kernel().leapt_cycles(), s.cycles / 2)
      << "time-leap kernel walked nearly every cycle at near-zero load";
}

TEST(TimeLeap, QuietScenarioIsBitExact) {
  const DiffResult result = run_differential_timeleap(quiet_scenario());
  EXPECT_TRUE(result.ok) << result.detail;
}

// --- Corner: leap into an epoch barrier -----------------------------

// Partition-local leaps must stop at the epoch boundary even when the
// calendar says the next wake is further out: cut records from peer
// partitions land at the barrier, and sleeping through it would miss
// them. The digest comparison at every barrier proves the truncation is
// exact; the leapt/epoch counters prove both mechanisms actually ran.
TEST(TimeLeap, LeapIsTruncatedAtEpochBarriers) {
  DiffScenario s = quiet_scenario();
  s.topology = "mesh";
  s.width = 4;
  s.height = 4;
  for (const std::size_t partitions : {2u, 4u}) {
    const DiffResult result =
        run_differential_timeleap_partitioned(s, partitions, partitions);
    EXPECT_TRUE(result.ok) << result.detail;
  }

  noc::Network part(s.build_topology(),
                    s.net_config(sim::Scheduler::kTimeLeap, 4, 4));
  traffic::TrafficDriver driver(part, s.traffic_config());
  driver.run(s.cycles);
  ASSERT_GT(part.kernel().lookahead(), 0u);
  // Gaps at this load run thousands of cycles, far past one epoch, so
  // leaping and barrier crossings must both have happened many times.
  EXPECT_GT(part.kernel().leapt_cycles(), s.cycles / 2);
  EXPECT_GT(part.kernel().epochs(), 1u);
}

// --- Corner: calendar wake exactly at the leap target ----------------

// A master whose only work is a transaction with a future release cycle
// sleeps on the calendar until that release; an otherwise-empty network
// then leaps straight to it. The wake must land exactly on the leap
// target — one cycle late and the issue timing (hence every digest
// afterwards) shifts.
TEST(TimeLeap, WakeLandsExactlyOnLeapTarget) {
  DiffScenario s;  // 2x2 mesh, no traffic driver
  noc::Network full(s.build_topology(),
                     s.net_config(sim::Scheduler::kFull));
  noc::Network leap(s.build_topology(),
                    s.net_config(sim::Scheduler::kTimeLeap));

  constexpr std::uint64_t kRelease = 200;
  ocp::Transaction txn;
  txn.cmd = ocp::Cmd::kRead;
  txn.addr = full.target_base(1) + 0x40;
  full.master(0).push_transaction_at(txn, kRelease);
  leap.master(0).push_transaction_at(txn, kRelease);

  // One span across the whole gap: the leap kernel should jump from
  // (nearly) cycle 0 to the release cycle in one hop.
  full.step(400);
  leap.step(400);
  EXPECT_EQ(full.kernel().digest(), leap.kernel().digest())
      << "digest mismatch after leaping to a scheduled release";
  EXPECT_EQ(full.kernel().cycle(), leap.kernel().cycle());
  EXPECT_GT(leap.kernel().leapt_cycles(), kRelease / 2)
      << "kernel walked the pre-release gap instead of leaping it";

  for (std::size_t c = 0; c < 4000; ++c) {
    if (full.quiescent() && leap.quiescent()) break;
    full.step();
    leap.step();
    ASSERT_EQ(full.kernel().digest(), leap.kernel().digest())
        << "drain digest mismatch at cycle " << full.kernel().cycle();
  }
  ASSERT_TRUE(full.quiescent());
  ASSERT_TRUE(leap.quiescent());
  ASSERT_EQ(full.master(0).completed().size(), 1u);
  ASSERT_EQ(leap.master(0).completed().size(), 1u);
  EXPECT_EQ(full.master(0).completed()[0].issue_cycle,
            leap.master(0).completed()[0].issue_cycle);
  EXPECT_EQ(full.master(0).completed()[0].complete_cycle,
            leap.master(0).completed()[0].complete_cycle);
  EXPECT_GE(full.master(0).completed()[0].issue_cycle, kRelease);
}

// --- Corner: external push at a cycle reached by leaping -------------

// While the kernel sleeps toward a far-future release, the testbench
// pushes a second, immediately-issuable transaction. The push arrives at
// a cycle the leap kernel reached by jumping (every module asleep, the
// first master still parked on the calendar for the far release); the
// self-wake in push_transaction must arm the master for that same
// cycle, and the stale calendar entry must stay harmless.
TEST(TimeLeap, PushDuringLeapedGapIssuesSameCycle) {
  DiffScenario s;  // 2x2 mesh, no traffic driver
  noc::Network full(s.build_topology(),
                     s.net_config(sim::Scheduler::kFull));
  noc::Network leap(s.build_topology(),
                    s.net_config(sim::Scheduler::kTimeLeap));

  constexpr std::uint64_t kFarRelease = 300;
  ocp::Transaction far;
  far.cmd = ocp::Cmd::kRead;
  far.addr = full.target_base(2) + 0x10;
  full.master(0).push_transaction_at(far, kFarRelease);
  leap.master(0).push_transaction_at(far, kFarRelease);

  // Advance into the gap: the leap twin jumps these 100 cycles.
  full.step(100);
  leap.step(100);
  ASSERT_EQ(full.kernel().cycle(), leap.kernel().cycle());
  ASSERT_EQ(full.kernel().digest(), leap.kernel().digest());
  ASSERT_GT(leap.kernel().leapt_cycles(), 50u)
      << "the pre-push gap was walked, not leapt; corner not exercised";

  // Same-cycle external push on a *different* master mid-gap, plus one
  // on the sleeping master itself (its calendar entry for kFarRelease
  // is now stale-but-pending).
  ocp::Transaction now_txn;
  now_txn.cmd = ocp::Cmd::kWrite;
  now_txn.addr = full.target_base(1);
  now_txn.data = {0xABCDu};
  now_txn.burst_len = 1;
  for (noc::Network* net : {&full, &leap}) {
    net->master(1).push_transaction(now_txn);
    net->master(0).push_transaction(now_txn);
  }

  // Per-cycle lockstep through issue, the far release, and the drain:
  // digests must match every cycle, including the re-leapt stretch
  // between the pushed writes completing and kFarRelease.
  for (std::size_t c = 0; c < 4000; ++c) {
    if (full.quiescent() && leap.quiescent()) break;
    full.step();
    leap.step();
    ASSERT_EQ(full.kernel().digest(), leap.kernel().digest())
        << "digest mismatch at cycle " << full.kernel().cycle();
  }
  ASSERT_TRUE(full.quiescent());
  ASSERT_TRUE(leap.quiescent());
  ASSERT_EQ(full.master(0).completed().size(), 2u);
  ASSERT_EQ(leap.master(1).completed().size(), 1u);
  EXPECT_EQ(full.master(1).completed()[0].issue_cycle,
            leap.master(1).completed()[0].issue_cycle);
}

// --- Corner: closed-form counter catch-up ---------------------------

// Credit-stall counters advance one per stalled cycle. A sender parked
// mid-stall by the time-leap kernel accrues those cycles closed-form on
// its next tick — and the accessor must account for the still-open gap
// when queried *between* runs, while the sender is asleep. Comparing
// totals at every span boundary (not just the end) is what catches an
// off-by-one in the catch-up arithmetic.
TEST(TimeLeap, CreditStallCountersCatchUpExactly) {
  // Deterministic sweet spot (seed-pinned): bursts dense enough to
  // overrun credits (20 stall cycles) with gaps long enough to leap
  // (16 leapt cycles), and owners that sleep while a sender is starved,
  // so the catch-up itself runs: with the gap arithmetic off by one, 30
  // of the 50 span checks fail. (Seed 77 had stalls and leaps but never
  // a starved sleep, so it passed with no catch-up at all.)
  DiffScenario s;
  s.topology = "mesh";
  s.width = 3;
  s.height = 3;
  s.flow = link::FlowControl::kCredit;
  s.injection_rate = 0.03;
  s.burstiness = 0.8;
  s.cycles = 3000;
  s.traffic_seed = 1;

  noc::Network full(s.build_topology(),
                     s.net_config(sim::Scheduler::kFull));
  noc::Network leap(s.build_topology(),
                    s.net_config(sim::Scheduler::kTimeLeap));
  traffic::TrafficDriver full_driver(full, s.traffic_config());
  traffic::TrafficDriver leap_driver(leap, s.traffic_config());

  for (std::size_t done = 0; done < s.cycles; done += 60) {
    full_driver.run(60);
    leap_driver.run(60);
    ASSERT_EQ(full.kernel().digest(), leap.kernel().digest())
        << "digest mismatch at span ending cycle " << full.kernel().cycle();
    ASSERT_EQ(full.total_credit_stalls(), leap.total_credit_stalls())
        << "credit-stall totals diverged at cycle " << full.kernel().cycle();
  }
  full.run_until_quiescent(20000);
  leap.run_until_quiescent(20000);
  EXPECT_EQ(full.kernel().digest(), leap.kernel().digest());
  EXPECT_EQ(full.total_credit_stalls(), leap.total_credit_stalls());
  EXPECT_GT(full.total_credit_stalls(), 0u)
      << "scenario produced no credit stalls; catch-up not exercised";
  EXPECT_GT(leap.kernel().leapt_cycles(), 0u);
}

// Go-back-N: corrupted flits trigger NACK timers and retransmission
// counters. The sender's timer state lives in signals (digest-covered),
// so the counters must agree at every boundary with zero tolerance.
TEST(TimeLeap, GoBackNRetransmissionCountersMatch) {
  DiffScenario s;
  s.topology = "mesh";
  s.width = 3;
  s.height = 3;
  s.flow = link::FlowControl::kAckNack;
  s.bit_error_rate = 2e-3;
  s.injection_rate = 0.05;
  s.cycles = 900;
  s.net_seed = 11;
  s.traffic_seed = 13;

  noc::Network full(s.build_topology(),
                     s.net_config(sim::Scheduler::kFull));
  noc::Network leap(s.build_topology(),
                    s.net_config(sim::Scheduler::kTimeLeap));
  traffic::TrafficDriver full_driver(full, s.traffic_config());
  traffic::TrafficDriver leap_driver(leap, s.traffic_config());

  for (std::size_t done = 0; done < s.cycles; done += 45) {
    full_driver.run(45);
    leap_driver.run(45);
    ASSERT_EQ(full.kernel().digest(), leap.kernel().digest())
        << "digest mismatch at span ending cycle " << full.kernel().cycle();
    ASSERT_EQ(full.total_retransmissions(), leap.total_retransmissions())
        << "retransmission totals diverged at cycle "
        << full.kernel().cycle();
  }
  full.run_until_quiescent(20000);
  leap.run_until_quiescent(20000);
  EXPECT_EQ(full.kernel().digest(), leap.kernel().digest());
  EXPECT_EQ(full.total_retransmissions(), leap.total_retransmissions());
  EXPECT_GT(full.total_retransmissions(), 0u)
      << "scenario produced no retransmissions; corner not exercised";
}

// --- Corner: a partitioned drain leaps --------------------------------

// run_until (and so run_until_quiescent) evaluates its predicate at every
// boundary it walks and leaps, like run(), when every partition sleeps.
// The partitioned drain must stop on the reference's exact cycle, and
// every boundary it does evaluate must carry the reference's digest for
// that cycle.
TEST(TimeLeap, PartitionedDrainLeapsToQuiescence) {
  DiffScenario s = quiet_scenario();
  s.width = 4;
  s.height = 4;
  s.cycles = 400;
  noc::Network full(s.build_topology(), s.net_config(sim::Scheduler::kFull));
  noc::Network part(s.build_topology(),
                    s.net_config(sim::Scheduler::kTimeLeap, 2, 1));
  traffic::TrafficDriver full_driver(full, s.traffic_config());
  traffic::TrafficDriver part_driver(part, s.traffic_config());
  full_driver.run(s.cycles);
  part_driver.run(s.cycles);
  ASSERT_EQ(full.kernel().digest(), part.kernel().digest());

  // A read released well past the driven window leaves a long all-asleep
  // stretch inside the drain.
  const std::uint64_t release = s.cycles + 300;
  for (noc::Network* net : {&full, &part}) {
    ocp::Transaction txn;
    txn.cmd = ocp::Cmd::kRead;
    txn.addr = net->target_base(1);
    net->master(0).push_transaction_at(txn, release);
  }

  std::map<std::uint64_t, std::uint64_t> full_digests;
  const std::uint64_t full_drained = full.kernel().run_until(
      [&] {
        full_digests[full.kernel().cycle()] = full.kernel().digest();
        return full.quiescent();
      },
      s.drain_cycles);
  const std::uint64_t leapt_before = part.kernel().leapt_cycles();
  std::size_t boundaries = 0;
  const std::uint64_t part_drained = part.kernel().run_until(
      [&] {
        const auto it = full_digests.find(part.kernel().cycle());
        EXPECT_TRUE(it != full_digests.end() &&
                    it->second == part.kernel().digest())
            << "digest mismatch at boundary " << part.kernel().cycle();
        ++boundaries;
        return part.quiescent();
      },
      s.drain_cycles);
  ASSERT_TRUE(full.quiescent());
  ASSERT_TRUE(part.quiescent());
  EXPECT_EQ(part_drained, full_drained);
  EXPECT_GT(part.kernel().leapt_cycles(), leapt_before)
      << "the partitioned drain walked its all-asleep stretch";
  EXPECT_LT(boundaries, full_digests.size());
  EXPECT_EQ(full.kernel().digest(), part.kernel().digest());
  EXPECT_GE(full.master(0).completed().back().issue_cycle, release);
}

}  // namespace
}  // namespace xpl
