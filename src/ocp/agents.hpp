// OCP core models: a traffic-driven master and a memory-backed slave.
//
// These stand in for the CPUs/DSPs/memories of the paper's SoC case
// studies (DESIGN.md §2): they exercise exactly the OCP socket the NI
// implements — bursts, threads, posted and non-posted writes, sideband
// flags — without any proprietary core IP.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/ring.hpp"
#include "src/ocp/ocp.hpp"
#include "src/sim/kernel.hpp"
#include "src/sim/stream.hpp"

namespace xpl::ocp {

/// Wire bundle of one OCP socket (request stream + response stream).
struct OcpWires {
  sim::StreamWires<ReqBeat> req;    ///< master -> slave
  sim::StreamWires<RespBeat> resp;  ///< slave -> master

  static OcpWires make(sim::Kernel& kernel) {
    return {sim::StreamWires<ReqBeat>::make(kernel),
            sim::StreamWires<RespBeat>::make(kernel)};
  }
};

/// Queue-driven OCP master core. Testbenches push Transactions; the core
/// issues them beat by beat, enforces an outstanding-transaction limit,
/// matches responses per thread, and records TransactionResults.
class MasterCore : public sim::Module {
 public:
  struct Config {
    std::size_t max_outstanding = 8;  ///< in-flight txns expecting response
    std::size_t resp_fifo_depth = 8;  ///< response receive buffer (beats)
    std::size_t req_credits = 4;      ///< NI-side request FIFO depth
  };

  MasterCore(std::string name, const OcpWires& wires, const Config& config);

  /// Enqueues a transaction for immediate issue (testbench API, call
  /// between steps). Equivalent to push_transaction_at(txn, 0).
  void push_transaction(Transaction txn);

  /// Enqueues a transaction that becomes eligible for issue at cycle
  /// `release` (head-of-queue order is preserved; issue still waits for
  /// the outstanding limit and socket backpressure). Traffic drivers
  /// use this to pre-roll a whole lookahead epoch's injections before
  /// the partitioned kernel runs it: dequeue timing — and therefore
  /// every export — matches the per-cycle unpartitioned schedule.
  void push_transaction_at(Transaction txn, std::uint64_t release);

  /// Passive tap invoked on every accepted push, after validation and
  /// before queueing, with the release cycle (the cycle the transaction
  /// becomes issuable — what a replayable trace must record; 0 for
  /// plain push_transaction). workload::TraceRecorder installs these;
  /// null (the default) is free.
  std::function<void(const Transaction&, std::uint64_t release)> on_push;

  /// True when nothing is queued, in flight, or awaiting response.
  bool quiescent() const;

  /// Sleep claim: kNever with nothing to issue and both socket endpoints
  /// inert. Transactions awaiting responses are sleepable — the response
  /// beat wakes this module — and push_transaction wakes the module
  /// itself (external injection bypasses the wires). A master whose
  /// head-of-queue transaction has a future release cycle sleeps until
  /// that release; one blocked on the outstanding limit sleeps until a
  /// response beat wakes it (both kinds of waiting tick as observable
  /// no-ops).
  std::uint64_t next_event(std::uint64_t now) const override;

  std::size_t issued_count() const { return issued_count_; }
  const std::vector<TransactionResult>& completed() const {
    return completed_;
  }

  void tick(sim::Kernel& kernel) override;

 private:
  struct Pending {
    Transaction txn;
    std::uint64_t issue_cycle = 0;
    TransactionResult result;
  };

  /// A queued transaction and the cycle it becomes issuable.
  struct Queued {
    Transaction txn;
    std::uint64_t release = 0;
  };

  Config config_;
  sim::StreamProducer<ReqBeat> req_;
  sim::StreamConsumer<RespBeat> resp_;

  std::deque<Queued> queue_;
  std::optional<Transaction> active_;  ///< transaction being beat-streamed
  std::uint32_t next_beat_ = 0;
  std::uint64_t active_issue_cycle_ = 0;

  /// Oldest-first in-flight transactions expecting a response, one slot
  /// per thread id, grown to the highest id issued so far. A slot keeps
  /// its ring once allocated, and an unused one is an empty Ring, which
  /// allocates nothing.
  std::vector<Ring<Pending>> awaiting_;
  std::size_t awaiting_total_ = 0;

  std::size_t issued_count_ = 0;
  std::vector<TransactionResult> completed_;
};

/// Memory-backed OCP slave core with configurable service latency.
class SlaveCore : public sim::Module {
 public:
  struct Config {
    std::size_t req_fifo_depth = 8;   ///< request receive buffer (beats)
    std::size_t resp_credits = 8;     ///< master-side response FIFO depth
    std::uint32_t latency = 4;        ///< cycles from last req beat to resp
    std::uint64_t size_bytes = 1ull << 20;  ///< reads/writes past it -> ERR
  };

  SlaveCore(std::string name, const OcpWires& wires, const Config& config);

  void tick(sim::Kernel& kernel) override;

  /// Sleep claim. Jobs awaiting their service latency must not sleep
  /// past it: ready_cycle promotion is time-driven, not input-driven, so
  /// no wire write would re-arm the slave. One whose only pending work is
  /// jobs inside their service window sleeps until the front job's
  /// ready_cycle (jobs complete collection in cycle order with a constant
  /// latency, so the front ready_cycle is the minimum); one with no work
  /// at all sleeps until a request beat wakes it.
  std::uint64_t next_event(std::uint64_t now) const override;

  /// Direct backdoor access for tests (word index = byte addr / 8).
  std::uint64_t peek(std::uint64_t addr) const;
  void poke(std::uint64_t addr, std::uint64_t value);

  std::size_t requests_served() const { return served_; }

 private:
  struct Job {
    Cmd cmd = Cmd::kIdle;
    std::uint64_t addr = 0;
    std::vector<std::uint64_t> data;
    std::uint32_t burst_len = 1;
    BurstSeq burst_seq = BurstSeq::kIncr;
    std::uint32_t thread_id = 0;
    bool sideband = false;
    std::uint64_t ready_cycle = 0;
  };

  /// Address of burst beat `beat` under the job's MBurstSeq discipline.
  static std::uint64_t beat_address(const Job& job, std::uint32_t beat);

  Config config_;
  sim::StreamConsumer<ReqBeat> req_;
  sim::StreamProducer<RespBeat> resp_;

  std::optional<Job> collecting_;  ///< burst being received
  std::deque<Job> jobs_;           ///< complete requests awaiting service
  std::optional<Job> responding_;  ///< response being beat-streamed
  std::uint32_t resp_beat_ = 0;

  std::unordered_map<std::uint64_t, std::uint64_t> memory_;
  std::size_t served_ = 0;
};

}  // namespace xpl::ocp
