// OCP protocol monitor / checker.
//
// A passive observer on an OCP socket's wires: it never drives anything,
// only records traffic and flags protocol violations. Testbenches attach
// one between a core and an NI to prove both sides obey the socket
// contract — the "can be tailored to core features" claim only holds if
// the interface discipline is actually checkable.
//
// Checked rules:
//   * request beat_index counts 0..N-1 within a burst, no interleaving;
//   * burst_len stays constant across a burst's beats;
//   * read requests are single-beat on the wire;
//   * responses arrive only while transactions are outstanding on that
//     thread (posted writes expect none);
//   * response beat counts match the request (reads: burst_len, others 1).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/ocp/agents.hpp"
#include "src/sim/kernel.hpp"

namespace xpl::ocp {

class Monitor : public sim::Module {
 public:
  /// Observes the given socket wires (shared with master and slave).
  Monitor(std::string name, const OcpWires& wires);

  void tick(sim::Kernel& kernel) override;

  /// Always asleep after a tick: the monitor's state advances only on
  /// valid beats, and it registers as a watcher on both data wires, so
  /// any beat (or its drive-idle reset) wakes it for exactly the cycles
  /// where it would observe something.
  // xlint: idle-ok(pure observer; watcher wakes on both wires cover every observable cycle, pinned by wake_hazard_test)
  std::uint64_t next_event(std::uint64_t) const override {  // xlint: next-event-ok(reads cycle() only to timestamp violations; never self-scheduled — the wire watchers wake it)
    return sim::kNever;
  }

  const std::vector<std::string>& violations() const { return violations_; }
  bool clean() const { return violations_.empty(); }

  std::uint64_t req_beats() const { return req_beats_; }
  std::uint64_t resp_beats() const { return resp_beats_; }
  std::uint64_t transactions() const { return transactions_; }

 private:
  void flag(std::uint64_t cycle, const std::string& what);

  // xlint: signal-handle-ok(passive observer on master/slave-owned wires; Signal's second watcher slot exists for this)
  sim::Signal<sim::Beat<ReqBeat>>* req_wire_;
  // xlint: signal-handle-ok(passive observer, see req_wire_)
  sim::Signal<sim::Beat<RespBeat>>* resp_wire_;

  // Request-side burst tracking.
  bool in_burst_ = false;
  std::uint32_t expect_beat_ = 0;
  std::uint32_t burst_len_ = 0;
  Cmd burst_cmd_ = Cmd::kIdle;
  std::uint32_t burst_thread_ = 0;

  // Outstanding transactions per thread: (cmd, expected resp beats).
  std::map<std::uint32_t, std::vector<std::pair<Cmd, std::uint32_t>>>
      outstanding_;
  std::map<std::uint32_t, std::uint32_t> resp_progress_;

  std::vector<std::string> violations_;
  std::uint64_t req_beats_ = 0;
  std::uint64_t resp_beats_ = 0;
  std::uint64_t transactions_ = 0;
};

}  // namespace xpl::ocp
