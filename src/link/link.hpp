// Pipelined, possibly unreliable NoC link.
//
// xpipes lite is explicitly designed around pipelined links: wire delay on
// long inter-switch connections is absorbed by inserting relay registers,
// and the resulting links are allowed to be *unreliable* — the switch's
// ACK/nACK protocol (goback_n.hpp) recovers from in-flight corruption.
// This module models an N-stage register pipeline in each direction plus
// optional bit-error injection on the forward (flit) direction. The
// reverse (ACK) direction is modelled as reliable; see DESIGN.md.
#pragma once

#include <cstdint>

#include "src/common/ring.hpp"
#include "src/common/rng.hpp"
#include "src/packet/flit.hpp"
#include "src/sim/kernel.hpp"

namespace xpl::link {

/// Wire pair of one link direction endpoint: forward flits, reverse acks.
struct LinkWires {
  sim::Signal<FlitBeat>* fwd = nullptr;
  sim::Signal<AckBeat>* rev = nullptr;

  static LinkWires make(sim::Kernel& kernel) {
    return {&kernel.make_signal<FlitBeat>(), &kernel.make_signal<AckBeat>()};
  }
};

/// Bit-error injection on one flit traversal — the fault model the
/// ACK/nACK CRC is meant to cover. Each payload bit, then head, then tail
/// flips independently with probability `bit_error_rate`; with the same
/// probability one uniformly drawn bit of the 8-bit seqno flips. Draws
/// `rng` exactly as that many successive Rng::chance calls would (plus the
/// seqno bit pick), so PipelinedLink and CutLink halves seeded alike
/// corrupt the same beats identically. Returns true if any bit flipped.
bool inject_bit_errors(Flit& flit, double bit_error_rate, Rng& rng);

/// One unidirectional link: `upstream` wires face the sender, `downstream`
/// wires face the receiver. With `stages == 0` the link degenerates to the
/// single kernel register between the endpoints (minimum 1 cycle); each
/// additional stage adds one cycle of forward and one of reverse latency.
class PipelinedLink : public sim::Module {
 public:
  struct Config {
    std::size_t stages = 0;        ///< extra relay registers per direction
    double bit_error_rate = 0.0;   ///< per-bit flip probability per traversal
    std::uint64_t seed = 1;        ///< error-injection RNG seed
  };

  PipelinedLink(std::string name, const LinkWires& upstream,
                const LinkWires& downstream, const Config& config);

  void tick(sim::Kernel& kernel) override;

  /// Earliest in-flight due cycle. A link busy only because beats are
  /// mid-pipe sleeps until the first one emerges; dirty output wires and
  /// valid input wires pin it to the next cycle. With no beat in flight
  /// and both output wires already driven idle it sleeps until an input
  /// wire is written (the link watches both).
  std::uint64_t next_event(std::uint64_t now) const override;

  /// Flits that traversed the link (including retransmissions).
  std::uint64_t flits_carried() const { return flits_carried_; }
  /// Flits corrupted by error injection.
  std::uint64_t flits_corrupted() const { return flits_corrupted_; }
  /// Utilization numerator for link-load statistics.
  std::uint64_t busy_cycles() const { return flits_carried_; }

  const Config& config() const { return config_; }

 private:
  /// A beat in flight: entered the pipe at cycle (due - stages), emerges
  /// on the output wire at cycle `due`. Replaces the per-stage shift
  /// registers: invalid stage slots carried no information, so only the
  /// valid beats are stored, each with its emergence cycle. Dues are
  /// strictly increasing (one wire beat per cycle), so delivery is a
  /// front-of-queue test and the queue doubles as the next_event source.
  template <typename Beat>
  struct InFlight {
    std::uint64_t due = 0;
    Beat beat;
  };

  Config config_;
  LinkWires up_;
  LinkWires down_;
  /// Valid beats mid-pipe, at most one per stage: reserved to stages + 1
  /// at construction, and never allocated at all for a stage-0 link.
  Ring<InFlight<FlitBeat>> fwd_q_;  ///< forward direction
  Ring<InFlight<AckBeat>> rev_q_;   ///< reverse direction
  bool fwd_out_dirty_ = false;  ///< downstream fwd wire holds a valid beat
  bool rev_out_dirty_ = false;  ///< upstream rev wire holds a valid beat
  Rng rng_;
  std::uint64_t flits_carried_ = 0;
  std::uint64_t flits_corrupted_ = 0;
};

}  // namespace xpl::link
