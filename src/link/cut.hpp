// Cross-partition replacement for PipelinedLink (DESIGN.md §10).
//
// When a topology link's endpoints land in different kernel partitions,
// the link cannot stay a single module: it would read a signal committed
// by one partition and write a signal committed by another, racing the
// concurrent epochs. A CutLink splits it into two half-modules connected
// by double-buffered mailboxes:
//
//  * the Sender half lives in the upstream switch's partition. It
//    samples the upstream forward wire's *staged* value in the same
//    cycle it is written (halves register in the link slot, after every
//    module of their partition that can drive the wire) and stages a
//    {due = now + 1 + stages, beat} record; it also replays due ack
//    records onto the upstream reverse wire.
//  * the Receiver half lives in the downstream switch's partition,
//    replays due flit records onto the downstream forward wire, and
//    samples the downstream reverse (ack) wire symmetrically.
//
// Records cross between the halves only in exchange(), which the kernel
// calls single-threaded between epochs in registration order. Because
// upstream drives follow the write-on-change discipline (every valid
// beat written, plus one trailing idle write), the record stream is
// exactly the upstream write-event stream, and replaying it at the due
// cycles reproduces the uncut link's downstream write set — values,
// write cycles, and wake pattern — bit-exactly. Error injection draws
// the same RNG sequence in the same beat order as PipelinedLink, so
// corrupted payloads match too.
//
// The conservative window bound: a record sampled at cycle t is due at
// t + 1 + stages, so every record staged during an epoch of k cycles is
// due at or after the next epoch's start iff k <= 1 + stages. The
// kernel's lookahead is therefore capped at 1 + min(stages) over all
// cuts (Network::Network computes this).
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "src/common/rng.hpp"
#include "src/link/link.hpp"
#include "src/packet/flit.hpp"
#include "src/sim/kernel.hpp"

namespace xpl::link {

/// A pipelined link cut at a partition boundary: two half-modules plus
/// the mailboxes between them. Statistics match PipelinedLink's.
class CutLink final : public sim::CutChannel {
 public:
  using Config = PipelinedLink::Config;

  CutLink(const std::string& name, const LinkWires& upstream,
          const LinkWires& downstream, const Config& config);

  /// Upstream half — register with the *from* switch's partition.
  sim::Module& sender_module() { return sender_; }
  /// Downstream half — register with the *to* switch's partition.
  sim::Module& receiver_module() { return receiver_; }

  void exchange() override;
  std::uint64_t flits_exchanged() const override {
    return flits_exchanged_;
  }

  /// Flits that traversed the link (including retransmissions).
  std::uint64_t flits_carried() const { return flits_carried_; }
  /// Flits corrupted by error injection.
  std::uint64_t flits_corrupted() const { return flits_corrupted_; }
  /// Utilization numerator for link-load statistics.
  std::uint64_t busy_cycles() const { return flits_carried_; }

  const std::string& name() const { return name_; }
  const Config& config() const { return config_; }

 private:
  // Thread discipline: during an epoch the Sender half touches only
  // {up_, fwd_outbox_, rev_inbox_, rev_out_dirty_, rng_, flit counters}
  // and the Receiver half only {down_, fwd_inbox_, rev_outbox_,
  // fwd_out_dirty_}; exchange() (single-threaded, at the barrier) is the
  // only code that moves records between the two sets.

  struct FlitRecord {
    std::uint64_t due = 0;  ///< cycle the beat appears downstream
    FlitBeat beat;
  };
  struct AckRecord {
    std::uint64_t due = 0;
    AckBeat beat;
  };

  class Sender final : public sim::Module {
   public:
    Sender(CutLink& owner, std::string name)
        : sim::Module(std::move(name)), owner_(owner) {}
    void tick(sim::Kernel& kernel) override { owner_.tick_sender(kernel); }
    std::uint64_t next_event(std::uint64_t now) const override {
      return owner_.sender_next_event(now);
    }

   private:
    CutLink& owner_;
  };

  class Receiver final : public sim::Module {
   public:
    Receiver(CutLink& owner, std::string name)
        : sim::Module(std::move(name)), owner_(owner) {}
    void tick(sim::Kernel& kernel) override {
      owner_.tick_receiver(kernel);
    }
    std::uint64_t next_event(std::uint64_t now) const override {
      return owner_.receiver_next_event(now);
    }

   private:
    CutLink& owner_;
  };

  void tick_sender(sim::Kernel& kernel);
  void tick_receiver(sim::Kernel& kernel);
  std::uint64_t sender_next_event(std::uint64_t now) const;
  std::uint64_t receiver_next_event(std::uint64_t now) const;

  std::string name_;
  Config config_;
  LinkWires up_;
  LinkWires down_;
  std::deque<FlitRecord> fwd_outbox_;  ///< staged this epoch (sender side)
  std::deque<FlitRecord> fwd_inbox_;   ///< awaiting delivery (receiver side)
  std::deque<AckRecord> rev_outbox_;   ///< staged this epoch (receiver side)
  std::deque<AckRecord> rev_inbox_;    ///< awaiting delivery (sender side)
  bool fwd_out_dirty_ = false;  ///< downstream fwd wire holds a valid beat
  bool rev_out_dirty_ = false;  ///< upstream rev wire holds a valid beat
  Rng rng_;
  std::uint64_t flits_carried_ = 0;
  std::uint64_t flits_corrupted_ = 0;
  std::uint64_t flits_exchanged_ = 0;
  Sender sender_;
  Receiver receiver_;
};

}  // namespace xpl::link
