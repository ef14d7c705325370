// Credit-based registered streaming between modules.
//
// Under the kernel's fully registered discipline (kernel.hpp) a classic
// combinational valid/accept handshake cannot be expressed, so point-to-
// point module interfaces that are not network links (OCP sockets, switch
// internals in tests) use credit flow control: the consumer owns a FIFO of
// known capacity, the producer holds a credit counter initialized to that
// capacity, every data beat spends a credit and every FIFO pop returns one
// over a credit wire. This is standard practice in synthesizable on-chip
// interfaces and costs one counter per side.
//
// Usage per cycle inside Module::tick():
//   producer: begin_cycle(); if (can_send() && ...) send(v); end_cycle();
//   consumer: begin_cycle(); ... front()/pop() ...; end_cycle();
#pragma once

#include <cstdint>

#include "src/common/error.hpp"
#include "src/common/ring.hpp"
#include "src/sim/kernel.hpp"

namespace xpl::sim {

/// Valid-qualified payload carried on a stream's data wire.
template <typename T>
struct Beat {
  bool valid = false;
  T value{};
};

template <typename T>
inline void hash_append(Digest& d, const Beat<T>& b) {
  d.mix(b.valid ? 1u : 0u);
  if (b.valid) hash_append(d, b.value);
}

/// The two wires of a stream, allocated from a Kernel.
template <typename T>
struct StreamWires {
  Signal<Beat<T>>* data = nullptr;
  Signal<std::uint8_t>* credit = nullptr;

  static StreamWires<T> make(Kernel& kernel) {
    return {&kernel.make_signal<Beat<T>>(), &kernel.make_signal<std::uint8_t>()};
  }
};

/// Producer endpoint; embed by value in the sending module.
template <typename T>
class StreamProducer {
 public:
  StreamProducer() = default;
  StreamProducer(StreamWires<T> wires, std::size_t initial_credits)
      : wires_(wires), credits_(initial_credits) {}

  /// Reads returned credits. Call first in tick().
  void begin_cycle() {
    XPL_ASSERT(wires_.data != nullptr);
    credits_ += wires_.credit->read();
    sent_this_cycle_ = false;
  }

  bool can_send() const { return credits_ > 0 && !sent_this_cycle_; }

  /// Sends one beat (at most one per cycle); requires can_send().
  void send(T value) {
    XPL_ASSERT(can_send());
    wires_.data->write(Beat<T>{true, std::move(value)});
    data_dirty_ = true;
    --credits_;
    sent_this_cycle_ = true;
  }

  /// Drives the data wire idle if nothing was sent. Write-on-change: the
  /// reset beat is written once after the last valid beat, then the wire
  /// already holds it and the write is skipped. Call last in tick().
  void end_cycle() {
    if (!sent_this_cycle_ && data_dirty_) {
      wires_.data->write(Beat<T>{});
      data_dirty_ = false;
    }
  }

  /// Wakes `owner` whenever credits are returned on this stream.
  void watch(Module& owner) { wires_.credit->watch(owner); }

  /// Endpoint part of the owner's sleep claim: nothing left to
  /// drive on the data wire and no credits arriving that a tick would
  /// need to absorb.
  bool gate_idle() const {
    return !data_dirty_ && wires_.credit->read() == 0;
  }

  std::size_t credits() const { return credits_; }

 private:
  StreamWires<T> wires_{};
  std::size_t credits_ = 0;
  bool sent_this_cycle_ = false;
  bool data_dirty_ = false;  ///< data wire still holds a valid beat
};

/// Consumer endpoint with its receive FIFO; embed by value.
template <typename T>
class StreamConsumer {
 public:
  StreamConsumer() = default;
  StreamConsumer(StreamWires<T> wires, std::size_t capacity)
      : wires_(wires), capacity_(capacity), fifo_(capacity) {}

  /// Latches an arriving beat into the FIFO. Call first in tick().
  void begin_cycle() {
    XPL_ASSERT(wires_.data != nullptr);
    const Beat<T>& beat = wires_.data->read();
    if (beat.valid) {
      // Credit protocol guarantees space; overflow means a protocol bug.
      XPL_ASSERT(fifo_.size() < capacity_);
      fifo_.push_back(beat.value);
    }
    freed_this_cycle_ = 0;
  }

  bool empty() const { return fifo_.empty(); }
  std::size_t size() const { return fifo_.size(); }
  const T& front() const {
    XPL_ASSERT(!fifo_.empty());
    return fifo_.front();
  }

  /// Removes the front element and stages a credit return.
  void pop() {
    XPL_ASSERT(!fifo_.empty());
    fifo_.pop_front();
    ++freed_this_cycle_;
  }

  /// Writes the credit wire. Write-on-change: a zero credit return is
  /// written once after the last nonzero one. Call last in tick().
  void end_cycle() {
    if (freed_this_cycle_ != 0) {
      wires_.credit->write(freed_this_cycle_);
      credit_dirty_ = true;
    } else if (credit_dirty_) {
      wires_.credit->write(0);
      credit_dirty_ = false;
    }
  }

  /// Wakes `owner` whenever a beat arrives on this stream.
  void watch(Module& owner) { wires_.data->watch(owner); }

  /// Endpoint part of the owner's sleep claim: no beat arriving
  /// and no credit return left to drive. FIFO occupancy is deliberately
  /// excluded — whether buffered beats still need processing is the
  /// owning module's concern.
  bool gate_idle() const {
    return !credit_dirty_ && !wires_.data->read().valid;
  }

  std::size_t capacity() const { return capacity_; }

 private:
  StreamWires<T> wires_{};
  std::size_t capacity_ = 0;
  Ring<T> fifo_;  ///< capacity fixed at construction; never reallocates
  std::uint8_t freed_this_cycle_ = 0;
  bool credit_dirty_ = false;  ///< credit wire still holds a nonzero value
};

}  // namespace xpl::sim
