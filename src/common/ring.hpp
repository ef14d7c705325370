// Fixed-capacity ring-buffer FIFO for the simulation hot path.
//
// Every cycle-accurate queue in the flit path (stream FIFOs, go-back-N
// retransmission buffers, switch input/output queues, NI packetizer
// output) holds a small, bounded number of elements and is pushed/popped
// once per cycle. std::deque pays a heap-allocated chunk map plus
// two-level indirection for that job; Ring is a power-of-two circular
// array with index masking — one contiguous allocation made once at
// construction, no per-element allocation ever after.
//
// Capacity is normally fixed up front via the constructor or reserve()
// (hot-path owners size it from their config: FIFO depth, protocol
// window, queue depth). If a push does find the buffer full, the ring
// doubles — growth is deterministic and amortized, so a mis-estimated
// bound degrades to a one-time reallocation instead of an overflow bug.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "src/common/error.hpp"

namespace xpl {

template <typename T>
class Ring {
 public:
  Ring() = default;
  explicit Ring(std::size_t capacity) { reserve(capacity); }

  /// Ensures room for at least `n` elements (rounds up to a power of
  /// two). Existing contents are preserved in order.
  void reserve(std::size_t n) {
    if (n > buf_.size()) regrow(pow2_at_least(n));
  }

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  std::size_t capacity() const { return buf_.size(); }

  T& front() {
    XPL_ASSERT(count_ > 0);
    return buf_[head_];
  }
  const T& front() const {
    XPL_ASSERT(count_ > 0);
    return buf_[head_];
  }

  T& back() {
    XPL_ASSERT(count_ > 0);
    return buf_[(head_ + count_ - 1) & mask_];
  }
  const T& back() const {
    XPL_ASSERT(count_ > 0);
    return buf_[(head_ + count_ - 1) & mask_];
  }

  /// FIFO-order access: [0] is the front (oldest) element.
  T& operator[](std::size_t i) {
    XPL_ASSERT(i < count_);
    return buf_[(head_ + i) & mask_];
  }
  const T& operator[](std::size_t i) const {
    XPL_ASSERT(i < count_);
    return buf_[(head_ + i) & mask_];
  }

  void push_back(const T& value) {
    if (count_ == buf_.size()) regrow(pow2_at_least(count_ + 1));
    buf_[(head_ + count_) & mask_] = value;
    ++count_;
  }
  void push_back(T&& value) {
    if (count_ == buf_.size()) regrow(pow2_at_least(count_ + 1));
    buf_[(head_ + count_) & mask_] = std::move(value);
    ++count_;
  }

  template <typename... Args>
  void emplace_back(Args&&... args) {
    push_back(T(std::forward<Args>(args)...));
  }

  /// Removes the front element. The slot keeps its moved-from/stale value
  /// until overwritten by a later push — callers that care about payload
  /// lifetime should std::move(front()) out first.
  void pop_front() {
    XPL_ASSERT(count_ > 0);
    head_ = (head_ + 1) & mask_;
    --count_;
  }

  void clear() {
    head_ = 0;
    count_ = 0;
  }

 private:
  static std::size_t pow2_at_least(std::size_t n) {
    std::size_t p = 4;
    while (p < n) p <<= 1;
    return p;
  }

  void regrow(std::size_t new_cap) {
    std::vector<T> next(new_cap);
    for (std::size_t i = 0; i < count_; ++i) {
      next[i] = std::move(buf_[(head_ + i) & mask_]);
    }
    buf_ = std::move(next);
    head_ = 0;
    mask_ = buf_.size() - 1;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace xpl
