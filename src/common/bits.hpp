// Arbitrary-width bit vectors and field packing.
//
// The xpipes lite packet format is defined at the bit level: a ~50-bit
// header register is decomposed into flits of a configurable width
// (16..128 bits in the paper). BitVector models such registers exactly,
// independent of the host word size, so packetization round-trips at any
// flit width. Bit 0 is the least-significant bit.
//
// Storage is small-buffer optimized: vectors up to kInlineWords*64 bits
// live inline in the object with no heap allocation. The inline span is
// sized so that every flit payload of the paper's 16..128-bit sweep range
// *and* the CRC's protected view of such a flit (payload + 10 control
// bits, see packet/flit.hpp) stay inline — copying a flit through the
// simulated pipeline never allocates. The inline words and the heap
// pointer share one union and the word count is derived from the width,
// so an inline vector copies and moves as four words (width, three
// storage words) behind one branch; only wider vectors own a heap array.
#pragma once

#include <cstdint>
#include <string>

#include "src/common/error.hpp"

namespace xpl {

/// Fixed-width vector of bits with word-granular storage.
///
/// Invariants: width() is set at construction (or resize) and all storage
/// bits above width() are zero, so equality and hashing are value-based.
class BitVector {
 public:
  /// Widths up to kInlineWords*64 bits are stored inline (no heap).
  static constexpr std::size_t kInlineWords = 3;

  /// Creates an all-zero vector of `width` bits (width may be 0).
  explicit BitVector(std::size_t width = 0) : width_(width) {
    if (!inline_storage()) allocate_zeroed();
  }

  /// Creates a vector of `width` bits initialized from the low bits of
  /// `value`. Bits of `value` beyond `width` must be zero.
  BitVector(std::size_t width, std::uint64_t value);

  /// Value semantics. A moved-from vector stays valid: unchanged if it
  /// was inline, width 0 if it owned a heap array (the array moved).
  /// Every path where both sides are inline is a four-word copy.
  BitVector(const BitVector& other) : width_(other.width_) {
    if (other.inline_storage()) {
      storage_ = other.storage_;
    } else {
      copy_heap(other);
    }
  }
  BitVector(BitVector&& other) noexcept
      : width_(other.width_), storage_(other.storage_) {
    if (!other.inline_storage()) other.reset_to_empty();
  }
  BitVector& operator=(const BitVector& other) {
    if (inline_storage() && other.inline_storage()) {
      width_ = other.width_;
      storage_ = other.storage_;
    } else if (this != &other) {
      assign_slow(other);
    }
    return *this;
  }
  BitVector& operator=(BitVector&& other) noexcept {
    if (inline_storage() && other.inline_storage()) {
      width_ = other.width_;
      storage_ = other.storage_;
    } else if (this != &other) {
      move_assign_slow(other);
    }
    return *this;
  }
  ~BitVector() {
    if (!inline_storage()) delete[] storage_.heap;
  }

  std::size_t width() const { return width_; }

  /// Reads one bit. `pos` must be < width().
  bool get(std::size_t pos) const;

  /// Writes one bit. `pos` must be < width().
  void set(std::size_t pos, bool value);

  /// Extracts `count` bits starting at `pos` (count <= 64) as an integer.
  std::uint64_t slice(std::size_t pos, std::size_t count) const;

  /// Deposits the low `count` bits of `value` at `pos` (count <= 64).
  void deposit(std::size_t pos, std::size_t count, std::uint64_t value);

  /// Extracts an arbitrary-width field as a BitVector.
  BitVector subvector(std::size_t pos, std::size_t count) const;

  /// Deposits an entire BitVector at `pos`.
  void deposit_vector(std::size_t pos, const BitVector& value);

  /// Grows or shrinks to `width` bits; new bits are zero, dropped bits are
  /// discarded.
  void resize(std::size_t width);

  /// Value of the whole vector, which must be at most 64 bits wide.
  std::uint64_t to_u64() const;

  /// Number of set bits.
  std::size_t popcount() const;

  /// XOR-reduction of all bits (even parity bit).
  bool parity() const;

  /// All bits zero?
  bool is_zero() const;

  /// Binary string, most-significant bit first, e.g. "0101".
  std::string to_string() const;

  bool operator==(const BitVector& other) const;
  bool operator!=(const BitVector& other) const { return !(*this == other); }

  /// XORs `other` (same width) into this vector. Used by error injection.
  BitVector& operator^=(const BitVector& other);

  /// Raw storage words (read-only), little-endian word order.
  const std::uint64_t* word_data() const {
    return inline_storage() ? storage_.inline_words : storage_.heap;
  }
  std::size_t num_words() const { return (width_ + 63) / 64; }

 private:
  /// Storage while num_words() <= kInlineWords: the words themselves,
  /// with the words at and above num_words() kept zero so a later grow
  /// within the span exposes no stale bits. Otherwise an owned heap array
  /// of num_words() words. Trivially copyable, so copying the union copies
  /// whichever member is live.
  union Storage {
    std::uint64_t inline_words[kInlineWords];
    std::uint64_t* heap;
  };

  bool inline_storage() const { return width_ <= kInlineWords * 64; }
  std::uint64_t* word_data() {
    return inline_storage() ? storage_.inline_words : storage_.heap;
  }
  void mask_top();
  /// Points storage_ at a fresh zeroed array of num_words() words.
  void allocate_zeroed();
  /// Points storage_ at a fresh copy of `other`'s heap words (same
  /// width).
  void copy_heap(const BitVector& other);
  /// The assignments when either side lives on the heap (never self).
  void assign_slow(const BitVector& other);
  void move_assign_slow(BitVector& other) noexcept;
  /// Width 0, inline, all storage words zero (after the heap array moved
  /// out or was freed).
  void reset_to_empty() {
    width_ = 0;
    storage_ = Storage{};
  }

  std::size_t width_ = 0;
  Storage storage_{};
};

/// Incremental writer that appends fields LSB-first into a BitVector.
/// Mirrors how the NI fills the header register field by field.
class BitWriter {
 public:
  explicit BitWriter(std::size_t width) : bits_(width) {}

  /// Appends the low `count` bits of `value`. Throws if it would overflow.
  BitWriter& put(std::size_t count, std::uint64_t value);

  /// Appends a whole BitVector.
  BitWriter& put_vector(const BitVector& value);

  /// Bits written so far.
  std::size_t position() const { return pos_; }

  /// Finishes and returns the vector (remaining bits stay zero).
  const BitVector& bits() const { return bits_; }

 private:
  BitVector bits_;
  std::size_t pos_ = 0;
};

/// Incremental reader that consumes fields LSB-first from a BitVector.
class BitReader {
 public:
  explicit BitReader(const BitVector& bits) : bits_(bits) {}

  /// Reads `count` bits (<= 64) and advances.
  std::uint64_t get(std::size_t count);

  /// Reads an arbitrary-width field and advances.
  BitVector get_vector(std::size_t count);

  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return bits_.width() - pos_; }

 private:
  const BitVector& bits_;
  std::size_t pos_ = 0;
};

/// Number of bits needed to represent values 0..n-1 (at least 1).
std::size_t bits_for(std::size_t n);

/// ceil(a / b) for positive integers.
constexpr std::size_t ceil_div(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}

}  // namespace xpl
