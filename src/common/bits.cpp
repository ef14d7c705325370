#include "src/common/bits.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace xpl {

namespace {
constexpr std::size_t kWordBits = 64;
}  // namespace

void BitVector::allocate_zeroed() {
  storage_.heap = new std::uint64_t[num_words()]();
}

void BitVector::copy_heap(const BitVector& other) {
  storage_.heap = new std::uint64_t[num_words()];
  std::memcpy(storage_.heap, other.storage_.heap,
              num_words() * sizeof(std::uint64_t));
}

void BitVector::assign_slow(const BitVector& other) {
  if (!inline_storage() && !other.inline_storage() &&
      num_words() == other.num_words()) {
    // Same heap size: reuse the array.
    width_ = other.width_;
    std::memcpy(storage_.heap, other.storage_.heap,
                num_words() * sizeof(std::uint64_t));
    return;
  }
  if (!inline_storage()) {
    delete[] storage_.heap;
    reset_to_empty();
  }
  width_ = other.width_;
  if (other.inline_storage()) {
    storage_ = other.storage_;
  } else {
    copy_heap(other);
  }
}

void BitVector::move_assign_slow(BitVector& other) noexcept {
  if (!inline_storage()) delete[] storage_.heap;
  width_ = other.width_;
  storage_ = other.storage_;
  if (!other.inline_storage()) other.reset_to_empty();
}

BitVector::BitVector(std::size_t width, std::uint64_t value)
    : BitVector(width) {
  if (width < kWordBits) {
    require((value >> width) == 0,
            "BitVector: initial value wider than vector");
  }
  if (width != 0) word_data()[0] = value;
  mask_top();
}

void BitVector::mask_top() {
  const std::size_t rem = width_ % kWordBits;
  if (rem != 0) {
    word_data()[width_ / kWordBits] &= (std::uint64_t{1} << rem) - 1;
  }
}

bool BitVector::get(std::size_t pos) const {
  XPL_ASSERT(pos < width_);
  return (word_data()[pos / kWordBits] >> (pos % kWordBits)) & 1u;
}

void BitVector::set(std::size_t pos, bool value) {
  XPL_ASSERT(pos < width_);
  const std::uint64_t mask = std::uint64_t{1} << (pos % kWordBits);
  if (value) {
    word_data()[pos / kWordBits] |= mask;
  } else {
    word_data()[pos / kWordBits] &= ~mask;
  }
}

std::uint64_t BitVector::slice(std::size_t pos, std::size_t count) const {
  XPL_ASSERT(count <= kWordBits);
  XPL_ASSERT(pos + count <= width_);
  if (count == 0) return 0;
  const std::uint64_t* w = word_data();
  const std::size_t word = pos / kWordBits;
  const std::size_t off = pos % kWordBits;
  std::uint64_t value = w[word] >> off;
  if (off + count > kWordBits) {
    value |= w[word + 1] << (kWordBits - off);
  }
  if (count < kWordBits) {
    value &= (std::uint64_t{1} << count) - 1;
  }
  return value;
}

void BitVector::deposit(std::size_t pos, std::size_t count,
                        std::uint64_t value) {
  XPL_ASSERT(count <= kWordBits);
  XPL_ASSERT(pos + count <= width_);
  if (count == 0) return;
  if (count < kWordBits) {
    value &= (std::uint64_t{1} << count) - 1;
  }
  std::uint64_t* w = word_data();
  const std::size_t word = pos / kWordBits;
  const std::size_t off = pos % kWordBits;
  const std::size_t low_count = std::min(count, kWordBits - off);
  const std::uint64_t low_mask = (low_count == kWordBits)
                                     ? ~std::uint64_t{0}
                                     : (std::uint64_t{1} << low_count) - 1;
  w[word] = (w[word] & ~(low_mask << off)) | ((value & low_mask) << off);
  if (count > low_count) {
    const std::size_t high_count = count - low_count;
    const std::uint64_t high_mask = (std::uint64_t{1} << high_count) - 1;
    w[word + 1] =
        (w[word + 1] & ~high_mask) | ((value >> low_count) & high_mask);
  }
}

BitVector BitVector::subvector(std::size_t pos, std::size_t count) const {
  XPL_ASSERT(pos + count <= width_);
  BitVector out(count);
  if (count == 0) return out;
  if (pos % kWordBits == 0) {
    // Word-aligned extraction: straight word copy plus a top mask. This is
    // the packetizer's path (registers decompose on flit boundaries).
    std::memcpy(out.word_data(), word_data() + pos / kWordBits,
                out.num_words() * sizeof(std::uint64_t));
    out.mask_top();
    return out;
  }
  std::size_t done = 0;
  while (done < count) {
    const std::size_t chunk = std::min<std::size_t>(kWordBits, count - done);
    out.deposit(done, chunk, slice(pos + done, chunk));
    done += chunk;
  }
  return out;
}

void BitVector::deposit_vector(std::size_t pos, const BitVector& value) {
  XPL_ASSERT(pos + value.width() <= width_);
  if (value.width() == 0) return;
  if (pos % kWordBits == 0) {
    // Word-aligned deposit: copy whole words, finish with one partial
    // deposit for the value's top fragment.
    const std::size_t full = value.width() / kWordBits;
    std::memcpy(word_data() + pos / kWordBits, value.word_data(),
                full * sizeof(std::uint64_t));
    const std::size_t rem = value.width() % kWordBits;
    if (rem != 0) {
      deposit(pos + full * kWordBits, rem, value.word_data()[full]);
    }
    return;
  }
  std::size_t done = 0;
  while (done < value.width()) {
    const std::size_t chunk =
        std::min<std::size_t>(kWordBits, value.width() - done);
    deposit(pos + done, chunk, value.slice(done, chunk));
    done += chunk;
  }
}

void BitVector::resize(std::size_t width) {
  const std::size_t new_n = ceil_div(width, kWordBits);
  if (new_n <= kInlineWords) {
    if (!inline_storage()) {
      // Heap -> inline: bring the surviving words home.
      std::uint64_t* old = storage_.heap;
      storage_ = Storage{};
      for (std::size_t i = 0; i < new_n; ++i) {
        storage_.inline_words[i] = old[i];
      }
      delete[] old;
    }
    // Keep the invariant that unused inline words are zero, so a later
    // grow within the inline span exposes no stale bits.
    for (std::size_t i = new_n; i < kInlineWords; ++i) {
      storage_.inline_words[i] = 0;
    }
  } else if (new_n != num_words()) {
    // Inline -> heap, or a heap array of another size.
    std::uint64_t* next = new std::uint64_t[new_n]();
    std::memcpy(next, word_data(),
                std::min(num_words(), new_n) * sizeof(std::uint64_t));
    if (!inline_storage()) delete[] storage_.heap;
    storage_.heap = next;
  }
  width_ = width;
  mask_top();
}

std::uint64_t BitVector::to_u64() const {
  require(width_ <= kWordBits, "BitVector::to_u64: vector wider than 64 bits");
  return width_ == 0 ? 0 : word_data()[0];
}

std::size_t BitVector::popcount() const {
  const std::uint64_t* w = word_data();
  std::size_t count = 0;
  for (std::size_t i = 0, n = num_words(); i < n; ++i) {
    count += static_cast<std::size_t>(std::popcount(w[i]));
  }
  return count;
}

bool BitVector::parity() const { return (popcount() & 1u) != 0; }

bool BitVector::is_zero() const {
  const std::uint64_t* w = word_data();
  for (std::size_t i = 0, n = num_words(); i < n; ++i) {
    if (w[i] != 0) return false;
  }
  return true;
}

std::string BitVector::to_string() const {
  std::string s;
  s.reserve(width_);
  for (std::size_t i = width_; i-- > 0;) {
    s.push_back(get(i) ? '1' : '0');
  }
  return s;
}

bool BitVector::operator==(const BitVector& other) const {
  if (width_ != other.width_) return false;
  // Storage above width() is zero by invariant, so whole-word compare is
  // value compare.
  return width_ == 0 ||
         std::memcmp(word_data(), other.word_data(),
                     num_words() * sizeof(std::uint64_t)) == 0;
}

BitVector& BitVector::operator^=(const BitVector& other) {
  require(width_ == other.width_, "BitVector::operator^=: width mismatch");
  std::uint64_t* w = word_data();
  const std::uint64_t* o = other.word_data();
  for (std::size_t i = 0, n = num_words(); i < n; ++i) {
    w[i] ^= o[i];
  }
  return *this;
}

BitWriter& BitWriter::put(std::size_t count, std::uint64_t value) {
  require(pos_ + count <= bits_.width(), "BitWriter: field overflows vector");
  bits_.deposit(pos_, count, value);
  pos_ += count;
  return *this;
}

BitWriter& BitWriter::put_vector(const BitVector& value) {
  require(pos_ + value.width() <= bits_.width(),
          "BitWriter: vector field overflows");
  bits_.deposit_vector(pos_, value);
  pos_ += value.width();
  return *this;
}

std::uint64_t BitReader::get(std::size_t count) {
  require(pos_ + count <= bits_.width(), "BitReader: read past end");
  const std::uint64_t v = bits_.slice(pos_, count);
  pos_ += count;
  return v;
}

BitVector BitReader::get_vector(std::size_t count) {
  require(pos_ + count <= bits_.width(), "BitReader: read past end");
  BitVector v = bits_.subvector(pos_, count);
  pos_ += count;
  return v;
}

std::size_t bits_for(std::size_t n) {
  std::size_t bits = 1;
  while ((std::size_t{1} << bits) < n) ++bits;
  return bits;
}

}  // namespace xpl
