// Flat 64-bit-block bitsets for the sharing engine. Two shapes:
//
//   * BlockBitset -- one row of bits (set availability, element occupancy);
//     intersection / subtraction are word-ANDs over contiguous storage.
//   * BitMatrix   -- a dense n x n adjacency (pair feasibility) stored as
//     one flat word array, so row intersections ("which k complete the
//     pair (i, j) into a candidate triple?") are word-ANDs too.
//
// Deliberately minimal: only the operations the enumeration and the
// set-packing solvers need, all inline and allocation-free after
// construction.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "util/contracts.h"

namespace o2o::packing {

using BitWord = std::uint64_t;
inline constexpr std::size_t kBitsPerWord = 64;

constexpr std::size_t bit_words(std::size_t bits) noexcept {
  return (bits + kBitsPerWord - 1) / kBitsPerWord;
}

/// One flat row of bits.
class BlockBitset {
 public:
  BlockBitset() = default;
  explicit BlockBitset(std::size_t bits) : bits_(bits), words_(bit_words(bits), 0) {}

  std::size_t bit_count() const noexcept { return bits_; }
  std::size_t word_count() const noexcept { return words_.size(); }
  BitWord* words() noexcept { return words_.data(); }
  const BitWord* words() const noexcept { return words_.data(); }

  bool test(std::size_t i) const noexcept {
    return (words_[i / kBitsPerWord] >> (i % kBitsPerWord)) & 1u;
  }
  void set(std::size_t i) noexcept { words_[i / kBitsPerWord] |= BitWord{1} << (i % kBitsPerWord); }
  void clear(std::size_t i) noexcept {
    words_[i / kBitsPerWord] &= ~(BitWord{1} << (i % kBitsPerWord));
  }
  void set_all() noexcept {
    if (words_.empty()) return;
    for (BitWord& w : words_) w = ~BitWord{0};
    // Mask the tail so popcounts and iteration never see ghost bits.
    const std::size_t tail = bits_ % kBitsPerWord;
    if (tail != 0) words_.back() = (BitWord{1} << tail) - 1;
  }
  void clear_all() noexcept {
    for (BitWord& w : words_) w = 0;
  }

  std::size_t count() const noexcept {
    std::size_t total = 0;
    for (BitWord w : words_) total += static_cast<std::size_t>(std::popcount(w));
    return total;
  }

  bool intersects(const BlockBitset& other) const noexcept {
    const std::size_t n = std::min(words_.size(), other.words_.size());
    for (std::size_t w = 0; w < n; ++w) {
      if (words_[w] & other.words_[w]) return true;
    }
    return false;
  }

  /// this &= ~other.
  void subtract(const BlockBitset& other) noexcept {
    const std::size_t n = std::min(words_.size(), other.words_.size());
    for (std::size_t w = 0; w < n; ++w) words_[w] &= ~other.words_[w];
  }

  /// Calls fn(index) for every set bit, ascending.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      BitWord word = words_[w];
      while (word != 0) {
        const int bit = std::countr_zero(word);
        fn(w * kBitsPerWord + static_cast<std::size_t>(bit));
        word &= word - 1;
      }
    }
  }

 private:
  std::size_t bits_ = 0;
  std::vector<BitWord> words_;
};

/// Dense n x n bit adjacency in one flat allocation (row-major).
class BitMatrix {
 public:
  BitMatrix() = default;
  explicit BitMatrix(std::size_t n)
      : n_(n), row_words_(bit_words(n)), words_(n * bit_words(n), 0) {}

  std::size_t size() const noexcept { return n_; }
  std::size_t row_words() const noexcept { return row_words_; }
  const BitWord* row(std::size_t i) const noexcept { return words_.data() + i * row_words_; }

  bool test(std::size_t i, std::size_t j) const noexcept {
    return (row(i)[j / kBitsPerWord] >> (j % kBitsPerWord)) & 1u;
  }
  void set(std::size_t i, std::size_t j) noexcept {
    words_[i * row_words_ + j / kBitsPerWord] |= BitWord{1} << (j % kBitsPerWord);
  }
  void set_symmetric(std::size_t i, std::size_t j) noexcept {
    set(i, j);
    set(j, i);
  }

  /// Calls fn(k) for every k > floor where both row(a) and row(b) have the
  /// bit, and so does `mask` (row_words() words) when it is non-null —
  /// the triple-completion query, one word-AND per 64 candidates.
  template <typename Fn>
  void for_each_common_above(std::size_t a, std::size_t b, std::size_t floor,
                             const BitWord* mask, Fn&& fn) const {
    const BitWord* ra = row(a);
    const BitWord* rb = row(b);
    std::size_t w = (floor + 1) / kBitsPerWord;
    for (; w < row_words_; ++w) {
      BitWord word = ra[w] & rb[w];
      if (mask != nullptr) word &= mask[w];
      if (w == (floor + 1) / kBitsPerWord) {
        const std::size_t shift = (floor + 1) % kBitsPerWord;
        if (shift != 0) word &= ~BitWord{0} << shift;
      }
      while (word != 0) {
        const int bit = std::countr_zero(word);
        fn(w * kBitsPerWord + static_cast<std::size_t>(bit));
        word &= word - 1;
      }
    }
  }

 private:
  std::size_t n_ = 0;
  std::size_t row_words_ = 0;
  std::vector<BitWord> words_;
};

}  // namespace o2o::packing
