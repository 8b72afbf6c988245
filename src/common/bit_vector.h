#ifndef FRESHSEL_COMMON_BIT_VECTOR_H_
#define FRESHSEL_COMMON_BIT_VECTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace freshsel {

/// One variant of BitVector's popcount loops over raw 64-bit word arrays
/// (common/cpu_dispatch.h). Every variant returns the same counts; they
/// differ only in the instruction that counts a word.
struct PopcountKernels {
  const char* name;  ///< "scalar" (portable std::popcount) or "popcnt".
  std::size_t (*count)(const std::uint64_t* a, std::size_t words);
  std::size_t (*intersect_count)(const std::uint64_t* a,
                                 const std::uint64_t* b, std::size_t words);
  std::size_t (*union_count)(const std::uint64_t* a, const std::uint64_t* b,
                             std::size_t words);
  /// Popcount of the OR of `k` arrays.
  std::size_t (*union_count_of)(const std::uint64_t* const* arrays,
                                std::size_t k, std::size_t words);
};

/// The variant BitVector's counts run: the fastest the CPU supports.
const PopcountKernels& ActivePopcountKernels();

/// Every variant this CPU can run, fastest first, "scalar" last.
std::vector<const PopcountKernels*> SupportedPopcountKernels();

/// Fixed-width dynamic bitset used for the paper's per-source signatures
/// (Section 4.2.1): one bit per global entity id, with fast word-wise union
/// and popcount (ActivePopcountKernels()). All signatures over the same
/// entity dictionary share one width, so unions never resize.
class BitVector {
 public:
  BitVector() = default;
  /// All-zeros vector of `size` bits.
  explicit BitVector(std::size_t size);

  BitVector(const BitVector&) = default;
  BitVector& operator=(const BitVector&) = default;
  BitVector(BitVector&&) noexcept = default;
  BitVector& operator=(BitVector&&) noexcept = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pre: index < size(). Inline: signature compaction calls these once per
  /// entity bit.
  void Set(std::size_t index) {
    FRESHSEL_DCHECK(index < size_) << "bit " << index
        << " out of range for BitVector of size " << size_;
    words_[index / kBitsPerWord] |= std::uint64_t{1} << (index % kBitsPerWord);
  }
  void Reset(std::size_t index) {
    FRESHSEL_DCHECK(index < size_) << "bit " << index
        << " out of range for BitVector of size " << size_;
    words_[index / kBitsPerWord] &=
        ~(std::uint64_t{1} << (index % kBitsPerWord));
  }
  bool Test(std::size_t index) const {
    FRESHSEL_DCHECK(index < size_) << "bit " << index
        << " out of range for BitVector of size " << size_;
    return (words_[index / kBitsPerWord] >> (index % kBitsPerWord)) &
           std::uint64_t{1};
  }

  /// Sets all bits to zero, keeping the width.
  void Clear();

  /// Number of set bits.
  std::size_t Count() const;

  /// Word-wise OR with `other`. Pre: other.size() == size().
  void OrWith(const BitVector& other);

  /// Word-wise AND-NOT: clears every bit set in `other`.
  /// Pre: other.size() == size().
  void AndNotWith(const BitVector& other);

  /// |this AND other| without materializing the intersection.
  std::size_t IntersectCount(const BitVector& other) const;

  /// |this OR other| without materializing the union.
  std::size_t UnionCount(const BitVector& other) const;

  friend bool operator==(const BitVector& a, const BitVector& b) {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

  /// Invokes `visit(index)` for every set bit in ascending order. Word-level
  /// iteration: cost is proportional to the number of set bits, not the
  /// width.
  template <typename Visitor>
  void VisitSetBits(Visitor&& visit) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const int bit = CountTrailingZeros(word);
        visit(w * kBitsPerWord + static_cast<std::size_t>(bit));
        word &= word - 1;
      }
    }
  }

  /// |b1 OR b2 OR ...| over `vectors` (pointers, all same width; empty list
  /// gives 0).
  static std::size_t UnionCountOf(
      const std::vector<const BitVector*>& vectors);

  /// OR of `vectors` into a fresh BitVector of width `size` (pointers may be
  /// empty; all must match `size`).
  static BitVector UnionOf(const std::vector<const BitVector*>& vectors,
                           std::size_t size);

 private:
  static constexpr std::size_t kBitsPerWord = 64;
  static std::size_t WordCountFor(std::size_t bits) {
    return (bits + kBitsPerWord - 1) / kBitsPerWord;
  }
  static int CountTrailingZeros(std::uint64_t word) {
    return __builtin_ctzll(word);
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace freshsel

#endif  // FRESHSEL_COMMON_BIT_VECTOR_H_
