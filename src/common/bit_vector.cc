#include "common/bit_vector.h"

#include <bit>
#include <cstdint>

#include "common/check.h"
#include "common/cpu_dispatch.h"

namespace freshsel {
namespace {

// The word loops every variant runs. Always inlined, so the popcount in
// each compiles for the target of the variant function that holds it.

[[gnu::always_inline]] inline std::size_t CountWords(const std::uint64_t* a,
                                                     std::size_t words) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < words; ++i) total += std::popcount(a[i]);
  return total;
}

[[gnu::always_inline]] inline std::size_t IntersectWords(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t words) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < words; ++i) total += std::popcount(a[i] & b[i]);
  return total;
}

[[gnu::always_inline]] inline std::size_t UnionWords(const std::uint64_t* a,
                                                     const std::uint64_t* b,
                                                     std::size_t words) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < words; ++i) total += std::popcount(a[i] | b[i]);
  return total;
}

[[gnu::always_inline]] inline std::size_t UnionOfWords(
    const std::uint64_t* const* arrays, std::size_t k, std::size_t words) {
  std::size_t total = 0;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t acc = 0;
    for (std::size_t v = 0; v < k; ++v) acc |= arrays[v][w];
    total += std::popcount(acc);
  }
  return total;
}

std::size_t CountScalar(const std::uint64_t* a, std::size_t words) {
  return CountWords(a, words);
}
std::size_t IntersectScalar(const std::uint64_t* a, const std::uint64_t* b,
                            std::size_t words) {
  return IntersectWords(a, b, words);
}
std::size_t UnionScalar(const std::uint64_t* a, const std::uint64_t* b,
                        std::size_t words) {
  return UnionWords(a, b, words);
}
std::size_t UnionOfScalar(const std::uint64_t* const* arrays, std::size_t k,
                          std::size_t words) {
  return UnionOfWords(arrays, k, words);
}

constexpr PopcountKernels kScalarKernels = {
    "scalar", CountScalar, IntersectScalar, UnionScalar, UnionOfScalar};

#if defined(__x86_64__) || defined(__i386__)

[[gnu::target("popcnt")]] std::size_t CountPopcnt(const std::uint64_t* a,
                                                  std::size_t words) {
  return CountWords(a, words);
}
[[gnu::target("popcnt")]] std::size_t IntersectPopcnt(const std::uint64_t* a,
                                                      const std::uint64_t* b,
                                                      std::size_t words) {
  return IntersectWords(a, b, words);
}
[[gnu::target("popcnt")]] std::size_t UnionPopcnt(const std::uint64_t* a,
                                                  const std::uint64_t* b,
                                                  std::size_t words) {
  return UnionWords(a, b, words);
}
[[gnu::target("popcnt")]] std::size_t UnionOfPopcnt(
    const std::uint64_t* const* arrays, std::size_t k, std::size_t words) {
  return UnionOfWords(arrays, k, words);
}

constexpr PopcountKernels kPopcntKernels = {
    "popcnt", CountPopcnt, IntersectPopcnt, UnionPopcnt, UnionOfPopcnt};

#endif

constexpr cpu::Variant<PopcountKernels> kVariants[] = {
#if defined(__x86_64__) || defined(__i386__)
    {cpu::kPopcnt, &kPopcntKernels},
#endif
    {0, &kScalarKernels},
};

constinit const cpu::Family<PopcountKernels> kFamily{kVariants};

}  // namespace

const PopcountKernels& ActivePopcountKernels() { return kFamily.Active(); }

std::vector<const PopcountKernels*> SupportedPopcountKernels() {
  return kFamily.Supported();
}

BitVector::BitVector(std::size_t size)
    : size_(size), words_(WordCountFor(size), 0) {}

void BitVector::Clear() {
  for (auto& word : words_) word = 0;
}

std::size_t BitVector::Count() const {
  return ActivePopcountKernels().count(words_.data(), words_.size());
}

void BitVector::OrWith(const BitVector& other) {
  FRESHSEL_CHECK(other.size_ == size_)
      << "BitVector size mismatch: " << other.size_ << " vs " << size_;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] |= other.words_[i];
  }
}

void BitVector::AndNotWith(const BitVector& other) {
  FRESHSEL_CHECK(other.size_ == size_)
      << "BitVector size mismatch: " << other.size_ << " vs " << size_;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] &= ~other.words_[i];
  }
}

std::size_t BitVector::IntersectCount(const BitVector& other) const {
  FRESHSEL_CHECK(other.size_ == size_)
      << "BitVector size mismatch: " << other.size_ << " vs " << size_;
  return ActivePopcountKernels().intersect_count(
      words_.data(), other.words_.data(), words_.size());
}

std::size_t BitVector::UnionCount(const BitVector& other) const {
  FRESHSEL_CHECK(other.size_ == size_)
      << "BitVector size mismatch: " << other.size_ << " vs " << size_;
  return ActivePopcountKernels().union_count(
      words_.data(), other.words_.data(), words_.size());
}

std::size_t BitVector::UnionCountOf(
    const std::vector<const BitVector*>& vectors) {
  if (vectors.empty()) return 0;
  const std::size_t words = vectors[0]->words_.size();
  std::vector<const std::uint64_t*> arrays;
  arrays.reserve(vectors.size());
  for (const BitVector* v : vectors) {
    FRESHSEL_DCHECK(v->words_.size() == words)
        << "BitVector word-count mismatch in UnionCountOf";
    arrays.push_back(v->words_.data());
  }
  return ActivePopcountKernels().union_count_of(arrays.data(), arrays.size(),
                                                words);
}

BitVector BitVector::UnionOf(const std::vector<const BitVector*>& vectors,
                             std::size_t size) {
  BitVector out(size);
  for (const BitVector* v : vectors) {
    out.OrWith(*v);
  }
  return out;
}

}  // namespace freshsel
