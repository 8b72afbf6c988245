#include "common/bit_vector.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"

namespace freshsel {
namespace {

TEST(BitVectorTest, StartsEmpty) {
  BitVector v(100);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_EQ(v.Count(), 0u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_FALSE(v.Test(i));
}

TEST(BitVectorTest, SetResetTest) {
  BitVector v(130);  // Spans three words.
  v.Set(0);
  v.Set(63);
  v.Set(64);
  v.Set(129);
  EXPECT_TRUE(v.Test(0));
  EXPECT_TRUE(v.Test(63));
  EXPECT_TRUE(v.Test(64));
  EXPECT_TRUE(v.Test(129));
  EXPECT_FALSE(v.Test(1));
  EXPECT_EQ(v.Count(), 4u);
  v.Reset(63);
  EXPECT_FALSE(v.Test(63));
  EXPECT_EQ(v.Count(), 3u);
}

TEST(BitVectorTest, SetIsIdempotent) {
  BitVector v(10);
  v.Set(5);
  v.Set(5);
  EXPECT_EQ(v.Count(), 1u);
}

TEST(BitVectorTest, ClearKeepsWidth) {
  BitVector v(70);
  v.Set(69);
  v.Clear();
  EXPECT_EQ(v.size(), 70u);
  EXPECT_EQ(v.Count(), 0u);
}

TEST(BitVectorTest, OrWith) {
  BitVector a(100);
  BitVector b(100);
  a.Set(1);
  a.Set(50);
  b.Set(50);
  b.Set(99);
  a.OrWith(b);
  EXPECT_TRUE(a.Test(1));
  EXPECT_TRUE(a.Test(50));
  EXPECT_TRUE(a.Test(99));
  EXPECT_EQ(a.Count(), 3u);
}

TEST(BitVectorTest, AndNotWith) {
  BitVector a(80);
  BitVector b(80);
  a.Set(3);
  a.Set(4);
  b.Set(4);
  b.Set(5);
  a.AndNotWith(b);
  EXPECT_TRUE(a.Test(3));
  EXPECT_FALSE(a.Test(4));
  EXPECT_EQ(a.Count(), 1u);
}

TEST(BitVectorTest, IntersectAndUnionCounts) {
  BitVector a(200);
  BitVector b(200);
  for (std::size_t i = 0; i < 200; i += 2) a.Set(i);   // 100 evens.
  for (std::size_t i = 0; i < 200; i += 3) b.Set(i);   // 67 multiples of 3.
  // Multiples of 6 in [0, 200): 34.
  EXPECT_EQ(a.IntersectCount(b), 34u);
  EXPECT_EQ(a.UnionCount(b), 100u + 67u - 34u);
}

TEST(BitVectorTest, UnionCountOfManyMatchesMaterializedUnion) {
  Rng rng(123);
  const std::size_t width = 500;
  std::vector<BitVector> vecs(4, BitVector(width));
  for (auto& v : vecs) {
    for (int i = 0; i < 80; ++i) {
      v.Set(static_cast<std::size_t>(rng.NextBounded(width)));
    }
  }
  std::vector<const BitVector*> ptrs;
  for (const auto& v : vecs) ptrs.push_back(&v);
  BitVector merged = BitVector::UnionOf(ptrs, width);
  EXPECT_EQ(BitVector::UnionCountOf(ptrs), merged.Count());
}

TEST(BitVectorTest, UnionCountOfEmptyListIsZero) {
  EXPECT_EQ(BitVector::UnionCountOf({}), 0u);
}

TEST(BitVectorTest, VisitSetBitsAscendingAndComplete) {
  BitVector v(200);
  const std::vector<std::size_t> expected{0, 1, 63, 64, 127, 128, 199};
  for (std::size_t i : expected) v.Set(i);
  std::vector<std::size_t> visited;
  v.VisitSetBits([&](std::size_t i) { visited.push_back(i); });
  EXPECT_EQ(visited, expected);
}

TEST(BitVectorTest, VisitSetBitsEmpty) {
  BitVector v(100);
  std::size_t count = 0;
  v.VisitSetBits([&](std::size_t) { ++count; });
  EXPECT_EQ(count, 0u);
}

TEST(BitVectorTest, VisitSetBitsMatchesCountOnRandom) {
  Rng rng(321);
  BitVector v(1000);
  for (int i = 0; i < 300; ++i) {
    v.Set(static_cast<std::size_t>(rng.NextBounded(1000)));
  }
  std::size_t visited = 0;
  std::size_t prev = 0;
  bool first = true;
  v.VisitSetBits([&](std::size_t i) {
    EXPECT_TRUE(v.Test(i));
    if (!first) {
      EXPECT_GT(i, prev);
    }
    prev = i;
    first = false;
    ++visited;
  });
  EXPECT_EQ(visited, v.Count());
}

TEST(BitVectorTest, EqualityComparesContents) {
  BitVector a(64);
  BitVector b(64);
  EXPECT_TRUE(a == b);
  a.Set(10);
  EXPECT_FALSE(a == b);
  b.Set(10);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == BitVector(65));
}

// ---------------------------------------------------------------------------
// Popcount variants (common/cpu_dispatch.h): every variant this CPU can run
// must return exactly the counts of a bit-by-bit reference.

std::size_t NaivePopcount(std::uint64_t word) {
  std::size_t bits = 0;
  for (; word != 0; word >>= 1) bits += word & 1u;
  return bits;
}

// Word patterns with runs of zeros, ones and mixed words, so every variant
// sees all-zero, all-one and sparse words.
std::vector<std::uint64_t> RandomWords(Rng& rng, std::size_t n) {
  std::vector<std::uint64_t> out(n);
  for (std::uint64_t& word : out) {
    const double roll = rng.NextDouble();
    if (roll < 0.2) {
      word = 0;
    } else if (roll < 0.3) {
      word = ~std::uint64_t{0};
    } else if (roll < 0.5) {
      word = std::uint64_t{1} << rng.NextBounded(64);
    } else {
      word = rng.Next();
    }
  }
  return out;
}

TEST(BitVectorTest, SupportedPopcountVariantsEndWithScalar) {
  const std::vector<const PopcountKernels*> variants =
      SupportedPopcountKernels();
  ASSERT_FALSE(variants.empty());
  EXPECT_STREQ(variants.back()->name, "scalar");
}

TEST(BitVectorTest, PopcountVariantsMatchBitByBitReference) {
  // Word counts 0..9 plus longer arrays, including the BL signature width
  // (85,631 bits = 1,338 words).
  const std::size_t word_counts[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 63, 1338};
  for (const PopcountKernels* variant : SupportedPopcountKernels()) {
    Rng rng(41);
    for (std::size_t n : word_counts) {
      const std::vector<std::uint64_t> a = RandomWords(rng, n);
      const std::vector<std::uint64_t> b = RandomWords(rng, n);
      const std::vector<std::uint64_t> c = RandomWords(rng, n);
      std::size_t count = 0;
      std::size_t inter = 0;
      std::size_t uni = 0;
      std::size_t uni3 = 0;
      for (std::size_t i = 0; i < n; ++i) {
        count += NaivePopcount(a[i]);
        inter += NaivePopcount(a[i] & b[i]);
        uni += NaivePopcount(a[i] | b[i]);
        uni3 += NaivePopcount(a[i] | b[i] | c[i]);
      }
      const std::uint64_t* arrays[] = {a.data(), b.data(), c.data()};
      const std::string where =
          std::string(variant->name) + " words=" + std::to_string(n);
      EXPECT_EQ(variant->count(a.data(), n), count) << where;
      EXPECT_EQ(variant->intersect_count(a.data(), b.data(), n), inter)
          << where;
      EXPECT_EQ(variant->union_count(a.data(), b.data(), n), uni) << where;
      EXPECT_EQ(variant->union_count_of(arrays, 3, n), uni3) << where;
      EXPECT_EQ(variant->union_count_of(arrays, 1, n), count) << where;
      EXPECT_EQ(variant->union_count_of(arrays, 0, n), 0u) << where;
    }
  }
}

TEST(BitVectorTest, CountsAtWidthsNotMultipleOf64) {
  for (std::size_t width : {1u, 63u, 65u, 127u, 129u, 1000u, 85631u}) {
    Rng rng(width);
    BitVector a(width);
    BitVector b(width);
    for (std::size_t i = 0; i < width; ++i) {
      if (rng.NextDouble() < 0.3) a.Set(i);
      if (rng.NextDouble() < 0.6) b.Set(i);
    }
    // The last bit is set in one of them, so the tail word is exercised.
    a.Set(width - 1);
    std::size_t count = 0;
    std::size_t inter = 0;
    std::size_t uni = 0;
    for (std::size_t i = 0; i < width; ++i) {
      count += a.Test(i);
      inter += a.Test(i) && b.Test(i);
      uni += a.Test(i) || b.Test(i);
    }
    EXPECT_EQ(a.Count(), count) << width;
    EXPECT_EQ(a.IntersectCount(b), inter) << width;
    EXPECT_EQ(a.UnionCount(b), uni) << width;
    EXPECT_EQ(BitVector::UnionCountOf({&a, &b}), uni) << width;
  }
}

}  // namespace
}  // namespace freshsel
