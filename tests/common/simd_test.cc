#include "common/simd.h"

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace freshsel::simd {
namespace {

// Randomized arrays in the miss-product regime: factors in (0, 1], some
// exactly 1.0 (no-op sources), some tiny (high-effectiveness sources).
// Sizes straddle the vector width so the remainder lanes are exercised
// (AVX2 folds 4 doubles, NEON 2; sizes 0..9 cover every remainder).
std::vector<double> RandomFactors(Rng& rng, std::size_t n) {
  std::vector<double> out(n);
  for (double& v : out) {
    const double roll = rng.NextDouble();
    if (roll < 0.1) {
      v = 1.0;
    } else if (roll < 0.25) {
      v = rng.UniformDouble(1e-140, 1e-120);  // Underflow-provoking.
    } else {
      v = rng.UniformDouble(0.05, 1.0);
    }
  }
  return out;
}

std::vector<double> RandomWeights(Rng& rng, std::size_t n) {
  std::vector<double> out(n);
  for (double& v : out) v = rng.UniformDouble(0.0, 3.0);
  return out;
}

constexpr std::size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 64, 430};
constexpr double kFloor = 1e-250;

TEST(SimdTest, BackendNameIsKnown) {
  const std::string name = kBackendName;
  EXPECT_TRUE(name == "avx2" || name == "neon" || name == "scalar") << name;
  EXPECT_EQ(kBackendName, ActiveKernels().name);
  EXPECT_EQ(kVectorized, name != "scalar");
}

// Every backend this CPU can run is checked, not only the active one, so a
// host with AVX2 tests the AVX2 and the scalar table in one run.
TEST(SimdTest, SupportedBackendsEndWithScalar) {
  const std::vector<const Kernels*> backends = SupportedKernels();
  ASSERT_FALSE(backends.empty());
  EXPECT_STREQ(backends.back()->name, "scalar");
  EXPECT_FALSE(backends.back()->vectorized);
}

// Elementwise kernels carry a bit-identity contract: every backend must
// match the scalar reference exactly, including remainder lanes.
TEST(SimdTest, MulInPlaceBitIdenticalToScalar) {
  for (const Kernels* backend : SupportedKernels()) {
    Rng rng(7);
    for (std::size_t n : kSizes) {
      for (int rep = 0; rep < 8; ++rep) {
        std::vector<double> dst = RandomFactors(rng, n);
        const std::vector<double> src = RandomFactors(rng, n);
        std::vector<double> ref = dst;
        backend->mul_in_place(dst.data(), src.data(), n);
        scalar::MulInPlace(ref.data(), src.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(dst[i], ref[i])
              << backend->name << " n=" << n << " i=" << i;
        }
      }
    }
  }
}

TEST(SimdTest, MulInPlaceFlooredBitIdenticalToScalar) {
  for (const Kernels* backend : SupportedKernels()) {
    Rng rng(11);
    for (std::size_t n : kSizes) {
      for (int rep = 0; rep < 8; ++rep) {
        std::vector<double> dst = RandomFactors(rng, n);
        const std::vector<double> src = RandomFactors(rng, n);
        std::vector<double> ref = dst;
        backend->mul_in_place_floored(dst.data(), src.data(), n, kFloor);
        scalar::MulInPlaceFloored(ref.data(), src.data(), n, kFloor);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(dst[i], ref[i])
              << backend->name << " n=" << n << " i=" << i;
          EXPECT_GE(dst[i], kFloor);
        }
      }
    }
  }
}

TEST(SimdTest, MulInPlaceFlooredClampsUnderflow) {
  // Repeated tiny factors would denormalize and flush to zero without the
  // floor; with it the product parks exactly at the floor.
  for (const Kernels* backend : SupportedKernels()) {
    std::vector<double> dst(5, 1.0);
    std::vector<double> tiny(5, 1e-130);
    for (int pushes = 0; pushes < 4; ++pushes) {
      backend->mul_in_place_floored(dst.data(), tiny.data(), dst.size(),
                                    kFloor);
    }
    for (double v : dst) EXPECT_EQ(v, kFloor) << backend->name;
  }
}

// Reduction kernels re-associate the accumulation, so the contract is a
// bounded deviation from scalar order, not bit-identity: |delta| <=
// n * eps * sum(|terms|) is the standard reordered-summation bound; a
// slack factor of 8 keeps the assertion robust to FMA contraction.
void ExpectWithinReassociationBound(double got, double want,
                                    double term_magnitude_sum,
                                    std::size_t n) {
  const double eps = std::numeric_limits<double>::epsilon();
  const double bound =
      8.0 * static_cast<double>(n + 1) * eps * (term_magnitude_sum + 1.0);
  EXPECT_NEAR(got, want, bound) << "n=" << n;
}

TEST(SimdTest, DotOneMinusWithinBoundOfScalar) {
  for (const Kernels* backend : SupportedKernels()) {
    SCOPED_TRACE(backend->name);
    Rng rng(13);
    for (std::size_t n : kSizes) {
      const std::vector<double> w = RandomWeights(rng, n);
      const std::vector<double> m = RandomFactors(rng, n);
      const double got = backend->dot_one_minus(w.data(), m.data(), n);
      const double want = scalar::DotOneMinus(w.data(), m.data(), n);
      double mag = 0.0;
      for (std::size_t i = 0; i < n; ++i) mag += std::abs(w[i]);
      ExpectWithinReassociationBound(got, want, mag, n);
    }
  }
}

TEST(SimdTest, DotOneMinusMulWithinBoundOfScalar) {
  for (const Kernels* backend : SupportedKernels()) {
    SCOPED_TRACE(backend->name);
    Rng rng(17);
    for (std::size_t n : kSizes) {
      const std::vector<double> w = RandomWeights(rng, n);
      const std::vector<double> m = RandomFactors(rng, n);
      const std::vector<double> c = RandomFactors(rng, n);
      const double got =
          backend->dot_one_minus_mul(w.data(), m.data(), c.data(), n);
      const double want =
          scalar::DotOneMinusMul(w.data(), m.data(), c.data(), n);
      double mag = 0.0;
      for (std::size_t i = 0; i < n; ++i) mag += std::abs(w[i]);
      ExpectWithinReassociationBound(got, want, mag, n);
    }
  }
}

TEST(SimdTest, ScaledSumOneMinusWithinBoundOfScalar) {
  for (const Kernels* backend : SupportedKernels()) {
    SCOPED_TRACE(backend->name);
    Rng rng(19);
    for (std::size_t n : kSizes) {
      const std::vector<double> m = RandomFactors(rng, n);
      const double scale = 1.7;
      const double got = backend->scaled_sum_one_minus(scale, m.data(), n);
      const double want = scalar::ScaledSumOneMinus(scale, m.data(), n);
      ExpectWithinReassociationBound(got, want,
                                     scale * static_cast<double>(n), n);
    }
  }
}

TEST(SimdTest, ScaledSumOneMinusMulWithinBoundOfScalar) {
  for (const Kernels* backend : SupportedKernels()) {
    SCOPED_TRACE(backend->name);
    Rng rng(23);
    for (std::size_t n : kSizes) {
      const std::vector<double> m = RandomFactors(rng, n);
      const std::vector<double> c = RandomFactors(rng, n);
      const double scale = 0.42;
      const double got =
          backend->scaled_sum_one_minus_mul(scale, m.data(), c.data(), n);
      const double want =
          scalar::ScaledSumOneMinusMul(scale, m.data(), c.data(), n);
      ExpectWithinReassociationBound(got, want,
                                     scale * static_cast<double>(n), n);
    }
  }
}

// The scalar reference itself: hand-checked values so the reference the
// whole equivalence suite leans on is itself pinned.
TEST(SimdTest, ScalarReferenceHandChecked) {
  const double w[] = {2.0, 3.0};
  const double m[] = {0.5, 0.25};
  const double c[] = {0.5, 0.5};
  EXPECT_DOUBLE_EQ(scalar::DotOneMinus(w, m, 2), 2.0 * 0.5 + 3.0 * 0.75);
  EXPECT_DOUBLE_EQ(scalar::DotOneMinusMul(w, m, c, 2),
                   2.0 * (1.0 - 0.25) + 3.0 * (1.0 - 0.125));
  EXPECT_DOUBLE_EQ(scalar::ScaledSumOneMinus(2.0, m, 2),
                   2.0 * 0.5 + 2.0 * 0.75);
  EXPECT_DOUBLE_EQ(scalar::ScaledSumOneMinusMul(2.0, m, c, 2),
                   2.0 * 0.75 + 2.0 * 0.875);
  double dst[] = {0.5, 1e-300};
  const double src[] = {0.5, 0.5};
  scalar::MulInPlaceFloored(dst, src, 2, kFloor);
  EXPECT_EQ(dst[0], 0.25);
  EXPECT_EQ(dst[1], kFloor);
}

}  // namespace
}  // namespace freshsel::simd
