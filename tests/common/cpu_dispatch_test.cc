#include "common/cpu_dispatch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/bit_vector.h"
#include "common/simd.h"

namespace freshsel::cpu {
namespace {

TEST(CpuDispatchTest, HostFeaturesAreStable) {
  EXPECT_EQ(HostFeatures(), HostFeatures());
#if defined(FRESHSEL_SIMD_FORCE_SCALAR)
  EXPECT_EQ(EnabledFeatures(), 0u);
#else
  EXPECT_EQ(EnabledFeatures(), HostFeatures());
#endif
}

// The families run the fastest variant the enabled features allow: the
// first supported one, or the portable one in a forced-scalar build.
TEST(CpuDispatchTest, FamiliesResolveToFastestEnabledVariant) {
  const std::vector<const simd::Kernels*> simd_variants =
      simd::SupportedKernels();
  const std::vector<const PopcountKernels*> popcount_variants =
      SupportedPopcountKernels();
#if defined(FRESHSEL_SIMD_FORCE_SCALAR)
  EXPECT_STREQ(simd::kBackendName, "scalar");
  EXPECT_FALSE(simd::kVectorized);
  EXPECT_STREQ(ActivePopcountKernels().name, "scalar");
  EXPECT_EQ(&simd::ActiveKernels(), simd_variants.back());
  EXPECT_EQ(&ActivePopcountKernels(), popcount_variants.back());
#else
  EXPECT_EQ(&simd::ActiveKernels(), simd_variants.front());
  EXPECT_EQ(&ActivePopcountKernels(), popcount_variants.front());
#endif
#if defined(__x86_64__) || defined(__i386__)
  EXPECT_EQ(popcount_variants.size(), (HostFeatures() & kPopcnt) ? 2u : 1u);
  EXPECT_EQ(simd_variants.size(), (HostFeatures() & kAvx2Fma) ? 2u : 1u);
#endif
}

struct Table {
  int id;
};
constexpr Table kFast = {1};
constexpr Table kPortable = {2};
// The fast variant needs POPCNT: it wins on a POPCNT host unless the build
// forces the scalar variants.
constexpr Variant<Table> kVariants[] = {
    {kPopcnt, &kFast},
    {0, &kPortable},
};

// A fresh family, first touched by 16 threads at once: every thread gets
// the same table (and TSan sees the one-time pick as race-free).
TEST(CpuDispatchTest, ConcurrentFirstTouchPicksOnce) {
  const Family<Table> family{kVariants};
  const Table* expected =
      (EnabledFeatures() & kPopcnt) != 0 ? &kFast : &kPortable;
  constexpr int kThreads = 16;
  std::vector<const Table*> seen(kThreads, nullptr);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      seen[t] = &family.Active();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(seen[t], expected) << t;
  EXPECT_EQ(family.Supported().back(), &kPortable);
}

}  // namespace
}  // namespace freshsel::cpu
