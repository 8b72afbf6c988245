#include "common/cpu_dispatch.h"

#include <cstdint>

namespace freshsel::cpu {
namespace {

std::uint32_t DetectFeatures() {
  std::uint32_t features = 0;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("popcnt")) features |= kPopcnt;
  // libgcc and compiler-rt report avx2 only when the OS saves YMM state.
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    features |= kAvx2Fma;
  }
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
  features |= kNeon;
#endif
  return features;
}

}  // namespace

std::uint32_t HostFeatures() {
  static const std::uint32_t features = DetectFeatures();
  return features;
}

std::uint32_t EnabledFeatures() {
#if defined(FRESHSEL_SIMD_FORCE_SCALAR)
  return 0;
#else
  return HostFeatures();
#endif
}

}  // namespace freshsel::cpu
