#ifndef FRESHSEL_COMMON_CPU_DISPATCH_H_
#define FRESHSEL_COMMON_CPU_DISPATCH_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

/// Runtime CPU dispatch for the estimator's kernel families (DESIGN.md
/// §13): BitVector's popcount loops (common/bit_vector.h) and the float
/// kernels of common/simd.h.
///
/// Every build compiles each variant of a family that its architecture can
/// have: on x86-64 a portable one plus POPCNT (bit counts) or AVX2+FMA
/// (float kernels), each through a function `target` attribute, so the rest
/// of the program stays baseline x86-64. A family is a table of function
/// pointers per variant; the CPU is read once (`__builtin_cpu_supports`)
/// and each family then calls the fastest variant the CPU supports. On
/// aarch64 NEON is part of the baseline ISA and stays a compile-time choice.
///
/// A build configured with `FRESHSEL_SIMD=scalar` (which defines
/// FRESHSEL_SIMD_FORCE_SCALAR) enables no feature, so every family runs its
/// portable variant: the fallback stays tested on vector hardware.

namespace freshsel::cpu {

/// Instruction-set extensions a kernel variant may need (bit set).
enum Feature : std::uint32_t {
  kPopcnt = 1u << 0,   ///< x86 POPCNT.
  kAvx2Fma = 1u << 1,  ///< x86 AVX2 and FMA3, with OS support for YMM state.
  kNeon = 1u << 2,     ///< aarch64 Advanced SIMD (always set there).
};

/// Features of the CPU this process runs on, read on the first call
/// (thread-safe) and cached.
std::uint32_t HostFeatures();

/// Features the kernels may use: HostFeatures(), or none in a forced-scalar
/// build.
std::uint32_t EnabledFeatures();

/// One compiled variant of a kernel family.
template <typename Table>
struct Variant {
  std::uint32_t needs = 0;  ///< Feature bits the table's code uses.
  const Table* table = nullptr;
};

/// A kernel family: its variants, fastest first, the last one portable
/// (needing nothing). Constant-initialized, so it is usable from any static
/// initializer.
template <typename Table>
class Family {
 public:
  constexpr explicit Family(std::span<const Variant<Table>> variants)
      : variants_(variants) {}

  /// The fastest variant EnabledFeatures() allows. Picked once, by the
  /// first call from any thread; later calls cost one atomic load.
  const Table& Active() const {
    const Table* table = active_.load();
    if (table == nullptr) [[unlikely]] {
      std::call_once(once_, [this] {
        active_.store(Runnable(EnabledFeatures()).front());
      });
      table = active_.load();
    }
    return *table;
  }

  /// Every variant this CPU can run, fastest first; the dispatch tests
  /// compare each with the portable one.
  std::vector<const Table*> Supported() const {
    return Runnable(HostFeatures());
  }

 private:
  std::vector<const Table*> Runnable(std::uint32_t features) const {
    std::vector<const Table*> out;
    for (const Variant<Table>& variant : variants_) {
      if ((variant.needs & ~features) == 0) out.push_back(variant.table);
    }
    return out;
  }

  std::span<const Variant<Table>> variants_;
  mutable std::once_flag once_;
  mutable std::atomic<const Table*> active_{nullptr};
};

}  // namespace freshsel::cpu

#endif  // FRESHSEL_COMMON_CPU_DISPATCH_H_
