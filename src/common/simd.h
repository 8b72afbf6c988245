#ifndef FRESHSEL_COMMON_SIMD_H_
#define FRESHSEL_COMMON_SIMD_H_

#include <cstddef>
#include <vector>

/// SIMD kernels for the estimator hot loops (DESIGN.md §13).
///
/// The backend is chosen at run time: common/cpu_dispatch.h reads the CPU
/// once and every call below goes through the function table of the
/// fastest variant it supports. On x86-64 that is "avx2" (AVX2 + FMA
/// intrinsics, compiled through a function `target` attribute) when the
/// CPU has both, else "scalar"; on aarch64 it is "neon", a compile-time
/// choice since NEON is baseline there. A build configured with
/// `-DFRESHSEL_SIMD=scalar` forces "scalar" on any CPU, so the fallback
/// stays tested on vector hardware.
///
/// Two kinds of kernels, with different exactness contracts:
///
/// *Elementwise* kernels (`MulInPlace`, `MulInPlaceFloored`) perform one
/// IEEE operation per lane with no cross-lane interaction, so the
/// vectorized results are bit-identical to the scalar loop on every
/// backend. The exact estimation path uses them freely. The whole program
/// is compiled with `-ffp-contract=off`, so no `a * b + c` on that path is
/// fused into an FMA on a target that has one.
///
/// *Reduction* kernels (`DotOneMinus*`, `ScaledSumOneMinus*`) re-associate
/// the accumulation into vector lanes (4 partial sums + a horizontal fold
/// on AVX2), which perturbs the result by at most a few ulps per element
/// (|Δ| <= n · eps · Σ|terms|, the standard reordered-summation bound).
/// They are only used behind `QualityEstimator::Options::fast_math_kernels`
/// (CLI `--fast-math-kernels`); the default exact path keeps the original
/// scalar-order accumulation for bit-identity. `freshsel::simd::scalar`
/// always provides the reference implementations so the kernel-equivalence
/// tests can compare every backend against scalar order on any build.

namespace freshsel::simd {

// ---------------------------------------------------------------------------
// Scalar reference implementations. Exact scalar-order semantics; the
// kernel-equivalence suite measures every backend against these.

namespace scalar {

/// dst[i] *= src[i].
inline void MulInPlace(double* dst, const double* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] *= src[i];
}

/// dst[i] = max(dst[i] * src[i], floor). The running miss products use
/// this to stay out of the subnormal range (see kMissProductFloor in
/// quality_estimator.h).
inline void MulInPlaceFloored(double* dst, const double* src, std::size_t n,
                              double floor) {
  for (std::size_t i = 0; i < n; ++i) {
    const double p = dst[i] * src[i];
    dst[i] = p > floor ? p : floor;
  }
}

/// sum over i of w[i] * (1 - m[i]), accumulated in index order.
inline double DotOneMinus(const double* w, const double* m, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += w[i] * (1.0 - m[i]);
  return acc;
}

/// sum over i of w[i] * (1 - m[i] * c[i]), accumulated in index order
/// (the with-candidate delta form: c is the candidate's factor array).
inline double DotOneMinusMul(const double* w, const double* m,
                             const double* c, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += w[i] * (1.0 - m[i] * c[i]);
  return acc;
}

/// sum over i of scale * (1 - m[i]); `scale` multiplies per term, matching
/// the fused accumulation the exact path performs.
inline double ScaledSumOneMinus(double scale, const double* m,
                                std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += scale * (1.0 - m[i]);
  return acc;
}

/// sum over i of scale * (1 - m[i] * c[i]).
inline double ScaledSumOneMinusMul(double scale, const double* m,
                                   const double* c, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += scale * (1.0 - m[i] * c[i]);
  return acc;
}

}  // namespace scalar

// ---------------------------------------------------------------------------
// Dispatch.

/// One backend's kernels, each with the signature of its scalar reference.
struct Kernels {
  const char* name;  ///< "avx2", "neon" or "scalar".
  bool vectorized;
  void (*mul_in_place)(double* dst, const double* src, std::size_t n);
  void (*mul_in_place_floored)(double* dst, const double* src, std::size_t n,
                               double floor);
  double (*dot_one_minus)(const double* w, const double* m, std::size_t n);
  double (*dot_one_minus_mul)(const double* w, const double* m,
                              const double* c, std::size_t n);
  double (*scaled_sum_one_minus)(double scale, const double* m,
                                 std::size_t n);
  double (*scaled_sum_one_minus_mul)(double scale, const double* m,
                                     const double* c, std::size_t n);
};

/// The backend the calls below run: the fastest the CPU supports.
const Kernels& ActiveKernels();

/// Every backend this CPU can run, fastest first, "scalar" last.
std::vector<const Kernels*> SupportedKernels();

/// The active backend's name and whether it is vectorized, surfaced by the
/// benches and the CI gates so a run's provenance is visible in its
/// metrics.
inline const char* const kBackendName = ActiveKernels().name;
inline const bool kVectorized = ActiveKernels().vectorized;

inline void MulInPlace(double* dst, const double* src, std::size_t n) {
  ActiveKernels().mul_in_place(dst, src, n);
}

inline void MulInPlaceFloored(double* dst, const double* src, std::size_t n,
                              double floor) {
  ActiveKernels().mul_in_place_floored(dst, src, n, floor);
}

inline double DotOneMinus(const double* w, const double* m, std::size_t n) {
  return ActiveKernels().dot_one_minus(w, m, n);
}

inline double DotOneMinusMul(const double* w, const double* m,
                             const double* c, std::size_t n) {
  return ActiveKernels().dot_one_minus_mul(w, m, c, n);
}

inline double ScaledSumOneMinus(double scale, const double* m,
                                std::size_t n) {
  return ActiveKernels().scaled_sum_one_minus(scale, m, n);
}

inline double ScaledSumOneMinusMul(double scale, const double* m,
                                   const double* c, std::size_t n) {
  return ActiveKernels().scaled_sum_one_minus_mul(scale, m, c, n);
}

}  // namespace freshsel::simd

#endif  // FRESHSEL_COMMON_SIMD_H_
