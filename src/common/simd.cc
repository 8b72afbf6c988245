#include "common/simd.h"

#include "common/cpu_dispatch.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define FRESHSEL_SIMD_HAVE_AVX2 1
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#include <arm_neon.h>
#define FRESHSEL_SIMD_HAVE_NEON 1
#endif

namespace freshsel::simd {
namespace {

constexpr Kernels kScalarKernels = {
    "scalar",
    false,
    scalar::MulInPlace,
    scalar::MulInPlaceFloored,
    scalar::DotOneMinus,
    scalar::DotOneMinusMul,
    scalar::ScaledSumOneMinus,
    scalar::ScaledSumOneMinusMul,
};

#if defined(FRESHSEL_SIMD_HAVE_AVX2)

// ---------------------------------------------------------------------------
// AVX2 backend: 4 doubles per operation, FMA accumulation. Compiled for
// AVX2 + FMA through the target attribute and only called when the CPU has
// both.

#define FRESHSEL_AVX2 [[gnu::target("avx2,fma")]]

FRESHSEL_AVX2 inline double HorizontalSum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d sum2 = _mm_add_pd(lo, hi);
  const __m128d swapped = _mm_unpackhi_pd(sum2, sum2);
  return _mm_cvtsd_f64(_mm_add_sd(sum2, swapped));
}

FRESHSEL_AVX2 void MulInPlaceAvx2(double* dst, const double* src,
                                  std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, _mm256_mul_pd(_mm256_loadu_pd(dst + i),
                                            _mm256_loadu_pd(src + i)));
  }
  for (; i < n; ++i) dst[i] *= src[i];
}

// _mm256_max_pd(p, f) is `p > f ? p : f` per lane, the scalar expression.
FRESHSEL_AVX2 void MulInPlaceFlooredAvx2(double* dst, const double* src,
                                         std::size_t n, double floor) {
  const __m256d f = _mm256_set1_pd(floor);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d p = _mm256_mul_pd(_mm256_loadu_pd(dst + i),
                                    _mm256_loadu_pd(src + i));
    _mm256_storeu_pd(dst + i, _mm256_max_pd(p, f));
  }
  for (; i < n; ++i) {
    const double p = dst[i] * src[i];
    dst[i] = p > floor ? p : floor;
  }
}

// The reductions run 4 independent accumulators (16 doubles per
// iteration): a single FMA chain is bound by the FMA's ~4-cycle latency,
// while 4 chains keep both FMA ports busy and quadruple throughput on the
// estimator's |t - t0|-length folds. The extra reassociation is covered by
// the same reordered-summation bound the tests assert.

FRESHSEL_AVX2 double DotOneMinusAvx2(const double* w, const double* m,
                                     std::size_t n) {
  const __m256d one = _mm256_set1_pd(1.0);
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(w + i),
                           _mm256_sub_pd(one, _mm256_loadu_pd(m + i)), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(w + i + 4),
                           _mm256_sub_pd(one, _mm256_loadu_pd(m + i + 4)),
                           acc1);
    acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(w + i + 8),
                           _mm256_sub_pd(one, _mm256_loadu_pd(m + i + 8)),
                           acc2);
    acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(w + i + 12),
                           _mm256_sub_pd(one, _mm256_loadu_pd(m + i + 12)),
                           acc3);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(w + i),
                           _mm256_sub_pd(one, _mm256_loadu_pd(m + i)), acc0);
  }
  double out = HorizontalSum(
      _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3)));
  for (; i < n; ++i) out += w[i] * (1.0 - m[i]);
  return out;
}

FRESHSEL_AVX2 double DotOneMinusMulAvx2(const double* w, const double* m,
                                        const double* c, std::size_t n) {
  const __m256d one = _mm256_set1_pd(1.0);
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d miss0 =
        _mm256_mul_pd(_mm256_loadu_pd(m + i), _mm256_loadu_pd(c + i));
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(w + i), _mm256_sub_pd(one, miss0),
                           acc0);
    const __m256d miss1 =
        _mm256_mul_pd(_mm256_loadu_pd(m + i + 4), _mm256_loadu_pd(c + i + 4));
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(w + i + 4),
                           _mm256_sub_pd(one, miss1), acc1);
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d miss =
        _mm256_mul_pd(_mm256_loadu_pd(m + i), _mm256_loadu_pd(c + i));
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(w + i), _mm256_sub_pd(one, miss),
                           acc0);
  }
  double out = HorizontalSum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) out += w[i] * (1.0 - m[i] * c[i]);
  return out;
}

FRESHSEL_AVX2 double ScaledSumOneMinusAvx2(double scale, const double* m,
                                           std::size_t n) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d s = _mm256_set1_pd(scale);
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_pd(s, _mm256_sub_pd(one, _mm256_loadu_pd(m + i)),
                           acc0);
    acc1 = _mm256_fmadd_pd(s, _mm256_sub_pd(one, _mm256_loadu_pd(m + i + 4)),
                           acc1);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(s, _mm256_sub_pd(one, _mm256_loadu_pd(m + i)),
                           acc0);
  }
  double out = HorizontalSum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) out += scale * (1.0 - m[i]);
  return out;
}

FRESHSEL_AVX2 double ScaledSumOneMinusMulAvx2(double scale, const double* m,
                                              const double* c,
                                              std::size_t n) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d s = _mm256_set1_pd(scale);
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d miss0 =
        _mm256_mul_pd(_mm256_loadu_pd(m + i), _mm256_loadu_pd(c + i));
    acc0 = _mm256_fmadd_pd(s, _mm256_sub_pd(one, miss0), acc0);
    const __m256d miss1 =
        _mm256_mul_pd(_mm256_loadu_pd(m + i + 4), _mm256_loadu_pd(c + i + 4));
    acc1 = _mm256_fmadd_pd(s, _mm256_sub_pd(one, miss1), acc1);
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d miss =
        _mm256_mul_pd(_mm256_loadu_pd(m + i), _mm256_loadu_pd(c + i));
    acc0 = _mm256_fmadd_pd(s, _mm256_sub_pd(one, miss), acc0);
  }
  double out = HorizontalSum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) out += scale * (1.0 - m[i] * c[i]);
  return out;
}

#undef FRESHSEL_AVX2

constexpr Kernels kAvx2Kernels = {
    "avx2",
    true,
    MulInPlaceAvx2,
    MulInPlaceFlooredAvx2,
    DotOneMinusAvx2,
    DotOneMinusMulAvx2,
    ScaledSumOneMinusAvx2,
    ScaledSumOneMinusMulAvx2,
};

#elif defined(FRESHSEL_SIMD_HAVE_NEON)

// ---------------------------------------------------------------------------
// NEON backend: 2 doubles per operation (aarch64 float64x2_t).

void MulInPlaceNeon(double* dst, const double* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(dst + i, vmulq_f64(vld1q_f64(dst + i), vld1q_f64(src + i)));
  }
  for (; i < n; ++i) dst[i] *= src[i];
}

void MulInPlaceFlooredNeon(double* dst, const double* src, std::size_t n,
                           double floor) {
  const float64x2_t f = vdupq_n_f64(floor);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t p =
        vmulq_f64(vld1q_f64(dst + i), vld1q_f64(src + i));
    vst1q_f64(dst + i, vmaxq_f64(p, f));
  }
  for (; i < n; ++i) {
    const double p = dst[i] * src[i];
    dst[i] = p > floor ? p : floor;
  }
}

double DotOneMinusNeon(const double* w, const double* m, std::size_t n) {
  const float64x2_t one = vdupq_n_f64(1.0);
  float64x2_t acc = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    acc = vfmaq_f64(acc, vld1q_f64(w + i),
                    vsubq_f64(one, vld1q_f64(m + i)));
  }
  double out = vaddvq_f64(acc);
  for (; i < n; ++i) out += w[i] * (1.0 - m[i]);
  return out;
}

double DotOneMinusMulNeon(const double* w, const double* m, const double* c,
                          std::size_t n) {
  const float64x2_t one = vdupq_n_f64(1.0);
  float64x2_t acc = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t miss = vmulq_f64(vld1q_f64(m + i), vld1q_f64(c + i));
    acc = vfmaq_f64(acc, vld1q_f64(w + i), vsubq_f64(one, miss));
  }
  double out = vaddvq_f64(acc);
  for (; i < n; ++i) out += w[i] * (1.0 - m[i] * c[i]);
  return out;
}

double ScaledSumOneMinusNeon(double scale, const double* m, std::size_t n) {
  const float64x2_t one = vdupq_n_f64(1.0);
  const float64x2_t s = vdupq_n_f64(scale);
  float64x2_t acc = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    acc = vfmaq_f64(acc, s, vsubq_f64(one, vld1q_f64(m + i)));
  }
  double out = vaddvq_f64(acc);
  for (; i < n; ++i) out += scale * (1.0 - m[i]);
  return out;
}

double ScaledSumOneMinusMulNeon(double scale, const double* m,
                                const double* c, std::size_t n) {
  const float64x2_t one = vdupq_n_f64(1.0);
  const float64x2_t s = vdupq_n_f64(scale);
  float64x2_t acc = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t miss = vmulq_f64(vld1q_f64(m + i), vld1q_f64(c + i));
    acc = vfmaq_f64(acc, s, vsubq_f64(one, miss));
  }
  double out = vaddvq_f64(acc);
  for (; i < n; ++i) out += scale * (1.0 - m[i] * c[i]);
  return out;
}

constexpr Kernels kNeonKernels = {
    "neon",
    true,
    MulInPlaceNeon,
    MulInPlaceFlooredNeon,
    DotOneMinusNeon,
    DotOneMinusMulNeon,
    ScaledSumOneMinusNeon,
    ScaledSumOneMinusMulNeon,
};

#endif

constexpr cpu::Variant<Kernels> kVariants[] = {
#if defined(FRESHSEL_SIMD_HAVE_AVX2)
    {cpu::kAvx2Fma, &kAvx2Kernels},
#elif defined(FRESHSEL_SIMD_HAVE_NEON)
    {cpu::kNeon, &kNeonKernels},
#endif
    {0, &kScalarKernels},
};

constinit const cpu::Family<Kernels> kFamily{kVariants};

}  // namespace

const Kernels& ActiveKernels() { return kFamily.Active(); }

std::vector<const Kernels*> SupportedKernels() { return kFamily.Supported(); }

}  // namespace freshsel::simd
