// FRESHSEL_LINT_ALLOW(include-guard): textual-include twin, see below.
//
// Workload body shared by the obs_on / obs_off translation units of
// bench_obs_overhead. No include guard: each TU includes this exactly once
// after defining FRESHSEL_OBS_WORKLOAD_NS (and, for the off variant,
// FRESHSEL_OBS_FORCE_OFF before any other include).
//
// One iteration is shaped like one profit-oracle call - a weighted-
// coverage evaluation over a fixed universe - and carries the same
// instrumentation density as the real selection hot path: one trace-span
// check, one counter bump, one histogram record. The 5% overhead gate in
// bench_obs_overhead --check compares this against the macro-free twin.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/macros.h"

namespace freshsel::bench {
namespace FRESHSEL_OBS_WORKLOAD_NS {

namespace {

/// The oracle-call stand-in. Never inlined: in the real hot paths the
/// profit evaluation sits behind a virtual ProfitFunction call, so the
/// instrumentation macros in the driver loop must not perturb the kernel's
/// codegen - only their own cost may differ between the twins. Aligned to
/// a cache line so both twins' copies sit at the same offset within one:
/// unaligned, where the linker happened to put each copy moved the measured
/// on/off gap between about -12% and +19% with no source change.
[[gnu::noinline, gnu::aligned(64)]] double EvaluateProfit(
    const std::vector<std::vector<std::uint32_t>>& covers,
    const std::vector<double>& weights, std::vector<bool>& covered) {
  covered.assign(covered.size(), false);
  double profit = 0.0;
  for (const auto& cover : covers) {
    for (std::uint32_t item : cover) {
      if (!covered[item]) {
        covered[item] = true;
        profit += weights[item];
      }
    }
  }
  return profit;
}

}  // namespace

double RunWorkload(std::size_t iterations) {
  constexpr std::size_t kSources = 24;
  constexpr std::size_t kItems = 512;

  // Deterministic xorshift so both TUs build the identical universe.
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<std::vector<std::uint32_t>> covers(kSources);
  for (auto& cover : covers) {
    const std::size_t k = 8 + next() % 48;
    cover.reserve(k);
    for (std::size_t j = 0; j < k; ++j) {
      cover.push_back(static_cast<std::uint32_t>(next() % kItems));
    }
  }
  std::vector<double> weights(kItems);
  for (double& w : weights) {
    w = 0.05 + static_cast<double>(next() % 1000) / 1000.0;
  }

  double sink = 0.0;
  std::vector<bool> covered(kItems);
  for (std::size_t i = 0; i < iterations; ++i) {
    FRESHSEL_TRACE_SPAN("bench/obs_overhead/iteration");
    const double profit = EvaluateProfit(covers, weights, covered);
    sink += profit;
    FRESHSEL_OBS_COUNT("bench.obs_overhead.iterations", 1);
    FRESHSEL_OBS_HISTOGRAM_RECORD("bench.obs_overhead.profit_seconds",
                                  profit * 1e-6);
  }
  return sink;
}

}  // namespace FRESHSEL_OBS_WORKLOAD_NS
}  // namespace freshsel::bench
