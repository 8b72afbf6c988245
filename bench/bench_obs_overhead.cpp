// Measures the cost of the FRESHSEL_OBS_* instrumentation macros against a
// macro-free compilation of the identical workload (obs_overhead_impl.h),
// and gates it: `--check` exits nonzero when the instrumented twin runs
// more than 5% slower, or when an instrumented build fails to register the
// expected metrics. CI runs the check in both FRESHSEL_OBS modes - under
// OFF the twins compile to the same code and the overhead is ~0 by
// construction, which doubles as a regression test that the macros really
// do expand to nothing.

#include <cstdio>
#include <cstring>

#include "bench_util.h"
#include "obs_overhead_workload.h"

namespace {

constexpr std::size_t kIterations = 50000;
constexpr int kPairs = 21;
constexpr double kMaxOverhead = 0.05;

}  // namespace

int main(int argc, char** argv) {
  freshsel::bench::ObsSession obs_session("bench_obs_overhead", &argc, argv);
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check = true;
  }

  // Warmup both twins (page in code/data, populate the registry).
  double sink = 0.0;
  sink += freshsel::bench::obs_off::RunWorkload(kIterations / 10);
  sink += freshsel::bench::obs_on::RunWorkload(kIterations / 10);

  const freshsel::bench::TwinTiming timing = freshsel::bench::CompareTwins(
      freshsel::bench::obs_off::RunWorkload,
      freshsel::bench::obs_on::RunWorkload, kIterations, kPairs, &sink);
  const double off_s = timing.off_seconds;
  const double on_s = timing.on_seconds;
  const double overhead = timing.overhead;

  std::printf(
      "obs overhead micro-bench (%zu iterations, median of %d "
      "interleaved pairs)\n",
      kIterations, kPairs);
  std::printf("  plain        : %8.2f ns/iter\n",
              off_s * 1e9 / static_cast<double>(kIterations));
  std::printf("  instrumented : %8.2f ns/iter\n",
              on_s * 1e9 / static_cast<double>(kIterations));
  std::printf("  overhead     : %+.2f%% (gate: <= %.0f%%)\n",
              overhead * 100.0, kMaxOverhead * 100.0);
  std::printf("  (sink %.3f)\n", sink);

  freshsel::obs::RunReport& report = obs_session.report();
  report.values["overhead_fraction"] = overhead;
  report.values["plain_ns_per_iter"] =
      off_s * 1e9 / static_cast<double>(kIterations);
  report.values["instrumented_ns_per_iter"] =
      on_s * 1e9 / static_cast<double>(kIterations);

  if (!check) return 0;

  int failures = 0;
  if (overhead > kMaxOverhead) {
    std::fprintf(stderr, "FAIL: instrumentation overhead %.2f%% > %.0f%%\n",
                 overhead * 100.0, kMaxOverhead * 100.0);
    ++failures;
  }
  // In an instrumented build the macro path must have reached the global
  // registry; in an OFF build it must not have.
  const freshsel::obs::MetricsSnapshot snapshot =
      freshsel::obs::MetricsRegistry::Global().TakeSnapshot();
  const bool counted =
      snapshot.counters.count("bench.obs_overhead.iterations") > 0 &&
      snapshot.histograms.count("bench.obs_overhead.profit_seconds") > 0;
#if defined(FRESHSEL_OBS_OFF)
  if (counted) {
    std::fprintf(stderr,
                 "FAIL: FRESHSEL_OBS=OFF build still registered metrics\n");
    ++failures;
  }
#else
  if (!counted) {
    std::fprintf(stderr,
                 "FAIL: instrumented build registered no metrics\n");
    ++failures;
  }
#endif
  if (failures == 0) std::printf("obs overhead check: OK\n");
  return failures == 0 ? 0 : 1;
}
