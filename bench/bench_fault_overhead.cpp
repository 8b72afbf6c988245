// Measures the cost of UNARMED failpoint sites against a macro-free
// compilation of the identical workload (fault_overhead_impl.h), and gates
// it: `--check` exits nonzero when the failpoint-carrying twin runs more
// than 5% slower, or when the registration behavior does not match the
// build mode. CI runs the check in both FRESHSEL_FAULT modes — under OFF
// the twins compile to the same code and the overhead is ~0 by
// construction, which doubles as a regression test that the macros really
// do expand to static_cast<void>(0).

#include <cstdio>
#include <cstring>

#include "bench_util.h"
#include "fault/failpoint.h"
#include "fault_overhead_workload.h"

namespace {

constexpr std::size_t kIterations = 10000;
constexpr int kPairs = 21;
constexpr double kMaxOverhead = 0.05;

}  // namespace

int main(int argc, char** argv) {
  freshsel::bench::ObsSession obs_session("bench_fault_overhead", &argc,
                                          argv);
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check = true;
  }

  // Warmup both twins (page in code/data, populate the registry).
  double sink = 0.0;
  sink += freshsel::bench::fault_off::RunWorkload(kIterations / 10);
  sink += freshsel::bench::fault_on::RunWorkload(kIterations / 10);

  const freshsel::bench::TwinTiming timing = freshsel::bench::CompareTwins(
      freshsel::bench::fault_off::RunWorkload,
      freshsel::bench::fault_on::RunWorkload, kIterations, kPairs, &sink);
  const double off_s = timing.off_seconds;
  const double on_s = timing.on_seconds;
  const double overhead = timing.overhead;

  std::printf(
      "fault overhead micro-bench (%zu iterations, median of %d "
      "interleaved pairs)\n",
      kIterations, kPairs);
  std::printf("  plain          : %8.2f ns/iter\n",
              off_s * 1e9 / static_cast<double>(kIterations));
  std::printf("  with failpoints: %8.2f ns/iter\n",
              on_s * 1e9 / static_cast<double>(kIterations));
  std::printf("  overhead       : %+.2f%% (gate: <= %.0f%%)\n",
              overhead * 100.0, kMaxOverhead * 100.0);
  std::printf("  (sink %.3f)\n", sink);

  freshsel::obs::RunReport& report = obs_session.report();
  report.values["overhead_fraction"] = overhead;
  report.values["plain_ns_per_iter"] =
      off_s * 1e9 / static_cast<double>(kIterations);
  report.values["failpoint_ns_per_iter"] =
      on_s * 1e9 / static_cast<double>(kIterations);

  if (!check) return 0;

  int failures = 0;
  if (overhead > kMaxOverhead) {
    std::fprintf(stderr, "FAIL: failpoint overhead %.2f%% > %.0f%%\n",
                 overhead * 100.0, kMaxOverhead * 100.0);
    ++failures;
  }
  // In a FRESHSEL_FAULT=ON build the macro sites must have registered
  // their failpoints; in an OFF build they must not have. Either way the
  // never-armed sites must have fired nothing.
  freshsel::fault::FailpointRegistry& registry =
      freshsel::fault::FailpointRegistry::Global();
  const bool registered =
      registry.Lookup("bench.fault_overhead.read") != nullptr &&
      registry.Lookup("bench.fault_overhead.touch") != nullptr;
#if FRESHSEL_FAULT_ACTIVE
  if (!registered) {
    std::fprintf(stderr,
                 "FAIL: FRESHSEL_FAULT=ON build registered no failpoints\n");
    ++failures;
  }
#else
  if (registered) {
    std::fprintf(
        stderr,
        "FAIL: FRESHSEL_FAULT=OFF build still registered failpoints\n");
    ++failures;
  }
#endif
  if (registry.TotalFires() != 0) {
    std::fprintf(stderr, "FAIL: unarmed failpoints fired\n");
    ++failures;
  }
  if (failures == 0) std::printf("fault overhead check: OK\n");
  return failures == 0 ? 0 : 1;
}
