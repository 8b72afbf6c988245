// FRESHSEL_LINT_ALLOW(include-guard): textual-include twin, see below.
//
// Workload body shared by the fault_on / fault_off translation units of
// bench_fault_overhead. No include guard: each TU includes this exactly
// once after defining FRESHSEL_FAULT_WORKLOAD_NS (and, for the off
// variant, FRESHSEL_FAULT_FORCE_OFF before any other include).
//
// One iteration is shaped like one scenario-I/O file read — a batch of
// row parses behind noinline calls — preceded by the same failpoint
// density as the real loaders: one FRESHSEL_FAILPOINT_RETURN site and one
// FRESHSEL_FAILPOINT marker per *file*, not per row (scenario_io places
// its failpoints at the top of whole-file readers). The failpoints stay
// UNARMED: the 5% gate in bench_fault_overhead --check bounds the cost of
// the disarmed fast path (one relaxed atomic load per site) against the
// macro-free twin.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/failpoint.h"

namespace freshsel::bench {
namespace FRESHSEL_FAULT_WORKLOAD_NS {

namespace {

/// The row-parse stand-in. Never inlined: in the real loaders the parsing
/// sits behind out-of-line calls, so the failpoint macros in the driver
/// loop must not perturb the kernel's codegen — only their own cost may
/// differ between the twins. Cache-line aligned so both twins' copies sit
/// at the same offset within a line (see obs_overhead_impl.h).
[[gnu::noinline, gnu::aligned(64)]] double ParseRow(const std::string& row) {
  double checksum = 0.0;
  std::size_t begin = 0;
  while (begin < row.size()) {
    std::size_t end = row.find(',', begin);
    if (end == std::string::npos) end = row.size();
    std::uint64_t field = 0;
    for (std::size_t i = begin; i < end; ++i) {
      field = field * 31 + static_cast<unsigned char>(row[i]);
    }
    checksum += static_cast<double>(field % 1000);
    begin = end + 1;
  }
  return checksum;
}

/// One guarded "file read": the failpoint sites the loaders carry, then
/// the parse kernel over every row of the batch. Returns a sentinel when
/// the (never-armed) injection site fires so the macro's return path is
/// real code, not dead code.
double ReadFile(const std::vector<std::string>& rows) {
  FRESHSEL_FAILPOINT_RETURN("bench.fault_overhead.read", -1.0);
  FRESHSEL_FAILPOINT("bench.fault_overhead.touch");
  double checksum = 0.0;
  for (const std::string& row : rows) checksum += ParseRow(row);
  return checksum;
}

}  // namespace

double RunWorkload(std::size_t iterations) {
  // Deterministic xorshift so both TUs build the identical row corpus.
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  constexpr std::size_t kRows = 64;
  std::vector<std::string> rows(kRows);
  for (auto& row : rows) {
    const std::size_t fields = 4 + next() % 5;
    for (std::size_t f = 0; f < fields; ++f) {
      if (f > 0) row += ',';
      row += std::to_string(next() % 100000);
    }
  }

  double sink = 0.0;
  for (std::size_t i = 0; i < iterations; ++i) {
    sink += ReadFile(rows);
  }
  return sink;
}

}  // namespace FRESHSEL_FAULT_WORKLOAD_NS
}  // namespace freshsel::bench
