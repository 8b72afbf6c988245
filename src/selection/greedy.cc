#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "obs/macros.h"
#include "selection/algorithms.h"
#include "selection/audit.h"
#include "selection/greedy_driver.h"

namespace freshsel::selection {

SelectionResult Greedy(const ProfitFunction& oracle,
                       const PartitionMatroid* matroid,
                       const GreedyOptions& options) {
  const std::size_t n = oracle.universe_size();
  FRESHSEL_CHECK(matroid == nullptr || matroid->element_count() >= n)
      << "matroid covers " << matroid->element_count()
      << " elements, the oracle " << n;
  const internal::CandidatePolicy policy =
      internal::PolicyFor(options, n, matroid);
  [[maybe_unused]] const char* span = "selection/greedy/lazy";
  if (policy.kind == internal::CandidatePolicy::Kind::kEager) {
    span = "selection/greedy/eager";
  } else if (policy.kind == internal::CandidatePolicy::Kind::kStochastic) {
    span = "selection/greedy/stochastic";
    FRESHSEL_OBS_GAUGE_SET("selection.stochastic.sample_size",
                           policy.sample_size);
  }
  FRESHSEL_TRACE_SPAN(span);
  const std::uint64_t calls_before = oracle.call_count();
  const std::unique_ptr<MarginalEvalContext> ctx =
      MakeEvalContext(oracle, options.incremental);
  internal::GreedyRun run = internal::RunGreedy(
      oracle, internal::ProfitObjective(matroid), *ctx, policy,
      options.decision_log, "greedy");
  // Only plain greedy runs publish these counters; budgeted phase 1 shares
  // the loop but not the names. A counter appears in snapshots only once
  // a run has counted something for it.
  if (run.rounds > 0) {
    FRESHSEL_OBS_COUNT("selection.greedy.rounds", run.rounds);
  }
  if (run.rescores > 0) {
    FRESHSEL_OBS_COUNT("selection.celf.rescores", run.rescores);
  }
  if (run.sampled > 0) {
    FRESHSEL_OBS_COUNT("selection.stochastic.sampled", run.sampled);
  }
  if (run.evals > 0) {
    FRESHSEL_OBS_COUNT("selection.stochastic.evals", run.evals);
  }
  if (run.skips > 0) {
    FRESHSEL_OBS_COUNT("selection.stochastic.skips", run.skips);
  }

  SelectionResult result;
  result.selected = std::move(run.selected);
  result.profit = run.value;
  result.oracle_calls = oracle.call_count() - calls_before;
  result.oracle_calls_saved = run.saved;
  result.cache_hit_rate = CacheHitRateOf(oracle);
  return result;
}

namespace internal {

std::size_t StochasticSampleSize(std::size_t n, std::size_t k, double eps) {
  eps = std::clamp(eps, 1e-9, 1.0 - 1e-9);
  k = std::max<std::size_t>(k, 1);
  const double ratio = static_cast<double>(n) / static_cast<double>(k);
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(ratio * std::log(1.0 / eps))));
}

std::size_t DeriveSampleK(std::size_t n, const PartitionMatroid* matroid) {
  if (matroid == nullptr) return std::max<std::size_t>(n, 1);
  std::vector<std::size_t> group_sizes(matroid->group_count(), 0);
  const std::size_t elems = std::min(n, matroid->element_count());
  for (std::size_t e = 0; e < elems; ++e) {
    ++group_sizes[matroid->GroupOf(static_cast<SourceHandle>(e))];
  }
  std::size_t rank = 0;
  for (std::size_t g = 0; g < group_sizes.size(); ++g) {
    rank += std::min<std::size_t>(
        group_sizes[g], matroid->CapacityOf(static_cast<std::uint32_t>(g)));
  }
  return std::max<std::size_t>(rank, 1);
}

}  // namespace internal

SelectionResult BruteForce(const ProfitFunction& oracle,
                           const PartitionMatroid* matroid) {
  const std::size_t n = oracle.universe_size();
  const std::uint64_t calls_before = oracle.call_count();
  SelectionResult best;
  best.profit = -std::numeric_limits<double>::infinity();
  if (n > 24) return best;  // Guardrail: 2^n enumeration.
  for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << n); ++bits) {
    std::vector<SourceHandle> set;
    for (std::size_t e = 0; e < n; ++e) {
      if ((bits >> e) & 1) set.push_back(static_cast<SourceHandle>(e));
    }
    if (matroid != nullptr && !matroid->IsIndependent(set)) continue;
    const double profit = oracle.Profit(set);
    if (profit > best.profit) {
      best.profit = profit;
      best.selected = std::move(set);
    }
  }
  best.oracle_calls = oracle.call_count() - calls_before;
  return best;
}

}  // namespace freshsel::selection
