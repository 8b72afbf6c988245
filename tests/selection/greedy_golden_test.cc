// Golden characterization of the greedy family: every cell of the grid
//   {Greedy, BudgetedGreedy}
//     x {eager, lazy, stochastic-eager, stochastic-lazy}
//     x {incremental context, full-evaluation context}
//     x {two constraints per algorithm}
// on a synthetic coverage oracle (behind the memoizing decorator) and on a
// BL-scenario ProfitOracle is pinned to literal values: the selection, the
// bit pattern of the profit, the oracle-call accounting, the cache hit
// rate, every field of every decision record, and the obs counter deltas.
//
// The equivalence suites compare variants with each other; this suite
// compares each variant with its own recorded past, so a change that moves
// eager and lazy the same way still fails here. The expected values were
// recorded once and must not be edited to make a refactor pass.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/learned_scenario.h"
#include "obs/decision_log.h"
#include "obs/macros.h"
#include "obs/metrics.h"
#include "selection/algorithms.h"
#include "selection/budgeted_greedy.h"
#include "selection/cached_oracle.h"
#include "selection/cost.h"
#include "workloads/bl_generator.h"

namespace freshsel::selection {
namespace {

// ---------------------------------------------------------------------------
// Oracles.

/// Weighted coverage with additive costs. Dyadic weights give exact sums,
/// and a few coincident marginals exercise the lowest-handle tie-breaks.
class CoverageOracle : public GainCostFunction {
 public:
  explicit CoverageOracle(double budget) : budget_(budget) {}

  std::size_t universe_size() const override { return kCovers.size(); }

  double Gain(const std::vector<SourceHandle>& set) const override {
    ++calls_;
    std::vector<bool> covered(kWeights.size(), false);
    for (SourceHandle e : set) {
      for (int item : kCovers[e]) covered[item] = true;
    }
    double gain = 0.0;
    for (std::size_t i = 0; i < covered.size(); ++i) {
      if (covered[i]) gain += kWeights[i];
    }
    return gain;
  }

  double Cost(const std::vector<SourceHandle>& set) const override {
    double total = 0.0;
    for (SourceHandle e : set) total += kCosts[e];
    return total;
  }

  double Profit(const std::vector<SourceHandle>& set) const override {
    const double cost = Cost(set);
    if (cost > budget_ + 1e-12) {
      return -std::numeric_limits<double>::infinity();
    }
    return Gain(set) - cost;
  }

  double budget() const override { return budget_; }

 private:
  static inline const std::vector<std::vector<int>> kCovers = {
      {0, 1, 2}, {2, 3},    {4, 5, 6}, {0, 6},  {7},
      {1, 3, 5, 7}, {8, 9}, {9, 10},   {0, 11}, {4, 8, 11}};
  static inline const std::vector<double> kWeights = {
      1.0, 0.75, 0.5, 1.25, 0.875, 0.625, 1.5, 0.9375, 0.5, 0.75, 0.25,
      0.5};
  static inline const std::vector<double> kCosts = {
      0.25, 0.125, 0.375, 0.5, 0.0625, 0.1875, 0.25, 0.125, 0.3125, 0.4375};

  double budget_;
};

/// BL scenario -> learned models -> estimator, shared by the three
/// ProfitOracles (unconstrained, tight and loose budget) of one test.
struct BlPipeline {
  std::unique_ptr<workloads::Scenario> scenario;
  std::unique_ptr<harness::LearnedScenario> learned;
  std::unique_ptr<estimation::QualityEstimator> estimator;
  std::vector<const estimation::SourceProfile*> profiles;

  BlPipeline() {
    workloads::BlConfig config;
    config.seed = 3;
    config.locations = 8;
    config.categories = 3;
    config.horizon = 220;
    config.t0 = 150;
    config.scale = 0.3;
    config.n_uniform = 2;
    config.n_location_specialists = 4;
    config.n_category_specialists = 3;
    config.n_medium = 2;
    scenario = std::make_unique<workloads::Scenario>(
        workloads::GenerateBlScenario(config).value());
    learned = std::make_unique<harness::LearnedScenario>(
        harness::LearnScenario(*scenario).value());
    estimator = std::make_unique<estimation::QualityEstimator>(
        estimation::QualityEstimator::Create(
            scenario->world, learned->world_model, {},
            MakeTimePoints(scenario->t0 + 14, 3, 14))
            .value());
    for (const auto& profile : learned->profiles) {
      profiles.push_back(&profile);
      EXPECT_TRUE(estimator->AddSource(&profile).ok());
    }
  }

  std::unique_ptr<ProfitOracle> Oracle(double budget) const {
    ProfitOracle::Config config;
    config.budget = budget;
    config.cost_weight = 0.02;  // Cheap enough for several greedy rounds.
    return std::make_unique<ProfitOracle>(
        ProfitOracle::Create(estimator.get(),
                             CostModel::ItemShareCosts(profiles), config)
            .value());
  }
};

// ---------------------------------------------------------------------------
// Canonical text of one run.

std::string Bits(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, bits);
  return buffer;
}

std::string Describe(const SelectionResult& result) {
  std::string out = "sel=";
  for (std::size_t i = 0; i < result.selected.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(result.selected[i]);
  }
  out += " profit=" + Bits(result.profit);
  out += " calls=" + std::to_string(result.oracle_calls);
  out += " saved=" + std::to_string(result.oracle_calls_saved);
  out += " hit=" + Bits(result.cache_hit_rate);
  return out;
}

std::string Describe(const obs::DecisionLog& log) {
  std::string out = log.algorithm();
  for (const obs::DecisionRecord& r : log.records()) {
    out += " |" + std::to_string(r.round) + "," + std::to_string(r.restart) +
           "," + std::to_string(static_cast<int>(r.kind)) + "," +
           std::to_string(r.chosen) + "," + std::to_string(r.partner) + "," +
           Bits(r.gain) + "," + Bits(r.profit) + "," + Bits(r.score) + "," +
           (r.has_runner_up ? "1" : "0") + "," + std::to_string(r.runner_up) +
           "," + Bits(r.runner_up_score) + "," + Bits(r.margin) + "," +
           std::to_string(r.oracle_calls) + "," +
           std::to_string(r.calls_saved) + "," +
           std::to_string(r.cache_hits) + "," +
           std::to_string(r.sample_size) + "," + std::to_string(r.pool_size);
  }
  return out;
}

/// Counters a selection run may move: the selection family and the
/// estimator's delta/full evaluation tallies (the memo tallies depend on
/// what earlier cells already evaluated, so they are left out).
bool Pinned(const std::string& name) {
  return name.rfind("selection.", 0) == 0 ||
         name.rfind("estimation.delta.", 0) == 0 ||
         name.rfind("estimation.full.", 0) == 0;
}

constexpr const char* kSampleSizeGauge = "selection.stochastic.sample_size";

std::string CounterDeltas(const obs::MetricsSnapshot& before,
                          const obs::MetricsSnapshot& after) {
  std::string out;
  for (const auto& [name, value] : after.counters) {
    if (!Pinned(name)) continue;
    const auto it = before.counters.find(name);
    const std::uint64_t delta =
        value - (it == before.counters.end() ? 0 : it->second);
    if (delta != 0) out += name + "=" + std::to_string(delta) + " ";
  }
  const auto gauge = after.gauges.find(kSampleSizeGauge);
  out += "gauge=" + std::to_string(static_cast<long long>(gauge->second));
  return out;
}

// ---------------------------------------------------------------------------
// The grid.

enum class Policy { kEager, kLazy, kStochasticEager, kStochasticLazy };

constexpr Policy kPolicies[] = {Policy::kEager, Policy::kLazy,
                                Policy::kStochasticEager,
                                Policy::kStochasticLazy};

const char* PolicyName(Policy policy) {
  switch (policy) {
    case Policy::kEager:
      return "eager";
    case Policy::kLazy:
      return "lazy";
    case Policy::kStochasticEager:
      return "stoch-eager";
    case Policy::kStochasticLazy:
      return "stoch-lazy";
  }
  return "?";
}

template <typename Options>
Options MakeOptions(Policy policy, bool incremental, obs::DecisionLog* log) {
  Options options;
  options.lazy = policy == Policy::kLazy || policy == Policy::kStochasticLazy;
  options.stochastic = policy == Policy::kStochasticEager ||
                       policy == Policy::kStochasticLazy;
  options.stochastic_seed = 7;
  options.incremental = incremental;
  options.decision_log = log;
  return options;
}

struct Golden {
  const char* cell;
  const char* result;
  /// Decision log and counter deltas; checked only when observability is
  /// compiled in.
  const char* audit;
};

/// Runs `run(options)` for every policy x context cell and compares each
/// against `expected`, keyed by "<prefix>/<policy>/<context>".
template <typename Options, typename Run>
void CheckCells(const std::string& prefix, const std::vector<Golden>& expected,
                const Run& run) {
  std::map<std::string, const Golden*> by_cell;
  for (const Golden& golden : expected) by_cell[golden.cell] = &golden;
  for (Policy policy : kPolicies) {
    for (bool incremental : {true, false}) {
      const std::string cell = prefix + "/" + PolicyName(policy) + "/" +
                               (incremental ? "incremental" : "full");
      obs::DecisionLog log;
      obs::MetricsRegistry::Global().GetGauge(kSampleSizeGauge).Set(-1.0);
      const obs::MetricsSnapshot before =
          obs::MetricsRegistry::Global().TakeSnapshot();
      const SelectionResult result =
          run(MakeOptions<Options>(policy, incremental, &log));
      const obs::MetricsSnapshot after =
          obs::MetricsRegistry::Global().TakeSnapshot();
      const std::string actual_result = Describe(result);
      const std::string actual_audit =
          Describe(log) + " # " + CounterDeltas(before, after);
      const auto it = by_cell.find(cell);
      if (it == by_cell.end()) {
        ADD_FAILURE() << "no golden entry; recorded:\n    {\"" << cell
                      << "\",\n     \"" << actual_result << "\",\n     \""
                      << actual_audit << "\"},";
        continue;
      }
      EXPECT_EQ(actual_result, it->second->result) << cell;
#if FRESHSEL_OBS_ACTIVE
      EXPECT_EQ(actual_audit, it->second->audit) << cell;
#endif
    }
  }
}

PartitionMatroid ModThreeMatroid(std::size_t n,
                                 std::vector<std::uint32_t> capacities) {
  std::vector<std::uint32_t> groups;
  for (std::size_t e = 0; e < n; ++e) {
    groups.push_back(static_cast<std::uint32_t>(e % 3));
  }
  return PartitionMatroid::Create(groups, std::move(capacities)).value();
}

// ---------------------------------------------------------------------------
// Expected values.

#include "selection/greedy_golden_cells.inc"

// ---------------------------------------------------------------------------

TEST(GreedyGoldenTest, CoverageOracle) {
  const CoverageOracle unbounded(std::numeric_limits<double>::infinity());
  const PartitionMatroid matroid =
      ModThreeMatroid(unbounded.universe_size(), {1, 2, 1});
  for (const PartitionMatroid* constraint :
       {static_cast<const PartitionMatroid*>(nullptr), &matroid}) {
    CheckCells<GreedyOptions>(
        std::string("coverage/greedy/") +
            (constraint != nullptr ? "matroid" : "none"),
        kCoverageGolden, [&](const GreedyOptions& options) {
          const CachedProfitOracle cached(unbounded);
          return Greedy(cached, constraint, options);
        });
  }
  for (double budget : {0.5, 1.25}) {
    const CoverageOracle bounded(budget);
    CheckCells<BudgetedGreedyOptions>(
        std::string("coverage/budgeted/") +
            (budget < 1.0 ? "tight" : "loose"),
        kCoverageGolden, [&](const BudgetedGreedyOptions& options) {
          const CachedProfitOracle cached(bounded);
          return BudgetedGreedy(cached, options);
        });
  }
}

TEST(GreedyGoldenTest, BlProfitOracle) {
  const BlPipeline pipeline;
  const std::unique_ptr<ProfitOracle> unbounded =
      pipeline.Oracle(std::numeric_limits<double>::infinity());
  ASSERT_NE(unbounded->MakeContext(), nullptr);
  const PartitionMatroid matroid =
      ModThreeMatroid(unbounded->universe_size(), {2, 2, 2});
  for (const PartitionMatroid* constraint :
       {static_cast<const PartitionMatroid*>(nullptr), &matroid}) {
    CheckCells<GreedyOptions>(
        std::string("bl/greedy/") +
            (constraint != nullptr ? "matroid" : "none"),
        kBlGolden, [&](const GreedyOptions& options) {
          return Greedy(*unbounded, constraint, options);
        });
  }
  for (double budget : {0.2, 0.5}) {
    const std::unique_ptr<ProfitOracle> bounded = pipeline.Oracle(budget);
    CheckCells<BudgetedGreedyOptions>(
        std::string("bl/budgeted/") + (budget < 0.3 ? "tight" : "loose"),
        kBlGolden, [&](const BudgetedGreedyOptions& options) {
          return BudgetedGreedy(*bounded, options);
        });
  }
}

}  // namespace
}  // namespace freshsel::selection
