// Golden characterization of the selection paths the greedy golden suite
// leaves out, on a BL-scenario ProfitOracle:
//   - GRASP (kappa 3, 2 restarts) under two seeds, incremental and full;
//   - MaxSub (Algorithm 1);
//   - greedy (eager and lazy) over the divisor-augmented universe of the
//     varying-frequency problem (max_divisor 3, rank-1 matroid per source).
// Each cell pins the selection, the bit pattern of the profit, the
// oracle-call accounting and every field of every decision record.
//
// The estimator's exact path must produce the same bits on every kernel
// backend (common/simd.h) and with or without hardware popcount
// (common/bit_vector.h); a floating-point contraction anywhere on that path
// moves the profit or a decision score and fails here. The expected values
// were recorded once and must not be edited to make a refactor pass.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness/learned_scenario.h"
#include "obs/decision_log.h"
#include "obs/macros.h"
#include "selection/algorithms.h"
#include "selection/cost.h"
#include "selection/frequency_selection.h"
#include "workloads/bl_generator.h"

namespace freshsel::selection {
namespace {

/// BL scenario -> learned models, and an estimator + ProfitOracle over
/// either the plain sources (max_divisor 1) or the augmented universe.
struct BlFixture {
  std::unique_ptr<workloads::Scenario> scenario;
  std::unique_ptr<harness::LearnedScenario> learned;
  std::vector<const estimation::SourceProfile*> profiles;

  BlFixture() {
    workloads::BlConfig config;
    config.seed = 5;
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
    for (const auto& profile : learned->profiles) profiles.push_back(&profile);
  }
};

struct OracleSetup {
  std::unique_ptr<estimation::QualityEstimator> estimator;
  std::unique_ptr<ProfitOracle> oracle;
  std::optional<PartitionMatroid> matroid;  ///< Set when max_divisor > 1.

  OracleSetup(const BlFixture& fixture, std::int64_t max_divisor) {
    estimator = std::make_unique<estimation::QualityEstimator>(
        estimation::QualityEstimator::Create(
            fixture.scenario->world, fixture.learned->world_model, {},
            MakeTimePoints(fixture.scenario->t0 + 14, 3, 14))
            .value());
    std::vector<double> costs = CostModel::ItemShareCosts(fixture.profiles);
    if (max_divisor > 1) {
      AugmentedUniverse universe =
          BuildAugmentedUniverse(*estimator, fixture.profiles, costs,
                                 max_divisor)
              .value();
      costs = std::move(universe.costs);
      matroid = std::move(universe.matroid);
    } else {
      for (const estimation::SourceProfile* profile : fixture.profiles) {
        EXPECT_TRUE(estimator->AddSource(profile).ok());
      }
    }
    ProfitOracle::Config config;
    config.cost_weight = 0.02;  // Cheap enough for several rounds.
    oracle = std::make_unique<ProfitOracle>(
        ProfitOracle::Create(estimator.get(), std::move(costs), config)
            .value());
  }
};

// ---------------------------------------------------------------------------
// Canonical text of one run (same format as greedy_golden_test.cc).

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

struct Golden {
  const char* cell;
  const char* result;
  /// Decision log; checked only when observability is compiled in.
  const char* audit;
};

#include "selection/selection_golden_cells.inc"

/// Compares one run against its golden entry, or prints the entry to
/// record when the cell has none.
void Check(const std::string& cell, const SelectionResult& result,
           const obs::DecisionLog& log) {
  std::map<std::string, const Golden*> by_cell;
  for (const Golden& golden : kGolden) by_cell[golden.cell] = &golden;
  const std::string actual_result = Describe(result);
  const std::string actual_audit = Describe(log);
  const auto it = by_cell.find(cell);
  if (it == by_cell.end()) {
    ADD_FAILURE() << "no golden entry; recorded:\n    {\"" << cell
                  << "\",\n     \"" << actual_result << "\",\n     \""
                  << actual_audit << "\"},";
    return;
  }
  EXPECT_EQ(actual_result, it->second->result) << cell;
#if FRESHSEL_OBS_ACTIVE
  EXPECT_EQ(actual_audit, it->second->audit) << cell;
#endif
}

// ---------------------------------------------------------------------------

TEST(SelectionGoldenTest, Grasp) {
  const BlFixture fixture;
  const OracleSetup setup(fixture, 1);
  for (std::uint64_t seed : {42u, 7u}) {
    for (bool incremental : {true, false}) {
      obs::DecisionLog log;
      GraspParams params;
      params.kappa = 3;
      params.restarts = 2;
      params.seed = seed;
      params.incremental = incremental;
      params.decision_log = &log;
      Check("grasp/seed" + std::to_string(seed) + "/" +
                (incremental ? "incremental" : "full"),
            Grasp(*setup.oracle, params), log);
    }
  }
}

TEST(SelectionGoldenTest, MaxSub) {
  const BlFixture fixture;
  const OracleSetup setup(fixture, 1);
  Check("maxsub", MaxSub(*setup.oracle), obs::DecisionLog());
}

TEST(SelectionGoldenTest, DivisorGreedy) {
  const BlFixture fixture;
  const OracleSetup setup(fixture, 3);
  ASSERT_TRUE(setup.matroid.has_value());
  for (bool lazy : {false, true}) {
    obs::DecisionLog log;
    GreedyOptions options;
    options.lazy = lazy;
    options.decision_log = &log;
    Check(std::string("greedy/divisor3/") + (lazy ? "lazy" : "eager"),
          Greedy(*setup.oracle, &*setup.matroid, options), log);
  }
}

}  // namespace
}  // namespace freshsel::selection
