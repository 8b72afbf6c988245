// Incremental-oracle equivalence suite: scoring candidates through
// MarginalEvalContext (delta evaluation inside the estimator) is a pure
// acceleration - every algorithm must pick the identical selection with
// incremental on and off, with profits agreeing to <= 1e-12, on full
// BL-scenario ProfitOracles, across seeds and estimator Options flags.
// Oracle-call accounting must also match exactly, so the lazy-greedy
// savings statistics stay comparable across the two paths.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "harness/learned_scenario.h"
#include "selection/algorithms.h"
#include "selection/budgeted_greedy.h"
#include "selection/cached_oracle.h"
#include "selection/cost.h"
#include "selection/selector.h"
#include "workloads/bl_generator.h"

namespace freshsel::selection {
namespace {

/// Incremental evaluations are ulp-equivalent to plain full-set calls
/// (factor products associate differently), so profits may differ in the
/// last bits while the argmax sequence - and hence the selection - stays
/// identical.
constexpr double kProfitTol = 1e-12;

void ExpectEquivalent(const SelectionResult& incremental,
                      const SelectionResult& plain, const char* what,
                      std::uint64_t seed) {
  EXPECT_EQ(incremental.selected, plain.selected)
      << what << ", seed " << seed;
  EXPECT_NEAR(incremental.profit, plain.profit,
              kProfitTol * (1.0 + std::abs(plain.profit)))
      << what << ", seed " << seed;
  EXPECT_EQ(incremental.oracle_calls, plain.oracle_calls)
      << what << ", seed " << seed;
  EXPECT_EQ(incremental.oracle_calls_saved, plain.oracle_calls_saved)
      << what << ", seed " << seed;
}

/// Full-pipeline fixture: BL scenario -> learned models -> estimator ->
/// ProfitOracle, parameterized by scenario seed.
class IncrementalEquivalenceTest
    : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    workloads::BlConfig config;
    config.seed = GetParam();
    config.locations = 8;
    config.categories = 3;
    config.horizon = 220;
    config.t0 = 150;
    config.scale = 0.3;
    config.n_uniform = 2;
    config.n_location_specialists = 4;
    config.n_category_specialists = 3;
    config.n_medium = 2;
    scenario_ = std::make_unique<workloads::Scenario>(
        workloads::GenerateBlScenario(config).value());
  }

  struct Pipeline {
    std::unique_ptr<harness::LearnedScenario> learned;
    std::unique_ptr<estimation::QualityEstimator> estimator;
    std::unique_ptr<ProfitOracle> oracle;
  };

  Pipeline MakePipeline(
      double budget,
      estimation::QualityEstimator::Options options = {}) {
    Pipeline p;
    p.learned = std::make_unique<harness::LearnedScenario>(
        harness::LearnScenario(*scenario_).value());
    p.estimator = std::make_unique<estimation::QualityEstimator>(
        estimation::QualityEstimator::Create(
            scenario_->world, p.learned->world_model, {},
            MakeTimePoints(scenario_->t0 + 14, 3, 14), options)
            .value());
    std::vector<const estimation::SourceProfile*> profiles;
    for (const auto& profile : p.learned->profiles) {
      profiles.push_back(&profile);
      EXPECT_TRUE(p.estimator->AddSource(&profile).ok());
    }
    ProfitOracle::Config config;
    config.budget = budget;
    p.oracle = std::make_unique<ProfitOracle>(
        ProfitOracle::Create(p.estimator.get(),
                             CostModel::ItemShareCosts(profiles), config)
            .value());
    return p;
  }

  std::unique_ptr<workloads::Scenario> scenario_;
};

TEST_P(IncrementalEquivalenceTest, GreedyMatchesPlainEagerAndLazy) {
  Pipeline p = MakePipeline(std::numeric_limits<double>::infinity());
  EXPECT_NE(p.oracle->MakeContext(), nullptr);
  for (bool lazy : {false, true}) {
    GreedyOptions plain_opts{lazy, /*incremental=*/false};
    GreedyOptions inc_opts{lazy, /*incremental=*/true};
    ExpectEquivalent(Greedy(*p.oracle, nullptr, inc_opts),
                     Greedy(*p.oracle, nullptr, plain_opts),
                     lazy ? "lazy greedy" : "eager greedy", GetParam());
  }
}

TEST_P(IncrementalEquivalenceTest, GreedyMatchesAcrossEstimatorOptions) {
  // Every estimator Options flag changes the oracle values; the
  // incremental path must track each variant exactly.
  for (int mask = 0; mask < 16; ++mask) {
    estimation::QualityEstimator::Options options;
    options.per_event_survival = (mask & 1) != 0;
    options.exponential_world_model = (mask & 2) != 0;
    options.model_capture_backlog = (mask & 4) != 0;
    options.model_ghost_result = (mask & 8) != 0;
    Pipeline p =
        MakePipeline(std::numeric_limits<double>::infinity(), options);
    SelectionResult plain =
        Greedy(*p.oracle, nullptr, GreedyOptions{true, false});
    SelectionResult incremental =
        Greedy(*p.oracle, nullptr, GreedyOptions{true, true});
    ExpectEquivalent(incremental, plain,
                     ("options mask " + std::to_string(mask)).c_str(),
                     GetParam());
  }
}

TEST_P(IncrementalEquivalenceTest, GreedyMatchesUnderMatroid) {
  Pipeline p = MakePipeline(std::numeric_limits<double>::infinity());
  std::vector<std::uint32_t> groups;
  for (std::size_t e = 0; e < p.oracle->universe_size(); ++e) {
    groups.push_back(static_cast<std::uint32_t>(e % 3));
  }
  PartitionMatroid matroid =
      PartitionMatroid::Create(groups, {2, 2, 2}).value();
  for (bool lazy : {false, true}) {
    ExpectEquivalent(
        Greedy(*p.oracle, &matroid, GreedyOptions{lazy, true}),
        Greedy(*p.oracle, &matroid, GreedyOptions{lazy, false}),
        "matroid greedy", GetParam());
  }
}

TEST_P(IncrementalEquivalenceTest, BudgetedGreedyMatchesPlain) {
  for (double budget : {0.2, 0.5}) {
    Pipeline p = MakePipeline(budget);
    for (bool lazy : {false, true}) {
      ExpectEquivalent(
          BudgetedGreedy(*p.oracle, BudgetedGreedyOptions{lazy, true}),
          BudgetedGreedy(*p.oracle, BudgetedGreedyOptions{lazy, false}),
          "budgeted greedy", GetParam());
    }
  }
}

TEST_P(IncrementalEquivalenceTest, GraspMatchesPlainSerialAndPooled) {
  Pipeline p = MakePipeline(std::numeric_limits<double>::infinity());
  ThreadPool pool(3);
  for (ThreadPool* worker_pool : {static_cast<ThreadPool*>(nullptr),
                                  &pool}) {
    GraspParams plain{2, 3, GetParam(), worker_pool,
                      /*incremental=*/false};
    GraspParams incremental{2, 3, GetParam(), worker_pool,
                            /*incremental=*/true};
    ExpectEquivalent(Grasp(*p.oracle, incremental),
                     Grasp(*p.oracle, plain),
                     worker_pool ? "grasp pooled" : "grasp serial",
                     GetParam());
  }
}

TEST_P(IncrementalEquivalenceTest, CachedOracleForwardsIncremental) {
  Pipeline p = MakePipeline(std::numeric_limits<double>::infinity());
  CachedProfitOracle cached(*p.oracle);
  EXPECT_NE(cached.MakeContext(), nullptr);
  SelectionResult plain =
      Greedy(cached, nullptr, GreedyOptions{true, false});
  SelectionResult incremental =
      Greedy(cached, nullptr, GreedyOptions{true, true});
  EXPECT_EQ(incremental.selected, plain.selected) << GetParam();
  EXPECT_NEAR(incremental.profit, plain.profit,
              kProfitTol * (1.0 + std::abs(plain.profit)))
      << GetParam();
  // The memo sits in front of the incremental context, so repeated keys
  // hit the cache identically on both paths; re-running through the same
  // decorator can only save calls.
  EXPECT_LE(incremental.oracle_calls, plain.oracle_calls) << GetParam();
}

TEST_P(IncrementalEquivalenceTest, SelectorFacadeHonorsIncrementalFlag) {
  Pipeline p = MakePipeline(std::numeric_limits<double>::infinity());
  for (Algorithm algorithm :
       {Algorithm::kGreedy, Algorithm::kGrasp, Algorithm::kHillClimb}) {
    SelectorConfig plain;
    plain.algorithm = algorithm;
    plain.seed = GetParam();
    plain.grasp_kappa = 2;
    plain.grasp_restarts = 2;
    plain.incremental_oracle = false;
    SelectorConfig incremental = plain;
    incremental.incremental_oracle = true;
    SelectionResult a = SelectSources(*p.oracle, incremental).value();
    SelectionResult b = SelectSources(*p.oracle, plain).value();
    EXPECT_EQ(a.selected, b.selected)
        << AlgorithmName(algorithm) << ", seed " << GetParam();
    EXPECT_NEAR(a.profit, b.profit,
                kProfitTol * (1.0 + std::abs(b.profit)))
        << AlgorithmName(algorithm) << ", seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEquivalenceTest,
                         ::testing::Values(3u, 11u, 42u));

/// Synthetic oracle without incremental support: MakeContext() is null, so
/// the flag must degrade gracefully to the full-evaluation context.
class PlainCoverage : public ProfitFunction {
 public:
  std::size_t universe_size() const override { return 8; }
  double Profit(const std::vector<SourceHandle>& set) const override {
    ++calls_;
    double total = 0.0;
    for (SourceHandle e : set) total += 1.0 / (1.0 + e);
    return total - 0.05 * static_cast<double>(set.size() * set.size());
  }
};

TEST(IncrementalFallbackTest, OracleWithoutSupportUsesPlainPath) {
  PlainCoverage f;
  EXPECT_EQ(f.MakeContext(), nullptr);
  SelectionResult on = Greedy(f, nullptr, GreedyOptions{true, true});
  SelectionResult off = Greedy(f, nullptr, GreedyOptions{true, false});
  EXPECT_EQ(on.selected, off.selected);
  EXPECT_EQ(on.profit, off.profit);
  EXPECT_EQ(on.oracle_calls, off.oracle_calls);
}

}  // namespace
}  // namespace freshsel::selection
