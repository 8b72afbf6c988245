#include "selection/profit.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "estimation/source_profile.h"
#include "estimation/world_change_model.h"
#include "selection/set_util.h"
#include "source/source_simulator.h"
#include "world/world_simulator.h"

namespace freshsel::selection {
namespace {

class ProfitOracleFixture : public ::testing::Test {
 protected:
  static constexpr TimePoint kT0 = 200;

  void SetUp() override {
    world::DataDomain domain =
        world::DataDomain::Create("loc", 1, "cat", 2).value();
    world::WorldSpec spec{std::move(domain), {}, 300};
    spec.rates.push_back({1.0, 0.005, 0.01, 100});
    spec.rates.push_back({0.5, 0.005, 0.01, 60});
    Rng rng(211);
    world_ = std::make_unique<world::World>(
        world::SimulateWorld(spec, rng).value());
    for (int i = 0; i < 3; ++i) {
      source::SourceSpec s;
      s.name = "s" + std::to_string(i);
      s.scope = {0, 1};
      s.schedule = {1 + i, 0};
      s.insert_capture = {0.05 * i, 1.0 + 2.0 * i};
      s.initial_awareness = 0.9 - 0.2 * i;
      specs_.push_back(s);
    }
    histories_ = source::SimulateSources(*world_, specs_, rng).value();
    model_ = std::make_unique<estimation::WorldChangeModel>(
        estimation::WorldChangeModel::Learn(*world_, kT0).value());
    profiles_ =
        estimation::LearnSourceProfiles(*world_, histories_, kT0).value();
    estimator_ = std::make_unique<estimation::QualityEstimator>(
        estimation::QualityEstimator::Create(*world_, *model_, {},
                                             {kT0 + 20, kT0 + 40})
            .value());
    for (const auto& p : profiles_) {
      ASSERT_TRUE(estimator_->AddSource(&p, 1).ok());
    }
  }

  ProfitOracle MakeOracle(ProfitOracle::Config config,
                          std::vector<double> costs = {10.0, 20.0, 30.0}) {
    return ProfitOracle::Create(estimator_.get(), std::move(costs), config)
        .value();
  }

  std::unique_ptr<world::World> world_;
  std::vector<source::SourceSpec> specs_;
  std::vector<source::SourceHistory> histories_;
  std::unique_ptr<estimation::WorldChangeModel> model_;
  std::vector<estimation::SourceProfile> profiles_;
  std::unique_ptr<estimation::QualityEstimator> estimator_;
};

TEST_F(ProfitOracleFixture, CreateValidates) {
  EXPECT_FALSE(
      ProfitOracle::Create(nullptr, {1.0}, ProfitOracle::Config{}).ok());
  EXPECT_FALSE(ProfitOracle::Create(estimator_.get(), {1.0},
                                    ProfitOracle::Config{})
                   .ok());  // Wrong cost count.
  EXPECT_TRUE(ProfitOracle::Create(estimator_.get(), {1.0, 2.0, 3.0},
                                   ProfitOracle::Config{})
                  .ok());
}

TEST_F(ProfitOracleFixture, CostsAreNormalized) {
  ProfitOracle oracle = MakeOracle(ProfitOracle::Config{});
  EXPECT_DOUBLE_EQ(oracle.Cost({0, 1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(oracle.Cost({0}), 10.0 / 60.0);
  EXPECT_DOUBLE_EQ(oracle.Cost({}), 0.0);
}

TEST_F(ProfitOracleFixture, GainIsNormalizedToUnitInterval) {
  ProfitOracle oracle = MakeOracle(ProfitOracle::Config{});
  const double gain = oracle.Gain({0, 1, 2});
  EXPECT_GT(gain, 0.0);
  EXPECT_LE(gain, 1.0);
}

TEST_F(ProfitOracleFixture, ProfitIsGainMinusWeightedCost) {
  ProfitOracle::Config config;
  config.cost_weight = 0.5;
  ProfitOracle oracle = MakeOracle(config);
  const double profit = oracle.Profit({0, 1});
  EXPECT_NEAR(profit, oracle.Gain({0, 1}) - 0.5 * oracle.Cost({0, 1}),
              1e-12);
}

TEST_F(ProfitOracleFixture, BudgetMakesSetsInfeasible) {
  ProfitOracle::Config config;
  config.budget = 0.4;  // Normalized: selecting everything costs 1.
  ProfitOracle oracle = MakeOracle(config);
  EXPECT_TRUE(std::isinf(oracle.Profit({0, 1, 2})));
  EXPECT_LT(oracle.Profit({0, 1, 2}), 0.0);
  EXPECT_TRUE(std::isfinite(oracle.Profit({0})));
  EXPECT_TRUE(oracle.WithinBudget({0}));
  EXPECT_FALSE(oracle.WithinBudget({0, 1, 2}));
}

TEST_F(ProfitOracleFixture, GainCallsAreCounted) {
  ProfitOracle oracle = MakeOracle(ProfitOracle::Config{});
  EXPECT_EQ(oracle.call_count(), 0u);
  oracle.Profit({0});
  oracle.Profit({0, 1});
  EXPECT_EQ(oracle.call_count(), 2u);
  oracle.ResetCallCount();
  EXPECT_EQ(oracle.call_count(), 0u);
}

TEST_F(ProfitOracleFixture, DataGainScalesWithWorldSize) {
  ProfitOracle::Config config;
  config.gain = GainModel(GainFamily::kData, QualityMetric::kCoverage);
  ProfitOracle oracle = MakeOracle(config);
  const double gain = oracle.Gain({0, 1, 2});
  EXPECT_GT(gain, 0.0);
  EXPECT_LE(gain, 1.0);
}

TEST_F(ProfitOracleFixture, AggregateModes) {
  ProfitOracle::Config avg_config;
  ProfitOracle::Config max_config;
  max_config.aggregate = AggregateMode::kMax;
  ProfitOracle::Config min_config;
  min_config.aggregate = AggregateMode::kMin;
  ProfitOracle avg = MakeOracle(avg_config);
  ProfitOracle best = MakeOracle(max_config);
  ProfitOracle worst = MakeOracle(min_config);
  const std::vector<SourceHandle> set{0, 1};
  EXPECT_LE(worst.Gain(set), avg.Gain(set) + 1e-12);
  EXPECT_LE(avg.Gain(set), best.Gain(set) + 1e-12);
}

TEST_F(ProfitOracleFixture, GainAveragesPerTimeGains) {
  // For the quadratic family, avg(G(q_t)) != G(avg(q_t)); verify the oracle
  // averages per-time-point gains as Section 5 requires.
  ProfitOracle::Config config;
  config.gain = GainModel(GainFamily::kQuadratic, QualityMetric::kCoverage);
  ProfitOracle oracle = MakeOracle(config);
  double expected = 0.0;
  for (TimePoint t : estimator_->eval_times()) {
    const double cov = estimator_->Estimate({0}, t).coverage;
    expected += 100.0 * cov * cov;
  }
  expected /= 100.0 * static_cast<double>(estimator_->eval_times().size());
  EXPECT_NEAR(oracle.Gain({0}), expected, 1e-12);
}

TEST_F(ProfitOracleFixture, FullEvalContextResetMatchesEstimatorContext) {
  // Through any sequence of Resets, repeats included, the adapter and the
  // estimator's own context hold the same set and score it - and every
  // candidate that sorts last - to the same bits.
  ProfitOracle oracle = MakeOracle(ProfitOracle::Config{});
  const std::unique_ptr<MarginalEvalContext> estimator_ctx =
      oracle.MakeContext();
  ASSERT_NE(estimator_ctx, nullptr);
  FullEvalContext full(oracle);
  EXPECT_TRUE(full.set().empty());
  EXPECT_TRUE(estimator_ctx->set().empty());
  const std::vector<std::vector<SourceHandle>> sequence = {
      {2}, {0, 1, 2}, {0, 2}, {0, 2}, {}, {0, 1}, {0}};
  for (const std::vector<SourceHandle>& set : sequence) {
    full.Reset(set);
    estimator_ctx->Reset(set);
    EXPECT_EQ(full.set(), set);
    EXPECT_EQ(estimator_ctx->set(), set);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(estimator_ctx->CurrentProfit()),
              std::bit_cast<std::uint64_t>(full.CurrentProfit()));
    for (SourceHandle h = set.empty() ? 0 : set.back() + 1; h < 3; ++h) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(estimator_ctx->ProfitWith(h)),
                std::bit_cast<std::uint64_t>(full.ProfitWith(h)));
    }
  }
}

TEST_F(ProfitOracleFixture, FullEvalContextMakesThePlainCalls) {
  // Budget 0.4 of normalized costs {1/6, 1/3, 1/2}: {2}, {0, 1} and every
  // larger set are infeasible, so both outcomes of the budget test occur.
  ProfitOracle::Config config;
  config.budget = 0.4;
  ProfitOracle oracle = MakeOracle(config);
  FullEvalContext full(oracle);
  // Each query must return the plain call's bits and count its calls.
  auto expect_plain = [&](auto via_context, auto plain) {
    const std::uint64_t start = oracle.call_count();
    const double context_value = via_context();
    const std::uint64_t context_calls = oracle.call_count() - start;
    const double plain_value = plain();
    const std::uint64_t plain_calls =
        oracle.call_count() - start - context_calls;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(context_value),
              std::bit_cast<std::uint64_t>(plain_value));
    EXPECT_EQ(context_calls, plain_calls);
  };
  bool saw_infeasible = false;
  for (std::uint32_t bits = 0; bits < 8; ++bits) {
    std::vector<SourceHandle> root;
    for (SourceHandle h = 0; h < 3; ++h) {
      if ((bits >> h) & 1) root.push_back(h);
    }
    full.Reset(root);
    saw_infeasible = saw_infeasible || std::isinf(oracle.Profit(root));
    expect_plain([&] { return full.CurrentProfit(); },
                 [&] { return oracle.Profit(root); });
    expect_plain([&] { return full.CurrentGain(); },
                 [&] { return oracle.Gain(root); });
    for (SourceHandle h = 0; h < 3; ++h) {
      if (internal::Contains(root, h)) continue;
      const std::vector<SourceHandle> grown = internal::WithAdded(root, h);
      expect_plain([&] { return full.ProfitWith(h); },
                   [&] { return oracle.Profit(grown); });
      expect_plain([&] { return full.GainWith(h); },
                   [&] { return oracle.Gain(grown); });
    }
  }
  EXPECT_TRUE(saw_infeasible);
}

TEST_F(ProfitOracleFixture, MakeEvalContextPrefersTheOraclesOwnContext) {
  ProfitOracle oracle = MakeOracle(ProfitOracle::Config{});
  EXPECT_EQ(dynamic_cast<FullEvalContext*>(
                MakeEvalContext(oracle, /*incremental=*/true).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<FullEvalContext*>(
                MakeEvalContext(oracle, /*incremental=*/false).get()),
            nullptr);
}

}  // namespace
}  // namespace freshsel::selection
