// Kernel equivalence suite (DESIGN.md §13): the SIMD miss-product kernels
// behind QualityEstimator must not change what the estimator publishes.
//
//  * Exact path (fast_math_kernels off, the default): elementwise kernels
//    only - results are bit-identical across backends, across the cached /
//    uncached table paths, and across the full / incremental evaluation
//    paths (the latter two are also covered by eval_context_test).
//  * Fast-math path (opt-in): blocked reductions re-associate the
//    accumulation, so the contract is a bounded deviation from the exact
//    path, checked here across every Options mask including
//    capture-backlog.
//  * The kMissProductFloor underflow fix: ~200 high-effectiveness sources
//    drive the per-tau miss products far below the subnormal range; the
//    floor keeps the arithmetic normal while incremental evaluations keep
//    matching full recomputes, bit for bit at full depth.

#include <cstdint>
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/bit_vector.h"
#include "common/random.h"
#include "common/time_types.h"
#include "estimation/quality_estimator.h"
#include "estimation/source_profile.h"
#include "estimation/world_change_model.h"
#include "source/source_simulator.h"
#include "stats/step_function.h"
#include "world/world_simulator.h"

namespace freshsel::estimation {
namespace {

using SourceHandle = QualityEstimator::SourceHandle;

/// Fast-math re-associates sums of O(steps) unit-magnitude terms, so the
/// deviation is a few ulps of the summed magnitude; 1e-9 on [0, 1]
/// metrics leaves orders of magnitude of slack while still catching any
/// use of the wrong kernel or weight array.
constexpr double kFastMathTol = 1e-9;

void ExpectQualityWithin(const EstimatedQuality& a, const EstimatedQuality& b,
                         double tol, const std::string& what) {
  EXPECT_NEAR(a.coverage, b.coverage, tol) << what;
  EXPECT_NEAR(a.local_freshness, b.local_freshness, tol) << what;
  EXPECT_NEAR(a.global_freshness, b.global_freshness, tol) << what;
  EXPECT_NEAR(a.accuracy, b.accuracy, tol) << what;
  EXPECT_NEAR(a.expected_result, b.expected_result,
              tol * (1.0 + std::abs(b.expected_result)))
      << what;
  EXPECT_NEAR(a.expected_up, b.expected_up,
              tol * (1.0 + std::abs(b.expected_up)))
      << what;
  EXPECT_EQ(a.expected_world, b.expected_world) << what;
}

void ExpectQualityIdentical(const EstimatedQuality& a,
                            const EstimatedQuality& b,
                            const std::string& what) {
  EXPECT_EQ(a.coverage, b.coverage) << what;
  EXPECT_EQ(a.local_freshness, b.local_freshness) << what;
  EXPECT_EQ(a.global_freshness, b.global_freshness) << what;
  EXPECT_EQ(a.accuracy, b.accuracy) << what;
  EXPECT_EQ(a.expected_result, b.expected_result) << what;
  EXPECT_EQ(a.expected_up, b.expected_up) << what;
  EXPECT_EQ(a.expected_world, b.expected_world) << what;
}

/// The 2x2 simulated world of eval_context_test.cc; parameterized over
/// the full 4-bit Options mask so every model variant (including
/// capture-backlog) runs through the kernels.
class KernelEquivalenceTest : public ::testing::TestWithParam<int> {
 protected:
  static constexpr TimePoint kT0 = 300;
  static constexpr TimePoint kHorizon = 500;

  void SetUp() override {
    world::DataDomain domain =
        world::DataDomain::Create("loc", 2, "cat", 2).value();
    world::WorldSpec spec{std::move(domain), {}, kHorizon};
    spec.rates.push_back({1.5, 0.004, 0.008, 375});
    spec.rates.push_back({0.8, 0.006, 0.004, 133});
    spec.rates.push_back({1.0, 0.003, 0.010, 333});
    spec.rates.push_back({0.5, 0.005, 0.006, 100});
    Rng rng(97);
    world_ = std::make_unique<world::World>(
        world::SimulateWorld(spec, rng).value());

    std::vector<source::SourceSpec> specs;
    for (int i = 0; i < 6; ++i) {
      source::SourceSpec s;
      s.name = "s" + std::to_string(i);
      s.scope = i < 3 ? std::vector<world::SubdomainId>{0, 1, 2, 3}
                      : std::vector<world::SubdomainId>{
                            static_cast<world::SubdomainId>(i - 3)};
      s.schedule = {1 + i % 3, 0};
      s.insert_capture = {0.05 * i, 2.0 + 4.0 * i};
      s.update_capture = {0.05 * i, 3.0 + 4.0 * i};
      s.delete_capture = {0.05 * i, 4.0 + 4.0 * i};
      s.initial_awareness = 0.9 - 0.1 * i;
      specs.push_back(s);
    }
    const auto histories = source::SimulateSources(*world_, specs, rng).value();
    model_ = std::make_unique<WorldChangeModel>(
        WorldChangeModel::Learn(*world_, kT0).value());
    profiles_ = LearnSourceProfiles(*world_, histories, kT0).value();
  }

  static QualityEstimator::Options OptionsFromMask(int mask) {
    QualityEstimator::Options options;
    options.per_event_survival = (mask & 1) != 0;
    options.exponential_world_model = (mask & 2) != 0;
    options.model_capture_backlog = (mask & 4) != 0;
    options.model_ghost_result = (mask & 8) != 0;
    return options;
  }

  QualityEstimator MakeEstimator(QualityEstimator::Options options,
                                 TimePoints eval_times) {
    QualityEstimator est = QualityEstimator::Create(
                               *world_, *model_, {}, std::move(eval_times),
                               options)
                               .value();
    for (const SourceProfile& p : profiles_) {
      EXPECT_TRUE(est.AddSource(&p, 1).ok());
    }
    return est;
  }

  std::unique_ptr<world::World> world_;
  std::unique_ptr<WorldChangeModel> model_;
  std::vector<SourceProfile> profiles_;
};

TEST_P(KernelEquivalenceTest, FastMathFullPathWithinBoundOfExact) {
  QualityEstimator::Options exact_options = OptionsFromMask(GetParam());
  QualityEstimator::Options fast_options = exact_options;
  fast_options.fast_math_kernels = true;
  QualityEstimator exact =
      MakeEstimator(exact_options, {kT0 + 15, kT0 + 45, kT0 + 90});
  QualityEstimator fast =
      MakeEstimator(fast_options, {kT0 + 15, kT0 + 45, kT0 + 90});

  Rng rng(41);
  for (int round = 0; round < 30; ++round) {
    std::vector<SourceHandle> set;
    for (std::size_t s = 0; s < exact.source_count(); ++s) {
      if (rng.Bernoulli(0.5)) set.push_back(static_cast<SourceHandle>(s));
    }
    for (TimePoint t : exact.eval_times()) {
      ExpectQualityWithin(fast.Estimate(set, t), exact.Estimate(set, t),
                          kFastMathTol,
                          "mask " + std::to_string(GetParam()) + ", |S|=" +
                              std::to_string(set.size()) + ", t=" +
                              std::to_string(t));
    }
  }
}

TEST_P(KernelEquivalenceTest, FastMathDeltaPathWithinBoundOfExact) {
  QualityEstimator::Options exact_options = OptionsFromMask(GetParam());
  QualityEstimator::Options fast_options = exact_options;
  fast_options.fast_math_kernels = true;
  QualityEstimator exact =
      MakeEstimator(exact_options, {kT0 + 15, kT0 + 45});
  QualityEstimator fast = MakeEstimator(fast_options, {kT0 + 15, kT0 + 45});

  QualityEstimator::EvalContext exact_ctx = exact.MakeEvalContext();
  QualityEstimator::EvalContext fast_ctx = fast.MakeEvalContext();
  const std::size_t n = exact.source_count();
  std::vector<SourceHandle> set;
  for (std::size_t depth = 0; depth < n; ++depth) {
    for (std::size_t c = 0; c < n; ++c) {
      const SourceHandle cand = static_cast<SourceHandle>(c);
      for (TimePoint t : exact.eval_times()) {
        ExpectQualityWithin(fast_ctx.EstimateWith(cand, t),
                            exact_ctx.EstimateWith(cand, t), kFastMathTol,
                            "mask " + std::to_string(GetParam()) +
                                ", depth " + std::to_string(depth));
      }
    }
    set.push_back(static_cast<SourceHandle>(depth));
    exact_ctx.Reset(set);
    fast_ctx.Reset(set);
  }
}

TEST_P(KernelEquivalenceTest, ExactPathCachedAndUncachedBitIdentical) {
  // The same (set, t) evaluated through the memoized SoA tables and
  // through the uncached ad-hoc fold must agree bit for bit - including
  // the kMissProductFloor, which both paths apply identically. The
  // uncached estimator registers a different eval time so TimeIndexOf
  // misses and the ad-hoc branch runs.
  QualityEstimator::Options options = OptionsFromMask(GetParam());
  QualityEstimator cached =
      MakeEstimator(options, {kT0 + 15, kT0 + 45, kT0 + 90});
  QualityEstimator uncached = MakeEstimator(options, {kT0 + 33});

  Rng rng(59);
  for (int round = 0; round < 20; ++round) {
    std::vector<SourceHandle> set;
    for (std::size_t s = 0; s < cached.source_count(); ++s) {
      if (rng.Bernoulli(0.5)) set.push_back(static_cast<SourceHandle>(s));
    }
    for (TimePoint t : cached.eval_times()) {
      ExpectQualityIdentical(uncached.Estimate(set, t),
                             cached.Estimate(set, t),
                             "mask " + std::to_string(GetParam()) + ", t=" +
                                 std::to_string(t));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllOptionCombos, KernelEquivalenceTest,
                         ::testing::Range(0, 16));

// ---------------------------------------------------------------------------
// Underflow regression (the kMissProductFloor bugfix).

/// Builds a synthetic profile that captures `capture_prob` of every change
/// with daily acquisitions - the per-tau miss factor is (1 - capture_prob)
/// for every tau, so a stack of these drives running products toward
/// (1 - p)^n, far below the subnormal threshold for n ~ 200.
SourceProfile HighEffectivenessProfile(const world::World& world, int index,
                                       double capture_prob) {
  SourceProfile p;
  p.name = "h" + std::to_string(index);
  const std::size_t entities = world.entity_count();
  p.sig_t0.up = BitVector(entities);
  p.sig_t0.cov = BitVector(entities);
  p.sig_t0.all = BitVector(entities);
  // Sparse, index-dependent signatures so union counts keep moving as
  // sources are added.
  for (std::size_t id = static_cast<std::size_t>(index) % 7; id < entities;
       id += 7) {
    p.sig_t0.up.Set(id);
    p.sig_t0.cov.Set(id);
    p.sig_t0.all.Set(id);
  }
  p.update_interval = 1.0;
  p.anchor = 0;
  p.g_insert = stats::StepFunction::Constant(capture_prob);
  p.g_update = stats::StepFunction::Constant(capture_prob);
  p.g_delete = stats::StepFunction::Constant(capture_prob);
  return p;
}

class UnderflowRegressionTest : public ::testing::TestWithParam<bool> {
 protected:
  static constexpr TimePoint kT0 = 300;
  static constexpr int kSources = 200;

  void SetUp() override {
    world::DataDomain domain =
        world::DataDomain::Create("loc", 1, "cat", 1).value();
    world::WorldSpec spec{std::move(domain), {}, 400};
    spec.rates.push_back({1.2, 0.004, 0.008, 300});
    Rng rng(23);
    world_ = std::make_unique<world::World>(
        world::SimulateWorld(spec, rng).value());
    model_ = std::make_unique<WorldChangeModel>(
        WorldChangeModel::Learn(*world_, kT0).value());
    for (int i = 0; i < kSources; ++i) {
      profiles_.push_back(HighEffectivenessProfile(*world_, i, 0.99));
    }
  }

  std::unique_ptr<world::World> world_;
  std::unique_ptr<WorldChangeModel> model_;
  std::vector<SourceProfile> profiles_;
};

TEST_P(UnderflowRegressionTest, TwoHundredSourcesStayConsistent) {
  QualityEstimator::Options options;
  options.model_capture_backlog = GetParam();
  QualityEstimator est =
      QualityEstimator::Create(*world_, *model_, {}, {kT0 + 20, kT0 + 60},
                               options)
          .value();
  for (const SourceProfile& p : profiles_) {
    ASSERT_TRUE(est.AddSource(&p, 1).ok());
  }

  // (1 - 0.99)^200 = 1e-400: without the floor the running products
  // denormalize around depth ~150 and hit exactly zero soon after. The
  // floor keeps the arithmetic normal; the incremental path must keep
  // matching full recomputes the whole way down, and every published
  // metric must stay a finite probability (the DCHECKs inside
  // EvaluateFromProducts enforce the latter on every call).
  QualityEstimator::EvalContext ctx = est.MakeEvalContext();
  std::vector<SourceHandle> set;
  for (int i = 0; i < kSources; ++i) {
    set.push_back(static_cast<SourceHandle>(i));
    if ((i + 1) % 25 == 0 || i + 1 == kSources) {
      ctx.Reset(set);
      for (TimePoint t : est.eval_times()) {
        const EstimatedQuality incremental = ctx.EstimateCurrent(t);
        const EstimatedQuality full = est.Estimate(set, t);
        ExpectQualityWithin(incremental, full, 1e-12,
                            "depth " + std::to_string(i + 1) + ", t=" +
                                std::to_string(t));
        EXPECT_TRUE(std::isfinite(incremental.expected_result));
        EXPECT_TRUE(std::isfinite(incremental.expected_up));
      }
    }
  }
}

TEST_P(UnderflowRegressionTest, ResetBitExactAtFullDepth) {
  QualityEstimator::Options options;
  options.model_capture_backlog = GetParam();
  QualityEstimator est =
      QualityEstimator::Create(*world_, *model_, {}, {kT0 + 20, kT0 + 60},
                               options)
          .value();
  for (const SourceProfile& p : profiles_) {
    ASSERT_TRUE(est.AddSource(&p, 1).ok());
  }

  // At depth 199 every product sits at the floor. The context Reset to
  // that set must evaluate it bit for bit like `Estimate`, and still does
  // after a Reset to the 200-source set and back.
  std::vector<SourceHandle> set;
  for (int i = 0; i + 1 < kSources; ++i) {
    set.push_back(static_cast<SourceHandle>(i));
  }
  std::vector<SourceHandle> full = set;
  full.push_back(static_cast<SourceHandle>(kSources - 1));
  QualityEstimator::EvalContext ctx = est.MakeEvalContext();
  ctx.Reset(set);
  std::vector<EstimatedQuality> before;
  std::vector<EstimatedQuality> after;
  ctx.EstimateAllTimes(before);
  ctx.Reset(full);
  ctx.Reset(set);
  ctx.EstimateAllTimes(after);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    const std::string what = "time index " + std::to_string(i);
    ExpectQualityIdentical(after[i], before[i], what);
    ExpectQualityIdentical(before[i], est.Estimate(set, est.eval_times()[i]),
                           what);
  }
}

INSTANTIATE_TEST_SUITE_P(BacklogOnOff, UnderflowRegressionTest,
                         ::testing::Bool());

}  // namespace
}  // namespace freshsel::estimation
