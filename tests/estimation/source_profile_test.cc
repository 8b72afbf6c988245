#include "estimation/source_profile.h"

#include <cstdint>
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "source/source_simulator.h"
#include "testing/test_world.h"
#include "world/world_simulator.h"

namespace freshsel::estimation {
namespace {

world::World MakeSimWorld(TimePoint horizon = 600, std::uint64_t seed = 61) {
  world::DataDomain domain =
      world::DataDomain::Create("loc", 2, "cat", 1).value();
  world::WorldSpec spec{std::move(domain), {}, horizon};
  spec.rates.push_back({2.0, 0.005, 0.01, 300});
  spec.rates.push_back({1.0, 0.005, 0.01, 200});
  Rng rng(seed);
  return world::SimulateWorld(spec, rng).value();
}

TEST(SourceProfileTest, LearnValidatesT0) {
  world::World w = testing::MakeTestWorld();
  source::SourceHistory s = testing::MakeTestSource(w);
  EXPECT_FALSE(LearnSourceProfile(w, s, 0).ok());
  EXPECT_FALSE(LearnSourceProfile(w, s, 200).ok());
  EXPECT_TRUE(LearnSourceProfile(w, s, 100).ok());
}

TEST(SourceProfileTest, UpdateDaysBeforeDayZeroCount) {
  world::World w = testing::MakeTestWorld();
  source::SourceSpec spec;
  spec.name = "early";
  source::SourceHistory h(spec, w.entity_count());
  auto add = [&h](world::EntityId id, world::SubdomainId sub,
                  TimePoint inserted, TimePoint deleted,
                  std::vector<source::VersionCapture> captures) {
    source::CaptureRecord rec;
    rec.entity = id;
    rec.subdomain = sub;
    rec.inserted = inserted;
    rec.deleted = deleted;
    rec.version_captures = std::move(captures);
    ASSERT_TRUE(h.AddRecord(rec).ok());
  };
  add(0, 0, -4, 55, {{0, -4}, {1, 12}, {2, 35}});
  add(1, 0, -10, world::kNever, {{0, -10}, {1, 25}});
  add(2, 1, -10, world::kNever, {{0, -10}, {1, 120}});
  // Distinct update days within T = 100: -10, -4, 12, 25, 35 and the
  // deletion at 55. Six days over a span of 65.
  const SourceProfile profile = LearnSourceProfile(w, h, 100).value();
  EXPECT_EQ(profile.update_interval, 65.0 / 5.0);
  EXPECT_EQ(profile.anchor, 55);
  EXPECT_EQ(profile.observed_scope, (std::vector<world::SubdomainId>{0, 1}));
}

TEST(SourceProfileTest, RejectsSubdomainOutsideTheDomain) {
  world::World w = testing::MakeTestWorld();
  source::SourceSpec spec;
  spec.name = "bad-subdomain";
  source::SourceHistory h(spec, w.entity_count());
  source::CaptureRecord rec;
  rec.entity = 0;
  rec.subdomain = 7;  // The test world has 4 subdomains.
  rec.inserted = 2;
  rec.version_captures = {{0, 2}};
  ASSERT_TRUE(h.AddRecord(rec).ok());
  const Result<SourceProfile> profile = LearnSourceProfile(w, h, 100);
  EXPECT_EQ(profile.status().code(), StatusCode::kInvalidArgument);
}

TEST(SourceProfileTest, LearnsUpdateIntervalAndAnchor) {
  world::World w = MakeSimWorld();
  source::SourceSpec spec;
  spec.name = "weekly";
  spec.scope = {0, 1};
  spec.schedule = {7, 3};
  spec.insert_capture = {0.0, 2.0};
  spec.update_capture = {0.0, 2.0};
  spec.delete_capture = {0.0, 2.0};
  Rng rng(67);
  source::SourceHistory h = source::SimulateSource(w, spec, rng).value();
  SourceProfile profile = LearnSourceProfile(w, h, 400).value();
  // With many entities nearly every update day carries a capture.
  EXPECT_NEAR(profile.update_interval, 7.0, 0.5);
  // Anchor: the last update day <= 400 is 397 (3 + 56*7 = 395? 3+56*7=395,
  // +7=402 > 400). Whatever the exact day, it must be a schedule day.
  EXPECT_TRUE(spec.schedule.IsUpdateDay(profile.anchor));
  EXPECT_LE(profile.anchor, 400);
}

TEST(SourceProfileTest, ObservedScopeMatchesActual) {
  world::World w = MakeSimWorld();
  source::SourceSpec spec;
  spec.name = "loc0";
  spec.scope = {0};
  spec.schedule = {1, 0};
  spec.insert_capture = {0.0, 1.0};
  Rng rng(71);
  source::SourceHistory h = source::SimulateSource(w, spec, rng).value();
  SourceProfile profile = LearnSourceProfile(w, h, 400).value();
  EXPECT_EQ(profile.observed_scope, (std::vector<world::SubdomainId>{0}));
}

TEST(SourceProfileTest, InsertEffectivenessPlateauTracksMissProb) {
  world::World w = MakeSimWorld();
  source::SourceSpec spec;
  spec.name = "lossy";
  spec.scope = {0, 1};
  spec.schedule = {1, 0};
  spec.insert_capture = {0.3, 2.0};  // 30% missed forever.
  // Disable update captures: they would re-insert missed entities and lift
  // the plateau above the pure-insert capture probability.
  spec.update_capture = {1.0, 1.0};
  Rng rng(73);
  source::SourceHistory h = source::SimulateSource(w, spec, rng).value();
  SourceProfile profile = LearnSourceProfile(w, h, 500).value();
  // The KM plateau should approach the capture probability 0.7. Censoring
  // keeps it from reaching it exactly; evaluate well inside the window.
  EXPECT_NEAR(profile.g_insert.Evaluate(100.0), 0.7, 0.06);
}

TEST(SourceProfileTest, InsertEffectivenessTracksExponentialDelay) {
  world::World w = MakeSimWorld();
  source::SourceSpec spec;
  spec.name = "delayed";
  spec.scope = {0, 1};
  spec.schedule = {1, 0};
  spec.insert_capture = {0.0, 10.0};  // Mean 10-day delay.
  Rng rng(79);
  source::SourceHistory h = source::SimulateSource(w, spec, rng).value();
  SourceProfile profile = LearnSourceProfile(w, h, 500).value();
  // G(tau) ~ 1 - exp(-tau/10) (publication rounds delays up to the next
  // day, shifting the curve slightly left/up; allow slack).
  for (double tau : {5.0, 10.0, 20.0, 40.0}) {
    const double expected = 1.0 - std::exp(-tau / 10.0);
    EXPECT_NEAR(profile.g_insert.Evaluate(tau), expected, 0.08)
        << "tau=" << tau;
  }
}

TEST(SourceProfileTest, LearnerIsCensoredAtT0) {
  // Learn at a very early cutoff: barely any capture is observed yet, so
  // the learned G must be far below the long-run capture probability.
  world::World w = MakeSimWorld();
  source::SourceSpec spec;
  spec.name = "slow";
  spec.scope = {0, 1};
  spec.schedule = {1, 0};
  spec.insert_capture = {0.0, 50.0};  // Very slow captures.
  Rng rng(83);
  source::SourceHistory h = source::SimulateSource(w, spec, rng).value();
  SourceProfile early = LearnSourceProfile(w, h, 30).value();
  SourceProfile late = LearnSourceProfile(w, h, 550).value();
  EXPECT_LT(early.g_insert.FinalValue(), late.g_insert.Evaluate(200.0));
}

TEST(SourceProfileTest, SignaturesBuiltAtT0) {
  world::World w = testing::MakeTestWorld();
  source::SourceHistory s = testing::MakeTestSource(w);
  SourceProfile profile = LearnSourceProfile(w, s, 40).value();
  // Day 40: source holds entities 0 (v2 known at 35 == world v2), 1, 2.
  EXPECT_TRUE(profile.sig_t0.up.Test(0));
  EXPECT_TRUE(profile.sig_t0.up.Test(1));
  EXPECT_TRUE(profile.sig_t0.up.Test(2));
  EXPECT_EQ(profile.sig_t0.all.Count(), 3u);
}

TEST(SourceProfileEffectivenessTest, EquationEightSemantics) {
  SourceProfile profile;
  profile.update_interval = 10.0;
  profile.anchor = 100;
  profile.g_insert =
      stats::StepFunction::FromKnots({{0.0, 0.2}, {5.0, 0.6}, {15.0, 0.9}})
          .value();

  // t = 117 -> latest acquisition at 110. Event at 108: G(110-108)=G(2)=0.2.
  EXPECT_DOUBLE_EQ(profile.Effectiveness(profile.g_insert, 117.0, 108.0),
                   0.2);
  // Event at 104: G(6) = 0.6.
  EXPECT_DOUBLE_EQ(profile.Effectiveness(profile.g_insert, 117.0, 104.0),
                   0.6);
  // Event at 90: G(20) = 0.9.
  EXPECT_DOUBLE_EQ(profile.Effectiveness(profile.g_insert, 117.0, 90.0),
                   0.9);
  // Event after the latest acquisition (112 > 110): nothing published yet.
  EXPECT_DOUBLE_EQ(profile.Effectiveness(profile.g_insert, 117.0, 112.0),
                   0.0);
}

TEST(SourceProfileEffectivenessTest, DivisorCoarsensAcquisition) {
  SourceProfile profile;
  profile.update_interval = 10.0;
  profile.anchor = 100;
  profile.g_insert = stats::StepFunction::FromKnots({{0.0, 1.0}}).value();

  // Divisor 1: acquisition at 110 covers an event at 105 by t=117.
  EXPECT_DOUBLE_EQ(profile.Effectiveness(profile.g_insert, 117.0, 105.0, 1),
                   1.0);
  // Divisor 2: acquisitions at 100, 120 - nothing between 105 and 117.
  EXPECT_DOUBLE_EQ(profile.Effectiveness(profile.g_insert, 117.0, 105.0, 2),
                   0.0);
  // By t=121 the divisor-2 acquisition at 120 has happened.
  EXPECT_DOUBLE_EQ(profile.Effectiveness(profile.g_insert, 121.0, 105.0, 2),
                   1.0);
}

TEST(SourceProfileTest, LearnSourceProfilesBatch) {
  world::World w = testing::MakeTestWorld();
  std::vector<source::SourceHistory> histories;
  histories.push_back(testing::MakeTestSource(w));
  histories.push_back(testing::MakeTestSource(w, /*period=*/2));
  std::vector<SourceProfile> profiles =
      LearnSourceProfiles(w, histories, 60).value();
  ASSERT_EQ(profiles.size(), 2u);
  EXPECT_EQ(profiles[0].name, "test-source");
}

}  // namespace
}  // namespace freshsel::estimation
