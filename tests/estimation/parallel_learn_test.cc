// LearnSourceProfilesRobust fits its sources in parallel; these tests pin it
// bit for bit to a serial loop of LearnSourceProfile followed by the
// documented strict / degrade rules, on the BL fixture and on rosters with
// unfittable sources.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "estimation/degradation.h"
#include "estimation/source_profile.h"
#include "obs/macros.h"
#include "obs/trace.h"
#include "testing/test_world.h"
#include "workloads/bl_generator.h"

namespace freshsel::estimation {
namespace {

std::uint64_t Bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void ExpectStepBitEqual(const stats::StepFunction& a,
                        const stats::StepFunction& b) {
  EXPECT_EQ(Bits(a.initial()), Bits(b.initial()));
  ASSERT_EQ(a.knots().size(), b.knots().size());
  for (std::size_t k = 0; k < a.knots().size(); ++k) {
    EXPECT_EQ(Bits(a.knots()[k].first), Bits(b.knots()[k].first));
    EXPECT_EQ(Bits(a.knots()[k].second), Bits(b.knots()[k].second));
  }
}

void ExpectProfileBitEqual(const SourceProfile& a, const SourceProfile& b) {
  SCOPED_TRACE(a.name);
  EXPECT_EQ(a.name, b.name);
  EXPECT_TRUE(a.sig_t0.up == b.sig_t0.up);
  EXPECT_TRUE(a.sig_t0.cov == b.sig_t0.cov);
  EXPECT_TRUE(a.sig_t0.all == b.sig_t0.all);
  EXPECT_EQ(a.observed_scope, b.observed_scope);
  EXPECT_EQ(Bits(a.update_interval), Bits(b.update_interval));
  EXPECT_EQ(a.anchor, b.anchor);
  ExpectStepBitEqual(a.g_insert, b.g_insert);
  ExpectStepBitEqual(a.g_update, b.g_update);
  ExpectStepBitEqual(a.g_delete, b.g_delete);
}

/// The serial reference: one LearnSourceProfile per source in roster order,
/// then the strict / degrade rules of degradation.h.
Result<RobustProfiles> LearnSerially(
    const world::World& world,
    const std::vector<source::SourceHistory>& histories, TimePoint t0,
    DegradationMode mode) {
  RobustProfiles out;
  out.report.total_sources = histories.size();
  std::vector<SourceProfileFitStats> stats(histories.size());
  for (std::size_t i = 0; i < histories.size(); ++i) {
    FRESHSEL_ASSIGN_OR_RETURN(
        SourceProfile profile,
        LearnSourceProfile(world, histories[i], t0, &stats[i]));
    out.profiles.push_back(std::move(profile));
  }
  std::vector<std::size_t> unfittable;
  std::vector<const SourceProfile*> fitted;
  for (std::size_t i = 0; i < histories.size(); ++i) {
    if (stats[i].fittable()) {
      fitted.push_back(&out.profiles[i]);
    } else {
      unfittable.push_back(i);
    }
  }
  if (unfittable.empty()) return out;
  if (mode == DegradationMode::kStrict) {
    std::ostringstream msg;
    msg << "strict mode: " << unfittable.size()
        << " source(s) have no observed capture event by t0=" << t0 << ":";
    for (std::size_t i : unfittable) msg << ' ' << histories[i].name();
    msg << " (rerun in degrade mode to substitute subdomain priors)";
    return Status::FailedPrecondition(msg.str());
  }
  std::vector<SourceProfile> priors;
  for (std::size_t i : unfittable) {
    const std::vector<world::SubdomainId>& declared =
        histories[i].spec().scope;
    const std::set<world::SubdomainId> lookup(declared.begin(),
                                              declared.end());
    std::vector<const SourceProfile*> peers;
    for (const SourceProfile* peer : fitted) {
      for (world::SubdomainId sub : peer->observed_scope) {
        if (lookup.count(sub) > 0) {
          peers.push_back(peer);
          break;
        }
      }
    }
    if (peers.empty()) peers = fitted;
    priors.push_back(MakePriorProfile(out.profiles[i], declared, peers, t0));
    std::ostringstream reason;
    reason << "no observed capture event by t0 (" << stats[i].total_samples()
           << " censored sample(s)); ";
    if (peers.empty()) {
      reason << "no fitted peers - zero-effectiveness profile retained";
    } else {
      reason << "substituted subdomain-prior profile from " << peers.size()
             << " fitted peer(s)";
    }
    out.report.degraded.push_back(
        DegradedSource{i, histories[i].name(), reason.str()});
  }
  for (std::size_t k = 0; k < unfittable.size(); ++k) {
    out.profiles[unfittable[k]] = std::move(priors[k]);
  }
  return out;
}

void ExpectSameAsSerial(const world::World& world,
                        const std::vector<source::SourceHistory>& histories,
                        TimePoint t0, DegradationMode mode) {
  SCOPED_TRACE(DegradationModeName(mode));
  const Result<RobustProfiles> serial =
      LearnSerially(world, histories, t0, mode);
  // Repeats give the scheduler several chances to reorder the fits.
  for (int repeat = 0; repeat < 5; ++repeat) {
    const Result<RobustProfiles> parallel =
        LearnSourceProfilesRobust(world, histories, t0, mode);
    ASSERT_EQ(parallel.status().ToString(), serial.status().ToString());
    if (!serial.ok()) continue;
    ASSERT_EQ(parallel->profiles.size(), serial->profiles.size());
    for (std::size_t i = 0; i < serial->profiles.size(); ++i) {
      ExpectProfileBitEqual(parallel->profiles[i], serial->profiles[i]);
    }
    EXPECT_EQ(parallel->report.total_sources, serial->report.total_sources);
    ASSERT_EQ(parallel->report.degraded.size(),
              serial->report.degraded.size());
    for (std::size_t d = 0; d < serial->report.degraded.size(); ++d) {
      EXPECT_EQ(parallel->report.degraded[d].index,
                serial->report.degraded[d].index);
      EXPECT_EQ(parallel->report.degraded[d].name,
                serial->report.degraded[d].name);
      EXPECT_EQ(parallel->report.degraded[d].reason,
                serial->report.degraded[d].reason);
    }
  }
}

workloads::Scenario SmallBlScenario() {
  workloads::BlConfig config;
  config.scale = 0.05;
  return workloads::GenerateBlScenario(config).value();
}

source::SourceHistory DeadSource(const world::World& w, std::string name,
                                 std::vector<world::SubdomainId> scope) {
  source::SourceSpec spec;
  spec.name = std::move(name);
  spec.scope = std::move(scope);
  spec.schedule = {1, 0};
  return source::SourceHistory(spec, w.entity_count());
}

TEST(ParallelLearnTest, BlRosterMatchesSerialLoop) {
  const workloads::Scenario scenario = SmallBlScenario();
  ASSERT_EQ(scenario.sources.size(), 43u);
  for (DegradationMode mode :
       {DegradationMode::kStrict, DegradationMode::kDegrade}) {
    ExpectSameAsSerial(scenario.world, scenario.sources, scenario.t0, mode);
  }
}

TEST(ParallelLearnTest, UnfittableRosterMatchesSerialLoop) {
  workloads::Scenario scenario = SmallBlScenario();
  std::vector<source::SourceHistory> roster;
  const std::size_t n = scenario.sources.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 7 == 3) {
      roster.push_back(DeadSource(scenario.world,
                                  "dead-" + std::to_string(i),
                                  scenario.sources[i].spec().scope));
    }
    roster.push_back(std::move(scenario.sources[i]));
  }
  roster.push_back(DeadSource(scenario.world, "dead-none", {}));
  for (DegradationMode mode :
       {DegradationMode::kStrict, DegradationMode::kDegrade}) {
    ExpectSameAsSerial(scenario.world, roster, scenario.t0, mode);
  }
}

TEST(ParallelLearnTest, SmallRostersMatchSerialLoop) {
  const world::World w = testing::MakeTestWorld();
  const std::vector<std::vector<source::SourceHistory>> rosters = {
      {},
      {testing::MakeTestSource(w)},
      {DeadSource(w, "dead", {0})},
      {testing::MakeTestSource(w), DeadSource(w, "dead-a", {0, 1}),
       testing::MakeTestSource(w, /*period=*/3), DeadSource(w, "dead-b", {3})},
  };
  for (const std::vector<source::SourceHistory>& roster : rosters) {
    for (DegradationMode mode :
         {DegradationMode::kStrict, DegradationMode::kDegrade}) {
      ExpectSameAsSerial(w, roster, 70, mode);
    }
  }
}

TEST(ParallelLearnTest, InvalidCutoffFailsLikeSerialLoop) {
  const world::World w = testing::MakeTestWorld();
  const std::vector<source::SourceHistory> roster = {
      testing::MakeTestSource(w), testing::MakeTestSource(w)};
  ExpectSameAsSerial(w, roster, 0, DegradationMode::kDegrade);
  ExpectSameAsSerial(w, roster, w.horizon() + 1, DegradationMode::kStrict);
}

#if FRESHSEL_OBS_ACTIVE

TEST(ParallelLearnTest, PerSourceSpansNestUnderTheRosterSpan) {
  const workloads::Scenario scenario = SmallBlScenario();
  obs::ClearTrace();
  obs::SetTraceEnabled(true);
  const Result<RobustProfiles> robust = LearnSourceProfilesRobust(
      scenario.world, scenario.sources, scenario.t0,
      DegradationMode::kDegrade);
  obs::SetTraceEnabled(false);
  ASSERT_TRUE(robust.ok()) << robust.status().ToString();
  const std::vector<obs::TraceEvent> events = obs::CollectTrace();
  std::uint64_t roster_span = 0;
  for (const obs::TraceEvent& event : events) {
    if (std::string_view(event.name) == "estimation/learn_profiles_robust") {
      roster_span = event.id;
    }
  }
  ASSERT_NE(roster_span, 0u);
  std::size_t source_spans = 0;
  for (const obs::TraceEvent& event : events) {
    if (std::string_view(event.name) == "estimation/learn_source") {
      ++source_spans;
      EXPECT_EQ(event.parent, roster_span);
    }
  }
  EXPECT_EQ(source_spans, scenario.sources.size());
  obs::ClearTrace();
}

#endif  // FRESHSEL_OBS_ACTIVE

}  // namespace
}  // namespace freshsel::estimation
