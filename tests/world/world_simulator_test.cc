#include "world/world_simulator.h"

#include <algorithm>
#include <cstdint>
#include <gtest/gtest.h>

#include <cmath>

namespace freshsel::world {
namespace {

WorldSpec SimpleSpec(double appearance, double disappear, double update,
                     std::uint32_t initial, TimePoint horizon) {
  DataDomain domain = DataDomain::Create("a", 1, "b", 1).value();
  WorldSpec spec{std::move(domain), {}, horizon};
  spec.rates.push_back({appearance, disappear, update, initial});
  return spec;
}

TEST(WorldSimulatorTest, ValidatesSpec) {
  Rng rng(1);
  WorldSpec bad_rates = SimpleSpec(1.0, 0.0, 0.0, 1, 10);
  bad_rates.rates[0].appearance_rate = -1.0;
  EXPECT_FALSE(SimulateWorld(bad_rates, rng).ok());

  WorldSpec bad_horizon = SimpleSpec(1.0, 0.0, 0.0, 1, 0);
  EXPECT_FALSE(SimulateWorld(bad_horizon, rng).ok());

  WorldSpec missing_rates = SimpleSpec(1.0, 0.0, 0.0, 1, 10);
  missing_rates.rates.clear();
  EXPECT_FALSE(SimulateWorld(missing_rates, rng).ok());
}

TEST(WorldSimulatorTest, SeedsInitialPopulation) {
  Rng rng(2);
  World w = SimulateWorld(SimpleSpec(0.0, 0.0, 0.0, 25, 10), rng).value();
  EXPECT_EQ(w.entity_count(), 25u);
  EXPECT_EQ(w.TotalCountAt(0), 25);
  EXPECT_EQ(w.TotalCountAt(10), 25);  // No deaths.
  for (const EntityRow& e : w.entities()) {
    EXPECT_EQ(e.birth, 0);
    EXPECT_EQ(e.death, kNever);
    EXPECT_TRUE(w.update_times(e.id).empty());
  }
}

TEST(WorldSimulatorTest, AppearanceRateMatchesPoisson) {
  Rng rng(3);
  const double lambda = 4.0;
  const TimePoint horizon = 2000;
  World w =
      SimulateWorld(SimpleSpec(lambda, 0.0, 0.0, 0, horizon), rng).value();
  const double per_day =
      static_cast<double>(w.entity_count()) / static_cast<double>(horizon);
  EXPECT_NEAR(per_day, lambda, 0.2);
  // Births only on days 1..horizon.
  for (const EntityRow& e : w.entities()) {
    EXPECT_GE(e.birth, 1);
    EXPECT_LE(e.birth, horizon);
  }
}

TEST(WorldSimulatorTest, LifespanMeanMatchesExponential) {
  Rng rng(4);
  const double gamma = 0.02;  // Mean lifespan 50 days.
  World w =
      SimulateWorld(SimpleSpec(0.0, gamma, 0.0, 20000, 10000), rng).value();
  double total = 0.0;
  for (const EntityRow& e : w.entities()) {
    ASSERT_NE(e.death, kNever);
    total += static_cast<double>(e.death - e.birth);
  }
  const double mean = total / static_cast<double>(w.entity_count());
  // Ceil rounding biases the mean up by ~0.5 day.
  EXPECT_NEAR(mean, 1.0 / gamma + 0.5, 2.0);
}

TEST(WorldSimulatorTest, UpdateGapsMatchRate) {
  Rng rng(5);
  const double gamma_u = 0.1;  // Mean gap 10 days.
  World w =
      SimulateWorld(SimpleSpec(0.0, 0.0, gamma_u, 2000, 500), rng).value();
  std::size_t updates = 0;
  for (const EntityRow& e : w.entities()) {
    updates += w.update_times(e.id).size();
    TimePoint prev = e.birth;
    for (TimePoint u : w.update_times(e.id)) {
      EXPECT_GT(u, prev);
      EXPECT_LE(u, 500);
      prev = u;
    }
  }
  const double updates_per_entity_day =
      static_cast<double>(updates) / (2000.0 * 500.0);
  EXPECT_NEAR(updates_per_entity_day, gamma_u, 0.01);
}

TEST(WorldSimulatorTest, UpdatesPrecedeDeath) {
  Rng rng(6);
  World w =
      SimulateWorld(SimpleSpec(1.0, 0.05, 0.1, 100, 300), rng).value();
  for (const EntityRow& e : w.entities()) {
    for (TimePoint u : w.update_times(e.id)) {
      EXPECT_GT(u, e.birth);
      if (e.death != kNever) {
        EXPECT_LT(u, e.death);
      }
    }
  }
}

TEST(WorldSimulatorTest, DeterministicForSeed) {
  Rng rng_a(77);
  Rng rng_b(77);
  World a = SimulateWorld(SimpleSpec(2.0, 0.01, 0.05, 50, 200), rng_a).value();
  World b = SimulateWorld(SimpleSpec(2.0, 0.01, 0.05, 50, 200), rng_b).value();
  ASSERT_EQ(a.entity_count(), b.entity_count());
  for (std::size_t i = 0; i < a.entity_count(); ++i) {
    EXPECT_EQ(a.entity(i).birth, b.entity(i).birth);
    EXPECT_EQ(a.entity(i).death, b.entity(i).death);
    EXPECT_TRUE(std::ranges::equal(a.update_times(i), b.update_times(i)));
  }
}

TEST(WorldSimulatorTest, MultiSubdomainRatesIndependent) {
  DataDomain domain = DataDomain::Create("a", 2, "b", 1).value();
  WorldSpec spec{std::move(domain), {}, 500};
  spec.rates.push_back({5.0, 0.0, 0.0, 0});  // Busy subdomain.
  spec.rates.push_back({0.5, 0.0, 0.0, 0});  // Quiet subdomain.
  Rng rng(9);
  World w = SimulateWorld(spec, rng).value();
  const double busy = static_cast<double>(w.EntitiesInSubdomain(0).size());
  const double quiet = static_cast<double>(w.EntitiesInSubdomain(1).size());
  EXPECT_NEAR(busy / 500.0, 5.0, 0.5);
  EXPECT_NEAR(quiet / 500.0, 0.5, 0.15);
}

}  // namespace
}  // namespace freshsel::world
