#include <cstdint>
#include <gtest/gtest.h>

#include <set>

#include "workloads/bl_generator.h"
#include "workloads/blplus_generator.h"
#include "workloads/gdelt_generator.h"

namespace freshsel::workloads {
namespace {

BlConfig SmallBl() {
  BlConfig config;
  config.locations = 10;
  config.categories = 3;
  config.horizon = 120;
  config.t0 = 60;
  config.scale = 0.3;
  return config;
}

TEST(BlGeneratorTest, ValidatesScale) {
  BlConfig config = SmallBl();
  config.scale = 0.0;
  EXPECT_FALSE(GenerateBlScenario(config).ok());
}

TEST(BlGeneratorTest, ProducesExpectedRoster) {
  Scenario s = GenerateBlScenario(SmallBl()).value();
  EXPECT_EQ(s.source_count(), SmallBl().TotalSources());
  EXPECT_EQ(s.classes.size(), s.source_count());
  EXPECT_EQ(s.domain().subdomain_count(), 30u);
  EXPECT_EQ(s.t0, 60);
  EXPECT_GT(s.world.entity_count(), 100u);

  // Class mix matches the config.
  std::size_t uniform = 0;
  for (SourceClass c : s.classes) {
    if (c == SourceClass::kUniform) ++uniform;
  }
  EXPECT_EQ(uniform, SmallBl().n_uniform);
}

TEST(BlGeneratorTest, UniformSourcesSpanWholeDomain) {
  Scenario s = GenerateBlScenario(SmallBl()).value();
  for (std::size_t i = 0; i < s.source_count(); ++i) {
    if (s.classes[i] == SourceClass::kUniform) {
      EXPECT_EQ(s.sources[i].spec().scope.size(),
                s.domain().subdomain_count());
    }
  }
}

TEST(BlGeneratorTest, LocationSpecialistsCoverAllCategoriesOfTheirLocations) {
  Scenario s = GenerateBlScenario(SmallBl()).value();
  for (std::size_t i = 0; i < s.source_count(); ++i) {
    if (s.classes[i] != SourceClass::kLocationSpecialist) continue;
    const auto& scope = s.sources[i].spec().scope;
    std::set<std::uint32_t> locations;
    for (world::SubdomainId sub : scope) {
      locations.insert(s.domain().Dim1Of(sub));
    }
    EXPECT_EQ(scope.size(),
              locations.size() * s.domain().dim2_size());
  }
}

TEST(BlGeneratorTest, DeterministicForSeed) {
  Scenario a = GenerateBlScenario(SmallBl()).value();
  Scenario b = GenerateBlScenario(SmallBl()).value();
  EXPECT_EQ(a.world.entity_count(), b.world.entity_count());
  ASSERT_EQ(a.source_count(), b.source_count());
  for (std::size_t i = 0; i < a.source_count(); ++i) {
    EXPECT_EQ(a.sources[i].records().size(), b.sources[i].records().size());
  }
}

TEST(BlGeneratorTest, DifferentSeedsDiffer) {
  BlConfig other = SmallBl();
  other.seed = 1234;
  Scenario a = GenerateBlScenario(SmallBl()).value();
  Scenario b = GenerateBlScenario(other).value();
  EXPECT_NE(a.world.entity_count(), b.world.entity_count());
}

TEST(GdeltGeneratorTest, ProducesDailySources) {
  GdeltConfig config;
  config.locations = 8;
  config.event_types = 4;
  config.n_large = 3;
  config.n_small = 20;
  config.scale = 0.5;
  Scenario s = GenerateGdeltScenario(config).value();
  EXPECT_EQ(s.source_count(), 23u);
  EXPECT_EQ(s.t0, 15);
  for (const auto& source : s.sources) {
    EXPECT_EQ(source.spec().schedule.period, 1);
  }
  // Events never disappear within the window.
  for (const auto& entity : s.world.entities()) {
    EXPECT_EQ(entity.death, world::kNever);
  }
}

TEST(GdeltGeneratorTest, HotLocationIsBusiest) {
  GdeltConfig config;
  config.locations = 8;
  config.event_types = 4;
  config.n_large = 2;
  config.n_small = 5;
  Scenario s = GenerateGdeltScenario(config).value();
  std::int64_t hot = 0;
  std::int64_t rest_max = 0;
  for (std::uint32_t loc = 0; loc < config.locations; ++loc) {
    std::int64_t total = 0;
    for (world::SubdomainId sub : s.domain().SubdomainsInDim1(loc)) {
      total += s.world.CountAt(sub, s.t0);
    }
    if (loc == 0) {
      hot = total;
    } else {
      rest_max = std::max(rest_max, total);
    }
  }
  EXPECT_GT(hot, rest_max);
}

TEST(ScenarioTest, LargestSourcesSortedBySize) {
  Scenario s = GenerateBlScenario(SmallBl()).value();
  std::vector<std::size_t> top = s.LargestSources(5);
  ASSERT_EQ(top.size(), 5u);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(s.sources[top[i - 1]].ContentCountAt(s.t0),
              s.sources[top[i]].ContentCountAt(s.t0));
  }
}

TEST(BlPlusGeneratorTest, RosterSizeMatchesPaperFormula) {
  Scenario base = GenerateBlScenario(SmallBl()).value();
  for (std::uint32_t micro : {0u, 1u, 5u}) {
    MicroRoster roster = GenerateBlPlusRoster(base, micro, 7).value();
    EXPECT_EQ(roster.sources.size(), base.source_count() * (1 + micro));
    EXPECT_EQ(roster.classes.size(), roster.sources.size());
  }
}

TEST(BlPlusGeneratorTest, MicroSourcesAreSlicesOfParents) {
  Scenario base = GenerateBlScenario(SmallBl()).value();
  MicroRoster roster = GenerateBlPlusRoster(base, 3, 7).value();
  // Layout: parent followed by its 3 micro-sources.
  for (std::size_t i = 0; i < roster.sources.size(); i += 4) {
    const auto& parent = roster.sources[i];
    EXPECT_NE(roster.classes[i], SourceClass::kMicro);
    std::set<world::SubdomainId> parent_scope(parent.spec().scope.begin(),
                                              parent.spec().scope.end());
    for (std::size_t m = 1; m <= 3; ++m) {
      const auto& micro = roster.sources[i + m];
      EXPECT_EQ(roster.classes[i + m], SourceClass::kMicro);
      // Scope is a strict subset of the parent's.
      EXPECT_LT(micro.spec().scope.size(), parent.spec().scope.size() + 1);
      for (world::SubdomainId sub : micro.spec().scope) {
        EXPECT_TRUE(parent_scope.count(sub) > 0);
      }
      // Records are a subset of the parent's records.
      EXPECT_LE(micro.records().size(), parent.records().size());
      for (const source::CaptureRow& rec : micro.records()) {
        EXPECT_NE(parent.Find(rec.entity), nullptr);
      }
    }
  }
}

TEST(BlPlusGeneratorTest, MicroLocationFractionInRange) {
  Scenario base = GenerateBlScenario(SmallBl()).value();
  MicroRoster roster = GenerateBlPlusRoster(base, 2, 11).value();
  for (std::size_t i = 0; i < roster.sources.size(); ++i) {
    if (roster.classes[i] != SourceClass::kMicro) continue;
    // Find the parent (previous non-micro entry).
    std::size_t p = i;
    while (roster.classes[p] == SourceClass::kMicro) --p;
    std::set<std::uint32_t> parent_locs;
    for (world::SubdomainId sub : roster.sources[p].spec().scope) {
      parent_locs.insert(base.domain().Dim1Of(sub));
    }
    std::set<std::uint32_t> micro_locs;
    for (world::SubdomainId sub : roster.sources[i].spec().scope) {
      micro_locs.insert(base.domain().Dim1Of(sub));
    }
    const double fraction = static_cast<double>(micro_locs.size()) /
                            static_cast<double>(parent_locs.size());
    EXPECT_GE(fraction, 0.1);
    EXPECT_LE(fraction, 0.65);
  }
}

TEST(SourceClassNameTest, NamesAreStable) {
  EXPECT_STREQ(SourceClassName(SourceClass::kUniform), "uniform");
  EXPECT_STREQ(SourceClassName(SourceClass::kMicro), "micro");
}

}  // namespace
}  // namespace freshsel::workloads
