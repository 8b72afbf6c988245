#include "workloads/slice_roster.h"

#include <cstdint>
#include <gtest/gtest.h>

#include <set>

#include "workloads/bl_generator.h"

namespace freshsel::workloads {
namespace {

BlConfig TinyBl() {
  BlConfig config;
  config.locations = 6;
  config.categories = 3;
  config.horizon = 100;
  config.t0 = 60;
  config.scale = 0.3;
  config.n_uniform = 2;
  config.n_location_specialists = 3;
  config.n_category_specialists = 2;
  config.n_medium = 1;
  return config;
}

TEST(SliceRosterTest, OneSlicePerCoveredDimensionValue) {
  Scenario base = GenerateBlScenario(TinyBl()).value();
  SliceRoster roster =
      BuildSliceRoster(base, SliceDimension::kDim1).value();
  ASSERT_FALSE(roster.sources.empty());
  EXPECT_EQ(roster.sources.size(), roster.parent_of.size());
  EXPECT_EQ(roster.sources.size(), roster.dimension_value.size());

  // Every slice covers exactly one location and is drawn from its parent.
  for (std::size_t i = 0; i < roster.sources.size(); ++i) {
    std::set<std::uint32_t> locations;
    for (world::SubdomainId sub : roster.sources[i].spec().scope) {
      locations.insert(base.domain().Dim1Of(sub));
    }
    EXPECT_EQ(locations.size(), 1u);
    EXPECT_EQ(*locations.begin(), roster.dimension_value[i]);
    EXPECT_LT(roster.parent_of[i], base.source_count());
    EXPECT_EQ(roster.classes[i], SourceClass::kMicro);
    // Records subset of the parent's.
    const auto& parent = base.sources[roster.parent_of[i]];
    for (const source::CaptureRow& rec : roster.sources[i].records()) {
      EXPECT_NE(parent.Find(rec.entity), nullptr);
    }
  }
}

TEST(SliceRosterTest, UniformSourcesSliceIntoAllLocations) {
  Scenario base = GenerateBlScenario(TinyBl()).value();
  SliceRoster roster =
      BuildSliceRoster(base, SliceDimension::kDim1).value();
  // Count slices of the first uniform source (parent 0).
  std::size_t slices_of_first = 0;
  for (std::uint32_t parent : roster.parent_of) {
    if (parent == 0) ++slices_of_first;
  }
  EXPECT_EQ(slices_of_first, TinyBl().locations);
}

TEST(SliceRosterTest, Dim2SlicingUsesCategories) {
  Scenario base = GenerateBlScenario(TinyBl()).value();
  SliceRoster roster =
      BuildSliceRoster(base, SliceDimension::kDim2).value();
  for (std::size_t i = 0; i < roster.sources.size(); ++i) {
    std::set<std::uint32_t> categories;
    for (world::SubdomainId sub : roster.sources[i].spec().scope) {
      categories.insert(base.domain().Dim2Of(sub));
    }
    EXPECT_EQ(categories.size(), 1u);
    EXPECT_EQ(*categories.begin(), roster.dimension_value[i]);
  }
}

TEST(SliceRosterTest, SliceUnionPreservesParentContent) {
  Scenario base = GenerateBlScenario(TinyBl()).value();
  SliceRoster roster =
      BuildSliceRoster(base, SliceDimension::kDim1).value();
  // For parent 0, the union of its slices' records equals its records.
  std::size_t slice_records = 0;
  for (std::size_t i = 0; i < roster.sources.size(); ++i) {
    if (roster.parent_of[i] == 0) {
      slice_records += roster.sources[i].records().size();
    }
  }
  EXPECT_EQ(slice_records, base.sources[0].records().size());
}

}  // namespace
}  // namespace freshsel::workloads
