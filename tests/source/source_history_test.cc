#include "source/source_history.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "testing/test_world.h"

namespace freshsel::source {
namespace {

TEST(CaptureRecordTest, ContainsAt) {
  CaptureRecord rec;
  rec.inserted = 5;
  rec.deleted = 20;
  EXPECT_FALSE(rec.ContainsAt(4));
  EXPECT_TRUE(rec.ContainsAt(5));
  EXPECT_TRUE(rec.ContainsAt(19));
  EXPECT_FALSE(rec.ContainsAt(20));
}

TEST(CaptureRecordTest, KnownVersionAtTakesMaxCaptured) {
  CaptureRecord rec;
  rec.inserted = 0;
  rec.version_captures = {{0, 0}, {2, 10}, {1, 15}};  // v1 arrives late.
  EXPECT_EQ(rec.KnownVersionAt(5), 0u);
  EXPECT_EQ(rec.KnownVersionAt(10), 2u);
  EXPECT_EQ(rec.KnownVersionAt(20), 2u);  // Late v1 does not downgrade.
}

TEST(SourceHistoryTest, AddAndFind) {
  world::World w = testing::MakeTestWorld();
  SourceHistory history = testing::MakeTestSource(w);
  EXPECT_EQ(history.records().size(), 3u);
  EXPECT_NE(history.Find(0), nullptr);
  EXPECT_NE(history.Find(1), nullptr);
  EXPECT_EQ(history.Find(3), nullptr);
  EXPECT_EQ(history.Find(999), nullptr);
}

TEST(SourceHistoryTest, RejectsDuplicatesAndOutOfRange) {
  SourceSpec spec;
  spec.name = "s";
  SourceHistory history(spec, 3);
  CaptureRecord rec;
  rec.entity = 1;
  rec.inserted = 0;
  EXPECT_TRUE(history.AddRecord(rec).ok());
  EXPECT_FALSE(history.AddRecord(rec).ok());  // Duplicate.
  CaptureRecord out_of_range;
  out_of_range.entity = 10;
  out_of_range.inserted = 0;
  EXPECT_FALSE(history.AddRecord(out_of_range).ok());
}

TEST(SourceHistoryTest, SkipsNeverInsertedRecords) {
  SourceSpec spec;
  SourceHistory history(spec, 3);
  CaptureRecord rec;
  rec.entity = 0;
  rec.inserted = world::kNever;
  EXPECT_TRUE(history.AddRecord(rec).ok());
  EXPECT_EQ(history.records().size(), 0u);
  EXPECT_EQ(history.Find(0), nullptr);
}

TEST(SourceHistoryTest, ContentCountAt) {
  world::World w = testing::MakeTestWorld();
  SourceHistory history = testing::MakeTestSource(w);
  EXPECT_EQ(history.ContentCountAt(0), 1);   // Entity 1 from day 0.
  EXPECT_EQ(history.ContentCountAt(2), 2);   // + entity 0.
  EXPECT_EQ(history.ContentCountAt(10), 3);  // + entity 2 (day 8).
  EXPECT_EQ(history.ContentCountAt(60), 2);  // Entity 0 deleted at 55.
}

TEST(SourceHistoryTest, WithAcquisitionDivisorAlignsCaptures) {
  world::World w = testing::MakeTestWorld();
  SourceHistory history = testing::MakeTestSource(w, /*period=*/1);
  SourceHistory slower = history.WithAcquisitionDivisor(10);
  EXPECT_EQ(slower.schedule().period, 10);

  // Entity 0's v1 capture at day 12 realigns to day 20.
  const CaptureRow* rec = slower.Find(0);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(slower.KnownVersionAt(*rec, 19), 0u);
  EXPECT_EQ(slower.KnownVersionAt(*rec, 20), 1u);
  // Deletion at 55 realigns to 60.
  EXPECT_TRUE(rec->ContainsAt(59));
  EXPECT_FALSE(rec->ContainsAt(60));
}

TEST(SourceHistoryTest, DivisorNeverAcceleratesCaptures) {
  world::World w = testing::MakeTestWorld();
  SourceHistory history = testing::MakeTestSource(w);
  SourceHistory slower = history.WithAcquisitionDivisor(7);
  for (const CaptureRow& rec : history.records()) {
    const CaptureRow* slow = slower.Find(rec.entity);
    if (slow == nullptr) continue;  // Dropped entirely: fine.
    EXPECT_GE(slow->inserted, rec.inserted);
    if (rec.deleted != world::kNever && slow->deleted != world::kNever) {
      EXPECT_GE(slow->deleted, rec.deleted);
    }
  }
}

TEST(SourceHistoryTest, DivisorDropsCapturesAfterDeletion) {
  // Build a record where realignment pushes an update past the deletion.
  SourceSpec spec;
  spec.schedule.period = 1;
  SourceHistory history(spec, 1);
  CaptureRecord rec;
  rec.entity = 0;
  rec.inserted = 0;
  rec.deleted = 12;
  rec.version_captures = {{0, 0}, {1, 11}};
  ASSERT_TRUE(history.AddRecord(rec).ok());
  // Divisor 10: acquisition days 0, 10, 20. v1 at 11 -> 20, delete 12 -> 20.
  SourceHistory slower = history.WithAcquisitionDivisor(10);
  const CaptureRow* slow = slower.Find(0);
  ASSERT_NE(slow, nullptr);
  EXPECT_EQ(slower.captures(*slow).size(), 1u);  // v1 dropped.
  EXPECT_EQ(slow->deleted, 20);
}

TEST(SourceHistoryTest, RestrictedToFiltersBySubdomain) {
  world::World w = testing::MakeTestWorld();
  SourceHistory history = testing::MakeTestSource(w);
  // Scope of the test source is {0, 1}; entities 0, 1 live in sub 0 and
  // entity 2 in sub 1.
  SourceHistory slice = history.RestrictedTo({0}, "-slice");
  EXPECT_EQ(slice.records().size(), 2u);
  EXPECT_NE(slice.Find(0), nullptr);
  EXPECT_NE(slice.Find(1), nullptr);
  EXPECT_EQ(slice.Find(2), nullptr);
  EXPECT_EQ(slice.spec().scope, (std::vector<world::SubdomainId>{0}));
  EXPECT_EQ(slice.name(), "test-source-slice");
}

TEST(SourceHistoryTest, RestrictedToDisjointSubdomainsIsEmpty) {
  world::World w = testing::MakeTestWorld();
  SourceHistory history = testing::MakeTestSource(w);
  SourceHistory slice = history.RestrictedTo({2, 3}, "-x");
  EXPECT_EQ(slice.records().size(), 0u);
  EXPECT_TRUE(slice.spec().scope.empty());
}

// The stored captures of `row` as a vector, for EXPECT_EQ against a fixture.
std::vector<VersionCapture> CapturesOf(const SourceHistory& history,
                                       const CaptureRow& row) {
  const std::span<const VersionCapture> captures = history.captures(row);
  return {captures.begin(), captures.end()};
}

CaptureRecord MakeRecord(world::EntityId entity, world::SubdomainId sub,
                         TimePoint inserted, TimePoint deleted,
                         std::vector<VersionCapture> captures) {
  CaptureRecord rec;
  rec.entity = entity;
  rec.subdomain = sub;
  rec.inserted = inserted;
  rec.deleted = deleted;
  rec.version_captures = std::move(captures);
  return rec;
}

TEST(SourceHistoryTest, FlatStorageHoldsExactlyTheStoredCaptures) {
  SourceSpec spec;
  SourceHistory history(spec, 6);
  // Out of entity order, with a skipped, a duplicate and an out-of-range
  // record in between.
  ASSERT_TRUE(history.AddRecord(MakeRecord(4, 1, 3, 40, {{0, 3}, {1, 9}}))
                  .ok());
  ASSERT_TRUE(
      history.AddRecord(MakeRecord(0, 0, world::kNever, world::kNever,
                                   {{0, 5}, {1, 6}, {2, 7}}))
          .ok());  // Never inserted: skipped.
  ASSERT_TRUE(history.AddRecord(MakeRecord(1, 0, 0, world::kNever,
                                           {{0, 0}, {2, 11}, {1, 14}}))
                  .ok());
  EXPECT_FALSE(
      history.AddRecord(MakeRecord(4, 1, 2, world::kNever, {{0, 2}})).ok());
  EXPECT_FALSE(history.AddRecord(MakeRecord(6, 0, 1, 2, {{0, 1}})).ok());
  ASSERT_TRUE(history.AddRecord(MakeRecord(2, 1, 8, 20, {})).ok());

  ASSERT_EQ(history.records().size(), 3u);
  EXPECT_EQ(history.Find(0), nullptr);
  EXPECT_EQ(history.Find(3), nullptr);
  EXPECT_EQ(history.Find(5), nullptr);
  const CaptureRow* four = history.Find(4);
  const CaptureRow* one = history.Find(1);
  const CaptureRow* two = history.Find(2);
  ASSERT_NE(four, nullptr);
  ASSERT_NE(one, nullptr);
  ASSERT_NE(two, nullptr);
  EXPECT_EQ(four->subdomain, 1u);
  EXPECT_EQ(four->inserted, 3);
  EXPECT_EQ(four->deleted, 40);
  EXPECT_EQ(CapturesOf(history, *four),
            (std::vector<VersionCapture>{{0, 3}, {1, 9}}));
  EXPECT_EQ(CapturesOf(history, *one),
            (std::vector<VersionCapture>{{0, 0}, {2, 11}, {1, 14}}));
  EXPECT_TRUE(history.captures(*two).empty());
  EXPECT_EQ(history.KnownVersionAt(*one, 13), 2u);

  // The rows tile the flat array in insertion order: no capture of a
  // skipped or rejected record sits between them.
  std::uint32_t next = 0;
  for (const CaptureRow& row : history.records()) {
    EXPECT_EQ(row.first_capture, next);
    next += row.capture_count;
  }
  EXPECT_EQ(next, 5u);
}

TEST(SourceHistoryTest, MovedHistoryKeepsValidSpans) {
  world::World w = testing::MakeTestWorld();
  SourceHistory history = testing::MakeTestSource(w);
  SourceHistory moved(std::move(history));
  ASSERT_NE(moved.Find(0), nullptr);
  EXPECT_EQ(CapturesOf(moved, *moved.Find(0)),
            (std::vector<VersionCapture>{{0, 2}, {1, 12}, {2, 35}}));
  SourceHistory assigned(SourceSpec{}, 0);
  assigned = std::move(moved);
  ASSERT_NE(assigned.Find(1), nullptr);
  EXPECT_EQ(CapturesOf(assigned, *assigned.Find(1)),
            (std::vector<VersionCapture>{{0, 0}, {1, 25}}));
  EXPECT_EQ(assigned.KnownVersionAt(*assigned.Find(0), 40), 2u);
}

TEST(SourceHistoryTest, RestrictedToMatchesHandFixture) {
  world::World w = testing::MakeTestWorld();
  SourceHistory slice = testing::MakeTestSource(w).RestrictedTo({1}, "-s");
  ASSERT_EQ(slice.records().size(), 1u);
  const CaptureRow* two = slice.Find(2);
  ASSERT_NE(two, nullptr);
  EXPECT_EQ(two->subdomain, 1u);
  EXPECT_EQ(two->inserted, 8);
  EXPECT_EQ(two->deleted, world::kNever);
  EXPECT_EQ(CapturesOf(slice, *two), (std::vector<VersionCapture>{{0, 8}}));
  EXPECT_EQ(two->first_capture, 0u);  // Only the kept captures are copied.
}

TEST(SourceHistoryTest, WithAcquisitionDivisorMatchesHandFixture) {
  world::World w = testing::MakeTestWorld();
  // Period 1 divided by 10: acquisitions on days 0, 10, 20, ...
  SourceHistory slower =
      testing::MakeTestSource(w, /*period=*/1).WithAcquisitionDivisor(10);
  ASSERT_EQ(slower.records().size(), 3u);
  const CaptureRow* zero = slower.Find(0);
  const CaptureRow* one = slower.Find(1);
  const CaptureRow* two = slower.Find(2);
  ASSERT_NE(zero, nullptr);
  ASSERT_NE(one, nullptr);
  ASSERT_NE(two, nullptr);
  EXPECT_EQ(zero->inserted, 10);
  EXPECT_EQ(zero->deleted, 60);
  EXPECT_EQ(CapturesOf(slower, *zero),
            (std::vector<VersionCapture>{{0, 10}, {1, 20}, {2, 40}}));
  EXPECT_EQ(one->inserted, 0);
  EXPECT_EQ(one->deleted, world::kNever);
  EXPECT_EQ(CapturesOf(slower, *one),
            (std::vector<VersionCapture>{{0, 0}, {1, 30}}));
  EXPECT_EQ(two->inserted, 10);
  EXPECT_EQ(CapturesOf(slower, *two), (std::vector<VersionCapture>{{0, 10}}));
}

}  // namespace
}  // namespace freshsel::source
