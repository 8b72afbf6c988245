#ifndef FRESHSEL_SOURCE_SOURCE_HISTORY_H_
#define FRESHSEL_SOURCE_SOURCE_HISTORY_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/time_types.h"
#include "source/source_spec.h"
#include "world/entity.h"

namespace freshsel::source {

/// A (world version, capture day) pair: the source learned the version on
/// that day. Version 0 is the appearance value.
using VersionCapture = std::pair<std::uint32_t, TimePoint>;

/// Highest world version known at t (the version displayed) given captures
/// sorted by day. A version captured late never downgrades a newer one.
inline std::uint32_t KnownVersionAt(std::span<const VersionCapture> captures,
                                    TimePoint t) {
  std::uint32_t version = 0;
  for (const auto& [v, day] : captures) {
    if (day > t) break;
    if (v > version) version = v;
  }
  return version;
}

/// The full observed stream of one source: when each world change was
/// captured and published by the source. This is the "daily snapshots"
/// substrate of the paper — the source's content at any day t is derivable
/// from these capture times.
///
/// The builder form passed to SourceHistory::AddRecord; the history stores
/// it as a CaptureRow plus a slice of its flat capture array.
struct CaptureRecord {
  world::EntityId entity = 0;
  /// Subdomain of the entity (an observable attribute of the data item,
  /// e.g. a listing's (location, category) pair).
  world::SubdomainId subdomain = 0;
  /// Day the entity first appeared in the source's content; world::kNever if
  /// the source never picked it up.
  TimePoint inserted = world::kNever;
  /// Day the source removed the entity; world::kNever if never removed.
  TimePoint deleted = world::kNever;
  /// The value versions the source captured, sorted by capture day.
  std::vector<VersionCapture> version_captures;

  bool ContainsAt(TimePoint t) const { return inserted <= t && t < deleted; }

  /// Highest world version the source knows at t (the version it displays).
  /// Pre: ContainsAt(t).
  std::uint32_t KnownVersionAt(TimePoint t) const {
    return source::KnownVersionAt(version_captures, t);
  }
};

/// The stored form of a CaptureRecord: its scalar fields, and where its
/// captures lie in the owning history's flat capture array. Holds no heap
/// member; read the captures through SourceHistory::captures().
struct CaptureRow {
  world::EntityId entity = 0;
  world::SubdomainId subdomain = 0;
  TimePoint inserted = world::kNever;
  TimePoint deleted = world::kNever;
  std::uint32_t first_capture = 0;
  std::uint32_t capture_count = 0;

  bool ContainsAt(TimePoint t) const { return inserted <= t && t < deleted; }
};

/// A source's complete simulated (or replayed) history plus its ground-truth
/// spec. Entity lookups are O(1) via a dense index over world entity ids.
///
/// Storage is compressed sparse rows: one CaptureRow per carried entity and
/// one flat array holding every row's captures back to back, so a history
/// is a handful of allocations however many rows it has.
class SourceHistory {
 public:
  /// `world_entity_count` sizes the entity -> record index.
  SourceHistory(SourceSpec spec, std::size_t world_entity_count);

  const SourceSpec& spec() const { return spec_; }
  const std::string& name() const { return spec_.name; }
  const UpdateSchedule& schedule() const { return spec_.schedule; }

  /// Adds a capture record; entries with inserted == kNever are skipped
  /// (entity never made it into the source). Returns InvalidArgument on a
  /// duplicate or out-of-range entity. A skipped or rejected record stores
  /// nothing.
  Status AddRecord(const CaptureRecord& record);

  const std::vector<CaptureRow>& records() const { return records_; }

  /// nullptr when the source never carried `entity`.
  const CaptureRow* Find(world::EntityId entity) const;

  /// The captures of `row`, sorted by day. Pre: `row` is one of records().
  std::span<const VersionCapture> captures(const CaptureRow& row) const {
    return {captures_.data() + row.first_capture, row.capture_count};
  }

  /// Highest world version the source knows at t for `row`.
  /// Pre: row.ContainsAt(t).
  std::uint32_t KnownVersionAt(const CaptureRow& row, TimePoint t) const {
    return source::KnownVersionAt(captures(row), t);
  }

  bool ContainsAt(world::EntityId entity, TimePoint t) const {
    const CaptureRow* rec = Find(entity);
    return rec != nullptr && rec->ContainsAt(t);
  }

  /// Number of entities in the source's content at day t.
  std::int64_t ContentCountAt(TimePoint t) const;

  /// The micro-source covering only `subdomains` (the slice decomposition
  /// of Definition 5 / the BL+ datasets): keeps the records whose entity
  /// lies in the given subdomains, with the scope restricted accordingly
  /// and `suffix` appended to the name.
  SourceHistory RestrictedTo(const std::vector<world::SubdomainId>& subdomains,
                             const std::string& suffix) const;

  /// Re-aligns every capture day to the coarser acquisition schedule of
  /// taking only every `divisor`-th source update: the history an integrator
  /// sees when it deliberately acquires the source at frequency f_S/divisor
  /// (Example 4 / Definition 4). Pre: divisor >= 1.
  SourceHistory WithAcquisitionDivisor(std::int64_t divisor) const;

  std::size_t world_entity_count() const { return entity_index_.size(); }

 private:
  /// Stores `row` (its capture fields are overwritten) with `captures`.
  /// Pre: row.entity is in range and not yet stored.
  void Append(CaptureRow row, std::span<const VersionCapture> captures);

  SourceSpec spec_;
  std::vector<CaptureRow> records_;
  std::vector<VersionCapture> captures_;    // Every row's captures, in order.
  std::vector<std::int32_t> entity_index_;  // entity id -> records_ index.
};

}  // namespace freshsel::source

#endif  // FRESHSEL_SOURCE_SOURCE_HISTORY_H_
