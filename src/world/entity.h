#ifndef FRESHSEL_WORLD_ENTITY_H_
#define FRESHSEL_WORLD_ENTITY_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/time_types.h"
#include "world/domain.h"

namespace freshsel::world {

/// Dense global entity identifier; doubles as the bit index in signature
/// BitVectors.
using EntityId = std::uint32_t;

/// Sentinel for "never happened / still alive".
inline constexpr TimePoint kNever = std::numeric_limits<TimePoint>::max();

/// Number of updates with time <= t in `update_times` (0 before any update):
/// the entity's version at t.
inline std::uint32_t VersionAt(std::span<const TimePoint> update_times,
                               TimePoint t) {
  std::uint32_t version = 0;
  for (TimePoint u : update_times) {
    if (u > t) break;
    ++version;
  }
  return version;
}

/// Time of the latest change (appearance at `birth` or update) at or
/// before t. Pre: t >= birth.
inline TimePoint LatestChangeAt(TimePoint birth,
                                std::span<const TimePoint> update_times,
                                TimePoint t) {
  TimePoint latest = birth;
  for (TimePoint u : update_times) {
    if (u > t) break;
    latest = u;
  }
  return latest;
}

/// The ground-truth evolution of one entity in the world.
///
/// The entity is present in the world on days [birth, death); `death` is
/// kNever while alive. `update_times` holds the days of its value changes,
/// strictly increasing, all within [birth, death). The entity's *version* at
/// time t is the number of updates at or before t (version 0 is the value it
/// appeared with).
///
/// The builder form passed to World::AddEntity; the world stores it as an
/// EntityRow plus a slice of its flat update-time array.
struct EntityRecord {
  EntityId id = 0;
  SubdomainId subdomain = 0;
  TimePoint birth = 0;
  TimePoint death = kNever;
  std::vector<TimePoint> update_times;

  bool ExistsAt(TimePoint t) const { return t >= birth && t < death; }

  /// Number of updates with time <= t (0 before any update).
  std::uint32_t VersionAt(TimePoint t) const {
    return world::VersionAt(update_times, t);
  }

  /// Time of the latest change (appearance or update) at or before t.
  /// Pre: t >= birth.
  TimePoint LatestChangeAt(TimePoint t) const {
    return world::LatestChangeAt(birth, update_times, t);
  }
};

/// The stored form of an EntityRecord: its scalar fields only. Its update
/// times live in the owning World's flat array; read them through
/// World::update_times().
struct EntityRow {
  EntityId id = 0;
  SubdomainId subdomain = 0;
  TimePoint birth = 0;
  TimePoint death = kNever;

  bool ExistsAt(TimePoint t) const { return t >= birth && t < death; }
};

/// Kinds of change events in the world (and, mirrored, in sources).
enum class ChangeType : std::uint8_t {
  kAppear = 0,
  kUpdate = 1,
  kDisappear = 2,
};

/// One world change event; the world change log is the time-ordered stream
/// of these (the paper's "evolution of the world").
struct ChangeEvent {
  TimePoint time = 0;
  ChangeType type = ChangeType::kAppear;
  EntityId entity = 0;
  SubdomainId subdomain = 0;
  /// For kUpdate: the version this update produced (1-based). 0 otherwise.
  std::uint32_t version = 0;
};

}  // namespace freshsel::world

#endif  // FRESHSEL_WORLD_ENTITY_H_
