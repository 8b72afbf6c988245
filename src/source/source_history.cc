#include "source/source_history.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/check.h"

namespace freshsel::source {

SourceHistory::SourceHistory(SourceSpec spec, std::size_t world_entity_count)
    : spec_(std::move(spec)), entity_index_(world_entity_count, -1) {}

Status SourceHistory::AddRecord(const CaptureRecord& record) {
  if (record.inserted == world::kNever) return Status::OK();
  if (record.entity >= entity_index_.size()) {
    return Status::InvalidArgument("entity id out of range");
  }
  if (entity_index_[record.entity] >= 0) {
    return Status::InvalidArgument("duplicate capture record for entity");
  }
  if (record.version_captures.size() >
      std::numeric_limits<std::uint32_t>::max() - captures_.size()) {
    return Status::InvalidArgument("too many captures for one source");
  }
  Append({record.entity, record.subdomain, record.inserted, record.deleted},
         record.version_captures);
  return Status::OK();
}

void SourceHistory::Append(CaptureRow row,
                           std::span<const VersionCapture> captures) {
  FRESHSEL_DCHECK(row.entity < entity_index_.size() &&
                  entity_index_[row.entity] < 0);
  row.first_capture = static_cast<std::uint32_t>(captures_.size());
  row.capture_count = static_cast<std::uint32_t>(captures.size());
  captures_.insert(captures_.end(), captures.begin(), captures.end());
  entity_index_[row.entity] = static_cast<std::int32_t>(records_.size());
  records_.push_back(row);
}

const CaptureRow* SourceHistory::Find(world::EntityId entity) const {
  if (entity >= entity_index_.size()) return nullptr;
  const std::int32_t index = entity_index_[entity];
  return index < 0 ? nullptr : &records_[static_cast<std::size_t>(index)];
}

std::int64_t SourceHistory::ContentCountAt(TimePoint t) const {
  std::int64_t count = 0;
  for (const CaptureRow& rec : records_) {
    if (rec.ContainsAt(t)) ++count;
  }
  return count;
}

SourceHistory SourceHistory::RestrictedTo(
    const std::vector<world::SubdomainId>& subdomains,
    const std::string& suffix) const {
  SourceSpec new_spec = spec_;
  new_spec.name += suffix;
  new_spec.scope.clear();
  for (world::SubdomainId sub : spec_.scope) {
    if (std::find(subdomains.begin(), subdomains.end(), sub) !=
        subdomains.end()) {
      new_spec.scope.push_back(sub);
    }
  }
  SourceHistory out(std::move(new_spec), entity_index_.size());
  for (const CaptureRow& rec : records_) {
    if (std::find(subdomains.begin(), subdomains.end(), rec.subdomain) ==
        subdomains.end()) {
      continue;
    }
    out.Append(rec, captures(rec));
  }
  return out;
}

SourceHistory SourceHistory::WithAcquisitionDivisor(
    std::int64_t divisor) const {
  SourceSpec new_spec = spec_;
  new_spec.schedule = spec_.schedule.WithDivisor(divisor);
  SourceHistory out(new_spec, entity_index_.size());
  const UpdateSchedule& acq = new_spec.schedule;
  auto realign = [&](TimePoint day) {
    if (day == world::kNever) return world::kNever;
    return acq.NextUpdateAtOrAfter(day);
  };
  std::vector<VersionCapture> aligned;  // Reused across rows.
  for (const CaptureRow& rec : records_) {
    CaptureRow row{rec.entity, rec.subdomain, world::kNever,
                   realign(rec.deleted)};
    aligned.clear();
    for (const auto& [version, day] : captures(rec)) {
      const TimePoint new_day = realign(day);
      if (new_day >= row.deleted) continue;  // Deleted before acquired.
      aligned.emplace_back(version, new_day);
      row.inserted = std::min(row.inserted, new_day);
    }
    if (row.inserted == world::kNever) continue;  // Never acquired.
    std::sort(aligned.begin(), aligned.end(),
              [](const auto& a, const auto& b) { return a.second < b.second; });
    out.Append(row, aligned);
  }
  return out;
}

}  // namespace freshsel::source
