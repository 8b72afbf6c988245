#include "metrics/quality.h"

#include <cstdint>

#include "common/check.h"

namespace freshsel::metrics {

QualityMetrics MetricsFromCounts(const QualityCounts& counts) {
  QualityMetrics m;
  if (counts.world_total > 0) {
    m.coverage = static_cast<double>(counts.covered) /
                 static_cast<double>(counts.world_total);
    m.global_freshness = static_cast<double>(counts.up) /
                         static_cast<double>(counts.world_total);
  }
  if (counts.in_result > 0) {
    m.local_freshness = static_cast<double>(counts.up) /
                        static_cast<double>(counts.in_result);
  }
  // |F union Omega| = |Omega| + (entities in F but not in Omega).
  const std::int64_t union_size =
      counts.world_total + (counts.in_result - counts.covered);
  if (union_size > 0) {
    m.accuracy =
        static_cast<double>(counts.up) / static_cast<double>(union_size);
  }
  // Count-derived ratios are probabilities by construction (up <= covered
  // <= world_total and up <= in_result); a violation means corrupt counts.
  FRESHSEL_DCHECK_PROB(m.coverage);
  FRESHSEL_DCHECK_PROB(m.global_freshness);
  FRESHSEL_DCHECK_PROB(m.local_freshness);
  FRESHSEL_DCHECK_PROB(m.accuracy);
  return m;
}

QualityCounts ComputeCounts(
    const world::World& world,
    const std::vector<const source::SourceHistory*>& sources, TimePoint t,
    const BitVector* mask, std::int64_t mask_world_total) {
  BitVector up(world.entity_count());
  BitVector cov(world.entity_count());
  BitVector all(world.entity_count());
  for (const source::SourceHistory* history : sources) {
    integration::SourceSignatures sig =
        integration::BuildSignatures(world, *history, t);
    up.OrWith(sig.up);
    cov.OrWith(sig.cov);
    all.OrWith(sig.all);
  }
  QualityCounts counts;
  if (mask != nullptr) {
    counts.up = static_cast<std::int64_t>(up.IntersectCount(*mask));
    counts.covered = static_cast<std::int64_t>(cov.IntersectCount(*mask));
    counts.in_result = static_cast<std::int64_t>(all.IntersectCount(*mask));
    counts.world_total = mask_world_total >= 0
                             ? mask_world_total
                             : world.TotalCountAt(t);
  } else {
    counts.up = static_cast<std::int64_t>(up.Count());
    counts.covered = static_cast<std::int64_t>(cov.Count());
    counts.in_result = static_cast<std::int64_t>(all.Count());
    counts.world_total = world.TotalCountAt(t);
  }
  return counts;
}

QualityMetrics SourceQualityAt(const world::World& world,
                               const source::SourceHistory& history,
                               TimePoint t) {
  return MetricsFromCounts(ComputeCounts(world, {&history}, t));
}

QualityCounts CountsFromSignatures(
    const std::vector<const integration::SourceSignatures*>& signatures,
    std::int64_t world_total, const BitVector* mask) {
  QualityCounts counts;
  counts.world_total = world_total;
  if (signatures.empty()) return counts;
  const std::size_t width = signatures[0]->all.size();
  BitVector up(width);
  BitVector cov(width);
  BitVector all(width);
  for (const integration::SourceSignatures* sig : signatures) {
    up.OrWith(sig->up);
    cov.OrWith(sig->cov);
    all.OrWith(sig->all);
  }
  if (mask != nullptr) {
    counts.up = static_cast<std::int64_t>(up.IntersectCount(*mask));
    counts.covered = static_cast<std::int64_t>(cov.IntersectCount(*mask));
    counts.in_result = static_cast<std::int64_t>(all.IntersectCount(*mask));
  } else {
    counts.up = static_cast<std::int64_t>(up.Count());
    counts.covered = static_cast<std::int64_t>(cov.Count());
    counts.in_result = static_cast<std::int64_t>(all.Count());
  }
  return counts;
}

double AverageLocalFreshness(const world::World& world,
                             const source::SourceHistory& history,
                             const TimeWindow& window) {
  double total = 0.0;
  std::int64_t days = 0;
  for (TimePoint t = window.first(); t <= window.last(); ++t) {
    QualityMetrics m = SourceQualityAt(world, history, t);
    total += m.local_freshness;
    ++days;
  }
  return days > 0 ? total / static_cast<double>(days) : 0.0;
}

DelayStats InsertionDelayStats(const world::World& world,
                               const source::SourceHistory& history,
                               const TimeWindow& window,
                               double delay_threshold) {
  DelayStats stats;
  double delay_sum = 0.0;
  std::int64_t captured = 0;
  std::int64_t delayed = 0;
  for (world::SubdomainId sub : history.spec().scope) {
    for (world::EntityId id : world.EntitiesInSubdomain(sub)) {
      const world::EntityRow& entity = world.entity(id);
      if (!window.Contains(entity.birth)) continue;
      ++stats.observed;
      const source::CaptureRow* rec = history.Find(id);
      if (rec == nullptr || rec->inserted == world::kNever) {
        ++delayed;  // Never captured: counted as delayed.
        continue;
      }
      const double delay =
          static_cast<double>(rec->inserted - entity.birth);
      delay_sum += delay;
      ++captured;
      if (delay > delay_threshold) ++delayed;
    }
  }
  if (captured > 0) stats.mean_delay = delay_sum / captured;
  if (stats.observed > 0) {
    stats.delayed_fraction =
        static_cast<double>(delayed) / static_cast<double>(stats.observed);
  }
  return stats;
}

}  // namespace freshsel::metrics
