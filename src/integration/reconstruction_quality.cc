#include "integration/reconstruction_quality.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "common/check.h"

namespace freshsel::integration {

ReconstructionQuality EvaluateReconstruction(
    const world::World& truth, const ReconstructionResult& result,
    const ReconstructionQualityOptions& options) {
  // A non-positive stride would make the population sweep below loop
  // forever; tolerances are distances and must be non-negative.
  FRESHSEL_CHECK(options.population_stride > 0)
      << "population_stride must be positive, got "
      << options.population_stride;
  FRESHSEL_CHECK_NONNEG(options.appearance_tolerance);
  FRESHSEL_CHECK_NONNEG(options.update_tolerance);
  ReconstructionQuality quality;
  std::size_t matched = 0;
  std::size_t appearance_hits = 0;
  double appearance_delay_total = 0.0;
  std::size_t dead_truth = 0;
  std::size_t dead_matched = 0;
  double disappearance_delay_total = 0.0;
  std::size_t updates_total = 0;
  std::size_t updates_matched = 0;

  for (const world::EntityRow& gold : truth.entities()) {
    const std::span<const TimePoint> gold_update_times =
        truth.update_times(gold.id);
    const std::int32_t mapped =
        gold.id < result.from_original.size()
            ? result.from_original[gold.id]
            : -1;
    std::size_t gold_updates = gold_update_times.size();
    updates_total += gold_updates;
    // Deaths after the observation horizon are invisible to every source;
    // only in-window disappearances count as recoverable.
    const bool died_in_window =
        gold.death != world::kNever && gold.death <= truth.horizon();
    if (died_in_window) ++dead_truth;
    if (mapped < 0) continue;
    ++matched;
    const world::EntityId recon_id = static_cast<world::EntityId>(mapped);
    const world::EntityRow& recon = result.world.entity(recon_id);
    const std::span<const TimePoint> recon_update_times =
        result.world.update_times(recon_id);

    const double birth_gap =
        std::fabs(static_cast<double>(recon.birth - gold.birth));
    appearance_delay_total += birth_gap;
    if (birth_gap <= options.appearance_tolerance) ++appearance_hits;

    if (died_in_window && recon.death != world::kNever) {
      ++dead_matched;
      disappearance_delay_total +=
          std::fabs(static_cast<double>(recon.death - gold.death));
    }

    // Greedy in-order matching of update times within tolerance.
    std::size_t r = 0;
    for (TimePoint gold_update : gold_update_times) {
      while (r < recon_update_times.size() &&
             static_cast<double>(recon_update_times[r]) <
                 static_cast<double>(gold_update) -
                     options.update_tolerance) {
        ++r;
      }
      if (r < recon_update_times.size() &&
          std::fabs(static_cast<double>(recon_update_times[r] -
                                        gold_update)) <=
              options.update_tolerance) {
        ++updates_matched;
        ++r;
      }
    }
  }

  const std::size_t total = truth.entity_count();
  if (total > 0) {
    quality.entity_recall = static_cast<double>(matched) / total;
  }
  if (matched > 0) {
    quality.appearance_accuracy =
        static_cast<double>(appearance_hits) / matched;
    quality.mean_appearance_delay = appearance_delay_total / matched;
  }
  if (dead_truth > 0) {
    quality.disappearance_recall =
        static_cast<double>(dead_matched) / dead_truth;
  }
  if (dead_matched > 0) {
    quality.mean_disappearance_delay =
        disappearance_delay_total / dead_matched;
  }
  if (updates_total > 0) {
    quality.update_recall =
        static_cast<double>(updates_matched) / updates_total;
  }

  double population_error_total = 0.0;
  std::size_t samples = 0;
  for (TimePoint t = options.population_stride; t <= truth.horizon();
       t += options.population_stride) {
    const double gold_count = static_cast<double>(truth.TotalCountAt(t));
    const double recon_count =
        static_cast<double>(result.world.TotalCountAt(t));
    if (gold_count > 0) {
      population_error_total +=
          std::fabs(recon_count - gold_count) / gold_count;
      ++samples;
    }
  }
  if (samples > 0) {
    quality.mean_population_error = population_error_total / samples;
  }
  FRESHSEL_DCHECK_PROB(quality.entity_recall);
  FRESHSEL_DCHECK_PROB(quality.appearance_accuracy);
  FRESHSEL_DCHECK_PROB(quality.disappearance_recall);
  FRESHSEL_DCHECK_PROB(quality.update_recall);
  return quality;
}

}  // namespace freshsel::integration
