#include "estimation/source_profile.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bit_vector.h"
#include "obs/macros.h"
#include "stats/kaplan_meier.h"

namespace freshsel::estimation {

double SourceProfile::LatestAcquisitionAt(double t,
                                          std::int64_t divisor) const {
  const double interval =
      update_interval * static_cast<double>(std::max<std::int64_t>(divisor, 1));
  const double anchor_d = static_cast<double>(anchor);
  // T_S(t) = floor((t - t_S0) f) / f + t_S0 with f = 1 / interval.
  return std::floor((t - anchor_d) / interval) * interval + anchor_d;
}

double SourceProfile::Effectiveness(const stats::StepFunction& g, double t,
                                    double event_time,
                                    std::int64_t divisor) const {
  const double latest = LatestAcquisitionAt(t, divisor);
  if (!(t >= latest) || latest < event_time) return 0.0;
  return g.Evaluate(latest - event_time);
}

namespace {

/// Finds the capture day of world version `version` in `captures`, or
/// kNever.
TimePoint VersionCaptureDay(std::span<const source::VersionCapture> captures,
                            std::uint32_t version) {
  for (const auto& [v, day] : captures) {
    if (v == version) return day;
  }
  return world::kNever;
}

}  // namespace

Result<SourceProfile> LearnSourceProfile(const world::World& world,
                                         const source::SourceHistory& history,
                                         TimePoint t0) {
  return LearnSourceProfile(world, history, t0, nullptr);
}

Result<SourceProfile> LearnSourceProfile(const world::World& world,
                                         const source::SourceHistory& history,
                                         TimePoint t0,
                                         SourceProfileFitStats* stats) {
  if (t0 <= 0 || t0 > world.horizon()) {
    return Status::InvalidArgument("t0 must be in (0, horizon]");
  }
  SourceProfile profile;
  profile.name = history.name();
  profile.sig_t0 = integration::BuildSignatures(world, history, t0);

  // Observed scope and the source's distinct content-update days within T.
  // The fit reads only the sorted scope and the count, first and last of the
  // update days, so bitmaps replace ordered sets: subdomains over the
  // domain, days over [0, t0] (no longer than the world's per-day count
  // arrays, as t0 <= horizon). Days before 0 are legal but rare and go to a
  // side list.
  std::vector<bool> in_scope(world.domain().subdomain_count(), false);
  BitVector update_days(static_cast<std::size_t>(t0) + 1);
  std::vector<TimePoint> early_days;
  auto add_update_day = [&](TimePoint day) {
    if (day >= 0) {
      update_days.Set(static_cast<std::size_t>(day));
    } else {
      early_days.push_back(day);
    }
  };
  for (const source::CaptureRow& rec : history.records()) {
    bool seen_by_t0 = false;
    for (const auto& [version, day] : history.captures(rec)) {
      if (day <= t0) {
        add_update_day(day);
        seen_by_t0 = true;
      }
    }
    if (rec.deleted != world::kNever && rec.deleted <= t0) {
      add_update_day(rec.deleted);
      seen_by_t0 = true;
    }
    if (!seen_by_t0) continue;
    if (rec.subdomain >= in_scope.size()) {
      return Status::InvalidArgument("capture row subdomain " +
                                     std::to_string(rec.subdomain) +
                                     " is outside the world's domain");
    }
    in_scope[rec.subdomain] = true;
  }
  for (std::size_t sub = 0; sub < in_scope.size(); ++sub) {
    if (in_scope[sub]) {
      profile.observed_scope.push_back(static_cast<world::SubdomainId>(sub));
    }
  }
  std::sort(early_days.begin(), early_days.end());
  early_days.erase(std::unique(early_days.begin(), early_days.end()),
                   early_days.end());
  const std::size_t update_day_count =
      early_days.size() + update_days.Count();
  TimePoint first_day = early_days.empty() ? world::kNever : early_days[0];
  TimePoint last_day = early_days.empty() ? 0 : early_days.back();
  update_days.VisitSetBits([&](std::size_t day) {
    first_day = std::min(first_day, static_cast<TimePoint>(day));
    last_day = static_cast<TimePoint>(day);
  });

  // Learned update interval u_S (mean gap between distinct update days) and
  // the anchor t_S0 (last observed update day).
  if (update_day_count >= 2) {
    const double span = static_cast<double>(last_day - first_day);
    profile.update_interval =
        span / static_cast<double>(update_day_count - 1);
  } else {
    profile.update_interval = 1.0;  // Fallback: assume daily refresh.
  }
  profile.anchor = update_day_count == 0 ? t0 : last_day;

  // Kaplan-Meier effectiveness distributions from exact + right-censored
  // delays (Section 4.1.2 / Figure 7).
  stats::KaplanMeierEstimator km_insert;
  stats::KaplanMeierEstimator km_update;
  stats::KaplanMeierEstimator km_delete;

  for (world::SubdomainId sub : profile.observed_scope) {
    for (world::EntityId id : world.EntitiesInSubdomain(sub)) {
      const world::EntityRow& entity = world.entity(id);
      const source::CaptureRow* rec = history.Find(id);

      // Insertion delays: appearances within (0, t0].
      if (entity.birth > 0 && entity.birth <= t0) {
        if (rec != nullptr && rec->inserted <= t0) {
          km_insert.Add(static_cast<double>(rec->inserted - entity.birth),
                        true);
        } else {
          km_insert.Add(static_cast<double>(t0 - entity.birth), false);
        }
      }

      if (rec == nullptr) continue;  // G_d / G_u are conditional on mention.

      // Deletion delays: disappearances within (0, t0] of mentioned
      // entities.
      if (entity.death != world::kNever && entity.death > 0 &&
          entity.death <= t0) {
        if (rec->deleted != world::kNever && rec->deleted <= t0) {
          km_delete.Add(static_cast<double>(rec->deleted - entity.death),
                        true);
        } else {
          km_delete.Add(static_cast<double>(t0 - entity.death), false);
        }
      }

      // Value-update delays: world updates within (0, t0] of mentioned
      // entities.
      std::uint32_t version = 0;
      const std::span<const source::VersionCapture> captures =
          history.captures(*rec);
      for (TimePoint u : world.update_times(id)) {
        ++version;
        if (u <= 0 || u > t0) continue;
        const TimePoint day = VersionCaptureDay(captures, version);
        if (day != world::kNever && day <= t0) {
          km_update.Add(static_cast<double>(day - u), true);
        } else {
          km_update.Add(static_cast<double>(t0 - u), false);
        }
      }
    }
  }

  if (stats != nullptr) {
    stats->insert_samples = km_insert.sample_size();
    stats->insert_events = km_insert.observed_events();
    stats->update_samples = km_update.sample_size();
    stats->update_events = km_update.observed_events();
    stats->delete_samples = km_delete.sample_size();
    stats->delete_events = km_delete.observed_events();
  }

  auto fit_or_zero =
      [](const stats::KaplanMeierEstimator& km) -> stats::StepFunction {
    if (km.sample_size() == 0) return stats::StepFunction::Constant(0.0);
    FRESHSEL_OBS_COUNT("estimation.km.fits", 1);
    Result<stats::StepFunction> fitted = km.Fit();
    return fitted.ok() ? *fitted : stats::StepFunction::Constant(0.0);
  };
  profile.g_insert = fit_or_zero(km_insert);
  profile.g_update = fit_or_zero(km_update);
  profile.g_delete = fit_or_zero(km_delete);
  return profile;
}

Result<std::vector<SourceProfile>> LearnSourceProfiles(
    const world::World& world,
    const std::vector<source::SourceHistory>& histories, TimePoint t0) {
  FRESHSEL_TRACE_SPAN("estimation/learn_profiles");
  FRESHSEL_OBS_SCOPED_LATENCY("estimation.learn_profiles.seconds");
  std::vector<SourceProfile> profiles;
  profiles.reserve(histories.size());
  for (const source::SourceHistory& history : histories) {
    FRESHSEL_ASSIGN_OR_RETURN(SourceProfile profile,
                              LearnSourceProfile(world, history, t0));
    profiles.push_back(std::move(profile));
  }
  return profiles;
}

}  // namespace freshsel::estimation
