#include "estimation/world_change_model.h"

#include <algorithm>
#include <cstdint>

#include "common/check.h"
#include "obs/macros.h"
#include "stats/exponential.h"

namespace freshsel::estimation {

Result<WorldChangeModel> WorldChangeModel::Learn(const world::World& world,
                                                 TimePoint t0) {
  FRESHSEL_TRACE_SPAN("estimation/world_learn");
  if (t0 <= 0 || t0 > world.horizon()) {
    return Status::InvalidArgument("t0 must be in (0, horizon]");
  }
  const std::uint32_t sub_count = world.domain().subdomain_count();
  const double days = static_cast<double>(t0);

  struct Tally {
    std::int64_t appearances = 0;    // births in (0, t0].
    std::int64_t disappearances = 0; // deaths in (0, t0].
    std::int64_t updates = 0;        // value updates in (0, t0].
    std::vector<stats::CensoredObservation> lifespans;
    std::vector<stats::CensoredObservation> update_gaps;
  };
  std::vector<Tally> tallies(sub_count);

  for (const world::EntityRow& entity : world.entities()) {
    Tally& tally = tallies[entity.subdomain];
    if (entity.birth > t0) continue;  // Future entity: invisible in T.
    if (entity.birth > 0) ++tally.appearances;

    // Lifespan observation, right-censored at t0.
    if (entity.death != world::kNever && entity.death <= t0) {
      ++tally.disappearances;
      tally.lifespans.push_back(
          {static_cast<double>(entity.death - entity.birth), true});
    } else {
      tally.lifespans.push_back(
          {static_cast<double>(t0 - entity.birth), false});
    }

    // Inter-update gaps; the trailing gap (last change to t0) is censored.
    TimePoint prev_change = entity.birth;
    for (TimePoint u : world.update_times(entity.id)) {
      if (u > t0) break;
      ++tally.updates;
      tally.update_gaps.push_back(
          {static_cast<double>(u - prev_change), true});
      prev_change = u;
    }
    // Only censor by t0 if the entity was still alive to be updated.
    const TimePoint alive_until =
        entity.death == world::kNever ? t0 : std::min(entity.death, t0);
    if (alive_until > prev_change) {
      tally.update_gaps.push_back(
          {static_cast<double>(alive_until - prev_change), false});
    }
  }

  std::vector<SubdomainChangeModel> models(sub_count);
  for (std::uint32_t sub = 0; sub < sub_count; ++sub) {
    const Tally& tally = tallies[sub];
    SubdomainChangeModel& model = models[sub];
    model.lambda_insert = static_cast<double>(tally.appearances) / days;
    model.lambda_disappear =
        static_cast<double>(tally.disappearances) / days;
    model.lambda_update = static_cast<double>(tally.updates) / days;
    // Censored exponential MLEs; zero events observed => rate 0 (the
    // survival probability stays 1, the paper's implicit fallback).
    Result<double> gamma_d =
        stats::FitExponentialCensoredMle(tally.lifespans);
    model.gamma_disappear = gamma_d.ok() ? *gamma_d : 0.0;
    Result<double> gamma_u =
        stats::FitExponentialCensoredMle(tally.update_gaps);
    model.gamma_update = gamma_u.ok() ? *gamma_u : 0.0;
    model.count_at_t0 = world.CountAt(sub, t0);
    // Learned rates feed survival exponentials and the Eq. 14 balance; a
    // negative or non-finite rate would silently poison every prediction.
    FRESHSEL_CHECK_NONNEG(model.lambda_insert);
    FRESHSEL_CHECK_NONNEG(model.lambda_disappear);
    FRESHSEL_CHECK_NONNEG(model.lambda_update);
    FRESHSEL_CHECK_NONNEG(model.gamma_disappear);
    FRESHSEL_CHECK_NONNEG(model.gamma_update);
  }
  return WorldChangeModel(t0, std::move(models));
}

SubdomainChangeModel WorldChangeModel::Aggregate(
    const std::vector<world::SubdomainId>& subs) const {
  SubdomainChangeModel out;
  double weight_total = 0.0;
  double gamma_d_weighted = 0.0;
  double gamma_u_weighted = 0.0;
  for (world::SubdomainId sub : subs) {
    FRESHSEL_CHECK(sub < models_.size())
        << "subdomain " << sub << " out of range (" << models_.size() << ")";
    const SubdomainChangeModel& m = models_[sub];
    out.lambda_insert += m.lambda_insert;
    out.lambda_disappear += m.lambda_disappear;
    out.lambda_update += m.lambda_update;
    out.count_at_t0 += m.count_at_t0;
    const double weight = static_cast<double>(std::max<std::int64_t>(
        m.count_at_t0, 1));
    gamma_d_weighted += weight * m.gamma_disappear;
    gamma_u_weighted += weight * m.gamma_update;
    weight_total += weight;
  }
  if (weight_total > 0.0) {
    out.gamma_disappear = gamma_d_weighted / weight_total;
    out.gamma_update = gamma_u_weighted / weight_total;
  }
  return out;
}

double WorldChangeModel::PredictCount(
    const std::vector<world::SubdomainId>& subs, TimePoint t) const {
  const SubdomainChangeModel agg = Aggregate(subs);
  const double delta = static_cast<double>(t - t0_);
  const double predicted =
      static_cast<double>(agg.count_at_t0) +
      delta * (agg.lambda_insert - agg.lambda_disappear);
  return std::max(predicted, 0.0);
}

}  // namespace freshsel::estimation
