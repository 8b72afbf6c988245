#include "estimation/degradation.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "obs/macros.h"

namespace freshsel::estimation {

const char* DegradationModeName(DegradationMode mode) {
  switch (mode) {
    case DegradationMode::kStrict:
      return "strict";
    case DegradationMode::kDegrade:
      return "degrade";
  }
  return "unknown";
}

stats::StepFunction AverageStepFunctions(
    const std::vector<const stats::StepFunction*>& fns) {
  if (fns.empty()) return stats::StepFunction::Constant(0.0);
  const double n = static_cast<double>(fns.size());
  std::set<double> xs;
  double initial = 0.0;
  for (const stats::StepFunction* fn : fns) {
    FRESHSEL_CHECK(fn != nullptr);
    initial += fn->initial();
    for (const auto& [x, y] : fn->knots()) xs.insert(x);
  }
  initial = std::clamp(initial / n, 0.0, 1.0);
  std::vector<std::pair<double, double>> knots;
  knots.reserve(xs.size());
  // Running max guards against float rounding breaking monotonicity when
  // averaged values are equal up to ulps.
  double floor_y = initial;
  for (double x : xs) {
    double sum = 0.0;
    for (const stats::StepFunction* fn : fns) sum += fn->Evaluate(x);
    floor_y = std::clamp(sum / n, floor_y, 1.0);
    knots.emplace_back(x, floor_y);
  }
  Result<stats::StepFunction> averaged =
      stats::StepFunction::FromKnots(std::move(knots), initial);
  FRESHSEL_CHECK(averaged.ok())
      << "averaging valid step functions cannot fail: "
      << averaged.status().message();
  return *std::move(averaged);
}

SourceProfile MakePriorProfile(const SourceProfile& raw,
                               const std::vector<world::SubdomainId>& scope,
                               const std::vector<const SourceProfile*>& peers,
                               TimePoint t0) {
  SourceProfile prior = raw;
  std::set<world::SubdomainId> sorted_scope(scope.begin(), scope.end());
  prior.observed_scope.assign(sorted_scope.begin(), sorted_scope.end());
  prior.anchor = t0;
  if (peers.empty()) {
    prior.update_interval = 1.0;
    return prior;
  }
  std::vector<const stats::StepFunction*> inserts;
  std::vector<const stats::StepFunction*> updates;
  std::vector<const stats::StepFunction*> deletes;
  double interval_sum = 0.0;
  for (const SourceProfile* peer : peers) {
    FRESHSEL_CHECK(peer != nullptr);
    inserts.push_back(&peer->g_insert);
    updates.push_back(&peer->g_update);
    deletes.push_back(&peer->g_delete);
    interval_sum += peer->update_interval;
  }
  prior.g_insert = AverageStepFunctions(inserts);
  prior.g_update = AverageStepFunctions(updates);
  prior.g_delete = AverageStepFunctions(deletes);
  prior.update_interval = interval_sum / static_cast<double>(peers.size());
  return prior;
}

namespace {

bool ScopesOverlap(const std::vector<world::SubdomainId>& declared,
                   const std::vector<world::SubdomainId>& observed) {
  // Both inputs are small and sorted-ish; a set keeps this O(n log n)
  // without assuming ordering.
  std::set<world::SubdomainId> lookup(declared.begin(), declared.end());
  return std::any_of(
      observed.begin(), observed.end(),
      [&lookup](world::SubdomainId sub) { return lookup.count(sub) > 0; });
}

}  // namespace

Result<RobustProfiles> LearnSourceProfilesRobust(
    const world::World& world,
    const std::vector<source::SourceHistory>& histories, TimePoint t0,
    DegradationMode mode) {
  FRESHSEL_TRACE_SPAN("estimation/learn_profiles_robust");
  FRESHSEL_OBS_SCOPED_LATENCY("estimation.learn_profiles.seconds");
  RobustProfiles out;
  out.report.total_sources = histories.size();
  // Each fit reads only the shared world and its own history, so the
  // sources are learned in parallel, largest history first; profiles, fit
  // stats and errors land by index and the first error in roster order wins.
  const std::size_t n = histories.size();
  out.profiles.resize(n);
  std::vector<SourceProfileFitStats> fit_stats(n);
  std::vector<Status> errors(n);
  std::vector<std::uint64_t> sizes(n);
  for (std::size_t i = 0; i < n; ++i) {
    sizes[i] = histories[i].records().size();
  }
  RunLargestFirst(sizes, [&](std::size_t i) {
    FRESHSEL_TRACE_SPAN("estimation/learn_source");
    Result<SourceProfile> profile =
        LearnSourceProfile(world, histories[i], t0, &fit_stats[i]);
    if (profile.ok()) {
      out.profiles[i] = std::move(profile).value();
    } else {
      errors[i] = profile.status();
    }
  });
  for (const Status& error : errors) FRESHSEL_RETURN_IF_ERROR(error);

  std::vector<std::size_t> unfittable;
  for (std::size_t i = 0; i < fit_stats.size(); ++i) {
    if (!fit_stats[i].fittable()) unfittable.push_back(i);
  }
  if (unfittable.empty()) return out;

  if (mode == DegradationMode::kStrict) {
    std::ostringstream msg;
    msg << "strict mode: " << unfittable.size()
        << " source(s) have no observed capture event by t0=" << t0 << ":";
    for (std::size_t i : unfittable) msg << ' ' << histories[i].name();
    msg << " (rerun in degrade mode to substitute subdomain priors)";
    return Status::FailedPrecondition(msg.str());
  }

  // Fitted peers are candidates for the prior. Substitutions read from the
  // original fitted set, so the result is independent of roster order.
  std::vector<const SourceProfile*> fitted;
  for (std::size_t i = 0; i < out.profiles.size(); ++i) {
    if (fit_stats[i].fittable()) fitted.push_back(&out.profiles[i]);
  }
  std::vector<SourceProfile> priors;
  priors.reserve(unfittable.size());
  for (std::size_t i : unfittable) {
    const std::vector<world::SubdomainId>& declared =
        histories[i].spec().scope;
    std::vector<const SourceProfile*> peers;
    for (const SourceProfile* peer : fitted) {
      if (ScopesOverlap(declared, peer->observed_scope)) peers.push_back(peer);
    }
    if (peers.empty()) peers = fitted;
    priors.push_back(MakePriorProfile(out.profiles[i], declared, peers, t0));

    std::ostringstream reason;
    reason << "no observed capture event by t0 ("
           << fit_stats[i].total_samples() << " censored sample(s)); ";
    if (peers.empty()) {
      reason << "no fitted peers - zero-effectiveness profile retained";
    } else {
      reason << "substituted subdomain-prior profile from " << peers.size()
             << " fitted peer(s)";
    }
    out.report.degraded.push_back(
        DegradedSource{i, histories[i].name(), reason.str()});
    FRESHSEL_OBS_COUNT("estimation.degraded.sources", 1);
  }
  std::size_t next = 0;
  for (std::size_t i : unfittable) {
    out.profiles[i] = std::move(priors[next++]);
  }
  return out;
}

}  // namespace freshsel::estimation
