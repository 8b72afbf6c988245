#include "selection/greedy_driver.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "obs/decision_log.h"
#include "selection/audit.h"

namespace freshsel::selection::internal {

namespace {

/// State of one run, shared by the three candidate policies.
template <typename Objective>
class GreedyLoop {
 public:
  GreedyLoop(const ProfitFunction& oracle, Objective objective,
             MarginalEvalContext& ctx, obs::DecisionLog* log)
      : n_(oracle.universe_size()),
        objective_(std::move(objective)),
        ctx_(ctx),
        audit_(log, oracle) {
    ctx_.Reset(out_.selected);
    out_.value = Objective::Current(ctx_);
  }

  void Eager();
  void Lazy();
  void Stochastic(const CandidatePolicy& policy);

  RoundAudit& audit() { return audit_; }
  GreedyRun Finish() { return std::move(out_); }

 private:
  /// Not yet selected and feasible for the current set.
  bool Eligible(SourceHandle handle) const {
    return !Contains(out_.selected, handle) &&
           objective_.Feasible(out_.selected, handle);
  }

  /// Candidates an eager scan of this round would score.
  std::uint64_t CountEligible() const {
    std::uint64_t eligible = 0;
    for (std::size_t e = 0; e < n_; ++e) {
      if (Eligible(static_cast<SourceHandle>(e))) ++eligible;
    }
    return eligible;
  }

  Scored Score(SourceHandle handle) {
    return objective_.Score(ctx_, handle, out_.value);
  }

  static obs::DecisionRecord Record(std::uint32_t round, SourceHandle chosen,
                                    const Scored& scored,
                                    std::uint64_t pool) {
    obs::DecisionRecord record;
    record.round = round;
    record.kind = obs::DecisionKind::kAdd;
    record.chosen = chosen;
    record.gain = scored.marginal;
    record.profit = scored.value;
    record.score = scored.score;
    record.pool_size = pool;
    return record;
  }

  /// Adds `handle` and re-roots the context on the canonical sorted set,
  /// so later evaluations track the plain oracle's to ulp precision.
  void Accept(SourceHandle handle, double value) {
    objective_.Accept(handle);
    out_.selected = WithAdded(out_.selected, handle);
    ctx_.Reset(out_.selected);
    out_.value = value;
    ++out_.rounds;
  }

  const std::size_t n_;
  Objective objective_;
  MarginalEvalContext& ctx_;
  RoundAudit audit_;
  GreedyRun out_;
};

/// Eager: score every eligible candidate each round and take the best
/// score (strict >, so ties keep the lowest handle). Scanning handles in
/// ascending order lets the runner-up tracker reproduce the exact second
/// best.
template <typename Objective>
void GreedyLoop<Objective>::Eager() {
  for (std::uint32_t round = 0;; ++round) {
    audit_.BeginRound();
    Scored best;
    best.score = Objective::kEagerFloor;
    SourceHandle best_element = 0;
    bool found = false;
    std::uint64_t pool = 0;
    RunnerUpTracker tracker;
    for (std::size_t e = 0; e < n_; ++e) {
      const SourceHandle handle = static_cast<SourceHandle>(e);
      if (!Eligible(handle)) continue;
      ++pool;
      const Scored scored = Score(handle);
      if (Objective::Prunes(scored)) continue;
      if (audit_.active()) tracker.Observe(handle, scored.score);
      if (scored.score > best.score) {
        best = scored;
        best_element = handle;
        found = true;
      }
    }
    if (!found || best.marginal <= kImprovementEps) return;
    if (audit_.active()) {
      obs::DecisionRecord record = Record(round, best_element, best, pool);
      tracker.FillRunnerUp(best.score, &record);
      audit_.Commit(record);
    }
    Accept(best_element, best.value);
  }
}

/// Lazy (CELF): candidates wait in a priority queue keyed by their last
/// score, which for a submodular objective (and fixed costs) is an upper
/// bound on the current one. Each round re-scores only the top until a
/// just-scored entry stays on top - the exact argmax, so selections match
/// the eager scan bit for bit (same scores, same lowest-handle tie-break).
template <typename Objective>
void GreedyLoop<Objective>::Lazy() {
  struct Entry {
    Scored scored;
    SourceHandle handle;
    std::uint32_t round;  // Round of the last evaluation.
  };
  struct StalerFirst {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.scored.score != b.scored.score) {
        return a.scored.score < b.scored.score;
      }
      return a.handle > b.handle;  // Ties pop the lowest handle first.
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, StalerFirst> queue;

  // Round 0 seeds the queue with one evaluation per eligible candidate -
  // exactly what the eager scan's first round costs - and its record owns
  // those evaluations.
  audit_.BeginRound();
  for (std::size_t e = 0; e < n_; ++e) {
    const SourceHandle handle = static_cast<SourceHandle>(e);
    if (!Eligible(handle)) continue;
    const Scored scored = Score(handle);
    if (Objective::Prunes(scored)) continue;
    queue.push({scored, handle, 0});
  }

  for (std::uint32_t round = 0; !queue.empty();) {
    const Entry top = queue.top();
    queue.pop();
    // Feasibility only tightens as the set grows, so an entry that is
    // infeasible now never becomes feasible again: drop it.
    if (!objective_.Feasible(out_.selected, top.handle)) continue;
    if (top.round != round) {
      const Scored scored = Score(top.handle);
      --out_.saved;  // One of this round's budgeted re-scores actually ran.
      ++out_.rescores;
      if (!Objective::Prunes(scored)) {
        queue.push({scored, top.handle, round});
      }
      continue;
    }
    // Just scored and still on top: the exact best candidate.
    if (top.scored.marginal <= kImprovementEps) return;
    if (audit_.active()) {
      obs::DecisionRecord record =
          Record(round, top.handle, top.scored, CountEligible());
      if (!queue.empty()) {
        // The runner-up's key is its *stale upper bound* - the tightest
        // information CELF has without spending the eval it just saved.
        // The accepted entry dominated the queue, so margin >= 0.
        const Entry& next = queue.top();
        record.has_runner_up = true;
        record.runner_up = next.handle;
        record.runner_up_score = next.scored.score;
        record.margin = top.scored.score - next.scored.score;
      }
      audit_.Commit(record);
    }
    audit_.BeginRound();
    Accept(top.handle, top.scored.value);
    ++round;
    // The eager scan would have re-scored every remaining eligible
    // candidate to find the next winner; the re-scores that actually run
    // are subtracted as they happen.
    out_.saved += CountEligible();
  }
}

/// Stochastic (Mirzasoleiman et al., "lazier than lazy greedy"): each
/// round draws a uniform sample of the eligible candidates and adds the
/// sample's best. The sampling stream is consumed identically whatever
/// the context or `skip_stale` (one draw per round, before any scoring),
/// and the accepted element is always freshly scored, so selections are a
/// function of the seed alone.
///
/// With `skip_stale`, scores persist across rounds as upper bounds and a
/// sampled candidate is skipped when its stale bound cannot beat the best
/// fresh score found so far - the within-sample CELF composition. The tie
/// guard (re-score on an equal bound with a lower handle) keeps the
/// selections identical to scoring the whole sample.
template <typename Objective>
void GreedyLoop<Objective>::Stochastic(const CandidatePolicy& policy) {
  Rng rng(policy.seed);
  std::vector<double> stale;
  if (policy.skip_stale) {
    stale.assign(n_, std::numeric_limits<double>::infinity());
  }
  std::vector<SourceHandle> eligible;
  std::vector<SourceHandle> sampled;
  // Fresh (handle, score) pairs of the current round, audit only: the
  // runner-up of a stochastic round is the second-best *freshly scored*
  // sample member (skipped candidates were ruled out by stale bounds).
  std::vector<std::pair<SourceHandle, double>> scored_pairs;
  for (std::uint32_t round = 0;; ++round) {
    audit_.BeginRound();
    eligible.clear();
    for (std::size_t e = 0; e < n_; ++e) {
      const SourceHandle handle = static_cast<SourceHandle>(e);
      if (Eligible(handle)) eligible.push_back(handle);
    }
    if (eligible.empty()) return;

    sampled.clear();
    if (policy.sample_size >= eligible.size()) {
      sampled = eligible;
    } else {
      // Index sample re-sorted ascending so the scored order (and with it
      // every tie-break) does not depend on the sampler's internal order.
      std::vector<std::size_t> idx =
          rng.SampleWithoutReplacement(eligible.size(), policy.sample_size);
      std::sort(idx.begin(), idx.end());
      for (std::size_t i : idx) sampled.push_back(eligible[i]);
    }
    if (policy.skip_stale) {
      // Visit the highest stale bound first so the skip test fires as
      // early as possible; equal bounds fall back to ascending handle.
      std::sort(sampled.begin(), sampled.end(),
                [&stale](SourceHandle a, SourceHandle b) {
                  if (stale[a] != stale[b]) return stale[a] > stale[b];
                  return a < b;
                });
    }
    out_.sampled += sampled.size();

    Scored best;
    SourceHandle best_element = 0;
    bool found = false;
    scored_pairs.clear();
    for (SourceHandle handle : sampled) {
      if (policy.skip_stale && found &&
          (stale[handle] < best.score ||
           (stale[handle] == best.score && handle > best_element))) {
        // The stale bound already rules this candidate out (or it could
        // only tie with a higher handle): scoring it would be wasted.
        ++out_.saved;
        ++out_.skips;
        continue;
      }
      const Scored scored = Score(handle);
      ++out_.evals;
      if (policy.skip_stale) stale[handle] = scored.score;
      if (Objective::Prunes(scored)) continue;
      if (audit_.active()) scored_pairs.emplace_back(handle, scored.score);
      if (!found || scored.score > best.score ||
          (scored.score == best.score && handle < best_element)) {
        best = scored;
        best_element = handle;
        found = true;
      }
    }
    if (!found || best.marginal <= kImprovementEps) return;
    if (audit_.active()) {
      obs::DecisionRecord record =
          Record(round, best_element, best, eligible.size());
      record.sample_size = sampled.size();
      // Runner-up: best fresh score other than the winner, with the
      // acceptance test's (score, lowest handle) preference.
      for (const auto& [handle, score] : scored_pairs) {
        if (handle == best_element) continue;
        if (!record.has_runner_up || score > record.runner_up_score ||
            (score == record.runner_up_score && handle < record.runner_up)) {
          record.has_runner_up = true;
          record.runner_up = handle;
          record.runner_up_score = score;
        }
      }
      if (record.has_runner_up) {
        record.margin = best.score - record.runner_up_score;
      }
      audit_.Commit(record);
    }
    Accept(best_element, best.value);
  }
}

}  // namespace

template <typename Objective>
GreedyRun RunGreedy(const ProfitFunction& oracle, Objective objective,
                    MarginalEvalContext& ctx, const CandidatePolicy& policy,
                    obs::DecisionLog* log, const char* family) {
  GreedyLoop<Objective> loop(oracle, std::move(objective), ctx, log);
  if (loop.audit().active() && log->algorithm().empty()) {
    const char* name =
        policy.kind == CandidatePolicy::Kind::kEager        ? "eager"
        : policy.kind == CandidatePolicy::Kind::kStochastic ? "stochastic"
                                                            : "lazy";
    log->set_algorithm(std::string(family) + "/" + name);
  }
  switch (policy.kind) {
    case CandidatePolicy::Kind::kEager:
      loop.Eager();
      break;
    case CandidatePolicy::Kind::kLazy:
      loop.Lazy();
      break;
    case CandidatePolicy::Kind::kStochastic:
      loop.Stochastic(policy);
      break;
  }
  return loop.Finish();
}

template GreedyRun RunGreedy<ProfitObjective>(
    const ProfitFunction&, ProfitObjective, MarginalEvalContext&,
    const CandidatePolicy&, obs::DecisionLog*, const char*);
template GreedyRun RunGreedy<CostBenefitObjective>(
    const ProfitFunction&, CostBenefitObjective, MarginalEvalContext&,
    const CandidatePolicy&, obs::DecisionLog*, const char*);

}  // namespace freshsel::selection::internal
