#ifndef FRESHSEL_SELECTION_GREEDY_DRIVER_H_
#define FRESHSEL_SELECTION_GREEDY_DRIVER_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "selection/algorithms.h"
#include "selection/matroid.h"
#include "selection/profit.h"
#include "selection/set_util.h"

namespace freshsel::obs {
class DecisionLog;
}  // namespace freshsel::obs

namespace freshsel::selection::internal {

/// The one greedy loop behind `Greedy` and phase 1 of `BudgetedGreedy`:
/// starting from the empty set, repeatedly add the best feasible candidate
/// while it improves the objective by more than kImprovementEps. Two
/// independent parameters shape a run:
///
///  - the candidate policy decides which candidates are scored each round:
///    every feasible one (eager), only CELF queue tops whose stale bound
///    may still win (lazy), or a seeded uniform sample, optionally with
///    stale-bound skipping inside the sample (stochastic);
///  - the objective decides feasibility and how a candidate is scored:
///    profit under a matroid (`ProfitObjective`) or marginal gain per unit
///    cost under a budget (`CostBenefitObjective`).
///
/// Every evaluation goes through one `MarginalEvalContext` (see
/// `MakeEvalContext`), so the loop never asks whether an incremental
/// context exists.

/// What one scored candidate x is worth against the current set S.
struct Scored {
  double value = 0.0;     ///< Objective of S + {x}: profit or gain.
  double marginal = 0.0;  ///< value - objective of S.
  double score = 0.0;     ///< Ranking key: the marginal, or marginal/cost.
};

/// Greedy's objective: profit, with optional partition-matroid
/// feasibility. A candidate is ranked by its profit gain and never
/// dropped, so a non-improving candidate still sits in the runner-up
/// tracker and the CELF queue.
class ProfitObjective {
 public:
  /// The eager scan accepts only scores strictly above this floor.
  static constexpr double kEagerFloor =
      -std::numeric_limits<double>::infinity();

  explicit ProfitObjective(const PartitionMatroid* matroid)
      : matroid_(matroid) {}

  static double Current(MarginalEvalContext& ctx) {
    return ctx.CurrentProfit();
  }
  bool Feasible(const std::vector<SourceHandle>& selected,
                SourceHandle handle) const {
    return matroid_ == nullptr || matroid_->CanAdd(selected, handle);
  }
  static Scored Score(MarginalEvalContext& ctx, SourceHandle handle,
                      double current) {
    const double profit = ctx.ProfitWith(handle);
    const double gain = profit - current;
    return {profit, gain, gain};
  }
  static bool Prunes(const Scored& /*scored*/) { return false; }
  void Accept(SourceHandle /*handle*/) {}

 private:
  const PartitionMatroid* matroid_;
};

/// Slack on budget comparisons, so sums of costs that equal the budget in
/// exact arithmetic stay affordable.
inline constexpr double kBudgetSlack = 1e-12;

/// The cost-benefit objective of budgeted phase 1: gain, ranked by
/// marginal gain per unit cost, feasible while the spent cost plus the
/// candidate's fits the budget. A candidate whose marginal gain is at most
/// kImprovementEps is dropped before it is ranked: by submodularity it
/// never recovers.
class CostBenefitObjective {
 public:
  /// The eager scan accepts only strictly positive ratios.
  static constexpr double kEagerFloor = 0.0;

  /// `costs[h]` is the singleton cost of handle h (not owned).
  CostBenefitObjective(const std::vector<double>& costs, double budget)
      : costs_(&costs), budget_(budget) {}

  static double Current(MarginalEvalContext& ctx) {
    return ctx.CurrentGain();
  }
  bool Feasible(const std::vector<SourceHandle>& /*selected*/,
                SourceHandle handle) const {
    return spent_ + (*costs_)[handle] <= budget_ + kBudgetSlack;
  }
  Scored Score(MarginalEvalContext& ctx, SourceHandle handle,
               double current) const {
    const double gain = ctx.GainWith(handle);
    const double marginal = gain - current;
    const double cost = (*costs_)[handle];
    // Zero-cost elements with positive gain are always worth taking.
    const double ratio = cost > kImprovementEps
                             ? marginal / cost
                             : std::numeric_limits<double>::infinity();
    return {gain, marginal, ratio};
  }
  static bool Prunes(const Scored& scored) {
    return scored.marginal <= kImprovementEps;
  }
  void Accept(SourceHandle handle) { spent_ += (*costs_)[handle]; }

 private:
  const std::vector<double>* costs_;
  double budget_;
  double spent_ = 0.0;
};

/// Which candidates a round scores.
struct CandidatePolicy {
  enum class Kind { kEager, kLazy, kStochastic };
  Kind kind = Kind::kLazy;
  /// kStochastic: candidates sampled per round, sampling-stream seed, and
  /// whether stale bounds from earlier rounds may skip sampled candidates.
  std::size_t sample_size = 0;
  std::uint64_t seed = 0;
  bool skip_stale = false;
};

/// The policy `GreedyOptions` / `BudgetedGreedyOptions` ask for. The
/// stochastic sample size uses `options.stochastic_k`, or when that is 0
/// the effective rank of `matroid` (n without one).
template <typename Options>
CandidatePolicy PolicyFor(const Options& options, std::size_t n,
                          const PartitionMatroid* matroid) {
  CandidatePolicy policy;
  if (options.stochastic) {
    const std::size_t k = options.stochastic_k > 0
                              ? options.stochastic_k
                              : DeriveSampleK(n, matroid);
    policy.kind = CandidatePolicy::Kind::kStochastic;
    policy.sample_size =
        StochasticSampleSize(n, k, options.stochastic_epsilon);
    policy.seed = options.stochastic_seed;
    policy.skip_stale = options.lazy;
  } else {
    policy.kind = options.lazy ? CandidatePolicy::Kind::kLazy
                               : CandidatePolicy::Kind::kEager;
  }
  return policy;
}

/// Outcome of one driver run.
struct GreedyRun {
  std::vector<SourceHandle> selected;  ///< Sorted ascending.
  double value = 0.0;  ///< Objective of `selected`: profit or gain.
  /// Evaluations skipped relative to an eager scan of every round.
  std::uint64_t saved = 0;
  /// Event tallies behind the `selection.greedy.*`, `selection.celf.*`
  /// and `selection.stochastic.*` counters, which only `Greedy` publishes.
  std::uint64_t rounds = 0;
  std::uint64_t rescores = 0;
  std::uint64_t sampled = 0;
  std::uint64_t evals = 0;
  std::uint64_t skips = 0;
};

/// Runs the greedy loop. `ctx` must be a fresh context from
/// `MakeEvalContext(oracle, ...)`; `oracle` supplies the universe size and
/// the call tallies of the decision log. When `log` is set, each accepted
/// round appends one record, and an unnamed log is named
/// "<family>/eager|lazy|stochastic". Instantiated for the two objectives
/// above.
template <typename Objective>
GreedyRun RunGreedy(const ProfitFunction& oracle, Objective objective,
                    MarginalEvalContext& ctx, const CandidatePolicy& policy,
                    obs::DecisionLog* log, const char* family);

}  // namespace freshsel::selection::internal

#endif  // FRESHSEL_SELECTION_GREEDY_DRIVER_H_
