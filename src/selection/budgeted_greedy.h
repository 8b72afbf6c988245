#ifndef FRESHSEL_SELECTION_BUDGETED_GREEDY_H_
#define FRESHSEL_SELECTION_BUDGETED_GREEDY_H_

#include <cstddef>
#include <cstdint>

#include "selection/algorithms.h"

namespace freshsel::selection {

/// Tuning knobs for `BudgetedGreedy`.
struct BudgetedGreedyOptions {
  /// Lazy (CELF) evaluation of the marginal-gain / cost ratios: with a
  /// submodular gain and fixed per-element costs, a stale ratio is an
  /// upper bound on the current one, so only queue tops need re-scoring.
  /// Set false for the eager full re-scan (exact-equivalence fallback for
  /// non-submodular gains).
  bool lazy = true;
  /// Score marginal gains through the oracle's incremental context when
  /// `MakeContext()` returns one (delta evaluations independent of the
  /// selected-set size, identical selections); otherwise, or when false,
  /// through a `FullEvalContext` making the plain `Gain` calls.
  bool incremental = true;
  /// Stochastic phase 1 (see `GreedyOptions::stochastic`): each
  /// cost-benefit round scores a uniform random sample of
  /// ceil((n/k) * ln(1/stochastic_epsilon)) affordable candidates instead
  /// of all of them. Deterministic per `stochastic_seed` (identical
  /// selections across `lazy` / `incremental`); composes with the lazy
  /// stale-ratio skip within the sampled pool. The Khuller-Moss-Naor
  /// singleton safeguard (phase 2) always scans every affordable
  /// singleton, stochastic or not.
  bool stochastic = false;
  /// Guarantee slack; smaller = larger samples. Clamped to (0, 1).
  double stochastic_epsilon = 0.1;
  /// Seed for the candidate-sampling stream (a `common/random.h` stream,
  /// never `std::random_device`).
  std::uint64_t stochastic_seed = 42;
  /// Cardinality k in the sample-size formula; 0 falls back to n. Pass
  /// budget / typical-cost when the expected solution size is known.
  std::size_t stochastic_k = 0;
  /// Optional per-run audit trail (not owned; may be null). Each accepted
  /// cost-benefit round appends one obs::DecisionRecord whose `score` is
  /// the marginal-gain / cost ratio; a winning Khuller-Moss-Naor singleton
  /// appends a `kind == kSingleton` record. See GreedyOptions::decision_log
  /// for the compile-out contract.
  obs::DecisionLog* decision_log = nullptr;
};

/// Budgeted source selection (the budget-bound regime of Definition 3):
/// maximizes the *gain* subject to cost(S) <= budget, using the classic
/// cost-benefit greedy for budgeted submodular maximization - repeatedly
/// add the affordable element with the best marginal-gain / cost ratio,
/// then return the better of that solution and the best affordable
/// singleton (the Khuller-Moss-Naor safeguard; for monotone submodular
/// gains the combination is a constant-factor approximation).
///
/// Phase 1 is the shared greedy driver (selection/greedy_driver.h) with the
/// cost-benefit objective; the options pick its candidate policy exactly
/// as for `Greedy`. Singleton costs are evaluated once up front (O(n)
/// cost-oracle calls total, independent of the number of greedy rounds).
///
/// This complements the local-search algorithms, whose -infinity treatment
/// of infeasible sets makes them blind near a tight budget boundary.
SelectionResult BudgetedGreedy(const GainCostFunction& oracle,
                               const BudgetedGreedyOptions& options = {});

}  // namespace freshsel::selection

#endif  // FRESHSEL_SELECTION_BUDGETED_GREEDY_H_
