// One constraint system presolved once and driven to a feasible basis
// once; any number of objectives are then optimized on copies of that
// basis (phase 2 only).
//
// This is the shared front half of every solve: lp::solve optimizes one
// objective and discards it, ilp::solve branches from the optimized
// copy, and the analyzer builds one per constraint set so the null-set
// probe (phase 1 itself), the worst-case ILP and the best-case ILP share
// a single presolve and a single phase 1.
#pragma once

#include <optional>
#include <vector>

#include "cinderella/lp/presolve.hpp"
#include "cinderella/lp/problem.hpp"
#include "cinderella/lp/simplex.hpp"
#include "cinderella/lp/tableau.hpp"

namespace cinderella::lp {

class FeasibleLp {
 public:
  /// Presolves `problem`'s rows (its objective is ignored) and runs
  /// phase 1 under Devex, restarting under Dantzig then Bland when it
  /// stalls.  Throws whatever a pivot throws; a half-built FeasibleLp
  /// never exists.
  FeasibleLp(const Problem& problem, const SimplexOptions& options);

  /// Optimal once a feasible basis is ready; Infeasible when presolve or
  /// phase 1 proved the rows empty; IterationLimit when phase 1 failed
  /// under every rule.
  [[nodiscard]] SolveStatus status() const { return status_; }
  /// What presolve removed (the presolve* counters).
  [[nodiscard]] const SolverCounters& presolveCounters() const {
    return presolve_;
  }
  /// Phase-1 pivots, including those of rungs the retry ladder
  /// abandoned (lpCalls stays 0: phase 1 optimizes no objective).
  [[nodiscard]] const SolverCounters& phase1Counters() const {
    return phase1_;
  }

  /// A copy of the feasible tableau optimized for `objective` in
  /// `sense`, in the tableau's (reduced) variable space; `*status`
  /// receives the outcome and `*counters` the work (one LP call).
  /// Requires status() == Optimal.
  [[nodiscard]] Tableau optimize(const LinearExpr& objective, Sense sense,
                                 SolveStatus* status,
                                 SolverCounters* counters) const;

  /// Maps a point of the tableau's variable space to the problem's.
  [[nodiscard]] std::vector<double> postsolve(
      const std::vector<double>& values) const;

 private:
  SimplexOptions options_;
  SolveStatus status_ = SolveStatus::Infeasible;
  SolverCounters presolve_;
  SolverCounters phase1_;
  std::optional<Reduction> reduction_;
  int numVars_ = 0;
  std::optional<Tableau> tableau_;
};

}  // namespace cinderella::lp
