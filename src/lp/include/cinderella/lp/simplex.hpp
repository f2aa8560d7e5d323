// Two-phase primal simplex solver over a sparse-row tableau, with a
// presolve/postsolve reduction pass.
//
// Sized for IPET workloads: hundreds of variables and constraints.  The
// pivot rule is Devex reference-framework pricing, which prices
// columns by reduced cost scaled against an approximate steepest-edge
// weight — on degenerate flow problems it takes far fewer pivots than
// pure Dantzig while costing the same per-iteration scan.  When Devex
// hits its pivot budget or stalls in phase 1 or a root phase 2, that
// phase is re-run from a clean start under Dantzig, then Bland; only if
// Bland also fails does the caller see IterationLimit.  Dual repairs
// have no ladder: a failed repair ends the branch-and-bound search as
// Limit.
//
// Presolve: when SimplexOptions::presolve is set, the lp::Reduction
// fixpoint pass (see presolve.hpp) runs first and the simplex only ever
// sees the reduced rows; solutions are mapped back to the original
// space, so callers observe identical results.
//
// solve() is a one-shot wrapper over lp::FeasibleLp (feasible_lp.hpp):
// presolve and phase 1 once, then phase 2 for the problem's objective.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "cinderella/lp/counters.hpp"
#include "cinderella/lp/problem.hpp"

namespace cinderella::lp {

enum class SolveStatus { Optimal, Infeasible, Unbounded, IterationLimit };

[[nodiscard]] const char* solveStatusStr(SolveStatus status);

/// Entering-column selection strategy: Devex first, then the retry
/// ladder's Dantzig and Bland.
enum class PivotRule {
  /// Most negative reduced cost; fast, but may cycle on degeneracy.
  Dantzig,
  /// Smallest-index negative reduced cost; provably terminating.
  Bland,
  /// Devex reference-framework pricing: maximizes rc^2 / weight, where
  /// the weights approximate steepest-edge norms and are updated from
  /// the pivot row.  Same O(cols) scan as Dantzig, far fewer pivots on
  /// degenerate flow systems.
  Devex,
};

struct Solution {
  SolveStatus status = SolveStatus::Infeasible;
  /// Objective value in the problem's own sense (valid when Optimal).
  double objective = 0.0;
  /// Value of every original variable (valid when Optimal).
  std::vector<double> values;
  /// Work done: lpCalls is 1; pivots of both phases and of attempts
  /// abandoned by the Dantzig/Bland retry are included, and
  /// blandRestarts counts the phases that retry re-ran; the presolve
  /// counters say what the reduction removed.
  SolverCounters counters;
};

struct SimplexOptions {
  /// Hard cap on the pivots of one simplex run (a phase 1, one
  /// objective's phase 2, or one dual repair); exceeded =>
  /// IterationLimit.
  int maxPivots = 200000;
  /// Pivot-element magnitude below which a column is treated as zero.
  double pivotTol = 1e-9;
  /// Feasibility/optimality tolerance on reduced costs and residuals.
  double tol = 1e-7;
  /// Run the lp::Reduction presolve pass before the simplex and map the
  /// solution back afterwards.  Results are identical either way;
  /// the reduced tableau is just smaller.
  bool presolve = true;
  /// Polled, when set, every 64 pivots of a run and once per B&B node;
  /// true ends the run as IterationLimit (the search as Interrupted).
  /// Carries the analyzer's deadline and cancel flag into every LP.
  std::function<bool()> interrupt;
};

/// Solves `problem` and returns its optimum, or the failure status.
[[nodiscard]] Solution solve(const Problem& problem,
                             const SimplexOptions& options = {});

}  // namespace cinderella::lp
