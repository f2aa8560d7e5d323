// Pure integer linear programming by branch-and-bound over the LP
// relaxation, as used by the paper's ILP step.
//
// The search is a depth-first dive over live simplex tableaus: the root
// reprices a copy of an lp::FeasibleLp's phase-1 tableau, and each
// branch appends one bound row that the dual simplex repairs in place
// (see feasible_lp.hpp and tableau.hpp).
//
// Each node branches on the lowest-index variable whose value is
// fractional.  Index order is a priority, not an accident of numbering:
// ipet::Analyzer lays out every context's flow counts (block counts x,
// edge counts d) first and the cache-state variables (first-iteration
// xfirst, conflict-graph y/p/miss) after them, and lp::Reduction keeps
// the surviving columns in ascending original order.  So the search
// fixes control flow before cache state; the cache variables of an
// integral flow usually follow without further branching.  Branching
// on the most fractional column instead picks conflict-graph variables
// first and grows trees hundreds of times larger (EXPERIMENTS.md).
//
// The solver is instrumented: it records how many LP relaxations were
// solved and whether the *first* relaxation already produced an integral
// point.  Section III-D of the paper observes that for IPET constraint
// systems "the first call to the linear program package resulted in an
// integer valued solution"; the stats let benchmarks verify that claim.
#pragma once

#include <cstdint>
#include <vector>

#include "cinderella/lp/feasible_lp.hpp"
#include "cinderella/lp/problem.hpp"
#include "cinderella/lp/simplex.hpp"

namespace cinderella::ilp {

enum class IlpStatus { Optimal, Infeasible, Unbounded, Limit, Interrupted };

[[nodiscard]] const char* ilpStatusStr(IlpStatus status);

struct IlpSolution {
  IlpStatus status = IlpStatus::Infeasible;
  double objective = 0.0;
  /// Integral assignment for every variable (valid when Optimal; also
  /// filled on Limit/Interrupted when an incumbent was found).
  std::vector<double> values;
  /// Incumbent objective recomputed exactly in checked 64-bit integer
  /// arithmetic (promoting to __int128 on overflow), valid when
  /// objectiveIsExact.  `objective` is a double and silently loses
  /// precision past 2^53; this does not.
  std::int64_t objectiveExact = 0;
  /// True when every objective coefficient was integral so the exact
  /// recomputation applies.
  bool objectiveIsExact = false;
  /// The exact objective left 64-bit range; objectiveExact is saturated
  /// to the nearest representable bound.
  bool objectiveSaturated = false;
  /// Root LP-relaxation objective — a sound bound on the ILP optimum
  /// (upper for Maximize, lower for Minimize).  Valid when
  /// haveRelaxationBound; the degradation ladder falls back to it.
  double relaxationBound = 0.0;
  bool haveRelaxationBound = false;
  /// True when the root relaxation was already integral (paper's claim).
  bool firstRelaxationIntegral = false;
  /// Work summed over every LP relaxation solved, plus the nodes
  /// expanded and this solve's checked promotions.
  lp::SolverCounters stats;
};

struct IlpOptions {
  /// Maximum branch-and-bound nodes expanded (stats.nodesExpanded)
  /// before giving up with Limit.
  int maxNodes = 100000;
  /// |x - round(x)| below this counts as integral.
  double intTol = 1e-6;
  /// Every LP of the search; its interrupt is also polled once per node.
  lp::SimplexOptions lpOptions;
};

/// Solves `problem` with every variable required to be a nonnegative
/// integer.  stats include the presolve and phase-1 work.
[[nodiscard]] IlpSolution solve(const lp::Problem& problem,
                                const IlpOptions& options = {});

/// The same search over `region`, which must have been built from
/// `problem`'s rows: the root optimizes `problem`'s objective on a copy
/// of the region's feasible tableau, so presolve and phase 1 are not
/// repeated, and stats leave the region's own counters out.  lpCalls
/// counts the root plus one per dual repair, so it equals nodesExpanded.
[[nodiscard]] IlpSolution solve(const lp::Problem& problem,
                                const lp::FeasibleLp& region,
                                const IlpOptions& options);

}  // namespace cinderella::ilp
