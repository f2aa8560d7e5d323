#include "cinderella/lp/simplex.hpp"

#include <chrono>
#include <optional>
#include <utility>
#include <vector>

#include "cinderella/lp/presolve.hpp"
#include "cinderella/lp/tableau.hpp"
#include "cinderella/support/metrics_sink.hpp"

namespace cinderella::lp {

const char* solveStatusStr(SolveStatus status) {
  switch (status) {
    case SolveStatus::Optimal:
      return "optimal";
    case SolveStatus::Infeasible:
      return "infeasible";
    case SolveStatus::Unbounded:
      return "unbounded";
    case SolveStatus::IterationLimit:
      return "iteration-limit";
  }
  return "?";
}

const char* pivotRuleStr(PivotRule rule) {
  switch (rule) {
    case PivotRule::Dantzig:
      return "dantzig";
    case PivotRule::Bland:
      return "bland";
    case PivotRule::Devex:
      return "devex";
  }
  return "?";
}

namespace {

/// Dense maximization objective (negated when the problem minimizes)
/// plus its constant, for a given problem's variable space.
struct DenseObjective {
  std::vector<double> coeffs;
  double constant = 0.0;
};

DenseObjective maximizedObjective(const Problem& problem) {
  const bool minimize = (problem.sense() == Sense::Minimize);
  DenseObjective out;
  out.coeffs.assign(static_cast<std::size_t>(problem.numVars()), 0.0);
  for (const auto& t : problem.objective().terms()) {
    out.coeffs[static_cast<std::size_t>(t.var)] =
        minimize ? -t.coeff : t.coeff;
  }
  out.constant = minimize ? -problem.objective().constant()
                          : problem.objective().constant();
  return out;
}

void reportToSink(support::MetricsSink* sink, const Solution& solution,
                  std::chrono::steady_clock::time_point solveStart) {
  if (sink == nullptr) return;
  const SolverCounters& c = solution.counters;
  sink->add("lp.solves", 1);
  if (c.blandRestarts > 0) sink->add("lp.blandRestarts", 1);
  sink->observe("lp.pivots", c.totalPivots);
  if (c.devexPivots > 0) sink->observe("lp.devexPivots", c.devexPivots);
  if (c.presolveRowsRemoved > 0) {
    sink->observe("lp.presolveRowsRemoved", c.presolveRowsRemoved);
  }
  if (c.presolveColsFixed + c.presolveSubstitutions > 0) {
    sink->observe("lp.presolveColsRemoved",
                  c.presolveColsFixed + c.presolveSubstitutions);
  }
  sink->observe("lp.micros",
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - solveStart)
                    .count());
}

}  // namespace

Solution solve(const Problem& problem, const SimplexOptions& options) {
  // Observability is off on the default path: one relaxed atomic load.
  support::MetricsSink* const sink = support::metricsSink();
  const auto solveStart = sink != nullptr
                              ? std::chrono::steady_clock::now()
                              : std::chrono::steady_clock::time_point{};
  const bool minimize = (problem.sense() == Sense::Minimize);

  // Presolve: shrink the problem before any tableau is built.  The
  // reduction is dropped again when it removed nothing (the copy would
  // only add overhead) and short-circuits exact infeasibility.
  std::optional<Reduction> reduction;
  SolverCounters counters;
  counters.lpCalls = 1;
  if (options.presolve) {
    Reduction r = Reduction::reduce(problem, options);
    counters += r.counters();
    if (r.provedInfeasible()) {
      Solution solution;
      solution.status = SolveStatus::Infeasible;
      solution.counters = counters;
      reportToSink(sink, solution, solveStart);
      return solution;
    }
    if (r.effective()) reduction.emplace(std::move(r));
  }

  const Problem& effective = reduction ? reduction->reduced() : problem;
  const DenseObjective objective = maximizedObjective(effective);

  std::optional<Tableau> tableau;
  tableau.emplace(effective, options);
  Solution solution = tableau->run(objective.coeffs, objective.constant);
  if (solution.status == SolveStatus::IterationLimit && options.blandRetry) {
    // The configured rule exhausted its budget or stalled on a
    // degenerate vertex.  Epsilon-step pivots through near-singular
    // elements erode the tableau numerically, so continuing from the
    // stalled basis is hopeless — re-solve from scratch under
    // progressively more conservative rules: Dantzig (cheap pricing,
    // rarely stalls on IPET systems), then Bland (cannot cycle).
    // Only the last rung's failure is reported upward.
    for (const PivotRule retryRule : {PivotRule::Dantzig, PivotRule::Bland}) {
      if (retryRule == options.pivotRule) continue;
      const SolverCounters wasted = solution.counters;
      SimplexOptions retryOptions = options;
      retryOptions.pivotRule = retryRule;
      tableau.emplace(effective, retryOptions);
      solution = tableau->run(objective.coeffs, objective.constant);
      solution.counters += wasted;
      solution.counters.blandRestarts = 1;
      if (solution.status != SolveStatus::IterationLimit) break;
    }
  }

  if (reduction && solution.status == SolveStatus::Optimal) {
    solution.values = reduction->postsolveValues(solution.values);
  }
  solution.counters += counters;
  if (solution.status == SolveStatus::Optimal && minimize) {
    solution.objective = -solution.objective;
  }

  reportToSink(sink, solution, solveStart);
  return solution;
}

}  // namespace cinderella::lp
