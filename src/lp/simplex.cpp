#include "cinderella/lp/simplex.hpp"

#include <utility>
#include <vector>

#include "cinderella/lp/feasible_lp.hpp"
#include "cinderella/support/error.hpp"

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

namespace {

/// Runs `attempt` on a fresh start under Devex and, while it reports
/// IterationLimit, under progressively more conservative rules: Dantzig
/// (cheap pricing, rarely stalls on IPET systems), then Bland (cannot
/// cycle).  Epsilon-step pivots through near-singular elements erode a
/// stalled tableau numerically, so every rung starts over.  Pivots of
/// abandoned rungs stay counted; blandRestarts is 1 when any rung after
/// the first ran.
template <typename Attempt>
SolveStatus withRetryLadder(SolverCounters* counters, Attempt attempt) {
  SolveStatus st = attempt(PivotRule::Devex, counters);
  for (const PivotRule rule : {PivotRule::Dantzig, PivotRule::Bland}) {
    if (st != SolveStatus::IterationLimit) break;
    counters->blandRestarts = 1;
    st = attempt(rule, counters);
  }
  return st;
}

}  // namespace

FeasibleLp::FeasibleLp(const Problem& problem, const SimplexOptions& options)
    : options_(options) {
  // Presolve: shrink the rows before any tableau is built.  The
  // reduction is dropped again when it removed nothing (the copy would
  // only add overhead) and short-circuits exact infeasibility.
  if (options.presolve) {
    Reduction r = Reduction::reduce(problem, options);
    presolve_ = r.counters();
    if (r.provedInfeasible()) return;
    if (r.effective()) reduction_.emplace(std::move(r));
  }
  const Problem& effective = reduction_ ? reduction_->reduced() : problem;
  numVars_ = effective.numVars();
  status_ = withRetryLadder(
      &phase1_, [&](PivotRule rule, SolverCounters* counters) {
        tableau_.emplace(effective, options);
        tableau_->setPivotRule(rule);
        const SolveStatus st = tableau_->phase1();
        *counters += tableau_->takeCounters();
        return st;
      });
  if (status_ != SolveStatus::Optimal) tableau_.reset();
}

Tableau FeasibleLp::optimize(const LinearExpr& objective, Sense sense,
                             SolveStatus* status,
                             SolverCounters* counters) const {
  CIN_REQUIRE(status_ == SolveStatus::Optimal);
  // Dense maximization form in the tableau's variable space.
  const LinearExpr mapped =
      reduction_ ? reduction_->mapObjective(objective) : objective;
  const double sign = sense == Sense::Minimize ? -1.0 : 1.0;
  std::vector<double> coeffs(static_cast<std::size_t>(numVars_), 0.0);
  for (const Term& t : mapped.terms()) {
    coeffs[static_cast<std::size_t>(t.var)] += sign * t.coeff;
  }
  const double constant = sign * mapped.constant();

  Tableau live = *tableau_;
  SolverCounters work;
  *status = withRetryLadder(
      &work, [&](PivotRule rule, SolverCounters* c) {
        if (rule != PivotRule::Devex) {
          live = *tableau_;
          live.setPivotRule(rule);
        }
        const SolveStatus st = live.optimize(coeffs, constant);
        *c += live.takeCounters();
        return st;
      });
  work.lpCalls = 1;  // one LP, however many rungs it took
  *counters += work;
  return live;
}

std::vector<double> FeasibleLp::postsolve(
    const std::vector<double>& values) const {
  return reduction_ ? reduction_->postsolveValues(values) : values;
}

Solution solve(const Problem& problem, const SimplexOptions& options) {
  Solution solution;
  const FeasibleLp region(problem, options);
  solution.counters = region.presolveCounters() + region.phase1Counters();
  solution.status = region.status();
  if (solution.status != SolveStatus::Optimal) {
    solution.counters.lpCalls = 1;
    return solution;
  }
  const Tableau live = region.optimize(problem.objective(), problem.sense(),
                                       &solution.status, &solution.counters);
  if (solution.status != SolveStatus::Optimal) return solution;
  solution.values = region.postsolve(live.values());
  solution.objective = problem.sense() == Sense::Minimize
                           ? -live.objectiveValue()
                           : live.objectiveValue();
  return solution;
}

}  // namespace cinderella::lp
