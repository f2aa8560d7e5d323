#include "cinderella/lp/simplex.hpp"

#include <chrono>
#include <utility>
#include <vector>

#include "cinderella/lp/feasible_lp.hpp"
#include "cinderella/support/error.hpp"
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

void reportToSink(support::MetricsSink* sink, const SolverCounters& c,
                  std::chrono::steady_clock::time_point solveStart) {
  if (sink == nullptr) return;
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

/// Runs `attempt` on a fresh start under the configured rule and, while
/// it reports IterationLimit, under progressively more conservative
/// rules: Dantzig (cheap pricing, rarely stalls on IPET systems), then
/// Bland (cannot cycle).  Epsilon-step pivots through near-singular
/// elements erode a stalled tableau numerically, so every rung starts
/// over.  Pivots of abandoned rungs stay counted; blandRestarts is 1
/// when any rung after the first ran.
template <typename Attempt>
SolveStatus withRetryLadder(const SimplexOptions& options,
                            SolverCounters* counters, Attempt attempt) {
  SolveStatus st = attempt(options.pivotRule, counters);
  if (st != SolveStatus::IterationLimit || !options.blandRetry) return st;
  for (const PivotRule rule : {PivotRule::Dantzig, PivotRule::Bland}) {
    if (rule == options.pivotRule) continue;
    counters->blandRestarts = 1;
    st = attempt(rule, counters);
    if (st != SolveStatus::IterationLimit) break;
  }
  return st;
}

}  // namespace

FeasibleLp::FeasibleLp(const Problem& problem, const SimplexOptions& options)
    : options_(options) {
  // Observability is off on the default path: one relaxed atomic load.
  support::MetricsSink* const sink = support::metricsSink();
  const auto start = sink != nullptr ? std::chrono::steady_clock::now()
                                     : std::chrono::steady_clock::time_point{};
  // Presolve: shrink the rows before any tableau is built.  The
  // reduction is dropped again when it removed nothing (the copy would
  // only add overhead) and short-circuits exact infeasibility.
  if (options.presolve) {
    Reduction r = Reduction::reduce(problem, options);
    presolve_ = r.counters();
    if (r.provedInfeasible()) {
      reportToSink(sink, presolve_, start);
      return;
    }
    if (r.effective()) reduction_.emplace(std::move(r));
  }
  const Problem& effective = reduction_ ? reduction_->reduced() : problem;
  numVars_ = effective.numVars();
  status_ = withRetryLadder(
      options, &phase1_, [&](PivotRule rule, SolverCounters* counters) {
        SimplexOptions ruleOptions = options;
        ruleOptions.pivotRule = rule;
        tableau_.emplace(effective, ruleOptions);
        const SolveStatus st = tableau_->phase1();
        *counters += tableau_->takeCounters();
        return st;
      });
  if (status_ != SolveStatus::Optimal) tableau_.reset();
  reportToSink(sink, presolve_ + phase1_, start);
}

Tableau FeasibleLp::optimize(const LinearExpr& objective, Sense sense,
                             SolveStatus* status,
                             SolverCounters* counters) const {
  CIN_REQUIRE(status_ == SolveStatus::Optimal);
  support::MetricsSink* const sink = support::metricsSink();
  const auto start = sink != nullptr ? std::chrono::steady_clock::now()
                                     : std::chrono::steady_clock::time_point{};
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
      options_, &work, [&](PivotRule rule, SolverCounters* c) {
        if (rule != options_.pivotRule) {
          live = *tableau_;
          live.setPivotRule(rule);
        }
        const SolveStatus st = live.optimize(coeffs, constant);
        *c += live.takeCounters();
        return st;
      });
  work.lpCalls = 1;  // one LP, however many rungs it took
  *counters += work;
  reportToSink(sink, work, start);
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
