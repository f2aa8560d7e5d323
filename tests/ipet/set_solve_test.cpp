// The per-set ladder (set_solve.hpp) on hand-built ILP outcomes: how a
// finished ilp::IlpSolution settles on Exact, Relaxed, Structural or
// Failed, and how each route rounds a relaxation soundly.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "set_solve.hpp"

namespace cinderella::ipet {
namespace {

constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();

/// max/min x + y subject to x + y <= 4.5: the structural rung bounds
/// the worst case by floor(4.5) = 4 and the best case by 0.
struct Base {
  Base() {
    const int x = problem.addVar("x");
    const int y = problem.addVar("y");
    lp::LinearExpr row;
    row.add(x, 1.0);
    row.add(y, 1.0);
    problem.addConstraint(row, lp::Relation::LessEq, 4.5);
    objectives = {row, row};
  }
  lp::Problem problem;
  std::array<lp::LinearExpr, 2> objectives;
};

/// A ladder with a `maxNodes` budget; with `base`, it has a structural
/// rung.
SetSolver solverFor(const Base* base = nullptr,
                    const SolveControl& control = {}, int maxNodes = 10) {
  SetSolver::Options options;
  options.ilp.maxNodes = maxNodes;
  return SetSolver(control, std::chrono::steady_clock::now(),
                   std::move(options), base ? &base->problem : nullptr,
                   base ? &base->objectives : nullptr);
}

ilp::IlpSolution stopped(ilp::IlpStatus status, int nodes,
                         std::optional<double> rootBound = std::nullopt) {
  ilp::IlpSolution solution;
  solution.status = status;
  solution.stats.nodesExpanded = nodes;
  solution.haveRelaxationBound = rootBound.has_value();
  solution.relaxationBound = rootBound.value_or(0.0);
  return solution;
}

/// Settles one side of a fresh set stopped early by `stop`.
SetOutcome settled(const SetSolver& solver, Side side,
                   ilp::IlpSolution solution,
                   StopCause stop = StopCause::None) {
  SetOutcome out;
  out.stopped = stop;
  solver.settle(&out, side, std::move(solution));
  return out;
}

TEST(SetSolve, OptimalSettlesExactWithItsWitness) {
  ilp::IlpSolution solution;
  solution.status = ilp::IlpStatus::Optimal;
  solution.objective = 41.9999;
  solution.objectiveExact = 42;
  solution.objectiveIsExact = true;
  solution.values = {3.0, 4.0};
  SetOutcome out = settled(solverFor(), Side::Worst, std::move(solution));
  const SideOutcome& side = out.side(Side::Worst);
  EXPECT_TRUE(side.exact());
  EXPECT_EQ(side.bound, 42);
  EXPECT_EQ(side.witness, (std::vector<double>{3.0, 4.0}));
  EXPECT_EQ(out.record.verdict, SetVerdict::Exact);
  EXPECT_EQ(out.record.issue, ErrorCode::None);
  EXPECT_TRUE(out.issues.empty());
  EXPECT_FALSE(out.record.worst.degraded);
}

TEST(SetSolve, SaturatedObjectiveSettlesRelaxed) {
  ilp::IlpSolution solution;
  solution.status = ilp::IlpStatus::Optimal;
  solution.objectiveExact = kMax;
  solution.objectiveIsExact = true;
  solution.objectiveSaturated = true;
  solution.values = {1.0};
  SetOutcome out = settled(solverFor(), Side::Worst, std::move(solution));
  const SideOutcome& side = out.side(Side::Worst);
  EXPECT_EQ(side.verdict, SetVerdict::Relaxed);
  EXPECT_EQ(side.bound, kMax);
  EXPECT_TRUE(side.witness.empty());
  EXPECT_EQ(out.record.issue, ErrorCode::NumericOverflow);
  EXPECT_TRUE(out.record.worst.degraded);
  EXPECT_EQ(out.record.worst.fallbackBound, kMax);
}

TEST(SetSolve, InfeasibleSideContributesNothing) {
  SetOutcome out = settled(solverFor(), Side::Best,
                           stopped(ilp::IlpStatus::Infeasible, 1));
  EXPECT_EQ(out.side(Side::Best).verdict, SetVerdict::Exact);
  EXPECT_FALSE(out.side(Side::Best).bound.has_value());
  EXPECT_TRUE(out.issues.empty());
}

TEST(SetSolve, NodeBudgetWithARootBoundSettlesRelaxed) {
  const SetSolver solver = solverFor();
  SetOutcome worst =
      settled(solver, Side::Worst, stopped(ilp::IlpStatus::Limit, 10, 7.5));
  EXPECT_EQ(worst.side(Side::Worst).verdict, SetVerdict::Relaxed);
  EXPECT_EQ(worst.side(Side::Worst).bound, 7);
  EXPECT_EQ(worst.record.issue, ErrorCode::NodeBudgetExhausted);
  EXPECT_EQ(worst.record.verdict, SetVerdict::Relaxed);
  EXPECT_EQ(worst.record.worst.fallbackBound, 7);
  ASSERT_EQ(worst.issues.size(), 1u);
  EXPECT_EQ(worst.issues[0].phase, "ilp-worst");

  SetOutcome best =
      settled(solver, Side::Best, stopped(ilp::IlpStatus::Limit, 10, 2.5));
  EXPECT_EQ(best.side(Side::Best).bound, 3);
  EXPECT_EQ(best.issues[0].phase, "ilp-best");
}

TEST(SetSolve, NodeBudgetWithoutARootBoundFallsToStructural) {
  const Base base;
  const SetSolver solver = solverFor(&base);
  SetOutcome out;
  solver.settle(&out, Side::Worst, stopped(ilp::IlpStatus::Limit, 10));
  solver.settle(&out, Side::Best, stopped(ilp::IlpStatus::Limit, 10));
  EXPECT_EQ(out.side(Side::Worst).verdict, SetVerdict::Structural);
  EXPECT_EQ(out.side(Side::Worst).bound, 4);
  EXPECT_EQ(out.side(Side::Best).verdict, SetVerdict::Structural);
  EXPECT_EQ(out.side(Side::Best).bound, 0);
  EXPECT_EQ(out.record.verdict, SetVerdict::Structural);
  EXPECT_EQ(out.record.issue, ErrorCode::NodeBudgetExhausted);
  EXPECT_TRUE(out.record.best.degraded);
  EXPECT_EQ(out.record.best.fallbackBound, 0);
}

TEST(SetSolve, WithoutAStructuralBoundTheSideFails) {
  SetOutcome out = settled(solverFor(), Side::Worst,
                           stopped(ilp::IlpStatus::Limit, 10));
  EXPECT_EQ(out.side(Side::Worst).verdict, SetVerdict::Failed);
  EXPECT_FALSE(out.side(Side::Worst).bound.has_value());
  EXPECT_FALSE(out.record.worst.degraded);
  EXPECT_EQ(out.record.verdict, SetVerdict::Failed);
  EXPECT_EQ(out.record.issue, ErrorCode::NodeBudgetExhausted);
}

TEST(SetSolve, InterruptedSettlesByItsStopCause) {
  const Base base;
  const SetSolver solver = solverFor(&base);
  EXPECT_EQ(settled(solver, Side::Worst,
                    stopped(ilp::IlpStatus::Interrupted, 3),
                    StopCause::Deadline)
                .record.issue,
            ErrorCode::DeadlineExpired);
  EXPECT_EQ(settled(solver, Side::Worst,
                    stopped(ilp::IlpStatus::Interrupted, 3),
                    StopCause::Cancelled)
                .record.issue,
            ErrorCode::Cancelled);
  // An LP cut short by the interrupt ends the search as Limit below the
  // node budget: the stop cause names it; without one it is a pivot
  // limit.
  SetOutcome cut = settled(solver, Side::Worst,
                           stopped(ilp::IlpStatus::Limit, 1),
                           StopCause::Deadline);
  EXPECT_EQ(cut.record.issue, ErrorCode::DeadlineExpired);
  EXPECT_EQ(cut.side(Side::Worst).verdict, SetVerdict::Structural);
  EXPECT_EQ(settled(solver, Side::Worst, stopped(ilp::IlpStatus::Limit, 1))
                .record.issue,
            ErrorCode::PivotLimit);
}

TEST(SetSolve, ExpiredDeadlineSendsTheWholeSetToStructural) {
  const Base base;
  SolveControl control;
  control.deadline = std::chrono::milliseconds(-1);
  const SetSolver solver = solverFor(&base, control);
  SetOutcome out;
  solver.solve(0, {}, &out);
  EXPECT_TRUE(out.started);
  EXPECT_EQ(out.record.verdict, SetVerdict::Structural);
  EXPECT_EQ(out.record.issue, ErrorCode::DeadlineExpired);
  EXPECT_EQ(out.side(Side::Worst).bound, 4);
  EXPECT_EQ(out.side(Side::Best).bound, 0);
  EXPECT_FALSE(out.record.worst.solved);
}

TEST(SetSolve, CleanSetSolvesBothSidesExactly) {
  // x + y <= 4.5 plus the set's row x >= 1: worst 4, best 1.
  const Base base;
  lp::LinearExpr atLeastOne;
  atLeastOne.add(0, 1.0);
  SetOutcome out;
  solverFor(&base, {}, 1000)
      .solve(0, {lp::Constraint{atLeastOne, lp::Relation::GreaterEq, 1.0}},
             &out);
  EXPECT_EQ(out.record.verdict, SetVerdict::Exact);
  EXPECT_EQ(out.record.userConstraints, 1);
  EXPECT_TRUE(out.issues.empty());
  EXPECT_TRUE(out.side(Side::Worst).exact());
  EXPECT_EQ(out.side(Side::Worst).bound, 4);
  EXPECT_EQ(out.side(Side::Best).bound, 1);
  EXPECT_EQ(out.record.worst.objective, 4);
  EXPECT_EQ(out.record.best.objective, 1);

  SolveStats stats;
  tally(&stats, out.record);
  EXPECT_EQ(stats.ilpSolves, 2);
  EXPECT_EQ(stats.relaxedSets + stats.structuralSets + stats.failedSets, 0);
  EXPECT_EQ(stats.nodesExpanded, out.record.worst.counters.nodesExpanded +
                                     out.record.best.counters.nodesExpanded);
}

TEST(SetSolve, RoundingRulesAroundAnInteger) {
  // The analyzer snaps a value within 1e-6 of an integer onto it; an
  // LP-format request rounds strictly outward.
  for (const double n : {0.0, 5.0, -5.0, 123456789.0}) {
    SCOPED_TRACE(n);
    const auto i = static_cast<std::int64_t>(n);
    const double above = n + 1e-7;
    const double below = n - 1e-7;
    EXPECT_EQ(soundBound(above, Side::Worst, Rounding::IntegralObjective), i);
    EXPECT_EQ(soundBound(below, Side::Worst, Rounding::IntegralObjective), i);
    EXPECT_EQ(soundBound(above, Side::Best, Rounding::IntegralObjective), i);
    EXPECT_EQ(soundBound(below, Side::Best, Rounding::IntegralObjective), i);
    EXPECT_EQ(soundBound(above, Side::Worst, Rounding::Outward), i + 1);
    EXPECT_EQ(soundBound(below, Side::Worst, Rounding::Outward), i);
    EXPECT_EQ(soundBound(above, Side::Best, Rounding::Outward), i);
    EXPECT_EQ(soundBound(below, Side::Best, Rounding::Outward), i - 1);
  }
}

TEST(SetSolve, RoundingSaturatesAtTheInt64Edges) {
  for (const Rounding rule : {Rounding::IntegralObjective, Rounding::Outward}) {
    for (const Side side : kSides) {
      EXPECT_EQ(soundBound(9.2e18, side, rule), kMax);
      EXPECT_EQ(soundBound(1e300, side, rule), kMax);
      EXPECT_EQ(soundBound(-9.2e18, side, rule), kMin);
      EXPECT_EQ(soundBound(-1e300, side, rule), kMin);
    }
  }
}

}  // namespace
}  // namespace cinderella::ipet
