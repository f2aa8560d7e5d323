// lp::Reduction unit tests: the fixpoint reductions themselves, exact
// agreement between presolved and raw solves, and the postsolve mapping
// of reduced-space solutions back to the original problem.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cinderella/lp/presolve.hpp"
#include "cinderella/lp/problem.hpp"
#include "cinderella/lp/simplex.hpp"

namespace cinderella::lp {
namespace {

LinearExpr expr(std::initializer_list<Term> terms) {
  LinearExpr e;
  for (const Term& t : terms) e.add(t.var, t.coeff);
  return e;
}

/// An IPET-shaped system: entry pinned to 1, flow conservation through
/// a diamond, and a loop bound row.  Optimum: x1 = 1 (beats x2), the
/// loop runs its full 10 iterations.
Problem diamondWithLoop() {
  Problem p;
  for (int i = 0; i < 5; ++i) p.addVar("x" + std::to_string(i));
  p.setObjective(
      expr({{0, 5.0}, {1, 3.0}, {2, 2.0}, {3, 4.0}, {4, 7.0}}),
      Sense::Maximize);
  p.addConstraint(expr({{0, 1.0}}), Relation::Equal, 1.0);
  p.addConstraint(expr({{1, 1.0}, {2, 1.0}, {0, -1.0}}), Relation::Equal,
                  0.0);
  p.addConstraint(expr({{3, 1.0}, {1, -1.0}, {2, -1.0}}), Relation::Equal,
                  0.0);
  p.addConstraint(expr({{4, 1.0}, {3, -10.0}}), Relation::LessEq, 0.0);
  return p;
}

SimplexOptions noPresolve() {
  SimplexOptions o;
  o.presolve = false;
  return o;
}

TEST(Presolve, FlowSystemShrinksAndAgreesWithRawSolve) {
  const Problem p = diamondWithLoop();
  const Reduction r = Reduction::reduce(p);
  ASSERT_FALSE(r.provedInfeasible());
  EXPECT_TRUE(r.effective());
  // The entry pin fixes x0; the flow rows substitute away at least one
  // more variable; every eliminated row leaves the reduced problem.
  EXPECT_GE(r.counters().presolveColsFixed, 1);
  EXPECT_GE(r.counters().presolveSubstitutions, 1);
  EXPECT_GE(r.counters().presolveRowsRemoved, 2);
  EXPECT_LT(r.reduced().constraints().size(), p.constraints().size());

  const Solution raw = solve(p, noPresolve());
  const Solution reduced = solve(p);  // presolve on by default
  ASSERT_EQ(raw.status, SolveStatus::Optimal);
  ASSERT_EQ(reduced.status, SolveStatus::Optimal);
  EXPECT_DOUBLE_EQ(raw.objective, 82.0);
  EXPECT_DOUBLE_EQ(reduced.objective, 82.0);
  EXPECT_TRUE(p.isFeasiblePoint(reduced.values));
  EXPECT_GT(reduced.counters.presolveRowsRemoved, 0);
  EXPECT_EQ(raw.counters.presolveRowsRemoved, 0);
  EXPECT_EQ(raw.counters.presolveColsFixed, 0);
  EXPECT_EQ(raw.counters.presolveSubstitutions, 0);
  EXPECT_EQ(raw.counters.presolveRounds, 0);
}

TEST(Presolve, SurvivingColumnsKeepTheirOriginalOrder) {
  // Branch-and-bound picks the lowest-index fractional column of the
  // reduced problem and relies on that index order being the original
  // one.  Three diamonds in a row, each with a bounded loop body: the
  // pass eliminates columns between the survivors, which must still
  // come out in strictly ascending original order.
  Problem p;
  constexpr int kDiamonds = 3;
  for (int d = 0; d < kDiamonds; ++d) {
    for (const char* part : {"in", "left", "right", "body"}) {
      p.addVar(std::string(part) + std::to_string(d));
    }
  }
  LinearExpr objective;
  for (int v = 0; v < p.numVars(); ++v) objective.add(v, 1.0 + v % 3);
  p.setObjective(std::move(objective), Sense::Maximize);
  p.addConstraint(expr({{0, 1.0}}), Relation::Equal, 1.0);
  for (int d = 0; d < kDiamonds; ++d) {
    const int in = 4 * d;
    p.addConstraint(expr({{in + 1, 1.0}, {in + 2, 1.0}, {in, -1.0}}),
                    Relation::Equal, 0.0);
    p.addConstraint(expr({{in + 3, 1.0}, {in + 1, -7.0}, {in + 2, -3.0}}),
                    Relation::LessEq, 0.0);
    if (d + 1 < kDiamonds) {
      p.addConstraint(expr({{in + 4, 1.0}, {in + 1, -1.0}, {in + 2, -1.0}}),
                      Relation::Equal, 0.0);
    }
  }
  const Reduction r = Reduction::reduce(p);
  ASSERT_FALSE(r.provedInfeasible());
  std::vector<int> survivors;
  for (int j = 0; j < r.reduced().numVars(); ++j) {
    int original = -1;
    for (int v = 0; v < p.numVars(); ++v) {
      if (p.varName(v) == r.reduced().varName(j)) original = v;
    }
    ASSERT_GE(original, 0) << r.reduced().varName(j);
    survivors.push_back(original);
  }
  ASSERT_GE(survivors.size(), 3u);
  // Not vacuous: some eliminated column sits below the last survivor.
  EXPECT_LT(static_cast<int>(survivors.size()), survivors.back() + 1);
  for (std::size_t j = 1; j < survivors.size(); ++j) {
    EXPECT_LT(survivors[j - 1], survivors[j]);
  }
}

TEST(Presolve, PostsolveValuesSatisfyEveryOriginalRow) {
  const Problem p = diamondWithLoop();
  const Reduction r = Reduction::reduce(p);
  const Solution sol = solve(r.reduced(), noPresolve());
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  const std::vector<double> original = r.postsolveValues(sol.values);
  ASSERT_EQ(original.size(), static_cast<std::size_t>(p.numVars()));
  EXPECT_TRUE(p.isFeasiblePoint(original));
  EXPECT_DOUBLE_EQ(p.objective().evaluate(original), 82.0);
}

TEST(Presolve, AllFixedProblemSolvesWithoutSimplexWork) {
  // Every variable is pinned by the reductions: x0 = 1 directly, x1 by
  // substitution through the equality.  The reduced problem is empty.
  Problem p;
  p.addVar("x0");
  p.addVar("x1");
  p.setObjective(expr({{0, 2.0}, {1, 3.0}}), Sense::Maximize);
  p.addConstraint(expr({{0, 1.0}}), Relation::Equal, 1.0);
  p.addConstraint(expr({{1, 1.0}, {0, -4.0}}), Relation::Equal, 0.0);

  const Solution reduced = solve(p);
  const Solution raw = solve(p, noPresolve());
  ASSERT_EQ(reduced.status, SolveStatus::Optimal);
  ASSERT_EQ(raw.status, SolveStatus::Optimal);
  EXPECT_DOUBLE_EQ(reduced.objective, raw.objective);
  EXPECT_DOUBLE_EQ(reduced.objective, 14.0);
  ASSERT_EQ(reduced.values.size(), 2u);
  EXPECT_DOUBLE_EQ(reduced.values[0], 1.0);
  EXPECT_DOUBLE_EQ(reduced.values[1], 4.0);
  EXPECT_EQ(reduced.counters.totalPivots, 0);

  const Reduction r = Reduction::reduce(p);
  EXPECT_TRUE(r.reduced().constraints().empty());
}

TEST(Presolve, ContradictoryDuplicatesProveInfeasibility) {
  Problem p;
  p.addVar("x0");
  p.addVar("x1");
  p.setObjective(expr({{0, 1.0}, {1, 1.0}}), Sense::Maximize);
  p.addConstraint(expr({{0, 1.0}, {1, 2.0}}), Relation::Equal, 3.0);
  p.addConstraint(expr({{0, 1.0}, {1, 2.0}}), Relation::Equal, 5.0);

  const Reduction r = Reduction::reduce(p);
  EXPECT_TRUE(r.provedInfeasible());
  EXPECT_EQ(solve(p).status, SolveStatus::Infeasible);
  EXPECT_EQ(solve(p, noPresolve()).status, SolveStatus::Infeasible);
}

TEST(Presolve, UnboundedVerdictAgreesWithRawSolve) {
  Problem p;
  p.addVar("x0");
  p.addVar("x1");
  p.setObjective(expr({{0, 1.0}, {1, 1.0}}), Sense::Maximize);
  p.addConstraint(expr({{0, 1.0}}), Relation::Equal, 1.0);
  // x1 unconstrained above.
  p.addConstraint(expr({{1, 1.0}}), Relation::GreaterEq, 2.0);

  EXPECT_EQ(solve(p).status, SolveStatus::Unbounded);
  EXPECT_EQ(solve(p, noPresolve()).status, SolveStatus::Unbounded);
}

/// x0 = x1 (x0 is the substitution pivot, with no bound of its own)
/// plus `carriers` rows x0 + z_k <= 10, each z_k a fresh variable.
Problem pivotCarriedBy(int carriers) {
  Problem p;
  p.addVar("x0");
  p.addVar("x1");
  p.addConstraint(expr({{0, 1.0}, {1, -1.0}}), Relation::Equal, 0.0);
  LinearExpr objective = expr({{0, 1.0}});
  for (int k = 0; k < carriers; ++k) {
    const int z = p.addVar("z" + std::to_string(k));
    p.addConstraint(expr({{0, 1.0}, {z, 1.0}}), Relation::LessEq, 10.0);
    objective.add(z, 1.0);
  }
  p.setObjective(std::move(objective), Sense::Maximize);
  return p;
}

TEST(Presolve, SubstitutionStopsAtSixteenCarrierRows) {
  // 16 other rows holding the pivot: substituted, each rewritten to
  // x1 + z_k <= 10.  At 17 the fill-in cap keeps x0 and every row.
  const Reduction at = Reduction::reduce(pivotCarriedBy(16));
  EXPECT_EQ(at.counters().presolveSubstitutions, 1);
  EXPECT_EQ(at.counters().presolveRowsRemoved, 1);
  ASSERT_EQ(at.reduced().constraints().size(), 16u);
  EXPECT_EQ(at.reduced().varName(0), "x1");
  for (const Constraint& c : at.reduced().constraints()) {
    ASSERT_EQ(c.expr.terms().size(), 2u);
    EXPECT_EQ(c.expr.terms()[0].var, 0);  // x1
    EXPECT_DOUBLE_EQ(c.expr.terms()[0].coeff, 1.0);
    EXPECT_DOUBLE_EQ(c.rhs, 10.0);
  }

  const Problem over = pivotCarriedBy(17);
  const Reduction past = Reduction::reduce(over);
  EXPECT_EQ(past.counters().presolveSubstitutions, 0);
  EXPECT_EQ(past.counters().presolveRowsRemoved, 0);
  EXPECT_FALSE(past.effective());
  for (const Problem& p : {pivotCarriedBy(16), over}) {
    const Solution raw = solve(p, noPresolve());
    const Solution reduced = solve(p);
    ASSERT_EQ(raw.status, SolveStatus::Optimal);
    EXPECT_DOUBLE_EQ(reduced.objective, raw.objective);
  }
}

TEST(Presolve, OverflowingSubstitutionDiscardsTheWholeReduction) {
  // x3 = 1 is fixed first; then substituting x0 = 2^40 x1 into
  // 2^13 x0 + x2 <= 10 would need the coefficient 2^53, past the 2^52
  // cap.  Nothing of the pass survives but its round count, and the
  // caller solves the original problem.
  Problem p;
  for (int i = 0; i < 4; ++i) p.addVar("x" + std::to_string(i));
  p.setObjective(expr({{0, 1.0}, {2, 1.0}, {3, 1.0}}), Sense::Maximize);
  p.addConstraint(expr({{3, 1.0}}), Relation::Equal, 1.0);
  p.addConstraint(expr({{0, 1.0}, {1, -1099511627776.0}}), Relation::Equal,
                  0.0);
  p.addConstraint(expr({{0, 8192.0}, {2, 1.0}}), Relation::LessEq, 10.0);

  const Reduction r = Reduction::reduce(p);
  EXPECT_FALSE(r.provedInfeasible());
  EXPECT_FALSE(r.effective());
  SolverCounters expected;
  expected.presolveRounds = 1;
  EXPECT_EQ(r.counters(), expected);
  EXPECT_EQ(r.reduced().numVars(), 0);

  const Solution reduced = solve(p);
  const Solution raw = solve(p, noPresolve());
  ASSERT_EQ(raw.status, SolveStatus::Optimal);
  ASSERT_EQ(reduced.status, SolveStatus::Optimal);
  EXPECT_DOUBLE_EQ(reduced.objective, raw.objective);
  EXPECT_EQ(reduced.counters.presolveRounds, 1);
}

TEST(Presolve, NonIntegralRowShieldsItsVariables) {
  // 0.5 x0 + x1 <= 3 is kept verbatim, so neither x0 nor x1 may be
  // eliminated: x0 + x2 <= 0 forces x0 = x2 = 0 but fixes only x2, and
  // the unit equality x0 - x1 = 0 is no substitution pivot.
  Problem p;
  for (int i = 0; i < 3; ++i) p.addVar("x" + std::to_string(i));
  p.setObjective(expr({{0, 1.0}, {1, 1.0}, {2, 1.0}}), Sense::Maximize);
  p.addConstraint(expr({{0, 0.5}, {1, 1.0}}), Relation::LessEq, 3.0);
  p.addConstraint(expr({{0, 1.0}, {2, 1.0}}), Relation::LessEq, 0.0);
  p.addConstraint(expr({{0, 1.0}, {1, -1.0}}), Relation::Equal, 0.0);

  const Reduction r = Reduction::reduce(p);
  ASSERT_FALSE(r.provedInfeasible());
  EXPECT_EQ(r.counters().presolveColsFixed, 1);
  EXPECT_EQ(r.counters().presolveSubstitutions, 0);
  ASSERT_EQ(r.reduced().numVars(), 2);
  EXPECT_EQ(r.reduced().varName(0), "x0");
  EXPECT_EQ(r.reduced().varName(1), "x1");
  bool verbatim = false;
  for (const Constraint& c : r.reduced().constraints()) {
    for (const Term& t : c.expr.terms()) verbatim |= t.coeff == 0.5;
  }
  EXPECT_TRUE(verbatim);

  const Solution reduced = solve(p);
  const Solution raw = solve(p, noPresolve());
  ASSERT_EQ(raw.status, SolveStatus::Optimal);
  ASSERT_EQ(reduced.status, SolveStatus::Optimal);
  EXPECT_DOUBLE_EQ(reduced.objective, raw.objective);
  EXPECT_TRUE(p.isFeasiblePoint(reduced.values));
}

TEST(Presolve, DisabledOptionLeavesProblemUntouched) {
  const Problem p = diamondWithLoop();
  const Solution raw = solve(p, noPresolve());
  ASSERT_EQ(raw.status, SolveStatus::Optimal);
  EXPECT_GT(raw.counters.totalPivots, 0);
  // No presolve counter moves: only the LP call and its pivots count.
  SolverCounters expected;
  expected.lpCalls = 1;
  expected.totalPivots = raw.counters.totalPivots;
  expected.devexPivots = raw.counters.devexPivots;
  EXPECT_EQ(raw.counters, expected);
}

}  // namespace
}  // namespace cinderella::lp
