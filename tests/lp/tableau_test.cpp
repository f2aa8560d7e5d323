// Live-tableau tests: a bound cut appended to an optimal tableau and
// repaired by the dual simplex must agree with a cold solve of the same
// problem with the bound written as an ordinary row.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "cinderella/lp/feasible_lp.hpp"
#include "cinderella/lp/simplex.hpp"
#include "cinderella/lp/tableau.hpp"
#include "cinderella/support/text.hpp"

namespace cinderella::lp {
namespace {

LinearExpr single(int var) {
  LinearExpr e;
  e.add(var, 1.0);
  return e;
}

/// Cold reference: `p` plus the row x[var] (rel) bound, solved from
/// scratch.
Solution coldWithBound(const Problem& p, int var, Relation rel,
                       double bound) {
  Problem q = p;
  q.addConstraint(single(var), rel, bound);
  return solve(q);
}

/// Live path: optimize `p` on a copy of its phase-1 tableau, append the
/// bound as a cut, repair.  Returns the status and, when Optimal, the
/// objective in `p`'s own sense.
SolveStatus liveWithBound(const Problem& p, int var, Relation rel,
                          double bound, double* objective) {
  // Presolve off: the cut names a variable of `p` itself, not of a
  // reduced space.
  SimplexOptions options;
  options.presolve = false;
  const FeasibleLp region(p, options);
  if (region.status() != SolveStatus::Optimal) return region.status();
  SolveStatus status = SolveStatus::Infeasible;
  SolverCounters counters;
  Tableau live =
      region.optimize(p.objective(), p.sense(), &status, &counters);
  EXPECT_EQ(status, SolveStatus::Optimal);
  live.addBoundCut(var, rel, bound);
  status = live.dualSimplex();
  if (status == SolveStatus::Optimal) {
    *objective = p.sense() == Sense::Minimize ? -live.objectiveValue()
                                              : live.objectiveValue();
  }
  return status;
}

/// max 3x + 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18  ->  36 at (2, 6).
Problem textbook() {
  Problem p;
  const int x = p.addVar("x");
  const int y = p.addVar("y");
  LinearExpr obj;
  obj.add(x, 3.0);
  obj.add(y, 5.0);
  p.setObjective(obj, Sense::Maximize);
  p.addConstraint(single(x), Relation::LessEq, 4.0);
  LinearExpr c2;
  c2.add(y, 2.0);
  p.addConstraint(std::move(c2), Relation::LessEq, 12.0);
  LinearExpr c3;
  c3.add(x, 3.0);
  c3.add(y, 2.0);
  p.addConstraint(std::move(c3), Relation::LessEq, 18.0);
  return p;
}

TEST(LiveTableau, BoundCutRepairMatchesColdSolve) {
  const Problem p = textbook();
  // y <= 5 forces a dual pivot (y is basic at 6); x >= 3 likewise.
  for (const auto& [var, rel, bound] :
       std::vector<std::tuple<int, Relation, double>>{
           {1, Relation::LessEq, 5.0},
           {0, Relation::GreaterEq, 3.0},
           {0, Relation::LessEq, 1.0},
           {1, Relation::GreaterEq, 6.0}}) {
    const Solution cold = coldWithBound(p, var, rel, bound);
    double objective = 0.0;
    const SolveStatus live = liveWithBound(p, var, rel, bound, &objective);
    ASSERT_EQ(live, cold.status) << var << " " << bound;
    EXPECT_NEAR(objective, cold.objective, 1e-7) << var << " " << bound;
  }
}

TEST(LiveTableau, InfeasibleBoundCutIsDetected) {
  // x <= 4 is a row of the problem, so x >= 5 empties it.
  const Problem p = textbook();
  ASSERT_EQ(coldWithBound(p, 0, Relation::GreaterEq, 5.0).status,
            SolveStatus::Infeasible);
  double objective = 0.0;
  EXPECT_EQ(liveWithBound(p, 0, Relation::GreaterEq, 5.0, &objective),
            SolveStatus::Infeasible);
}

TEST(LiveTableau, RandomBoundCutsMatchColdSolves) {
  // Random bounded LPs in both senses; every cut floors or ceils one
  // variable's optimal value, or pushes past its box (infeasible).
  int repaired = 0;
  int infeasible = 0;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    Xorshift64 rng(seed);
    Problem p;
    const int n = static_cast<int>(rng.range(2, 4));
    for (int v = 0; v < n; ++v) {
      p.addVar();
      p.addConstraint(single(v), Relation::LessEq, 7.0);
    }
    const int rows = static_cast<int>(rng.range(1, 3));
    for (int i = 0; i < rows; ++i) {
      LinearExpr e;
      for (int v = 0; v < n; ++v) {
        e.add(v, static_cast<double>(rng.range(-3, 4)));
      }
      const Relation rel =
          rng.range(0, 2) == 0
              ? Relation::Equal
              : (rng.range(0, 1) ? Relation::LessEq : Relation::GreaterEq);
      p.addConstraint(std::move(e), rel, static_cast<double>(rng.range(0, 9)));
    }
    LinearExpr obj;
    for (int v = 0; v < n; ++v) {
      obj.add(v, static_cast<double>(rng.range(-4, 6)));
    }
    p.setObjective(obj, rng.range(0, 1) ? Sense::Maximize : Sense::Minimize);

    const Solution root = solve(p);
    if (root.status != SolveStatus::Optimal) continue;
    for (int v = 0; v < n; ++v) {
      const double value = root.values[static_cast<std::size_t>(v)];
      for (const auto& [rel, bound] :
           std::vector<std::pair<Relation, double>>{
               {Relation::LessEq, std::floor(value - 0.5)},
               {Relation::GreaterEq, std::ceil(value + 0.5)},
               {Relation::GreaterEq, 8.0}}) {
        if (bound < 0) continue;
        const Solution cold = coldWithBound(p, v, rel, bound);
        double objective = 0.0;
        const SolveStatus live = liveWithBound(p, v, rel, bound, &objective);
        ASSERT_EQ(live, cold.status) << "seed " << seed << "\n" << p.str();
        if (live == SolveStatus::Optimal) {
          EXPECT_NEAR(objective, cold.objective, 1e-6)
              << "seed " << seed << "\n" << p.str();
          ++repaired;
        } else {
          ++infeasible;
        }
      }
    }
  }
  // The sweep must exercise both outcomes, not just one of them.
  EXPECT_GT(repaired, 50);
  EXPECT_GT(infeasible, 50);
}

}  // namespace
}  // namespace cinderella::lp
