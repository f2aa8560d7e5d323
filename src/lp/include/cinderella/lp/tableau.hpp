// Sparse-row simplex tableau in standard form for the two-phase primal
// simplex and the dual simplex that repairs it after a bound cut.
//
// Rows are kept as sorted (column, value) entry lists — IPET constraint
// matrices are flow matrices with a handful of nonzeros per row, so the
// dense tableau this replaces spent most of its time streaming zeros.
// The objective (reduced-cost) row is kept dense: every entering-column
// scan reads all of it anyway.
//
// Column ids: original variable v is column v, the slack/surplus of
// problem row r is column numVars + 2r, its artificial column
// numVars + 2r + 1.  A bound cut appended later takes the next free
// pair, so slacks stay at even offsets and artificials at odd ones even
// after phase 1 has dropped redundant rows.
//
// A tableau is a value: branch-and-bound copies the one it leaves on
// its stack, and the set LP copies its phase-1 tableau per objective.
#pragma once

#include <vector>

#include "cinderella/lp/problem.hpp"
#include "cinderella/lp/simplex.hpp"

namespace cinderella::lp {

class Tableau {
 public:
  Tableau(const Problem& problem, const SimplexOptions& options);

  /// Phase 1: drives every artificial to zero, then pivots the
  /// artificials out of the basis and deletes them (a row whose
  /// artificial cannot leave is redundant and is dropped), so the
  /// tableau holds a feasible basis over real columns only.  Returns
  /// Optimal (feasible), Infeasible, or IterationLimit when the budget,
  /// stall guard or interrupt trips or the basis fails the
  /// primal-feasibility audit.
  [[nodiscard]] SolveStatus phase1();

  /// Phase 2 from the current feasible basis: installs `objective`
  /// (dense over the original variables, maximization) plus `constant`
  /// and optimizes it.  An optimum that fails the primal-feasibility
  /// audit reports IterationLimit.
  [[nodiscard]] SolveStatus optimize(const std::vector<double>& objective,
                                     double constant);

  /// Appends the row `x[var] <= bound` (LessEq) or `x[var] >= bound`
  /// (GreaterEq) with its slack basic, eliminated against x[var]'s basic
  /// row.  The basis stays dual feasible; the new row's rhs is negative
  /// when the current point violates the bound.
  void addBoundCut(int var, Relation rel, double bound);

  /// Dual simplex repair after addBoundCut: restores primal feasibility
  /// from a dual-feasible basis, then lets phase 2 clean up any reduced
  /// cost drift.  Returns Optimal, Infeasible, or IterationLimit when
  /// the pivot budget, stall guard or interrupt trips or the repaired
  /// point fails the primal-feasibility audit.
  [[nodiscard]] SolveStatus dualSimplex();

  /// Entering-column rule for later runs (the solver's retry ladder).
  void setPivotRule(PivotRule rule) { rule_ = rule; }

  /// Current objective value (maximization form, constant included).
  [[nodiscard]] double objectiveValue() const {
    return objRhs_ + objConstant_;
  }
  /// Value of every original variable at the current basis.
  [[nodiscard]] std::vector<double> values() const;
  /// Pivots taken since the last call (totalPivots, devexPivots);
  /// resets them.
  [[nodiscard]] SolverCounters takeCounters();

 private:
  /// Column ids of a row's slack/surplus and artificial.
  [[nodiscard]] static int slackColumn(int numVars, int row) {
    return numVars + 2 * row;
  }
  [[nodiscard]] static int artificialColumn(int numVars, int row) {
    return numVars + 2 * row + 1;
  }

  struct Entry {
    int col = 0;
    double val = 0.0;
  };
  using SparseRow = std::vector<Entry>;

  [[nodiscard]] bool isArtificialColumn(int col) const {
    return col >= numOriginal_ && ((col - numOriginal_) % 2) == 1;
  }
  [[nodiscard]] static double rowCoeff(const SparseRow& row, int col);
  static void setRowCoeff(SparseRow* row, int col, double val);
  /// dst -= factor * src, eliminating `eliminateCol` exactly and
  /// dropping entries below the drop tolerance.
  void subtractScaled(SparseRow* dst, double factor, const SparseRow& src,
                      int eliminateCol);

  /// Copies column `col` of every row into column_, so the ratio tests
  /// and pivot() read it without searching each row again.
  void gatherColumn(int col);
  /// Pivots on (row, col); column_ must hold column `col`.
  void pivot(int row, int col);
  /// Installs the objective row for `coeff(col)` and prices out the
  /// current basis so reduced costs are consistent.
  template <typename CoeffFn>
  void setObjectiveRow(CoeffFn coeff);

  [[nodiscard]] SolveStatus runPrimal(bool allowArtificialEntering);
  /// Polls the interrupt, if set, every 64th pivot of a run.
  [[nodiscard]] bool interrupted(int pivots) const {
    return pivots != 0 && pivots % 64 == 0 && opt_.interrupt &&
           opt_.interrupt();
  }
  /// Audit after a claimed-Optimal solve: true when every basic value is
  /// nonnegative within a scale-aware tolerance.  Accumulated pivot
  /// drift can push a row's rhs genuinely negative (an ignored
  /// constraint); callers treat a failed audit as IterationLimit.
  [[nodiscard]] bool primalFeasibleAtTol() const;
  void evictArtificials();
  /// Drops rows still basic in an artificial and every artificial column.
  void dropArtificials();

  SimplexOptions opt_;
  PivotRule rule_ = PivotRule::Devex;
  int pivotBudget_ = 0;
  int numOriginal_ = 0;
  int m_ = 0;
  int numCols_ = 0;
  std::vector<SparseRow> rows_;
  std::vector<double> rhs_;
  std::vector<double> obj_;
  double objRhs_ = 0.0;
  double objConstant_ = 0.0;
  /// Which stable column ids actually exist in this tableau (a LessEq
  /// row has no artificial, an Equal row has no slack).
  std::vector<unsigned char> colExists_;
  std::vector<int> basis_;
  SparseRow scratch_;
  /// Dense copy of the entering column (see gatherColumn).
  std::vector<double> column_;
  /// Devex reference-framework weights, one per column; reinitialized
  /// to 1.0 at every runPrimal() entry (a fresh reference framework) and
  /// whenever they grow past the reset threshold.
  std::vector<double> devexWeights_;
  /// Pivots since the last takeCounters() (totalPivots, devexPivots).
  SolverCounters counters_;
};

}  // namespace cinderella::lp
