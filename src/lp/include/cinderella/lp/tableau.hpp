// Sparse-row simplex tableau in standard form for the two-phase primal
// simplex.
//
// Rows are kept as sorted (column, value) entry lists — IPET constraint
// matrices are flow matrices with a handful of nonzeros per row, so the
// dense tableau this replaces spent most of its time streaming zeros.
// The objective (reduced-cost) row is kept dense: every entering-column
// scan reads all of it anyway.
//
// Column ids: original variable v is column v, the slack/surplus of
// row r is column numVars + 2r, the artificial of row r is column
// numVars + 2r + 1.
#pragma once

#include <vector>

#include "cinderella/lp/problem.hpp"
#include "cinderella/lp/simplex.hpp"

namespace cinderella::lp {

class Tableau {
 public:
  Tableau(const Problem& problem, const SimplexOptions& options);

  /// Cold two-phase solve: phase 1 drives artificials to zero (when any
  /// exist), phase 2 optimizes `objective` (dense over the original
  /// variables, maximization) plus `constant`.
  [[nodiscard]] Solution run(const std::vector<double>& objective,
                             double constant);

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

  void pivot(int row, int col);
  /// Installs the objective row for `coeff(col)` and prices out the
  /// current basis so reduced costs are consistent.
  template <typename CoeffFn>
  void setObjectiveRow(CoeffFn coeff);
  [[nodiscard]] double objectiveValue() const { return objRhs_; }

  [[nodiscard]] SolveStatus optimize(bool allowArtificialEntering);
  /// Audit after a claimed-Optimal solve: true when every basic value is
  /// nonnegative within a scale-aware tolerance.  Accumulated pivot
  /// drift can push a row's rhs genuinely negative (an ignored
  /// constraint); callers treat a failed audit as IterationLimit so the
  /// solver re-solves on a fresh tableau under Bland's rule.
  [[nodiscard]] bool primalFeasibleAtTol() const;
  bool evictArtificials();
  void fillSolutionValues(Solution* solution) const;

  SimplexOptions opt_;
  PivotRule rule_ = PivotRule::Dantzig;
  int pivotBudget_ = 0;
  int numOriginal_ = 0;
  int m_ = 0;
  int numCols_ = 0;
  std::vector<SparseRow> rows_;
  std::vector<double> rhs_;
  std::vector<double> obj_;
  double objRhs_ = 0.0;
  /// Which stable column ids actually exist in this tableau (a LessEq
  /// row has no artificial, an Equal row has no slack).
  std::vector<unsigned char> colExists_;
  std::vector<int> basis_;
  SparseRow scratch_;
  /// Devex reference-framework weights, one per column; reinitialized
  /// to 1.0 at every optimize() entry (a fresh reference framework) and
  /// whenever they grow past the reset threshold.
  std::vector<double> devexWeights_;
  /// Pivots taken so far (totalPivots, devexPivots).
  SolverCounters counters_;
};

}  // namespace cinderella::lp
