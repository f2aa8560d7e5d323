#include "cinderella/lp/tableau.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "cinderella/support/error.hpp"
#include "cinderella/support/fault_injector.hpp"

namespace cinderella::lp {

namespace {

/// Entries whose magnitude falls below this after a row combination are
/// dropped from the sparse row.  Well below pivotTol, so a dropped entry
/// can never have been a pivot candidate.
constexpr double kDropTol = 1e-12;

}  // namespace

double Tableau::rowCoeff(const SparseRow& row, int col) {
  const auto it = std::lower_bound(
      row.begin(), row.end(), col,
      [](const Entry& e, int c) { return e.col < c; });
  return (it != row.end() && it->col == col) ? it->val : 0.0;
}

void Tableau::setRowCoeff(SparseRow* row, int col, double val) {
  const auto it = std::lower_bound(
      row->begin(), row->end(), col,
      [](const Entry& e, int c) { return e.col < c; });
  if (it != row->end() && it->col == col) {
    if (val == 0.0) {
      row->erase(it);
    } else {
      it->val = val;
    }
  } else if (val != 0.0) {
    row->insert(it, Entry{col, val});
  }
}

void Tableau::subtractScaled(SparseRow* dst, double factor,
                             const SparseRow& src, int eliminateCol) {
  scratch_.clear();
  auto a = dst->begin();
  const auto aEnd = dst->end();
  auto b = src.begin();
  const auto bEnd = src.end();
  while (a != aEnd || b != bEnd) {
    if (b == bEnd || (a != aEnd && a->col < b->col)) {
      if (a->col != eliminateCol) scratch_.push_back(*a);
      ++a;
    } else if (a == aEnd || b->col < a->col) {
      if (b->col != eliminateCol) {
        const double v = -factor * b->val;
        if (std::abs(v) > kDropTol) scratch_.push_back(Entry{b->col, v});
      }
      ++b;
    } else {
      if (a->col != eliminateCol) {
        const double v = a->val - factor * b->val;
        if (std::abs(v) > kDropTol) scratch_.push_back(Entry{a->col, v});
      }
      ++a;
      ++b;
    }
  }
  dst->swap(scratch_);
}

Tableau::Tableau(const Problem& p, const SimplexOptions& opt)
    : opt_(opt), pivotBudget_(opt.maxPivots), numOriginal_(p.numVars()) {
  const auto& cons = p.constraints();
  m_ = static_cast<int>(cons.size());
  numCols_ = numOriginal_ + 2 * m_;

  rows_.resize(static_cast<std::size_t>(m_));
  rhs_.assign(static_cast<std::size_t>(m_), 0.0);
  obj_.assign(static_cast<std::size_t>(numCols_), 0.0);
  colExists_.assign(static_cast<std::size_t>(numCols_), 0);
  basis_.assign(static_cast<std::size_t>(m_), -1);
  for (int v = 0; v < numOriginal_; ++v) {
    colExists_[static_cast<std::size_t>(v)] = 1;
  }

  for (int i = 0; i < m_; ++i) {
    const Constraint& c = cons[static_cast<std::size_t>(i)];
    double sign = 1.0;
    Relation rel = c.rel;
    if (c.rhs < 0) {
      sign = -1.0;
      if (rel == Relation::LessEq) {
        rel = Relation::GreaterEq;
      } else if (rel == Relation::GreaterEq) {
        rel = Relation::LessEq;
      }
    }

    SparseRow& row = rows_[static_cast<std::size_t>(i)];
    for (const auto& t : c.expr.terms()) {
      setRowCoeff(&row, t.var, sign * t.coeff);
    }
    rhs_[static_cast<std::size_t>(i)] = sign * c.rhs;

    const int slack = slackColumn(numOriginal_, i);
    const int artificial = artificialColumn(numOriginal_, i);
    if (rel == Relation::LessEq) {
      setRowCoeff(&row, slack, 1.0);
      colExists_[static_cast<std::size_t>(slack)] = 1;
      basis_[static_cast<std::size_t>(i)] = slack;
    } else if (rel == Relation::GreaterEq) {
      setRowCoeff(&row, slack, -1.0);
      colExists_[static_cast<std::size_t>(slack)] = 1;
      setRowCoeff(&row, artificial, 1.0);
      colExists_[static_cast<std::size_t>(artificial)] = 1;
      basis_[static_cast<std::size_t>(i)] = artificial;
    } else {
      setRowCoeff(&row, artificial, 1.0);
      colExists_[static_cast<std::size_t>(artificial)] = 1;
      basis_[static_cast<std::size_t>(i)] = artificial;
    }
  }
}

void Tableau::gatherColumn(int col) {
  column_.resize(static_cast<std::size_t>(m_));
  for (int i = 0; i < m_; ++i) {
    column_[static_cast<std::size_t>(i)] =
        rowCoeff(rows_[static_cast<std::size_t>(i)], col);
  }
}

void Tableau::pivot(int row, int col) {
  // Fault-injection seam: emulate a numeric breakdown mid-solve.  The
  // analyzer's degradation ladder catches this as a SolverError.
  if (support::FaultInjector* const injector = support::faultInjector()) {
    if (injector->shouldFault(support::FaultSite::LpPivot)) {
      throw InjectedFaultError("injected fault at simplex pivot");
    }
  }
  SparseRow& pr = rows_[static_cast<std::size_t>(row)];
  const double p = column_[static_cast<std::size_t>(row)];
  CIN_REQUIRE(std::abs(p) > opt_.pivotTol);
  const double inv = 1.0 / p;
  for (Entry& e : pr) e.val *= inv;
  setRowCoeff(&pr, col, 1.0);
  rhs_[static_cast<std::size_t>(row)] *= inv;

  for (int i = 0; i < m_; ++i) {
    if (i == row) continue;
    const double factor = column_[static_cast<std::size_t>(i)];
    if (factor == 0.0) continue;
    subtractScaled(&rows_[static_cast<std::size_t>(i)], factor, pr, col);
    rhs_[static_cast<std::size_t>(i)] -=
        factor * rhs_[static_cast<std::size_t>(row)];
  }

  const double objFactor = obj_[static_cast<std::size_t>(col)];
  if (objFactor != 0.0) {
    for (const Entry& e : pr) {
      obj_[static_cast<std::size_t>(e.col)] -= objFactor * e.val;
    }
    obj_[static_cast<std::size_t>(col)] = 0.0;
    objRhs_ -= objFactor * rhs_[static_cast<std::size_t>(row)];
  }

  basis_[static_cast<std::size_t>(row)] = col;
  ++counters_.totalPivots;
}

template <typename CoeffFn>
void Tableau::setObjectiveRow(CoeffFn coeff) {
  std::fill(obj_.begin(), obj_.end(), 0.0);
  objRhs_ = 0.0;
  for (int j = 0; j < numCols_; ++j) {
    if (colExists_[static_cast<std::size_t>(j)]) {
      obj_[static_cast<std::size_t>(j)] = -coeff(j);
    }
  }
  for (int i = 0; i < m_; ++i) {
    const int b = basis_[static_cast<std::size_t>(i)];
    const double c = coeff(b);
    if (c == 0.0) continue;
    for (const Entry& e : rows_[static_cast<std::size_t>(i)]) {
      obj_[static_cast<std::size_t>(e.col)] += c * e.val;
    }
    objRhs_ += c * rhs_[static_cast<std::size_t>(i)];
  }
}

SolveStatus Tableau::runPrimal(bool allowArtificialEntering) {
  // Fresh Devex reference framework per run: every weight starts at 1
  // (so the first pick is plain Dantzig) and grows with the pivot-row
  // update below, steering later picks away from columns that produced
  // long steps through degenerate vertices.
  if (rule_ == PivotRule::Devex) {
    devexWeights_.assign(static_cast<std::size_t>(numCols_), 1.0);
  }
  // Anti-stalling guard: IPET tableaus are massively degenerate (every
  // flow row is an equality threaded through x0 = 1), and Devex/Dantzig
  // can orbit a degenerate vertex for the whole pivot budget making
  // zero- or epsilon-length steps while numeric drift accumulates.
  // Track the objective: a run of pivots with no measurable improvement
  // longer than any plausible honest degenerate stretch reports
  // IterationLimit immediately instead of burning the budget first, and
  // the solver re-solves under the next rule of its retry ladder.  The
  // limit scales with m so big tableaus get proportionally more slack;
  // every wasted stall pivot is paid at full tableau-update cost, so the
  // limit errs low.
  const int stallLimit = std::max(500, m_);
  int pivots = 0;
  int pivotsSinceProgress = 0;
  double lastObjective = objRhs_;
  while (true) {
    if (pivots >= pivotBudget_ || interrupted(pivots)) {
      return SolveStatus::IterationLimit;
    }
    // Entering column per the current rule, among the columns whose
    // reduced cost is negative.  Devex: largest rc^2/weight.  Dantzig:
    // most negative reduced cost.  Both take the smallest index on ties.
    // Bland: the smallest index.
    int enter = -1;
    double bestScore = 0.0;
    for (int j = 0; j < numCols_; ++j) {
      if (!colExists_[static_cast<std::size_t>(j)]) continue;
      if (!allowArtificialEntering && isArtificialColumn(j)) continue;
      const double rc = obj_[static_cast<std::size_t>(j)];
      if (rc >= -opt_.tol) continue;
      if (rule_ == PivotRule::Bland) {
        enter = j;
        break;
      }
      const double score =
          rule_ == PivotRule::Devex
              ? rc * rc / devexWeights_[static_cast<std::size_t>(j)]
              : -rc;
      if (score > bestScore) {
        bestScore = score;
        enter = j;
      }
    }
    if (enter < 0) return SolveStatus::Optimal;

    // Ratio test, two passes over the gathered column.  A single pass
    // that accepts any ratio within +/-tol of the running best lets the
    // accepted ratio creep one tolerance upward per acceptance; pivoting
    // on a row whose ratio exceeds the true minimum drives the minimum
    // row's rhs negative by a_ij times the excess, which on
    // million-scale IPET tableaus compounds into real infeasibility (a
    // bounding cut silently ignored).  Pass 1 finds the exact minimum
    // ratio; pass 2 picks the smallest basic index (Bland anti-cycling
    // tie-break) among rows within one tolerance of it.
    gatherColumn(enter);
    double bestRatio = std::numeric_limits<double>::infinity();
    for (int i = 0; i < m_; ++i) {
      const double aij = column_[static_cast<std::size_t>(i)];
      if (aij <= opt_.pivotTol) continue;
      const double ratio = rhs_[static_cast<std::size_t>(i)] / aij;
      if (ratio < bestRatio) bestRatio = ratio;
    }
    if (bestRatio == std::numeric_limits<double>::infinity()) {
      return SolveStatus::Unbounded;
    }
    int leave = -1;
    for (int i = 0; i < m_; ++i) {
      const double aij = column_[static_cast<std::size_t>(i)];
      if (aij <= opt_.pivotTol) continue;
      const double ratio = rhs_[static_cast<std::size_t>(i)] / aij;
      if (ratio <= bestRatio + opt_.tol &&
          (leave < 0 || basis_[static_cast<std::size_t>(i)] <
                            basis_[static_cast<std::size_t>(leave)])) {
        leave = i;
      }
    }
    if (pivotsSinceProgress >= stallLimit && rule_ != PivotRule::Bland) {
      // Stalled.  Do NOT continue from this basis — epsilon-step pivots
      // through near-singular elements have been eroding it numerically
      // the whole time — report IterationLimit so the solver restarts
      // under the next rule of its retry ladder.
      return SolveStatus::IterationLimit;
    }
    const double gammaQ =
        rule_ == PivotRule::Devex
            ? devexWeights_[static_cast<std::size_t>(enter)]
            : 0.0;
    pivot(leave, enter);
    ++pivots;
    if (rule_ != PivotRule::Bland) {
      if (objRhs_ > lastObjective + opt_.tol) {
        lastObjective = objRhs_;
        pivotsSinceProgress = 0;
      } else {
        ++pivotsSinceProgress;
      }
    }
    if (rule_ == PivotRule::Devex) {
      ++counters_.devexPivots;
      // Reference-framework update from the pivot row.  pivot() scaled
      // the row so the entry at `enter` is exactly 1, making every
      // other entry the ratio alpha_rj / alpha_rq the update needs:
      //   gamma_j = max(gamma_j, ratio^2 * gamma_q)
      // (the old basic column appears in the row with value
      // 1/alpha_rq, so the classic leaving-variable update
      // gamma_p = max(1, gamma_q / alpha_rq^2) falls out of the same
      // loop).  Weights that outgrow the threshold restart the
      // framework — the approximation has drifted too far to steer.
      constexpr double kDevexReset = 1e9;
      double maxWeight = 1.0;
      for (const Entry& e :
           rows_[static_cast<std::size_t>(leave)]) {
        if (e.col == enter) continue;
        const double candidate = e.val * e.val * gammaQ;
        double& w = devexWeights_[static_cast<std::size_t>(e.col)];
        if (candidate > w) w = candidate;
        if (w > maxWeight) maxWeight = w;
      }
      if (maxWeight > kDevexReset) {
        devexWeights_.assign(static_cast<std::size_t>(numCols_), 1.0);
      }
    }
  }
}

void Tableau::evictArtificials() {
  for (int i = 0; i < m_; ++i) {
    const int b = basis_[static_cast<std::size_t>(i)];
    if (!isArtificialColumn(b)) continue;
    // Entries are sorted, so this picks the smallest-index real column.
    int enter = -1;
    for (const Entry& e : rows_[static_cast<std::size_t>(i)]) {
      if (isArtificialColumn(e.col)) continue;
      if (std::abs(e.val) > opt_.pivotTol) {
        enter = e.col;
        break;
      }
    }
    if (enter >= 0) {
      gatherColumn(enter);
      pivot(i, enter);
    }
  }
}

void Tableau::dropArtificials() {
  // A row whose artificial could not be pivoted out has no real
  // coefficient above the pivot tolerance and a zero rhs: it is
  // redundant, so it goes with its artificial.
  int kept = 0;
  for (int i = 0; i < m_; ++i) {
    const auto from = static_cast<std::size_t>(i);
    if (isArtificialColumn(basis_[from])) continue;
    const auto to = static_cast<std::size_t>(kept++);
    if (to != from) {
      rows_[to] = std::move(rows_[from]);
      rhs_[to] = rhs_[from];
      basis_[to] = basis_[from];
    }
  }
  m_ = kept;
  rows_.resize(static_cast<std::size_t>(m_));
  rhs_.resize(static_cast<std::size_t>(m_));
  basis_.resize(static_cast<std::size_t>(m_));
  for (SparseRow& row : rows_) {
    std::erase_if(row, [&](const Entry& e) { return isArtificialColumn(e.col); });
  }
  for (int j = numOriginal_ + 1; j < numCols_; j += 2) {
    colExists_[static_cast<std::size_t>(j)] = 0;
  }
}

SolveStatus Tableau::phase1() {
  bool anyArtificial = false;
  for (int j = numOriginal_ + 1; j < numCols_ && !anyArtificial; j += 2) {
    anyArtificial = colExists_[static_cast<std::size_t>(j)] != 0;
  }
  if (!anyArtificial) return SolveStatus::Optimal;
  // Maximize -(sum of artificials).
  setObjectiveRow([&](int col) { return isArtificialColumn(col) ? -1.0 : 0.0; });
  const SolveStatus st = runPrimal(/*allowArtificialEntering=*/true);
  if (st == SolveStatus::IterationLimit) return st;
  CIN_REQUIRE(st != SolveStatus::Unbounded);  // phase-1 obj is <= 0
  if (objRhs_ < -opt_.tol) return SolveStatus::Infeasible;
  evictArtificials();
  dropArtificials();
  // Every objective starts from this basis, so audit it once here: a
  // drifted phase 1 reports IterationLimit and is redone from scratch.
  return primalFeasibleAtTol() ? SolveStatus::Optimal
                               : SolveStatus::IterationLimit;
}

SolveStatus Tableau::optimize(const std::vector<double>& objective,
                              double constant) {
  setObjectiveRow([&](int col) {
    return col < numOriginal_ ? objective[static_cast<std::size_t>(col)]
                              : 0.0;
  });
  objConstant_ = constant;
  const SolveStatus st = runPrimal(/*allowArtificialEntering=*/false);
  if (st == SolveStatus::Optimal && !primalFeasibleAtTol()) {
    // The "optimum" sits outside the feasible region: pivot drift ate a
    // constraint.  Report IterationLimit instead of an unsound point.
    return SolveStatus::IterationLimit;
  }
  return st;
}

void Tableau::addBoundCut(int var, Relation rel, double bound) {
  CIN_REQUIRE(var >= 0 && var < numOriginal_ && rel != Relation::Equal);
  // Stored as sign*x + s = sign*bound with the slack s basic: sign = +1
  // for x <= bound, -1 for x >= bound.
  const double sign = rel == Relation::LessEq ? 1.0 : -1.0;
  const int slack = numCols_;
  numCols_ += 2;  // the pair's artificial never exists
  obj_.resize(static_cast<std::size_t>(numCols_), 0.0);
  colExists_.resize(static_cast<std::size_t>(numCols_), 0);
  colExists_[static_cast<std::size_t>(slack)] = 1;

  SparseRow row{Entry{var, sign}, Entry{slack, 1.0}};
  double rhs = sign * bound;
  for (int i = 0; i < m_; ++i) {
    if (basis_[static_cast<std::size_t>(i)] != var) continue;
    // x's basic row reads x + sum(a_j x_j) = rhs_i; subtracting it
    // expresses the cut over nonbasic columns only.
    subtractScaled(&row, sign, rows_[static_cast<std::size_t>(i)], var);
    rhs -= sign * rhs_[static_cast<std::size_t>(i)];
    break;
  }
  rows_.push_back(std::move(row));
  rhs_.push_back(rhs);
  basis_.push_back(slack);
  ++m_;
}

SolveStatus Tableau::dualSimplex() {
  // Same stall guard as runPrimal: the dual objective only falls, and a
  // long run of pivots that leave it flat is cycling, not progress.
  const int stallLimit = std::max(500, m_);
  int pivots = 0;
  int pivotsSinceProgress = 0;
  double lastObjective = objRhs_;
  while (true) {
    // Leaving row: the most negative basic value (smallest row on ties).
    int leave = -1;
    double worst = -opt_.tol;
    for (int i = 0; i < m_; ++i) {
      if (rhs_[static_cast<std::size_t>(i)] < worst) {
        worst = rhs_[static_cast<std::size_t>(i)];
        leave = i;
      }
    }
    if (leave < 0) break;
    if (pivots >= pivotBudget_ || pivotsSinceProgress >= stallLimit ||
        interrupted(pivots)) {
      return SolveStatus::IterationLimit;
    }
    // Dual ratio test over the leaving row's negative entries: the
    // smallest rc_j / |a_rj| keeps every reduced cost nonnegative.  Two
    // passes as in the primal test: the exact minimum, then the largest
    // |a_rj| (smallest column on ties) within one tolerance of it.
    const SparseRow& row = rows_[static_cast<std::size_t>(leave)];
    double bestRatio = std::numeric_limits<double>::infinity();
    for (const Entry& e : row) {
      if (e.val >= -opt_.pivotTol) continue;
      const double rc = std::max(obj_[static_cast<std::size_t>(e.col)], 0.0);
      bestRatio = std::min(bestRatio, rc / -e.val);
    }
    if (bestRatio == std::numeric_limits<double>::infinity()) {
      // No column can raise this row's basic variable: the cut is
      // infeasible against the rows it was eliminated through.
      return SolveStatus::Infeasible;
    }
    int enter = -1;
    double enterMagnitude = 0.0;
    for (const Entry& e : row) {
      if (e.val >= -opt_.pivotTol) continue;
      const double rc = std::max(obj_[static_cast<std::size_t>(e.col)], 0.0);
      if (rc / -e.val <= bestRatio + opt_.tol && -e.val > enterMagnitude) {
        enterMagnitude = -e.val;
        enter = e.col;
      }
    }
    gatherColumn(enter);
    pivot(leave, enter);
    ++pivots;
    if (objRhs_ < lastObjective - opt_.tol) {
      lastObjective = objRhs_;
      pivotsSinceProgress = 0;
    } else {
      ++pivotsSinceProgress;
    }
  }
  // Primal feasible again.  Reduced costs the dual pivots left slightly
  // negative are cleaned up by phase 2 (usually zero pivots).
  const SolveStatus st = runPrimal(/*allowArtificialEntering=*/false);
  if (st != SolveStatus::Optimal || !primalFeasibleAtTol()) {
    return SolveStatus::IterationLimit;
  }
  return SolveStatus::Optimal;
}

SolverCounters Tableau::takeCounters() {
  return std::exchange(counters_, SolverCounters{});
}

bool Tableau::primalFeasibleAtTol() const {
  double scale = 1.0;
  for (int i = 0; i < m_; ++i) {
    scale = std::max(scale, std::abs(rhs_[static_cast<std::size_t>(i)]));
  }
  const double limit = -1e-6 * scale;
  for (int i = 0; i < m_; ++i) {
    if (rhs_[static_cast<std::size_t>(i)] < limit) return false;
  }
  return true;
}

std::vector<double> Tableau::values() const {
  std::vector<double> out(static_cast<std::size_t>(numOriginal_), 0.0);
  for (int i = 0; i < m_; ++i) {
    const int b = basis_[static_cast<std::size_t>(i)];
    if (b < numOriginal_) {
      out[static_cast<std::size_t>(b)] = rhs_[static_cast<std::size_t>(i)];
    }
  }
  // Clamp tiny negatives introduced by rounding.
  for (double& v : out) {
    if (v < 0 && v > -opt_.tol) v = 0;
  }
  return out;
}

}  // namespace cinderella::lp
