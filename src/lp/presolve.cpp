#include "cinderella/lp/presolve.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>


namespace cinderella::lp {

namespace {

using Int128 = __int128;

/// Magnitude cap on every integer the reduction manipulates.  Well
/// inside the range where a double is exact, with headroom for sums, so
/// converting back to the double-based Problem never rounds.
constexpr long long kMaxMagnitude = 1LL << 52;

/// Fixpoint round cap: reductions left on the table after this many
/// rounds are a lost optimization, never a soundness problem.
constexpr int kMaxRounds = 25;

/// Substitution fill-in cap: a variable carried by more rows than this
/// (besides its pivot row) is not worth eliminating (each carrier
/// merges the pivot row in).
constexpr std::size_t kMaxSubstCarriers = 16;

/// True when `v` is an exact integer of safe magnitude; writes it out.
bool exactInt(double v, long long* out) {
  if (!(v >= -static_cast<double>(kMaxMagnitude) &&
        v <= static_cast<double>(kMaxMagnitude))) {
    return false;
  }
  if (v != std::nearbyint(v)) return false;
  *out = static_cast<long long>(v);
  return true;
}

bool fits(Int128 v) {
  return v >= -static_cast<Int128>(kMaxMagnitude) &&
         v <= static_cast<Int128>(kMaxMagnitude);
}

struct WTerm {
  int var = 0;
  long long coeff = 0;

  friend bool operator==(const WTerm&, const WTerm&) = default;
};

/// Working form of one exactly-integral constraint row.
struct WRow {
  std::vector<WTerm> terms;  // sorted by var, nonzero coefficients
  Relation rel = Relation::LessEq;
  long long rhs = 0;
  bool alive = true;

  [[nodiscard]] const WTerm* find(int var) const {
    const auto it = std::lower_bound(
        terms.begin(), terms.end(), var,
        [](const WTerm& t, int v) { return t.var < v; });
    return it != terms.end() && it->var == var ? &*it : nullptr;
  }
};

struct VarState {
  bool fixed = false;
  bool substituted = false;
  /// Appears in a row with non-integral data: exempt from every
  /// reduction (the row is kept verbatim and exact reasoning about the
  /// variable is impossible).
  bool untouchable = false;
  long long value = 0;  // when fixed
  bool hasUb = false;
  long long ub = 0;
  /// Row currently enforcing the upper bound (never removed as
  /// redundant while it is the active source).
  int ubSource = -1;

  [[nodiscard]] bool eliminated() const { return fixed || substituted; }
};

/// Activity bound that may be infinite in either direction.
struct Bound {
  bool finite = true;
  Int128 value = 0;
};

/// `row` with `var` eliminated through `pivot`, an Equal row holding
/// `var` with unit coefficient `av`: row - (b * av) * pivot, where b is
/// var's coefficient in `row`.  Computed in __int128; false when any
/// result leaves the magnitude cap.
bool eliminate(const WRow& row, const WRow& pivot, int var, long long av,
               WRow* out) {
  const Int128 f = static_cast<Int128>(row.find(var)->coeff) * av;
  out->terms.clear();
  out->terms.reserve(row.terms.size() + pivot.terms.size());
  auto it = row.terms.begin();
  auto jt = pivot.terms.begin();
  while (it != row.terms.end() || jt != pivot.terms.end()) {
    WTerm t;
    Int128 coeff = 0;
    if (jt == pivot.terms.end() ||
        (it != row.terms.end() && it->var < jt->var)) {
      t.var = it->var;
      coeff = (it++)->coeff;
    } else if (it == row.terms.end() || jt->var < it->var) {
      t.var = jt->var;
      coeff = -f * (jt++)->coeff;
    } else {
      t.var = it->var;
      coeff = (it++)->coeff - f * (jt++)->coeff;
    }
    if (t.var == var || coeff == 0) continue;
    if (!fits(coeff)) return false;
    t.coeff = static_cast<long long>(coeff);
    out->terms.push_back(t);
  }
  const Int128 rhs = row.rhs - f * pivot.rhs;
  out->rel = row.rel;
  out->rhs = static_cast<long long>(rhs);
  return fits(rhs);
}

}  // namespace

Reduction Reduction::reduce(const Problem& original) {
  Reduction out;
  const int n = original.numVars();
  const auto& cons = original.constraints();
  const int m = static_cast<int>(cons.size());
  out.origVars_ = n;

  std::vector<WRow> rows(static_cast<std::size_t>(m));
  std::vector<char> integral(static_cast<std::size_t>(m), 1);
  std::vector<VarState> vars(static_cast<std::size_t>(n));

  // Parse every constraint into exact-integer working form; rows with
  // any non-integral number are kept verbatim and quarantine their
  // variables from all reductions.
  for (int i = 0; i < m; ++i) {
    const Constraint& c = cons[static_cast<std::size_t>(i)];
    WRow& row = rows[static_cast<std::size_t>(i)];
    row.rel = c.rel;
    bool ok = exactInt(c.rhs - c.expr.constant(), &row.rhs);
    if (ok) {
      for (const Term& t : c.expr.terms()) {
        long long coeff = 0;
        if (t.var < 0 || t.var >= n || !exactInt(t.coeff, &coeff)) {
          ok = false;
          break;
        }
        if (coeff == 0) continue;
        row.terms.push_back(WTerm{t.var, coeff});
      }
    }
    if (ok) {
      std::sort(row.terms.begin(), row.terms.end(),
                [](const WTerm& a, const WTerm& b) { return a.var < b.var; });
      // Merge duplicate variables exactly.
      std::vector<WTerm> merged;
      for (const WTerm& t : row.terms) {
        if (!merged.empty() && merged.back().var == t.var) {
          const Int128 sum =
              static_cast<Int128>(merged.back().coeff) + t.coeff;
          if (!fits(sum)) {
            ok = false;
            break;
          }
          merged.back().coeff = static_cast<long long>(sum);
        } else {
          merged.push_back(t);
        }
      }
      if (ok) {
        merged.erase(std::remove_if(merged.begin(), merged.end(),
                                    [](const WTerm& t) {
                                      return t.coeff == 0;
                                    }),
                     merged.end());
        row.terms = std::move(merged);
      }
    }
    if (!ok) {
      integral[static_cast<std::size_t>(i)] = 0;
      row.terms.clear();
      for (const Term& t : c.expr.terms()) {
        if (t.var >= 0 && t.var < n) {
          vars[static_cast<std::size_t>(t.var)].untouchable = true;
        }
      }
    }
  }

  // Column index: variable -> the integral rows holding it.  Entries
  // are only ever appended (when a substitution brings a variable into
  // a row), so a reader filters out rows that died or no longer hold
  // the variable.
  std::vector<std::vector<int>> carriers(static_cast<std::size_t>(n));
  for (int r = 0; r < m; ++r) {
    for (const WTerm& t : rows[static_cast<std::size_t>(r)].terms) {
      carriers[static_cast<std::size_t>(t.var)].push_back(r);
    }
  }

  bool infeasible = false;
  bool aborted = false;  // integer overflow: bail out, solve unreduced
  bool changed = false;

  auto removeRow = [&](int r) {
    rows[static_cast<std::size_t>(r)].alive = false;
    ++out.counters_.presolveRowsRemoved;
    changed = true;
  };

  auto fixVar = [&](int v, long long val) {
    VarState& s = vars[static_cast<std::size_t>(v)];
    if (val < 0 || (s.hasUb && val > s.ub)) {
      infeasible = true;
      return;
    }
    if (s.fixed) {
      if (s.value != val) infeasible = true;
      return;
    }
    // A variable appearing in a non-integral row cannot be eliminated
    // (that row is kept verbatim and would dangle); the forced-value
    // inference above is still valid, only the elimination is skipped.
    if (s.untouchable || s.substituted) return;
    s.fixed = true;
    s.value = val;
    ++out.counters_.presolveColsFixed;
    out.restores_.push_back(Restore{v, static_cast<double>(val), {}});
    changed = true;
  };

  // (c) Folds fixed variables into row r's right-hand side; a row left
  // empty is verified exactly, then removed.  False when the row is
  // gone or the pass must stop.
  auto fold = [&](int r) {
    WRow& row = rows[static_cast<std::size_t>(r)];
    std::size_t w = 0;
    Int128 rhs = row.rhs;
    for (const WTerm& t : row.terms) {
      const VarState& s = vars[static_cast<std::size_t>(t.var)];
      if (s.fixed) {
        rhs -= static_cast<Int128>(t.coeff) * s.value;
      } else {
        row.terms[w++] = t;
      }
    }
    if (w != row.terms.size()) {
      changed = true;
      row.terms.resize(w);
      if (!fits(rhs)) {
        aborted = true;
        return false;
      }
      row.rhs = static_cast<long long>(rhs);
    }
    if (!row.terms.empty()) return true;
    if ((row.rel == Relation::LessEq && row.rhs < 0) ||
        (row.rel == Relation::GreaterEq && row.rhs > 0) ||
        (row.rel == Relation::Equal && row.rhs != 0)) {
      infeasible = true;
    } else {
      removeRow(r);
    }
    return false;
  };

  int rounds = 0;
  changed = true;
  while (changed && !infeasible && !aborted && rounds < kMaxRounds) {
    changed = false;
    ++rounds;

    for (int r = 0; r < m && !infeasible && !aborted; ++r) {
      WRow& row = rows[static_cast<std::size_t>(r)];
      if (!row.alive || !integral[static_cast<std::size_t>(r)]) continue;
      if (!fold(r)) continue;

      // (b) Activity bounds from x >= 0 and harvested upper bounds.
      Bound minAct;
      Bound maxAct;
      for (const WTerm& t : row.terms) {
        const VarState& s = vars[static_cast<std::size_t>(t.var)];
        Bound& act = t.coeff > 0 ? maxAct : minAct;
        if (s.hasUb) {
          act.value += static_cast<Int128>(t.coeff) * s.ub;
        } else {
          act.finite = false;
        }
      }

      if ((row.rel == Relation::LessEq || row.rel == Relation::Equal) &&
          minAct.finite && minAct.value > row.rhs) {
        infeasible = true;
        break;
      }
      if ((row.rel == Relation::GreaterEq || row.rel == Relation::Equal) &&
          maxAct.finite && maxAct.value < row.rhs) {
        infeasible = true;
        break;
      }

      // (d) Rows that can never bind are dropped — except an active
      // upper-bound source, which must keep enforcing its bound.
      auto isUbSource = [&] {
        for (const WTerm& t : row.terms) {
          if (vars[static_cast<std::size_t>(t.var)].ubSource == r) return true;
        }
        return false;
      };
      if (row.rel == Relation::LessEq && maxAct.finite &&
          maxAct.value <= row.rhs && !isUbSource()) {
        removeRow(r);
        continue;
      }
      if (row.rel == Relation::GreaterEq && minAct.finite &&
          minAct.value >= row.rhs && !isUbSource()) {
        removeRow(r);
        continue;
      }

      // (b) Forcing rows: the rhs pins the activity at an attainable
      // extreme, so every participating variable sits at the bound that
      // realizes it (each term's extreme is unique since coeff != 0).
      const bool forceMin =
          minAct.finite && minAct.value == row.rhs &&
          (row.rel == Relation::LessEq || row.rel == Relation::Equal);
      const bool forceMax =
          maxAct.finite && maxAct.value == row.rhs &&
          (row.rel == Relation::GreaterEq || row.rel == Relation::Equal);
      if (forceMin || forceMax) {
        for (const WTerm& t : row.terms) {
          VarState& s = vars[static_cast<std::size_t>(t.var)];
          const bool atUb = forceMin ? (t.coeff < 0) : (t.coeff > 0);
          const long long val = atUb ? s.ub : 0;
          fixVar(t.var, val);
          if (infeasible) break;
        }
        continue;
      }

      // Singleton rows: fix (Equal with exact division) or harvest an
      // upper bound (LessEq/GreaterEq whose normalized form is x <= u).
      if (row.terms.size() == 1) {
        const int v = row.terms[0].var;
        const long long a = row.terms[0].coeff;
        VarState& s = vars[static_cast<std::size_t>(v)];
        if (s.untouchable) continue;
        if (row.rel == Relation::Equal) {
          if (row.rhs % a == 0) {
            const long long val = row.rhs / a;
            if (val < 0) {
              infeasible = true;
              break;
            }
            fixVar(v, val);
          }
        } else if ((row.rel == Relation::LessEq && a > 0) ||
                   (row.rel == Relation::GreaterEq && a < 0)) {
          if (row.rhs % a == 0) {
            const long long u = row.rhs / a;
            if (u < 0) {
              infeasible = true;
              break;
            }
            if (u == 0) {
              fixVar(v, 0);
            } else if (!s.hasUb || u < s.ub) {
              s.hasUb = true;
              s.ub = u;
              s.ubSource = r;
              changed = true;
            }
          }
        }
      }
    }
    if (infeasible || aborted) break;

    // (d) Duplicate / dominated rows: identical term vectors with the
    // same relation collapse to the tighter right-hand side;
    // contradictory Equal twins prove infeasibility.
    {
      std::vector<int> order;
      for (int r = 0; r < m; ++r) {
        if (rows[static_cast<std::size_t>(r)].alive &&
            integral[static_cast<std::size_t>(r)] &&
            !rows[static_cast<std::size_t>(r)].terms.empty()) {
          order.push_back(r);
        }
      }
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        const WRow& ra = rows[static_cast<std::size_t>(a)];
        const WRow& rb = rows[static_cast<std::size_t>(b)];
        if (ra.rel != rb.rel) return ra.rel < rb.rel;
        if (ra.terms != rb.terms) {
          return std::lexicographical_compare(
              ra.terms.begin(), ra.terms.end(), rb.terms.begin(),
              rb.terms.end(), [](const WTerm& x, const WTerm& y) {
                return x.var != y.var ? x.var < y.var : x.coeff < y.coeff;
              });
        }
        return a < b;
      });
      for (std::size_t k = 1; k < order.size() && !infeasible; ++k) {
        const int r1 = order[k - 1];
        const int r2 = order[k];
        WRow& a = rows[static_cast<std::size_t>(r1)];
        WRow& b = rows[static_cast<std::size_t>(r2)];
        if (!a.alive || a.rel != b.rel || a.terms != b.terms) continue;
        if (a.rel == Relation::Equal) {
          if (a.rhs != b.rhs) {
            infeasible = true;
            break;
          }
          removeRow(r2);
          order[k] = r1;
          continue;
        }
        // Keep the tighter row; the looser one's slack stays
        // nonnegative at any point the tighter row admits.
        const bool dropSecond = a.rel == Relation::LessEq ? b.rhs >= a.rhs
                                                         : b.rhs <= a.rhs;
        const int loser = dropSecond ? r2 : r1;
        const int keeper = dropSecond ? r1 : r2;
        // A dropped upper-bound source hands enforcement to its twin.
        for (const WTerm& t : a.terms) {
          VarState& s = vars[static_cast<std::size_t>(t.var)];
          if (s.ubSource == loser) s.ubSource = keeper;
        }
        removeRow(loser);
        order[k] = keeper;
      }
    }
    if (infeasible) break;

    // (a) Singleton-equality substitution: eliminate v from an Equal
    // row when v has a unit coefficient and the solved-out expression
    // has only nonnegative coefficients and constant, so the implicit
    // v >= 0 is implied by the remaining variables and can be dropped
    // with the row.  Flow-conservation rows x_i = sum d_in are the
    // canonical instance.
    for (int r = 0; r < m && !infeasible && !aborted; ++r) {
      WRow& row = rows[static_cast<std::size_t>(r)];
      if (!row.alive || !integral[static_cast<std::size_t>(r)]) continue;
      if (row.rel != Relation::Equal || row.terms.size() < 2) continue;
      // A fixed-but-not-yet-folded term would leak an eliminated
      // variable into the restore formula, which must only reference
      // variables still free at record time (reverse replay restores
      // later eliminations first).  Let the next round's fold clean the
      // row before it becomes a substitution pivot.
      if (std::any_of(row.terms.begin(), row.terms.end(), [&](const WTerm& t) {
            return vars[static_cast<std::size_t>(t.var)].eliminated();
          })) {
        continue;
      }

      int pick = -1;
      long long av = 0;
      for (const WTerm& t : row.terms) {
        const VarState& s = vars[static_cast<std::size_t>(t.var)];
        if (s.eliminated() || s.untouchable || s.hasUb) continue;
        if (t.coeff != 1 && t.coeff != -1) continue;
        // Implied nonnegativity of v = av * (rhs - sum a_j x_j):
        // every coefficient -av*a_j and the constant av*rhs must be
        // >= 0, so v >= 0 follows from the other variables' bounds.
        bool implied = true;
        if (t.coeff * row.rhs < 0) implied = false;
        for (const WTerm& u : row.terms) {
          if (u.var == t.var) continue;
          if (t.coeff * u.coeff > 0) {
            implied = false;
            break;
          }
        }
        if (!implied) continue;
        pick = t.var;
        av = t.coeff;
        break;
      }
      if (pick < 0) continue;

      // The other rows carrying v, from the index (stale entries are
      // dropped for good).  Each is rewritten into staging, and all are
      // committed only when every rewrite fits.
      std::vector<int>& index = carriers[static_cast<std::size_t>(pick)];
      std::sort(index.begin(), index.end());
      index.erase(std::unique(index.begin(), index.end()), index.end());
      index.erase(std::remove_if(index.begin(), index.end(),
                                 [&](int i) {
                                   const WRow& c =
                                       rows[static_cast<std::size_t>(i)];
                                   return !c.alive || !c.find(pick);
                                 }),
                  index.end());
      if (index.size() > kMaxSubstCarriers + 1) continue;  // + pivot row
      std::vector<std::pair<int, WRow>> staged;
      for (const int i : index) {
        if (i == r) continue;
        staged.emplace_back(i, WRow{});
        if (!eliminate(rows[static_cast<std::size_t>(i)], row, pick, av,
                       &staged.back().second)) {
          aborted = true;
          break;
        }
      }
      if (aborted) break;
      for (auto& [i, rewritten] : staged) {
        rows[static_cast<std::size_t>(i)] = std::move(rewritten);
        for (const WTerm& t : row.terms) {
          carriers[static_cast<std::size_t>(t.var)].push_back(i);
        }
      }

      // Record the restore formula v = av*rhs - sum av*a_j x_j.
      Restore restore;
      restore.var = pick;
      restore.constant = static_cast<double>(av) *
                         static_cast<double>(row.rhs);
      for (const WTerm& t : row.terms) {
        if (t.var == pick) continue;
        restore.terms.push_back(
            Term{t.var, -static_cast<double>(av) *
                            static_cast<double>(t.coeff)});
      }
      out.restores_.push_back(std::move(restore));
      vars[static_cast<std::size_t>(pick)].substituted = true;
      ++out.counters_.presolveSubstitutions;
      removeRow(r);
    }
  }

  // Final sweep: fold variables fixed in the last round.
  for (int r = 0; r < m && !infeasible && !aborted; ++r) {
    if (rows[static_cast<std::size_t>(r)].alive &&
        integral[static_cast<std::size_t>(r)]) {
      fold(r);
    }
  }
  out.counters_.presolveRounds = rounds;

  if (aborted) {
    // Integer overflow somewhere: discard everything and report an
    // ineffective reduction so the caller solves the original problem.
    Reduction fresh;
    fresh.origVars_ = n;
    fresh.counters_.presolveRounds = rounds;
    return fresh;
  }
  if (infeasible) {
    out.infeasible_ = true;
    return out;
  }

  // Assemble the maps and the reduced problem.
  std::vector<int> varMap(static_cast<std::size_t>(n), -1);
  for (int v = 0; v < n; ++v) {
    if (!vars[static_cast<std::size_t>(v)].eliminated()) {
      varMap[static_cast<std::size_t>(v)] =
          static_cast<int>(out.reducedVars_.size());
      out.reducedVars_.push_back(v);
    }
  }

  for (const int v : out.reducedVars_) {
    out.reduced_.addVar(original.varName(v));
  }
  out.reduced_.setObjective(out.mapObjective(original.objective()),
                           original.sense());

  for (int r = 0; r < m; ++r) {
    const WRow& row = rows[static_cast<std::size_t>(r)];
    if (!row.alive) continue;
    LinearExpr expr;
    if (integral[static_cast<std::size_t>(r)]) {
      for (const WTerm& t : row.terms) {
        expr.add(varMap[static_cast<std::size_t>(t.var)],
                 static_cast<double>(t.coeff));
      }
      out.reduced_.addConstraint(std::move(expr), row.rel,
                                 static_cast<double>(row.rhs));
    } else {
      const Constraint& c = cons[static_cast<std::size_t>(r)];
      for (const Term& t : c.expr.terms()) {
        expr.add(varMap[static_cast<std::size_t>(t.var)], t.coeff);
      }
      expr.addConstant(c.expr.constant());
      out.reduced_.addConstraint(std::move(expr), c.rel, c.rhs);
    }
  }

  return out;
}

LinearExpr Reduction::mapObjective(const LinearExpr& objective) const {
  std::vector<double> coeff(static_cast<std::size_t>(origVars_), 0.0);
  for (const Term& t : objective.terms()) {
    coeff[static_cast<std::size_t>(t.var)] += t.coeff;
  }
  double constant = objective.constant();
  // Forward elimination order: a restore formula only references
  // variables still free when it was recorded, so a later entry folds
  // away whatever an earlier one pushed onto its variable.
  for (const Restore& r : restores_) {
    const double c = coeff[static_cast<std::size_t>(r.var)];
    if (c == 0.0) continue;
    constant += c * r.constant;
    for (const Term& t : r.terms) {
      coeff[static_cast<std::size_t>(t.var)] += c * t.coeff;
    }
    coeff[static_cast<std::size_t>(r.var)] = 0.0;
  }
  LinearExpr out;
  for (std::size_t j = 0; j < reducedVars_.size(); ++j) {
    const double c = coeff[static_cast<std::size_t>(reducedVars_[j])];
    if (c != 0.0) out.add(static_cast<int>(j), c);
  }
  out.addConstant(constant);
  return out;
}

std::vector<double> Reduction::postsolveValues(
    const std::vector<double>& reducedValues) const {
  std::vector<double> out(static_cast<std::size_t>(origVars_), 0.0);
  for (std::size_t j = 0; j < reducedVars_.size(); ++j) {
    out[static_cast<std::size_t>(reducedVars_[j])] =
        j < reducedValues.size() ? reducedValues[j] : 0.0;
  }
  // Reverse elimination order: a substitution formula only references
  // variables that were still free when it was recorded, and those are
  // restored first.
  for (auto it = restores_.rbegin(); it != restores_.rend(); ++it) {
    double v = it->constant;
    for (const Term& t : it->terms) {
      v += t.coeff * out[static_cast<std::size_t>(t.var)];
    }
    if (v < 0 && v > -1e-7) v = 0;  // same clamp as the tableau readout
    out[static_cast<std::size_t>(it->var)] = v;
  }
  return out;
}

}  // namespace cinderella::lp
