#include "cinderella/ilp/branch_and_bound.hpp"

#include <cmath>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "cinderella/support/checked_math.hpp"
#include "cinderella/support/error.hpp"

namespace cinderella::ilp {

const char* ilpStatusStr(IlpStatus status) {
  switch (status) {
    case IlpStatus::Optimal:
      return "optimal";
    case IlpStatus::Infeasible:
      return "infeasible";
    case IlpStatus::Unbounded:
      return "unbounded";
    case IlpStatus::Limit:
      return "limit";
    case IlpStatus::Interrupted:
      return "interrupted";
  }
  return "?";
}

namespace {

/// A branching decision: x[var] <= bound or x[var] >= bound.
struct Branch {
  int var = 0;
  lp::Relation rel = lp::Relation::LessEq;
  double bound = 0.0;
};

/// A node left on the DFS stack: its parent's optimal tableau plus the
/// bound that makes it the child.  Only the sibling waiting here is a
/// copy; the child explored first keeps working on the parent's tableau.
struct Node {
  lp::Tableau tableau;
  Branch branch;
  /// LP bound of the parent (for pruning against the incumbent).
  double parentBound = 0.0;
};

/// Index of the lowest-numbered variable whose value is fractional
/// beyond `tol`, or nullopt when the point is integral.  Index order is
/// the branching priority: see the header comment.
std::optional<int> firstFractional(const std::vector<double>& values,
                                   double tol) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (std::abs(values[i] - std::round(values[i])) > tol) {
      return static_cast<int>(i);
    }
  }
  return std::nullopt;
}

/// True when `x` is an integer within `tol`; *out receives the rounding.
bool asInteger(double x, double tol, std::int64_t* out) {
  const double r = std::round(x);
  if (std::abs(x - r) > tol) return false;
  // Beyond 2^63 a double cannot be narrowed; treat as non-integral so the
  // caller keeps the (already inexact) double objective instead.
  if (r < -9.2e18 || r > 9.2e18) return false;
  *out = static_cast<std::int64_t>(r);
  return true;
}

/// Recomputes the incumbent objective exactly from integral coefficients
/// and the rounded incumbent point.  The LP path accumulates the
/// objective in doubles, which silently loses precision past 2^53; IPET
/// objectives (cycle costs x execution counts) are exact integers, so
/// this checked integer pass restores them.  Fills objectiveExact /
/// objectiveIsExact / objectiveSaturated and counts __int128 promotions.
void recomputeExactObjective(const lp::Problem& problem,
                             const IlpOptions& options, IlpSolution* result) {
  const auto& terms = problem.objective().terms();
  std::vector<std::int64_t> coeffs(terms.size());
  std::vector<std::int64_t> values(terms.size());
  for (std::size_t i = 0; i < terms.size(); ++i) {
    if (!asInteger(terms[i].coeff, options.intTol, &coeffs[i])) return;
    const auto var = static_cast<std::size_t>(terms[i].var);
    if (!asInteger(result->values[var], options.intTol, &values[i])) return;
  }
  std::int64_t constant = 0;
  if (!asInteger(problem.objective().constant(), options.intTol, &constant)) {
    return;
  }

  support::CheckedSum sum = support::accumulateProducts(
      terms.size(), [&](std::size_t i) { return coeffs[i]; },
      [&](std::size_t i) { return values[i]; });
  if (sum.promoted) ++result->stats.checkedPromotions;
  if (!sum.saturated) {
    std::int64_t withConstant = 0;
    if (support::addOverflow(sum.value, constant, &withConstant)) {
      ++result->stats.checkedPromotions;
      const __int128 wide =
          static_cast<__int128>(sum.value) + static_cast<__int128>(constant);
      const bool high = wide > std::numeric_limits<std::int64_t>::max();
      sum.value = high ? std::numeric_limits<std::int64_t>::max()
                       : std::numeric_limits<std::int64_t>::min();
      sum.saturated = true;
    } else {
      sum.value = withConstant;
    }
  }
  result->objectiveExact = sum.value;
  result->objectiveIsExact = true;
  result->objectiveSaturated = sum.saturated;
  if (!sum.saturated) result->objective = static_cast<double>(sum.value);
}

}  // namespace

IlpSolution solve(const lp::Problem& problem, const IlpOptions& options) {
  const lp::FeasibleLp region(problem, options.lpOptions);
  IlpSolution result = solve(problem, region, options);
  result.stats += region.presolveCounters() + region.phase1Counters();
  return result;
}

IlpSolution solve(const lp::Problem& problem, const lp::FeasibleLp& region,
                  const IlpOptions& options) {
  IlpSolution result;
  const bool maximize = (problem.sense() == lp::Sense::Maximize);
  const double worst = maximize ? -std::numeric_limits<double>::infinity()
                                : std::numeric_limits<double>::infinity();
  double incumbentObjective = worst;
  std::vector<double> incumbentValues;
  bool haveIncumbent = false;
  bool hitLimit = false;
  bool interrupted = false;

  auto better = [&](double a, double b) { return maximize ? a > b : a < b; };

  // Depth-first search over live tableaus.  The root optimizes the
  // objective on a copy of the region's phase-1 tableau; every other
  // node appends its branch as one bound row and repairs the parent's
  // optimal tableau with a few dual simplex pivots.  The up child is
  // explored first, on the parent's own tableau.
  std::optional<lp::Tableau> live;
  Branch pending;
  double parentBound = -worst;
  std::vector<Node> stack;
  bool rootNode = true;
  while (true) {
    if (!rootNode && !live) {
      if (stack.empty()) break;
      Node node = std::move(stack.back());
      stack.pop_back();
      live.emplace(std::move(node.tableau));
      pending = node.branch;
      parentBound = node.parentBound;
    }
    if (result.stats.nodesExpanded >= options.maxNodes) {
      hitLimit = true;
      break;
    }
    if (options.lpOptions.interrupt && options.lpOptions.interrupt()) {
      interrupted = true;
      break;
    }
    // Bound: the parent's relaxation bound caps every descendant.
    if (haveIncumbent && !better(parentBound, incumbentObjective)) {
      live.reset();
      continue;
    }

    ++result.stats.nodesExpanded;
    lp::SolveStatus status = region.status();
    if (!rootNode) {
      live->addBoundCut(pending.var, pending.rel, pending.bound);
      status = live->dualSimplex();
      ++result.stats.lpCalls;
      result.stats += live->takeCounters();
    } else if (status == lp::SolveStatus::Optimal) {
      live.emplace(region.optimize(problem.objective(), problem.sense(),
                                   &status, &result.stats));
    } else {
      ++result.stats.lpCalls;  // the region already knows the answer
    }

    if (status == lp::SolveStatus::IterationLimit) {
      // A repair that ran out of budget or failed its feasibility audit
      // ends the search; the caller falls back to the root bound.
      hitLimit = true;
      break;
    }
    if (status == lp::SolveStatus::Unbounded) {
      // Only the root can be unbounded (a bound row never opens a
      // direction), and then so is the ILP: the recession direction is
      // rational, so integral points recede along it too.
      result.status = IlpStatus::Unbounded;
      return result;
    }
    if (status == lp::SolveStatus::Infeasible) {
      rootNode = false;
      live.reset();
      continue;
    }

    const double objective =
        maximize ? live->objectiveValue() : -live->objectiveValue();
    const std::vector<double> values = live->values();
    const auto fractional = firstFractional(values, options.intTol);
    if (rootNode) {
      // The root relaxation bounds the ILP optimum from the relaxed
      // side; the analyzer's degradation ladder falls back to it when
      // the integer search cannot finish.
      result.relaxationBound = objective;
      result.haveRelaxationBound = true;
      result.firstRelaxationIntegral = !fractional.has_value();
      rootNode = false;
    }

    if (haveIncumbent && !better(objective, incumbentObjective)) {
      live.reset();
      continue;  // bound: relaxation no better than incumbent
    }

    if (!fractional) {
      // Integral: a new incumbent, once the original rows accept it.
      std::vector<double> point = region.postsolve(values);
      for (double& v : point) v = std::round(v);
      if (!problem.isFeasiblePoint(point)) {
        hitLimit = true;  // the tableau drifted; trust none of it
        break;
      }
      incumbentObjective = objective;
      incumbentValues = std::move(point);
      haveIncumbent = true;
      live.reset();
      continue;
    }

    const int var = *fractional;
    const double value = values[static_cast<std::size_t>(var)];
    stack.push_back(Node{*live, {var, lp::Relation::LessEq, std::floor(value)},
                         objective});
    pending = {var, lp::Relation::GreaterEq, std::ceil(value)};
    parentBound = objective;
  }

  if (haveIncumbent) {
    result.status = interrupted  ? IlpStatus::Interrupted
                    : hitLimit   ? IlpStatus::Limit
                                 : IlpStatus::Optimal;
    result.objective = incumbentObjective;
    result.values = std::move(incumbentValues);
    recomputeExactObjective(problem, options, &result);
  } else {
    result.status = interrupted  ? IlpStatus::Interrupted
                    : hitLimit   ? IlpStatus::Limit
                                 : IlpStatus::Infeasible;
  }
  return result;
}

}  // namespace cinderella::ilp
