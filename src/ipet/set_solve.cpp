#include "set_solve.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "cinderella/lp/feasible_lp.hpp"
#include "cinderella/obs/trace.hpp"
#include "cinderella/support/fault_injector.hpp"

namespace cinderella::ipet {

namespace {

using Clock = std::chrono::steady_clock;

/// A side's issue phase, also the name of its ILP span.
const char* phaseOf(Side side) {
  return side == Side::Worst ? "ilp-worst" : "ilp-best";
}

ErrorCode faultCode(const std::exception& e) {
  return dynamic_cast<const InjectedFaultError*>(&e) != nullptr
             ? ErrorCode::InjectedFault
             : ErrorCode::Internal;
}

constexpr double kInt64Edge = 9.2e18;  // doubles beyond here can't narrow

/// A finished ILP's optimum as a sound integer bound on `side`.
struct IntegerOptimum {
  std::int64_t value = 0;
  /// The optimum lies beyond int64; `value` is the extreme on its side.
  bool saturated = false;
};

/// Prefers the checked integer objective: the double loses precision
/// past 2^53.  Without one (a coefficient or value was not integral),
/// the double is rounded outward by `rule`.
IntegerOptimum integerOptimum(const ilp::IlpSolution& solution, Side side,
                              Rounding rule) {
  if (solution.objectiveIsExact) {
    return {solution.objectiveExact, solution.objectiveSaturated};
  }
  return {soundBound(solution.objective, side, rule),
          std::abs(solution.objective) >= kInt64Edge};
}

}  // namespace

std::int64_t soundBound(double v, Side side, Rounding rule) {
  if (v >= kInt64Edge) return std::numeric_limits<std::int64_t>::max();
  if (v <= -kInt64Edge) return std::numeric_limits<std::int64_t>::min();
  const bool upper = side == Side::Worst;
  if (rule == Rounding::Outward) {
    return static_cast<std::int64_t>(upper ? std::ceil(v) : std::floor(v));
  }
  return static_cast<std::int64_t>(upper ? std::floor(v + 1e-6)
                                         : std::ceil(v - 1e-6));
}

void fillRecord(IlpSolveRecord* slot, const ilp::IlpSolution& solution,
                Side side, Rounding rule, std::int64_t wallMicros) {
  slot->solved = true;
  slot->feasible = solution.status == ilp::IlpStatus::Optimal;
  slot->firstRelaxationIntegral = solution.firstRelaxationIntegral;
  slot->counters = solution.stats;
  slot->wallMicros = wallMicros;
  if (slot->feasible) {
    slot->objective = integerOptimum(solution, side, rule).value;
  }
}

void tally(SolveStats* stats, const SetSolveRecord& record) {
  stats->relaxedSets += record.verdict == SetVerdict::Relaxed;
  stats->structuralSets += record.verdict == SetVerdict::Structural;
  stats->failedSets += record.verdict == SetVerdict::Failed;
  for (const IlpSolveRecord* side : {&record.worst, &record.best}) {
    if (!side->solved) continue;
    ++stats->ilpSolves;
    *stats += side->counters;
    stats->allFirstRelaxationsIntegral &= side->firstRelaxationIntegral;
  }
}

SetSolver::SetSolver(const SolveControl& control, Clock::time_point start,
                     Options options, const lp::Problem* base,
                     const std::array<lp::LinearExpr, 2>* objectives)
    : control_(control),
      start_(start),
      armed_(control.deadline.count() != 0 || control.cancel != nullptr ||
             support::faultInjector() != nullptr),
      options_(std::move(options)),
      base_(base),
      objectives_(objectives) {
  if (control.maxNodes > 0) options_.ilp.maxNodes = control.maxNodes;
  options_.ilp.lpOptions.presolve = control.presolve;
}

bool SetSolver::cancelled() const {
  return control_.cancel != nullptr &&
         control_.cancel->load(std::memory_order_relaxed);
}

StopCause SetSolver::poll() const {
  if (!armed_) return StopCause::None;
  if (cancelled()) return StopCause::Cancelled;
  // Fault-injection seam: a DeadlineClock fault makes the deadline
  // report "expired" spuriously, driving the partial-result path
  // without real waiting.
  if (support::FaultInjector* const injector = support::faultInjector()) {
    if (injector->shouldFault(support::FaultSite::DeadlineClock)) {
      return StopCause::Deadline;
    }
  }
  if (control_.deadline.count() != 0 &&
      Clock::now() - start_ >= control_.deadline) {
    return StopCause::Deadline;
  }
  return StopCause::None;
}

ilp::IlpOptions SetSolver::ilpOptions(SetOutcome* out) const {
  ilp::IlpOptions options = options_.ilp;
  if (armed_) {
    options.lpOptions.interrupt = [this, out] {
      const StopCause cause = poll();
      if (out->stopped == StopCause::None) out->stopped = cause;
      return cause != StopCause::None;
    };
  }
  return options;
}

void SetSolver::settle(SetOutcome* out, Side side,
                       ilp::IlpSolution&& solution) const {
  SideOutcome outcome;
  if (solution.status == ilp::IlpStatus::Optimal) {
    const IntegerOptimum optimum =
        integerOptimum(solution, side, options_.rounding);
    outcome.bound = optimum.value;
    if (!optimum.saturated) {
      outcome.witness = std::move(solution.values);
    } else {
      // The true objective lies beyond int64; the saturated value is
      // reported as a (representation-limited) relaxed bound.
      out->note(ErrorCode::NumericOverflow, phaseOf(side),
                "objective exceeds 64-bit range; bound saturated");
      outcome.verdict = SetVerdict::Relaxed;
    }
  } else if (solution.status != ilp::IlpStatus::Infeasible) {
    // Limit or Interrupted (Infeasible: genuinely empty on this side,
    // contributing nothing).  Classify the budget that ran out: an LP
    // the interrupt cut short ends the search as Limit, so the stop
    // cause decides unless the node budget ran out.
    ErrorCode code = ErrorCode::PivotLimit;
    if (solution.status == ilp::IlpStatus::Limit &&
        solution.stats.nodesExpanded >= options_.ilp.maxNodes) {
      code = ErrorCode::NodeBudgetExhausted;
    } else if (out->stopped == StopCause::Cancelled) {
      code = ErrorCode::Cancelled;
    } else if (out->stopped == StopCause::Deadline ||
               solution.status == ilp::IlpStatus::Interrupted) {
      code = ErrorCode::DeadlineExpired;
    }
    out->note(code, phaseOf(side),
              std::string("integer solve stopped: ") +
                  ilp::ilpStatusStr(solution.status));
    outcome = solution.haveRelaxationBound
                  ? SideOutcome{SetVerdict::Relaxed,
                                soundBound(solution.relaxationBound, side,
                                           options_.rounding)}
                  : structural(side);
  }
  apply(out, side, std::move(outcome));
}

SideOutcome SetSolver::structural(Side side) const {
  if (base_ != nullptr) {
    std::call_once(structuralOnce_, [&] {
      // Both objectives on one phase 1 of the base rows.  Even this can
      // fault (e.g. under injection); a side it cannot bound fails.
      obs::Span span(control_.tracer, "structural-fallback", "solve");
      try {
        const lp::FeasibleLp region(*base_, options_.ilp.lpOptions);
        for (const Side s : kSides) {
          lp::SolveStatus status = region.status();
          if (status != lp::SolveStatus::Optimal) break;
          lp::SolverCounters work;
          const double max =
              region
                  .optimize((*objectives_)[static_cast<std::size_t>(s)],
                            senseOf(s), &status, &work)
                  .objectiveValue();
          if (status != lp::SolveStatus::Optimal) continue;
          structural_[static_cast<std::size_t>(s)] =
              soundBound(s == Side::Worst ? max : -max, s, options_.rounding);
        }
      } catch (...) {
      }
    });
  }
  SideOutcome outcome;
  outcome.bound = structural_[static_cast<std::size_t>(side)];
  outcome.verdict =
      outcome.bound ? SetVerdict::Structural : SetVerdict::Failed;
  return outcome;
}

void SetSolver::apply(SetOutcome* out, Side side,
                      SideOutcome&& outcome) const {
  out->record.verdict = std::max(out->record.verdict, outcome.verdict);
  if (outcome.verdict != SetVerdict::Exact && outcome.bound) {
    out->slot(side).degraded = true;
    out->slot(side).fallbackBound = *outcome.bound;
  }
  out->side(side) = std::move(outcome);
}

void SetSolver::degradeSet(SetOutcome* out, ErrorCode code, const char* phase,
                           std::string detail) const {
  out->note(code, phase, std::move(detail));
  for (const Side side : kSides) apply(out, side, structural(side));
}

void SetSolver::solve(std::size_t index,
                      const std::vector<lp::Constraint>& rows,
                      SetOutcome* out) const noexcept {
  out->started = true;
  out->record.setIndex = static_cast<int>(index);
  out->record.userConstraints = static_cast<int>(rows.size());
  const auto setStart = Clock::now();
  // Anything but a user/model error is absorbed: the unresolved sides
  // degrade.
  const auto absorb = [&](ErrorCode code, const char* what) {
    out->note(code, "set", what);
    for (const Side side : kSides) {
      if (!out->side(side).bound) apply(out, side, structural(side));
    }
  };
  // This span is also the thread-pool task lifetime: one task per set.
  obs::Span setSpan(control_.tracer, "set-solve", "solve");
  setSpan.arg("set", static_cast<int>(index));
  try {
    setSpan.arg("verdict", std::string(solveSet(index, rows, out)));
  } catch (const AnalysisError&) {
    // User/model error (unbounded ILP, bad constraint): still aborts
    // the whole estimate — degradation must not mask a broken model.
    out->error = std::current_exception();
  } catch (const std::exception& e) {
    absorb(faultCode(e), e.what());
  } catch (...) {
    absorb(ErrorCode::Internal, "unknown exception");
  }
  out->record.wallMicros = microsSince(setStart);
}

const char* SetSolver::solveSet(std::size_t index,
                                const std::vector<lp::Constraint>& rows,
                                SetOutcome* out) const {
  SetSolveRecord& rec = out->record;
  switch (poll()) {
    case StopCause::Cancelled:
      out->skipped = true;
      return "skipped";
    case StopCause::Deadline:
      // Degrade instead of aborting: this set falls back to the shared
      // structural bound; already-completed sets stay untouched.
      degradeSet(out, ErrorCode::DeadlineExpired, "set",
                 "deadline expired before this set was solved");
      return setVerdictStr(rec.verdict);
    case StopCause::None:
      break;
  }
  lp::Problem p = *base_;
  for (const lp::Constraint& row : rows) p.addConstraint(row);
  // Over the memory ceiling the set degrades to the sound structural
  // bound — same shape as a deadline expiry, so a hostile or runaway
  // request can never balloon the process.
  if (std::optional<std::string> breach =
          memoryCeilingBreach(p, control_.maxMemoryBytes)) {
    degradeSet(out, ErrorCode::MemoryCeiling, "set", std::move(*breach));
    return setVerdictStr(rec.verdict);
  }

  // One set LP shared by the probe, worst and best: presolve and phase 1
  // run once, and each ILP reprices a copy of the feasible tableau.  Any
  // exception while it is in use discards it, so a later side rebuilds
  // it rather than starting from a half-pivoted tableau.  Its presolve
  // counters are charged, once, to the first ILP that uses it; its
  // phase-1 pivots are the probe's.
  const ilp::IlpOptions ilp = ilpOptions(out);
  std::optional<lp::FeasibleLp> region;
  lp::SolverCounters unchargedPresolve;
  auto buildRegion = [&] {
    region.emplace(p, ilp.lpOptions);
    rec.probePivots += region->phase1Counters().totalPivots;
    unchargedPresolve = region->presolveCounters();
  };

  // Null-set pruning: phase 1 is the LP feasibility probe (paper III-D).
  {
    obs::Span probeSpan(control_.tracer, "lp-probe", "solve");
    probeSpan.arg("set", static_cast<int>(index));
    const auto probeStart = Clock::now();
    try {
      buildRegion();
      rec.probeMicros = microsSince(probeStart);
      const bool null = region->status() == lp::SolveStatus::Infeasible;
      probeSpan.arg("pivots", rec.probePivots)
          .arg("verdict", std::string(null ? "null" : "feasible"));
      if (null && options_.pruneNullSets) {
        rec.pruned = true;
        return "pruned";
      }
    } catch (const SolverError& e) {
      // Pruning is only an optimization; the ILPs rebuild the set LP.
      rec.probeMicros = microsSince(probeStart);
      out->note(faultCode(e), "probe", e.what());
      probeSpan.arg("verdict", std::string("faulted"));
    }
  }

  for (const Side side : kSides) {
    p.setObjective((*objectives_)[static_cast<std::size_t>(side)],
                   senseOf(side));
    try {
      ilp::IlpSolution solution;
      {
        obs::Span ilpSpan(control_.tracer, phaseOf(side), "solve");
        ilpSpan.arg("set", static_cast<int>(index));
        const auto ilpStart = Clock::now();
        if (!region) buildRegion();
        solution = ilp::solve(p, *region, ilp);
        solution.stats += std::exchange(unchargedPresolve, {});
        IlpSolveRecord& slot = out->slot(side);
        fillRecord(&slot, solution, side, options_.rounding,
                   microsSince(ilpStart));
        ilpSpan.arg("verdict", std::string(ilp::ilpStatusStr(solution.status)))
            .arg("nodes", solution.stats.nodesExpanded)
            .arg("lp-calls", solution.stats.lpCalls)
            .arg("pivots", solution.stats.totalPivots);
        if (slot.feasible) ilpSpan.arg("objective", slot.objective);
      }
      if (side == Side::Worst &&
          solution.status == ilp::IlpStatus::Unbounded) {
        throw AnalysisError(
            "worst-case ILP is unbounded — a loop is missing its bound");
      }
      settle(out, side, std::move(solution));
    } catch (const SolverError& e) {
      // The integer solve died mid-flight: the set's own LP relaxation
      // bounds the side (a provably empty set needs no bound), the
      // structural rung beyond that.
      region.reset();
      out->note(faultCode(e), phaseOf(side), e.what());
      SideOutcome outcome;
      try {
        const lp::Solution sol = lp::solve(p, options_.ilp.lpOptions);
        rec.fallbackPivots += sol.counters.totalPivots;
        if (sol.status == lp::SolveStatus::Optimal) {
          outcome = {SetVerdict::Relaxed,
                     soundBound(sol.objective, side, options_.rounding)};
        } else if (sol.status != lp::SolveStatus::Infeasible) {
          outcome = structural(side);
        }
      } catch (...) {
        outcome = structural(side);
      }
      apply(out, side, std::move(outcome));
    }
  }
  return setVerdictStr(rec.verdict);
}

}  // namespace cinderella::ipet
