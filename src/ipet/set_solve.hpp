// The per-constraint-set solve and its degradation ladder, shared by
// Analyzer::estimate and AnalysisService's LP-format route.  A set has
// two sides: the worst case maximizes, the best case minimizes (an
// LP-format problem is one side, by its sense).  Each side settles on
// one SetVerdict rung (analyzer.hpp), and the set's verdict is the worst
// of its sides'.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cinderella/ilp/branch_and_bound.hpp"
#include "cinderella/ipet/analyzer.hpp"

namespace cinderella::ipet {

[[nodiscard]] inline std::int64_t microsSince(
    std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

enum class Side { Worst = 0, Best = 1 };
inline constexpr std::array<Side, 2> kSides{Side::Worst, Side::Best};

/// How a relaxation value becomes a sound integer bound.
enum class Rounding {
  /// The analyzer: IPET objectives are integral, so a value within 1e-6
  /// of an integer is taken to be it: floor(v + 1e-6) for the worst
  /// case, ceil(v - 1e-6) for the best case.
  IntegralObjective,
  /// LP-format requests, whose objectives may be fractional: ceil(v)
  /// for a maximization, floor(v) for a minimization.
  Outward,
};

/// `v` rounded by `rule` away from `side`'s optimum; beyond +-9.2e18 it
/// saturates at the int64 extremes.
[[nodiscard]] std::int64_t soundBound(double v, Side side, Rounding rule);

/// Why a set's run stopped early.
enum class StopCause { None, Deadline, Cancelled };

/// Where one side landed on the ladder.  A side proved empty is Exact
/// without a bound.
struct SideOutcome {
  SetVerdict verdict = SetVerdict::Exact;
  /// What the side contributes; nullopt when nothing (empty or Failed).
  std::optional<std::int64_t> bound;
  /// The integral optimum behind an Exact bound.
  std::vector<double> witness;

  [[nodiscard]] bool exact() const {
    return verdict == SetVerdict::Exact && bound.has_value();
  }
};

/// Everything one set task produces; merged in set-index order.
struct SetOutcome {
  bool started = false;  ///< task ran at all (false: lost to a fault)
  bool skipped = false;  ///< cancellation observed before solving
  /// The first cause that stopped one of the set's runs early.
  StopCause stopped = StopCause::None;
  std::array<SideOutcome, 2> sides;
  SetSolveRecord record;
  std::vector<SolveIssue> issues;
  std::exception_ptr error;  ///< user/model error, rethrown at merge

  /// Records an issue; the first one becomes the record's issue.
  void note(ErrorCode code, const char* phase, std::string detail) {
    if (record.issue == ErrorCode::None) record.issue = code;
    issues.push_back({record.setIndex, code, phase, std::move(detail)});
  }
  [[nodiscard]] SideOutcome& side(Side s) {
    return sides[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] IlpSolveRecord& slot(Side s) {
    return s == Side::Worst ? record.worst : record.best;
  }
};

/// Fills `slot` from a finished ILP: status, exact objective, counters.
void fillRecord(IlpSolveRecord* slot, const ilp::IlpSolution& solution,
                std::int64_t wallMicros);

/// Adds a solved set's verdict and ILP counters to `stats`.
void tally(SolveStats* stats, const SetSolveRecord& record);

/// The ladder shared by every set of one request.
class SetSolver {
 public:
  struct Options {
    ilp::IlpOptions ilp;  ///< before SolveControl's maxNodes and presolve
    Rounding rounding = Rounding::IntegralObjective;
    bool pruneNullSets = true;
  };

  /// `control`'s deadline runs from `start`.  Without `base` there is no
  /// structural rung, and a side nothing of its own bounds fails.  With
  /// it, solve() materializes each set on `base`, whose relaxation under
  /// objectives[side] is the structural rung.  Both must outlive the
  /// solver.
  SetSolver(const SolveControl& control,
            std::chrono::steady_clock::time_point start, Options options,
            const lp::Problem* base = nullptr,
            const std::array<lp::LinearExpr, 2>* objectives = nullptr);

  [[nodiscard]] bool cancelled() const;
  /// The ILP options, with an interrupt when anything can stop the run
  /// (cancellation, the deadline, an injected clock fault); it records
  /// what fired in out->stopped.  The fallback LPs run without it, so
  /// an expired deadline never turns Structural into Failed.
  [[nodiscard]] ilp::IlpOptions ilpOptions(SetOutcome* out) const;

  /// Settles `side` of `out` from its finished ILP: verdict, issue,
  /// bound and witness.  out->stopped says why it stopped early, if it
  /// did.
  void settle(SetOutcome* out, Side side, ilp::IlpSolution&& solution) const;
  /// Notes the issue and sends both sides to the structural rung: a set
  /// that could not be solved (deadline, memory ceiling, lost task).
  void degradeSet(SetOutcome* out, ErrorCode code, const char* phase,
                  std::string detail) const;

  /// The set task for set `index`, `base` plus `rows`: probe, worst ILP,
  /// best ILP, every fallback.  A user/model error lands in out->error.
  void solve(std::size_t index, const std::vector<lp::Constraint>& rows,
             SetOutcome* out) const noexcept;

 private:
  [[nodiscard]] StopCause poll() const;
  /// The structural rung, or Failed without one.
  [[nodiscard]] SideOutcome structural(Side side) const;
  /// Gives `side` of `out` its outcome: the set's verdict and the
  /// record's fallback bound.
  void apply(SetOutcome* out, Side side, SideOutcome&& outcome) const;
  /// solve()'s body; returns the set span's verdict.
  const char* solveSet(std::size_t index,
                       const std::vector<lp::Constraint>& rows,
                       SetOutcome* out) const;

  const SolveControl control_;
  const std::chrono::steady_clock::time_point start_;
  const bool armed_;
  Options options_;
  const lp::Problem* base_;
  const std::array<lp::LinearExpr, 2>* objectives_;
  /// The structural rung, solved once on first use, shared by threads.
  mutable std::once_flag structuralOnce_;
  mutable std::array<std::optional<std::int64_t>, 2> structural_;
};

}  // namespace cinderella::ipet
