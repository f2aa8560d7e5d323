// Solver work counters: one summable value type carried from lp::solve
// through branch-and-bound, the per-ILP solve records and the estimate's
// totals to the report.
//
// kFields is the only place a counter is named: += and the report JSON
// loop over it, so a new counter is one member plus one list entry (the
// static_assert below rejects a member left out of the list).
#pragma once

#include <array>

namespace cinderella::lp {

struct SolverCounters {
  /// LPs solved: one per objective optimized from a feasible basis
  /// (each lp::solve, each branch-and-bound root) plus one per dual
  /// repair of a branch-and-bound node.  Phase 1 counts none.
  int lpCalls = 0;
  /// Branch-and-bound nodes expanded: the quantity IlpOptions::maxNodes
  /// budgets.  Counted by ilp::solve, never by lp::solve, so node and
  /// LP-call accounting cannot drift apart if a node ever solves more
  /// (or fewer) than one LP.
  int nodesExpanded = 0;
  /// Simplex pivots (primal and dual), including those of attempts
  /// abandoned by the Dantzig/Bland retry.  Where a phase 1 is shared
  /// (the analyzer's set LP), its pivots are counted once, apart.
  int totalPivots = 0;
  /// Pivots chosen by Devex pricing (a subset of totalPivots; the rest
  /// were Dantzig/Bland picks).
  int devexPivots = 0;
  /// Simplex phases re-run under a more conservative pivot rule after
  /// Devex hit the pivot budget or stalled.
  int blandRestarts = 0;
  /// Incumbent-objective recomputations whose 64-bit fast path
  /// overflowed and were redone in __int128 (see checked_math.hpp).
  int checkedPromotions = 0;
  /// Presolve: constraint rows dropped (substituted away, forced,
  /// redundant, or duplicates).
  int presolveRowsRemoved = 0;
  /// Presolve: variables eliminated at a fixed value (lo == hi after
  /// bound propagation).
  int presolveColsFixed = 0;
  /// Presolve: variables eliminated by singleton-equality substitution.
  int presolveSubstitutions = 0;
  /// Presolve: fixpoint rounds the reduction pass ran before quiescing.
  int presolveRounds = 0;

  struct Field {
    const char* name;
    int SolverCounters::*member;
  };
  static constexpr std::array<Field, 10> kFields{{
      {"lpCalls", &SolverCounters::lpCalls},
      {"nodesExpanded", &SolverCounters::nodesExpanded},
      {"totalPivots", &SolverCounters::totalPivots},
      {"devexPivots", &SolverCounters::devexPivots},
      {"blandRestarts", &SolverCounters::blandRestarts},
      {"checkedPromotions", &SolverCounters::checkedPromotions},
      {"presolveRowsRemoved", &SolverCounters::presolveRowsRemoved},
      {"presolveColsFixed", &SolverCounters::presolveColsFixed},
      {"presolveSubstitutions", &SolverCounters::presolveSubstitutions},
      {"presolveRounds", &SolverCounters::presolveRounds},
  }};

  SolverCounters& operator+=(const SolverCounters& other) {
    for (const Field& f : kFields) this->*f.member += other.*f.member;
    return *this;
  }
  friend SolverCounters operator+(SolverCounters a, const SolverCounters& b) {
    return a += b;
  }
  friend bool operator==(const SolverCounters&,
                         const SolverCounters&) = default;
};

static_assert(sizeof(SolverCounters) ==
                  SolverCounters::kFields.size() * sizeof(int),
              "every SolverCounters member must be listed in kFields");

}  // namespace cinderella::lp
