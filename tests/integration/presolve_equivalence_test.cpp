// Presolve equivalence: the LP reduction engine (SolveControl::presolve
// — singleton substitution, bound propagation, fixed-variable
// elimination, redundant-row removal) is a pure performance feature.
// Bounds must be bit-identical with it on or off, for every suite
// benchmark, every cache mode, several thread counts, and under injected
// faults.
//
// These run in CI's presolve-equivalence job next to a 200-seed fuzz
// sweep whose oracle re-solves every generated program with presolve
// off.  PresolveCounters pins what the pass removes on every cell.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <ostream>
#include <string>

#include "cinderella/codegen/codegen.hpp"
#include "cinderella/ipet/analyzer.hpp"
#include "cinderella/suite/suite.hpp"
#include "cinderella/support/fault_injector.hpp"

namespace cinderella {
namespace {

using support::FaultInjector;
using support::FaultPlan;
using support::ScopedFaultInjector;

ipet::Estimate estimateBenchmark(const suite::Benchmark& bench,
                                 ipet::CacheMode mode, bool presolve,
                                 int threads = 1) {
  const auto compiled = codegen::compileSource(bench.source);
  ipet::AnalyzerOptions aopt;
  aopt.cacheMode = mode;
  ipet::Analyzer analyzer(compiled, bench.rootFunction, aopt);
  for (const auto& c : bench.constraints) {
    analyzer.addConstraint(c.text, c.scope);
  }
  ipet::SolveControl control;
  control.presolve = presolve;
  control.threads = threads;
  return analyzer.estimate(control);
}

/// Bit-identity of everything the solve *means*: the merged interval
/// and, per set, the pruned flag and both objectives.  (Solver-effort
/// stats — pivots, presolve tallies — legitimately differ.)
void expectSameBounds(const ipet::Estimate& on, const ipet::Estimate& off) {
  EXPECT_EQ(on.bound, off.bound);
  EXPECT_EQ(on.sound(), off.sound());
  ASSERT_EQ(on.setRecords.size(), off.setRecords.size());
  for (std::size_t i = 0; i < on.setRecords.size(); ++i) {
    SCOPED_TRACE(i);
    const ipet::SetSolveRecord& a = on.setRecords[i];
    const ipet::SetSolveRecord& b = off.setRecords[i];
    EXPECT_EQ(a.pruned, b.pruned);
    if (a.sharedWith >= 0) continue;  // solved via its representative
    EXPECT_EQ(a.worst.feasible, b.worst.feasible);
    EXPECT_EQ(a.best.feasible, b.best.feasible);
    if (a.worst.feasible && b.worst.feasible) {
      EXPECT_EQ(a.worst.objective, b.worst.objective);
    }
    if (a.best.feasible && b.best.feasible) {
      EXPECT_EQ(a.best.objective, b.best.objective);
    }
  }
}

TEST(PresolveEquivalence, SuiteBitIdenticalAcrossCacheModes) {
  for (const auto& bench : suite::allBenchmarks()) {
    for (const ipet::CacheMode mode :
         {ipet::CacheMode::AllMiss, ipet::CacheMode::FirstIterationSplit,
          ipet::CacheMode::ConflictGraph}) {
      SCOPED_TRACE(bench.name + "/" + ipet::cacheModeStr(mode));
      const ipet::Estimate on = estimateBenchmark(bench, mode, true);
      const ipet::Estimate off = estimateBenchmark(bench, mode, false);
      expectSameBounds(on, off);
      // The engine must actually engage: IPET systems are built from
      // flow-conservation equalities, which presolve substitutes away
      // on every benchmark.
      EXPECT_GT(on.stats.presolveRowsRemoved, 0);
      EXPECT_GT(on.stats.presolveSubstitutions + on.stats.presolveColsFixed,
                0);
      EXPECT_EQ(off.stats.presolveRowsRemoved, 0);
      EXPECT_EQ(off.stats.presolveColsFixed, 0);
      EXPECT_EQ(off.stats.presolveSubstitutions, 0);
      // No per-combination pivot assertion; the aggregate payoff is
      // gated by bench_presolve.
    }
  }
}

TEST(PresolveEquivalence, MultiThreadedPresolveMatchesOff) {
  const suite::Benchmark& bench = suite::benchmarkByName("dhry");
  const ipet::Estimate off =
      estimateBenchmark(bench, ipet::CacheMode::AllMiss, false);
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    const ipet::Estimate on =
        estimateBenchmark(bench, ipet::CacheMode::AllMiss, true, threads);
    expectSameBounds(on, off);
  }
}

TEST(PresolveEquivalence, InjectedFaultsStaySoundWithPresolve) {
  // Faults land at different pivots with presolve on vs off (the pivot
  // streams differ), so exact equality is not expected — but the
  // reduced solves must degrade exactly as gracefully: never throw, and
  // any sound result encloses the exact interval.
  const suite::Benchmark& bench = suite::benchmarkByName("check_data");
  const ipet::Estimate exact =
      estimateBenchmark(bench, ipet::CacheMode::AllMiss, true);

  for (const std::uint64_t seed : {1ULL, 5ULL, 9ULL}) {
    SCOPED_TRACE(seed);
    FaultPlan plan;
    plan.seed = seed;
    // Presolve leaves only a handful of pivots on this benchmark; a
    // high rate keeps the drill firing.
    plan.lpPivotRate = 0.5;
    FaultInjector injector{plan};
    ScopedFaultInjector install(&injector);

    ipet::Estimate degraded;
    ASSERT_NO_THROW(degraded = estimateBenchmark(
                        bench, ipet::CacheMode::AllMiss, true));
    if (degraded.sound()) {
      EXPECT_TRUE(degraded.bound.encloses(exact.bound));
    }
  }
}

/// What presolve removed from one cell, and the phase-1 pivots left.
struct PresolveWork {
  int rowsRemoved = 0;
  int colsFixed = 0;
  int substitutions = 0;
  int rounds = 0;
  int probePivots = 0;

  friend bool operator==(const PresolveWork&, const PresolveWork&) = default;
};

std::ostream& operator<<(std::ostream& os, const PresolveWork& w) {
  return os << "{" << w.rowsRemoved << ", " << w.colsFixed << ", "
            << w.substitutions << ", " << w.rounds << ", " << w.probePivots
            << "}";
}

TEST(PresolveCounters, PinnedOnEveryTableICell) {
  // Every reduction is deterministic, so each cell's tallies are exact:
  // a rewrite of the pass that drops, reorders or adds a reduction
  // moves one of them.  ccg is where most substitutions happen, and
  // probePivots is the phase-1 work the reduced rows leave.
  static const std::map<std::string, std::array<PresolveWork, 3>> kPins{
      {"check_data",
       {{{64, 35, 26, 11, 0}, {78, 37, 26, 11, 0}, {169, 87, 80, 10, 49}}}},
      {"fft",
       {{{56, 25, 23, 8, 0}, {73, 25, 23, 8, 0}, {106, 40, 61, 5, 107}}}},
      {"piksrt",
       {{{21, 3, 15, 4, 3}, {25, 3, 15, 5, 3}, {46, 11, 34, 3, 48}}}},
      {"des",
       {{{112, 22, 77, 6, 0}, {139, 22, 77, 6, 0}, {236, 72, 167, 5, 370}}}},
      {"line",
       {{{30, 1, 29, 3, 7}, {30, 1, 29, 3, 7}, {98, 13, 85, 3, 57}}}},
      {"circle",
       {{{20, 3, 17, 4, 2}, {21, 3, 17, 4, 2}, {49, 12, 37, 4, 97}}}},
      {"jpeg_fdct_islow",
       {{{19, 6, 11, 4, 0}, {19, 6, 11, 4, 0}, {31, 6, 26, 5, 7}}}},
      {"jpeg_idct_islow",
       {{{23, 5, 17, 4, 2}, {23, 5, 17, 4, 2}, {39, 5, 34, 4, 22}}}},
      {"recon",
       {{{68, 1, 67, 4, 19}, {68, 1, 67, 4, 19}, {194, 43, 151, 3, 172}}}},
      {"fullsearch",
       {{{42, 5, 36, 6, 7}, {46, 5, 36, 6, 7}, {92, 20, 72, 4, 94}}}},
      {"whetstone",
       {{{286, 51, 209, 6, 0}, {342, 58, 202, 6, 0}, {513, 183, 326, 5, 820}}}},
      {"dhry",
       {{{268, 103, 144, 15, 8}, {295, 112, 144, 15, 8}, {738, 496, 329, 16, 313}}}},
      {"matgen",
       {{{48, 12, 31, 7, 0}, {62, 12, 31, 7, 0}, {101, 24, 77, 4, 95}}}},
  };
  const std::array<ipet::CacheMode, 3> modes{
      ipet::CacheMode::AllMiss, ipet::CacheMode::FirstIterationSplit,
      ipet::CacheMode::ConflictGraph};
  for (const auto& bench : suite::allBenchmarks()) {
    for (std::size_t m = 0; m < modes.size(); ++m) {
      SCOPED_TRACE(bench.name + "/" + ipet::cacheModeStr(modes[m]));
      const ipet::Estimate estimate =
          estimateBenchmark(bench, modes[m], true);
      PresolveWork work{estimate.stats.presolveRowsRemoved,
                        estimate.stats.presolveColsFixed,
                        estimate.stats.presolveSubstitutions,
                        estimate.stats.presolveRounds, 0};
      for (const ipet::SetSolveRecord& rec : estimate.setRecords) {
        work.probePivots += rec.probePivots;
      }
      EXPECT_EQ(work, kPins.at(bench.name)[m]);
    }
  }
}

}  // namespace
}  // namespace cinderella
