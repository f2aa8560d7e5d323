// Fault-tolerance integration tests: under injected faults (simplex
// pivot failures, lost thread-pool tasks, spurious deadline expiry) the
// solve engine must degrade per constraint set to sound fallback bounds
// instead of aborting, and a sound degraded interval must enclose both
// the exact interval and the simulator's measurements.
//
// These run under ThreadSanitizer in CI (filter Degraded*) alongside
// the ParallelEstimate tests: the degradation paths share state across
// workers (structural fallback, issue lists) and must stay race-free.
#include <gtest/gtest.h>

#include <string>

#include "cinderella/codegen/codegen.hpp"
#include "cinderella/ipet/analyzer.hpp"
#include "cinderella/sim/simulator.hpp"
#include "cinderella/suite/suite.hpp"
#include "cinderella/support/error.hpp"
#include "cinderella/support/fault_injector.hpp"

namespace cinderella {
namespace {

using support::FaultInjector;
using support::FaultPlan;
using support::FaultSite;
using support::ScopedFaultInjector;

struct Prepared {
  explicit Prepared(const std::string& name)
      : bench(suite::benchmarkByName(name)),
        compiled(codegen::compileSource(bench.source)),
        analyzer(compiled, bench.rootFunction) {
    for (const auto& c : bench.constraints) {
      analyzer.addConstraint(c.text, c.scope);
    }
  }

  const suite::Benchmark& bench;
  codegen::CompileResult compiled;
  ipet::Analyzer analyzer;
};

int degradedRecords(const ipet::Estimate& estimate) {
  int count = 0;
  for (const ipet::SetSolveRecord& rec : estimate.setRecords) {
    if (!rec.pruned && rec.verdict != ipet::SetVerdict::Exact) ++count;
  }
  return count;
}

TEST(DegradedEstimate, InjectedPivotFaultsStaySoundAndBracketSimulation) {
  // Deterministic single-thread drill: with pivot faults injected, some
  // ILPs abort mid-solve and fall back to relaxation or structural
  // bounds.  Whenever the result still claims soundness, it must
  // enclose the exact interval and every simulator measurement.  The
  // rate is high because presolve leaves only a handful of pivots on
  // this benchmark — at 2% the drill would never fire.
  Prepared prep("check_data");
  const ipet::Estimate exact = prep.analyzer.estimate();

  FaultPlan plan;
  plan.seed = 3;
  plan.lpPivotRate = 0.9;
  FaultInjector injector{plan};
  ScopedFaultInjector install(&injector);

  ipet::SolveControl control;
  control.threads = 1;
  const ipet::Estimate degraded = prep.analyzer.estimate(control);

  EXPECT_GT(injector.injected(FaultSite::LpPivot), 0);
  EXPECT_FALSE(degraded.issues.empty());
  EXPECT_GT(degradedRecords(degraded), 0);
  if (degraded.sound()) {
    EXPECT_TRUE(degraded.bound.encloses(exact.bound));

    sim::Simulator simulator(prep.compiled.module);
    const int fn =
        *prep.compiled.module.findFunction(prep.bench.rootFunction);
    sim::SimOptions worstRun;
    worstRun.patches = prep.bench.worstData;
    const sim::SimResult worst = simulator.run(fn, {}, worstRun);
    EXPECT_LE(worst.cycles, degraded.bound.hi);
    EXPECT_GE(worst.cycles, degraded.bound.lo);
  }
}

TEST(DegradedEstimate, LostTasksDegradeToStructuralBounds) {
  // Every per-set solve task is dropped by the pool: the merge must
  // notice the unstarted sets and degrade each to the shared structural
  // bound with a task-lost issue, never hanging or throwing.
  Prepared prep("check_data");
  const ipet::Estimate exact = prep.analyzer.estimate();

  FaultPlan plan;
  plan.threadTaskRate = 1.0;
  FaultInjector injector{plan};
  ScopedFaultInjector install(&injector);

  ipet::SolveControl control;
  control.threads = 2;
  const ipet::Estimate degraded = prep.analyzer.estimate(control);

  EXPECT_TRUE(degraded.sound());
  EXPECT_TRUE(degraded.bound.encloses(exact.bound));
  EXPECT_FALSE(degraded.issues.empty());
  for (const ipet::SolveIssue& issue : degraded.issues) {
    EXPECT_EQ(issue.code, ErrorCode::TaskLost);
  }
  for (const ipet::SetSolveRecord& rec : degraded.setRecords) {
    EXPECT_EQ(rec.verdict, ipet::SetVerdict::Structural);
  }
  EXPECT_FALSE(degraded.timedOut);
}

TEST(DegradedEstimate, InjectedDeadlinePreservesCompletedSets) {
  // A flaky deadline clock (30% spurious expiry) stops the run partway:
  // sets solved before the first trip keep their exact bounds, later
  // ones degrade, and the whole result is flagged timed out yet sound.
  Prepared prep("dhry");
  const ipet::Estimate exact = prep.analyzer.estimate();

  FaultPlan plan;
  plan.seed = 2;
  plan.deadlineClockRate = 0.3;
  FaultInjector injector{plan};
  ScopedFaultInjector install(&injector);

  ipet::SolveControl control;
  control.threads = 1;
  const ipet::Estimate degraded = prep.analyzer.estimate(control);

  EXPECT_TRUE(degraded.timedOut);
  EXPECT_TRUE(degraded.sound());
  EXPECT_TRUE(degraded.bound.encloses(exact.bound));
  EXPECT_GT(degradedRecords(degraded), 0);
  // Sets solved before the clock tripped keep their exact verdicts —
  // completed work is never discarded.
  int exactRecords = 0;
  for (const ipet::SetSolveRecord& rec : degraded.setRecords) {
    if (!rec.pruned && rec.verdict == ipet::SetVerdict::Exact) ++exactRecords;
  }
  EXPECT_GT(exactRecords, 0);
  for (const ipet::SolveIssue& issue : degraded.issues) {
    EXPECT_EQ(issue.code, ErrorCode::DeadlineExpired);
  }
}

TEST(DegradedEstimate, ChaosDrillNeverThrows) {
  // All three sites fault at once across several seeds and thread
  // counts; estimate() must always return, and any sound result must
  // enclose the exact interval.
  Prepared prep("check_data");
  const ipet::Estimate exact = prep.analyzer.estimate();

  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    SCOPED_TRACE(seed);
    FaultPlan plan;
    plan.seed = seed;
    plan.lpPivotRate = 0.05;
    plan.threadTaskRate = 0.2;
    plan.deadlineClockRate = 0.05;
    FaultInjector injector{plan};
    ScopedFaultInjector install(&injector);

    ipet::SolveControl control;
    control.threads = 2;
    ipet::Estimate degraded;
    ASSERT_NO_THROW(degraded = prep.analyzer.estimate(control));
    if (degraded.sound()) {
      EXPECT_TRUE(degraded.bound.encloses(exact.bound));
    }
  }
}

TEST(DegradedEstimate, ZeroRateInjectorChangesNothing) {
  // An installed injector with all rates at zero must leave the result
  // bit-identical to a clean run: the seam itself has no side effects.
  Prepared prep("dhry");
  const ipet::Estimate clean = prep.analyzer.estimate();

  FaultInjector injector{FaultPlan{}};
  ScopedFaultInjector install(&injector);
  const ipet::Estimate observed = prep.analyzer.estimate();

  EXPECT_EQ(observed.bound, clean.bound);
  EXPECT_EQ(observed.stats.ilpSolves, clean.stats.ilpSolves);
  EXPECT_EQ(observed.stats.totalPivots, clean.stats.totalPivots);
  EXPECT_EQ(observed.stats.relaxedSets, 0);
  EXPECT_EQ(observed.stats.structuralSets, 0);
  EXPECT_EQ(observed.stats.failedSets, 0);
  EXPECT_FALSE(observed.timedOut);
  EXPECT_TRUE(observed.issues.empty());
}

TEST(DegradedEstimate, ProbeFaultNeverLeaksIntoWorstOrBest) {
  // Phase 1 of a set's shared LP is its null-set probe, and the worst
  // and best ILPs start from copies of that tableau.  A pivot fault
  // inside the probe leaves phase 1 half done; the ILPs must rebuild the
  // set LP rather than price their objectives on the half-pivoted
  // tableau.  So every set whose probe faulted either keeps the exact
  // fault-free bounds or carries a degraded verdict: a sound bound that
  // encloses them, or Failed when later faults took every fallback too.
  // des under ccg: one set whose phase 1 takes a few hundred pivots.
  const suite::Benchmark& bench = suite::benchmarkByName("des");
  const codegen::CompileResult compiled = codegen::compileSource(bench.source);
  ipet::AnalyzerOptions options;
  options.cacheMode = ipet::CacheMode::ConflictGraph;
  ipet::Analyzer analyzer(compiled, bench.rootFunction, options);
  for (const auto& c : bench.constraints) analyzer.addConstraint(c.text, c.scope);
  const ipet::Estimate exact = analyzer.estimate();
  ASSERT_EQ(exact.setRecords.size(), 1u);
  const ipet::SetSolveRecord& clean = exact.setRecords[0];

  int probeFaults = 0;
  int rebuiltExact = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    FaultPlan plan;
    plan.seed = seed;
    plan.lpPivotRate = 0.002;
    FaultInjector injector{plan};
    ScopedFaultInjector install(&injector);
    ipet::SolveControl control;
    control.threads = 1;
    const ipet::Estimate degraded = analyzer.estimate(control);

    bool probeFaulted = false;
    for (const ipet::SolveIssue& issue : degraded.issues) {
      probeFaulted = probeFaulted || issue.phase == std::string("probe");
    }
    if (!probeFaulted) continue;
    ++probeFaults;
    ASSERT_EQ(degraded.setRecords.size(), 1u);
    const ipet::SetSolveRecord& rec = degraded.setRecords[0];
    EXPECT_FALSE(rec.pruned);
    if (rec.verdict == ipet::SetVerdict::Exact) {
      ++rebuiltExact;
      EXPECT_EQ(rec.worst.objective, clean.worst.objective);
      EXPECT_EQ(rec.best.objective, clean.best.objective);
      EXPECT_EQ(degraded.bound, exact.bound);
    } else if (degraded.sound()) {
      EXPECT_TRUE(degraded.bound.encloses(exact.bound));
    } else {
      // Later faults also took down every fallback: flagged, not wrong.
      EXPECT_EQ(rec.verdict, ipet::SetVerdict::Failed);
    }
  }
  // The drill must hit the probe, and some of those runs must get a
  // rebuilt set LP all the way to exact bounds.
  EXPECT_GT(probeFaults, 0);
  EXPECT_GT(rebuiltExact, 0);
}

TEST(DegradedEstimate, FaultedRunsReplayFromTheSeed) {
  // Same plan, single thread: two degraded runs must agree exactly —
  // the whole degradation pipeline is deterministic in the seed.
  Prepared prepA("check_data");
  Prepared prepB("check_data");

  const auto run = [](Prepared& prep) {
    FaultPlan plan;
    plan.seed = 11;
    plan.lpPivotRate = 0.03;
    FaultInjector injector{plan};
    ScopedFaultInjector install(&injector);
    ipet::SolveControl control;
    control.threads = 1;
    return prep.analyzer.estimate(control);
  };
  const ipet::Estimate a = run(prepA);
  const ipet::Estimate b = run(prepB);
  EXPECT_EQ(a.bound, b.bound);
  EXPECT_EQ(a.issues.size(), b.issues.size());
  ASSERT_EQ(a.setRecords.size(), b.setRecords.size());
  for (std::size_t i = 0; i < a.setRecords.size(); ++i) {
    EXPECT_EQ(a.setRecords[i].verdict, b.setRecords[i].verdict);
    EXPECT_EQ(a.setRecords[i].issue, b.setRecords[i].issue);
  }
}

}  // namespace
}  // namespace cinderella
