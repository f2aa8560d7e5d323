// The unified AnalysisRequest -> AnalysisResult API and its caching
// semantics: warm-cache answers are bit-identical to cold solves across
// every cache mode, cache policies behave as documented, LP-format
// input closes the paper's off-the-shelf-ILP loop, and benchmark-name
// resolution goes through the injected ProgramResolver seam.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>

#include "cinderella/codegen/codegen.hpp"
#include "cinderella/ipet/analysis.hpp"
#include "cinderella/ipet/analyzer.hpp"
#include "cinderella/lp/lp_format.hpp"
#include "cinderella/suite/suite.hpp"
#include "cinderella/support/error.hpp"

namespace cinderella::ipet {
namespace {

constexpr const char* kFig2 =
    "int q;\nint r;\n"
    "void f(int p) { if (p) { q = 1; } else { q = 2; } r = q; }";

constexpr const char* kLoop =
    "int acc;\n"
    "void f(int n) {\n"
    "  int i;\n"
    "  for (i = 0; i < 8; i = i + 1) { __loopbound(8, 8); acc = acc + i; }\n"
    "}";

AnalysisRequest fig2Request() {
  AnalysisRequest request;
  request.source = kFig2;
  request.root = "f";
  request.constraints.push_back({"x1 = 0 | x2 = 0", ""});
  return request;
}

TEST(AnalysisService, CachePolicyRoundTrip) {
  for (const CachePolicy policy :
       {CachePolicy::ReadWrite, CachePolicy::ReadOnly, CachePolicy::Bypass}) {
    const auto back = parseCachePolicy(cachePolicyStr(policy));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, policy);
  }
  EXPECT_EQ(parseCachePolicy("rw"), CachePolicy::ReadWrite);
  EXPECT_EQ(parseCachePolicy("off"), CachePolicy::Bypass);
  EXPECT_FALSE(parseCachePolicy("sometimes").has_value());
}

TEST(AnalysisService, RejectsAmbiguousOrEmptyInput) {
  AnalysisService service;
  EXPECT_THROW((void)service.analyze(AnalysisRequest{}), Error);
  AnalysisRequest both;
  both.source = kFig2;
  both.benchmark = "piksrt";
  EXPECT_THROW((void)service.analyze(both), Error);
}

TEST(AnalysisService, WarmCacheEqualsColdSolveAcrossCacheModes) {
  for (const CacheMode mode :
       {CacheMode::AllMiss, CacheMode::FirstIterationSplit,
        CacheMode::ConflictGraph}) {
    AnalysisService service;
    AnalysisRequest request = fig2Request();
    request.cacheMode = mode;

    const AnalysisResult cold = service.analyze(request);
    EXPECT_FALSE(cold.cacheHit) << cacheModeStr(mode);
    const AnalysisResult warm = service.analyze(request);
    EXPECT_TRUE(warm.cacheHit) << cacheModeStr(mode);
    EXPECT_EQ(warm.estimate.bound.lo, cold.estimate.bound.lo);
    EXPECT_EQ(warm.estimate.bound.hi, cold.estimate.bound.hi);
    EXPECT_EQ(warm.fullDigest, cold.fullDigest);
    EXPECT_EQ(warm.estimate.stats.constraintSets,
              cold.estimate.stats.constraintSets);
  }
}

TEST(AnalysisService, CacheModesKeySeparateEntries) {
  // On a loop program the first-iteration split rewrites the ILP (extra
  // split variables and rows), so each mode gets its own content
  // address — a firstiter answer can never shadow an allmiss one.
  AnalysisService service;
  AnalysisRequest request;
  request.source = kLoop;
  request.root = "f";
  request.cacheMode = CacheMode::AllMiss;
  const AnalysisResult allMiss = service.analyze(request);
  request.cacheMode = CacheMode::FirstIterationSplit;
  const AnalysisResult firstIter = service.analyze(request);
  EXPECT_FALSE(firstIter.cacheHit);
  EXPECT_NE(allMiss.fullDigest, firstIter.fullDigest);

  // On a loop-free program every cache mode induces the identical ILP,
  // so the content address — which hashes the ILP, not the mode flag —
  // deliberately coincides: the modes share one (equally valid) entry.
  AnalysisRequest straight = fig2Request();
  straight.cacheMode = CacheMode::AllMiss;
  const AnalysisResult straightAllMiss = service.analyze(straight);
  straight.cacheMode = CacheMode::FirstIterationSplit;
  const AnalysisResult straightFirstIter = service.analyze(straight);
  EXPECT_EQ(straightAllMiss.fullDigest, straightFirstIter.fullDigest);
  EXPECT_TRUE(straightFirstIter.cacheHit);
  EXPECT_EQ(straightFirstIter.estimate.bound.hi,
            straightAllMiss.estimate.bound.hi);
}

TEST(AnalysisService, ReadOnlyPolicyNeverInserts) {
  AnalysisService service;
  AnalysisRequest request = fig2Request();
  request.cachePolicy = CachePolicy::ReadOnly;
  const AnalysisResult first = service.analyze(request);
  EXPECT_FALSE(first.cacheHit);
  EXPECT_EQ(service.cache().boundEntries(), 0u);

  // But a read-only request is served from an entry someone else wrote.
  request.cachePolicy = CachePolicy::ReadWrite;
  (void)service.analyze(request);
  request.cachePolicy = CachePolicy::ReadOnly;
  const AnalysisResult served = service.analyze(request);
  EXPECT_TRUE(served.cacheHit);
  EXPECT_EQ(served.estimate.bound.hi, first.estimate.bound.hi);
}

TEST(AnalysisService, BypassPolicySolvesColdEveryTime) {
  AnalysisService service;
  AnalysisRequest request = fig2Request();
  (void)service.analyze(request);  // populate
  request.cachePolicy = CachePolicy::Bypass;
  const AnalysisResult bypass = service.analyze(request);
  EXPECT_FALSE(bypass.cacheHit);
  // It still produced the same answer, just by solving.
  EXPECT_GT(bypass.estimate.stats.ilpSolves, 0);
}

TEST(AnalysisService, DisabledCacheAlwaysSolves) {
  AnalysisServiceOptions options;
  options.cache.capacity = 0;
  AnalysisService service(options);
  const AnalysisResult a = service.analyze(fig2Request());
  const AnalysisResult b = service.analyze(fig2Request());
  EXPECT_FALSE(a.cacheHit);
  EXPECT_FALSE(b.cacheHit);
  EXPECT_EQ(a.estimate.bound.hi, b.estimate.bound.hi);
}

TEST(AnalysisService, RelatedSystemSharesStructuralDigestButMisses) {
  // Same program, different functionality constraints: the structural
  // digest matches but the full digests differ, so there is no bound hit
  // and the second system is solved.
  AnalysisService service;
  AnalysisRequest first = fig2Request();
  const AnalysisResult cold = service.analyze(first);
  ASSERT_FALSE(cold.cacheHit);

  AnalysisRequest related = fig2Request();
  related.constraints.clear();
  related.constraints.push_back({"x1 = 1", ""});
  const AnalysisResult solved = service.analyze(related);
  EXPECT_FALSE(solved.cacheHit);
  EXPECT_EQ(solved.structuralDigest, cold.structuralDigest);
  EXPECT_NE(solved.fullDigest, cold.fullDigest);
}

TEST(AnalysisService, BenchmarkResolutionGoesThroughTheResolver) {
  AnalysisServiceOptions options;
  options.benchmarkResolver =
      [](const std::string& name) -> std::optional<ResolvedProgram> {
    if (name != "fig2") return std::nullopt;
    ResolvedProgram program;
    program.source = kFig2;
    program.root = "f";
    return program;
  };
  AnalysisService service(options);

  AnalysisRequest request;
  request.benchmark = "fig2";
  const AnalysisResult viaName = service.analyze(request);
  EXPECT_EQ(viaName.program, "fig2");

  AnalysisRequest bySource;
  bySource.source = kFig2;
  bySource.root = "f";
  const AnalysisResult viaSource = service.analyze(bySource);
  EXPECT_EQ(viaSource.estimate.bound.hi, viaName.estimate.bound.hi);
  // Content addressing: the benchmark entry serves the source request.
  EXPECT_TRUE(viaSource.cacheHit);

  AnalysisRequest unknown;
  unknown.benchmark = "nonesuch";
  EXPECT_THROW((void)service.analyze(unknown), Error);

  // Without a resolver, benchmark requests are rejected outright.
  AnalysisService bare;
  EXPECT_THROW((void)bare.analyze(request), Error);
}

TEST(AnalysisService, LpInputClosesTheExportLoop) {
  // Export the worst-case ILP of a real program, feed the text back in
  // as LP input: the LP route's hi bound must equal the analyzer's.
  const auto compiled = codegen::compileSource(kLoop);
  Analyzer analyzer(compiled, "f");
  const Estimate direct = analyzer.estimate();
  const std::string lpText = analyzer.exportWorstCaseIlp();

  AnalysisService service;
  AnalysisRequest request;
  request.lpInput = true;
  request.source = lpText;
  const AnalysisResult viaLp = service.analyze(request);
  EXPECT_EQ(viaLp.estimate.bound.hi, direct.bound.hi);
  // LP input has no structural core; the digests coincide.
  EXPECT_EQ(viaLp.fullDigest, viaLp.structuralDigest);

  // And the LP route caches like any other input.
  const AnalysisResult again = service.analyze(request);
  EXPECT_TRUE(again.cacheHit);
  EXPECT_EQ(again.estimate.bound.hi, viaLp.estimate.bound.hi);
}

TEST(AnalysisService, LpInputReportsEverySolverCounter) {
  // The LP route must carry the whole of each ilp::solve's counters into
  // its per-set records and totals, presolve and Devex counters included.
  const AnalysisService service;
  for (const suite::Benchmark& bench : suite::allBenchmarks()) {
    SCOPED_TRACE(bench.name);
    const auto compiled = codegen::compileSource(bench.source);
    Analyzer analyzer(compiled, bench.rootFunction);
    for (const auto& c : bench.constraints) {
      analyzer.addConstraint(c.text, c.scope);
    }
    // The LP route rejects a null (infeasible) system, so the export's
    // null sets are dropped before it goes in.
    std::string lpText;
    for (const lp::Problem& p :
         lp::parseLpFormatAll(analyzer.exportWorstCaseIlp())) {
      if (ilp::solve(p).status == ilp::IlpStatus::Infeasible) continue;
      lpText += lp::toLpFormat(p);
    }

    AnalysisRequest request;
    request.lpInput = true;
    request.source = lpText;
    request.cachePolicy = CachePolicy::Bypass;
    const AnalysisResult viaLp = service.analyze(request);

    const std::vector<lp::Problem> problems = lp::parseLpFormatAll(lpText);
    ASSERT_EQ(viaLp.estimate.setRecords.size(), problems.size());
    lp::SolverCounters sum;
    for (std::size_t i = 0; i < problems.size(); ++i) {
      SCOPED_TRACE(i);
      const lp::SolverCounters own = ilp::solve(problems[i]).stats;
      const SetSolveRecord& record = viaLp.estimate.setRecords[i];
      EXPECT_EQ(record.worst.counters + record.best.counters, own);
      sum += own;
    }
    EXPECT_EQ(static_cast<const lp::SolverCounters&>(viaLp.estimate.stats),
              sum);
  }
}

AnalysisRequest loopLpRequest() {
  const auto compiled = codegen::compileSource(kLoop);
  const Analyzer analyzer(compiled, "f");
  AnalysisRequest request;
  request.lpInput = true;
  request.source = analyzer.exportWorstCaseIlp();
  return request;
}

TEST(AnalysisService, LpInputOverTheMemoryCeilingFailsWithoutASolve) {
  AnalysisService service;
  AnalysisRequest request = loopLpRequest();
  request.control.maxMemoryBytes = 1;
  const AnalysisResult result = service.analyze(request);
  const Estimate& estimate = result.estimate;
  ASSERT_EQ(estimate.setRecords.size(), 1u);
  EXPECT_EQ(estimate.setRecords[0].verdict, SetVerdict::Failed);
  EXPECT_EQ(estimate.setRecords[0].issue, ErrorCode::MemoryCeiling);
  ASSERT_EQ(estimate.issues.size(), 1u);
  EXPECT_EQ(estimate.issues[0].code, ErrorCode::MemoryCeiling);
  EXPECT_FALSE(estimate.sound());
  EXPECT_EQ(estimate.stats.ilpSolves, 0);
  EXPECT_EQ(estimate.stats.totalPivots, 0);
  EXPECT_FALSE(estimate.setRecords[0].worst.solved);
  // No problem yielded a bound, so the interval claims nothing.
  EXPECT_EQ(estimate.bound.lo, std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(estimate.bound.hi, std::numeric_limits<std::int64_t>::max());
  // A failed result is never admitted to the cache.
  EXPECT_EQ(service.cache().boundEntries(), 0u);
}

TEST(AnalysisService, LpInputOutOfNodesDegradesToItsRootRelaxation) {
  // Both roots are fractional (x0 + x1 = 1.5); one node lets the search
  // solve the root but not branch, so each problem falls back to its
  // root relaxation rounded outward: 1.5 up to 2, 0.5 down to 0.
  AnalysisService service;
  AnalysisRequest request;
  request.lpInput = true;
  request.source =
      "Maximize\n obj: x0 + x1\nSubject To\n c0: 2 x0 + 2 x1 <= 3\nEnd\n"
      "Minimize\n obj: x0 + x1\nSubject To\n c0: 2 x0 + 2 x1 >= 1\nEnd\n";
  request.control.maxNodes = 1;
  const AnalysisResult result = service.analyze(request);
  const Estimate& estimate = result.estimate;
  EXPECT_EQ(estimate.bound.lo, 0);
  EXPECT_EQ(estimate.bound.hi, 2);
  EXPECT_TRUE(estimate.sound());
  EXPECT_EQ(estimate.stats.relaxedSets, 2);
  ASSERT_EQ(estimate.setRecords.size(), 2u);
  for (const SetSolveRecord& record : estimate.setRecords) {
    EXPECT_EQ(record.verdict, SetVerdict::Relaxed);
    EXPECT_EQ(record.issue, ErrorCode::NodeBudgetExhausted);
  }
  EXPECT_EQ(estimate.setRecords[0].worst.fallbackBound, 2);
  EXPECT_EQ(estimate.setRecords[1].best.fallbackBound, 0);
  ASSERT_EQ(estimate.issues.size(), 2u);
  // A relaxed result is never admitted to the cache.
  EXPECT_EQ(service.cache().boundEntries(), 0u);

  // With the node budget restored, both problems solve exactly.
  request.control.maxNodes = 0;
  const Estimate exact = service.analyze(request).estimate;
  EXPECT_EQ(exact.bound.lo, 1);
  EXPECT_EQ(exact.bound.hi, 1);
  EXPECT_EQ(exact.stats.relaxedSets, 0);
}

TEST(AnalysisService, LpInputFractionalOptimumRoundsOutward) {
  // min 0.5 x over integers x >= 3: the optimum 1.5 is no integer, so
  // the best case is its floor and, the system being one-sided, the
  // worst case its ceiling.  Rounding to nearest gave [2, 2].
  AnalysisService service;
  AnalysisRequest request;
  request.lpInput = true;
  request.source =
      "Minimize\n obj: 0.5 x\nSubject To\n c0: x >= 3\nGeneral\n x\nEnd\n";
  const Estimate estimate = service.analyze(request).estimate;
  EXPECT_EQ(estimate.bound.lo, 1);
  EXPECT_EQ(estimate.bound.hi, 2);
  EXPECT_TRUE(estimate.sound());
  ASSERT_EQ(estimate.setRecords.size(), 1u);
  EXPECT_EQ(estimate.setRecords[0].verdict, SetVerdict::Exact);
  EXPECT_EQ(estimate.setRecords[0].best.objective, 1);
}

TEST(AnalysisService, ObjectivePastInt64SaturatesAsRelaxed) {
  // Two nested loops of up to 4e9 iterations run the inner body up to
  // 1.6e19 times, past int64: the counts are no exact integers, and
  // rounding the double to nearest wrapped the worst case to INT64_MIN
  // while calling it exact.
  AnalysisService service;
  AnalysisRequest request;
  request.source =
      "int acc;\n"
      "void f() {\n"
      "  int i;\n"
      "  int j;\n"
      "  for (i = 0; i < 10; i = i + 1) {\n"
      "    __loopbound(0, 4000000000);\n"
      "    for (j = 0; j < 10; j = j + 1) {\n"
      "      __loopbound(0, 4000000000);\n"
      "      acc = acc + j;\n"
      "    }\n"
      "  }\n"
      "}";
  request.root = "f";
  const Estimate estimate = service.analyze(request).estimate;
  EXPECT_EQ(estimate.bound.hi, std::numeric_limits<std::int64_t>::max());
  EXPECT_GT(estimate.bound.lo, 0);
  ASSERT_EQ(estimate.setRecords.size(), 1u);
  const SetSolveRecord& record = estimate.setRecords[0];
  EXPECT_EQ(record.verdict, SetVerdict::Relaxed);
  EXPECT_EQ(record.issue, ErrorCode::NumericOverflow);
  EXPECT_EQ(record.worst.objective, std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(estimate.stats.relaxedSets, 1);
  // A relaxed result is never admitted to the cache.
  EXPECT_EQ(service.cache().boundEntries(), 0u);
}

TEST(AnalysisService, LpInputHonoursThePresolveSwitch) {
  const AnalysisService service;
  AnalysisRequest request = loopLpRequest();
  request.cachePolicy = CachePolicy::Bypass;
  const AnalysisResult on = service.analyze(request);
  request.control.presolve = false;
  const AnalysisResult off = service.analyze(request);
  EXPECT_EQ(off.estimate.bound, on.estimate.bound);
  EXPECT_GT(on.estimate.stats.presolveRounds, 0);
  const lp::SolverCounters& counters = off.estimate.stats;
  EXPECT_EQ(counters.presolveRowsRemoved, 0);
  EXPECT_EQ(counters.presolveColsFixed, 0);
  EXPECT_EQ(counters.presolveSubstitutions, 0);
  EXPECT_EQ(counters.presolveRounds, 0);
}

TEST(AnalysisService, LpInputRejectsBenchmarkAndConstraints) {
  AnalysisService service;
  AnalysisRequest request;
  request.lpInput = true;
  request.source = "max: x0; x0 <= 1;";
  request.constraints.push_back({"x0 = 1", ""});
  EXPECT_THROW((void)service.analyze(request), Error);
}

TEST(AnalysisService, DegradedResultIsNeverAdmitted) {
  // A deadline that has already expired degrades every set; the result
  // must not poison the cache, and the next request re-solves.
  AnalysisService service;
  AnalysisRequest request;
  request.source = kLoop;
  request.root = "f";
  request.control.deadline = std::chrono::milliseconds(-1);
  const AnalysisResult degraded = service.analyze(request);
  EXPECT_TRUE(degraded.estimate.timedOut);
  EXPECT_EQ(service.cache().boundEntries(), 0u);

  AnalysisRequest clean;
  clean.source = kLoop;
  clean.root = "f";
  const AnalysisResult solved = service.analyze(clean);
  EXPECT_FALSE(solved.cacheHit);
  EXPECT_FALSE(solved.estimate.timedOut);
}

}  // namespace
}  // namespace cinderella::ipet
