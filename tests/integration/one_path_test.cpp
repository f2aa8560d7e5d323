// One solve path: every consumer (CLI, serve, fuzz oracle) reaches the
// solver through ipet::AnalysisService, and the service must do exactly
// the work a direct Analyzer::estimate does — same bound, same solver
// counters — for every Table I program under every cache mode.  A
// service-only solve mode (such as seeding the solve from a cached
// basis) would show up here as a node- or pivot-count difference.
#include <gtest/gtest.h>

#include <string>

#include "cinderella/codegen/codegen.hpp"
#include "cinderella/ipet/analysis.hpp"
#include "cinderella/ipet/analyzer.hpp"
#include "cinderella/suite/suite.hpp"

namespace cinderella {
namespace {

TEST(OnePath, ServiceMatchesDirectEstimateForEveryProgramAndCacheMode) {
  ipet::AnalysisServiceOptions options;
  options.benchmarkResolver = suite::benchmarkResolver();
  const ipet::AnalysisService service(options);
  for (const suite::Benchmark& bench : suite::allBenchmarks()) {
    const codegen::CompileResult compiled =
        codegen::compileSource(bench.source);
    for (const ipet::CacheMode mode :
         {ipet::CacheMode::AllMiss, ipet::CacheMode::FirstIterationSplit,
          ipet::CacheMode::ConflictGraph}) {
      SCOPED_TRACE(bench.name + "/" + ipet::cacheModeStr(mode));
      ipet::AnalyzerOptions aopt;
      aopt.cacheMode = mode;
      ipet::Analyzer analyzer(compiled, bench.rootFunction, aopt);
      for (const auto& c : bench.constraints) {
        analyzer.addConstraint(c.text, c.scope);
      }
      const ipet::Estimate direct = analyzer.estimate();

      ipet::AnalysisRequest request;
      request.benchmark = bench.name;
      request.cacheMode = mode;
      request.cachePolicy = ipet::CachePolicy::Bypass;
      const ipet::AnalysisResult served = service.analyze(request);
      ASSERT_FALSE(served.cacheHit);
      EXPECT_EQ(served.estimate.bound, direct.bound);
      EXPECT_EQ(static_cast<const lp::SolverCounters&>(served.estimate.stats),
                static_cast<const lp::SolverCounters&>(direct.stats));
    }
  }
}

}  // namespace
}  // namespace cinderella
