// Differential-oracle behaviour: clean on correct code, and —
// via the fault-injection hooks — provably able to catch the bug
// classes it exists for.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "cinderella/fuzz/fuzzer.hpp"
#include "cinderella/fuzz/generator.hpp"
#include "cinderella/fuzz/oracle.hpp"

namespace cinderella::fuzz {
namespace {

bool hasKind(const OracleReport& report, CheckKind kind) {
  return std::any_of(report.discrepancies.begin(), report.discrepancies.end(),
                     [&](const Discrepancy& d) { return d.kind == kind; });
}

TEST(OracleTest, CleanOnGeneratedPrograms) {
  GeneratorOptions gopt;
  gopt.emitConstraints = true;
  ProgramGenerator gen(gopt);
  const DifferentialOracle oracle;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const GeneratedProgram program = gen.generate(seed);
    const OracleReport report = oracle.check(program, seed ^ 1);
    EXPECT_TRUE(report.ok())
        << "seed " << seed << ": " << report.summary() << "\n"
        << program.source;
    EXPECT_GT(report.simRuns, 0);
  }
}

TEST(OracleTest, ChecksHandWrittenSource) {
  const std::string source =
      "int f(int x0, int x1) {\n"
      "  int acc; acc = x0 + x1;\n"
      "  return acc;\n"
      "}\n";
  const DifferentialOracle oracle;
  const OracleReport report = oracle.checkSource(source, "f", 3);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_TRUE(report.explicitComplete);
}

TEST(OracleTest, ReportsFrontendErrorsAsDiscrepancies) {
  const DifferentialOracle oracle;
  const OracleReport report = oracle.checkSource("int f( {", "f", 1);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.discrepancies.front().kind, CheckKind::Frontend);
}

TEST(OracleTest, EmbeddedConstraintsRoundTrip) {
  const std::string source =
      "//! constraint: x0 = 1\n"
      "//! constraint: x0 = 1 | x0 = 0\n"
      "int f(int x0, int x1) { return x0; }\n";
  const auto constraints = embeddedConstraints(source);
  ASSERT_EQ(constraints.size(), 2u);
  EXPECT_EQ(constraints[0], "x0 = 1");
  EXPECT_EQ(constraints[1], "x0 = 1 | x0 = 0");
}

// An off-by-one planted in the explicit enumerator (emulated by the
// injection hook, identical to editing the enumerator source) must be
// caught as an exact-agreement mismatch.
TEST(OracleTest, CatchesPlantedExplicitOffByOne) {
  ProgramGenerator gen;
  OracleOptions options;
  options.injectExplicitWorstDelta = 1;
  const DifferentialOracle oracle(options);
  const GeneratedProgram program = gen.generate(1);
  const OracleReport report = oracle.check(program, 2);
  ASSERT_TRUE(report.explicitComplete) << "pick a seed that enumerates fully";
  EXPECT_TRUE(hasKind(report, CheckKind::ExplicitWorst)) << report.summary();
}

// An unsound analyzer (worst bound too small) must be caught by the
// bracketing oracle: some simulated run exceeds the injected bound.
TEST(OracleTest, CatchesUnsoundBound) {
  ProgramGenerator gen;
  OracleOptions options;
  options.injectBoundHiDelta = -1'000'000;
  const DifferentialOracle oracle(options);
  const OracleReport report = oracle.check(gen.generate(1), 2);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(hasKind(report, CheckKind::SimAboveBound)) << report.summary();
}

// A program with a data-dependent out-of-bounds store: the analyzers
// accept it (they only see counts), but every simulated input faults —
// the oracle must surface that as SimFault rather than crash.
TEST(OracleTest, FlagsSimulatorFaults) {
  const std::string source =
      "int t[8];\n"
      "int f(int x0, int x1) {\n"
      "  t[x0 + 100000000] = 1;\n"
      "  return x0;\n"
      "}\n";
  const DifferentialOracle oracle;
  const OracleReport report = oracle.checkSource(source, "f", 5);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(hasKind(report, CheckKind::SimFault)) << report.summary();
}

// The degradation drill: re-running each estimate under an aggressive
// fault injector must neither throw nor produce a sound-claiming
// interval that loses the clean bound — across generated programs.
TEST(OracleTest, DegradationDrillStaysClean) {
  GeneratorOptions gopt;
  gopt.emitConstraints = true;
  ProgramGenerator gen(gopt);
  OracleOptions options;
  options.faultRate = 0.05;
  options.faultSeed = 9;
  const DifferentialOracle oracle(options);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const GeneratedProgram program = gen.generate(seed);
    const OracleReport report = oracle.check(program, seed ^ 1);
    EXPECT_FALSE(hasKind(report, CheckKind::DegradedThrow))
        << "seed " << seed << ": " << report.summary();
    EXPECT_FALSE(hasKind(report, CheckKind::DegradedUnsound))
        << "seed " << seed << ": " << report.summary();
  }
}

TEST(OracleTest, CountsFractionalRootsOnTheBranchingProfile) {
  // Under the branching profile this program's conflict-graph ILPs have
  // fractional roots; the report counts them among all solved ILPs.
  GeneratorOptions gopt = branchingProfile();
  gopt.emitConstraints = true;
  const GeneratedProgram program = ProgramGenerator(gopt).generate(4225924610);
  OracleOptions options;
  options.simTrials = 1;
  options.extraJobs.clear();
  options.compareExplicit = false;
  options.checkPresolve = false;
  options.checkSolveCache = false;
  options.checkParametric = false;
  const OracleReport report =
      DifferentialOracle(options).check(program, 4225924610 ^ 1);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.fractionalRoots, 0);
  EXPECT_GE(report.ilpSolves, report.fractionalRoots + 2);
}

TEST(OracleTest, SummaryJsonReportsTheFractionalRootShare) {
  FuzzSummary summary;
  summary.runs = 2;
  summary.ilpSolves = 8;
  summary.fractionalRoots = 2;
  const std::string json = fuzzSummaryJson(summary, {}, 1.0);
  EXPECT_NE(json.find("\"fractionalRootShare\":0.25"), std::string::npos)
      << json;
  summary.ilpSolves = 0;
  summary.fractionalRoots = 0;
  EXPECT_NE(fuzzSummaryJson(summary, {}, 1.0).find("\"fractionalRootShare\":0"),
            std::string::npos);
}

TEST(OracleTest, SummaryNamesTheFirstDiscrepancy) {
  OracleReport report;
  EXPECT_EQ(report.summary(), "ok");
  report.discrepancies.push_back({CheckKind::JobsMismatch, "jobs=2: bound"});
  EXPECT_EQ(report.summary(), "jobs-mismatch: jobs=2: bound");
}

}  // namespace
}  // namespace cinderella::fuzz
