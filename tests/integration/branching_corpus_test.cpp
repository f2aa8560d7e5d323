// Branching corpus: 300 generated programs under the fuzzer's
// `branching` profile with their redundant constraints, analyzed under
// the conflict-graph cache mode, where a share of the ILPs has a
// fractional root and branch-and-bound really branches.
//
// Pins what the first-fractional branching rule buys: every set solves
// exactly (the most-fractional rule it replaced ran one of these
// programs into the 100,000-node limit and degraded it to Relaxed), the
// total tree stays small, and the bounds do not depend on presolve or
// on the thread count.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>

#include "cinderella/codegen/codegen.hpp"
#include "cinderella/fuzz/generator.hpp"
#include "cinderella/ipet/analyzer.hpp"

namespace cinderella {
namespace {

constexpr std::uint64_t kFirstSeed = 4225924455;
constexpr int kPrograms = 300;
/// About twice the 725 nodes first-fractional branching expands over
/// the corpus (most-fractional: 149,836).
constexpr int kNodeCeiling = 1500;

bool hasFractionalRoot(const ipet::Estimate& estimate) {
  for (const ipet::SetSolveRecord& rec : estimate.setRecords) {
    for (const ipet::IlpSolveRecord* side : {&rec.worst, &rec.best}) {
      if (side->solved && !side->firstRelaxationIntegral) return true;
    }
  }
  return false;
}

TEST(BranchingCorpus, EverySetIsExactWithinTheNodeCeiling) {
  fuzz::GeneratorOptions options = fuzz::branchingProfile();
  options.emitConstraints = true;
  fuzz::ProgramGenerator generator(options);
  int totalNodes = 0;
  int branchingPrograms = 0;
  for (int i = 0; i < kPrograms; ++i) {
    const std::uint64_t seed = kFirstSeed + static_cast<std::uint64_t>(i);
    SCOPED_TRACE("program seed " + std::to_string(seed));
    const fuzz::GeneratedProgram program = generator.generate(seed);
    const auto compiled = codegen::compileSource(program.source);
    ipet::AnalyzerOptions aopt;
    aopt.cacheMode = ipet::CacheMode::ConflictGraph;
    ipet::Analyzer analyzer(compiled, program.root, aopt);
    for (const auto& text : program.constraints) analyzer.addConstraint(text);

    const ipet::Estimate estimate = analyzer.estimate();
    totalNodes += estimate.stats.nodesExpanded;
    for (const ipet::SetSolveRecord& rec : estimate.setRecords) {
      EXPECT_EQ(rec.verdict, ipet::SetVerdict::Exact) << "set " << rec.setIndex;
    }

    ipet::SolveControl threaded;
    threaded.threads = 4;
    EXPECT_EQ(analyzer.estimate(threaded).bound, estimate.bound) << "jobs 4";

    // Presolve changes the tableau the search branches on, so the
    // programs that branch are the ones where it could move a bound.
    if (!hasFractionalRoot(estimate)) continue;
    ++branchingPrograms;
    ipet::SolveControl noPresolve;
    noPresolve.presolve = false;
    EXPECT_EQ(analyzer.estimate(noPresolve).bound, estimate.bound)
        << "presolve off";
  }
  EXPECT_LE(totalNodes, kNodeCeiling);
  // The corpus must keep reaching the branching regime.
  EXPECT_GE(branchingPrograms, 5);
}

TEST(BranchingCorpus, DeadlineReachesAStalledPhaseOne) {
  // Corpus program 4225924629 under ccg with presolve off: phase 1 of
  // its set LP (the null-set probe) stalls for minutes, and the pivot
  // cap is far away.  The simplex polls the deadline, so the
  // set gives up soon after it passes and takes its structural bound,
  // which is solved without the deadline and so never fails for it.
  fuzz::GeneratorOptions options = fuzz::branchingProfile();
  options.emitConstraints = true;
  const fuzz::GeneratedProgram program =
      fuzz::ProgramGenerator(options).generate(4225924629ULL);
  const codegen::CompileResult compiled = codegen::compileSource(program.source);
  ipet::AnalyzerOptions aopt;
  aopt.cacheMode = ipet::CacheMode::ConflictGraph;
  ipet::Analyzer analyzer(compiled, program.root, aopt);
  for (const auto& text : program.constraints) analyzer.addConstraint(text);
  const ipet::Estimate exact = analyzer.estimate();  // presolve on: fast

  ipet::SolveControl control;
  control.presolve = false;
  control.deadline = std::chrono::milliseconds(250);
  const auto start = std::chrono::steady_clock::now();
  const ipet::Estimate degraded = analyzer.estimate(control);
  // Seconds, not minutes; sanitizer builds run the simplex ~10x slower.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  constexpr std::chrono::seconds kReturnWithin{100};
#else
  constexpr std::chrono::seconds kReturnWithin{10};
#endif
  EXPECT_LT(std::chrono::steady_clock::now() - start, kReturnWithin);

  EXPECT_TRUE(degraded.timedOut);
  EXPECT_TRUE(degraded.sound());
  for (const ipet::SetSolveRecord& rec : degraded.setRecords) {
    EXPECT_NE(rec.verdict, ipet::SetVerdict::Failed) << "set " << rec.setIndex;
    // The stalled phase 1 itself stops soon after the deadline.
    EXPECT_LT(rec.probeMicros, 10'000'000) << "set " << rec.setIndex;
  }
  EXPECT_TRUE(degraded.bound.encloses(exact.bound));
}

}  // namespace
}  // namespace cinderella
