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

}  // namespace
}  // namespace cinderella
