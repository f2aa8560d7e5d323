// The fuzzing campaign driver: generate -> oracle-check -> shrink.
//
// One campaign is a deterministic function of FuzzOptions: run `i` uses
// program seed deriveSeed(seed, i) and input seed deriveSeed(seed, i)^1,
// so any failure is reproducible from (seed, i) alone and a re-run of
// the same campaign finds the same failures in the same order.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "cinderella/fuzz/generator.hpp"
#include "cinderella/fuzz/oracle.hpp"
#include "cinderella/fuzz/shrinker.hpp"

namespace cinderella::fuzz {

struct FuzzOptions {
  std::uint64_t seed = 1;
  int runs = 100;
  GeneratorOptions generator;
  OracleOptions oracle;
  /// Minimize each failing program with the delta-debugging shrinker.
  bool shrinkFailures = true;
  ShrinkOptions shrink;
  /// Stop the campaign after this many distinct failing programs.
  int maxFailures = 5;
};

struct FuzzFailure {
  /// Run index within the campaign and the derived program seed.
  int run = 0;
  std::uint64_t programSeed = 0;
  GeneratedProgram program;
  OracleReport report;
  /// Minimized reproducer (== program.source when shrinking is off or
  /// the shrinker could not reduce anything).
  std::string shrunkSource;
  OracleReport shrunkReport;
};

struct FuzzSummary {
  std::uint64_t seed = 0;
  int runs = 0;
  int failures = 0;
  /// Campaign-wide totals, for throughput reporting.
  std::int64_t simRuns = 0;
  std::int64_t explicitComplete = 0;
  std::int64_t shrinkCandidates = 0;
  /// Oracle ILP totals (OracleReport::ilpSolves / fractionalRoots).
  std::int64_t ilpSolves = 0;
  std::int64_t fractionalRoots = 0;
};

/// Runs a campaign.  Failures (with shrunk reproducers) are appended to
/// `failures` when non-null; `progress`, when non-null, receives one
/// line per failure as it is found.
FuzzSummary runFuzz(const FuzzOptions& options,
                    std::vector<FuzzFailure>* failures,
                    std::ostream* progress = nullptr);

/// Builds the shrinker predicate used by runFuzz: the candidate must
/// fail the oracle with the same first discrepancy kind as `original`.
/// Exposed so tests and the CLI can re-shrink a saved reproducer.
[[nodiscard]] FailurePredicate sameFailurePredicate(
    const DifferentialOracle& oracle, const GeneratedProgram& original,
    const OracleReport& originalReport, std::uint64_t inputSeed);

/// One-line machine-readable campaign summary:
/// {"tool":"cinderella-fuzz","seed":...,"runs":...,"failures":...,
///  "programsPerSec":...,"fractionalRootShare":...,"failureKinds":[...]},
/// where fractionalRootShare is the share of the oracle's ILPs whose
/// root relaxation was fractional (0 when none was solved).
[[nodiscard]] std::string fuzzSummaryJson(
    const FuzzSummary& summary, const std::vector<FuzzFailure>& failures,
    double wallSeconds);

/// Serializes a failure as a standalone `.mc` reproducer: a comment
/// header (seed, discrepancy) plus `//! constraint:` lines that
/// DifferentialOracle::checkSource re-parses, then the source.
[[nodiscard]] std::string reproducerFile(const FuzzFailure& failure,
                                         bool shrunk);

}  // namespace cinderella::fuzz
