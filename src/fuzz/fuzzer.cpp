#include "cinderella/fuzz/fuzzer.hpp"

#include <ostream>

#include "cinderella/obs/json.hpp"

namespace cinderella::fuzz {

FailurePredicate sameFailurePredicate(const DifferentialOracle& oracle,
                                      const GeneratedProgram& original,
                                      const OracleReport& originalReport,
                                      std::uint64_t inputSeed) {
  if (originalReport.discrepancies.empty()) {
    return [](const std::string&) { return false; };
  }
  const CheckKind kind = originalReport.discrepancies.front().kind;
  GeneratedProgram shell = original;  // keeps root + constraints
  return [oracle, shell, kind, inputSeed](const std::string& candidate) {
    GeneratedProgram probe = shell;
    probe.source = candidate;
    const OracleReport report = oracle.check(probe, inputSeed);
    return !report.discrepancies.empty() &&
           report.discrepancies.front().kind == kind;
  };
}

FuzzSummary runFuzz(const FuzzOptions& options,
                    std::vector<FuzzFailure>* failures,
                    std::ostream* progress) {
  FuzzSummary summary;
  summary.seed = options.seed;

  ProgramGenerator generator(options.generator);
  const DifferentialOracle oracle(options.oracle);

  for (int run = 0; run < options.runs; ++run) {
    const std::uint64_t programSeed = deriveSeed(options.seed,
                                                 static_cast<std::uint64_t>(run));
    const std::uint64_t inputSeed = programSeed ^ 1;
    const GeneratedProgram program = generator.generate(programSeed);
    const OracleReport report = oracle.check(program, inputSeed);
    ++summary.runs;
    summary.simRuns += report.simRuns;
    if (report.explicitComplete) ++summary.explicitComplete;
    summary.ilpSolves += report.ilpSolves;
    summary.fractionalRoots += report.fractionalRoots;
    if (report.ok()) continue;

    ++summary.failures;
    FuzzFailure failure;
    failure.run = run;
    failure.programSeed = programSeed;
    failure.program = program;
    failure.report = report;
    failure.shrunkSource = program.source;
    failure.shrunkReport = report;
    if (options.shrinkFailures) {
      const ShrinkResult shrunk =
          shrink(program.source,
                 sameFailurePredicate(oracle, program, report, inputSeed),
                 options.shrink);
      summary.shrinkCandidates += shrunk.candidatesTried;
      GeneratedProgram reduced = program;
      reduced.source = shrunk.source;
      failure.shrunkSource = shrunk.source;
      failure.shrunkReport = oracle.check(reduced, inputSeed);
    }
    if (progress != nullptr) {
      *progress << "run " << run << " seed " << programSeed << ": "
                << report.summary() << "\n";
    }
    if (failures != nullptr) failures->push_back(std::move(failure));
    if (summary.failures >= options.maxFailures) break;
  }
  return summary;
}

std::string fuzzSummaryJson(const FuzzSummary& summary,
                            const std::vector<FuzzFailure>& failures,
                            double wallSeconds) {
  obs::JsonWriter w;
  w.beginObject();
  w.key("tool").value("cinderella-fuzz");
  w.key("seed").value(static_cast<std::int64_t>(summary.seed));
  w.key("runs").value(summary.runs);
  w.key("failures").value(summary.failures);
  w.key("simRuns").value(summary.simRuns);
  w.key("explicitComplete").value(summary.explicitComplete);
  w.key("shrinkCandidates").value(summary.shrinkCandidates);
  w.key("wallSeconds").value(wallSeconds);
  w.key("programsPerSec")
      .value(wallSeconds > 0.0 ? summary.runs / wallSeconds : 0.0);
  w.key("fractionalRootShare")
      .value(summary.ilpSolves > 0
                 ? static_cast<double>(summary.fractionalRoots) /
                       static_cast<double>(summary.ilpSolves)
                 : 0.0);
  w.key("failureKinds").beginArray();
  for (const FuzzFailure& failure : failures) {
    w.value(failure.report.discrepancies.empty()
                ? "?"
                : checkKindStr(failure.report.discrepancies.front().kind));
  }
  w.endArray();
  w.endObject();
  return w.str();
}

std::string reproducerFile(const FuzzFailure& failure, bool shrunk) {
  const OracleReport& report =
      shrunk ? failure.shrunkReport : failure.report;
  std::string out;
  out += "// cinderella-fuzz reproducer (";
  out += shrunk ? "shrunk" : "original";
  out += ")\n";
  out += "// program seed: " + std::to_string(failure.programSeed) +
         ", campaign run: " + std::to_string(failure.run) + "\n";
  out += "// discrepancy: " + report.summary() + "\n";
  for (const auto& constraint : failure.program.constraints) {
    out += "//! constraint: " + constraint + "\n";
  }
  out += shrunk ? failure.shrunkSource : failure.program.source;
  return out;
}

}  // namespace cinderella::fuzz
