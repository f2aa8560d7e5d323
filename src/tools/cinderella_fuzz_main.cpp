// cinderella-fuzz — differential fuzzing campaign driver.
//
// Generates random MiniC programs, cross-checks the IPET analyzer
// against explicit enumeration and the cycle-accurate simulator (see
// fuzz/oracle.hpp), delta-debugs any failure to a minimal reproducer,
// and emits a one-line JSON summary on stdout.  Exit code 0 means the
// campaign found no discrepancy; 1 means at least one; 2 means bad
// usage.
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "cinderella/fuzz/fuzzer.hpp"

namespace {

constexpr const char* kUsage = R"(usage: cinderella-fuzz [options]

Differential fuzzing of the IPET analyzer: random annotated MiniC
programs are checked for exact agreement with explicit path enumeration
and for soundness against the cycle-accurate simulator, across cache
modes and solver thread counts.  Failing programs are minimized with a
delta-debugging shrinker.

options:
  --runs <N>            programs to generate (default 100)
  --seed <S>            campaign seed; run i uses a seed derived from
                        (S, i), so failures replay from the summary line
                        (default 1)
  --profile branching   larger programs (loop bounds up to 12, nests 3
                        deep, up to 12 top-level statements, 64-word
                        array, 4 helpers), where some conflict-graph
                        ILPs have fractional roots and branch-and-bound
                        branches; options after it override its fields
  --max-loop-bound <K>  maximum exact trip count of generated loops
                        (default 4)
  --sim-trials <N>      simulator inputs tried per program (default 5)
  --max-failures <N>    stop after N distinct failures (default 5)
  --out-dir <dir>       write failing programs as seed-<s>.mc plus
                        shrunk reproducers seed-<s>.shrunk.mc and the
                        JSON summary as summary.json
  --constraints         also generate redundant functionality
                        constraints (exercises DNF + null-set pruning)
  --fault-rate <R>      degradation drill: re-run each estimate under a
                        deterministic fault injector firing at rate R in
                        [0,1] at every site (LP pivots, pool tasks,
                        deadline clock); the degraded interval must stay
                        sound (default 0 = off)
  --fault-seed <S>      seed of the fault injector (default 1)
  --no-shrink           keep failing programs unminimized
  --no-explicit         skip the explicit-enumeration oracle
  --no-presolve         skip the presolve A/B oracle (presolve-on vs
                        presolve-off bounds and verdicts per cache mode)
  --no-parametric       skip the parametric-equivalence oracle (formula
                        evaluation vs direct solves at sampled points)
  --help                show this message

The JSON summary line on stdout reports runs, failures, throughput
(programs/sec), the share of solved ILPs whose root relaxation was
fractional (fractionalRootShare) and the discrepancy kind of each
failure.
)";

struct CliOptions {
  cinderella::fuzz::FuzzOptions fuzz;
  std::string outDir;
  bool helpRequested = false;
};

bool parseUint64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

bool parseInt(const char* text, int lo, int hi, int* out) {
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || v < lo || v > hi) return false;
  *out = static_cast<int>(v);
  return true;
}

bool parseRate(const char* text, double* out) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v >= 0.0) || !(v <= 1.0)) return false;
  *out = v;
  return true;
}

int parseArgs(int argc, char** argv, CliOptions* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "cinderella-fuzz: " << arg << " needs an argument\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      options->helpRequested = true;
      return 0;
    } else if (arg == "--runs") {
      const char* v = value();
      if (!v || !parseInt(v, 1, 1'000'000, &options->fuzz.runs)) return 2;
    } else if (arg == "--seed") {
      const char* v = value();
      if (!v || !parseUint64(v, &options->fuzz.seed)) return 2;
    } else if (arg == "--profile") {
      const char* v = value();
      if (!v) return 2;
      if (std::string(v) != "branching") {
        std::cerr << "cinderella-fuzz: unknown profile '" << v << "'\n";
        return 2;
      }
      const bool constraints = options->fuzz.generator.emitConstraints;
      options->fuzz.generator = cinderella::fuzz::branchingProfile();
      options->fuzz.generator.emitConstraints = constraints;
    } else if (arg == "--max-loop-bound") {
      const char* v = value();
      if (!v ||
          !parseInt(v, 1, 64, &options->fuzz.generator.maxLoopBound)) {
        return 2;
      }
    } else if (arg == "--sim-trials") {
      const char* v = value();
      if (!v || !parseInt(v, 0, 1000, &options->fuzz.oracle.simTrials)) {
        return 2;
      }
    } else if (arg == "--max-failures") {
      const char* v = value();
      if (!v || !parseInt(v, 1, 10'000, &options->fuzz.maxFailures)) return 2;
    } else if (arg == "--out-dir") {
      const char* v = value();
      if (!v) return 2;
      options->outDir = v;
    } else if (arg == "--fault-rate") {
      const char* v = value();
      if (!v || !parseRate(v, &options->fuzz.oracle.faultRate)) {
        std::cerr << "cinderella-fuzz: --fault-rate needs a value in [0,1]\n";
        return 2;
      }
    } else if (arg == "--fault-seed") {
      const char* v = value();
      if (!v || !parseUint64(v, &options->fuzz.oracle.faultSeed)) return 2;
    } else if (arg == "--constraints") {
      options->fuzz.generator.emitConstraints = true;
    } else if (arg == "--no-shrink") {
      options->fuzz.shrinkFailures = false;
    } else if (arg == "--no-explicit") {
      options->fuzz.oracle.compareExplicit = false;
    } else if (arg == "--no-presolve") {
      options->fuzz.oracle.checkPresolve = false;
    } else if (arg == "--no-parametric") {
      options->fuzz.oracle.checkParametric = false;
    } else {
      std::cerr << "cinderella-fuzz: unknown option '" << arg << "'\n"
                << kUsage;
      return 2;
    }
  }
  return 0;
}

void writeFile(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cinderella-fuzz: cannot write " << path << "\n";
    return;
  }
  out << text;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (const int rc = parseArgs(argc, argv, &options); rc != 0) return rc;
  if (options.helpRequested) return 0;

  namespace fuzz = cinderella::fuzz;
  std::vector<fuzz::FuzzFailure> failures;
  const auto start = std::chrono::steady_clock::now();
  const fuzz::FuzzSummary summary =
      fuzz::runFuzz(options.fuzz, &failures, &std::cerr);
  const double wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const std::string json = fuzz::fuzzSummaryJson(summary, failures,
                                                 wallSeconds);
  std::cout << json << "\n";

  if (!options.outDir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.outDir, ec);
    if (ec) {
      std::cerr << "cinderella-fuzz: cannot create " << options.outDir
                << ": " << ec.message() << "\n";
      return 1;
    }
    for (const fuzz::FuzzFailure& failure : failures) {
      const std::string stem = "seed-" + std::to_string(failure.programSeed);
      writeFile(std::filesystem::path(options.outDir) / (stem + ".mc"),
                fuzz::reproducerFile(failure, /*shrunk=*/false));
      if (options.fuzz.shrinkFailures) {
        writeFile(
            std::filesystem::path(options.outDir) / (stem + ".shrunk.mc"),
            fuzz::reproducerFile(failure, /*shrunk=*/true));
      }
    }
    writeFile(std::filesystem::path(options.outDir) / "summary.json", json);
  }

  return summary.failures == 0 ? 0 : 1;
}
