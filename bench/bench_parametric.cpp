// Parametric formula pricing vs per-point solving: build the
// piecewise-affine WcetFormula once over a declared parameter box, then
// price every grid point by formula evaluation and compare against a
// direct (parameter-bound) solve at the same points.
//
// Two claims are checked and emitted as JSON:
//   - soundness: formula evaluation is bit-identical to the direct
//     solve at every sampled point (the benchmark exits nonzero on any
//     divergence — same contract the fuzz oracle and the CI
//     parametric-equivalence job enforce);
//   - performance: pricing the closed form is >= 10x faster than
//     re-solving per point.  The committed snapshot (BENCH_parametric.json)
//     tracks this ratio; wall times are machine-dependent, piece
//     counts and bounds are deterministic.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cinderella/codegen/codegen.hpp"
#include "cinderella/ipet/analyzer.hpp"
#include "cinderella/ipet/parametric.hpp"
#include "cinderella/obs/json.hpp"

namespace {

using namespace cinderella;

// One counted loop; the block starting on line 8 is the loop body.
constexpr const char* kLoop =
    "int acc;\n"                                  // 1
    "void f() {\n"                                // 2
    "  int i;\n"                                  // 3
    "  i = 0;\n"                                  // 4
    "  acc = 0;\n"                                // 5
    "  while (i < 64) {\n"                        // 6
    "    __loopbound(0, 64);\n"                   // 7
    "    acc = acc + i;\n"                        // 8
    "    i = i + 1;\n"                            // 9
    "  }\n"                                       // 10
    "}\n";                                        // 11

// Two loops with differently costly bodies (lines 9 and 14); the shared
// budget makes the worst-case bound genuinely piecewise in N.
constexpr const char* kTwoLoops =
    "int acc;\n"                                  // 1
    "void f() {\n"                                // 2
    "  int i;\n"                                  // 3
    "  int j;\n"                                  // 4
    "  i = 0;\n"                                  // 5
    "  j = 0;\n"                                  // 6
    "  while (i < 8) {\n"                         // 7
    "    __loopbound(0, 8);\n"                    // 8
    "    acc = acc + 1;\n"                        // 9
    "    i = i + 1;\n"                            // 10
    "  }\n"                                       // 11
    "  while (j < 8) {\n"                         // 12
    "    __loopbound(0, 8);\n"                    // 13
    "    acc = acc * acc + acc * acc + j;\n"      // 14
    "    j = j + 1;\n"                            // 15
    "  }\n"                                       // 16
    "}\n";                                        // 17

struct Program {
  const char* name;
  const char* source;
  const char* constraint;
  ipet::ParamDecl param;
};

const Program kPrograms[] = {
    {"counted_loop", kLoop, "@8 <= @N", {"N", 0, 64}},
    {"shared_budget", kTwoLoops, "@9 + @14 <= @N", {"N", 0, 16}},
};

ipet::Analyzer makeAnalyzer(const codegen::CompileResult& compiled,
                            const Program& program) {
  ipet::Analyzer analyzer(compiled, "f");
  analyzer.addConstraint(program.constraint);
  return analyzer;
}

std::int64_t nowMicros(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

struct ProgramResult {
  int pieces = 0;
  int directSolves = 0;
  std::int64_t points = 0;
  std::int64_t buildMicros = 0;
  std::int64_t evalMicros = 0;
  std::int64_t directMicros = 0;
  bool identical = true;

  [[nodiscard]] double speedup() const {
    return evalMicros > 0
               ? static_cast<double>(directMicros) /
                     static_cast<double>(evalMicros)
               : static_cast<double>(directMicros);
  }
};

ProgramResult runProgram(const Program& program) {
  const codegen::CompileResult compiled =
      codegen::compileSource(program.source);
  ipet::Analyzer analyzer = makeAnalyzer(compiled, program);

  ProgramResult out;
  const auto buildStart = std::chrono::steady_clock::now();
  const ipet::ParametricResult parametric =
      ipet::solveParametric(analyzer, {program.param});
  out.buildMicros = nowMicros(buildStart);
  out.pieces = static_cast<int>(parametric.formula.pieces.size());
  out.directSolves = parametric.stats.directSolves;
  out.points = program.param.hi - program.param.lo + 1;

  // Pricing pass: formula evaluation at every grid point.
  std::vector<ipet::Interval> priced;
  priced.reserve(static_cast<std::size_t>(out.points));
  const auto evalStart = std::chrono::steady_clock::now();
  for (std::int64_t v = program.param.lo; v <= program.param.hi; ++v) {
    priced.push_back(parametric.formula.evaluate({v}));
  }
  out.evalMicros = nowMicros(evalStart);
  if (out.evalMicros < 1) out.evalMicros = 1;  // clock granularity floor

  // Direct pass: one solve per point, same analyzer.
  const ipet::SolveControl control;
  const auto directStart = std::chrono::steady_clock::now();
  for (std::int64_t v = program.param.lo; v <= program.param.hi; ++v) {
    analyzer.clearParamBindings();
    analyzer.bindParam(program.param.name, v);
    const ipet::Interval direct = analyzer.estimate(control).bound;
    const ipet::Interval& formula =
        priced[static_cast<std::size_t>(v - program.param.lo)];
    if (direct.lo != formula.lo || direct.hi != formula.hi) {
      out.identical = false;
    }
  }
  out.directMicros = nowMicros(directStart);
  return out;
}

/// Prints the per-program table and one JSON document line; exits
/// nonzero if any point's formula value differs from the direct solve.
void printParametricTable() {
  std::printf(
      "PARAMETRIC PRICING (formula evaluation vs per-point solve)\n");
  std::printf("%-14s %7s %7s %7s %9s %9s %10s %9s\n", "Program", "points",
              "pieces", "solves", "buildUs", "evalUs", "directUs",
              "speedup");

  bool identical = true;
  obs::JsonWriter w;
  w.beginObject()
      .key("bench")
      .value("parametric")
      .key("programs")
      .beginArray();
  double minSpeedup = 0.0;
  bool first = true;
  for (const Program& program : kPrograms) {
    const ProgramResult r = runProgram(program);
    identical = identical && r.identical;
    if (first || r.speedup() < minSpeedup) minSpeedup = r.speedup();
    first = false;
    std::printf("%-14s %7lld %7d %7d %9lld %9lld %10lld %8.1fx%s\n",
                program.name, static_cast<long long>(r.points), r.pieces,
                r.directSolves, static_cast<long long>(r.buildMicros),
                static_cast<long long>(r.evalMicros),
                static_cast<long long>(r.directMicros), r.speedup(),
                r.identical ? "" : "  BOUNDS DIFFER");
    w.beginObject()
        .key("name")
        .value(program.name)
        .key("points")
        .value(r.points)
        .key("pieces")
        .value(r.pieces)
        .key("directSolves")
        .value(r.directSolves)
        .key("boundsIdentical")
        .value(r.identical)
        .key("buildMicros")
        .value(r.buildMicros)
        .key("evalMicros")
        .value(r.evalMicros)
        .key("directMicros")
        .value(r.directMicros)
        .key("speedup")
        .value(r.speedup())
        .endObject();
  }
  w.endArray().key("minSpeedup").value(minSpeedup).endObject();
  std::printf("%s\n", w.str().c_str());
  if (!identical) {
    std::fprintf(stderr,
                 "parametric formula diverged from direct solves — "
                 "engine bug\n");
    std::exit(1);
  }
}

void BM_FormulaEval(benchmark::State& state) {
  const Program& program = kPrograms[0];
  const codegen::CompileResult compiled =
      codegen::compileSource(program.source);
  ipet::Analyzer analyzer = makeAnalyzer(compiled, program);
  const ipet::ParametricResult parametric =
      ipet::solveParametric(analyzer, {program.param});
  std::int64_t v = program.param.lo;
  for (auto _ : state) {
    benchmark::DoNotOptimize(parametric.formula.evaluate({v}).hi);
    v = v == program.param.hi ? program.param.lo : v + 1;
  }
}

void BM_DirectSolve(benchmark::State& state) {
  const Program& program = kPrograms[0];
  const codegen::CompileResult compiled =
      codegen::compileSource(program.source);
  ipet::Analyzer analyzer = makeAnalyzer(compiled, program);
  const ipet::SolveControl control;
  std::int64_t v = program.param.lo;
  for (auto _ : state) {
    analyzer.clearParamBindings();
    analyzer.bindParam(program.param.name, v);
    benchmark::DoNotOptimize(analyzer.estimate(control).bound.hi);
    v = v == program.param.hi ? program.param.lo : v + 1;
  }
}

BENCHMARK(BM_FormulaEval);
BENCHMARK(BM_DirectSolve);

}  // namespace

int main(int argc, char** argv) {
  printParametricTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
