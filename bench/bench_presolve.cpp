// Presolve A/B for the LP reduction engine (SolveControl::presolve):
// every Table-I benchmark analyzed twice, once with the fixpoint
// presolver (singleton substitution, bound propagation, fixed-variable
// elimination, redundant-row removal) in front of every simplex call
// and once on the raw IPET formulation.
//
// Two claims are checked and emitted as JSON lines:
//   - the bounds are bit-identical either way (presolve is purely a
//     performance feature — the postsolve stack maps every reduced
//     solution back to the original space exactly);
//   - the reduced formulations take strictly fewer simplex pivots —
//     the committed snapshot (BENCH_presolve.json) pins the exact
//     per-benchmark pivot and reduction counts.
//
// "Total simplex pivots" counts every simplex iteration: ILP relaxations
// (stats.totalPivots), per-set feasibility probes, and
// degradation-ladder fallback LPs.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "cinderella/codegen/codegen.hpp"
#include "cinderella/ipet/analyzer.hpp"
#include "cinderella/obs/json.hpp"
#include "cinderella/suite/suite.hpp"

namespace {

using namespace cinderella;

struct RunStats {
  ipet::Interval bound;
  ipet::SolveStats stats;
  int probePivots = 0;
  int fallbackPivots = 0;
  std::int64_t wallMicros = 0;

  /// Every simplex iteration the estimate performed (see file comment).
  [[nodiscard]] int simplexPivots() const {
    return stats.totalPivots + probePivots + fallbackPivots;
  }
};

RunStats runOnce(const suite::Benchmark& bench, bool presolve) {
  const codegen::CompileResult compiled =
      codegen::compileSource(bench.source);
  ipet::Analyzer analyzer(compiled, bench.rootFunction);
  for (const auto& c : bench.constraints) {
    analyzer.addConstraint(c.text, c.scope);
  }
  ipet::SolveControl control;
  control.presolve = presolve;
  const auto start = std::chrono::steady_clock::now();
  const ipet::Estimate estimate = analyzer.estimate(control);
  RunStats out;
  out.wallMicros = std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  out.bound = estimate.bound;
  out.stats = estimate.stats;
  for (const ipet::SetSolveRecord& rec : estimate.setRecords) {
    out.probePivots += rec.probePivots;
    out.fallbackPivots += rec.fallbackPivots;
  }
  return out;
}

void sideToJson(obs::JsonWriter* w, const RunStats& r) {
  w->beginObject()
      .key("wallMicros")
      .value(r.wallMicros)
      .key("simplexPivots")
      .value(r.simplexPivots())
      .key("ilpPivots")
      .value(r.stats.totalPivots)
      .key("probePivots")
      .value(r.probePivots)
      .key("devexPivots")
      .value(r.stats.devexPivots)
      .key("lpCalls")
      .value(r.stats.lpCalls)
      .key("rowsRemoved")
      .value(r.stats.presolveRowsRemoved)
      .key("colsFixed")
      .value(r.stats.presolveColsFixed)
      .key("substitutions")
      .value(r.stats.presolveSubstitutions)
      .key("rounds")
      .value(r.stats.presolveRounds)
      .endObject();
}

/// Prints the per-benchmark A/B table and JSON lines; exits nonzero if
/// any benchmark's bounds differ between the two modes.
void printPresolveTable() {
  std::printf("PRESOLVE A/B (SolveControl::presolve on vs off)\n");
  std::printf("%-18s %6s %10s %9s %7s %7s %7s %9s %9s\n", "Function",
              "Sets", "offPivots", "onPivots", "ratio", "rows-", "cols-",
              "offUs", "onUs");

  bool identical = true;
  int totalOff = 0;
  int totalOn = 0;
  for (const auto& bench : suite::allBenchmarks()) {
    const RunStats on = runOnce(bench, /*presolve=*/true);
    const RunStats off = runOnce(bench, /*presolve=*/false);
    const bool same =
        on.bound.lo == off.bound.lo && on.bound.hi == off.bound.hi;
    identical = identical && same;
    totalOff += off.simplexPivots();
    totalOn += on.simplexPivots();
    const double ratio =
        on.simplexPivots() > 0
            ? static_cast<double>(off.simplexPivots()) /
                  static_cast<double>(on.simplexPivots())
            : 0.0;
    std::printf(
        "%-18s %6d %10d %9d %6.2fx %7d %7d %9lld %9lld%s\n",
        bench.name.c_str(), on.stats.constraintSets, off.simplexPivots(),
        on.simplexPivots(), ratio, on.stats.presolveRowsRemoved,
        on.stats.presolveColsFixed + on.stats.presolveSubstitutions,
        static_cast<long long>(off.wallMicros),
        static_cast<long long>(on.wallMicros),
        same ? "" : "  BOUNDS DIFFER");

    obs::JsonWriter w;
    w.beginObject()
        .key("bench")
        .value("presolve")
        .key("name")
        .value(bench.name)
        .key("constraintSets")
        .value(on.stats.constraintSets)
        .key("boundsIdentical")
        .value(same)
        .key("bound");
    w.beginObject()
        .key("lo")
        .value(on.bound.lo)
        .key("hi")
        .value(on.bound.hi)
        .endObject();
    w.key("on");
    sideToJson(&w, on);
    w.key("off");
    sideToJson(&w, off);
    w.key("pivotReduction").value(ratio).endObject();
    std::printf("%s\n", w.str().c_str());
  }
  std::printf("\nsuite total: off %d pivots, on %d pivots (%.2fx)\n\n",
              totalOff, totalOn,
              totalOn > 0 ? static_cast<double>(totalOff) / totalOn : 0.0);
  if (!identical) {
    std::fprintf(stderr, "presolve on/off bounds diverged — solver bug\n");
    std::exit(1);
  }
}

const suite::Benchmark* findBenchmark(const char* name) {
  for (const auto& bench : suite::allBenchmarks()) {
    if (bench.name == name) return &bench;
  }
  return nullptr;
}

void BM_EstimatePresolve(benchmark::State& state, const char* name) {
  const suite::Benchmark* bench = findBenchmark(name);
  for (auto _ : state) {
    const RunStats r = runOnce(*bench, /*presolve=*/true);
    benchmark::DoNotOptimize(r.bound.hi);
  }
  state.counters["pivots"] =
      static_cast<double>(runOnce(*bench, true).simplexPivots());
}

void BM_EstimateRaw(benchmark::State& state, const char* name) {
  const suite::Benchmark* bench = findBenchmark(name);
  for (auto _ : state) {
    const RunStats r = runOnce(*bench, /*presolve=*/false);
    benchmark::DoNotOptimize(r.bound.hi);
  }
  state.counters["pivots"] =
      static_cast<double>(runOnce(*bench, false).simplexPivots());
}

BENCHMARK_CAPTURE(BM_EstimatePresolve, dhry, "dhry");
BENCHMARK_CAPTURE(BM_EstimateRaw, dhry, "dhry");
BENCHMARK_CAPTURE(BM_EstimatePresolve, whetstone, "whetstone");
BENCHMARK_CAPTURE(BM_EstimateRaw, whetstone, "whetstone");

}  // namespace

int main(int argc, char** argv) {
  printPresolveTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
