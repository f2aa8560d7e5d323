// Micro-benchmarks for the LP/ILP substrate: simplex scaling with
// problem size on IPET-shaped (flow conservation) systems, the cost of
// branch-and-bound when the relaxation is / is not integral, and the
// set-LP setup (presolve, then phase 1) on the real worst-case ILPs of
// the Table I programs under the cache conflict graph.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "cinderella/codegen/codegen.hpp"
#include "cinderella/ilp/branch_and_bound.hpp"
#include "cinderella/ipet/analyzer.hpp"
#include "cinderella/lp/feasible_lp.hpp"
#include "cinderella/lp/lp_format.hpp"
#include "cinderella/lp/presolve.hpp"
#include "cinderella/lp/simplex.hpp"
#include "cinderella/suite/suite.hpp"
#include "cinderella/support/text.hpp"

namespace {

using namespace cinderella;

/// Builds a flow-conservation problem shaped like an IPET system: a
/// chain of `n` diamonds (if-then-else), block costs randomized, total
/// flow fixed to 1.
lp::Problem flowChain(int diamonds, std::uint64_t seed) {
  Xorshift64 rng(seed);
  lp::Problem p;
  lp::LinearExpr objective;
  int prevOut = p.addVar("entry");
  {
    lp::LinearExpr entry;
    entry.add(prevOut, 1.0);
    p.addConstraint(std::move(entry), lp::Relation::Equal, 1.0);
  }
  for (int i = 0; i < diamonds; ++i) {
    const int thenArm = p.addVar();
    const int elseArm = p.addVar();
    const int join = p.addVar();
    lp::LinearExpr splitFlow;
    splitFlow.add(prevOut, 1.0);
    splitFlow.add(thenArm, -1.0);
    splitFlow.add(elseArm, -1.0);
    p.addConstraint(std::move(splitFlow), lp::Relation::Equal, 0.0);
    lp::LinearExpr joinFlow;
    joinFlow.add(join, 1.0);
    joinFlow.add(thenArm, -1.0);
    joinFlow.add(elseArm, -1.0);
    p.addConstraint(std::move(joinFlow), lp::Relation::Equal, 0.0);
    objective.add(thenArm, static_cast<double>(rng.range(1, 50)));
    objective.add(elseArm, static_cast<double>(rng.range(1, 50)));
    prevOut = join;
  }
  p.setObjective(objective, lp::Sense::Maximize);
  return p;
}

void BM_SimplexFlowChain(benchmark::State& state) {
  const lp::Problem p = flowChain(static_cast<int>(state.range(0)), 42);
  for (auto _ : state) {
    const lp::Solution s = lp::solve(p);
    benchmark::DoNotOptimize(s.objective);
  }
  state.counters["pivots"] =
      static_cast<double>(lp::solve(p).counters.totalPivots);
}

void BM_IlpFlowChain(benchmark::State& state) {
  const lp::Problem p = flowChain(static_cast<int>(state.range(0)), 42);
  for (auto _ : state) {
    const ilp::IlpSolution s = ilp::solve(p);
    benchmark::DoNotOptimize(s.objective);
  }
  state.counters["lpCalls"] =
      static_cast<double>(ilp::solve(p).stats.lpCalls);
}

void BM_IlpFractionalKnapsack(benchmark::State& state) {
  // A deliberately non-network ILP: branch-and-bound must branch.
  const int n = static_cast<int>(state.range(0));
  Xorshift64 rng(7);
  lp::Problem p;
  lp::LinearExpr weight;
  lp::LinearExpr value;
  for (int i = 0; i < n; ++i) {
    const int v = p.addVar();
    weight.add(v, static_cast<double>(2 * rng.range(3, 15) + 1));
    value.add(v, static_cast<double>(rng.range(5, 40)));
    lp::LinearExpr ub;
    ub.add(v, 1.0);
    p.addConstraint(std::move(ub), lp::Relation::LessEq, 1.0);
  }
  p.addConstraint(std::move(weight), lp::Relation::LessEq,
                  static_cast<double>(7 * n));
  p.setObjective(value, lp::Sense::Maximize);
  for (auto _ : state) {
    const ilp::IlpSolution s = ilp::solve(p);
    benchmark::DoNotOptimize(s.objective);
  }
}

/// One Table I program's worst-case ILPs under ccg, one per constraint
/// set, exported and re-read through the LP format as an off-the-shelf
/// solver would see them.
struct CcgSystems {
  std::string program;
  std::vector<lp::Problem> problems;
};

const std::vector<CcgSystems>& ccgSystems() {
  static const std::vector<CcgSystems> systems = [] {
    std::vector<CcgSystems> out;
    for (const suite::Benchmark& bench : suite::allBenchmarks()) {
      const codegen::CompileResult compiled =
          codegen::compileSource(bench.source);
      ipet::AnalyzerOptions options;
      options.cacheMode = ipet::CacheMode::ConflictGraph;
      ipet::Analyzer analyzer(compiled, bench.rootFunction, options);
      for (const auto& c : bench.constraints) {
        analyzer.addConstraint(c.text, c.scope);
      }
      out.push_back(
          {bench.name, lp::parseLpFormatAll(analyzer.exportWorstCaseIlp())});
    }
    return out;
  }();
  return systems;
}

/// Labels the run with the program and its raw row count.
const CcgSystems& ccgProgram(benchmark::State& state) {
  const CcgSystems& systems =
      ccgSystems().at(static_cast<std::size_t>(state.range(0)));
  std::size_t rows = 0;
  for (const lp::Problem& p : systems.problems) rows += p.constraints().size();
  state.SetLabel(systems.program);
  state.counters["rows"] = static_cast<double>(rows);
  return systems;
}

void BM_PresolveCcg(benchmark::State& state) {
  const CcgSystems& systems = ccgProgram(state);
  for (auto _ : state) {
    for (const lp::Problem& p : systems.problems) {
      const lp::Reduction r = lp::Reduction::reduce(p);
      benchmark::DoNotOptimize(r.counters().presolveRowsRemoved);
    }
  }
  int removed = 0;
  for (const lp::Problem& p : systems.problems) {
    removed += lp::Reduction::reduce(p).counters().presolveRowsRemoved;
  }
  state.counters["rowsRemoved"] = removed;
}

void BM_FeasibleLpCcg(benchmark::State& state) {
  const CcgSystems& systems = ccgProgram(state);
  for (auto _ : state) {
    for (const lp::Problem& p : systems.problems) {
      const lp::FeasibleLp region(p, lp::SimplexOptions{});
      benchmark::DoNotOptimize(region.status());
    }
  }
  int pivots = 0;
  for (const lp::Problem& p : systems.problems) {
    pivots += lp::FeasibleLp(p, lp::SimplexOptions{})
                  .phase1Counters()
                  .totalPivots;
  }
  state.counters["phase1Pivots"] = pivots;
}

BENCHMARK(BM_SimplexFlowChain)->Arg(8)->Arg(32)->Arg(128)->Arg(512);
BENCHMARK(BM_IlpFlowChain)->Arg(8)->Arg(32)->Arg(128);
BENCHMARK(BM_IlpFractionalKnapsack)->Arg(6)->Arg(10)->Arg(14);
// Arg: index into suite::allBenchmarks() (Table I order; 10 = whetstone).
BENCHMARK(BM_PresolveCcg)->DenseRange(0, 12)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_FeasibleLpCcg)->DenseRange(0, 12)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
