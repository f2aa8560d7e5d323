// Micro-benchmarks for the LP/ILP substrate: simplex scaling with
// problem size on IPET-shaped (flow conservation) systems, and the cost
// of branch-and-bound when the relaxation is / is not integral.
#include <benchmark/benchmark.h>

#include "cinderella/ilp/branch_and_bound.hpp"
#include "cinderella/lp/simplex.hpp"
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

BENCHMARK(BM_SimplexFlowChain)->Arg(8)->Arg(32)->Arg(128)->Arg(512);
BENCHMARK(BM_IlpFlowChain)->Arg(8)->Arg(32)->Arg(128);
BENCHMARK(BM_IlpFractionalKnapsack)->Arg(6)->Arg(10)->Arg(14);

}  // namespace

BENCHMARK_MAIN();
