#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "cinderella/codegen/codegen.hpp"
#include "cinderella/lang/lexer.hpp"
#include "cinderella/lang/parser.hpp"
#include "cinderella/lang/sema.hpp"
#include "cinderella/obs/request_telemetry.hpp"
#include "cinderella/obs/trace.hpp"
#include "cinderella/sim/simulator.hpp"

namespace perfbench {

namespace obs = cinderella::obs;

const char* modeName(ipet::CacheMode mode) {
  switch (mode) {
    case ipet::CacheMode::AllMiss:
      return "allmiss";
    case ipet::CacheMode::FirstIterationSplit:
      return "firstiter";
    case ipet::CacheMode::ConflictGraph:
      return "ccg";
  }
  return "?";
}

std::string Cell::name() const {
  return program->name + "/" + modeName(mode);
}

ipet::AnalysisRequest Cell::request(ipet::CachePolicy policy) const {
  ipet::AnalysisRequest request;
  request.benchmark = program->name;
  request.cacheMode = mode;
  request.cachePolicy = policy;
  return request;
}

void Tally::record(const std::string& what, const std::string& problem,
                   bool allExact) {
  ++attempted_;
  if (allExact) ++exact_;
  if (problem.empty()) return;
  // The first few failures are enough to diagnose; the rest only count.
  if (failed_ < 10) {
    std::fprintf(stderr, "perfbench: FAILED %s: %s\n", what.c_str(),
                 problem.c_str());
  }
  ++failed_;
}

double Tally::exactShare() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(exact_) /
                               static_cast<double>(attempted_);
}

std::string checkBound(Cell& cell, const ipet::Interval& bound,
                       bool sound, bool timedOut) {
  cell.observed = bound;
  const auto show = [](const ipet::Interval& i) {
    return "[" + std::to_string(i.lo) + ", " + std::to_string(i.hi) + "]";
  };
  if (!sound) return "estimate is unsound";
  if (timedOut) return "estimate timed out";
  if (bound != cell.pinned) {
    return "bound " + show(bound) + " differs from pinned " + show(cell.pinned);
  }
  if (!bound.encloses(cell.simulated)) {
    return "bound " + show(bound) + " does not enclose simulated " +
           show(cell.simulated);
  }
  return {};
}

bool allSetsExact(const ipet::Estimate& estimate) {
  return std::all_of(estimate.setRecords.begin(), estimate.setRecords.end(),
                     [](const ipet::SetSolveRecord& r) {
                       return r.verdict == ipet::SetVerdict::Exact;
                     });
}

namespace {

double geomean(const std::vector<Cell>& cells,
               double (*ratio)(const Cell&)) {
  double logSum = 0.0;
  double count = 0.0;
  for (const Cell& cell : cells) {
    if (cell.observed.hi == 0) continue;
    logSum += std::log(ratio(cell));
    count += 1;
  }
  return count == 0 ? 0.0 : std::exp(logSum / count);
}

}  // namespace

double wcetRatio(const std::vector<Cell>& cells) {
  return geomean(cells, [](const Cell& c) {
    return static_cast<double>(c.observed.hi) /
           static_cast<double>(c.simulated.hi);
  });
}

double bcetRatio(const std::vector<Cell>& cells) {
  return geomean(cells, [](const Cell& c) {
    return static_cast<double>(c.simulated.lo) /
           static_cast<double>(c.observed.lo);
  });
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(samples.size())));
  return samples[std::max<std::size_t>(rank, 1) - 1];
}

namespace {

cpu_set_t unpinnedCpus;
bool pinned = false;

}  // namespace

int pinToOneCpu() {
  if (sched_getaffinity(0, sizeof(cpu_set_t), &unpinnedCpus) != 0) return -1;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &unpinnedCpus)) last = cpu;
  }
  if (last < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  if (sched_setaffinity(0, sizeof(cpu_set_t), &one) != 0) return -1;
  pinned = true;
  return last;
}

void unpinThread() {
  if (pinned) (void)sched_setaffinity(0, sizeof(cpu_set_t), &unpinnedCpus);
}

std::optional<double> timeInChild(const std::function<bool()>& work) {
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    close(fds[0]);
    const Clock::time_point start = Clock::now();
    bool ok = false;
    try {
      ok = work();
    } catch (const std::exception&) {
    }
    const double seconds = ok ? secondsSince(start) : -1.0;
    const ssize_t written = write(fds[1], &seconds, sizeof seconds);
    _exit(written == sizeof seconds ? 0 : 1);
  }
  close(fds[1]);
  double seconds = -1.0;
  ssize_t got = 0;
  do {
    got = read(fds[0], &seconds, sizeof seconds);
  } while (got < 0 && errno == EINTR);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != sizeof seconds || seconds < 0) return std::nullopt;
  return seconds;
}

double peakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double LayerSums::mean(const std::string& name) const {
  const auto it = sums_.find(name);
  if (it == sums_.end() || analyses_ == 0) return 0.0;
  return it->second / static_cast<double>(analyses_);
}

void LayerSums::addLow(const std::string& name, double value) {
  const auto [it, inserted] = lows_.try_emplace(name, value);
  if (!inserted) it->second = std::min(it->second, value);
}

double LayerSums::lowest(const std::string& name) const {
  const auto it = lows_.find(name);
  return it == lows_.end() ? 0.0 : it->second;
}

void addCounters(const ipet::Estimate& estimate, LayerSums* sums) {
  const ipet::SolveStats& s = estimate.stats;
  // Every simplex step: ILP pivots (dual repair included), the shared
  // seed solve, basis-install eliminations, probes and fallback solves.
  double pivotsAll = s.totalPivots + s.seedPivots + s.installPivots;
  double ilpSolves = 0;
  double rootIntegral = 0;
  for (const ipet::SetSolveRecord& r : estimate.setRecords) {
    pivotsAll += r.probePivots + r.fallbackPivots;
    for (const ipet::IlpSolveRecord* side : {&r.worst, &r.best}) {
      if (!side->solved) continue;
      ilpSolves += 1;
      if (side->firstRelaxationIntegral) rootIntegral += 1;
    }
  }
  sums->add("ilp.nodes", s.nodesExpanded);
  sums->add("ilp.solves", ilpSolves);
  sums->add("ilp.root_integral", rootIntegral);
  sums->add("lp.calls", s.lpCalls);
  sums->add("lp.pivots_all", pivotsAll);
  sums->add("lp.install_eliminations", s.installPivots);
  sums->add("lp.dual_pivots", s.dualPivots);
  sums->add("lp.warm_failures", s.warmFailures);
  sums->add("lp.warm", s.warmStarts);
  sums->add("lp.cold", s.coldStarts);
  sums->add("lp.presolve_rows_removed", s.presolveRowsRemoved);
  sums->add("lp.presolve_cols_fixed", s.presolveColsFixed);
  sums->add("ipet.sets", s.constraintSets);
  sums->add("ipet.sets_pruned", s.prunedNullSets);
  sums->add("ipet.sets_deduped", s.dedupedSets);
  sums->add("ipet.cache_flow_vars", s.cacheFlowVars);
}

namespace {

/// Layer metric each span's self time is charged to.  The first group
/// are the benchmark's own spans, the rest are the analyzer's.
std::string layerOf(const std::string& span) {
  static const std::map<std::string, std::string> kLayers = {
      {"analysis", "trace.root_self_us"},
      {"lang.parse", "lang.parse_us"},
      {"lang.sema", "lang.sema_us"},
      {"codegen.compile", "codegen.compile_us"},
      {"ipet.build", "ipet.build_us"},
      {"ipet.service", "ipet.service_us"},
      {"estimate", "ipet.estimate_us"},
      {"build-base-problem", "ipet.base_problem_us"},
      {"combine-constraints", "ipet.combine_us"},
      {"dedup-sets", "ipet.dedup_us"},
      {"structural-seed", "lp.seed_us"},
      {"structural-fallback", "lp.seed_us"},
      {"solve-sets", "ipet.estimate_us"},
      {"set-solve", "ipet.set_us"},
      {"lp-probe", "lp.probe_us"},
      {"ilp-worst", "ilp.worst_us"},
      {"ilp-best", "ilp.best_us"},
      {"merge", "ipet.merge_us"},
  };
  const auto it = kLayers.find(span);
  return it == kLayers.end() ? "ipet.other_us" : it->second;
}

/// The layers whose self time counts as accounted (kMinAccountedShare).
/// The wrappers' self time (root, ipet.service less its telemetry
/// stages, estimate, set dispatch) and unnamed spans do not count.
constexpr const char* kLeafLayers[] = {
    "lang.parse_us",        "lang.sema_us",          "codegen.compile_us",
    "ipet.build_us",        "ipet.digest_us",        "solve_cache.lookup_us",
    "solve_cache.store_us", "ipet.base_problem_us",  "ipet.combine_us",
    "ipet.dedup_us",        "lp.seed_us",            "ipet.set_us",
    "lp.probe_us",          "ilp.worst_us",          "ilp.best_us",
    "ipet.merge_us",
};

/// Charges every span's self time (its duration minus its direct
/// children's) to its layer in `self`, and the service's digest, cache
/// lookup and cache store stages from `telemetry` (which run inside the
/// ipet.service span but outside the analyzer's) to their own layers.
/// Returns the accounted share of the root span's duration, crediting
/// each span with the tracer's 1 µs timestamp resolution (a span's
/// whole-µs start and duration can each be up to 1 µs off, which matters
/// only for analyses of some tens of µs).
double chargeSelfTimes(const std::vector<obs::TraceEvent>& events,
                       const obs::RequestTelemetry& telemetry,
                       std::map<std::string, double>* self) {
  std::vector<const obs::TraceEvent*> order;
  order.reserve(events.size());
  for (const obs::TraceEvent& e : events) order.push_back(&e);
  std::stable_sort(order.begin(), order.end(),
                   [](const obs::TraceEvent* a, const obs::TraceEvent* b) {
                     if (a->startMicros != b->startMicros) {
                       return a->startMicros < b->startMicros;
                     }
                     return a->durMicros > b->durMicros;
                   });
  std::vector<std::int64_t> selfMicros(order.size());
  std::vector<std::size_t> open;
  std::int64_t wall = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const obs::TraceEvent& e = *order[i];
    selfMicros[i] = e.durMicros;
    wall = std::max(wall, e.durMicros);
    while (!open.empty()) {
      const obs::TraceEvent& top = *order[open.back()];
      if (e.startMicros < top.startMicros + top.durMicros) break;
      open.pop_back();
    }
    if (!open.empty()) selfMicros[open.back()] -= e.durMicros;
    open.push_back(i);
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    (*self)[layerOf(order[i]->name)] +=
        static_cast<double>(std::max<std::int64_t>(selfMicros[i], 0));
  }
  double& service = (*self)["ipet.service_us"];
  for (const auto& [stage, layer] :
       {std::pair{obs::RequestStage::Digest, "ipet.digest_us"},
        std::pair{obs::RequestStage::CacheLookup, "solve_cache.lookup_us"},
        std::pair{obs::RequestStage::CacheStore, "solve_cache.store_us"}}) {
    const double micros =
        std::min(service, static_cast<double>(telemetry.stageMicros(stage)));
    (*self)[layer] += micros;
    service -= micros;
  }
  double accounted = 0;
  for (const char* layer : kLeafLayers) accounted += (*self)[layer];
  if (wall == 0) return 1.0;
  const double resolution = static_cast<double>(order.size());
  return std::min(1.0, (accounted + resolution) / static_cast<double>(wall));
}

/// A MiniC request's program, resolved as AnalysisService::analyze does.
ipet::ResolvedProgram resolveInput(const ipet::AnalysisRequest& request) {
  ipet::ResolvedProgram input{request.source, request.root, {}};
  if (!request.benchmark.empty()) {
    std::optional<ipet::ResolvedProgram> resolved =
        suite::benchmarkResolver()(request.benchmark);
    if (!resolved) {
      throw cinderella::AnalysisError("unknown benchmark '" +
                                      request.benchmark + "'");
    }
    input.source = std::move(resolved->source);
    if (input.root.empty()) input.root = std::move(resolved->root);
    input.constraints = std::move(resolved->constraints);
  }
  if (input.root.empty()) input.root = "main";
  input.constraints.insert(input.constraints.end(),
                           request.constraints.begin(),
                           request.constraints.end());
  return input;
}

ipet::Analyzer makeAnalyzer(const cinderella::codegen::CompileResult& compiled,
                            const ipet::ResolvedProgram& input,
                            ipet::CacheMode mode) {
  ipet::AnalyzerOptions analyzerOptions;
  analyzerOptions.cacheMode = mode;
  ipet::Analyzer analyzer(compiled, input.root, analyzerOptions);
  for (const ipet::RequestConstraint& c : input.constraints) {
    analyzer.addConstraint(c.text, c.scope);
  }
  return analyzer;
}

}  // namespace

ipet::Analyzer::SystemDigests digestsOf(const ipet::AnalysisRequest& request) {
  const ipet::ResolvedProgram input = resolveInput(request);
  const cinderella::codegen::CompileResult compiled =
      cinderella::codegen::compileSource(input.source);
  return makeAnalyzer(compiled, input, request.cacheMode).systemDigests();
}

namespace {

/// One analysis through the pipeline, built in place: the analyzer
/// refers to the compiled module.
struct Attempt {
  PipelineRun run;
  std::optional<cinderella::codegen::CompileResult> compiled;
  std::optional<ipet::Analyzer> analyzer;
  /// Self µs per layer (traced attempts only).
  std::map<std::string, double> layers;
};

/// The self-test's planted gap: ten times a suite-light analysis.
constexpr auto kPlantedGap = std::chrono::milliseconds(20);

void runOnce(const ipet::AnalysisService& service,
             const ipet::ResolvedProgram& input,
             const ipet::AnalysisRequest& request, bool traced,
             bool plantGap, Attempt* out) {
  obs::Tracer tracer;
  obs::Tracer* const t = traced ? &tracer : nullptr;
  obs::RequestTelemetry telemetry;
  ipet::AnalysisRequest solveRequest = request;
  solveRequest.control.tracer = t;
  const Clock::time_point start = Clock::now();
  {
    obs::Span rootSpan(t, "analysis", "bench");
    cinderella::lang::Program program = [&] {
      obs::Span span(t, "lang.parse", "bench");
      return cinderella::lang::parse(input.source);
    }();
    {
      obs::Span span(t, "lang.sema", "bench");
      cinderella::lang::analyze(program);
    }
    {
      obs::Span span(t, "codegen.compile", "bench");
      out->compiled.emplace(cinderella::codegen::compile(program));
      // codegen::compileSource frees the AST as part of the frontend too.
      program = cinderella::lang::Program{};
    }
    {
      obs::Span span(t, "ipet.build", "bench");
      out->analyzer.emplace(
          makeAnalyzer(*out->compiled, input, request.cacheMode));
    }
    if (plantGap) std::this_thread::sleep_for(kPlantedGap);
    obs::Span span(t, "ipet.service", "bench");
    out->run.result =
        service.analyzeWith(*out->analyzer, solveRequest, &telemetry);
  }
  out->run.wallMicros = microsSince(start);
  if (traced) {
    out->run.accountedShare =
        chargeSelfTimes(tracer.events(), telemetry, &out->layers);
  }
}

}  // namespace

PipelineRun runPipeline(const ipet::AnalysisService& service,
                        const ipet::AnalysisRequest& request,
                        const PipelineOptions& options, LayerSums* layers) {
  const ipet::ResolvedProgram input = resolveInput(request);
  Attempt first;
  runOnce(service, input, request, options.traced, options.plantTraceGap,
          &first);
  PipelineRun run = first.run;
  // Measure a shortfall again on the same path: a hit stays a hit; a
  // miss was just admitted, so it solves again with the cache bypassed.
  ipet::AnalysisRequest again = request;
  if (!run.result.cacheHit) again.cachePolicy = ipet::CachePolicy::Bypass;
  for (int retry = 0; retry < kAccountingRetries &&
                      run.accountedShare < kMinAccountedShare;
       ++retry) {
    Attempt attempt;
    runOnce(service, input, again, true, options.plantTraceGap, &attempt);
    run.accountedShare =
        std::max(run.accountedShare, attempt.run.accountedShare);
  }

  layers->countAnalysis();
  layers->add("analysis_us", static_cast<double>(run.wallMicros));
  for (const auto& [name, micros] : first.layers) layers->add(name, micros);
  if (options.traced) layers->addLow("accounted_share", run.accountedShare);
  addCounters(run.result.estimate, layers);
  layers->add("lang.tokens",
              static_cast<double>(cinderella::lang::lex(input.source).size()));
  double instrs = 0;
  for (const auto& fn : first.compiled->module.functions()) {
    instrs += static_cast<double>(fn.code.size());
  }
  layers->add("codegen.instrs", instrs);
  if (options.directNodes) {
    run.directNodes = first.analyzer->estimate().stats.nodesExpanded;
    layers->add("ilp.nodes_direct", static_cast<double>(run.directNodes));
    layers->add("direct_analyses", 1);
  }
  if (options.inspect) options.inspect(*first.analyzer);
  return run;
}

std::string accountingProblem(const PipelineRun& run) {
  if (run.accountedShare >= kMinAccountedShare) return {};
  return "layer spans cover " + std::to_string(run.accountedShare * 100.0) +
         "% of the analysis, under " +
         std::to_string(kMinAccountedShare * 100.0) + "%";
}

void addServed(const ServedTiming& served, LayerSums* sums) {
  sums->countAnalysis();
  sums->add("client_us", static_cast<double>(served.clientMicros));
  sums->add("server_us", static_cast<double>(served.serverMicros));
  sums->add("bytes", static_cast<double>(served.bytes));
  if (served.cacheHit) {
    sums->add("hits", 1);
    return;
  }
  sums->add("misses", 1);
  sums->add("miss_solve_us", static_cast<double>(served.solveMicros));
  if (served.basisWarmStarted) sums->add("basis_warm", 1);
}

std::vector<Metric> serveLayerMetrics(const LayerSums& served) {
  const auto perMiss = [&](const char* name) {
    const double misses = served.mean("misses");
    return misses == 0 ? 0.0 : served.mean(name) / misses;
  };
  return {
      {"solve_cache.hit_share", served.mean("hits"), "share"},
      {"solve_cache.basis_warm_share", perMiss("basis_warm"), "share"},
      {"serve.request_us", served.mean("client_us"), "us"},
      {"serve.server_us", served.mean("server_us"), "us"},
      {"serve.overhead_us",
       served.mean("client_us") - served.mean("server_us"), "us"},
      {"serve.solve_us", perMiss("miss_solve_us"), "us"},
      {"serve.bytes_per_request", served.mean("bytes"), "B"},
  };
}

std::vector<Metric> pipelineLayerMetrics(const LayerSums& traced,
                                         const LayerSums& untraced) {
  const auto share = [&](const char* part, const char* whole) {
    const double w = traced.mean(whole);
    return w == 0 ? 0.0 : traced.mean(part) / w;
  };
  const double warm = traced.mean("lp.warm");
  const double warmCold = warm + traced.mean("lp.cold");
  std::vector<Metric> out;
  for (const char* name :
       {"lang.parse_us", "lang.sema_us", "codegen.compile_us", "ipet.build_us",
        "ipet.digest_us", "solve_cache.lookup_us", "solve_cache.store_us",
        "ipet.service_us", "ipet.estimate_us", "ipet.base_problem_us",
        "ipet.combine_us", "ipet.dedup_us", "lp.seed_us", "ipet.set_us",
        "lp.probe_us", "ilp.worst_us", "ilp.best_us", "ipet.merge_us",
        "ipet.other_us"}) {
    out.push_back({name, traced.mean(name), "us"});
  }
  for (const char* name :
       {"lang.tokens", "codegen.instrs", "ilp.nodes", "lp.calls",
        "lp.pivots_all", "lp.install_eliminations", "lp.dual_pivots",
        "lp.warm_failures", "lp.presolve_rows_removed",
        "lp.presolve_cols_fixed", "ipet.sets", "ipet.sets_pruned",
        "ipet.sets_deduped", "ipet.cache_flow_vars"}) {
    out.push_back({name, traced.mean(name), "count"});
  }
  out.push_back({"ilp.nodes_direct",
                 share("ilp.nodes_direct", "direct_analyses"), "count"});
  out.push_back({"ilp.root_integral_share",
                 share("ilp.root_integral", "ilp.solves"), "share"});
  out.push_back({"lp.warm_share", warmCold == 0 ? 0.0 : warm / warmCold,
                 "share"});
  out.push_back({"trace.analysis_us", traced.mean("analysis_us"), "us"});
  double unaccounted = traced.mean("analysis_us");
  for (const char* layer : kLeafLayers) unaccounted -= traced.mean(layer);
  out.push_back({"trace.unaccounted_us", unaccounted, "us"});
  out.push_back({"trace.accounted_share", traced.lowest("accounted_share"),
                 "share"});
  const double plain = untraced.mean("analysis_us");
  const double overhead =
      plain == 0 ? 0.0 : 100.0 * (traced.mean("analysis_us") / plain - 1.0);
  out.push_back({"trace.overhead_pct", overhead, "pct"});
  return out;
}

std::map<std::string, ipet::Interval> simulateSuite(double* simMicros,
                                                    double* simRuns) {
  namespace sim = cinderella::sim;
  std::map<std::string, ipet::Interval> simulated;
  for (const suite::Benchmark& bench : suite::allBenchmarks()) {
    const cinderella::codegen::CompileResult compiled =
        cinderella::codegen::compileSource(bench.source);
    const std::optional<int> root =
        compiled.module.findFunction(bench.rootFunction);
    if (!root) {
      throw cinderella::AnalysisError("benchmark root '" + bench.rootFunction +
                                      "' not found");
    }
    sim::Simulator simulator(compiled.module);
    const auto timedRun = [&](const std::vector<sim::GlobalPatch>& data,
                              bool coldCache) {
      sim::SimOptions options;
      options.coldCache = coldCache;
      options.patches = data;
      const Clock::time_point start = Clock::now();
      sim::SimResult result = simulator.run(*root, {}, options);
      *simMicros += static_cast<double>(microsSince(start));
      *simRuns += 1;
      return result.cycles;
    };
    ipet::Interval interval;
    interval.hi = timedRun(bench.worstData, /*coldCache=*/true);
    (void)timedRun(bench.bestData, /*coldCache=*/true);  // prime the cache
    interval.lo = timedRun(bench.bestData, /*coldCache=*/false);
    simulated[bench.name] = interval;
  }
  return simulated;
}

std::vector<Cell> makeCells(
    const std::vector<ipet::CacheMode>& modes, const Pins& pins,
    const std::map<std::string, ipet::Interval>& simulated) {
  std::vector<Cell> cells;
  for (const ipet::CacheMode mode : modes) {
    for (const suite::Benchmark& bench : suite::allBenchmarks()) {
      Cell cell;
      cell.program = &bench;
      cell.mode = mode;
      const auto pin = pins.find(cell.name());
      if (pin == pins.end()) {
        throw cinderella::AnalysisError("no pinned bound for " + cell.name());
      }
      cell.pinned = pin->second;
      cell.simulated = simulated.at(bench.name);
      cells.push_back(cell);
    }
  }
  return cells;
}

namespace {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

}  // namespace

std::vector<Metric> endToEndMetrics(const RunResult& run,
                                    const std::vector<Cell>& cells) {
  // Throughput is a median over slices; the percentiles pool every
  // latency of the run, because a slice holds too few of the slow
  // requests for its own p95 to be steady.
  std::vector<double> throughput, latencies;
  for (const Slice& slice : run.slices) {
    if (slice.latencies.empty()) continue;
    throughput.push_back(static_cast<double>(slice.latencies.size()) /
                         slice.seconds);
    for (const std::int64_t micros : slice.latencies) {
      latencies.push_back(static_cast<double>(micros) / 1000.0);
    }
  }
  const double attempted = static_cast<double>(run.tally.attempted());
  return {
      {"setup_s", median(run.setups), "s"},
      {"throughput_per_s", median(throughput), "1/s"},
      {"latency_ms.p50", percentile(latencies, 0.50), "ms"},
      {"latency_ms.p95", percentile(latencies, 0.95), "ms"},
      {"peak_rss_mb", run.peakRssMb, "MB"},
      {"ok_share",
       attempted == 0
           ? 0.0
           : 1.0 - static_cast<double>(run.tally.failed()) / attempted,
       "share"},
      {"exact_share", run.tally.exactShare(), "share"},
      {"wcet_ratio", wcetRatio(cells), "ratio"},
      {"bcet_ratio", bcetRatio(cells), "ratio"},
  };
}

}  // namespace perfbench
