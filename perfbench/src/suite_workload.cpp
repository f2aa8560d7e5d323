// The suite-ccg and suite-light workloads: the Table I programs analysed
// one at a time by a single closed-loop caller through
// AnalysisService::analyze with CachePolicy::Bypass — the path every CLI
// and serve request takes (it always exports a seed basis), so a pass
// costs what a user pays, not what Analyzer::estimate alone costs.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>

#include "bench.hpp"

namespace perfbench {

namespace {

using ipet::CacheMode;
using ipet::CachePolicy;

struct SuiteFixture {
  /// The workload's cells in this run's seeded pass order.
  std::vector<Cell> cells;
  std::unique_ptr<ipet::AnalysisService> service;
};

/// One analysis of `cell` through the service; checks the answer and
/// returns the call's wall µs.  `request` is normally cell.request().
std::int64_t analyzeCell(const ipet::AnalysisService& service, Cell& cell,
                         const ipet::AnalysisRequest& request, Tally* tally) {
  const Clock::time_point start = Clock::now();
  std::string problem;
  bool exact = false;
  try {
    const ipet::AnalysisResult result = service.analyze(request);
    const std::int64_t micros = microsSince(start);
    const ipet::Estimate& e = result.estimate;
    problem = checkBound(cell, e.bound, e.sound(), e.timedOut);
    exact = allSetsExact(e);
    tally->record(cell.name(), problem, exact);
    return micros;
  } catch (const std::exception& e) {
    const std::int64_t micros = microsSince(start);
    tally->record(cell.name(), std::string("threw: ") + e.what(), false);
    return micros;
  }
}

std::unique_ptr<SuiteFixture> setUp(const Options& options, const Pins& pins,
                                    double* simMicros, double* simRuns,
                                    Tally* tally) {
  const auto simulated = simulateSuite(simMicros, simRuns);
  auto fixture = std::make_unique<SuiteFixture>();
  const std::vector<CacheMode> modes =
      options.workload == "suite-ccg"
          ? std::vector<CacheMode>{CacheMode::ConflictGraph}
          : std::vector<CacheMode>{CacheMode::AllMiss,
                                   CacheMode::FirstIterationSplit};
  fixture->cells = makeCells(modes, pins, simulated);
  std::mt19937_64 rng(options.seed);
  std::shuffle(fixture->cells.begin(), fixture->cells.end(), rng);

  ipet::AnalysisServiceOptions serviceOptions;
  serviceOptions.benchmarkResolver = suite::benchmarkResolver();
  fixture->service = std::make_unique<ipet::AnalysisService>(serviceOptions);
  // Warm the code paths and allocator with one pass of the cheap cells
  // (a ccg pass would cost seconds).
  std::vector<Cell> warm = makeCells(
      {CacheMode::AllMiss, CacheMode::FirstIterationSplit}, pins, simulated);
  for (Cell& cell : warm) {
    (void)analyzeCell(*fixture->service, cell,
                      cell.request(CachePolicy::Bypass), tally);
  }
  return fixture;
}

void writeFile(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) {
    throw cinderella::AnalysisError("cannot write " + path.string());
  }
}

}  // namespace

RunResult runSuiteWorkload(const Options& options, const Pins& pins) {
  RunResult run;
  double simMicros = 0;
  double simRuns = 0;
  const auto makeFixture = [&] {
    return setUp(options, pins, &simMicros, &simRuns, &run.tally);
  };
  const std::unique_ptr<SuiteFixture> fixture =
      timedSetUp(makeFixture, &run.setups);
  const ipet::AnalysisService& service = *fixture->service;
  std::vector<Cell>& cells = fixture->cells;

  if (!options.trace) {
    // Slices end on pass boundaries, so each holds whole passes.
    bool plantError = options.plantErrorResponse;
    const Clock::time_point start = Clock::now();
    while (secondsSince(start) < options.seconds) {
      Slice slice;
      const Clock::time_point sliceStart = Clock::now();
      while (secondsSince(sliceStart) < kSliceSeconds) {
        for (Cell& cell : cells) {
          ipet::AnalysisRequest request = cell.request(CachePolicy::Bypass);
          if (plantError) request.benchmark = "no-such-program";
          plantError = false;
          slice.latencies.push_back(
              analyzeCell(service, cell, request, &run.tally));
        }
      }
      slice.seconds = secondsSince(sliceStart);
      run.slices.push_back(std::move(slice));
      repeatSetUpOnSchedule(makeFixture, secondsSince(start), options.seconds,
                            &run.setups, &run.tally);
    }
    run.peakRssMb = peakRssMb();
    run.metrics = endToEndMetrics(run, cells);
    return run;
  }

  // Traced run: every analysis runs both untraced and traced, so the
  // tracing overhead compares the same analyses at nearly the same time.
  // The first pass also records the direct Analyzer::estimate node
  // counts and exports each ccg program's worst-case ILPs.  A traced
  // analysis whose layers do not cover its wall time fails.
  const bool exportIlps = options.workload == "suite-ccg";
  const std::filesystem::path exportDir =
      std::filesystem::path(options.outDir) / options.workload;
  if (exportIlps) std::filesystem::create_directories(exportDir);
  LayerSums traced;
  LayerSums untraced;
  std::printf("%-22s %22s %8s %8s %10s\n", "cell", "bound", "nodes",
              "direct", "wall_ms");
  const Clock::time_point start = Clock::now();
  for (int pass = 0; pass == 0 || secondsSince(start) < options.seconds;
       ++pass) {
    for (Cell& cell : cells) {
      // The second run of a pair finds warmer CPU caches; alternate order.
      const bool tracedFirst = pass % 2 == 1;
      for (const bool tracing : {tracedFirst, !tracedFirst}) {
        PipelineOptions pipeline;
        pipeline.traced = tracing;
        pipeline.directNodes = tracing && pass == 0;
        pipeline.plantTraceGap = options.plantTraceGap && tracing &&
                                 pass == 0 && &cell == &cells.front();
        if (pipeline.directNodes && exportIlps) {
          pipeline.inspect = [&](const ipet::Analyzer& analyzer) {
            writeFile(exportDir / (cell.program->name + ".lp"),
                      analyzer.exportWorstCaseIlp());
          };
        }
        try {
          const PipelineRun r =
              runPipeline(service, cell.request(CachePolicy::Bypass),
                          pipeline, tracing ? &traced : &untraced);
          const ipet::Estimate& e = r.result.estimate;
          std::string problem =
              checkBound(cell, e.bound, e.sound(), e.timedOut);
          if (problem.empty()) problem = accountingProblem(r);
          run.tally.record(cell.name(), problem, allSetsExact(e));
          if (pipeline.directNodes) {
            std::printf("%-22s %22s %8d %8lld %10.3f\n", cell.name().c_str(),
                        ("[" + std::to_string(e.bound.lo) + ", " +
                         std::to_string(e.bound.hi) + "]")
                            .c_str(),
                        e.stats.nodesExpanded,
                        static_cast<long long>(r.directNodes),
                        static_cast<double>(r.wallMicros) / 1000.0);
          }
        } catch (const std::exception& e) {
          run.tally.record(cell.name(), std::string("threw: ") + e.what(),
                           false);
        }
      }
    }
  }
  if (exportIlps) {
    std::printf("exported worst-case ILPs to %s\n", exportDir.c_str());
  }
  run.metrics = pipelineLayerMetrics(traced, untraced);
  LayerSums served;
  replayThroughServer(cells, &run.tally, &served);
  for (Metric& m : serveLayerMetrics(served)) {
    run.metrics.push_back(std::move(m));
  }
  run.metrics.push_back(
      {"sim.run_us", simRuns == 0 ? 0.0 : simMicros / simRuns, "us"});
  return run;
}

}  // namespace perfbench
