// The serve-mixed workload: an in-process serve::Server on loopback with
// two pool workers and one closed-loop client connection, fed a seeded
// request stream of three kinds (see Stream::at).  Every response is
// compared with the in-process answer to the same request, and Table I
// answers also with their pinned bounds.
//
// One client, not two: with two, throughput and p95 depended on how many
// vCPUs the shared host left free, and their run-to-run spread (27% and
// 29% over ten runs) exceeded the 25% bound.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <functional>
#include <thread>

#include "bench.hpp"
#include "cinderella/fuzz/generator.hpp"
#include "cinderella/serve/client.hpp"
#include "cinderella/serve/server.hpp"

namespace perfbench {

namespace serve = cinderella::serve;
namespace fuzz = cinderella::fuzz;

namespace {

using ipet::CacheMode;
using ipet::CachePolicy;

constexpr int kPoolWorkers = 2;
/// Stream requests replayed through the in-process pipeline in a
/// traced run (the per-layer numbers of this workload).  Each is checked
/// like a suite analysis, layer accounting included.
constexpr std::size_t kReplayPrefix = 300;

enum class Kind { Repeat, Fresh, Redundant };

struct StreamRequest {
  Kind kind = Kind::Repeat;
  /// Index into the fixture's cells; -1 for fresh programs.
  int cell = -1;
  ipet::AnalysisRequest request;
};

/// Generates requests of the stream seeded by `seed`; one per thread.
class Stream {
 public:
  Stream(std::uint64_t seed, const std::vector<Cell>& cells)
      : seed_(seed), cells_(cells), generator_(generatorOptions()) {}

  /// Request `index`.  Half are hits because the repo's serve benchmark
  /// (bench/bench_serve.cpp, scripts/serve_smoke.sh) replays its corpus
  /// twice, a 0.5 hit share (BENCH_serve.json).  The even split of the
  /// misses between the two miss kinds is an assumption: nothing in the
  /// repo records it.  runStream prints each kind's latency.
  ///  - half repeat a Table I allmiss/firstiter request: cache hits after
  ///    set-up, the read path (frontend, cfg, digest, lookup, encode);
  ///  - a quarter are fresh generated programs: misses that are solved
  ///    and admitted, the write path;
  ///  - a quarter add a fresh redundant `x0 <= K` to a Table I request:
  ///    they miss on the full digest but hit on the structural digest,
  ///    so the solve warm-starts from the cached seed basis.
  [[nodiscard]] StreamRequest at(std::uint64_t index) {
    const std::uint64_t r = fuzz::deriveSeed(seed_, index);
    StreamRequest out;
    if (r % 4 == 2) {
      out.kind = Kind::Fresh;
      const fuzz::GeneratedProgram program =
          generator_.generate(fuzz::deriveSeed(r, 1));
      out.request.label = "fuzz-" + std::to_string(index);
      out.request.source = program.source;
      out.request.root = program.root;
      for (const std::string& c : program.constraints) {
        out.request.constraints.push_back({c, ""});
      }
      return out;
    }
    out.cell = static_cast<int>((r >> 8) % cells_.size());
    out.request = cells_[static_cast<std::size_t>(out.cell)].request(
        CachePolicy::ReadWrite);
    if (r % 4 == 3) {
      // x0 is the root's entry block, which runs once: any K >= 1 leaves
      // the bound unchanged.
      out.kind = Kind::Redundant;
      out.request.constraints.push_back(
          {"x0 <= " + std::to_string(1000000 + index), ""});
    }
    return out;
  }

 private:
  static fuzz::GeneratorOptions generatorOptions() {
    fuzz::GeneratorOptions options;
    options.emitConstraints = true;
    return options;
  }

  std::uint64_t seed_;
  const std::vector<Cell>& cells_;
  fuzz::ProgramGenerator generator_;
};

/// What the benchmark keeps of one response (requests are regenerated
/// from their index, so memory does not grow with request size).
struct Served {
  std::uint64_t index = 0;
  Kind kind = Kind::Repeat;
  int cell = -1;
  bool ok = false;
  std::string error;
  bool degradedAdmission = false;
  ipet::Interval bound;
  bool sound = false;
  bool timedOut = false;
  bool allExact = false;
  std::string digest;
  std::string structuralDigest;
  ServedTiming timing;
};

Served serveOne(serve::Client& client, const ipet::AnalysisRequest& request) {
  Served served;
  std::string error;
  const Clock::time_point start = Clock::now();
  const std::optional<serve::Response> response =
      client.analyze(request, &error);
  served.timing.clientMicros = microsSince(start);
  if (!response) {
    served.error = "transport: " + error;
    return served;
  }
  served.ok = response->ok;
  if (!response->ok) {
    served.error = response->errorCode + ": " + response->error;
  }
  served.degradedAdmission = response->degradedAdmission;
  served.bound = {response->boundLo, response->boundHi};
  served.sound = response->sound;
  served.timedOut = response->timedOut;
  served.digest = response->digest;
  served.structuralDigest = response->structuralDigest;
  served.allExact = response->ok;
  if (const auto* report = response->raw.find("report")) {
    if (const auto* sets = report->find("sets")) {
      for (const auto& set : sets->items) {
        if (set.stringOr("verdict", "") != "exact") served.allExact = false;
      }
    }
  }
  served.timing.serverMicros = response->wallMicros;
  served.timing.solveMicros = response->solveMicros;
  served.timing.bytes = static_cast<std::int64_t>(response->rawText.size());
  served.timing.cacheHit = response->cacheHit;
  served.timing.basisWarmStarted = response->basisWarmStarted;
  return served;
}

std::unique_ptr<serve::Server> startServer() {
  serve::ServerOptions options;
  options.poolThreads = kPoolWorkers;
  options.benchmarkResolver = suite::benchmarkResolver();
  auto server = std::make_unique<serve::Server>(std::move(options));
  std::string error;
  if (!server->start(&error)) {
    throw cinderella::AnalysisError("serve: start failed: " + error);
  }
  return server;
}

void connect(serve::Client& client, const serve::Server& server) {
  std::string error;
  if (!client.connect(server.port(), &error)) {
    throw cinderella::AnalysisError("serve: connect failed: " + error);
  }
}

/// Why a served Table I answer is wrong, or "" (see checkBound).
std::string checkServed(Cell& cell, const Served& served) {
  if (!served.ok) return served.error;
  if (served.degradedAdmission) return "admitted degraded";
  return checkBound(cell, served.bound, served.sound, served.timedOut);
}

struct ServeFixture {
  std::vector<Cell> cells;
  std::unique_ptr<serve::Server> server;
  serve::Client client;
};

std::unique_ptr<ServeFixture> setUp(const Pins& pins, double* simMicros,
                                    double* simRuns, Tally* tally) {
  const auto simulated = simulateSuite(simMicros, simRuns);
  auto fixture = std::make_unique<ServeFixture>();
  fixture->cells = makeCells(
      {CacheMode::AllMiss, CacheMode::FirstIterationSplit}, pins, simulated);
  fixture->server = startServer();
  connect(fixture->client, *fixture->server);
  // Warm the solve cache: every Table I cell once, so the stream's
  // repeats are hits and its redundant variants find a seed basis.
  for (Cell& cell : fixture->cells) {
    const Served served =
        serveOne(fixture->client, cell.request(CachePolicy::ReadWrite));
    tally->record(cell.name(), checkServed(cell, served), served.allExact);
  }
  return fixture;
}

/// The in-process answer a response must match.
struct Expected {
  std::string error;
  ipet::Interval bound;
  std::string digest;
  std::string structuralDigest;
};

/// Compares every response with the in-process answer to the same
/// request: for generated programs an AnalysisService solve, for Table I
/// requests the pinned bound (itself an in-process service solve; the
/// redundant constraint cannot change it) and the digests of the
/// in-process constraint system.  Runs on kVerifyThreads threads, on
/// every CPU: verification is not timed.
void verify(const std::vector<Served>& served, std::vector<Cell>& cells,
            std::uint64_t seed, const ipet::AnalysisService& service,
            Tally* tally) {
  constexpr int kVerifyThreads = 4;
  std::vector<Expected> expected(served.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kVerifyThreads; ++c) {
    threads.emplace_back([&] {
      unpinThread();
      Stream stream(seed, cells);
      for (std::size_t i = next.fetch_add(1); i < served.size();
           i = next.fetch_add(1)) {
        try {
          const StreamRequest request = stream.at(served[i].index);
          if (request.cell >= 0) {
            const ipet::Analyzer::SystemDigests d = digestsOf(request.request);
            expected[i].bound =
                cells[static_cast<std::size_t>(request.cell)].pinned;
            expected[i].digest = d.full.hex();
            expected[i].structuralDigest = d.structural.hex();
            continue;
          }
          const ipet::AnalysisResult r = service.analyze(request.request);
          expected[i].bound = r.estimate.bound;
          expected[i].digest = r.fullDigest.hex();
          expected[i].structuralDigest = r.structuralDigest.hex();
        } catch (const std::exception& e) {
          expected[i].error = e.what();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (std::size_t i = 0; i < served.size(); ++i) {
    const Served& s = served[i];
    const Expected& want = expected[i];
    std::string problem;
    if (!s.ok) {
      problem = s.error;
    } else if (!want.error.empty()) {
      problem = "in-process solve threw: " + want.error;
    } else if (s.bound != want.bound || s.digest != want.digest ||
               s.structuralDigest != want.structuralDigest) {
      problem = "response differs from the in-process solve";
    } else if (s.cell >= 0) {
      problem = checkServed(cells[static_cast<std::size_t>(s.cell)], s);
    } else if (!s.sound || s.timedOut || s.degradedAdmission) {
      problem = "degraded answer";
    }
    tally->record("request " + std::to_string(s.index), problem, s.allExact);
  }
}

/// Runs the stream against the fixture's server for `seconds`, in slices.
/// Each slice's responses are verified right after it, outside the timed
/// slice, so memory does not grow with the run; then `betweenSlices` is
/// called with the seconds elapsed.  Prints each request
/// kind's latency, so that a change to one kind shows whatever the mix.
/// Returns the number of responses; adds them to `served`.
std::uint64_t runStream(ServeFixture& fixture, const Options& options,
                        const std::function<void(double)>& betweenSlices,
                        std::vector<Slice>* slices, Tally* tally,
                        LayerSums* served) {
  ipet::AnalysisServiceOptions verifierOptions;
  verifierOptions.benchmarkResolver = suite::benchmarkResolver();
  const ipet::AnalysisService verifier(verifierOptions);
  Stream stream(options.seed, fixture.cells);
  std::uint64_t next = 0;
  std::array<std::vector<double>, 3> kindMillis;
  const Clock::time_point start = Clock::now();
  while (secondsSince(start) < options.seconds) {
    std::vector<Served> sliceServed;
    const Clock::time_point sliceStart = Clock::now();
    while (secondsSince(sliceStart) < kSliceSeconds) {
      const std::uint64_t index = next++;
      StreamRequest request = stream.at(index);
      if (index == 0 && options.plantErrorResponse) {
        request.request.benchmark = "no-such-program";
      }
      Served response = serveOne(fixture.client, request.request);
      response.index = index;
      response.kind = request.kind;
      response.cell = request.cell;
      sliceServed.push_back(std::move(response));
    }
    Slice slice;
    slice.seconds = secondsSince(sliceStart);
    for (const Served& s : sliceServed) {
      slice.latencies.push_back(s.timing.clientMicros);
      addServed(s.timing, served);
      kindMillis[static_cast<std::size_t>(s.kind)].push_back(
          static_cast<double>(s.timing.clientMicros) / 1000.0);
    }
    slices->push_back(std::move(slice));
    verify(sliceServed, fixture.cells, options.seed, verifier, tally);
    betweenSlices(secondsSince(start));
  }
  std::printf("stream: %llu responses, cache hit share %.4f\n",
              static_cast<unsigned long long>(next), served->mean("hits"));
  const char* const kindNames[] = {"repeat", "fresh", "redundant"};
  for (std::size_t k = 0; k < kindMillis.size(); ++k) {
    std::printf("  kind %-9s responses=%zu latency_ms.p50=%.4f "
                "latency_ms.p95=%.4f\n",
                kindNames[k], kindMillis[k].size(),
                percentile(kindMillis[k], 0.50),
                percentile(kindMillis[k], 0.95));
  }
  return next;
}

/// Replays the stream's first `count` requests through the in-process
/// pipeline, each request untraced and then traced, against two services
/// warmed like the server; the per-layer numbers of this workload.
void replayPipeline(std::uint64_t count, std::vector<Cell>& cells,
                    std::uint64_t seed, bool plantTraceGap, LayerSums* traced,
                    LayerSums* untraced, Tally* tally) {
  ipet::AnalysisServiceOptions serviceOptions;
  serviceOptions.benchmarkResolver = suite::benchmarkResolver();
  const ipet::AnalysisService untracedService(serviceOptions);
  const ipet::AnalysisService tracedService(serviceOptions);
  for (const Cell& cell : cells) {
    (void)untracedService.analyze(cell.request(CachePolicy::ReadWrite));
    (void)tracedService.analyze(cell.request(CachePolicy::ReadWrite));
  }
  Stream stream(seed, cells);
  for (std::uint64_t index = 0; index < count; ++index) {
    const StreamRequest request = stream.at(index);
    // The second run of a pair finds warmer CPU caches; alternate order.
    const bool tracedFirst = index % 2 == 1;
    for (const bool tracing : {tracedFirst, !tracedFirst}) {
      PipelineOptions pipeline;
      pipeline.traced = tracing;
      pipeline.directNodes = tracing;
      pipeline.plantTraceGap = plantTraceGap && tracing && index == 0;
      const ipet::AnalysisService& service =
          tracing ? tracedService : untracedService;
      const std::string what = "replay " + std::to_string(index);
      try {
        const PipelineRun r = runPipeline(service, request.request, pipeline,
                                          tracing ? traced : untraced);
        const ipet::Estimate& e = r.result.estimate;
        std::string problem;
        if (request.cell >= 0) {
          problem = checkBound(cells[static_cast<std::size_t>(request.cell)],
                               e.bound, e.sound(), e.timedOut);
        } else if (!e.sound() || e.timedOut) {
          problem = "degraded answer";
        }
        if (problem.empty()) problem = accountingProblem(r);
        tally->record(what, problem, r.result.cacheHit || allSetsExact(e));
      } catch (const std::exception& e) {
        tally->record(what, std::string("threw: ") + e.what(), false);
      }
    }
  }
}

}  // namespace

void replayThroughServer(std::vector<Cell>& cells, Tally* tally,
                         LayerSums* served) {
  const std::unique_ptr<serve::Server> server = startServer();
  serve::Client client;
  connect(client, *server);
  for (Cell& cell : cells) {
    const Served response =
        serveOne(client, cell.request(CachePolicy::Bypass));
    tally->record(cell.name(), checkServed(cell, response),
                  response.allExact);
    addServed(response.timing, served);
  }
}

RunResult runServeWorkload(const Options& options, const Pins& pins) {
  RunResult run;
  double simMicros = 0;
  double simRuns = 0;
  const auto makeFixture = [&] {
    return setUp(pins, &simMicros, &simRuns, &run.tally);
  };
  const std::unique_ptr<ServeFixture> fixture =
      timedSetUp(makeFixture, &run.setups);
  const auto betweenSlices = [&](double elapsed) {
    if (options.trace) return;
    repeatSetUpOnSchedule(makeFixture, elapsed, options.seconds, &run.setups,
                          &run.tally);
  };

  LayerSums served;
  const std::uint64_t responses =
      runStream(*fixture, options, betweenSlices, &run.slices, &run.tally,
                &served);
  run.peakRssMb = peakRssMb();
  fixture->client.close();
  fixture->server->stop();
  if (!options.trace) {
    run.metrics = endToEndMetrics(run, fixture->cells);
    return run;
  }
  LayerSums traced;
  LayerSums untraced;
  replayPipeline(std::min<std::uint64_t>(responses, kReplayPrefix),
                 fixture->cells, options.seed, options.plantTraceGap, &traced,
                 &untraced, &run.tally);
  run.metrics = pipelineLayerMetrics(traced, untraced);
  for (Metric& m : serveLayerMetrics(served)) {
    run.metrics.push_back(std::move(m));
  }
  run.metrics.push_back(
      {"sim.run_us", simRuns == 0 ? 0.0 : simMicros / simRuns, "us"});
  return run;
}

}  // namespace perfbench
