// Shared pieces of the end-to-end benchmark binary: the Table I cells it
// checks answers against, the correctness tally, metric output, and the
// traced in-process pipeline that yields the per-layer numbers.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cinderella/ipet/analysis.hpp"
#include "cinderella/suite/suite.hpp"

namespace perfbench {

namespace ipet = cinderella::ipet;
namespace suite = cinderella::suite;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t microsSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               start)
      .count();
}

[[nodiscard]] inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Where side products (exported ILPs) go.
  std::string outDir;
  std::string pinnedPath;
  /// Self-test plants: one pinned bound off by one cycle, and one
  /// request in the timed window replaced by an unanswerable one.
  bool plantWrongPin = false;
  bool plantErrorResponse = false;
  /// Self-test plant: one traced analysis pauses outside every layer.
  bool plantTraceGap = false;
};

/// One Table I program under one cache mode, with the answers every
/// analysis of it must reproduce.
struct Cell {
  const suite::Benchmark* program = nullptr;
  ipet::CacheMode mode = ipet::CacheMode::AllMiss;
  /// The bound pinned in pinned.json.
  ipet::Interval pinned;
  /// Simulator cycles: hi = worst-case data on a cold cache, lo =
  /// best-case data on a warm cache (the harness's Experiment 2).
  ipet::Interval simulated;
  /// The last bound an analysis of this cell returned (hi == 0: none).
  ipet::Interval observed;

  [[nodiscard]] std::string name() const;
  /// The request a user sends for this cell: the benchmark by name.
  [[nodiscard]] ipet::AnalysisRequest request(ipet::CachePolicy policy) const;
};

/// Short CLI spelling of a cache mode ("allmiss", "firstiter", "ccg").
[[nodiscard]] const char* modeName(ipet::CacheMode mode);

/// Correctness bookkeeping for one run.
class Tally {
 public:
  /// Records one attempt; `problem` empty means it passed every check.
  void record(const std::string& what, const std::string& problem,
              bool allExact);

  [[nodiscard]] std::int64_t attempted() const { return attempted_; }
  [[nodiscard]] std::int64_t failed() const { return failed_; }
  [[nodiscard]] double exactShare() const;

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::int64_t exact_ = 0;
};

/// Pins the calling thread, and every thread it starts afterwards, to
/// the last CPU it may run on; returns that CPU, or -1 when pinning
/// failed.  On a shared multi-vCPU host, each handoff between the serve
/// client, connection and pool threads otherwise waits on a wake-up of
/// another vCPU, which varies with the other tenants' load: the
/// serve-mixed p95 spread over five runs was 0.42 unpinned and 0.09
/// pinned.
int pinToOneCpu();

/// Lets the calling thread run on every CPU the process could use
/// before pinToOneCpu (for helper threads outside the timed window).
void unpinThread();

/// The timed window is cut into slices of at least this many seconds;
/// throughput is the median over slices.
inline constexpr double kSliceSeconds = 0.5;

/// Latencies (µs) of the analyses or responses completed in one slice.
struct Slice {
  double seconds = 0.0;
  std::vector<std::int64_t> latencies;
};

/// Why an answer for `cell` is wrong, or "" when it is right: it must be
/// sound, complete within any deadline, equal to the pinned bound, and
/// enclose the simulated run.  Records the bound as `cell.observed`.
[[nodiscard]] std::string checkBound(Cell& cell,
                                     const ipet::Interval& bound, bool sound,
                                     bool timedOut);

[[nodiscard]] bool allSetsExact(const ipet::Estimate& estimate);

/// Geometric means of estimated.hi / simulated.hi and simulated.lo /
/// estimated.lo over the observed bounds of `cells`.
[[nodiscard]] double wcetRatio(const std::vector<Cell>& cells);
[[nodiscard]] double bcetRatio(const std::vector<Cell>& cells);

/// Nearest-rank percentile of `samples` (any order), in the same unit.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// Peak resident set of this process, in MB.
[[nodiscard]] double peakRssMb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Accumulates per-layer numbers as sums over a number of analyses;
/// `mean()` divides a sum by that count.
class LayerSums {
 public:
  void add(const std::string& name, double value) { sums_[name] += value; }
  /// Keeps the lowest value seen under `name`.
  void addLow(const std::string& name, double value);
  void countAnalysis() { ++analyses_; }
  [[nodiscard]] double mean(const std::string& name) const;
  /// The lowest value added with addLow, or 0 when there was none.
  [[nodiscard]] double lowest(const std::string& name) const;

 private:
  std::map<std::string, double> sums_;
  std::map<std::string, double> lows_;
  std::int64_t analyses_ = 0;
};

/// Adds an Estimate's work counters (one analysis) to `sums`.
void addCounters(const ipet::Estimate& estimate, LayerSums* sums);

struct PipelineRun {
  ipet::AnalysisResult result;
  std::int64_t wallMicros = 0;
  /// Traced runs: the share of the analysis's wall time that leaf layer
  /// spans cover (see kMinAccountedShare); 1 when untraced.
  double accountedShare = 1.0;
  /// Nodes when Analyzer::estimate() runs directly, without the
  /// service's seed export; -1 unless requested.
  std::int64_t directNodes = -1;
};

struct PipelineOptions {
  bool traced = false;
  bool directNodes = false;
  /// Called with the analyzer after the timed part, e.g. to export ILPs.
  std::function<void(const ipet::Analyzer&)> inspect;
  /// Self-test plant: a pause inside the analysis that no layer covers.
  bool plantTraceGap = false;
};

/// The digests of a MiniC request's constraint system, computed as the
/// service does but without solving it.
[[nodiscard]] ipet::Analyzer::SystemDigests digestsOf(
    const ipet::AnalysisRequest& request);

/// One analysis through the in-process pipeline: the benchmark's own
/// spans around lang::parse, lang::analyze, codegen::compile and the
/// Analyzer constructor plus addConstraint, then
/// AnalysisService::analyzeWith with the tracer in SolveControl and an
/// obs::RequestTelemetry, whose digest, cache-lookup and cache-store
/// stages time those steps of the service.  With `options.traced` false
/// the same calls run without a tracer, so the two differ only by
/// tracing.  Adds the run's numbers to `layers`.
[[nodiscard]] PipelineRun runPipeline(const ipet::AnalysisService& service,
                                      const ipet::AnalysisRequest& request,
                                      const PipelineOptions& options,
                                      LayerSums* layers);

/// The share of each traced analysis's wall time that named layers must
/// cover.  Accounted time is the self time of the leaf layers (frontend,
/// build, digest, cache lookup and store, and the analyzer's named
/// phases, set materialization included) plus 1 µs of timestamp
/// resolution per span; the self time of the root span, of the service
/// and estimate wrappers, of set dispatch and of any span not named here
/// is not.  The smallest Table I analyses (some 400 µs) sit near 0.95,
/// because the wrappers' own work is about 4% of them; hence 0.90.
///
/// An analysis below the share is measured again, up to
/// kAccountingRetries times, because a preemption that lands in unnamed
/// code can push a single run under it; it fails only when every
/// attempt is below.
inline constexpr double kMinAccountedShare = 0.90;
inline constexpr int kAccountingRetries = 2;

/// Why a traced analysis fails the accounting check, or "".
[[nodiscard]] std::string accountingProblem(const PipelineRun& run);

/// The serve-layer numbers of one response.
struct ServedTiming {
  /// Client-observed wall µs of the call.
  std::int64_t clientMicros = 0;
  /// The response's wallMicros and solveMicros.
  std::int64_t serverMicros = 0;
  std::int64_t solveMicros = 0;
  std::int64_t bytes = 0;
  bool cacheHit = false;
  bool basisWarmStarted = false;
};

/// Adds one response to serve-layer sums (one "analysis" per response).
void addServed(const ServedTiming& served, LayerSums* sums);

/// Sends each cell's request (CachePolicy::Bypass) once through a fresh
/// in-process serve::Server, checks every answer and adds it to `served`.
void replayThroughServer(std::vector<Cell>& cells, Tally* tally,
                         LayerSums* served);

/// Serve-layer per-layer metrics from sums built with addServed.
[[nodiscard]] std::vector<Metric> serveLayerMetrics(const LayerSums& served);

/// The per-layer metrics from the traced and untraced pipeline sums.
[[nodiscard]] std::vector<Metric> pipelineLayerMetrics(
    const LayerSums& traced, const LayerSums& untraced);

/// Pinned bounds by cell name ("recon/ccg").
using Pins = std::map<std::string, ipet::Interval>;

/// Compiles every Table I program and runs it on the simulator with its
/// worst-case and best-case data (cold and warm cache, as the harness
/// does).  Returns the simulated interval by program name; adds each
/// simulator run's µs to `simMicros` and counts the runs in `simRuns`.
[[nodiscard]] std::map<std::string, ipet::Interval> simulateSuite(
    double* simMicros, double* simRuns);

/// Every Table I program under each of `modes`, with its pinned bound
/// and simulated interval.  Throws when a cell has no pinned bound.
[[nodiscard]] std::vector<Cell> makeCells(
    const std::vector<ipet::CacheMode>& modes, const Pins& pins,
    const std::map<std::string, ipet::Interval>& simulated);

/// What one run of a workload produced.
struct RunResult {
  Tally tally;
  /// The timed window of an untraced run.
  std::vector<Slice> slices;
  /// Peak resident set at the end of the timed window, in MB.
  double peakRssMb = 0.0;
  /// Seconds of each repetition of the workload's set-up.
  std::vector<double> setups;
  std::vector<Metric> metrics;
};

/// The end-to-end metrics of an untraced run; `cells` are the Table I
/// cells whose bounds the run checked.
[[nodiscard]] std::vector<Metric> endToEndMetrics(
    const RunResult& run, const std::vector<Cell>& cells);

/// How many times an untraced run times its set-up (the median is
/// reported): once before the timed window, for the fixture the run
/// uses, and the rest between slices, spread evenly over the window.
/// Back to back, all repetitions fell in one phase of the shared host's
/// speed: over ten runs the median's spread was 0.23, against 0.10
/// spread out.
inline constexpr std::size_t kSetupRepeats = 9;

/// Runs `setUp()` and records its seconds in `setups`.
template <typename SetUp>
[[nodiscard]] auto timedSetUp(SetUp&& setUp, std::vector<double>* setups) {
  const Clock::time_point start = Clock::now();
  auto fixture = setUp();
  setups->push_back(secondsSince(start));
  return fixture;
}

/// Runs `work` in a child process (fork) on this thread's CPU, and
/// returns the wall seconds `work` took there, or nothing when the child
/// failed or `work` returned false.  The child's memory is its own, so
/// the work does not raise this process's peak RSS.
[[nodiscard]] std::optional<double> timeInChild(
    const std::function<bool()>& work);

/// Between two slices, `elapsed` seconds into a window of `window`:
/// when the window has passed the next of the evenly spaced points for
/// kSetupRepeats, repeats the set-up once in a child process (see
/// timeInChild) and records its seconds; a repetition whose answers
/// were wrong counts as a failure in `tally`.
template <typename SetUp>
void repeatSetUpOnSchedule(SetUp&& setUp, double elapsed, double window,
                           std::vector<double>* setups, Tally* tally) {
  const std::size_t done = setups->size();
  if (done >= kSetupRepeats ||
      elapsed < window * static_cast<double>(done) /
                    static_cast<double>(kSetupRepeats)) {
    return;
  }
  const std::int64_t failedBefore = tally->failed();
  const std::optional<double> seconds = timeInChild([&] {
    // The child exits without tearing the fixture down.
    (void)setUp().release();
    return tally->failed() == failedBefore;
  });
  if (!seconds) {
    tally->record("set-up repetition", "failed in its child process", false);
    return;
  }
  setups->push_back(*seconds);
}

[[nodiscard]] RunResult runSuiteWorkload(const Options& options,
                                         const Pins& pins);
[[nodiscard]] RunResult runServeWorkload(const Options& options,
                                         const Pins& pins);

}  // namespace perfbench
