// perfbench: the end-to-end, per-layer benchmark of the IPET analyzer.
//
//   perfbench --workload <suite-ccg|suite-light|serve-mixed> --seed <n>
//             --seconds <s> --trace <0|1> --pinned <pinned.json>
//             --out-dir <dir> [--plant-wrong-pin] [--plant-error-response]
//             [--plant-trace-gap]
//
// Prints host facts, the metrics by name and unit, and as its last line
// one JSON object {"correct","attempted","failed","metrics"}.  An
// untraced run (--trace 0) reports the end-to-end metrics; a traced run
// reports the per-layer ones.  Exits 1 when any answer was wrong or a
// traced analysis's layers do not cover its wall time, 2 on a usage or
// set-up error.  `--print-pins` prints the bounds of every
// Table I cell as computed now, in pinned.json's format.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "cinderella/obs/json.hpp"
#include "cinderella/obs/json_parse.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;
namespace obs = cinderella::obs;

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<suite-ccg|suite-light|serve-mixed> --seed <n> --seconds <s> "
               "--trace <0|1> --pinned <file> --out-dir <dir> "
               "[--plant-wrong-pin] [--plant-error-response] "
               "[--plant-trace-gap] | "
               "--print-pins\n",
               problem.c_str());
  std::exit(2);
}

Pins loadPins(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw cinderella::AnalysisError("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  std::string error;
  const std::optional<obs::JsonValue> doc = obs::jsonParse(text.str(), &error);
  const obs::JsonValue* cells = doc ? doc->find("cells") : nullptr;
  if (cells == nullptr || !cells->isObject()) {
    throw cinderella::AnalysisError(path + ": no \"cells\" object " + error);
  }
  Pins pins;
  for (const auto& [name, bound] : cells->members) {
    if (!bound.isArray() || bound.items.size() != 2 ||
        !bound.items[0].isInteger || !bound.items[1].isInteger) {
      throw cinderella::AnalysisError(path + ": " + name +
                                      " is not [lo, hi]");
    }
    pins[name] = {bound.items[0].intValue, bound.items[1].intValue};
  }
  return pins;
}

/// Every Table I cell's bound through the service path, as pinned.json.
int printPins() {
  ipet::AnalysisServiceOptions serviceOptions;
  serviceOptions.benchmarkResolver = suite::benchmarkResolver();
  const ipet::AnalysisService service(serviceOptions);
  obs::JsonWriter w;
  w.beginObject().key("cells").beginObject();
  for (const ipet::CacheMode mode :
       {ipet::CacheMode::AllMiss, ipet::CacheMode::FirstIterationSplit,
        ipet::CacheMode::ConflictGraph}) {
    for (const suite::Benchmark& bench : suite::allBenchmarks()) {
      Cell cell;
      cell.program = &bench;
      cell.mode = mode;
      const ipet::Interval b =
          service.analyze(cell.request(ipet::CachePolicy::Bypass))
              .estimate.bound;
      w.key(cell.name()).beginArray().value(b.lo).value(b.hi).endArray();
    }
  }
  w.endObject().endObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

void printHostFacts(const Options& options, int pinnedCpu) {
  const std::string buildType = PERFBENCH_BUILD_TYPE;
  std::printf("host: nproc=%u build_type=%s compiler=%s pinned_cpu=%d\n",
              std::thread::hardware_concurrency(),
              buildType.empty() ? "(none)" : buildType.c_str(),
              PERFBENCH_COMPILER, pinnedCpu);
  std::printf("run: workload=%s seed=%llu seconds=%d trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  if (pinnedCpu < 0) {
    std::printf("WARNING: could not pin to one CPU; timings vary more\n");
  }
  if (buildType != "Release" && buildType != "RelWithDebInfo") {
    std::printf(
        "WARNING: unoptimized build (%s); timings do not describe a "
        "release build\n",
        buildType.empty() ? "no build type" : buildType.c_str());
  }
}

void printResult(const RunResult& run) {
  const double attempted = static_cast<double>(run.tally.attempted());
  std::size_t samples = 0;
  for (const Slice& slice : run.slices) samples += slice.latencies.size();
  std::printf(
      "attempted=%lld failed=%lld failed_share=%.6f latency_samples=%zu "
      "slices=%zu setups=%zu\n",
      static_cast<long long>(run.tally.attempted()),
      static_cast<long long>(run.tally.failed()),
      attempted == 0 ? 0.0
                     : static_cast<double>(run.tally.failed()) / attempted,
      samples, run.slices.size(), run.setups.size());
  for (const Metric& m : run.metrics) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  obs::JsonWriter w;
  w.beginObject()
      .key("correct")
      .value(run.tally.failed() == 0 && run.tally.attempted() > 0)
      .key("attempted")
      .value(run.tally.attempted())
      .key("failed")
      .value(run.tally.failed())
      .key("metrics")
      .beginObject();
  for (const Metric& m : run.metrics) {
    w.key(m.name)
        .beginObject()
        .key("value")
        .value(m.value)
        .key("unit")
        .value(m.unit)
        .endObject();
  }
  w.endObject().endObject();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool haveSeed = false;
  bool haveSeconds = false;
  bool haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--print-pins") return printPins();
      if (arg == "--workload") {
        options.workload = next();
      } else if (arg == "--seed") {
        options.seed = std::stoull(next());
        haveSeed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stoi(next());
        haveSeconds = options.seconds > 0;
      } else if (arg == "--trace") {
        const std::string value = next();
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
        haveTrace = true;
      } else if (arg == "--pinned") {
        options.pinnedPath = next();
      } else if (arg == "--out-dir") {
        options.outDir = next();
      } else if (arg == "--plant-wrong-pin") {
        options.plantWrongPin = true;
      } else if (arg == "--plant-error-response") {
        options.plantErrorResponse = true;
      } else if (arg == "--plant-trace-gap") {
        options.plantTraceGap = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (options.workload != "suite-ccg" && options.workload != "suite-light" &&
      options.workload != "serve-mixed") {
    usage("unknown workload '" + options.workload + "'");
  }
  if (!haveSeed || !haveSeconds || !haveTrace || options.pinnedPath.empty() ||
      options.outDir.empty()) {
    usage("--seed, --seconds, --trace, --pinned and --out-dir are required");
  }

  const int pinnedCpu = pinToOneCpu();
  printHostFacts(options, pinnedCpu);
  try {
    Pins pins = loadPins(options.pinnedPath);
    if (options.plantWrongPin) {
      pins.at(options.workload == "suite-ccg" ? "recon/ccg"
                                              : "recon/firstiter")
          .hi += 1;
    }
    const RunResult run = options.workload == "serve-mixed"
                              ? runServeWorkload(options, pins)
                              : runSuiteWorkload(options, pins);
    printResult(run);
    return run.tally.failed() == 0 && run.tally.attempted() > 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
