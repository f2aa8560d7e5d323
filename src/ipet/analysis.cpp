#include "cinderella/ipet/analysis.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <limits>
#include <optional>

#include "cinderella/codegen/codegen.hpp"
#include "cinderella/ilp/branch_and_bound.hpp"
#include "cinderella/ipet/parametric.hpp"
#include "cinderella/lp/lp_format.hpp"
#include "cinderella/obs/request_telemetry.hpp"
#include "cinderella/support/error.hpp"
#include "set_solve.hpp"

namespace cinderella::ipet {

namespace {

using Clock = std::chrono::steady_clock;

std::string defaultLabel(const AnalysisRequest& request) {
  if (!request.label.empty()) return request.label;
  if (!request.benchmark.empty()) return request.benchmark;
  return request.lpInput ? "<lp>" : "<source>";
}

/// Digest of a stand-alone LP problem: sense, variable count, canonical
/// objective, and the sorted/deduplicated canonical rows.  Everything
/// explicit little-endian via DigestBuilder, so the key is byte-stable.
void digestProblem(DigestBuilder* builder, const lp::Problem& problem) {
  builder->tag('P');
  builder->u8(problem.sense() == lp::Sense::Maximize ? 'M' : 'm');
  builder->u32(static_cast<std::uint32_t>(problem.numVars()));
  lp::LinearExpr objective = problem.objective();
  objective.canonicalize();
  builder->u32(static_cast<std::uint32_t>(objective.terms().size()));
  for (const lp::Term& term : objective.terms()) {
    builder->u32(static_cast<std::uint32_t>(term.var));
    builder->f64(term.coeff);
  }
  builder->f64(objective.constant());
  const std::vector<std::string> rows =
      canonicalRowKeys(problem.constraints());
  builder->u32(static_cast<std::uint32_t>(rows.size()));
  for (const std::string& row : rows) builder->str(row);
}

/// Answers from the bound cache when the full digest hits; otherwise
/// runs `solve` for the estimate and stores the result (the cache admits
/// only exact ones).
template <typename Solve>
AnalysisResult throughBoundCache(SolveCache& cache,
                                 const AnalysisRequest& request,
                                 obs::RequestTelemetry* telemetry,
                                 Clock::time_point start,
                                 AnalysisResult result, Solve&& solve) {
  const bool useCache =
      cache.enabled() && request.cachePolicy != CachePolicy::Bypass;
  if (useCache) {
    auto lookupTimer =
        obs::timeStage(telemetry, obs::RequestStage::CacheLookup);
    std::optional<CachedBound> hit = cache.lookupBound(result.fullDigest);
    lookupTimer.stop();
    if (hit) {
      // An identical ILP system was solved and verified before: the
      // cached interval IS the answer (equal full digests => equal
      // systems => equal bounds), so no solve runs.
      result.cacheHit = true;
      result.estimate.bound = hit->bound;
      result.estimate.stats.constraintSets = hit->constraintSets;
      result.solveMicros = hit->solveWallMicros;
      result.wallMicros = microsSince(start);
      return result;
    }
  }

  const Clock::time_point solveStart = Clock::now();
  {
    auto solveTimer = obs::timeStage(telemetry, obs::RequestStage::Solve);
    result.estimate = solve();
  }
  result.solveMicros = microsSince(solveStart);

  if (useCache && request.cachePolicy == CachePolicy::ReadWrite) {
    auto storeTimer = obs::timeStage(telemetry, obs::RequestStage::CacheStore);
    cache.insert(result.fullDigest, result.structuralDigest, result.estimate,
                 result.solveMicros);
  }
  result.wallMicros = microsSince(start);
  return result;
}

/// One ILP per LP-format problem, each settled on the set ladder.  Worst
/// case from the maximizations, best case from the minimizations; a
/// one-sided system falls back to the extremes of the side it has, a
/// fractional optimum rounded toward the missing end, so the interval
/// always encloses every optimum seen.  A side on which no problem
/// yielded a bound is unbounded.
Estimate solveLpProblems(const std::vector<lp::Problem>& problems,
                         const SolveControl& control) {
  // An LP-format objective need not have integral coefficients, so
  // relaxation bounds round outward.  No structural bound stands behind
  // an lp-format problem: one over the memory ceiling, or stopped
  // before its root relaxation, fails and contributes nothing.
  const SetSolver solver(control, Clock::now(),
                         {ilp::IlpOptions{}, Rounding::Outward, true});
  Estimate estimate;
  estimate.stats.constraintSets = static_cast<int>(problems.size());
  // Per side: the bounds of its own problems, and the other side's
  // bounds rounded toward it (its ends of a one-sided system).
  std::array<std::vector<std::int64_t>, 2> bounds;
  std::array<std::vector<std::int64_t>, 2> mirrored;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    const lp::Problem& problem = problems[i];
    const Side side =
        problem.sense() == lp::Sense::Maximize ? Side::Worst : Side::Best;
    const Side other = side == Side::Worst ? Side::Best : Side::Worst;
    std::optional<double> fractional;
    SetOutcome out;
    out.record.setIndex = static_cast<int>(i);
    if (std::optional<std::string> breach =
            memoryCeilingBreach(problem, control.maxMemoryBytes)) {
      solver.degradeSet(&out, ErrorCode::MemoryCeiling, "set",
                        std::move(*breach));
    } else {
      const Clock::time_point ilpStart = Clock::now();
      ilp::IlpSolution solution = ilp::solve(problem, solver.ilpOptions(&out));
      if (solver.cancelled()) throw AnalysisError("analysis cancelled");
      if (solution.status == ilp::IlpStatus::Infeasible ||
          solution.status == ilp::IlpStatus::Unbounded) {
        throw AnalysisError("lp input: problem " + std::to_string(i + 1) +
                            " is " + ilp::ilpStatusStr(solution.status));
      }
      fillRecord(&out.slot(side), solution, side, Rounding::Outward,
                 microsSince(ilpStart));
      out.record.wallMicros = out.slot(side).wallMicros;
      if (solution.status == ilp::IlpStatus::Optimal &&
          !solution.objectiveIsExact) {
        fractional = solution.objective;
      }
      solver.settle(&out, side, std::move(solution));
    }
    tally(&estimate.stats, out.record);
    if (const std::optional<std::int64_t>& bound = out.side(side).bound) {
      bounds[static_cast<std::size_t>(side)].push_back(*bound);
      mirrored[static_cast<std::size_t>(other)].push_back(
          fractional ? soundBound(*fractional, other, Rounding::Outward)
                     : *bound);
    }
    for (SolveIssue& issue : out.issues) {
      estimate.timedOut |= issue.code == ErrorCode::DeadlineExpired;
      estimate.issues.push_back(std::move(issue));
    }
    estimate.setRecords.push_back(std::move(out.record));
  }

  const auto hasSense = [&](lp::Sense sense) {
    return std::any_of(problems.begin(), problems.end(),
                       [&](const lp::Problem& p) { return p.sense() == sense; });
  };
  const auto sideBounds = [&](Side s) -> const std::vector<std::int64_t>& {
    const std::size_t i = static_cast<std::size_t>(s);
    return hasSense(senseOf(s)) ? bounds[i] : mirrored[i];
  };
  const std::vector<std::int64_t>& hiSide = sideBounds(Side::Worst);
  const std::vector<std::int64_t>& loSide = sideBounds(Side::Best);
  estimate.bound.hi = hiSide.empty()
                          ? std::numeric_limits<std::int64_t>::max()
                          : *std::max_element(hiSide.begin(), hiSide.end());
  estimate.bound.lo = loSide.empty()
                          ? std::numeric_limits<std::int64_t>::min()
                          : *std::min_element(loSide.begin(), loSide.end());
  return estimate;
}

}  // namespace

const char* cachePolicyStr(CachePolicy policy) {
  switch (policy) {
    case CachePolicy::ReadWrite:
      return "readwrite";
    case CachePolicy::ReadOnly:
      return "readonly";
    case CachePolicy::Bypass:
      return "bypass";
  }
  return "?";
}

std::optional<CachePolicy> parseCachePolicy(std::string_view text) {
  if (text == "readwrite" || text == "rw") return CachePolicy::ReadWrite;
  if (text == "readonly" || text == "ro") return CachePolicy::ReadOnly;
  if (text == "bypass" || text == "off") return CachePolicy::Bypass;
  return std::nullopt;
}

AnalysisService::AnalysisService(AnalysisServiceOptions options)
    : options_(std::move(options)), cache_(options_.cache) {}

AnalysisResult AnalysisService::analyze(
    const AnalysisRequest& request, obs::RequestTelemetry* telemetry) const {
  if (!request.benchmark.empty() && !request.source.empty()) {
    throw AnalysisError("request has both a source and a benchmark");
  }
  if (request.benchmark.empty() && request.source.empty()) {
    throw AnalysisError("request has no input (source or benchmark)");
  }
  if (request.lpInput) {
    if (!request.benchmark.empty()) {
      throw AnalysisError("lp input cannot name a benchmark");
    }
    if (!request.constraints.empty()) {
      throw AnalysisError(
          "functionality constraints apply to MiniC input, not lp input");
    }
    if (!request.parameters.empty()) {
      throw AnalysisError(
          "parametric analysis applies to MiniC input, not lp input");
    }
    return analyzeLp(request, telemetry);
  }

  std::string source = request.source;
  std::string root = request.root;
  std::vector<RequestConstraint> constraints;
  if (!request.benchmark.empty()) {
    if (!options_.benchmarkResolver) {
      throw AnalysisError("benchmark input is not available here (no "
                          "benchmark resolver installed)");
    }
    auto resolveTimer = obs::timeStage(telemetry, obs::RequestStage::Resolve);
    std::optional<ResolvedProgram> resolved =
        options_.benchmarkResolver(request.benchmark);
    resolveTimer.stop();
    if (!resolved) {
      throw AnalysisError("unknown benchmark '" + request.benchmark + "'");
    }
    source = std::move(resolved->source);
    if (root.empty()) root = std::move(resolved->root);
    constraints = std::move(resolved->constraints);
  }
  if (root.empty()) root = "main";
  constraints.insert(constraints.end(), request.constraints.begin(),
                     request.constraints.end());

  auto frontendTimer = obs::timeStage(telemetry, obs::RequestStage::Frontend);
  const codegen::CompileResult compiled = codegen::compileSource(source);
  frontendTimer.stop();

  auto cfgTimer = obs::timeStage(telemetry, obs::RequestStage::Cfg);
  AnalyzerOptions aopt;
  aopt.cacheMode = request.cacheMode;
  Analyzer analyzer(compiled, root, aopt);
  for (const RequestConstraint& c : constraints) {
    analyzer.addConstraint(c.text, c.scope);
  }
  cfgTimer.stop();
  if (!request.parameters.empty()) {
    return analyzeParametricWith(analyzer, request, telemetry);
  }
  return analyzeWith(analyzer, request, telemetry);
}

AnalysisResult AnalysisService::analyzeWith(
    const Analyzer& analyzer, const AnalysisRequest& request,
    obs::RequestTelemetry* telemetry) const {
  const Clock::time_point start = Clock::now();
  AnalysisResult result;
  result.program = defaultLabel(request);

  auto digestTimer = obs::timeStage(telemetry, obs::RequestStage::Digest);
  const Analyzer::SystemDigests digests = analyzer.systemDigests();
  digestTimer.stop();
  result.fullDigest = digests.full;
  result.structuralDigest = digests.structural;

  SolveControl control = request.control;
  if (control.tracer == nullptr && telemetry != nullptr) {
    control.tracer = telemetry->tracer();
  }
  return throughBoundCache(cache_, request, telemetry, start,
                           std::move(result),
                           [&] { return analyzer.estimate(control); });
}

AnalysisResult AnalysisService::analyzeParametricWith(
    Analyzer& analyzer, const AnalysisRequest& request,
    obs::RequestTelemetry* telemetry) const {
  const Clock::time_point start = Clock::now();
  CIN_REQUIRE(!request.parameters.empty());
  AnalysisResult result;
  result.program = defaultLabel(request);

  auto digestTimer = obs::timeStage(telemetry, obs::RequestStage::Digest);
  const Digest parametric = analyzer.parametricDigest(request.parameters);
  digestTimer.stop();
  // Both digest fields carry the parametric key: it is what the formula
  // cache and the serve "evaluate" op address this result by (the
  // concrete full/structural digests vary per sample point).
  result.fullDigest = parametric;
  result.structuralDigest = parametric;

  const bool useCache =
      cache_.enabled() && request.cachePolicy != CachePolicy::Bypass;
  if (useCache) {
    auto lookupTimer =
        obs::timeStage(telemetry, obs::RequestStage::CacheLookup);
    std::optional<CachedFormula> hit = cache_.lookupFormula(parametric);
    lookupTimer.stop();
    if (hit) {
      // The same system with the same symbolic parameters was already
      // run through the parametric engine; the cached piecewise bound
      // is the verified answer for every point in the box.
      result.cacheHit = true;
      result.formula = std::move(hit->formula);
      result.estimate.bound = result.formula->hull();
      result.solveMicros = hit->solveWallMicros;
      result.wallMicros = microsSince(start);
      return result;
    }
  }

  SolveControl control = request.control;
  if (control.tracer == nullptr && telemetry != nullptr) {
    control.tracer = telemetry->tracer();
  }

  const Clock::time_point solveStart = Clock::now();
  ParametricResult solved;
  {
    auto solveTimer = obs::timeStage(telemetry, obs::RequestStage::Solve);
    solved = solveParametric(analyzer, request.parameters, control);
  }
  result.solveMicros = microsSince(solveStart);
  result.formula = std::move(solved.formula);
  result.estimate.bound = result.formula->hull();

  if (useCache && request.cachePolicy == CachePolicy::ReadWrite) {
    auto storeTimer = obs::timeStage(telemetry, obs::RequestStage::CacheStore);
    CachedFormula entry;
    entry.formula = *result.formula;
    entry.solveWallMicros = result.solveMicros;
    cache_.insertFormula(parametric, std::move(entry));
  }
  result.wallMicros = microsSince(start);
  return result;
}

AnalysisResult AnalysisService::analyzeLp(
    const AnalysisRequest& request, obs::RequestTelemetry* telemetry) const {
  const Clock::time_point start = Clock::now();
  AnalysisResult result;
  result.program = defaultLabel(request);

  auto frontendTimer = obs::timeStage(telemetry, obs::RequestStage::Frontend);
  const std::vector<lp::Problem> problems =
      lp::parseLpFormatAll(request.source);
  frontendTimer.stop();

  auto digestTimer = obs::timeStage(telemetry, obs::RequestStage::Digest);
  DigestBuilder builder;
  builder.tag('L');
  builder.u32(static_cast<std::uint32_t>(problems.size()));
  for (const lp::Problem& problem : problems) digestProblem(&builder, problem);
  result.fullDigest = builder.finish();
  digestTimer.stop();
  // A stand-alone LP system has no structural core shared with other
  // requests, so the structural key collapses onto the full key.
  result.structuralDigest = result.fullDigest;

  return throughBoundCache(
      cache_, request, telemetry, start, std::move(result),
      [&] { return solveLpProblems(problems, request.control); });
}

}  // namespace cinderella::ipet
