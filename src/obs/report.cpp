#include "cinderella/obs/report.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <vector>

#include "cinderella/obs/json.hpp"
#include "cinderella/support/text.hpp"

namespace cinderella::obs {

void boundToJson(JsonWriter* w, const ipet::Interval& bound) {
  w->beginObject()
      .key("lo")
      .value(bound.lo)
      .key("hi")
      .value(bound.hi)
      .endObject();
}

namespace {

/// Writes every solver counter as a key of the open object, in kFields
/// order; `omitZero` drops the zero ones (the per-record rule).
void countersToJson(JsonWriter* w, const lp::SolverCounters& counters,
                    bool omitZero) {
  for (const auto& field : lp::SolverCounters::kFields) {
    const int value = counters.*field.member;
    if (omitZero && value == 0) continue;
    w->key(field.name).value(value);
  }
}

}  // namespace

void statsToJson(JsonWriter* w, const ipet::SolveStats& stats) {
  w->beginObject()
      .key("constraintSets")
      .value(stats.constraintSets)
      .key("prunedNullSets")
      .value(stats.prunedNullSets)
      .key("ilpSolves")
      .value(stats.ilpSolves);
  countersToJson(w, stats, /*omitZero=*/false);
  w->key("allFirstRelaxationsIntegral")
      .value(stats.allFirstRelaxationsIntegral)
      .key("cacheFlowVars")
      .value(stats.cacheFlowVars)
      .key("cacheFallbackSets")
      .value(stats.cacheFallbackSets)
      .key("relaxedSets")
      .value(stats.relaxedSets)
      .key("structuralSets")
      .value(stats.structuralSets)
      .key("failedSets")
      .value(stats.failedSets)
      .key("dedupedSets")
      .value(stats.dedupedSets)
      .key("dominatedSets")
      .value(stats.dominatedSets)
      .endObject();
}

namespace {

void ilpRecordToJson(JsonWriter* w, const ipet::IlpSolveRecord& record,
                     const ReportOptions& options) {
  w->beginObject()
      .key("solved")
      .value(record.solved)
      .key("feasible")
      .value(record.feasible)
      .key("objective")
      .value(record.objective);
  countersToJson(w, record.counters, /*omitZero=*/true);
  w->key("firstRelaxationIntegral")
      .value(record.firstRelaxationIntegral)
      .key("degraded")
      .value(record.degraded);
  if (record.degraded) w->key("fallbackBound").value(record.fallbackBound);
  if (options.includeTimings) w->key("wallMicros").value(record.wallMicros);
  w->endObject();
}

}  // namespace

void setRecordToJson(JsonWriter* w, const ipet::SetSolveRecord& record,
                     const ReportOptions& options) {
  w->beginObject()
      .key("set")
      .value(record.setIndex)
      .key("userConstraints")
      .value(record.userConstraints)
      .key("pruned")
      .value(record.pruned)
      .key("probePivots")
      .value(record.probePivots)
      .key("verdict")
      .value(ipet::setVerdictStr(record.verdict))
      .key("issue")
      .value(errorCodeStr(record.issue));
  if (record.sharedWith >= 0) {
    w->key("sharedWith").value(record.sharedWith);
    w->key("dominated").value(record.dominated);
  }
  if (record.fallbackPivots != 0) {
    w->key("fallbackPivots").value(record.fallbackPivots);
  }
  if (options.includeTimings) w->key("probeMicros").value(record.probeMicros);
  w->key("worst");
  ilpRecordToJson(w, record.worst, options);
  w->key("best");
  ilpRecordToJson(w, record.best, options);
  if (options.includeTimings) w->key("wallMicros").value(record.wallMicros);
  w->endObject();
}

std::string reportJson(std::string_view program,
                       const ipet::Estimate& estimate,
                       const ReportOptions& options) {
  JsonWriter w;
  w.beginObject();
  w.key("schemaVersion").value(kReportSchemaVersion);
  w.key("program").value(program);
  w.key("bound");
  boundToJson(&w, estimate.bound);
  w.key("sound").value(estimate.sound());
  w.key("timedOut").value(estimate.timedOut);
  w.key("stats");
  statsToJson(&w, estimate.stats);
  if (!estimate.issues.empty()) {
    w.key("issues").beginArray();
    for (const ipet::SolveIssue& issue : estimate.issues) {
      w.beginObject()
          .key("set")
          .value(issue.setIndex)
          .key("code")
          .value(errorCodeStr(issue.code))
          .key("phase")
          .value(issue.phase)
          .key("detail")
          .value(issue.detail)
          .endObject();
    }
    w.endArray();
  }
  w.key("sets").beginArray();
  for (const ipet::SetSolveRecord& record : estimate.setRecords) {
    setRecordToJson(&w, record, options);
  }
  w.endArray();
  w.endObject();
  return w.str();
}

void writeReportJson(std::string_view program, const ipet::Estimate& estimate,
                     std::ostream& out, const ReportOptions& options) {
  out << reportJson(program, estimate, options) << "\n";
}

std::string formatSolveTable(const ipet::Estimate& estimate) {
  std::ostringstream out;
  out << "per-set solve records (" << estimate.stats.constraintSets
      << " sets, " << estimate.stats.prunedNullSets << " pruned):\n";
  // Column widths are computed from the actual cell contents so wide
  // values — degradation markers ("~1,234,567") or large presolve
  // tallies — stretch their column instead of shearing the row.
  std::vector<std::vector<std::string>> grid;
  grid.push_back({"set", "cons", "probe", "verdict", "worst", "best", "LPs",
                  "nodes", "pivots", "psrows", "pscols", "us"});
  for (const ipet::SetSolveRecord& rec : estimate.setRecords) {
    const auto objective = [](const ipet::IlpSolveRecord& r) {
      if (r.degraded) return "~" + withThousands(r.fallbackBound);
      if (!r.solved) return std::string("-");
      if (!r.feasible) return std::string("infeas");
      return withThousands(r.objective);
    };
    // Skipped sets reference the representative whose solve covers them:
    // "=N" for an identical duplicate, "<N" for a dominated superset.
    std::string probe = rec.pruned ? "null" : "ok";
    if (rec.sharedWith >= 0 && !rec.pruned) {
      probe = (rec.dominated ? "<" : "=") + std::to_string(rec.sharedWith);
    }
    const lp::SolverCounters work = rec.worst.counters + rec.best.counters;
    grid.push_back(
        {std::to_string(rec.setIndex), std::to_string(rec.userConstraints),
         probe,
         rec.pruned || rec.sharedWith >= 0
             ? "-"
             : ipet::setVerdictStr(rec.verdict),
         objective(rec.worst), objective(rec.best),
         std::to_string(work.lpCalls), std::to_string(work.nodesExpanded),
         std::to_string(work.totalPivots),
         std::to_string(work.presolveRowsRemoved),
         std::to_string(work.presolveColsFixed + work.presolveSubstitutions),
         std::to_string(rec.wallMicros)});
  }
  std::vector<std::size_t> width(grid.front().size(), 0);
  for (const auto& row : grid) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  for (const auto& row : grid) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << padLeft(row[c], width[c] + (c == 0 ? 1 : 2));
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace cinderella::obs
