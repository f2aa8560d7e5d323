#!/usr/bin/env bash
# Observability smoke test: run the CLI with tracing and reporting on
# for a spread of suite benchmarks, then validate both emitted files as
# JSON with a real parser.  Used locally and by the `observability` CI
# job so the benchmark list and flags live in exactly one place.
#
# usage: scripts/validate_observability.sh [path-to-cinderella] [out-dir]
set -euo pipefail

CLI="${1:-./build/src/tools/cinderella}"
OUT="${2:-$(mktemp -d)}"
BENCHMARKS=(check_data dhry des jpeg_fdct_islow)

if [[ ! -x "$CLI" ]]; then
  echo "validate_observability: CLI not found at $CLI" >&2
  echo "build it with: cmake --build build -j --target cinderella" >&2
  exit 1
fi

for b in "${BENCHMARKS[@]}"; do
  "$CLI" --benchmark "$b" --jobs 4 \
    --trace-out "$OUT/trace-$b.json" --report-json "$OUT/report-$b.json" \
    --verbose-solve
  python3 -m json.tool "$OUT/trace-$b.json" > /dev/null
  python3 -m json.tool "$OUT/report-$b.json" > /dev/null
  # Each solver counter in stats must equal its sum over the per-side
  # records; a record omits a zero counter (schema v5), so absent is 0.
  # ilpSolves counts the solved sides and prunedNullSets the pruned sets.
  python3 - "$OUT/report-$b.json" <<'PY'
import json
import sys

doc = json.load(open(sys.argv[1]))
sides = [s[k] for s in doc["sets"] for k in ("worst", "best")]
for name in ("lpCalls", "nodesExpanded", "totalPivots", "devexPivots",
             "blandRestarts", "checkedPromotions", "presolveRowsRemoved",
             "presolveColsFixed", "presolveSubstitutions", "presolveRounds"):
    total = sum(side.get(name, 0) for side in sides)
    if doc["stats"][name] != total:
        sys.exit(f"{sys.argv[1]}: stats.{name} = {doc['stats'][name]}, "
                 f"but the set records sum to {total}")
for name, total in (
        ("ilpSolves", sum(1 for side in sides if side["solved"])),
        ("prunedNullSets", sum(1 for s in doc["sets"] if s["pruned"]))):
    if doc["stats"][name] != total:
        sys.exit(f"{sys.argv[1]}: stats.{name} = {doc['stats'][name]}, "
                 f"but the set records count {total}")
PY
  echo "validate_observability: $b ok"
done

echo "validate_observability: all ${#BENCHMARKS[@]} benchmarks emitted valid JSON"
