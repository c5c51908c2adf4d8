#!/usr/bin/env bash
# Benchmark sweep: Release build, then every binary in build/bench/ in
# sequence. Each bench prints its paper-shape verdict (non-zero exit on a
# shape violation) and writes BENCH_<name>.json; with BENCH_DIR honoured by
# bench_util, all JSON reports land in one directory for offline diffing.
#
# The perf-relevant reports (sim_throughput, scheduler_perf, rt_engine) are
# additionally copied to canonical BENCH_*.json files at the repo root —
# those are TRACKED, so committing them records the perf trajectory commit
# over commit (docs/PERFORMANCE.md). Compare against the pre-optimisation
# snapshots in bench/baselines/. Every sweep also appends one JSON line per
# (bench, scenario, metric, value, sha) record to the tracked
# BENCH_HISTORY.jsonl, the append-only perf history.
#
#   scripts/bench.sh [out-dir]      # default out-dir: bench-results/
#
# Set BENCH_FILTER to a grep pattern to run a subset, e.g.
#   BENCH_FILTER=rt_engine scripts/bench.sh
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD=${BUILD_DIR:-build}
OUT=${1:-bench-results}

cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD" -j"$(nproc)"

mkdir -p "$OUT"
export BENCH_DIR
BENCH_DIR=$(cd "$OUT" && pwd)

failed=()
for bin in "$BUILD"/bench/*; do
  [[ -x "$bin" && ! -d "$bin" ]] || continue
  name=$(basename "$bin")
  if [[ -n "${BENCH_FILTER:-}" ]] && ! grep -qE "$BENCH_FILTER" <<<"$name"; then
    continue
  fi
  echo
  echo "### $name"
  if ! "$bin" > "$BENCH_DIR/$name.txt" 2>&1; then
    failed+=("$name")
    echo "FAILED (see $OUT/$name.txt)"
  fi
  tail -n 3 "$BENCH_DIR/$name.txt"
done

echo
echo "reports in $OUT/:"
ls "$BENCH_DIR" | grep '\.json$' || true

# Canonical trajectory: the perf-relevant reports live (tracked) at the repo
# root so the perf history survives in git instead of an ignored scratch dir.
for perf in sim_throughput scheduler_perf rt_engine telemetry_overhead \
            flow_scale; do
  if [[ -f "$BENCH_DIR/BENCH_$perf.json" ]]; then
    cp "$BENCH_DIR/BENCH_$perf.json" "BENCH_$perf.json"
    echo "canonical: BENCH_$perf.json"
  fi
done

# Append this sweep to the tracked BENCH_HISTORY.jsonl: one JSON line per
# (bench, scenario, metric) record, stamped with the git SHA, a digest of
# src/ (src_sha256, the same digest perfbench/run.py records) and the machine
# shape (nproc, cpu_model), so the perf
# trajectory is queryable across commits without walking git history for the
# canonical snapshots. Re-running a sweep at the same SHA (filtered re-runs,
# local iteration) must not accumulate duplicates: the history is deduped on
# (bench, scenario, metric, sha), keeping the latest record for each key, so
# every key appears once per commit with its freshest value.
shopt -s nullglob
reports=("$BENCH_DIR"/BENCH_*.json)
shopt -u nullglob
if ((${#reports[@]})) && command -v python3 >/dev/null; then
  sha=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
  python3 - "$sha" "${reports[@]}" <<'EOF'
import hashlib, json, os, sys
sha, paths = sys.argv[1], sys.argv[2:]
hist_path = "BENCH_HISTORY.jsonl"

def src_sha256():
    digest = hashlib.sha256()
    for base, dirs, files in os.walk("src"):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, "src").encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]

def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"

stamp = {"src_sha256": src_sha256(), "nproc": os.cpu_count(),
         "cpu_model": cpu_model()}
records = []
if os.path.exists(hist_path):
    with open(hist_path) as hist:
        for line in hist:
            line = line.strip()
            if line:
                records.append(json.loads(line))
n = 0
for path in paths:
    for rec in json.load(open(path)):
        records.append({"bench": rec["bench"], "scenario": rec["scenario"],
                        "metric": rec["metric"], "value": rec["value"],
                        "sha": sha, **stamp})
        n += 1
# Last write wins per key; insertion order of the surviving records is the
# order each key was FIRST seen, so the file stays chronologically stable.
deduped = {}
for rec in records:
    deduped[(rec["bench"], rec["scenario"], rec["metric"], rec["sha"])] = rec
dropped = len(records) - len(deduped)
with open(hist_path, "w") as hist:
    for rec in deduped.values():
        hist.write(json.dumps(rec) + "\n")
print(f"history: appended {n} records @ {sha} to {hist_path}"
      + (f" ({dropped} duplicate(s) collapsed)" if dropped else ""))
EOF
else
  echo "no JSON reports or no python3 - BENCH_HISTORY.jsonl not appended"
fi

if ((${#failed[@]})); then
  echo "bench.sh: shape checks FAILED: ${failed[*]}"
  exit 1
fi
echo "bench.sh: all shape checks passed"
