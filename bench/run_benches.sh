#!/usr/bin/env sh
# Engine benchmark runner: executes the google-benchmark microbenchmarks
# (micro_engine, micro_ff) plus the stream_latency and svc_throughput
# harnesses and merges their results into BENCH_engine.json at the repo
# root, the tracked record of the engine's perf trajectory.
#
# Usage:
#   ./bench/run_benches.sh [build-dir] [min-time]
#
#   build-dir  build tree containing bench/ binaries   (default: build)
#   min-time   google-benchmark --benchmark_min_time   (default: 0.5)
#
# BENCH_engine.json schema: a JSON object
#   {
#     "generated_by": "bench/run_benches.sh",
#     "min_time": "<min-time>",
#     "toolchain": {"compiler": str, "build_type": str, "cxx_flags": str,
#                   "march": str, "native_option": str, "batch_isa": str},
#     "results": [ {"bench": str, "items_per_sec": num|null,
#                   "real_time_ns": num}, ... ]
#   }
# The toolchain block is the build dir's build_info.json (written at CMake
# configure time) plus batch_isa, the batch engine's run-time ISA variant
# on the measuring host (micro_engine's JSON context): numbers only mean
# something relative to the compiler, flags, and ISA that produced them,
# and bench/trend.py refuses to diff across different ISAs.
# Comparing runs: check out the baseline commit, run this script, stash the
# JSON, check out the candidate, run again, and diff the two files (or eyeball
# items_per_sec per bench name — higher is better; real_time_ns lower is
# better). CI's non-gating bench-smoke job uploads the same JSON per PR so
# regressions are visible in PR history without blocking merges.
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
MIN_TIME="${2:-0.5}"
OUT="BENCH_engine.json"

if [ ! -x "$BUILD_DIR/bench/micro_engine" ]; then
  echo "error: $BUILD_DIR/bench/micro_engine not built" >&2
  echo "hint: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  echo "      (micro benchmarks need libbenchmark-dev installed)" >&2
  exit 1
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

"$BUILD_DIR/bench/micro_engine" \
  --benchmark_format=json \
  --benchmark_min_time="${MIN_TIME}" > "$TMP/micro_engine.json"

if [ -x "$BUILD_DIR/bench/micro_ff" ]; then
  "$BUILD_DIR/bench/micro_ff" \
    --benchmark_format=json \
    --benchmark_min_time="${MIN_TIME}" > "$TMP/micro_ff.json"
fi

# stream_latency is a bespoke harness (not google-benchmark); keep its raw
# stdout alongside the merged metrics so latency percentiles stay visible.
if [ -x "$BUILD_DIR/bench/stream_latency" ]; then
  "$BUILD_DIR/bench/stream_latency" \
    --trajectories "${STREAM_TRAJECTORIES:-16}" \
    --t-end "${STREAM_T_END:-30}" > "$TMP/stream_latency.txt" 2>&1 || true
fi

# svc_throughput is also bespoke but emits google-benchmark-shaped JSON
# (--json), so it merges through the same loop as the microbenchmarks.
if [ -x "$BUILD_DIR/bench/svc_throughput" ]; then
  "$BUILD_DIR/bench/svc_throughput" --json --chaos \
    --trajectories "${SVC_TRAJECTORIES:-16}" \
    --t-end "${SVC_T_END:-20}" > "$TMP/svc_throughput.json" || true
fi

# sweep_throughput (M cells x N trajectories campaigns, farm vs batched,
# overlay-vs-recompile setup cost) emits the same JSON shape.
if [ -x "$BUILD_DIR/bench/sweep_throughput" ]; then
  "$BUILD_DIR/bench/sweep_throughput" --json \
    --cells "${SWEEP_CELLS:-8}" \
    --trajectories "${SWEEP_TRAJECTORIES:-8}" \
    --t-end "${SWEEP_T_END:-10}" > "$TMP/sweep_throughput.json" || true
fi

python3 - "$TMP" "$MIN_TIME" "$OUT" "$BUILD_DIR" <<'PY'
import json
import pathlib
import sys

tmp, min_time, out = pathlib.Path(sys.argv[1]), sys.argv[2], sys.argv[3]
build_dir = pathlib.Path(sys.argv[4])
results = []

for name in ("micro_engine.json", "micro_ff.json", "svc_throughput.json",
             "sweep_throughput.json"):
    path = tmp / name
    if not path.exists():
        continue
    doc = json.loads(path.read_text())
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        # Normalize real_time to nanoseconds whatever unit the bench used.
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[b.get("time_unit", "ns")]
        results.append({
            "bench": b["name"],
            "items_per_sec": b.get("items_per_second"),
            "real_time_ns": b["real_time"] * scale,
        })

# Toolchain record from the CMake configure (compiler, flags, -march): the
# provenance trend.py keys ISA comparability off. An old build tree without
# build_info.json degrades to an "unknown" record, never an error.
info = build_dir / "build_info.json"
try:
    toolchain = json.loads(info.read_text())
except (OSError, ValueError):
    toolchain = {"compiler": "unknown", "build_type": "unknown",
                 "cxx_flags": "", "march": "unknown", "native_option": ""}
# The batch kernels dispatch on the CPU at run time, so a baseline-ISA
# build's bm_batch_* numbers still depend on the host: record the variant.
micro = json.loads((tmp / "micro_engine.json").read_text())
toolchain["batch_isa"] = micro.get("context", {}).get("batch_isa", "unknown")

doc = {
    "generated_by": "bench/run_benches.sh",
    "min_time": min_time,
    "toolchain": toolchain,
    "results": results,
}
latency = tmp / "stream_latency.txt"
if latency.exists():
    doc["stream_latency_raw"] = latency.read_text().splitlines()

pathlib.Path(out).write_text(json.dumps(doc, indent=2) + "\n")
print(f"wrote {out} ({len(results)} benchmarks)")
PY
