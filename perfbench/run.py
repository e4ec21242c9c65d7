#!/usr/bin/env python3
"""Build and run one workload of the cwcsim end-to-end benchmark.

    python3 perfbench/run.py --workload paper_farm --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/ (which compiles the
cwcsim libraries from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, runs the helper self-tests, then runs the
workload. The last stdout line is the JSON result; the exit code is
non-zero when the build, a self-test or an output check fails. See
perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper_farm", "paper_batched", "tenants_open", "sweep_grid"]
DEADLINE_S = 175.0  # a run must end within 180 s, build excluded
BUILD_DEADLINE_S = 850.0
STARTED = time.monotonic()


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Run cmd with its output on stderr; raise on failure or timeout."""
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                   timeout=timeout)


def build(build_dir):
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    generated = [os.path.join(build_dir, f) for f in ("build.ninja", "Makefile")]
    if not any(os.path.exists(f) for f in generated):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_logged(["cmake", "-S", HERE, "-B", build_dir, *gen,
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_DEADLINE_S)
    run_logged(["cmake", "--build", build_dir, "-j", jobs], BUILD_DEADLINE_S)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    if a.seed < 0 or not 0 < a.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in (0, 600]")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        build(build_dir)
        built = time.monotonic()
        run_logged([os.path.join(build_dir, "perfbench_selftest")], 60)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        log(f"build or self-test failed: {e}")
        return 1

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", repr(a.seconds),
           "--trace", str(a.trace)]
    if a.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(trace_dir, f"{a.workload}-seed{a.seed}.json")]
    remaining = DEADLINE_S - (time.monotonic() - built)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        log(f"{a.workload} did not finish within {remaining:.0f} s")
        return 1

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok_shape = (set(result) == {"correct", "attempted", "failed", "metrics"}
                    and result["attempted"] >= 1)
    except (ValueError, IndexError, TypeError):
        ok_shape = False
    if not ok_shape:
        sys.stdout.write(proc.stdout)
        log(f"{a.workload} printed no result (exit code {proc.returncode})")
        return proc.returncode or 1
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        log(f"{a.workload}: output checks failed")
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
