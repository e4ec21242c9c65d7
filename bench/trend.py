#!/usr/bin/env python3
"""Per-bench deltas between BENCH_engine.json revisions.

Diffs the current benchmark JSON (the file run_benches.sh just wrote)
against the copy tracked at a git revision — by default HEAD, i.e. the
last committed numbers — and prints a per-bench report:

    bench                              base ns     cur ns     delta
    bm_cwc_step_neurospora              145.9      143.2      -1.9% faster
    ...

Usage:
    bench/trend.py [--base REV] [--current PATH] [--threshold PCT]
                   [--fail-over PCT]

--fail-over adds a regression verdict: the report ends with a
"verdict: PASS" line when no benchmark is slower than the baseline by
more than PCT percent, and "verdict: REGRESSED (...)" naming the
offenders otherwise. The exit code stays 0 either way (shared CI runners
are too noisy to gate on), so the bench-smoke job surfaces the verdict
in its job summary instead of failing the build — the same philosophy as
BENCH_engine.json itself. A missing baseline (new clone, shallow
checkout, renamed file) degrades to a note, never an error.

ISA guard: both JSONs carry a "toolchain" block (see run_benches.sh).
When the baseline and the current run were built for different ISAs
(toolchain.march differs — e.g. a -DCWCSIM_NATIVE=ON run against a
baseline-ISA baseline), or the batch engine dispatched to different ISA
variants at run time (toolchain.batch_isa differs — e.g. the same build
measured on an AVX-512 and an AVX2 host), the numbers measure different
machine code and a "regression" would be meaningless, so the diff is
refused outright: "verdict: SKIPPED (ISA mismatch ...)", exit 0, no
per-bench rows. A baseline predating the toolchain record, or the
batch_isa field, compares with a warning.
"""

import argparse
import json
import pathlib
import subprocess
import sys


def load_doc(text):
    """(toolchain dict | None, bench name -> metrics) from the JSON doc."""
    doc = json.loads(text)
    return doc.get("toolchain"), {
        r["bench"]: {
            "real_time_ns": r.get("real_time_ns"),
            "items_per_sec": r.get("items_per_sec"),
        }
        for r in doc.get("results", [])
    }


def git_show(rev, path):
    try:
        return subprocess.run(
            ["git", "show", f"{rev}:{path}"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    except (subprocess.CalledProcessError, FileNotFoundError):
        return None


def fmt_ns(ns):
    return f"{ns:12.1f}" if ns is not None else " " * 12


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD",
                    help="git revision holding the baseline JSON (default: HEAD)")
    ap.add_argument("--current", default="BENCH_engine.json",
                    help="freshly generated JSON file (default: BENCH_engine.json)")
    ap.add_argument("--threshold", type=float, default=5.0,
                    help="flag deltas beyond this percentage (default: 5)")
    ap.add_argument("--fail-over", type=float, default=None, metavar="PCT",
                    help="emit a PASS/REGRESSED verdict line for benches "
                         "slower than the baseline by more than PCT percent "
                         "(report only - exit code stays 0)")
    args = ap.parse_args()

    repo = pathlib.Path(__file__).resolve().parent.parent
    current_path = pathlib.Path(args.current)
    if not current_path.is_absolute():
        current_path = repo / current_path
    if not current_path.exists():
        print(f"note: {current_path} not found — run bench/run_benches.sh first")
        return 0
    cur_tc, current = load_doc(current_path.read_text())

    rel = current_path.relative_to(repo) if current_path.is_relative_to(repo) \
        else pathlib.Path("BENCH_engine.json")
    base_text = git_show(args.base, rel.as_posix())
    if base_text is None:
        print(f"note: no baseline at {args.base}:{rel} — nothing to diff")
        return 0
    base_tc, base = load_doc(base_text)

    # Refuse cross-ISA comparisons: -march changes the machine code under
    # measurement, so a slowdown/speedup between the two files is not a
    # regression signal. SKIPPED is a verdict, not an error (exit 0) — the
    # CI job summary shows it instead of a bogus REGRESSED.
    if base_tc is not None and cur_tc is not None:
        b_march = base_tc.get("march", "unknown")
        c_march = cur_tc.get("march", "unknown")
        if b_march != c_march:
            print(f"baseline ISA:  {b_march} ({base_tc.get('compiler', '?')})")
            print(f"current ISA:   {c_march} ({cur_tc.get('compiler', '?')})")
            print("verdict: SKIPPED (ISA mismatch — benchmark numbers from "
                  "different -march targets are not comparable; rerun both "
                  "sides under the same CWCSIM_NATIVE setting to diff)")
            return 0
        b_batch = base_tc.get("batch_isa")
        c_batch = cur_tc.get("batch_isa")
        if b_batch is None or c_batch is None:
            print("warning: a toolchain record predates batch_isa — "
                  "comparing anyway, batch ISA variant unknown")
        elif b_batch != c_batch:
            print(f"baseline batch ISA:  {b_batch}")
            print(f"current batch ISA:   {c_batch}")
            print("verdict: SKIPPED (ISA mismatch — the batch engine ran "
                  "different run-time ISA variants; measure both sides on "
                  "hosts with the same SIMD width to diff)")
            return 0
    elif base_tc is None:
        print(f"warning: baseline {args.base}:{rel} predates the toolchain "
              "record — comparing anyway, ISA unknown")

    names = sorted(set(base) | set(current))
    width = max((len(n) for n in names), default=5)
    print(f"benchmark trend vs {args.base} "
          f"(real time per op; +slower / -faster, |Δ|>{args.threshold:g}% flagged)")
    print(f"{'bench':<{width}}  {'base ns':>12}  {'cur ns':>12}  delta")
    flagged = 0
    regressed = []
    for name in names:
        b = base.get(name, {}).get("real_time_ns")
        c = current.get(name, {}).get("real_time_ns")
        if b is None:
            print(f"{name:<{width}}  {fmt_ns(b)}  {fmt_ns(c)}  NEW")
            continue
        if c is None:
            print(f"{name:<{width}}  {fmt_ns(b)}  {fmt_ns(c)}  REMOVED")
            continue
        delta = (c - b) / b * 100.0 if b else 0.0
        mark = ""
        if abs(delta) > args.threshold:
            mark = "  ** slower **" if delta > 0 else "  (faster)"
            flagged += 1
        if args.fail_over is not None and delta > args.fail_over:
            regressed.append((name, delta))
        print(f"{name:<{width}}  {fmt_ns(b)}  {fmt_ns(c)}  {delta:+6.1f}%{mark}")
    print(f"{flagged} bench(es) beyond ±{args.threshold:g}% "
          f"({len(names)} compared). Informational only — not a gate.")
    if args.fail_over is not None:
        if regressed:
            worst = ", ".join(f"{n} +{d:.1f}%" for n, d in regressed)
            print(f"verdict: REGRESSED (> {args.fail_over:g}% slower: {worst})")
        else:
            print(f"verdict: PASS (no bench > {args.fail_over:g}% slower "
                  f"than {args.base})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
