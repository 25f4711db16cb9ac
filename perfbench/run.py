#!/usr/bin/env python3
"""Runs one benchmark workload of sanperf and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/worker.cpp against the repository's src/ (CMake, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), then starts one
worker process per repetition until S seconds have passed, so that CPU time
and peak RSS describe one repetition of one workload alone. Prints one line
per metric and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

attempted and failed count the operations of one repetition: every
repetition replays the same seeded inputs, so they are a function of the
workload and the seed, not of how many repetitions fit in S seconds.

--trace 0 reports the end-to-end metrics of BENCHMARK.json (medians over the
repetitions); --trace 1 reports its per-layer metrics from traced
repetitions, with 0 and a printed reason for a metric the workload cannot
reach. The run is correct when every repetition produced the same output
digest, the digest equals the stored reference where one exists for the
seed (perfbench/ref), every in-worker check held and, for paper_table1, the
quick-scale Table 1 equals bench/golden/table1_quick.csv exactly. An
incorrect run still prints its result, then exits with code 1.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchstats  # noqa: E402

WORKLOADS = ("paper_table1", "stream_racks_faults")
REF_DIR = HERE / "ref"
GOLDEN = ROOT / "bench" / "golden" / "table1_quick.csv"
BUILD_TIMEOUT_S = 840
CHILD_TIMEOUT_S = 120
MIN_REPETITIONS = 3
# Layers whose per-call timing samples a traced run reports as p50/p99.
SAMPLED = ("core.one_shot", "san.run_one")


class BenchError(Exception):
    pass


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; raises on failure."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"{cmd[0]}: {e}") from e
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited with {proc.returncode}")


def build():
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", str(HERE), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", str(build_dir), "--target", "perfbench_worker", "-j", jobs],
               BUILD_TIMEOUT_S)
    return build_dir / "perfbench_worker"


def child(exe, args):
    """Runs the worker once and returns its JSON output."""
    try:
        proc = subprocess.run([str(exe)] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker {' '.join(args)} timed out") from e
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repetitions(exe, args, seconds):
    """Runs worker repetitions for `seconds`: no repetition starts that the
    slowest one so far says would end past the budget, except the first
    MIN_REPETITIONS."""
    reps = []
    slowest = 0.0
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        reps.append(child(exe, args))
        slowest = max(slowest, time.monotonic() - t0)
        if len(reps) >= MIN_REPETITIONS and time.monotonic() - start + slowest > seconds:
            return reps


def end_to_end(reps):
    return {
        "wall_s": [r["wall_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
        "cpu_s": [r["cpu_s"] for r in reps],
        "instances_per_s": [r["instances"] / r["wall_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }


def per_layer(reps, spec):
    """Medians over traced repetitions; returns (values, reasons for n/a)."""
    values = {}
    reasons = dict(reps[0]["layers"]["na"])
    for m in spec["per_layer"]:
        got = [r["layers"]["values"][m["name"]] for r in reps
               if m["name"] in r["layers"]["values"]]
        if got:
            values[m["name"]] = benchstats.median(got)
    for stem in SAMPLED:
        for q, suffix in ((0.50, "p50_us"), (0.99, "p99_us")):
            name = f"{stem}.{suffix}"
            got = [benchstats.percentile(r["layers"]["samples"].get(stem, []), q) for r in reps]
            got = [p / 1000.0 for p in got if p is not None]
            n = len(reps[0]["layers"]["samples"].get(stem, []))
            if got:
                values[name] = benchstats.median(got)
            elif n:
                reasons[name] = f"{n} samples: fewer than {benchstats.MIN_BEYOND} beyond p{q * 100:g}"
    for m in spec["per_layer"]:
        if m["name"] not in values:
            reasons.setdefault(m["name"], "this workload does not exercise the layer")
    return values, reasons


def check(workload, seed, reps, smoke):
    """Returns the list of correctness problems of a run."""
    problems = []
    for r in reps:
        problems += r["violations"]
    digests = {r["digest"] for r in reps}
    if len(digests) != 1:
        problems.append(f"output digest differs between the {len(reps)} repetitions")
    if len({(r["attempted"], r["failed"]) for r in reps}) != 1:
        problems.append(f"operation counts differ between the {len(reps)} repetitions")
    status, detail = benchstats.check_digest(REF_DIR, workload, seed, reps[0]["digest"])
    if status == "mismatch":
        problems.append(f"digest mismatch against reference: {detail}")
    if smoke is not None and not smoke["match"]:
        problems.append("quick-scale Table 1 differs from bench/golden/table1_quick.csv")
    return problems, status, detail


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = benchstats.validate_benchmark(spec)
    if errors:
        raise BenchError("BENCHMARK.json: " + "; ".join(errors))
    exe = build()

    smoke = None
    if args.workload == "paper_table1":
        smoke = child(exe, ["--smoke", str(GOLDEN)])

    worker_args = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        worker_args.append("--trace")
    reps = repetitions(exe, worker_args, args.seconds)
    problems, status, detail = check(args.workload, args.seed, reps, smoke)

    mode = "traced" if args.trace else "untraced"
    print(f"perfbench {args.workload} seed={args.seed} {mode}: {len(reps)} repetitions "
          f"in {args.seconds:g} s")
    metrics = {}
    if args.trace:
        values, reasons = per_layer(reps, spec)
        for m in spec["per_layer"]:
            name = m["name"]
            if name in values:
                metrics[name] = {"value": values[name], "unit": m["unit"]}
                print(f"  {name:34s} {values[name]:.6g} {m['unit']}")
            else:
                metrics[name] = {"value": 0, "unit": m["unit"]}
                print(f"  {name:34s} n/a ({reasons[name]})")
    else:
        series = end_to_end(reps)
        for m in spec["end_to_end"]:
            q1, q2, q3 = benchstats.quartiles(series[m["name"]])
            metrics[m["name"]] = {"value": q2, "unit": m["unit"]}
            print(f"  {m['name']:34s} {q2:.6g} {m['unit']}  (median of {len(reps)}, "
                  f"quartiles {q1:.6g}..{q3:.6g})")
        for key in reps[0]["info"]:
            got = [r["info"][key] for r in reps if r["info"].get(key) is not None]
            if got:
                print(f"  {key:34s} {benchstats.median(got):.6g}  (median, not gated)")
    errors = benchstats.validate_result_metrics(spec, metrics, bool(args.trace))
    if errors:
        raise BenchError("; ".join(errors))

    # Every repetition replays the same seeded operations (the check above
    # holds them to the same output), so the run attempted one repetition's.
    attempted = reps[0]["attempted"]
    failed = reps[0]["failed"]
    print(f"  operations: {attempted} attempted, {failed} failed, each replayed in "
          f"{len(reps)} repetitions")
    if smoke is not None:
        print(f"  quick Table 1 vs {GOLDEN.relative_to(ROOT)}: "
              f"{'identical' if smoke['match'] else 'DIFFERENT'}")
    print(f"  digest: {status} ({detail}); {len({r['digest'] for r in reps})} distinct over "
          f"{len(reps)} repetitions")
    for p in problems:
        print(f"  INCORRECT: {p}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
