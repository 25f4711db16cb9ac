#!/usr/bin/env python3
"""Renders the EXPERIMENTS.md delta table between two sides of BENCH files.

    tools/bench_delta.py OLD[:SIDE] NEW[:SIDE] [--trace 0|1]

A BENCH file (bench/results/BENCH_<label>.json) records the final JSON
line of `python3 perfbench/run.py` for every run of one round of measurements,
each tagged with the side it measured ("parent" or "change"), the workload,
the seed and the trace mode. SIDE picks the runs of one side (default
"change"), so a change is compared with its parent through one file
(`BENCH_x.json:parent BENCH_x.json:change`) and the performance trajectory
across changes through two (`BENCH_x.json BENCH_y.json`).

For every (workload, seed) both sides ran, the table gives each metric's
median and quartiles over the runs, the change of the median, and -- when
both sides ran the same number of times, in alternating pairs -- how many
pairs the new side won. "Better" is the direction BENCHMARK.json declares
for the metric. Failed operation counts and the correctness flag head each
table, so a speedup bought with failures shows.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_side(spec):
    """Returns (label, runs) for a FILE[:SIDE] argument."""
    path, _, side = spec.partition(":")
    side = side or "change"
    bench = json.loads(Path(path).read_text())
    runs = [r for r in bench["runs"] if r["side"] == side]
    if not runs:
        raise SystemExit(f"bench_delta: {path} has no runs of side '{side}'")
    return f"{bench['label']}:{side}", runs


def directions():
    """Metric name -> 'lower' or 'higher', from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def summary(values):
    """'median [q1, q3]' of a sample (the median alone for one value)."""
    med = statistics.median(values)
    if len(values) < 2:
        return fmt(med)
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{fmt(med)} [{fmt(q1)}, {fmt(q3)}]"


def fmt(v):
    if v == 0:
        return "0"
    if abs(v) >= 1000:
        return f"{v / 1000:.1f}k"
    return f"{v:.4g}"


def group(runs, trace):
    """(workload, seed) -> runs of the given trace mode, in file order."""
    out = {}
    for r in runs:
        if r["trace"] == trace:
            out.setdefault((r["workload"], r["seed"]), []).append(r)
    return out


def table(key, old_runs, new_runs, better):
    workload, seed = key
    lines = [f"`{workload}`, seed {seed} ({len(old_runs)} vs {len(new_runs)} runs):", ""]
    paired = len(old_runs) == len(new_runs) and len(old_runs) > 1
    lines.append("| metric | old | new | delta |" + (" wins |" if paired else ""))
    lines.append("|---|---|---|---|" + ("---|" if paired else ""))

    def counts(runs):
        return {(r["result"]["attempted"], r["result"]["failed"], r["result"]["correct"])
                for r in runs}

    def describe(c):
        return ", ".join(f"{f}/{a}{'' if ok else ' INCORRECT'}" for a, f, ok in sorted(c))

    lines.append(f"| failed/attempted | {describe(counts(old_runs))} | "
                 f"{describe(counts(new_runs))} | |" + (" |" if paired else ""))
    names = [n for n in old_runs[0]["result"]["metrics"] if n in new_runs[0]["result"]["metrics"]]
    for name in names:
        old = [r["result"]["metrics"][name]["value"] for r in old_runs]
        new = [r["result"]["metrics"][name]["value"] for r in new_runs]
        old_med, new_med = statistics.median(old), statistics.median(new)
        delta = f"{100.0 * (new_med - old_med) / old_med:+.1f}%" if old_med else "n/a"
        row = f"| {name} | {summary(old)} | {summary(new)} | {delta} |"
        if paired:
            lower = better.get(name, "lower") == "lower"
            wins = sum(1 for o, n in zip(old, new) if (n < o if lower else n > o))
            row += f" {wins}/{len(old)} |"
        lines.append(row)
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="FILE[:SIDE], the baseline")
    parser.add_argument("new", help="FILE[:SIDE], the compared side")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="compare untraced end-to-end runs (0) or traced per-layer runs (1)")
    args = parser.parse_args(argv)

    old_label, old_runs = load_side(args.old)
    new_label, new_runs = load_side(args.new)
    old_groups, new_groups = group(old_runs, args.trace), group(new_runs, args.trace)
    keys = [k for k in old_groups if k in new_groups]
    if not keys:
        raise SystemExit("bench_delta: the two sides share no (workload, seed) at this trace mode")
    better = directions()
    print(f"old = {old_label}, new = {new_label}; median [first quartile, third quartile]\n")
    print("\n\n".join(table(k, old_groups[k], new_groups[k], better) for k in keys))
    return 0


if __name__ == "__main__":
    sys.exit(main())
