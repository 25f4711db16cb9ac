"""Statistics, digest gate and metric-name rules shared by run.py and its tests."""

import math
import re
import statistics
from pathlib import Path

MIN_BEYOND = 10

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile, as statistics.quantiles gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_share(values):
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def beyond(n, q):
    """Samples strictly beyond the nearest-rank q-quantile of n samples."""
    return n - max(1, math.ceil(q * n))


def supported(n, q):
    """True when the q-quantile of n samples has at least MIN_BEYOND samples beyond it."""
    return n > 0 and beyond(n, q) >= MIN_BEYOND


def percentile(samples, q):
    """The nearest-rank q-quantile of the samples, or None when fewer than
    MIN_BEYOND samples lie beyond it."""
    if not supported(len(samples), q):
        return None
    return sorted(samples)[max(1, math.ceil(q * len(samples))) - 1]


# --- Digest gate --------------------------------------------------------------------


def reference_path(ref_dir, workload, seed):
    return Path(ref_dir) / f"{workload}.{seed}.digest"


def check_digest(ref_dir, workload, seed, digest):
    """Compares a run's output digest with the stored reference for its seed.

    Returns (status, detail): status is "match", "mismatch" or "no-reference".
    """
    path = reference_path(ref_dir, workload, seed)
    if not path.exists():
        return "no-reference", f"no stored reference for seed {seed}"
    expected = path.read_text()
    if expected == digest:
        return "match", str(path.name)
    for want, got in zip(expected.splitlines(), digest.splitlines()):
        if want != got:
            return "mismatch", f"expected '{want}', got '{got}'"
    return "mismatch", "digests differ in length"


# --- Metric-name validation ----------------------------------------------------------


def validate_benchmark(spec):
    """Checks BENCHMARK.json against the benchmark contract; returns a list of errors."""
    errors = []
    if set(spec) != BENCHMARK_KEYS:
        errors.append(f"keys {sorted(spec)} != {sorted(BENCHMARK_KEYS)}")
        return errors
    seen = set()

    def name_ok(name, where):
        if not isinstance(name, str) or not NAME_RE.match(name):
            errors.append(f"{where}: bad name {name!r}")
        elif name in seen:
            errors.append(f"{where}: duplicate name {name!r}")
        seen.add(name)

    if not 2 <= len(spec["workloads"]) <= 8:
        errors.append("workloads: need 2 to 8")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"}:
            errors.append(f"workload {w}: keys must be name, why")
            continue
        name_ok(w["name"], "workload")
        if "\n" in w["why"] or len(w["why"]) > 200:
            errors.append(f"workload {w['name']}: why must be one line of at most 200 characters")
    if not 1 <= len(spec["end_to_end"]) <= 16:
        errors.append("end_to_end: need 1 to 16")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"}:
            errors.append(f"end_to_end {m}: keys must be name, unit, better, bound")
            continue
        name_ok(m["name"], "end_to_end")
        if not 0 < m["bound"] <= 0.25:
            errors.append(f"end_to_end {m['name']}: bound must be in (0, 0.25]")
    if not any(
        m.get("name") == "setup_s" and m.get("unit") == "s" and m.get("better") == "lower"
        for m in spec["end_to_end"]
    ):
        errors.append("end_to_end: setup_s (s, lower) is required")
    if not 1 <= len(spec["per_layer"]) <= 128:
        errors.append("per_layer: need 1 to 128")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            errors.append(f"per_layer {m}: keys must be name, unit, better")
            continue
        name_ok(m["name"], "per_layer")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT_RE.match(str(m.get("unit", ""))):
            errors.append(f"{m.get('name')}: bad unit {m.get('unit')!r}")
        if m.get("better") not in ("lower", "higher"):
            errors.append(f"{m.get('name')}: better must be lower or higher")
    if not isinstance(spec["run_seconds"], int) or not 1 <= spec["run_seconds"] <= 60:
        errors.append("run_seconds: whole number from 1 to 60")
    return errors


def validate_result_metrics(spec, metrics, trace):
    """Checks a result's metric names and units against BENCHMARK.json."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    errors = []
    if set(metrics) != set(want):
        missing = sorted(set(want) - set(metrics))
        extra = sorted(set(metrics) - set(want))
        errors.append(f"metric names differ: missing {missing}, undeclared {extra}")
    for name, entry in metrics.items():
        if name in want and entry.get("unit") != want[name]:
            errors.append(f"{name}: unit {entry.get('unit')!r} != declared {want[name]!r}")
        if not isinstance(entry.get("value"), (int, float)) or isinstance(entry.get("value"), bool):
            errors.append(f"{name}: value is not a number")
    return errors
