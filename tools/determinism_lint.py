#!/usr/bin/env python3
"""Determinism lint for the sanperf simulation core (src/).

The simulator's contract is bit-identical output for a given seed at any
thread count. That dies quietly the moment simulation code reads a wall
clock, pulls entropy from outside the seed plumbing, iterates an
unordered container into a result, or shares RNG state across shard
tasks. This lint bans those constructs in src/ outright; the few
sanctioned sites (the seed plumbing itself, the replication runner) are
allow-listed by path, and anything else needs an explicit waiver comment:

    // det-lint: allow(<rule>) <reason>

on the offending line or the line above it. Run from anywhere:

    python3 tools/determinism_lint.py [--root REPO_ROOT]

Exit status 0 = clean, 1 = findings (one "file:line: [rule] ..." per
line), 2 = usage error.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

# Each rule: id, human rationale, regex, and path prefixes (relative to
# src/) where the construct is the sanctioned implementation.
RULES = [
    {
        "id": "libc-rand",
        "why": "libc rand/srand is hidden global state outside the seed tree",
        "re": re.compile(r"\b(?:s?rand|rand_r|drand48|lrand48|random)\s*\("),
        "allow_paths": (),
    },
    {
        "id": "random-device",
        "why": "std::random_device draws OS entropy; all randomness must come "
               "from the master seed",
        "re": re.compile(r"std::random_device"),
        "allow_paths": ("des/random.hpp", "des/random.cpp"),
    },
    {
        "id": "raw-engine",
        "why": "raw <random> engines bypass SeedSplitter substreams; use "
               "des::RandomEngine",
        "re": re.compile(r"std::(?:mt19937(?:_64)?|minstd_rand0?|ranlux\d+(?:_48)?|"
                         r"knuth_b|default_random_engine)\b"),
        # No exception: des::RandomEngine runs on its own Mt64.
        "allow_paths": (),
    },
    {
        "id": "wall-clock",
        "why": "wall-clock reads leak host time into simulated results",
        "re": re.compile(r"std::chrono::(?:system_clock|steady_clock|high_resolution_clock)"
                         r"|\bgettimeofday\s*\(|\bclock_gettime\s*\(|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)"
                         r"|\blocaltime(?:_r)?\s*\(|\bgmtime(?:_r)?\s*\("),
        "allow_paths": (),
    },
    {
        "id": "unordered-container",
        "why": "hash-ordered iteration depends on pointer/hash layout; any walk "
               "that touches results is nondeterministic -- use std::map/set, or "
               "waive lookup-only tables",
        "re": re.compile(r"std::unordered_(?:map|set|multimap|multiset)\b"),
        "allow_paths": (),
    },
    {
        "id": "thread-outside-runner",
        "why": "ad-hoc threads bypass the seed-split ReplicationRunner; all "
               "parallelism must fan out through it",
        "re": re.compile(r"std::(?:jthread|thread|async)\b"),
        "allow_paths": ("core/replication.hpp", "core/replication.cpp"),
    },
    {
        "id": "shared-rng",
        "why": "static/thread_local RNG state is shared across shard tasks and "
               "breaks per-task substream isolation",
        "re": re.compile(r"(?:static|thread_local)\s+(?:[\w:]+\s+)*?"
                         r"(?:des::)?Random(?:Engine|Stream)\b"),
        "allow_paths": (),
    },
]

WAIVER = re.compile(r"det-lint:\s*allow\(([\w-]+)\)")
LINE_COMMENT = re.compile(r"//.*$")


def strip_strings(line: str) -> str:
    """Blank out string/char literal contents so 'rand(' in a message is not a hit."""
    out = []
    quote = None
    i = 0
    while i < len(line):
        c = line[i]
        if quote:
            if c == "\\":
                i += 2
                continue
            if c == quote:
                quote = None
                out.append(c)
            i += 1
            continue
        if c in "\"'":
            quote = c
        out.append(c)
        i += 1
    return "".join(out)


def waivers_for(lines: list[str], idx: int) -> set[str]:
    waived = set(WAIVER.findall(lines[idx]))
    if idx > 0:
        waived |= set(WAIVER.findall(lines[idx - 1]))
    return waived


def lint_file(path: pathlib.Path, rel: str) -> list[str]:
    findings = []
    lines = path.read_text(encoding="utf-8").splitlines()
    in_block_comment = False
    for idx, raw in enumerate(lines):
        line = raw
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2:]
            in_block_comment = False
        start = line.find("/*")
        while start >= 0:
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block_comment = True
                break
            line = line[:start] + line[end + 2:]
            start = line.find("/*")
        code = strip_strings(LINE_COMMENT.sub("", line))
        if not code.strip():
            continue
        for rule in RULES:
            if any(rel.startswith(p) for p in rule["allow_paths"]):
                continue
            if not rule["re"].search(code):
                continue
            if rule["id"] in waivers_for(lines, idx):
                continue
            findings.append(f"{path}:{idx + 1}: [{rule['id']}] {rule['why']}")
    return findings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="repository root (default: the tree this script lives in)")
    args = parser.parse_args()

    src = args.root / "src"
    if not src.is_dir():
        print(f"determinism_lint: no src/ under {args.root}", file=sys.stderr)
        return 2

    findings = []
    for path in sorted(src.rglob("*")):
        if path.suffix not in {".cpp", ".hpp", ".h", ".cc"}:
            continue
        rel = path.relative_to(src).as_posix()
        findings.extend(lint_file(path, rel))

    for finding in findings:
        print(finding)
    if findings:
        print(f"determinism_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"determinism_lint: clean ({sum(1 for _ in src.rglob('*.cpp'))} .cpp, "
          f"{sum(1 for _ in src.rglob('*.hpp'))} .hpp files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
