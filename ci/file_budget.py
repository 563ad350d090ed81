#!/usr/bin/env python3
"""File-size ratchet (run from the repo root).

Counts each Rust source file's non-test lines: every line before its first
`#[cfg(test)]`. The files are those under `crates/*/src` and `src/`, so
`vendor/` and `perf/` are never counted. A file over LIMIT lines must be
listed in ci/file_budget.txt ("<path> <ceiling>" per line), and a listed
file's count must equal its ceiling. Any breach fails: a listed file over
its ceiling, under it (the stale ceiling must be lowered to the new count
in the same change), or at LIMIT or below (its line must be deleted).
"""
import glob
import sys

BUDGET = "ci/file_budget.txt"
LIMIT = 600
PATTERNS = ["crates/*/src/**/*.rs", "src/**/*.rs"]


def non_test_lines(path):
    count = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip().startswith("#[cfg(test)]"):
                break
            count += 1
    return count


with open(BUDGET) as f:
    ceilings = {path: int(ceiling) for path, ceiling in (line.split() for line in f if line.strip())}
files = sorted({p for pattern in PATTERNS for p in glob.glob(pattern, recursive=True)})
breaches = []
for path in files:
    lines = non_test_lines(path)
    ceiling = ceilings.get(path)
    if ceiling is None:
        if lines > LIMIT:
            breaches.append(f"OVER BUDGET {path}: {lines} non-test lines, unlisted, limit {LIMIT}")
    elif lines > ceiling:
        breaches.append(f"OVER BUDGET {path}: {lines} non-test lines, ceiling {ceiling}")
    elif lines <= LIMIT:
        breaches.append(f"DELIST {path}: {lines} non-test lines, at or under {LIMIT}")
    elif lines < ceiling:
        breaches.append(f"STALE CEILING {path}: {lines} non-test lines, ceiling {ceiling}")
breaches += [f"MISSING {path}: listed in {BUDGET} but not found" for path in ceilings if path not in files]
for breach in breaches:
    print(breach)
sys.exit(1 if breaches else 0)
