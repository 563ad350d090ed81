#!/usr/bin/env python3
"""Seed-exact drift check for the perf ledger (run from the repo root).

Runs the four sim_* workloads at --smoke size on one seed and compares the
metrics that repeat bit for bit against ci/perf_exact_smoke.json; any
difference fails. `--record` rewrites the file: do that only in a PR that
means to change protocol behaviour, and say so in CHANGES.md.
"""
import json
import subprocess
import sys

GOLDEN = "ci/perf_exact_smoke.json"
WORKLOADS = ["sim_wide", "sim_long", "sim_pervote", "sim_churn"]
EXACT = ["tx_latency_delta_p50", "tx_latency_delta_p95", "wire_bytes_per_block",
         "restart_catchup_delta_max", "decided_share"]
CMD = ["cargo", "run", "--release", "--offline", "--quiet", "--manifest-path", "perf/Cargo.toml",
       "--", "--smoke", "--seed", "23", "--trace", "0", "--workload"]

observed = {}
for workload in WORKLOADS:
    out = subprocess.run(CMD + [workload], check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    observed[workload] = {name: result["metrics"][name]["value"] for name in EXACT}
    observed[workload].update(attempted=result["attempted"], failed=result["failed"])

if sys.argv[1:] == ["--record"]:
    with open(GOLDEN, "w") as f:
        json.dump(observed, f, indent=2, sort_keys=True)
        f.write("\n")
    sys.exit(0)
with open(GOLDEN) as f:
    golden = json.load(f)
drift = [(w, k, golden[w][k], observed[w][k])
         for w in WORKLOADS for k in golden[w] if golden[w][k] != observed[w][k]]
for w, k, want, got in drift:
    print(f"DRIFT {w}.{k}: recorded {want!r}, observed {got!r}")
sys.exit(1 if drift else 0)
