#!/usr/bin/env python3
"""Seed-exact drift check for the perf ledger (run from the repo root).

Runs the four sim_* workloads at --smoke size on each of two seeds, once
untraced for the end-to-end metrics that repeat bit for bit and once with
--trace 1 for the per-layer counts (under "counters"), and compares both
against that seed's section of ci/perf_exact_smoke.json; any difference
fails. `--record` rewrites the file: do that only in a PR that means to
change protocol behaviour, and say so in CHANGES.md.
"""
import json
import subprocess
import sys

GOLDEN = "ci/perf_exact_smoke.json"
SEEDS = ["23", "7"]
WORKLOADS = ["sim_wide", "sim_long", "sim_pervote", "sim_churn"]
EXACT = ["tx_latency_delta_p50", "tx_latency_delta_p95", "wire_bytes_per_block",
         "restart_catchup_delta_max", "decided_share"]
COUNTERS = ["sim.deliveries", "sim.dropped", "sim.executed_ticks",
            "core.forwards", "core.certificates_emitted", "core.unique_messages_seen",
            "core.recovery_broadcasts", "core.audit_repairs",
            "core.sync.requests_sent", "core.sync.responses_served", "core.sync.blocks_fetched",
            "core.sync.parked_total", "core.sync.evicted",
            "crypto.sig_verifies", "crypto.sig_verify_skips", "crypto.vrf_verifies",
            "crypto.agg_verifies", "crypto.agg_verify_skips", "storage.persisted_len"]
CMD = ["cargo", "run", "--release", "--offline", "--quiet", "--manifest-path", "perf/Cargo.toml",
       "--", "--smoke"]


def run(seed, workload, trace):
    args = CMD + ["--seed", seed, "--trace", trace, "--workload", workload]
    out = subprocess.run(args, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def observe(seed):
    observed = {"counters": {}}
    for workload in WORKLOADS:
        result = run(seed, workload, "0")
        observed[workload] = {name: result["metrics"][name]["value"] for name in EXACT}
        observed[workload].update(attempted=result["attempted"], failed=result["failed"])
        traced = run(seed, workload, "1")["metrics"]
        observed["counters"][workload] = {name: traced[name]["value"] for name in COUNTERS}
    return observed


observed = {seed: observe(seed) for seed in SEEDS}
if sys.argv[1:] == ["--record"]:
    with open(GOLDEN, "w") as f:
        json.dump(observed, f, indent=2, sort_keys=True)
        f.write("\n")
    sys.exit(0)
with open(GOLDEN) as f:
    golden = json.load(f)
sections = [(f"{seed}.{w}", golden[seed][w], observed[seed][w])
            for seed in SEEDS for w in WORKLOADS] + [
    (f"{seed}.counters.{w}", golden[seed]["counters"][w], observed[seed]["counters"][w])
    for seed in SEEDS for w in WORKLOADS]
drift = [(section, k, want[k], got[k])
         for section, want, got in sections for k in want if want[k] != got[k]]
for section, k, want, got in drift:
    print(f"DRIFT {section}.{k}: recorded {want!r}, observed {got!r}")
sys.exit(1 if drift else 0)
