//! The ledger's vocabulary: every workload and metric name, with unit
//! and direction. `BENCHMARK.json` declares the same tables; the test
//! suite fails if the two drift apart.

pub const LOWER: &str = "lower";
pub const HIGHER: &str = "higher";

/// `(name, why it exists)`.
pub const WORKLOADS: [(&str, &str); 5] = [
    ("sim_wide", "n=256, 3 views, certificates, worst-case delay: high fan-in receive path (Validator::on_message); chain depth and storage idle"),
    ("sim_long", "n=16, 400 views, certificates, uniform delay: chain-depth path (Validator::on_phase grows with the horizon); fan-in is small, memory-growth workload"),
    ("sim_pervote", "n=64, 8 views, certificates off (the paper's O(L*n^3) forwarding): duplicate-forward flood, dominated by sim-engine heap and delivery"),
    ("sim_churn", "n=32, 150 views, rotating sleep + dropped deliveries + 4 crash/restarts: only workload with faults, cold certificates, fetch plane, RECOVERY and WAL replay"),
    ("tcp_ingest", "3-node localhost TCP cluster with file WAL + fsync, open-loop Poisson clients at 1000/1500/2000 tx/s: real wire decode, sockets, ingest loop, admission"),
];

/// `BENCHMARK.json`'s `run_seconds` and the default of `--seconds`: the
/// simulators' repetition counts are sized to it.
pub const RUN_SECONDS: u64 = 20;

/// The tick `tcp_ingest` runs at. The simulators have no wall clock of
/// their own; they use this one only to state their offered and decided
/// load in the tx/s of the metric names they share with `tcp_ingest`.
pub const NOMINAL_TICK_MS: u64 = 4;

/// `(name, unit, better, bound)`. The bound is the one `BENCHMARK.json`
/// declares: one number per metric, which the benchmark driver applies
/// to every workload and across seeds, so it is set by the noisiest
/// workload that prints the metric. The bound ISSUE 11 gives each
/// (metric, workload) pair is [`gate`].
pub const END_TO_END: [(&str, &str, &str, f64); 13] = [
    ("setup_s", "s", LOWER, 0.25),
    ("wall_ms_per_block", "ms", LOWER, 0.25),
    ("tx_latency_delta_p50", "delta", LOWER, 0.15),
    ("tx_latency_delta_p95", "delta", LOWER, 0.15),
    ("wire_bytes_per_block", "B", LOWER, 0.15),
    ("restart_catchup_delta_max", "delta", LOWER, 0.10),
    ("decided_share", "ratio", HIGHER, 0.01),
    ("peak_rss_mib", "MiB", LOWER, 0.10),
    ("submit_to_decided_ms_p50", "ms", LOWER, 0.25),
    ("submit_to_decided_ms_p99", "ms", LOWER, 0.25),
    ("max_rate_under_limit_tx_s", "tx/s", HIGHER, 0.10),
    ("decided_tx_per_s", "tx/s", HIGHER, 0.05),
    ("cpu_ms_per_decided_tx", "ms", LOWER, 0.25),
];

/// How the ledger's own comparison (`--self-check`) treats one
/// (metric, workload) pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Gate {
    /// Determined by the seed alone: two runs must agree bit for bit.
    Exact,
    /// May get worse by this share of the first run.
    Rel(f64),
    /// May get worse by this much in absolute terms.
    Abs(f64),
    /// Not a pair ISSUE 11 defines. The workload prints the nearest
    /// thing it can measure because the driver wants every end-to-end
    /// metric from every workload; the ledger never gates on it.
    Analogue,
}

/// ISSUE 11's "on" and "bound" columns.
pub fn gate(metric: &str, workload: &str) -> Gate {
    let sim = workload.starts_with("sim_");
    match metric {
        "setup_s" | "peak_rss_mib" => Gate::Rel(0.10),
        "decided_share" if sim => Gate::Exact,
        "decided_share" => Gate::Abs(0.01),
        "wall_ms_per_block" if sim => Gate::Rel(0.10),
        "tx_latency_delta_p50" | "wire_bytes_per_block" if sim => Gate::Exact,
        "tx_latency_delta_p95" if matches!(workload, "sim_long" | "sim_churn") => Gate::Exact,
        "restart_catchup_delta_max" if workload == "sim_churn" => Gate::Exact,
        "submit_to_decided_ms_p50" | "submit_to_decided_ms_p99" | "decided_tx_per_s" if !sim => {
            Gate::Rel(0.05)
        }
        "max_rate_under_limit_tx_s" if !sim => Gate::Exact,
        "cpu_ms_per_decided_tx" if !sim => Gate::Rel(0.10),
        _ => Gate::Analogue,
    }
}

/// `(name, unit, better)`; the prefix is the crate/module measured.
pub const PER_LAYER: [(&str, &str, &str); 66] = [
    ("core.on_message_ns_per_call", "ns", LOWER),
    ("core.on_message_share", "ratio", LOWER),
    ("core.on_phase_ns_per_call", "ns", LOWER),
    ("core.on_phase_share", "ratio", LOWER),
    ("core.on_wake_ns_per_call", "ns", LOWER),
    ("core.recovery_broadcasts", "count", LOWER),
    ("core.audit_repairs", "count", LOWER),
    ("core.certificates_emitted", "count", LOWER),
    ("core.forwards", "count", LOWER),
    ("core.unique_messages_seen", "count", LOWER),
    ("core.sync.resolve_ns", "ns", LOWER),
    ("core.sync.requests_sent", "count", LOWER),
    ("core.sync.responses_served", "count", LOWER),
    ("core.sync.blocks_fetched", "count", LOWER),
    ("core.sync.parked_total", "count", LOWER),
    ("core.sync.evicted", "count", LOWER),
    ("sim.engine_self_ns_per_delivery", "ns", LOWER),
    ("sim.engine_self_share", "ratio", LOWER),
    ("sim.deliveries", "count", LOWER),
    ("sim.dropped", "count", LOWER),
    ("sim.executed_ticks", "count", LOWER),
    ("sim.gossip.on_receive_ns", "ns", LOWER),
    ("sim.gossip.dup_ratio", "ratio", LOWER),
    ("sim.mempool.admit_ns", "ns", LOWER),
    ("sim.mempool.pending_for_ns", "ns", LOWER),
    ("sim.mempool.prune_ns", "ns", LOWER),
    ("sim.trace_overhead_ratio", "ratio", LOWER),
    ("types.store.append_ns", "ns", LOWER),
    ("types.store.lca_ns", "ns", LOWER),
    ("types.store.chain_range_ns", "ns", LOWER),
    ("types.store.txs_on_chain_ns", "ns", LOWER),
    ("types.wire.encode_ns_per_msg", "ns", LOWER),
    ("types.wire.decode_ns_per_msg", "ns", LOWER),
    ("types.wire.encoded_len_ns_per_msg", "ns", LOWER),
    ("types.wire.bytes_per_msg", "B", LOWER),
    ("crypto.sign_ns", "ns", LOWER),
    ("crypto.sig_verify_ns", "ns", LOWER),
    ("crypto.vrf_verify_ns", "ns", LOWER),
    ("crypto.agg_build_ns_per_signer", "ns", LOWER),
    ("crypto.agg_verify_ns_per_signer", "ns", LOWER),
    ("crypto.sig_verifies", "count", LOWER),
    ("crypto.sig_verify_skips", "count", HIGHER),
    ("crypto.vrf_verifies", "count", LOWER),
    ("crypto.agg_verifies", "count", LOWER),
    ("crypto.agg_verify_skips", "count", HIGHER),
    ("crypto.verify_skip_ratio", "ratio", HIGHER),
    ("ga.on_log_ns", "ns", LOWER),
    ("ga.on_phase_ns", "ns", LOWER),
    ("ga.highest_supported_ns", "ns", LOWER),
    ("storage.append_sync_us_per_block", "us", LOWER),
    ("storage.load_replay_us_per_block", "us", LOWER),
    ("storage.wal_bytes_per_block", "B", LOWER),
    ("storage.persisted_len", "count", HIGHER),
    ("runtime.submit_to_ack_us_p50", "us", LOWER),
    ("runtime.submit_to_ack_us_p99", "us", LOWER),
    ("runtime.ack_to_decided_ms_p50", "ms", LOWER),
    ("runtime.frames_in", "count", LOWER),
    ("runtime.frames_out", "count", LOWER),
    ("runtime.announce_bytes_out", "B", LOWER),
    ("runtime.sync_bytes_out", "B", LOWER),
    ("runtime.sessions_peak", "count", LOWER),
    ("runtime.buffer_bytes_peak", "B", LOWER),
    ("runtime.pending_peak", "count", LOWER),
    ("runtime.busy_acks", "count", LOWER),
    ("runtime.cpu_ms_per_s_idle", "ms/s", LOWER),
    ("runtime.generator_late_ticks_max", "count", LOWER),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|(n, u, _, _)| (*n, *u))
        .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn field<'a>(entry: &'a Value, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("missing {key}"))
    }

    /// `BENCHMARK.json` and the tables above are one vocabulary.
    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS as f64)
        );

        let workloads = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads");
        let declared: Vec<(&str, &str)> = workloads
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        assert_eq!(declared, WORKLOADS);

        let end_to_end = doc
            .get("end_to_end")
            .and_then(Value::as_array)
            .expect("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, (name, unit, better, bound)) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(
                (
                    field(entry, "name"),
                    field(entry, "unit"),
                    field(entry, "better")
                ),
                (name, unit, better)
            );
            assert_eq!(
                entry.get("bound").and_then(Value::as_f64),
                Some(bound),
                "{name}"
            );
            assert!(bound > 0.0 && bound <= 0.25, "{name}: bound out of range");
        }
        assert_eq!(
            END_TO_END.iter().filter(|(n, ..)| *n == "setup_s").count(),
            1
        );

        let per_layer = doc
            .get("per_layer")
            .and_then(Value::as_array)
            .expect("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, (name, unit, better)) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(
                (
                    field(entry, "name"),
                    field(entry, "unit"),
                    field(entry, "better")
                ),
                (name, unit, better)
            );
        }
    }

    /// The ledger gates the pairs of ISSUE 11's table and nothing else.
    #[test]
    fn every_metric_is_native_somewhere_and_analogue_pairs_are_not_gated() {
        let native = |metric: &str| -> Vec<&str> {
            WORKLOADS
                .iter()
                .map(|(w, _)| *w)
                .filter(|w| gate(metric, w) != Gate::Analogue)
                .collect()
        };
        for (name, ..) in END_TO_END {
            assert!(!native(name).is_empty(), "{name} is native nowhere");
        }
        assert_eq!(native("setup_s").len(), 5);
        assert_eq!(native("tx_latency_delta_p95"), ["sim_long", "sim_churn"]);
        assert_eq!(native("restart_catchup_delta_max"), ["sim_churn"]);
        assert_eq!(native("decided_tx_per_s"), ["tcp_ingest"]);
        assert_eq!(gate("wire_bytes_per_block", "sim_wide"), Gate::Exact);
        assert_eq!(gate("decided_share", "tcp_ingest"), Gate::Abs(0.01));
        let pairs: usize = END_TO_END.iter().map(|(n, ..)| native(n).len()).sum();
        assert_eq!(pairs, 5 + 4 + 4 + 2 + 4 + 1 + 5 + 5 + 5);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        names.extend(END_TO_END.iter().map(|(n, ..)| *n));
        names.extend(PER_LAYER.iter().map(|(n, ..)| *n));
        for name in &names {
            assert!(
                name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for (_, unit, _, _) in END_TO_END {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }
}
