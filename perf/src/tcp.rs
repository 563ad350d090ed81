//! `tcp_ingest`: a 3-node cluster on localhost TCP with file-backed
//! WALs, driven open-loop at three fixed rates.
//!
//! The generator is one thread (this one) with two connections to node
//! 0 — the box has two cores and the cluster needs one. It is open
//! loop: every submission has a *due* tick fixed by the schedule,
//! latency is counted from that tick whether or not the generator (or a
//! stalled socket) sent it late, and how late the generator ran is
//! reported. Submissions stop a drain window before the run ends; what
//! is still undecided then is a failure, not a missing sample.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use tob_svd::runtime::{ClientConn, ClusterConfig, ClusterReport, LocalCluster, NodeOutcome};
use tob_svd::sim::{OpenLoopSpec, OpenLoopWorkload};
use tob_svd::storage::{replay_into, DurableStore, FileDurable};
use tob_svd::types::client::AckStatus;
use tob_svd::types::{BlockStore, Time, TxId, ValidatorId};

use crate::probes::{self, ProbeInput};
use crate::stats::{max_of, median, Sample};
use crate::{proc, sims, spec, Outcome};

pub const TICK_MS: u64 = spec::NOMINAL_TICK_MS;
const NODES: usize = 3;
/// `ClusterConfig`'s Δ = 4 ticks and a view is 4Δ.
const DELTA_TICKS: u64 = 4;
const VIEW_TICKS: u64 = 4 * DELTA_TICKS;
const TX_BYTES: u32 = 64;
const CONNECTIONS: usize = 2;
/// Offered rates, tx/s. At a 4 ms tick: a mean of 4, 6 and 8 per tick.
const RATES: [u64; 3] = [1000, 1500, 2000];
/// A rate is sustained when its p99 meets this limit …
const LIMIT_MS: f64 = 1000.0;
/// … and at most this share of its submissions failed.
const LIMIT_FAILED_SHARE: f64 = 0.01;

struct TierPlan {
    rate_tx_s: u64,
    views: u64,
    /// Views at the end of the run without submissions.
    drain_views: u64,
}

/// Per-transaction span, all sharing the tx id: due → sent → acked →
/// decided. (`proposed` and `durable` happen inside the nodes and are
/// not observable from outside.)
#[derive(Clone, Copy)]
struct TxSpan {
    due_tick: u64,
    sent: Option<Instant>,
    acked: Option<Instant>,
}

struct Tier {
    rate_tx_s: u64,
    /// Spawn → tick 0.
    setup_s: f64,
    /// Tick 0 → every node joined.
    wall_s: f64,
    run_s: f64,
    submitted: u64,
    acks: BTreeMap<&'static str, u64>,
    closed_conns: u64,
    /// Due → decided at node 0, ms; decided submissions only.
    latency_ms: Sample,
    late_ticks_max: u64,
    /// Process CPU over the run minus the generator thread's own.
    cluster_cpu_ms: f64,
    blocks: u64,
    wire_bytes: u64,
    /// Spawn (tick 0) → first decision, in Δ, per node.
    first_decision_deltas: Vec<f64>,
    node0: NodeOutcome,
    spans: Vec<(TxId, TxSpan, Option<u64>)>,
    epoch: Instant,
    /// The process's `VmHWM` when the tier ended. Memory of finished
    /// tiers is not returned to the kernel, so only the first tier's
    /// reading is the footprint of one cluster under load.
    peak_rss_mib: f64,
}

impl Tier {
    fn decided(&self) -> u64 {
        self.latency_ms.len() as u64
    }

    fn failed_share(&self) -> f64 {
        (self.submitted - self.decided()) as f64 / self.submitted.max(1) as f64
    }

    /// Latencies are whole ticks: percentiles interpolate inside the
    /// tick they fall in.
    fn latency_percentile_ms(&self, p: f64) -> f64 {
        self.latency_ms.quantised_percentile(p, TICK_MS as f64)
    }

    fn sustained(&self) -> bool {
        self.latency_percentile_ms(0.99) <= LIMIT_MS && self.failed_share() <= LIMIT_FAILED_SHARE
    }

    fn describe(&self) -> String {
        format!(
            "r{}: submitted={} decided={} failed_share={:.4} acks={:?} closed={} blocks={} latency {} late_ticks_max={} cluster_cpu={:.0}ms/{:.2}s rss_peak_so_far={:.1}MiB",
            self.rate_tx_s,
            self.submitted,
            self.decided(),
            self.failed_share(),
            self.acks,
            self.closed_conns,
            self.blocks,
            self.latency_ms.describe("ms"),
            self.late_ticks_max,
            self.cluster_cpu_ms,
            self.run_s,
            self.peak_rss_mib,
        )
    }
}

/// Seeded Poisson arrival counts (splitmix64 uniforms, Knuth's product
/// method — the means here are single digits).
struct ArrivalCounts {
    state: u64,
    /// `e^-mean`: stop multiplying uniforms once the product is below it.
    floor: f64,
}

impl ArrivalCounts {
    fn new(seed: u64, mean: f64) -> Self {
        ArrivalCounts {
            state: seed ^ 0xa076_1d64_78bd_642f,
            floor: (-mean).exp(),
        }
    }

    fn uniform(&mut self) -> f64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn next_count(&mut self) -> u64 {
        let (mut count, mut product) = (0, self.uniform());
        while product > self.floor {
            count += 1;
            product *= self.uniform();
        }
        count
    }
}

fn connect(addr: std::net::SocketAddr, client: u64) -> ClientConn {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match ClientConn::connect(addr, client) {
            Ok(conn) => return conn,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(2)),
            Err(e) => panic!("client connect to {addr}: {e}"),
        }
    }
}

/// Runs one tier. Any failed correctness check aborts the whole run:
/// there is no retry and no result line. (The protocol is safe in a
/// synchronous network; a host that suspends a node's thread for longer
/// than Δ = 16 ms breaks that assumption, and a run it breaks is a run
/// without a result, never a run that reads `correct`.)
fn run_tier(plan: &TierPlan, seed: u64, trace: bool, data_root: &Path) -> Tier {
    let _ = std::fs::remove_dir_all(data_root);
    let cfg = ClusterConfig::new(NODES)
        .views(plan.views)
        .tick(Duration::from_millis(TICK_MS))
        .warmup(Duration::from_millis(100))
        .data_root(data_root);
    assert_eq!(
        cfg.delta.ticks(),
        DELTA_TICKS,
        "ClusterConfig's Δ changed; fix DELTA_TICKS"
    );
    let t_spawn = Instant::now();
    let cluster = LocalCluster::spawn(cfg).expect("cluster spawns");
    let v0 = ValidatorId::new(0);
    let addr = cluster.addr_of(v0).expect("node 0 listens");
    let clock = cluster.clock();
    let run_ticks = cluster.run_ticks();
    let submit_end = (plan.views - plan.drain_views) * VIEW_TICKS;
    let mut conns: Vec<ClientConn> = (0..CONNECTIONS as u64).map(|c| connect(addr, c)).collect();

    // Who submits what comes from the library's open-loop generator
    // (one arrival per call); how many submit in a tick is Poisson with
    // the tier's mean, as independent users are.
    let mut gen = OpenLoopWorkload::new(
        OpenLoopSpec {
            rate_milli: 1_000,
            burst_every: 0,
            tx_bytes: TX_BYTES,
            ..OpenLoopSpec::default()
        },
        seed,
    );
    let mut arrivals = ArrivalCounts::new(seed, (plan.rate_tx_s * TICK_MS) as f64 / 1e3);
    let mut spans: BTreeMap<TxId, TxSpan> = BTreeMap::new();
    let mut acks: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut pump = |conns: &mut [ClientConn], spans: &mut BTreeMap<TxId, TxSpan>| {
        for conn in conns.iter_mut().filter(|c| !c.is_closed()) {
            // An I/O error leaves the connection closed; its unsent and
            // unacked submissions end up undecided, i.e. failed.
            for ack in conn.pump().unwrap_or_default() {
                let status = match ack.status {
                    AckStatus::Accepted => "accepted",
                    AckStatus::Duplicate => "duplicate",
                    AckStatus::Busy => "busy",
                    AckStatus::RateLimited => "rate_limited",
                };
                *acks.entry(status).or_insert(0) += 1;
                if trace {
                    if let Some(span) = spans.get_mut(&ack.tx) {
                        span.acked = Some(Instant::now());
                    }
                }
            }
        }
    };

    clock.wait_for(0);
    let setup_s = t_spawn.elapsed().as_secs_f64();
    let t_run = Instant::now();
    let (cpu0, gen_cpu0) = (proc::process_cpu_ms(), proc::thread_cpu_ms());
    let mut late_ticks_max = 0;
    for tick in 0..submit_end {
        clock.wait_for(tick);
        late_ticks_max = late_ticks_max.max(clock.now_tick().ticks().saturating_sub(tick));
        for _ in 0..arrivals.next_count() {
            let arrival = gen
                .tick(Time::new(tick))
                .pop()
                .expect("one arrival per call");
            let conn = &mut conns[(arrival.user % CONNECTIONS as u64) as usize];
            let id = conn.submit(arrival.fee, arrival.tx.payload().to_vec());
            let sent = trace.then(Instant::now);
            let fresh = spans
                .insert(
                    id,
                    TxSpan {
                        due_tick: tick,
                        sent,
                        acked: None,
                    },
                )
                .is_none();
            assert!(fresh, "the generator repeated a transaction");
        }
        pump(&mut conns, &mut spans);
    }
    // Connections the node closed while there was still load to send
    // (at the end of the run every node closes its listener anyway).
    let closed_conns = conns.iter().filter(|c| c.is_closed()).count() as u64;
    while clock.now_tick().ticks() < run_ticks {
        pump(&mut conns, &mut spans);
        std::thread::sleep(Duration::from_millis(1));
    }
    pump(&mut conns, &mut spans);
    drop(conns);
    let report = cluster.join().expect("cluster joins");
    let wall_s = t_run.elapsed().as_secs_f64();
    let cluster_cpu_ms = (proc::process_cpu_ms() - cpu0) - (proc::thread_cpu_ms() - gen_cpu0);

    let outcomes = check_cluster(&report, data_root).unwrap_or_else(|why| {
        panic!(
            "r{}: {why} (generator late by up to {late_ticks_max} ticks; Δ = {DELTA_TICKS})",
            plan.rate_tx_s
        )
    });
    let node0 = outcomes[0].clone();
    let decided = report.decided_tx_ticks(v0);
    let latency_ms = Sample::new(
        spans
            .iter()
            .filter_map(|(id, span)| {
                decided
                    .get(id)
                    .map(|at| (at.saturating_sub(span.due_tick) * TICK_MS) as f64)
            })
            .collect(),
    );
    let first_decision_deltas = ValidatorId::all(NODES)
        .map(|v| {
            let first = report.decided_tx_ticks(v).values().copied().min();
            first.expect("every node decided a transaction") as f64 / DELTA_TICKS as f64
        })
        .collect();
    let _ = std::fs::remove_dir_all(data_root);
    Tier {
        rate_tx_s: plan.rate_tx_s,
        setup_s,
        wall_s,
        run_s: run_ticks as f64 * TICK_MS as f64 / 1e3,
        submitted: spans.len() as u64,
        acks,
        closed_conns,
        latency_ms,
        late_ticks_max,
        cluster_cpu_ms,
        blocks: node0.decided_len - 1,
        wire_bytes: outcomes
            .iter()
            .map(|o| o.announce_bytes.1 + o.sync_bytes.1)
            .sum(),
        first_decision_deltas,
        node0,
        // Only the traced tier reads them back.
        spans: spans
            .iter()
            .filter(|_| trace)
            .map(|(id, span)| (*id, *span, decided.get(id).copied()))
            .collect(),
        epoch: clock.instant_of(0),
        peak_rss_mib: proc::peak_rss_mib(),
    }
}

/// Correctness of one cluster run: the first violated check, or the
/// per-node outcomes, node 0 first.
fn check_cluster(report: &ClusterReport, data_root: &Path) -> Result<Vec<NodeOutcome>, String> {
    let ensure = |ok: bool, what: &str| if ok { Ok(()) } else { Err(what.to_string()) };
    ensure(report.agreement(), "cluster nodes decided conflicting logs")?;
    ensure(report.min_decided_len() > 1, "a node decided nothing")?;
    let outcomes = report.outcomes();
    for o in &outcomes {
        ensure(o.wal_errors == 0, "WAL errors")?;
        ensure(
            o.persisted_len == o.decided_len,
            "decided log not fully durable",
        )?;
    }
    let v0 = ValidatorId::new(0);
    let node0 = outcomes
        .first()
        .filter(|o| o.me == v0)
        .expect("outcomes come in node order");

    // Cold recovery from node 0's directory alone must rebuild its whole
    // persisted prefix, and that prefix must lie on its decided chain:
    // every transaction replayed is one node 0 decided, in decision order.
    let recovered = FileDurable::open(&data_root.join("node-0"))
        .and_then(|mut wal| wal.load())
        .map_err(|e| format!("node 0's WAL does not load: {e}"))?;
    let store = BlockStore::new();
    let replayed = replay_into(&store, &recovered);
    ensure(
        (replayed.skipped, recovered.torn_bytes, replayed.beyond) == (0, 0, None),
        "node 0's durable image is not clean and self-contained",
    )?;
    ensure(
        replayed.decided_len == node0.persisted_len,
        "replay does not reach node 0's persisted head",
    )?;
    let decided = report.decided_tx_ticks(v0);
    let chain = store
        .chain_range(replayed.decided_tip, 1)
        .ok_or("replayed chain does not resolve")?;
    let mut last_tick = 0;
    for id in chain {
        let block = store.get(id).ok_or("replayed block missing")?;
        for tx in block.txs() {
            let tick = *decided.get(&tx.id()).ok_or_else(|| {
                format!(
                    "replayed tx {} (view {}) is not on node 0's decided chain",
                    tx.id().short(),
                    block.view().number()
                )
            })?;
            ensure(
                tick >= last_tick,
                "replayed chain leaves node 0's decision order",
            )?;
            last_tick = tick;
        }
    }
    Ok(outcomes)
}

fn plans(seconds: f64, smoke: bool) -> Vec<TierPlan> {
    if smoke {
        return vec![TierPlan {
            rate_tx_s: RATES[0],
            views: 6,
            drain_views: 3,
        }];
    }
    // The two lower tiers get a quarter of the run each and the top tier
    // the rest: it must run long enough that its backlog outgrows the
    // drain window, or "decided per second" is just the offered rate.
    // No tier is shorter than a drain window plus as many views of load.
    let total_views = (seconds * 1e3 / (VIEW_TICKS * TICK_MS) as f64) as u64;
    let lower_views = (total_views / 4).max(32);
    let top_views = total_views.saturating_sub(2 * lower_views).max(32);
    RATES
        .iter()
        .enumerate()
        .map(|(i, &rate_tx_s)| TierPlan {
            rate_tx_s,
            views: if i + 1 == RATES.len() {
                top_views
            } else {
                lower_views
            },
            drain_views: 16,
        })
        .collect()
}

pub fn run(seed: u64, seconds: f64, trace: bool, smoke: bool, out_dir: &Path) -> Outcome {
    let scratch = out_dir.join(format!("tmp-{}", std::process::id()));
    let plans = plans(seconds, smoke);
    let outcome = if trace {
        run_traced(&plans[0], seed, smoke, &scratch, out_dir)
    } else {
        run_end_to_end(&plans, seed, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    outcome
}

fn run_end_to_end(plans: &[TierPlan], seed: u64, scratch: &Path) -> Outcome {
    let mut out = Outcome::default();
    let tiers: Vec<Tier> = plans
        .iter()
        .map(|plan| {
            let tier = run_tier(
                plan,
                seed,
                false,
                &scratch.join(format!("r{}", plan.rate_tx_s)),
            );
            out.note(tier.describe());
            tier
        })
        .collect();
    let base = &tiers[0];
    let top = tiers.last().expect("at least one tier");
    assert!(
        base.decided() > 0,
        "no client transaction decided at the base rate"
    );
    let max_rate = tiers
        .iter()
        .take_while(|t| t.sustained())
        .last()
        .map_or(0, |t| t.rate_tx_s);
    let (tail_label, tail) = base.latency_ms.supported_tail();
    out.note(format!(
        "tiers of {:?} views ({} draining each); base-rate tail the sample supports: {tail_label}={tail:.0}ms",
        plans.iter().map(|p| p.views).collect::<Vec<_>>(),
        plans[0].drain_views
    ));
    out.note(format!(
        "spawn → first decision per node (Δ): {:?}",
        base.first_decision_deltas
    ));

    out.attempted = base.submitted;
    out.failed = base.submitted - base.decided();
    let delta_ms = (DELTA_TICKS * TICK_MS) as f64;
    out.metric(
        "setup_s",
        median(&tiers.iter().map(|t| t.setup_s).collect::<Vec<_>>()),
    );
    out.metric("wall_ms_per_block", base.wall_s * 1e3 / base.blocks as f64);
    out.metric(
        "tx_latency_delta_p50",
        base.latency_percentile_ms(0.50) / delta_ms,
    );
    out.metric(
        "tx_latency_delta_p95",
        base.latency_percentile_ms(0.95) / delta_ms,
    );
    out.metric(
        "wire_bytes_per_block",
        base.wire_bytes as f64 / base.blocks as f64,
    );
    out.metric(
        "restart_catchup_delta_max",
        max_of(base.first_decision_deltas.iter().copied()),
    );
    out.metric("decided_share", 1.0 - base.failed_share());
    out.metric("peak_rss_mib", base.peak_rss_mib);
    out.metric("submit_to_decided_ms_p50", base.latency_percentile_ms(0.50));
    out.metric("submit_to_decided_ms_p99", base.latency_percentile_ms(0.99));
    out.metric("max_rate_under_limit_tx_s", max_rate as f64);
    out.metric("decided_tx_per_s", top.decided() as f64 / top.run_s);
    out.metric(
        "cpu_ms_per_decided_tx",
        tiers.iter().map(|t| t.cluster_cpu_ms).sum::<f64>()
            / tiers.iter().map(Tier::decided).sum::<u64>() as f64,
    );
    out
}

fn run_traced(plan: &TierPlan, seed: u64, smoke: bool, scratch: &Path, out_dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let tier = run_tier(plan, seed, true, &scratch.join("traced"));
    out.note(tier.describe());
    // A cluster nobody talks to: what the tick-paced loops cost at rest.
    let idle_plan = TierPlan {
        rate_tx_s: 0,
        views: if smoke { 6 } else { 30 },
        drain_views: 0,
    };
    let idle = run_tier(&idle_plan, seed, false, &scratch.join("idle"));

    let us = |from: Instant, to: Instant| to.saturating_duration_since(from).as_secs_f64() * 1e6;
    let tick = Duration::from_millis(TICK_MS);
    let submit_to_ack = Sample::new(
        tier.spans
            .iter()
            .filter_map(|(_, span, _)| Some(us(span.sent?, span.acked?)))
            .collect(),
    );
    let ack_to_decided = Sample::new(
        tier.spans
            .iter()
            .filter_map(|(_, span, decided)| {
                let decided_at = tier.epoch + tick.mul_f64((*decided)? as f64);
                Some(us(span.acked?, decided_at) / 1e3)
            })
            .collect(),
    );
    out.note(format!("submit→ack {}", submit_to_ack.describe("us")));
    out.note(format!("ack→decided {}", ack_to_decided.describe("ms")));

    out.attempted = tier.submitted;
    out.failed = tier.submitted - tier.decided();
    out.metric(
        "runtime.submit_to_ack_us_p50",
        submit_to_ack.percentile(0.50),
    );
    out.metric(
        "runtime.submit_to_ack_us_p99",
        submit_to_ack.percentile(0.99),
    );
    out.metric(
        "runtime.ack_to_decided_ms_p50",
        ack_to_decided.percentile(0.50),
    );
    out.metric("runtime.frames_in", tier.node0.frames.0 as f64);
    out.metric("runtime.frames_out", tier.node0.frames.1 as f64);
    out.metric(
        "runtime.announce_bytes_out",
        tier.node0.announce_bytes.1 as f64,
    );
    out.metric("runtime.sync_bytes_out", tier.node0.sync_bytes.1 as f64);
    out.metric(
        "runtime.sessions_peak",
        tier.node0.ingest.sessions_peak as f64,
    );
    out.metric(
        "runtime.buffer_bytes_peak",
        tier.node0.ingest.buffer_bytes_peak as f64,
    );
    out.metric(
        "runtime.pending_peak",
        tier.node0.admission.pending_peak as f64,
    );
    out.metric("runtime.busy_acks", tier.node0.ingest.acks_busy as f64);
    out.metric(
        "runtime.cpu_ms_per_s_idle",
        idle.cluster_cpu_ms / idle.run_s,
    );
    out.metric(
        "runtime.generator_late_ticks_max",
        tier.late_ticks_max as f64,
    );
    out.metric("storage.persisted_len", tier.node0.persisted_len as f64);
    out.metric("core.sync.blocks_fetched", tier.node0.blocks_fetched as f64);

    // The cluster's own messages cannot be captured from outside; a
    // sim of the same validator count supplies like-shaped ones.
    let (messages, store) = sims::capture_messages(NODES, 8, seed);
    out.absorb(probes::run(&ProbeInput {
        n: NODES,
        depth: plan.views,
        txs_per_block: (plan.rate_tx_s * VIEW_TICKS * TICK_MS / 1000) as usize * NODES,
        tx_bytes: TX_BYTES as usize,
        messages: &messages,
        store: &store,
        wal_dir: Some(scratch.join("probe-wal")),
    }));
    // Inside the nodes, invisible from here (in-program tracing is a
    // later change): report 0, not a guess.
    for prefix in ["core.", "sim.", "crypto."] {
        out.zero_fill(prefix);
    }

    write_trace_file(out_dir, seed, &tier, &out);
    out
}

fn write_trace_file(out_dir: &Path, seed: u64, tier: &Tier, out: &Outcome) {
    let us_since_epoch = |at: Option<Instant>| match at {
        Some(at) => format!(
            "{:.0}",
            at.saturating_duration_since(tier.epoch).as_secs_f64() * 1e6
        ),
        None => "null".to_string(),
    };
    let rows: Vec<String> = tier
        .spans
        .iter()
        .map(|(id, span, decided)| {
            format!(
                "[\"{}\",{},{},{},{}]",
                id.short(),
                span.due_tick,
                us_since_epoch(span.sent),
                us_since_epoch(span.acked),
                decided.map_or("null".to_string(), |t| t.to_string()),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"workload\": \"tcp_ingest\",\n  \"seed\": {seed},\n  \"tier_tx_s\": {},\n  \"tick_ms\": {TICK_MS},\n  \
         \"tx_spans_id_dueTick_sentUs_ackedUs_decidedTick\": [{}],\n  \"per_layer\": {}\n}}\n",
        tier.rate_tx_s,
        rows.join(","),
        out.metrics_json(),
    );
    crate::write_out_file(out_dir, "trace-tcp_ingest.json", &json);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_counts_are_seeded_and_have_the_requested_mean() {
        let draw = |seed| {
            let mut counts = ArrivalCounts::new(seed, 6.0);
            (0..20_000).map(|_| counts.next_count()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7), "same seed, same arrivals");
        assert_ne!(draw(7), draw(8));
        let xs = draw(7);
        let mean = xs.iter().sum::<u64>() as f64 / xs.len() as f64;
        let var = xs.iter().map(|x| (*x as f64 - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((mean - 6.0).abs() < 0.1, "mean {mean}");
        assert!(
            (var - 6.0).abs() < 0.3,
            "a Poisson's variance is its mean, got {var}"
        );
        assert_eq!(
            ArrivalCounts::new(1, 0.0).next_count(),
            0,
            "an idle tier submits nothing"
        );
    }

    #[test]
    fn the_top_tier_gets_the_long_run() {
        let views: Vec<u64> = plans(15.0, false).iter().map(|p| p.views).collect();
        assert_eq!(views, [58, 58, 118]);
        assert!(plans(1.0, false)
            .iter()
            .all(|p| p.views == 32 && p.drain_views == 16));
        assert_eq!(plans(15.0, true).len(), 1);
    }
}
