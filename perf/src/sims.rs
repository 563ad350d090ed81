//! The four simulator workloads.
//!
//! Each one assembles its network through the public
//! `Simulation::builder` (the same steps `TobSimulationBuilder::run`
//! takes), so the bench can time `run_until` alone and, on the traced
//! rep, wrap every validator in a [`TracedNode`].

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tob_svd::adversary::churn::rotating_sleep;
use tob_svd::protocol::{TobConfig, Validator, ViewSchedule};
use tob_svd::sim::{
    standard_invariants, AdmissionPolicy, DecisionRecord, IdleNode, Mempool, Node, SimConfig,
    SimReport, Simulation, WorstCaseDelay,
};
use tob_svd::storage::{shared, MemDurable, SharedDurable};
use tob_svd::types::{BlockStore, Delta, SignedMessage, Time, Transaction, ValidatorId, View};

use crate::probes::{self, ProbeInput};
use crate::stats::{max_of, Sample};
use crate::trace::{self, SharedSink, TraceSink, TracedNode};
use crate::{proc, spec, Outcome};

/// Timed network assemblies before each rep.
const SETUPS_PER_REP: usize = 9;

#[derive(Clone, Debug)]
pub struct SimSpec {
    pub name: &'static str,
    /// Timed repetitions of a `--seconds` = [`spec::RUN_SECONDS`] run,
    /// sized from the probed wall of one repetition so that they fill it.
    pub reps: usize,
    pub n: usize,
    pub views: u64,
    pub certificates: bool,
    /// `WorstCaseDelay` (every copy takes exactly Δ) or the default
    /// seeded uniform delay in `[1, Δ]`.
    pub worst_case_delay: bool,
    pub txs_per_view: usize,
    pub tx_bytes: usize,
    /// The sleepy model proper: rotating group sleep with deliveries to
    /// sleepers dropped, the §2 recovery protocol on, and these
    /// `(validator, crash view, restart view)` kill/restart faults.
    pub churn: Option<Vec<(u32, u64, u64)>>,
}

pub fn spec(name: &str, smoke: bool) -> Option<SimSpec> {
    let base = SimSpec {
        name: "",
        reps: 0,
        n: 0,
        views: 0,
        certificates: true,
        worst_case_delay: false,
        txs_per_view: 2,
        tx_bytes: 64,
        churn: None,
    };
    let full = match name {
        "sim_wide" => SimSpec {
            name: "sim_wide",
            reps: 5, // ≈ 3.3 s each
            n: 256,
            views: 3,
            worst_case_delay: true,
            ..base
        },
        "sim_long" => SimSpec {
            name: "sim_long",
            reps: 3, // ≈ 5.5 s each
            n: 16,
            views: 400,
            txs_per_view: 4,
            tx_bytes: 128,
            ..base
        },
        "sim_pervote" => SimSpec {
            name: "sim_pervote",
            reps: 8, // ≈ 2.1 s each
            n: 64,
            views: 8,
            certificates: false,
            worst_case_delay: true,
            ..base
        },
        "sim_churn" => SimSpec {
            name: "sim_churn",
            reps: 3, // ≈ 6.2 s each
            n: 32,
            views: 150,
            txs_per_view: 4,
            tx_bytes: 128,
            churn: Some(vec![(0, 20, 26), (8, 50, 56), (16, 80, 86), (24, 110, 116)]),
            ..base
        },
        _ => return None,
    };
    Some(if smoke {
        SimSpec {
            n: 8,
            views: 6,
            churn: full.churn.as_ref().map(|_| vec![(0, 1, 2)]),
            ..full
        }
    } else {
        full
    })
}

impl SimSpec {
    fn delta(&self) -> Delta {
        Delta::default()
    }

    fn view_ticks(&self) -> u64 {
        ViewSchedule::new(self.delta())
            .view_start(View::new(1))
            .ticks()
    }

    /// Last tick simulated: every view plus the trailing 2Δ in which
    /// the final proposals decide.
    fn end(&self) -> Time {
        ViewSchedule::new(self.delta()).view_start(View::new(self.views)) + self.delta() * 2
    }

    /// Timed repetitions of a `--seconds` long run: a fixed count per
    /// run length, never a function of how fast the code under test is.
    fn timed_reps(&self, seconds: f64) -> usize {
        let share = seconds / spec::RUN_SECONDS as f64;
        ((self.reps as f64 * share).round() as usize).max(1)
    }

    fn submitted_txs(&self) -> u64 {
        self.views * self.txs_per_view as u64
    }

    /// `(validator, crash tick, restart tick)`: 3 ticks into the crash
    /// view, back 1 tick into the restart view.
    fn crash_times(&self) -> Vec<(ValidatorId, Time, Time)> {
        let sched = ViewSchedule::new(self.delta());
        self.churn
            .iter()
            .flatten()
            .map(|&(v, crash, restart)| {
                (
                    ValidatorId::new(v),
                    sched.view_start(View::new(crash)) + 3,
                    sched.view_start(View::new(restart)) + 1,
                )
            })
            .collect()
    }

    /// Assembles the network. With a `sink`, every validator (and every
    /// restarted incarnation) is wrapped in a [`TracedNode`].
    fn build(&self, seed: u64, sink: Option<&SharedSink>) -> Simulation {
        let delta = self.delta();
        let sched = ViewSchedule::new(delta);
        let view_ticks = self.view_ticks();
        let tob_cfg = TobConfig::new(self.n)
            .with_delta(delta)
            .with_recovery(self.churn.is_some())
            .with_certificates(self.certificates);
        let mut builder =
            Simulation::builder(SimConfig::new(self.n).with_delta(delta).with_seed(seed))
                .with_mempool(Mempool::bounded(AdmissionPolicy::default()))
                .drop_while_asleep(self.churn.is_some());

        // Workload: `txs_per_view` transactions due one tick before each
        // view's proposal (the paper's expected-latency scenario).
        let mempool = builder.mempool().clone();
        let mut nonce = seed << 32;
        for view in 0..self.views {
            let due = sched
                .view_start(View::new(view))
                .saturating_sub(Time::new(1));
            for _ in 0..self.txs_per_view {
                let verdict =
                    mempool.admit(Transaction::synthetic(nonce, self.tx_bytes), due, 1, None);
                assert!(
                    verdict.is_accepted(),
                    "{}: workload tx refused: {verdict:?}",
                    self.name
                );
                nonce += 1;
            }
        }

        let store = builder.store().clone();
        let crashes = self.crash_times();
        let durables: BTreeMap<usize, SharedDurable> = crashes
            .iter()
            .map(|(v, _, _)| (v.index(), shared(MemDurable::new())))
            .collect();
        let wrap = move |node: Box<dyn Node>, v: ValidatorId, sink: Option<&SharedSink>| match sink
        {
            Some(sink) => TracedNode::wrap(node, v, view_ticks, sink),
            None => node,
        };
        for v in ValidatorId::all(self.n) {
            let mut validator = Validator::new(v, tob_cfg.clone(), &store);
            if let Some(durable) = durables.get(&v.index()) {
                validator = validator.with_durable(durable.clone());
            }
            builder = builder.node(v, wrap(Box::new(validator), v, sink));
        }
        if self.churn.is_some() {
            let horizon = sched.view_start(View::new(self.views));
            let sink = sink.cloned();
            builder = builder
                .participation(rotating_sleep(self.n, 4, delta.ticks() * 6, horizon))
                .crashes(crashes)
                .restart_factory(Box::new(move |v, _at| match durables.get(&v.index()) {
                    Some(durable) => wrap(
                        Box::new(Validator::recovered(
                            v,
                            tob_cfg.clone(),
                            &store,
                            durable.clone(),
                        )),
                        v,
                        sink.as_ref(),
                    ),
                    None => Box::new(IdleNode),
                }));
        }
        if self.worst_case_delay {
            builder = builder.delay(Box::new(WorstCaseDelay));
        }
        for invariant in standard_invariants() {
            builder = builder.invariant(invariant);
        }
        builder.build()
    }
}

/// One repetition: the timed `run_until`, then everything read back.
pub struct Rep {
    /// Wall and process CPU of `run_until` alone.
    pub wall_s: f64,
    pub cpu_ms: f64,
    pub blocks: u64,
    pub confirmed: u64,
    /// Submitted→confirmed, in Δ.
    pub latencies: Sample,
    /// (Re)start → within one block of the head, in Δ, per tracked validator.
    pub catchups: Vec<f64>,
    /// Everything the seeded scheduler determines; must repeat exactly.
    pub counters: BTreeMap<&'static str, u64>,
    pub store: BlockStore,
}

fn run_rep(spec: &SimSpec, seed: u64, sink: Option<&SharedSink>) -> Rep {
    let mut sim = spec.build(seed, sink);
    let cpu0 = proc::process_cpu_ms();
    let t0 = Instant::now();
    sim.run_until(spec.end());
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_ms = proc::process_cpu_ms() - cpu0;
    let report = sim.report();
    let mut counters = validator_counters(&sim, spec.n);
    drop(sim); // flushes every TracedNode into the sink

    // Correctness: abort the run on any violation.
    report.assert_safety();
    report.assert_invariants();
    let blocks = report.max_decided_len() - 1;
    if spec.churn.is_none() {
        assert!(
            blocks + 2 >= spec.views,
            "{}: fault-free run decided {blocks} of {} views",
            spec.name,
            spec.views
        );
    }
    assert!(blocks > 0, "{}: nothing decided", spec.name);
    assert_eq!(counters["core.wal_errors"], 0, "{}: WAL errors", spec.name);

    let m = &report.metrics;
    for (name, value) in [
        ("blocks", blocks),
        ("confirmed", report.confirmed.len() as u64),
        ("sim.deliveries", m.deliveries),
        ("sim.bytes_delivered", m.bytes_delivered),
        ("sim.dropped", m.dropped),
        ("sim.executed_ticks", m.executed_ticks),
        ("sim.decisions", m.decisions),
        ("sim.crashes", m.crashes),
        ("core.forwards", m.forwards),
        ("core.recovery_broadcasts", m.recovery_broadcasts),
        ("core.certificate_broadcasts", m.certificate_broadcasts),
        ("crypto.sig_verifies", m.sig_verifies),
        ("crypto.sig_verify_skips", m.sig_verify_skips),
        ("crypto.vrf_verifies", m.vrf_verifies),
        ("crypto.agg_verifies", m.agg_verifies),
        ("crypto.agg_verify_skips", m.agg_verify_skips),
    ] {
        counters.insert(name, value);
    }
    let delta_ticks = spec.delta().ticks() as f64;
    let latencies = Sample::new(
        report
            .confirmed
            .iter()
            .map(|c| c.latency() as f64 / delta_ticks)
            .collect(),
    );
    // Latencies are tick counts: fold them into the exact fingerprint.
    counters.insert(
        "latency_ticks_sum",
        report.confirmed.iter().map(|c| c.latency()).sum(),
    );
    let catchups = catchups(spec, &report);
    Rep {
        wall_s,
        cpu_ms,
        blocks,
        confirmed: report.confirmed.len() as u64,
        latencies,
        catchups,
        counters,
        store: report.store,
    }
}

/// Counters only the validators hold, summed over the final incarnations
/// (`persisted_len` is the maximum; 1 without a storage plane).
fn validator_counters(sim: &Simulation, n: usize) -> BTreeMap<&'static str, u64> {
    let mut c: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut persisted = 0;
    for v in ValidatorId::all(n) {
        let validator = sim
            .node(v)
            .as_any()
            .downcast_ref::<Validator>()
            .expect("every slot holds a Validator (tracing forwards as_any)");
        let sync = validator.sync();
        for (name, value) in [
            (
                "core.certificates_emitted",
                validator.certificates_emitted(),
            ),
            (
                "core.unique_messages_seen",
                validator.unique_messages_seen() as u64,
            ),
            ("core.audit_repairs", validator.audit_repairs()),
            ("core.wal_errors", validator.wal_errors()),
            ("core.sync.requests_sent", sync.requests_sent()),
            ("core.sync.responses_served", sync.responses_served()),
            ("core.sync.blocks_fetched", sync.blocks_fetched()),
            ("core.sync.parked_total", sync.parked_total()),
            ("core.sync.evicted", sync.evicted()),
        ] {
            *c.entry(name).or_insert(0) += value;
        }
        persisted = persisted.max(validator.persisted_len());
    }
    c.insert("storage.persisted_len", persisted);
    c
}

/// Per tracked validator, Δ from its (re)start to its first decision of
/// a real block within one block of the longest log decided by then.
/// Tracked: the crash targets from their restart tick; on fault-free
/// workloads every validator from tick 0 (cold start).
fn catchups(spec: &SimSpec, report: &SimReport) -> Vec<f64> {
    let mut start: Vec<Option<Time>> = vec![None; spec.n];
    let crashes = spec.crash_times();
    if crashes.is_empty() {
        start.fill(Some(Time::ZERO));
    }
    for (v, _, restart) in &crashes {
        start[v.index()] = Some(*restart);
    }
    let mut caught: Vec<Option<Time>> = vec![None; spec.n];
    let mut head = 1;
    for DecisionRecord { validator, at, log } in &report.decisions {
        head = head.max(log.len());
        let i = validator.index();
        if let (Some(since), None) = (start[i], caught[i]) {
            if *at >= since && log.len() >= 2 && log.len() + 1 >= head {
                caught[i] = Some(*at);
            }
        }
    }
    let delta_ticks = spec.delta().ticks() as f64;
    start
        .iter()
        .zip(&caught)
        .enumerate()
        .filter_map(|(i, (since, at))| {
            let since = (*since)?;
            let at =
                at.unwrap_or_else(|| panic!("{}: v{i} never caught up after {since}", spec.name));
            Some((at - since) as f64 / delta_ticks)
        })
        .collect()
}

/// `--trace 0`: end-to-end metrics from untraced reps.
pub fn run_end_to_end(spec: &SimSpec, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();

    let mut setups = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    for _ in 0..spec.timed_reps(seconds) {
        // Set-up is everything before `run_until`. It takes micro- to
        // milliseconds, so it is sampled before every rep: the samples
        // then span the whole run instead of one instant of the machine.
        for _ in 0..SETUPS_PER_REP {
            let t = Instant::now();
            drop(std::hint::black_box(spec.build(seed, None)));
            setups.push(t.elapsed().as_secs_f64());
        }
        let rep = run_rep(spec, seed, None);
        if let Some(first) = reps.first() {
            assert_eq!(first.counters, rep.counters, "{}: reps diverged", spec.name);
        }
        reps.push(rep);
    }

    // The reps replay one transcript: what the seed determines is read
    // off the first, what the machine determines is the median over all.
    let first = &reps[0];
    let setups_ms = Sample::new(setups.iter().map(|s| s * 1e3).collect());
    let walls_ms = Sample::new(reps.iter().map(|r| r.wall_s * 1e3).collect());
    let cpus_ms = Sample::new(reps.iter().map(|r| r.cpu_ms).collect());
    let wall_ms = walls_ms.median();
    let deltas_simulated = (spec.end().ticks() + 1) as f64 / spec.delta().ticks() as f64;
    let ms_per_delta = wall_ms / deltas_simulated;
    let lat = &first.latencies;
    let nominal_run_s = (spec.end().ticks() + 1) as f64 * spec::NOMINAL_TICK_MS as f64 / 1e3;

    out.attempted = spec.submitted_txs();
    out.failed = out.attempted - first.confirmed;
    out.note(format!(
        "{}: n={} views={} certificates={} delay={} txs/view={}x{}B churn={:?}",
        spec.name,
        spec.n,
        spec.views,
        spec.certificates,
        if spec.worst_case_delay {
            "worst-case"
        } else {
            "uniform"
        },
        spec.txs_per_view,
        spec.tx_bytes,
        spec.churn,
    ));
    out.note(format!("run_until wall: {}", walls_ms.describe_reps("ms")));
    out.note(format!("run_until cpu: {}", cpus_ms.describe_reps("ms")));
    out.note(format!("set-ups: {}", setups_ms.describe_reps("ms")));
    out.note(format!("tx latency: {}", lat.describe("Δ")));
    out.note(format!(
        "catch-up per tracked validator (Δ): {}",
        if first.catchups.len() <= 8 {
            format!("{:?}", first.catchups)
        } else {
            Sample::new(first.catchups.clone()).describe("Δ")
        }
    ));
    out.note(format!(
        "blocks={} confirmed={}/{}",
        first.blocks, first.confirmed, out.attempted
    ));

    out.metric("setup_s", setups_ms.median() / 1e3);
    out.metric("wall_ms_per_block", wall_ms / first.blocks as f64);
    out.metric("tx_latency_delta_p50", lat.percentile(0.50));
    out.metric("tx_latency_delta_p95", lat.percentile(0.95));
    out.metric(
        "wire_bytes_per_block",
        first.counters["sim.bytes_delivered"] as f64 / first.blocks as f64,
    );
    out.metric(
        "restart_catchup_delta_max",
        max_of(first.catchups.iter().copied()),
    );
    out.metric(
        "decided_share",
        (first.blocks as f64 / spec.views as f64).min(1.0),
    );
    out.metric("peak_rss_mib", proc::peak_rss_mib());
    // The rest belongs to `tcp_ingest`; these are the analogues (see
    // `spec::Gate::Analogue`). Times are the latency the scheduler fixes,
    // at the wall the simulator takes per simulated Δ; rates are offered
    // and confirmed transactions per simulated second at the nominal tick.
    out.metric(
        "submit_to_decided_ms_p50",
        lat.percentile(0.50) * ms_per_delta,
    );
    out.metric(
        "submit_to_decided_ms_p99",
        lat.percentile(0.99) * ms_per_delta,
    );
    out.metric(
        "max_rate_under_limit_tx_s",
        out.attempted as f64 / nominal_run_s,
    );
    out.metric("decided_tx_per_s", first.confirmed as f64 / nominal_run_s);
    out.metric(
        "cpu_ms_per_decided_tx",
        cpus_ms.median() / first.confirmed as f64,
    );
    out
}

/// `--trace 1`: one untraced and one traced rep, then the layer probes.
pub fn run_traced(spec: &SimSpec, seed: u64, smoke: bool, out_dir: &std::path::Path) -> Outcome {
    let mut out = Outcome::default();
    let plain = run_rep(spec, seed, None);
    let sink: SharedSink = Arc::new(Mutex::new(TraceSink::default()));
    let traced = run_rep(spec, seed, Some(&sink));
    assert_eq!(
        plain.counters, traced.counters,
        "{}: tracing perturbed the transcript",
        spec.name
    );
    if spec.name == "sim_churn" && !smoke {
        assert!(
            traced.counters["crypto.agg_verifies"] > 0,
            "sim_churn must verify aggregates cold"
        );
    }
    let sink = std::mem::take(&mut *sink.lock().expect("trace sink"));

    let wall_ns = traced.wall_s * 1e9;
    let c = &traced.counters;
    let on_message = sink.total(trace::ON_MESSAGE);
    let on_phase = sink.total(trace::ON_PHASE);
    let on_wake = sink.total(trace::ON_WAKE);
    let per_call = |agg: trace::SpanAgg| agg.total_ns as f64 / agg.count.max(1) as f64;
    let engine_self_ns = trace::self_time_ns(wall_ns as u64, sink.children_ns()) as f64;
    let deliveries = c["sim.deliveries"].max(1) as f64;

    out.attempted = spec.submitted_txs();
    out.failed = out.attempted - traced.confirmed;
    out.metric("core.on_message_ns_per_call", per_call(on_message));
    out.metric(
        "core.on_message_share",
        on_message.total_ns as f64 / wall_ns,
    );
    out.metric("core.on_phase_ns_per_call", per_call(on_phase));
    out.metric("core.on_phase_share", on_phase.total_ns as f64 / wall_ns);
    out.metric("core.on_wake_ns_per_call", per_call(on_wake));
    out.metric(
        "sim.engine_self_ns_per_delivery",
        engine_self_ns / deliveries,
    );
    out.metric("sim.engine_self_share", engine_self_ns / wall_ns);
    out.metric("sim.trace_overhead_ratio", traced.wall_s / plain.wall_s);
    // A skip is a delivery the dedup gate answered without verifying.
    out.metric(
        "sim.gossip.dup_ratio",
        c["crypto.sig_verify_skips"] as f64 / deliveries,
    );
    let verifies = c["crypto.sig_verifies"] + c["crypto.agg_verifies"];
    let skips = c["crypto.sig_verify_skips"] + c["crypto.agg_verify_skips"];
    out.metric(
        "crypto.verify_skip_ratio",
        skips as f64 / (verifies + skips).max(1) as f64,
    );
    for name in [
        "core.recovery_broadcasts",
        "core.audit_repairs",
        "core.certificates_emitted",
        "core.forwards",
        "core.unique_messages_seen",
        "core.sync.requests_sent",
        "core.sync.responses_served",
        "core.sync.blocks_fetched",
        "core.sync.parked_total",
        "core.sync.evicted",
        "sim.deliveries",
        "sim.dropped",
        "sim.executed_ticks",
        "crypto.sig_verifies",
        "crypto.sig_verify_skips",
        "crypto.vrf_verifies",
        "crypto.agg_verifies",
        "crypto.agg_verify_skips",
        "storage.persisted_len",
    ] {
        out.metric(name, c[name] as f64);
    }

    let probe = probes::run(&ProbeInput {
        n: spec.n,
        depth: spec.views,
        txs_per_block: spec.txs_per_view,
        tx_bytes: spec.tx_bytes,
        messages: &sink.captured,
        store: &traced.store,
        wal_dir: None,
    });
    // The layer's estimated share of the traced wall: cost × count.
    for (layer, ns, count) in [
        (
            "crypto.sig_verify",
            probe.value("crypto.sig_verify_ns"),
            c["crypto.sig_verifies"],
        ),
        (
            "crypto.vrf_verify",
            probe.value("crypto.vrf_verify_ns"),
            c["crypto.vrf_verifies"],
        ),
    ] {
        out.note(format!(
            "{layer}: {ns:.0} ns × {count} = {:.4} of traced wall",
            ns * count as f64 / wall_ns
        ));
    }
    out.note(format!(
        "traced wall {:.3}s vs untraced {:.3}s ; spans: on_message {}×{:.0}ns on_phase {}×{:.0}ns on_wake {}×{:.0}ns ; captured {} broadcasts",
        traced.wall_s,
        plain.wall_s,
        on_message.count,
        per_call(on_message),
        on_phase.count,
        per_call(on_phase),
        on_wake.count,
        per_call(on_wake),
        sink.captured.len(),
    ));
    out.absorb(probe);
    out.zero_fill("runtime.");

    write_trace_file(out_dir, spec, seed, &traced, &sink, &out);
    out
}

/// Captured broadcasts of a smoke-sized certificate run with `n`
/// validators: realistic probe inputs for a workload (the TCP cluster)
/// whose own messages cannot be observed from outside.
pub fn capture_messages(n: usize, views: u64, seed: u64) -> (Vec<SignedMessage>, BlockStore) {
    let spec = SimSpec {
        n,
        views,
        ..spec("sim_long", true).expect("known workload")
    };
    let sink: SharedSink = Arc::new(Mutex::new(TraceSink::default()));
    let rep = run_rep(&spec, seed, Some(&sink));
    let captured = std::mem::take(&mut sink.lock().expect("trace sink").captured);
    (captured, rep.store)
}

fn write_trace_file(
    out_dir: &std::path::Path,
    spec: &SimSpec,
    seed: u64,
    traced: &Rep,
    sink: &TraceSink,
    out: &Outcome,
) {
    use std::fmt::Write as _;
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {seed},\n  \"parent\": {{\"name\": \"sim.run_until\", \"total_ns\": {}}},\n  \"spans\": [",
        spec.name,
        (traced.wall_s * 1e9) as u64,
    );
    for (i, name) in trace::SPAN_NAMES.iter().enumerate() {
        let total = sink.total(i);
        let hist: Vec<String> = sink.hist[i].0.iter().map(u64::to_string).collect();
        let cells: Vec<String> = sink
            .cells
            .iter()
            .filter(|(callback, ..)| *callback == i)
            .map(|(_, v, view, agg)| format!("[{v},{view},{},{}]", agg.count, agg.total_ns))
            .collect();
        let _ = write!(
            json,
            "{}\n    {{\"name\": \"{name}\", \"parent\": \"sim.run_until\", \"count\": {}, \"total_ns\": {}, \
             \"log2_ns_histogram\": [{}],\n     \"cells_validator_view_count_ns\": [{}]}}",
            if i == 0 { "" } else { "," },
            total.count,
            total.total_ns,
            hist.join(","),
            cells.join(","),
        );
    }
    json.push_str("\n  ],\n  \"counters\": {");
    let counters: Vec<String> = traced
        .counters
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    json.push_str(&counters.join(", "));
    json.push_str("},\n  \"per_layer\": ");
    json.push_str(&out.metrics_json());
    json.push_str("\n}\n");
    crate::write_out_file(out_dir, &format!("trace-{}.json", spec.name), &json);
}
