//! Golden transcripts, pinned **across builds**.
//!
//! `tests/determinism.rs` compares two runs of one build, so a refactor
//! that changes the transcript *consistently* (a reordered RNG draw, a
//! delivery that moved past a same-tick state change) passes there.
//! These four runs pin a SHA-256 of the decision transcript plus the
//! engine counters a reordering would move; the constants were recorded
//! from the per-event `BinaryHeap` engine, before deliveries moved into
//! tick buckets, and must not change when the engine does.

use tob_svd::adversary::{churn, SplitBrainNode};
use tob_svd::crypto::sha256;
use tob_svd::protocol::TobConfig;
use tob_svd::sim::{TobReport, TobSimulationBuilder, TxWorkload, WorstCaseDelay};
use tob_svd::types::{Delta, Time, ValidatorId, View};

mod common;
use common::report_transcript;

/// `[deliveries, forwards, bytes_delivered, sig_verifies,
/// sig_verify_skips, dropped, decisions]`.
type Counters = [u64; 7];

/// Name, run, SHA-256 of its decision transcript, its counters.
type Golden = (&'static str, fn() -> TobReport, &'static str, Counters);

fn fault_free() -> TobReport {
    TobSimulationBuilder::new(7)
        .views(10)
        .seed(7)
        .workload(TxWorkload::PerView { count: 2, size: 48 })
        .run()
        .expect("valid configuration")
}

fn split_brain() -> TobReport {
    let n = 9;
    let half_a: Vec<ValidatorId> = ValidatorId::all(n).filter(|v| v.index() % 2 == 0).collect();
    let half_b: Vec<ValidatorId> = ValidatorId::all(n).filter(|v| v.index() % 2 == 1).collect();
    let mut builder = TobSimulationBuilder::new(n)
        .views(12)
        .seed(42)
        .workload(TxWorkload::PerView { count: 1, size: 32 })
        .engine(|sim| sim.delay(Box::new(WorstCaseDelay)));
    for v in ValidatorId::all(n).skip(n - 3) {
        let (a, b) = (half_a.clone(), half_b.clone());
        let cfg = TobConfig::new(n);
        builder = builder.byzantine(
            v,
            Box::new(move |store| Box::new(SplitBrainNode::new(v, cfg, store, a, b))),
        );
    }
    builder.run().expect("valid configuration")
}

/// Every delivery disposition at once: awake, asleep-and-dropped,
/// crashed-and-dropped, plus the wake/restart recovery traffic.
fn churn_and_crash() -> TobReport {
    let n = 16usize;
    let views = 14u64;
    let delta = Delta::default();
    let horizon = View::new(views + 1).start_time(delta);
    TobSimulationBuilder::new(n)
        .views(views)
        .seed(23)
        .engine(move |sim| {
            sim.drop_while_asleep(true)
                .participation(churn::rotating_sleep(n, 4, 6 * delta.ticks(), horizon))
        })
        .recovery(true)
        .crash_restart(ValidatorId::new(5), Time::new(163), Time::new(227))
        .workload(TxWorkload::PerView { count: 2, size: 32 })
        .run()
        .expect("valid configuration")
}

/// The paper's per-vote relay: every reception may forward, so this is
/// the run where the order of effects across recipients matters most.
fn per_vote() -> TobReport {
    TobSimulationBuilder::new(8)
        .views(10)
        .seed(31)
        .certificates(false)
        .workload(TxWorkload::PerView { count: 2, size: 32 })
        .run()
        .expect("valid configuration")
}

fn observed(report: &TobReport) -> (String, Counters) {
    let m = &report.report.metrics;
    (
        sha256(&report_transcript(report)).to_hex(),
        [
            m.deliveries,
            m.forwards,
            m.bytes_delivered,
            m.sig_verifies,
            m.sig_verify_skips,
            m.dropped,
            m.decisions,
        ],
    )
}

#[test]
fn golden_transcripts_are_pinned_across_builds() {
    let golden: [Golden; 4] = [
        (
            "fault-free n=7 uniform delay",
            fault_free,
            "559d2c28bb81ec2d0c6df5f24e39dca0bb5172c9a7fa4fdc60e2a8f155d94219",
            [2107, 77, 893074, 1568, 539, 0, 70],
        ),
        (
            "split-brain n=9 worst-case delay",
            split_brain,
            "2eef76f969c0ff6cd9cb99b7f76af33f54e6fb9c10c243691975f0e020a2c296",
            [8910, 725, 2918213, 2121, 3819, 0, 72],
        ),
        (
            "n=16 rotating sleep + drop + recovery + crash/restart",
            churn_and_crash,
            "d8a5208749e8ef2c11bff6a47d138ad389832d8b10c006d987e018ca2a59bab8",
            [33124, 7900, 13486342, 6533, 19679, 6804, 110],
        ),
        (
            "per-vote n=8",
            per_vote,
            "fb0450461478dd2c926e56ed7762f019b47a923337feeebf182b1e48b7fd30e7",
            [12532, 1408, 4820384, 1408, 11124, 0, 80],
        ),
    ];
    // Every run is compared before failing, so one engine change shows
    // all the rows it moved.
    let mut changed = Vec::new();
    for (what, run, sha, counters) in golden {
        let report = run();
        report.assert_safety();
        assert!(report.decided_blocks() > 0, "{what}: nothing decided");
        let got = observed(&report);
        if got != (sha.to_string(), counters) {
            changed.push((what, got));
        }
    }
    assert!(changed.is_empty(), "runs changed, observed now: {changed:#?}");
}
