//! Sweep a declarative scenario matrix in parallel.
//!
//! ```sh
//! cargo run --release --example scenario_matrix            # full matrix
//! cargo run --release --example scenario_matrix -- --smoke # CI-sized
//! cargo run --release --example scenario_matrix -- --json  # JSON report
//! ```
//!
//! The matrix crosses validator count × Δ × participation schedule ×
//! delay policy × adversary strategy × seed; every cell is an
//! independent seeded simulation, so the sweep runs on all cores and
//! still produces bit-identical results in matrix order.

use tob_svd::protocol::TxWorkload;
use tob_svd::sim::{AdmissionPolicy, OpenLoopSpec};
use tob_svd::sweep::{run_matrix, AdversarySpec, DelaySpec, ParticipationSpec, ScenarioMatrix};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json = args.iter().any(|a| a == "--json");

    let matrix = if smoke {
        // Small but still crossing every axis once — the CI smoke job.
        ScenarioMatrix::new(vec![5], vec![4])
            .views(5)
            .seeds(vec![1])
            .participation(vec![
                ParticipationSpec::Full,
                ParticipationSpec::RotatingSleep { groups: 4, window_deltas: 4 },
            ])
            .delays(vec![DelaySpec::Uniform, DelaySpec::WorstCase])
            .adversaries(vec![AdversarySpec::None, AdversarySpec::SplitBrain { count: 1 }])
            .workload(TxWorkload::PerView { count: 1, size: 32 })
    } else {
        ScenarioMatrix::new(vec![5, 7, 9], vec![4, 8])
            .views(12)
            .seeds(vec![1, 2])
            .participation(vec![
                ParticipationSpec::Full,
                ParticipationSpec::RotatingSleep { groups: 4, window_deltas: 6 },
                ParticipationSpec::RandomChurn { awake_prob: 0.85, window_deltas: 4 },
            ])
            .delays(vec![DelaySpec::Uniform, DelaySpec::WorstCase, DelaySpec::BestCase])
            .adversaries(vec![
                AdversarySpec::None,
                AdversarySpec::SplitBrain { count: 2 },
                AdversarySpec::AdaptiveLeaderCorruption { budget: 2 },
            ])
            .workload(TxWorkload::PerView { count: 2, size: 48 })
    };

    eprintln!(
        "sweeping {} scenarios ({}) on all cores...",
        matrix.len(),
        if smoke { "smoke matrix" } else { "full matrix" }
    );
    let report = run_matrix(&matrix, 0);

    if json {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }

    // The sweep doubles as an assertion: every cell of the matrix —
    // fault-free, churned, equivocating, adaptively corrupted — must
    // stay safe, and the fault-free cells must make progress.
    assert!(
        report.all_safe(),
        "safety violated in {} scenarios",
        report.unsafe_scenarios().len()
    );
    let fault_free_progress = report
        .outcomes()
        .iter()
        .filter(|o| {
            o.scenario.adversary == AdversarySpec::None
                && o.scenario.participation == ParticipationSpec::Full
        })
        .all(|o| o.decided_blocks > 0);
    assert!(fault_free_progress, "a fault-free scenario decided nothing");
    eprintln!("all scenarios safe; fault-free scenarios all made progress");

    // Large-n rows: the committee sizes the aggregation plane exists
    // for. Only viable with certificates collapsing per-view traffic to
    // O(n²) — the per-vote baseline at n=256 would push ~50M deliveries
    // per seed. Few views, one seed, fault-free: these rows check the
    // plane at scale, not the adversary axes (the small matrix covers
    // those, and certificates are on in every cell above too).
    if !smoke {
        let large = ScenarioMatrix::new(vec![128, 256], vec![4])
            .views(3)
            .seeds(vec![1])
            .participation(vec![ParticipationSpec::Full])
            .delays(vec![DelaySpec::Uniform])
            .adversaries(vec![AdversarySpec::None])
            .workload(TxWorkload::PerView { count: 1, size: 32 });
        eprintln!("sweeping {} large-n scenarios (n=128/256)...", large.len());
        let large_report = run_matrix(&large, 0);
        if json {
            print!("{}", large_report.to_json());
        } else {
            print!("{}", large_report.render());
        }
        assert!(large_report.all_safe(), "safety violated at large n");
        assert!(
            large_report.outcomes().iter().all(|o| o.decided_blocks > 0),
            "a large-n fault-free scenario decided nothing"
        );
        eprintln!("large-n rows safe and live");
    }

    // Overload rows: the ingestion-plane axes. An open-loop client
    // population drives far more traffic than the chain can include and
    // the bounded mempool must shed the excess — without ever hurting
    // safety or stalling fault-free progress.
    //
    //  * mempool-saturation: arrival rate ≫ capacity, fee-priority
    //    eviction under pressure;
    //  * slow-client / bursty: a small population with rate caps low
    //    enough that bursts trip per-client rate limiting.
    let (users, rate_milli) = if smoke { (10_000, 20_000) } else { (1_000_000, 60_000) };
    let saturation = OpenLoopSpec { users, rate_milli, ..OpenLoopSpec::default() };
    let bursty = OpenLoopSpec {
        users: 64,
        rate_milli: 8_000,
        burst_every: 32,
        burst_len: 16,
        burst_mult: 16,
        ..OpenLoopSpec::default()
    };
    let overload_rows = vec![
        (
            "mempool-saturation",
            ScenarioMatrix::new(vec![5], vec![4])
                .views(if smoke { 4 } else { 8 })
                .workload(TxWorkload::OpenLoop(saturation))
                .admission(AdmissionPolicy { capacity: 256, rate_cap: 0, rate_window: 64 }),
        ),
        (
            "slow-client",
            ScenarioMatrix::new(vec![5], vec![4])
                .views(if smoke { 4 } else { 8 })
                .workload(TxWorkload::OpenLoop(bursty))
                .admission(AdmissionPolicy { capacity: 4096, rate_cap: 4, rate_window: 16 }),
        ),
    ];
    for (name, matrix) in overload_rows {
        eprintln!("sweeping overload row: {name}...");
        let report = run_matrix(&matrix, 0);
        if json {
            print!("{}", report.to_json());
        } else {
            print!("{}", report.render());
        }
        assert!(report.all_safe(), "overload row {name} violated safety");
        for o in report.outcomes() {
            assert!(o.decided_blocks > 0, "overload row {name} decided nothing");
            assert!(o.admission.accepted > 0, "overload row {name} admitted nothing");
            let shed = o.admission.busy + o.admission.rate_limited + o.admission.evicted;
            assert!(shed > 0, "overload row {name} shed no load (not an overload)");
        }
    }
    eprintln!("overload rows safe, live, and load-shedding");
}
