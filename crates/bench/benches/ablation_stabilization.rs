//! Ablation of the **2Δ stabilization period** (paper §2 and §6.3).
//!
//! TOB-SVD needs the (5Δ, 2Δ, ½)-sleepy model: a validator that votes in
//! view v must have been awake since `t_v − Δ` (= `t_{v−1} + 3Δ`, the 2Δ
//! snapshot of `GA_{v−1}`), otherwise it has no grade-1 lock and must
//! skip the vote. This bench runs three participation patterns over the
//! same network and workload:
//!
//! * **stable** — everyone always awake (T_s trivially satisfied);
//! * **blink@−Δ** — a group naps exactly around `t_v − Δ` each view,
//!   breaking the 2Δ stability window while staying awake ≈ 90 % of the
//!   time — their votes (and thus voting-phase counts) collapse;
//! * **blink@+3Δ·(idle)** — the same nap length placed in the idle slot
//!   `[t_v + 2Δ + 1, t_v + 3Δ)` … which also covers no snapshot, chosen
//!   to show that *where* you sleep, not how much, is what matters.
//!
//! The measured votes-per-view of the napping group quantifies the
//! stabilization requirement.

use tobsvd_analysis::Table;
use tobsvd_core::{TobSimulationBuilder, TxWorkload};
use tobsvd_sim::{ParticipationSchedule, WorstCaseDelay};
use tobsvd_types::{Delta, Time, ValidatorId};

fn blink_schedule(
    n: usize,
    nappers: &[ValidatorId],
    views: u64,
    delta: Delta,
    offset_deltas: u64,
) -> ParticipationSchedule {
    let d = delta.ticks();
    let mut sched = ParticipationSchedule::always_awake(n);
    for v in nappers {
        let mut awake = Vec::new();
        let mut cursor = 0u64;
        for view in 0..=views {
            // Nap of 2 ticks centered on t_view + offset_deltas·Δ.
            let nap_start = view * 4 * d + offset_deltas * d;
            let nap_end = nap_start + 2;
            if nap_start > cursor {
                awake.push((Time::new(cursor), Time::new(nap_start)));
            }
            cursor = nap_end;
        }
        awake.push((Time::new(cursor), Time::new((views + 2) * 4 * d)));
        sched.set_intervals(*v, awake);
    }
    sched
}

fn run(name: &str, schedule: Option<ParticipationSchedule>, n: usize, views: u64) -> (String, Vec<String>) {
    let mut b = TobSimulationBuilder::new(n)
        .views(views)
        .seed(5)
        .workload(TxWorkload::PerView { count: 1, size: 32 })
        .delay(Box::new(WorstCaseDelay));
    if let Some(s) = schedule {
        b = b.participation(s);
    }
    let report = b.run().expect("runs");
    report.assert_safety();
    let votes = |nappers: bool| -> f64 {
        let vals = report.honest_validators().filter(|v| (v.id().index() < 2) == nappers);
        vals.map(|v| v.votes_cast() as f64).sum()
    };
    let (napper_votes, stable_votes) = (votes(true) / 2.0, votes(false) / (n - 2) as f64);
    (
        name.to_string(),
        vec![
            name.to_string(),
            format!("{:.2}", napper_votes / views as f64),
            format!("{:.2}", stable_votes / views as f64),
            report.decided_blocks().to_string(),
        ],
    )
}

fn main() {
    println!("=== Stabilization-period ablation (T_s = 2Δ, §2/§6.3) ===\n");
    let n = 7;
    let views = 24u64;
    let delta = Delta::default();
    let nappers: Vec<ValidatorId> = (0..2).map(ValidatorId::new).collect();

    let mut table = Table::new(vec![
        "pattern",
        "napper votes/view",
        "stable votes/view",
        "blocks decided",
    ]);

    let (_, row) = run("stable (always awake)", None, n, views);
    table.row(row);

    // Nap around t_v − Δ = t_{v−1} + 3Δ: kills the 2Δ snapshot of
    // GA_{v−1} → no lock → no vote. Offset 3Δ within the *previous* view
    // == offset 3 with the nap indexed per view.
    let sched = blink_schedule(n, &nappers, views, delta, 3);
    let (_, row) = run("blink@t_v−Δ (breaks T_s=2Δ)", Some(sched), n, views);
    table.row(row);

    // Same nap length in a harmless slot: just after the decide phase.
    let mut harmless = ParticipationSchedule::always_awake(n);
    {
        let d = delta.ticks();
        for v in &nappers {
            let mut awake = Vec::new();
            let mut cursor = 0u64;
            for view in 0..=views {
                let nap_start = view * 4 * d + 2 * d + 2; // inside (2Δ, 3Δ)
                let nap_end = nap_start + 2;
                if nap_start > cursor {
                    awake.push((Time::new(cursor), Time::new(nap_start)));
                }
                cursor = nap_end;
            }
            awake.push((Time::new(cursor), Time::new((views + 2) * 4 * d)));
            harmless.set_intervals(*v, awake);
        }
    }
    let (_, row) = run("blink@(2Δ,3Δ) (harmless slot)", Some(harmless), n, views);
    table.row(row);

    println!("{}", table.render());
    println!("reading: napping across the 2Δ-snapshot boundary suppresses the group's votes");
    println!("(no lock → vote skipped), while the same nap in a non-snapshot slot costs nothing —");
    println!("the stabilization period is about *which* 2Δ window is stable, exactly as §6.3 argues.");
}
