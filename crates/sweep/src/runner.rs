//! The parallel sweep runner.
//!
//! Scenarios are independent by construction — each builds its own
//! simulation with its own seed-derived `StdRng` and shares nothing
//! mutable — so the runner is an embarrassingly-parallel work-stealing
//! loop: crossbeam scoped worker threads pull the next scenario index
//! from an atomic counter and write the outcome into that scenario's
//! pre-allocated slot. Matrix order is restored by construction and the
//! results are bit-identical for any thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

use crate::matrix::{Scenario, ScenarioMatrix};
use crate::report::{ScenarioOutcome, SweepReport};

/// Expands `matrix` and runs every scenario on `threads` workers.
///
/// `threads == 0` means "one per available core".
pub fn run_matrix(matrix: &ScenarioMatrix, threads: usize) -> SweepReport {
    run_scenarios(&matrix.scenarios(), threads)
}

/// Runs an explicit scenario list on `threads` scoped worker threads
/// (`0` = one per available core), collecting outcomes in list order.
///
/// # Panics
///
/// Panics if a scenario itself panics (invalid parameters); the panic is
/// propagated when the scope joins its workers.
pub fn run_scenarios(scenarios: &[Scenario], threads: usize) -> SweepReport {
    let threads = effective_threads(threads, scenarios.len());
    // Wall-clock timing feeds only the human-facing throughput figure in
    // the sweep report; transcripts and fingerprints never read it.
    #[allow(clippy::disallowed_methods)]
    let t0 = Instant::now();
    let outcomes = run_indexed(scenarios.len(), threads, |i| {
        let scenario = &scenarios[i];
        // Reporting-only, like `t0`.
        #[allow(clippy::disallowed_methods)]
        let started = Instant::now();
        let report = scenario.run_report();
        ScenarioOutcome::from_report(scenario.clone(), &report, started.elapsed())
    });
    SweepReport::new(outcomes, t0.elapsed(), threads)
}

/// Deterministic parallel fan-out over an index range: computes `f(i)`
/// for every `i in 0..count` on `threads` crossbeam scoped worker
/// threads (`0` = one per available core) and returns the results in
/// index order.
///
/// This is the sweep runner's work-stealing core, exposed for other
/// embarrassingly-parallel explorers (the `tobsvd-check` model checker
/// reuses it): workers pull the next index from an atomic counter and
/// write into that index's pre-allocated slot, so as long as `f` is a
/// pure function of `i` the output is bit-identical for any thread
/// count.
///
/// # Panics
///
/// Panics if `f` panics for some index; the panic is propagated when
/// the scope joins its workers.
pub fn run_indexed<T, F>(count: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = effective_threads(threads, count);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    if count > 0 {
        let next = AtomicUsize::new(0);
        let f = &f;
        crossbeam::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|_| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    *slots[i].lock() = Some(f(i));
                });
            }
        })
        .expect("indexed worker panicked");
    }
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every slot filled"))
        .collect()
}

/// Resolves a requested worker count (`0` = one per available core)
/// against the amount of work, exactly as [`run_indexed`] will: at
/// least 1, at most one per work item. Exposed so embedders (the
/// `tobsvd-check` explorer) can report the thread count actually used.
pub fn effective_threads(requested: usize, work: usize) -> usize {
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = if requested == 0 { available } else { requested };
    threads.clamp(1, work.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{AdversarySpec, DelaySpec, ParticipationSpec, ScenarioMatrix};

    fn small_matrix() -> ScenarioMatrix {
        ScenarioMatrix::new(vec![4, 5], vec![4])
            .views(4)
            .seeds(vec![1, 2])
            .delays(vec![DelaySpec::Uniform, DelaySpec::WorstCase])
    }

    #[test]
    fn parallel_results_match_serial_in_matrix_order() {
        let m = small_matrix();
        let serial = run_matrix(&m, 1);
        let parallel = run_matrix(&m, 4);
        assert_eq!(serial.outcomes().len(), m.len());
        assert_eq!(parallel.outcomes().len(), m.len());
        for (a, b) in serial.outcomes().iter().zip(parallel.outcomes()) {
            assert!(
                a.same_results(b),
                "thread count leaked into scenario {}: {a:?} vs {b:?}",
                a.scenario.label()
            );
        }
        assert!(serial.all_safe());
    }

    #[test]
    fn adversarial_axes_run_and_stay_safe() {
        let m = ScenarioMatrix::new(vec![7], vec![4])
            .views(5)
            .participation(vec![
                ParticipationSpec::Full,
                ParticipationSpec::RotatingSleep { groups: 4, window_deltas: 4 },
            ])
            .adversaries(vec![
                AdversarySpec::None,
                AdversarySpec::SplitBrain { count: 2 },
                AdversarySpec::AdaptiveLeaderCorruption { budget: 2 },
            ]);
        let report = run_matrix(&m, 0);
        assert_eq!(report.outcomes().len(), 6);
        assert!(report.all_safe(), "violations: {:?}", report.unsafe_scenarios());
        // The fault-free full-participation cell must decide blocks.
        assert!(report.outcomes()[0].decided_blocks > 0);
    }

    #[test]
    fn empty_matrix_yields_empty_report() {
        let m = ScenarioMatrix::new(vec![], vec![8]);
        let report = run_matrix(&m, 3);
        assert!(report.outcomes().is_empty());
        assert!(report.all_safe());
        assert_eq!(report.tick_totals(), (0, 0));
    }

    #[test]
    fn run_indexed_preserves_order_for_any_thread_count() {
        let f = |i: usize| i * i + 1;
        let serial: Vec<usize> = run_indexed(37, 1, f);
        for threads in [0, 2, 5, 64] {
            assert_eq!(run_indexed(37, threads, f), serial, "threads={threads}");
        }
        assert_eq!(serial[6], 37);
        assert!(run_indexed(0, 4, f).is_empty());
    }

    #[test]
    fn thread_count_is_clamped_to_work() {
        assert_eq!(effective_threads(16, 3), 3);
        assert_eq!(effective_threads(2, 10), 2);
        assert!(effective_threads(0, 100) >= 1);
        assert_eq!(effective_threads(4, 0), 1);
    }
}
