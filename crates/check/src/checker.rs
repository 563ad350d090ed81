//! The parallel exploration loop.
//!
//! Every execution index `i` derives its own RNG from
//! `splitmix(master_seed, i)`, samples one [`CheckScenario`] from the
//! configured [`ScenarioSpace`] and runs it with the invariant bundle
//! installed. Indices are distributed over scoped work-stealing threads
//! (`run_indexed`); since each execution is a pure function of
//! `(master_seed, i)`, the report — and its order-sensitive fingerprint
//! — is bit-identical for any thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::scenario::{CheckScenario, ExecutionVerdict};
use crate::space::ScenarioSpace;

/// Configuration of one exploration run.
#[derive(Clone, Debug)]
pub struct CheckConfig {
    /// Number of randomized executions.
    pub executions: usize,
    /// Master seed; execution `i` uses RNG `splitmix(seed, i)`.
    pub seed: u64,
    /// Worker threads (`0` = one per available core).
    pub threads: usize,
    /// The scenario space to sample from.
    pub space: ScenarioSpace,
}

impl CheckConfig {
    /// `executions` model-compliant executions from `seed` on all cores.
    pub fn new(executions: usize, seed: u64) -> Self {
        CheckConfig { executions, seed, threads: 0, space: ScenarioSpace::default() }
    }

    /// Replaces the scenario space.
    pub fn space(mut self, space: ScenarioSpace) -> Self {
        self.space = space;
        self
    }

    /// Sets the worker-thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// One failing execution: the sampled scenario plus its verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct Failure {
    /// Execution index within the run.
    pub index: usize,
    /// The failing schedule (replay with [`CheckScenario::run`]).
    pub scenario: CheckScenario,
    /// The verdict, including every invariant violation.
    pub verdict: ExecutionVerdict,
}

/// The collected result of an exploration run.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Executions performed.
    pub executions: usize,
    /// Failing executions, in index order.
    pub failures: Vec<Failure>,
    /// Total decided blocks across all executions.
    pub total_decided_blocks: u64,
    /// Total ticks the engines actually executed.
    pub total_executed_ticks: u64,
    /// Order-sensitive digest over every execution's verdict — equal
    /// digests mean equal per-execution verdicts, for any thread count.
    pub fingerprint: u64,
    /// Worker threads actually used (the requested count resolved
    /// against cores and work, never 0).
    pub threads: usize,
    /// Wall-clock time of the exploration.
    pub wall: Duration,
}

impl CheckReport {
    /// Whether every execution passed every invariant.
    pub fn all_passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        format!(
            "{} executions on {} threads in {:.2}s — {} failures, {} decided blocks, fingerprint {:016x}",
            self.executions,
            self.threads,
            self.wall.as_secs_f64(),
            self.failures.len(),
            self.total_decided_blocks,
            self.fingerprint,
        )
    }
}

/// Splitmix64: the per-execution seed derivation. Public so replay
/// harnesses can reconstruct the exact RNG of a reported index.
pub fn derive_seed(master: u64, index: u64) -> u64 {
    let mut z = master ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The scenario the checker would run at `index` — exploration,
/// reporting and replay all agree on this mapping.
pub fn scenario_at(cfg: &CheckConfig, index: usize) -> CheckScenario {
    let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, index as u64));
    cfg.space.sample(&mut rng)
}

fn fold_fingerprint(acc: u64, verdict: &ExecutionVerdict) -> u64 {
    let mut h = acc;
    let mut mix = |x: u64| {
        h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(verdict.decided_blocks);
    mix(verdict.executed_ticks);
    mix(u64::from(verdict.observer_safe));
    mix(verdict.violations.len() as u64);
    for v in &verdict.violations {
        for b in v.invariant.bytes() {
            mix(u64::from(b));
        }
        mix(v.at.ticks());
    }
    h
}

/// FNV offset basis: the empty-exploration fingerprint every digest
/// folds from.
const FINGERPRINT_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Deterministic parallel fan-out over an index range: computes `f(i)`
/// for every `i in 0..count` on `threads` scoped worker threads (`0` =
/// one per available core) and returns the results in index order.
///
/// Workers pull the next index from an atomic counter and keep
/// `(i, f(i))` pairs; sorting the pairs by index restores order, so as
/// long as `f` is a pure function of `i` the output is bit-identical
/// for any thread count. The counter publishes nothing (results come
/// back through `join`), hence `Relaxed`. A panic in `f` resumes on the
/// caller.
fn run_indexed<T, F>(count: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                return done;
            }
            done.push((i, f(i)));
        }
    };
    let mut pairs: Vec<(usize, T)> = std::thread::scope(|s| {
        let workers: Vec<_> =
            (0..effective_threads(threads, count)).map(|_| s.spawn(work)).collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    });
    pairs.sort_unstable_by_key(|(i, _)| *i);
    pairs.into_iter().map(|(_, result)| result).collect()
}

/// Resolves a requested worker count (`0` = one per available core)
/// against the amount of work, exactly as [`run_indexed`] will: at
/// least 1, at most one per work item.
fn effective_threads(requested: usize, work: usize) -> usize {
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = if requested == 0 { available } else { requested };
    threads.clamp(1, work.max(1))
}

/// Runs executions `start..start + count` of the (conceptually
/// unbounded) exploration stream defined by `cfg.seed` and `cfg.space`,
/// folding verdicts into a fingerprint starting from `basis` (so
/// consecutive ranges chain into the digest a single run would give).
/// `Failure::index` values are global stream indices, so
/// [`scenario_at`]`(cfg, failure.index)` always reconstructs the exact
/// failing scenario, whichever entry point produced the report.
fn run_range(cfg: &CheckConfig, start: usize, count: usize, basis: u64) -> CheckReport {
    // Wall time only decorates the report; fingerprints chain scenario
    // digests and never observe it.
    #[allow(clippy::disallowed_methods)]
    let t0 = Instant::now();
    let outcomes: Vec<(CheckScenario, ExecutionVerdict)> = run_indexed(count, cfg.threads, |i| {
        let scenario = scenario_at(cfg, start + i);
        let verdict = scenario.run();
        (scenario, verdict)
    });

    let mut failures = Vec::new();
    let mut total_decided_blocks = 0;
    let mut total_executed_ticks = 0;
    let mut fingerprint = basis;
    for (offset, (scenario, verdict)) in outcomes.into_iter().enumerate() {
        fingerprint = fold_fingerprint(fingerprint, &verdict);
        total_decided_blocks += verdict.decided_blocks;
        total_executed_ticks += verdict.executed_ticks;
        if !verdict.passed() {
            failures.push(Failure { index: start + offset, scenario, verdict });
        }
    }
    CheckReport {
        executions: count,
        failures,
        total_decided_blocks,
        total_executed_ticks,
        fingerprint,
        threads: effective_threads(cfg.threads, count),
        wall: t0.elapsed(),
    }
}

/// Runs the exploration described by `cfg` (stream indices
/// `0..cfg.executions`).
pub fn run(cfg: &CheckConfig) -> CheckReport {
    run_range(cfg, 0, cfg.executions, FINGERPRINT_BASIS)
}

/// Keeps exploring the same stream (in batches of `batch`) until a
/// failure is found or `max_executions` is exhausted. The returned
/// report always covers the *whole* exploration so far: `executions`
/// and the totals are cumulative across batches, `failures` are the
/// failing batch's (with global stream indices), and `fingerprint`
/// chains batch digests — a clean exhausted run reports exactly the
/// fingerprint `run` would give for `max_executions` executions.
pub fn run_until_failure(cfg: &CheckConfig, batch: usize, max_executions: usize) -> CheckReport {
    // Reporting-only wall timer, as in `run_range`.
    #[allow(clippy::disallowed_methods)]
    let t0 = Instant::now();
    let mut offset = 0usize;
    let mut total_decided_blocks = 0;
    let mut total_executed_ticks = 0;
    let mut fingerprint = FINGERPRINT_BASIS;
    while offset < max_executions {
        let count = batch.min(max_executions - offset).max(1);
        let mut report = run_range(cfg, offset, count, fingerprint);
        offset += count;
        total_decided_blocks += report.total_decided_blocks;
        total_executed_ticks += report.total_executed_ticks;
        fingerprint = report.fingerprint;
        if !report.all_passed() {
            report.executions = offset;
            report.total_decided_blocks = total_decided_blocks;
            report.total_executed_ticks = total_executed_ticks;
            report.wall = t0.elapsed();
            return report;
        }
    }
    CheckReport {
        executions: offset,
        failures: Vec::new(),
        total_decided_blocks,
        total_executed_ticks,
        fingerprint,
        threads: effective_threads(cfg.threads, batch.max(1)),
        wall: t0.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn clean_space_produces_no_failures() {
        let cfg = CheckConfig::new(40, 11);
        let report = run(&cfg);
        assert_eq!(report.executions, 40);
        assert!(
            report.all_passed(),
            "model-compliant scenarios must satisfy every invariant: {:?}",
            report.failures.first()
        );
        assert!(report.total_decided_blocks > 0);
    }

    #[test]
    fn fingerprint_is_thread_count_independent() {
        let serial = run(&CheckConfig::new(24, 3).threads(1));
        let parallel = run(&CheckConfig::new(24, 3).threads(4));
        assert_eq!(serial.fingerprint, parallel.fingerprint);
        assert_eq!(serial.failures, parallel.failures);
        let other_seed = run(&CheckConfig::new(24, 4).threads(1));
        assert_ne!(serial.fingerprint, other_seed.fingerprint);
    }

    #[test]
    fn scenario_at_matches_exploration() {
        let cfg = CheckConfig::new(5, 77);
        let report = run(&cfg);
        // Re-deriving index 3's scenario and re-running it reproduces
        // the contribution the fingerprint saw (smoke: just verdicts).
        let scenario = scenario_at(&cfg, 3);
        let v1 = scenario.run();
        let v2 = scenario_at(&cfg, 3).run();
        assert_eq!(v1, v2);
        assert_eq!(report.executions, 5);
    }

    #[test]
    fn hostile_space_finds_a_failure() {
        let cfg = CheckConfig::new(0, 21).space(ScenarioSpace::hostile());
        let report = run_until_failure(&cfg, 16, 256);
        assert!(
            !report.all_passed(),
            "over-bound equivocator casts must eventually break safety"
        );
        let failure = &report.failures[0];
        assert!(!failure.verdict.failure_signature().is_empty());
        // The failure replays to the identical verdict, and its global
        // index maps back to the exact scenario through scenario_at.
        assert_eq!(failure.scenario.run(), failure.verdict);
        assert_eq!(scenario_at(&cfg, failure.index), failure.scenario);
    }

    #[test]
    fn clean_run_until_failure_reports_the_whole_exploration() {
        let cfg = CheckConfig::new(0, 11); // compliant space: no failures
        let report = run_until_failure(&cfg, 10, 25);
        assert!(report.all_passed());
        assert_eq!(report.executions, 25, "exhausted budget must be reported in full");
        assert!(report.total_decided_blocks > 0);
        // Chained batch fingerprints equal one straight run's digest.
        let straight = run(&CheckConfig { executions: 25, ..cfg });
        assert_eq!(report.fingerprint, straight.fingerprint);
        assert_eq!(report.total_decided_blocks, straight.total_decided_blocks);
    }
}
