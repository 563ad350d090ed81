//! Failing-schedule shrinking.
//!
//! Given a scenario that violates some invariant, [`shrink`] searches
//! for a smaller scenario that still violates one of the *same*
//! invariants: it shortens the horizon, delta-debugs the levers of each
//! kind in turn (Byzantine cast, churn events, mid-run corruptions,
//! fetch-corruption windows, kill/restart faults and state-corruption
//! faults — dropping halves before singletons), falls back to the
//! buffered sync mode when none of the fetch, crash or stabilization
//! dimensions is load-bearing, strips the workload, shrinks Δ, compacts
//! validator ids and shrinks `n`, and canonicalizes the delay policy
//! and seed.
//! Candidates are re-executed to confirm the failure survives; the
//! result is a locally-minimal reproducer — removing any single
//! remaining ingredient makes the violation disappear.
//!
//! Shrinking is deterministic: candidate order is fixed, executions are
//! seed-driven, so the same failing scenario always shrinks to the same
//! minimal reproducer.

use crate::scenario::{CheckScenario, DelayKind, LeverKind, SyncMode};

/// The outcome of a shrink search.
#[derive(Clone, Debug)]
pub struct ShrinkResult {
    /// The locally-minimal failing scenario.
    pub minimal: CheckScenario,
    /// The minimal scenario's failure signature (violated invariants,
    /// plus the observer-safety marker if the observer flags it).
    pub violated: Vec<&'static str>,
    /// Full passes over the shrinking dimensions.
    pub rounds: usize,
    /// Candidate executions performed.
    pub candidates_tried: usize,
}

struct Search {
    target: Vec<&'static str>,
    tried: usize,
}

impl Search {
    /// Whether `candidate` still exhibits one of the target failures.
    fn still_fails(&mut self, candidate: &CheckScenario) -> bool {
        if !candidate.is_valid() {
            return false;
        }
        self.tried += 1;
        let verdict = candidate.run();
        verdict
            .failure_signature()
            .iter()
            .any(|name| self.target.contains(name))
    }

    /// Applies `edit` to a clone of `current`; on surviving failure the
    /// candidate replaces `current` and `true` is returned.
    fn attempt<F>(&mut self, current: &mut CheckScenario, edit: F) -> bool
    where
        F: FnOnce(&mut CheckScenario),
    {
        let mut candidate = current.clone();
        edit(&mut candidate);
        if candidate == *current {
            return false;
        }
        if self.still_fails(&candidate) {
            *current = candidate;
            true
        } else {
            false
        }
    }
}

/// Delta-debugs the levers of one kind (`rank`, see
/// [`LeverKind::rank`]): tries dropping chunks of halving sizes until no
/// chunk can be removed without losing the failure.
fn ddmin(search: &mut Search, current: &mut CheckScenario, rank: usize) -> bool {
    let len_of = |c: &CheckScenario| c.levers.iter().filter(|l| l.kind.rank() == rank).count();
    let mut progressed = false;
    let mut chunk = len_of(current).max(1);
    while chunk >= 1 {
        let mut start = 0;
        while start < len_of(current) {
            let end = (start + chunk).min(len_of(current));
            let removed = search.attempt(current, |c| {
                // Drop this kind's levers number `start..end`.
                let mut i = 0;
                c.levers.retain(|l| {
                    if l.kind.rank() != rank {
                        return true;
                    }
                    i += 1;
                    !(start..end).contains(&(i - 1))
                });
            });
            if removed {
                progressed = true;
                // Same start now addresses the next chunk.
            } else {
                start = end;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    progressed
}

/// Shrinks `failing` while preserving at least one entry of its
/// failure signature (violated invariants, or the observer's own
/// safety flag — so an observer/invariant divergence shrinks too).
/// `failing` must actually fail; the returned scenario is locally
/// minimal.
///
/// # Panics
///
/// Panics if `failing` passes every check when re-run.
pub fn shrink(failing: &CheckScenario) -> ShrinkResult {
    let baseline = failing.run();
    let target = baseline.failure_signature();
    assert!(
        !target.is_empty(),
        "shrink requires a failing scenario; {failing:?} passed"
    );
    let mut search = Search { target, tried: 0 };
    let mut current = failing.clone();
    let mut rounds = 0usize;

    loop {
        rounds += 1;
        let mut progressed = false;

        // 1. Shorten the horizon: halve, then decrement.
        while current.views > 1 {
            let half = (current.views / 2).max(1);
            if half < current.views && search.attempt(&mut current, |c| c.views = half) {
                progressed = true;
            } else {
                break;
            }
        }
        while current.views > 1 && search.attempt(&mut current, |c| c.views -= 1) {
            progressed = true;
        }

        // 2. Delta-debug each lever kind in canonical order: Byzantine
        //    cast, churn events, mid-run corruptions, fetch-corruption
        //    windows, kill/restart faults, state-corruption faults.
        for rank in 0..LeverKind::COUNT {
            progressed |= ddmin(&mut search, &mut current, rank);
        }
        // 3. Fall back to the buffered model (which removes the whole
        //    fetch dimension when it is not load-bearing). Only a
        //    scenario without crashes or state faults may: a restart's
        //    recovery and a stabilization repair run over the
        //    drop+recover sync plane, so clearing the mode would
        //    silently change what they test.
        if current.sync != SyncMode::Buffered
            && !current
                .levers
                .iter()
                .any(|l| matches!(l.kind, LeverKind::Crash { .. } | LeverKind::State { .. }))
            && search.attempt(&mut current, |c| {
                c.sync = SyncMode::Buffered;
                c.levers.retain(|l| !matches!(l.kind, LeverKind::Fetch { .. }));
            })
        {
            progressed = true;
        }

        // 4. Strip the workload.
        if current.txs_per_view > 0 && search.attempt(&mut current, |c| c.txs_per_view = 0) {
            progressed = true;
        }

        // 5. Shrink Δ.
        while current.delta > 1 {
            let half = (current.delta / 2).max(1);
            if search.attempt(&mut current, |c| c.delta = half) {
                progressed = true;
            } else {
                break;
            }
        }

        // 6. Compact validator ids: remap the misbehaving cast onto the
        //    lowest ids (order-preserving), so the n-shrink below can
        //    cut the now-unreferenced tail.
        let mut referenced: Vec<u32> = current.levers.iter().map(|l| l.validator).collect();
        referenced.sort_unstable();
        referenced.dedup();
        let compact: Vec<u32> = (0..referenced.len() as u32).collect();
        if referenced != compact {
            let rank = |v: u32| referenced.iter().position(|r| *r == v).unwrap() as u32;
            if search.attempt(&mut current, |c| {
                for lever in &mut c.levers {
                    lever.validator = rank(lever.validator);
                }
            }) {
                progressed = true;
            }
        }

        // 7. Shrink n (only when no ingredient references the removed
        //    validator — is_valid() rejects the rest).
        while current.n > 2 && search.attempt(&mut current, |c| c.n -= 1) {
            progressed = true;
        }

        // 8. Canonicalize the delay policy and seed.
        if current.delay != DelayKind::Uniform
            && search.attempt(&mut current, |c| c.delay = DelayKind::Uniform)
        {
            progressed = true;
        }
        if current.seed != 0 && search.attempt(&mut current, |c| c.seed = 0) {
            progressed = true;
        }

        if !progressed {
            break;
        }
    }

    let violated = current.run().failure_signature();
    ShrinkResult { minimal: current, violated, rounds, candidates_tried: search.tried }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{run_until_failure, CheckConfig};
    use crate::space::ScenarioSpace;

    #[test]
    fn shrinks_a_hostile_failure_to_a_local_minimum() {
        let cfg = CheckConfig::new(0, 42).space(ScenarioSpace::hostile());
        let report = run_until_failure(&cfg, 16, 256);
        let failure = &report.failures[0];
        let result = shrink(&failure.scenario);

        // The minimal scenario still fails the same way.
        assert!(!result.violated.is_empty());
        assert!(result
            .violated
            .iter()
            .any(|n| failure.verdict.failure_signature().contains(n)));

        // It is no bigger than the original on every shrinking axis.
        let (min, orig) = (&result.minimal, &failure.scenario);
        assert!(min.views <= orig.views);
        assert!(min.complexity() <= orig.complexity());
        assert!(min.n <= orig.n);

        // Local minimality: removing any remaining ingredient, or
        // shortening the horizon further, loses the failure.
        let still_fails = |c: &CheckScenario| {
            c.is_valid()
                && c.run()
                    .failure_signature()
                    .iter()
                    .any(|n| result.violated.contains(n))
        };
        if min.views > 1 {
            let mut c = min.clone();
            c.views -= 1;
            assert!(!still_fails(&c), "views still shrinkable: {c:?}");
        }
        for i in 0..min.levers.len() {
            let mut c = min.clone();
            c.levers.remove(i);
            assert!(!still_fails(&c), "levers[{i}] still droppable: {c:?}");
        }

        // Shrinking is deterministic end to end.
        let again = shrink(&failure.scenario);
        assert_eq!(again.minimal, result.minimal);
        assert_eq!(again.candidates_tried, result.candidates_tried);
    }

    #[test]
    #[should_panic(expected = "shrink requires a failing scenario")]
    fn refuses_passing_scenarios() {
        let _ = shrink(&CheckScenario::fault_free(4, 4, 4, 1));
    }
}
