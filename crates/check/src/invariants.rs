//! Protocol-aware invariants (they need `tobsvd-core`'s view timing,
//! so they live here rather than in `tobsvd-sim`).

use tobsvd_core::{TobReport, ViewSchedule};
use tobsvd_sim::{DecisionEvent, DecisionObserver, Invariant, InvariantViolation};
use tobsvd_types::{BlockStore, Delta, Time, ValidatorId};

use crate::scenario::CheckScenario;

/// Bounded decision latency under good leaders: every block that enters
/// the decided anchor must do so within `max_deltas`·Δ of its proposal
/// time (the start of the view stamped into the block).
///
/// In a fault-free run every view has a good leader and its block
/// decides exactly 6Δ after proposal (Figure 3: the grade-2 output of
/// `GA_v` lands at `t_v + 6Δ`), so the good-case bound is tight at 6Δ.
/// The checker installs this invariant only on fault-free scenarios —
/// with Byzantine leaders or churn a block can legitimately be decided
/// by a later view's GA, so no per-block bound holds in general.
pub struct BoundedDecisionLatency {
    schedule: ViewSchedule,
    delta: Delta,
    max_deltas: u64,
    /// Anchor length already latency-checked.
    covered: u64,
}

impl BoundedDecisionLatency {
    /// A bound of `max_deltas`·Δ per decided block.
    pub fn new(delta: Delta, max_deltas: u64) -> Self {
        BoundedDecisionLatency {
            schedule: ViewSchedule::new(delta),
            delta,
            max_deltas,
            covered: 1,
        }
    }

    /// The paper's good-case bound: exactly 6Δ from proposal to
    /// decision, checked with no slack.
    pub fn good_case(delta: Delta) -> Self {
        Self::new(delta, 6)
    }
}

impl Invariant for BoundedDecisionLatency {
    fn name(&self) -> &'static str {
        "bounded-decision-latency"
    }

    fn on_decision(&mut self, ev: &DecisionEvent<'_>) -> Result<(), String> {
        let Some(anchor) = ev.observer.longest_decided() else {
            return Ok(());
        };
        if anchor.len() <= self.covered {
            return Ok(());
        }
        let from = self.covered;
        // Mark the whole growth as checked up front: each block is
        // latency-checked (and at most once reported) exactly once,
        // even when an earlier block in the same growth violates.
        self.covered = anchor.len();
        let Some(ids) = ev.store.chain_range(anchor.tip(), from) else {
            return Err("decided anchor does not resolve in the store".into());
        };
        let mut first_violation = None;
        for id in ids {
            let Some(block) = ev.store.get(id) else {
                return Err(format!("anchored block {id} missing from the store"));
            };
            let proposed_at = self.schedule.view_start(block.view());
            let latency = ev.record.at - proposed_at;
            // Saturating: a bound of u64::MAX Δ means "no bound", not a
            // wrap that flags every block.
            let bound = self.max_deltas.saturating_mul(self.delta.ticks());
            if latency > bound && first_violation.is_none() {
                first_violation = Some(format!(
                    "block of view {} decided {}Δ after proposal (bound {}Δ): proposed t={}, decided t={}",
                    block.view(),
                    latency as f64 / self.delta.ticks() as f64,
                    self.max_deltas,
                    proposed_at,
                    ev.record.at
                ));
            }
        }
        first_violation.map_or(Ok(()), Err)
    }
}

/// Chain growth: at least one block beyond genesis decides over the
/// horizon.
///
/// Trivially true in every fault-free run (each view has a good leader
/// and decides). Above the corruption bound it is the guarantee that
/// *dies first*: with `f ≥ h` split-brain equivocators every vote count
/// ties at best, no lock forms, and the chain halts at genesis (the
/// `chain_halts_above_threshold` experiment). The checker therefore
/// installs this invariant on fault-free scenarios (where a violation
/// is an engine/protocol bug) and on over-bound casts (where a
/// violation is the *expected* finding hostile exploration hunts for
/// and the shrinker minimizes).
#[derive(Debug, Default)]
pub struct ChainGrowth;

impl ChainGrowth {
    /// Creates the invariant.
    pub fn new() -> Self {
        ChainGrowth
    }
}

impl Invariant for ChainGrowth {
    fn name(&self) -> &'static str {
        "chain-growth"
    }

    fn on_decision(&mut self, _ev: &DecisionEvent<'_>) -> Result<(), String> {
        Ok(())
    }

    fn at_end(
        &mut self,
        observer: &DecisionObserver,
        _store: &BlockStore,
        now: Time,
    ) -> Result<(), String> {
        let decided = observer.longest_decided().map(|l| l.len()).unwrap_or(1);
        if decided <= 1 {
            return Err(format!("no block decided beyond genesis by t={now}"));
        }
        Ok(())
    }
}

/// Fetch liveness: at run end, no honest validator may still have a
/// message parked past the scenario's stall bound — an unresolved fetch
/// older than that means the retry machinery failed to recover from
/// whatever the schedule (drops, delays, sleeps, Byzantine silence)
/// threw at it.
///
/// Unlike the engine-level invariants this is an end-of-run check over
/// each finished validator's [`tobsvd_core::SyncState`] (the engine
/// cannot see node internals), appended to the verdict's violation list
/// by [`CheckScenario::run_report`] under the same reporting contract:
/// inside the `⌊(n−1)/2⌋` bound it must always hold; seeing it fail is
/// a sync-machinery bug (or, past the bound, the expected finding).
#[derive(Clone, Copy, Debug)]
pub struct NoStalledFetch {
    /// Maximum tolerated age (in ticks) of a still-parked message.
    pub bound_ticks: u64,
}

impl NoStalledFetch {
    /// Stable violation name.
    pub const NAME: &'static str = "no-stalled-fetch";

    /// The stall bound for a concrete scenario: an 8Δ base (first
    /// retry after 2Δ, a fetch round trip of 2Δ, and generous margin
    /// for re-parking on deeper gaps) plus the scenario's longest
    /// fetch-fault window and longest sleep window — while either
    /// lasts, a fetch may legitimately hang.
    pub fn for_scenario(scenario: &CheckScenario) -> Self {
        let fault_w =
            scenario.fetch_faults.iter().map(|f| f.until - f.from).max().unwrap_or(0);
        let sleep_w = scenario.sleeps.iter().map(|w| w.until - w.from).max().unwrap_or(0);
        // Saturating throughout: shrinker-explored scenarios may carry a
        // Δ (or fault windows) near u64::MAX, and an overflowed bound
        // would wrap small and flag healthy runs.
        let bound_ticks = scenario
            .delta
            .saturating_mul(8)
            .saturating_add(fault_w)
            .saturating_add(sleep_w);
        NoStalledFetch { bound_ticks }
    }

    /// Evaluates the check against a finished run's report.
    pub fn check(&self, report: &TobReport) -> Vec<InvariantViolation> {
        let end = report.report.final_time;
        let mut violations = Vec::new();
        for val in report.honest_validators() {
            let Some(since) = val.sync().oldest_pending_since() else {
                continue;
            };
            let age = end - since;
            if age > self.bound_ticks {
                violations.push(InvariantViolation {
                    invariant: Self::NAME,
                    at: end,
                    detail: format!(
                        "{} ended with {} parked message(s); oldest parked at t={} \
                         ({} ticks ago, bound {})",
                        val.id(),
                        val.sync().pending_len(),
                        since,
                        age,
                        self.bound_ticks
                    ),
                });
            }
        }
        violations
    }
}

/// Re-convergence after a fault: a validator knocked off the common
/// decided anchor at a known tick must end the run back within two
/// blocks of it — provided enough horizon remains after the fault. One
/// check, two fault families, told apart by name and targets only:
///
/// * [`Reconvergence::CRASH`] — a validator killed and restarted from
///   its durable store (snapshot + WAL suffix, remainder fetched over
///   the delta-sync plane), judged from its restart tick. Inside the
///   model a failure is a storage/recovery bug.
/// * [`Reconvergence::STATE`] — a validator whose state was corrupted
///   mid-run (decided-log reset, counter skew, poisoned caches, sync
///   amnesia — the [`tobsvd_sim::StateFault`] vocabulary), repaired by
///   its own per-phase local audits plus the §2 recovery broadcast and
///   the fetch plane, judged from the corruption tick. Inside the model
///   a failure is a stabilization bug (an audit missed or mis-repaired
///   illegal state).
///
/// The grace period is 12Δ: the first view the validator fully
/// participates in starts up to 4Δ after the fault (a restart lands
/// mid-view; an audit fires at the next boundary), and that view's
/// block decides 6Δ after its proposal — plus margin for the recovery
/// and fetch round trips. The scenario's longest declared sleep and
/// fetch-fault windows are added on top (while either lasts, the
/// network may legitimately withhold the catch-up traffic). Faults
/// closer to the horizon than the grace are not judged; the two-block
/// tolerance absorbs decisions still in flight at run end.
///
/// Like [`NoStalledFetch`] this is an end-of-run check over the finished
/// validators (the engine cannot see node internals), appended by
/// [`CheckScenario::run_report`]; past the corruption bound a failure
/// is the expected finding.
#[derive(Clone, Debug)]
pub struct Reconvergence {
    /// Stable violation name: [`Reconvergence::CRASH`] or
    /// [`Reconvergence::STATE`].
    pub name: &'static str,
    /// `(validator, since)`: each judged validator and the tick its
    /// fault took effect.
    pub targets: Vec<(u32, u64)>,
    /// Ticks after a fault before the bound applies.
    pub grace_ticks: u64,
}

impl Reconvergence {
    /// Violation name of the kill/restart check.
    pub const CRASH: &'static str = "crash-reconvergence";
    /// Violation name of the state-corruption check.
    pub const STATE: &'static str = "state-reconvergence";

    /// The check of every scheduled restart, from its restart tick.
    pub fn after_restarts(scenario: &CheckScenario) -> Self {
        let targets = scenario.crashes.iter().map(|c| (c.validator, c.restart_at)).collect();
        Self::for_scenario(Self::CRASH, targets, scenario)
    }

    /// The check of every scheduled state corruption, from its tick.
    pub fn after_state_faults(scenario: &CheckScenario) -> Self {
        let targets = scenario.state_faults.iter().map(|f| (f.validator, f.at)).collect();
        Self::for_scenario(Self::STATE, targets, scenario)
    }

    fn for_scenario(name: &'static str, targets: Vec<(u32, u64)>, scenario: &CheckScenario) -> Self {
        let fault_w =
            scenario.fetch_faults.iter().map(|f| f.until - f.from).max().unwrap_or(0);
        let sleep_w = scenario.sleeps.iter().map(|w| w.until - w.from).max().unwrap_or(0);
        // Saturating: shrinker-explored scenarios may carry extreme
        // deltas or windows, and a wrapped grace would judge faults
        // that never had time to heal.
        let grace_ticks = scenario
            .delta
            .saturating_mul(12)
            .saturating_add(fault_w)
            .saturating_add(sleep_w);
        Reconvergence { name, targets, grace_ticks }
    }

    /// Evaluates the check against a finished run's report.
    pub fn check(&self, report: &TobReport) -> Vec<InvariantViolation> {
        let end = report.report.final_time;
        let max_len = report.max_decided_len();
        let mut violations = Vec::new();
        for (v, since) in &self.targets {
            if since.saturating_add(self.grace_ticks) > end.ticks() {
                continue; // not enough horizon left to judge recovery
            }
            // A validator down at run end (or Byzantine) has no honest
            // state; re-convergence is then not judgeable.
            let id = ValidatorId::new(*v);
            let Some(val) = report.validator(id) else {
                continue;
            };
            let len = val.decided().len();
            if len.saturating_add(2) < max_len {
                violations.push(InvariantViolation {
                    invariant: self.name,
                    at: end,
                    detail: format!(
                        "{id} faulted at t={since} but ended at decided length {len} of \
                         {max_len} after {} audits / {} repairs (grace {} ticks)",
                        val.audits_run(),
                        val.audit_repairs(),
                        self.grace_ticks
                    ),
                });
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{
        CheckScenario, CrashRestart, FetchFault, FetchFaultKind, SleepWindow, StateCorruption,
        SyncMode,
    };
    use tobsvd_sim::StateFault;

    #[test]
    fn good_case_bound_is_tight_and_holds() {
        // 6Δ passes with zero slack on a fault-free run …
        let verdict = CheckScenario::fault_free(4, 4, 6, 3).run();
        assert!(verdict.passed(), "violations: {:?}", verdict.violations);
    }

    #[test]
    fn impossible_bound_is_reported() {
        // … and an impossible 1Δ bound trips on the very first decision,
        // proving the invariant actually measures something.
        let report_builder = |max_deltas| {
            let scenario = CheckScenario::fault_free(4, 4, 5, 3);
            let delta = Delta::new(scenario.delta);
            use tobsvd_core::TobSimulationBuilder;
            let report = TobSimulationBuilder::new(scenario.n as usize)
                .views(scenario.views)
                .seed(scenario.seed)
                .delta(delta)
                .invariant(Box::new(BoundedDecisionLatency::new(delta, max_deltas)))
                .run()
                .expect("runs");
            report.report.invariant_violations.clone()
        };
        assert!(report_builder(6).is_empty());
        let tight = report_builder(1);
        assert!(!tight.is_empty());
        assert_eq!(tight[0].invariant, "bounded-decision-latency");
    }

    /// Regression (issue 6): a scenario with Δ near `u64::MAX` (the
    /// shrinker's search space includes extreme deltas) must produce a
    /// saturated stall bound, not one that wraps small and flags every
    /// healthy run.
    #[test]
    fn stall_bound_saturates_at_extreme_delta() {
        let scenario = CheckScenario {
            sleeps: vec![SleepWindow { validator: 0, from: 0, until: u64::MAX }],
            ..CheckScenario::fault_free(4, u64::MAX / 4, 5, 3)
        };
        let inv = NoStalledFetch::for_scenario(&scenario);
        assert_eq!(inv.bound_ticks, u64::MAX, "8Δ + windows must clamp, not wrap");
    }

    /// A napper that sleeps past the recovery archive's window (so
    /// announcements alone cannot heal its gap — only fetches can) and
    /// whose fetch traffic is dropped until the end of the run: parked
    /// messages can never resolve. The scenario-derived bound tolerates
    /// the (whole-run) declared fault window, but a zero bound must
    /// flag the stall — proving the check actually measures pending age.
    #[test]
    fn stalled_fetch_is_detected_by_a_tight_bound() {
        let delta = 4u64;
        let scenario = CheckScenario {
            // Views span 4Δ; the archive retains ~3 views, so a 5-view
            // nap leaves a gap only the fetch subprotocol could close.
            sleeps: vec![SleepWindow { validator: 0, from: 3 * delta, until: 24 * delta }],
            sync: SyncMode::DropRecover,
            fetch_faults: vec![FetchFault {
                validator: 0,
                from: 24 * delta,
                until: 1_000_000,
                kind: FetchFaultKind::Drop,
            }],
            ..CheckScenario::fault_free(6, delta, 12, 3)
        };
        let report = scenario.run_report();
        let napper = report.validator(ValidatorId::new(0)).expect("napper is honest");
        assert!(napper.sync().pending_len() > 0, "the permanent drop must strand parked messages");
        let tight = NoStalledFetch { bound_ticks: 0 }.check(&report);
        assert!(!tight.is_empty(), "a zero bound must flag the stall");
        assert_eq!(tight[0].invariant, NoStalledFetch::NAME);
        // The scenario bound absorbs the declared fault window, so the
        // run_report-appended check stayed quiet for this schedule.
        assert!(NoStalledFetch::for_scenario(&scenario).check(&report).is_empty());
    }

    /// The re-convergence grace saturates like the stall bound: extreme
    /// deltas must clamp to "never judged", not wrap small — for both
    /// fault families, each keeping its own name and targets.
    #[test]
    fn reconvergence_grace_saturates_at_extreme_delta() {
        let scenario = CheckScenario {
            crashes: vec![CrashRestart { validator: 0, at: 0, restart_at: 1 }],
            state_faults: vec![StateCorruption {
                validator: 1,
                at: 3,
                fault: StateFault::DecidedReset,
            }],
            ..CheckScenario::fault_free(4, u64::MAX / 4, 5, 3)
        };
        let crash = Reconvergence::after_restarts(&scenario);
        let state = Reconvergence::after_state_faults(&scenario);
        assert_eq!((crash.name, crash.targets), (Reconvergence::CRASH, vec![(0, 1)]));
        assert_eq!((state.name, state.targets), (Reconvergence::STATE, vec![(1, 3)]));
        assert_eq!((crash.grace_ticks, state.grace_ticks), (u64::MAX, u64::MAX), "12Δ must clamp");
    }

    /// A validator that genuinely ends the run behind the common anchor
    /// (a napper whose fetch traffic is dead forever) must be flagged
    /// when judged with an elapsed grace — and spared when the grace has
    /// not elapsed. Proves the check measures the decided-length gap and
    /// the grace gate both ways.
    #[test]
    fn reconvergence_flags_a_laggard_and_respects_grace() {
        let delta = 4u64;
        let scenario = CheckScenario {
            sleeps: vec![SleepWindow { validator: 0, from: 3 * delta, until: 24 * delta }],
            sync: SyncMode::DropRecover,
            fetch_faults: vec![FetchFault {
                validator: 0,
                from: 24 * delta,
                until: 1_000_000,
                kind: FetchFaultKind::Drop,
            }],
            ..CheckScenario::fault_free(6, delta, 12, 3)
        };
        let report = scenario.run_report();
        let napper = report.validator(ValidatorId::new(0)).expect("napper is honest");
        assert!(
            napper.decided().len() + 2 < report.max_decided_len(),
            "the dead fetch plane must leave the napper behind"
        );
        let check = |targets, grace_ticks| {
            Reconvergence { name: Reconvergence::STATE, targets, grace_ticks }.check(&report)
        };
        let flagged = check(vec![(0, 0)], 0);
        assert_eq!(flagged.len(), 1, "an elapsed grace must flag the laggard");
        assert_eq!(flagged[0].invariant, Reconvergence::STATE);
        assert!(check(vec![(0, 0)], u64::MAX).is_empty(), "an unelapsed grace judges nothing");
        // Out-of-range and Byzantine validators have no honest state and
        // are skipped rather than judged.
        assert!(check(vec![(99, 0)], 0).is_empty());
    }
}
