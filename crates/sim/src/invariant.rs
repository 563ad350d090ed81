//! First-class run-time invariants, checked after every decision event.
//!
//! A [`Invariant`] is a predicate over the evolving execution that the
//! engine evaluates *online*: every time an honest validator reports a
//! decision, [`Invariant::on_decision`] runs with the fresh
//! [`DecisionRecord`] and the full [`DecisionObserver`] state; when a
//! run finishes, [`Invariant::at_end`] gets one final look (for bounds
//! that only make sense over a whole horizon, e.g. decision-latency
//! ceilings). A failed check is recorded as an [`InvariantViolation`]
//! and surfaced through `Simulation::invariant_violations` and the
//! `SimReport` — it never panics mid-run, so a model checker can keep
//! exploring and report every violation of a schedule, not just the
//! first.
//!
//! Invariants are installed with `SimulationBuilder::invariant` (one
//! layer up, through `TobSimulationBuilder::engine`) and are
//! deliberately *redundant* with the engine's built-in observer checks:
//! the model checker in `tobsvd-check` uses them to cross-validate the
//! observer with independent implementations of the paper's properties:
//!
//! * [`PrefixAgreement`] — Safety (§3.2): every pair of honest
//!   decisions must be compatible, checked against all per-validator
//!   latest decisions at every intermediate decision point.
//! * [`DecisionMonotonicity`] — a validator never decides a log that
//!   conflicts with its own earlier decision (local TOB delivery is
//!   append-only).
//! * [`NoConflictingAnchor`] — an independently-maintained longest
//!   decided anchor that every decision must be compatible with.
//!
//! Latency-style invariants that need protocol-level knowledge (view
//! schedules, good leaders) live in `tobsvd-check`, which is allowed to
//! depend on `tobsvd-core`.

use std::collections::BTreeMap;

use tobsvd_types::{BlockStore, Log, Time, ValidatorId};

use crate::observer::{DecisionObserver, DecisionRecord};

/// A recorded failure of an installed [`Invariant`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvariantViolation {
    /// [`Invariant::name`] of the failing invariant.
    pub invariant: &'static str,
    /// Simulation time of the decision (or run end) that failed it.
    pub at: Time,
    /// Human-readable description of what went wrong.
    pub detail: String,
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] at t={}: {}", self.invariant, self.at, self.detail)
    }
}

/// Everything an invariant may inspect when a decision lands.
pub struct DecisionEvent<'a> {
    /// The decision that was just recorded (already visible in the
    /// observer's latest/history state).
    pub record: &'a DecisionRecord,
    /// The observer's full view of the run so far.
    pub observer: &'a DecisionObserver,
    /// The shared block store (for log prefix walks).
    pub store: &'a BlockStore,
}

/// An online execution invariant.
///
/// Implementations are stateful (they may carry their own bookkeeping
/// across decisions) and must be deterministic: the model checker
/// replays schedules and expects identical verdicts.
pub trait Invariant: Send {
    /// Stable identifier used in violation reports and reproducers.
    fn name(&self) -> &'static str;

    /// Checks the invariant after a decision event. Return `Err` with a
    /// description to record a violation; the run continues either way.
    fn on_decision(&mut self, ev: &DecisionEvent<'_>) -> Result<(), String>;

    /// A whole-run check (e.g. horizon-wide bounds). May be invoked on
    /// *intermediate* snapshots too — the engine re-evaluates it for
    /// every report and keeps only the latest result — so
    /// implementations must be side-effect-free and give the same
    /// answer for the same observer state. The default does nothing.
    fn at_end(
        &mut self,
        observer: &DecisionObserver,
        store: &BlockStore,
        now: Time,
    ) -> Result<(), String> {
        let _ = (observer, store, now);
        Ok(())
    }
}

/// Safety as pairwise prefix agreement: the new decision must be
/// compatible with every validator's latest decision — checked at every
/// intermediate decision point, so a transient fork window is caught
/// even if the transcripts later reconverge.
#[derive(Debug, Default)]
pub struct PrefixAgreement;

impl PrefixAgreement {
    /// Creates the invariant.
    pub fn new() -> Self {
        PrefixAgreement
    }
}

impl Invariant for PrefixAgreement {
    fn name(&self) -> &'static str {
        "prefix-agreement"
    }

    fn on_decision(&mut self, ev: &DecisionEvent<'_>) -> Result<(), String> {
        // An observer with no violation has every decision so far on one
        // chain (its anchor's), so the scan below could only pass.
        if ev.observer.is_safe() {
            return Ok(());
        }
        // BTreeMap iteration is already validator-id order, which keeps
        // the violation detail deterministic (verdicts are replayed and
        // compared byte-for-byte).
        let latest: Vec<&DecisionRecord> = ev.observer.latest_decisions().values().collect();
        for other in latest {
            if other.validator == ev.record.validator {
                continue;
            }
            if !ev.record.log.compatible(&other.log, ev.store) {
                return Err(format!(
                    "{} decided {} which conflicts with {}'s decision {} (decided at t={})",
                    ev.record.validator, ev.record.log, other.validator, other.log, other.at
                ));
            }
        }
        Ok(())
    }
}

/// Local monotonicity: a validator's decisions never conflict with its
/// own longest earlier decision (deliveries are append-only; a shorter
/// re-announcement must be a prefix of what it already delivered).
#[derive(Debug, Default)]
pub struct DecisionMonotonicity {
    longest: BTreeMap<ValidatorId, Log>,
}

impl DecisionMonotonicity {
    /// Creates the invariant.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Invariant for DecisionMonotonicity {
    fn name(&self) -> &'static str {
        "decision-monotonicity"
    }

    fn on_decision(&mut self, ev: &DecisionEvent<'_>) -> Result<(), String> {
        let v = ev.record.validator;
        let log = ev.record.log;
        if let Some(prev) = self.longest.get(&v) {
            if !prev.compatible(&log, ev.store) {
                return Err(format!(
                    "{v} decided {log} which conflicts with its own earlier decision {prev}"
                ));
            }
            if log.len() <= prev.len() {
                return Ok(());
            }
        }
        self.longest.insert(v, log);
        Ok(())
    }
}

/// An independent re-implementation of the observer's anchor argument:
/// the longest decided log is tracked here from scratch, and every
/// decision must be compatible with it. Redundant with the engine's
/// [`DecisionObserver`] by design — the model checker uses the pair to
/// cross-validate each other.
#[derive(Debug, Default)]
pub struct NoConflictingAnchor {
    anchor: Option<Log>,
}

impl NoConflictingAnchor {
    /// Creates the invariant.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Invariant for NoConflictingAnchor {
    fn name(&self) -> &'static str {
        "no-conflicting-anchor"
    }

    fn on_decision(&mut self, ev: &DecisionEvent<'_>) -> Result<(), String> {
        let log = ev.record.log;
        match self.anchor {
            None => {
                self.anchor = Some(log);
            }
            Some(anchor) => {
                if !anchor.compatible(&log, ev.store) {
                    return Err(format!(
                        "{} decided {} which conflicts with the decided anchor {}",
                        ev.record.validator, log, anchor
                    ));
                }
                if log.len() > anchor.len() {
                    self.anchor = Some(log);
                }
            }
        }
        Ok(())
    }
}

/// The standard cross-validation bundle: every generic invariant in
/// this module, ready to hand to `SimulationBuilder::invariant`.
pub fn standard_invariants() -> Vec<Box<dyn Invariant>> {
    vec![
        Box::new(PrefixAgreement::new()),
        Box::new(DecisionMonotonicity::new()),
        Box::new(NoConflictingAnchor::new()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use tobsvd_core::Mempool;
    use tobsvd_types::View;

    fn store_and_logs() -> (BlockStore, Log, Log, Log) {
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let a = g.extend_empty(&store, ValidatorId::new(0), View::new(1));
        let b = g.extend_empty(&store, ValidatorId::new(1), View::new(1));
        (store, g, a, b)
    }

    fn drive(
        inv: &mut dyn Invariant,
        observer: &mut DecisionObserver,
        store: &BlockStore,
        v: u32,
        at: u64,
        log: Log,
    ) -> Result<(), String> {
        let pool = Mempool::new();
        let rec = DecisionRecord { validator: ValidatorId::new(v), at: Time::new(at), log };
        observer.record(rec.validator, rec.at, rec.log, &pool);
        inv.on_decision(&DecisionEvent { record: &rec, observer, store })
    }

    #[test]
    fn prefix_agreement_flags_conflicting_pair() {
        let (store, _g, a, b) = store_and_logs();
        let mut obs = DecisionObserver::new(store.clone());
        let mut inv = PrefixAgreement::new();
        assert!(drive(&mut inv, &mut obs, &store, 0, 10, a).is_ok());
        let err = drive(&mut inv, &mut obs, &store, 1, 12, b);
        assert!(err.is_err(), "conflicting sibling must be flagged");
    }

    #[test]
    fn prefix_agreement_accepts_extension() {
        let (store, g, a, _b) = store_and_logs();
        let mut obs = DecisionObserver::new(store.clone());
        let mut inv = PrefixAgreement::new();
        assert!(drive(&mut inv, &mut obs, &store, 0, 10, g).is_ok());
        assert!(drive(&mut inv, &mut obs, &store, 1, 12, a).is_ok());
        let c = a.extend_empty(&store, ValidatorId::new(0), View::new(2));
        assert!(drive(&mut inv, &mut obs, &store, 0, 14, c).is_ok());
    }

    #[test]
    fn monotonicity_flags_own_regression() {
        let (store, _g, a, b) = store_and_logs();
        let mut obs = DecisionObserver::new(store.clone());
        let mut inv = DecisionMonotonicity::new();
        assert!(drive(&mut inv, &mut obs, &store, 0, 10, a).is_ok());
        // Same validator, conflicting branch: local violation even
        // though it's also a global one.
        assert!(drive(&mut inv, &mut obs, &store, 0, 14, b).is_err());
        // A prefix re-announcement is fine.
        let mut inv2 = DecisionMonotonicity::new();
        let c = a.extend_empty(&store, ValidatorId::new(0), View::new(2));
        let mut obs2 = DecisionObserver::new(store.clone());
        assert!(drive(&mut inv2, &mut obs2, &store, 0, 10, c).is_ok());
        assert!(drive(&mut inv2, &mut obs2, &store, 0, 14, a).is_ok());
    }

    #[test]
    fn anchor_invariant_tracks_longest() {
        let (store, _g, a, b) = store_and_logs();
        let mut obs = DecisionObserver::new(store.clone());
        let mut inv = NoConflictingAnchor::new();
        let a2 = a.extend_empty(&store, ValidatorId::new(0), View::new(2));
        assert!(drive(&mut inv, &mut obs, &store, 0, 10, a2).is_ok());
        // Prefix of the anchor: fine.
        assert!(drive(&mut inv, &mut obs, &store, 1, 12, a).is_ok());
        // Conflicting sibling: flagged.
        assert!(drive(&mut inv, &mut obs, &store, 2, 14, b).is_err());
    }

    #[test]
    fn standard_bundle_has_distinct_names() {
        let invs = standard_invariants();
        let names: Vec<&str> = invs.iter().map(|i| i.name()).collect();
        assert_eq!(names.len(), 3);
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names, dedup);
    }
}
