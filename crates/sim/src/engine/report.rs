//! [`SimReport`]: the run's summary, and the one place end-of-run
//! invariants are evaluated.

use tobsvd_core::AdmissionStats;
use tobsvd_types::{BlockStore, Log, Time};

use super::Simulation;
use crate::invariant::InvariantViolation;
use crate::metrics::Metrics;
use crate::observer::{ConfirmedTx, DecisionRecord, SafetyViolation};

impl Simulation {
    /// Produces a summary report of the run so far. Its invariant
    /// violations are every per-decision violation, followed by a fresh
    /// evaluation of each [`crate::Invariant::at_end`] against the current
    /// state — direct engine users can't silently skip an `at_end`-only
    /// invariant like a chain-growth bound, and a mid-run snapshot's
    /// findings never leak into a later report.
    pub fn report(&mut self) -> SimReport {
        let now = self.time;
        let mut invariant_violations = self.invariant_violations.clone();
        for inv in &mut self.invariants {
            if let Err(detail) = inv.at_end(&self.observer, &self.store, now) {
                invariant_violations.push(InvariantViolation { invariant: inv.name(), at: now, detail });
            }
        }
        SimReport {
            final_time: now,
            metrics: self.metrics.clone(),
            safe: self.observer.is_safe(),
            violations: self.observer.violations().to_vec(),
            longest_decided: self.observer.longest_decided(),
            // BTreeMap values come out in validator-id order already.
            latest_decisions: self.observer.latest_decisions().values().copied().collect(),
            confirmed: self.observer.confirmed().to_vec(),
            decisions: self.observer.history().to_vec(),
            invariant_violations,
            admission: self.mempool.admission_stats(),
            store: self.store.clone(),
        }
    }
}

/// Summary of a finished (or in-progress) simulation run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Time the report was taken.
    pub final_time: Time,
    /// Accumulated metrics.
    pub metrics: Metrics,
    /// Whether no safety violation was observed.
    pub safe: bool,
    /// Detected safety violations.
    pub violations: Vec<SafetyViolation>,
    /// The longest decided log across honest validators.
    pub longest_decided: Option<Log>,
    /// Latest decision per validator (sorted by validator id).
    pub latest_decisions: Vec<DecisionRecord>,
    /// Confirmed transactions with latencies.
    pub confirmed: Vec<ConfirmedTx>,
    /// Full decision history (every honest decision, in arrival order) —
    /// the evidence trail [`SimReport::assert_safety`] re-checks.
    pub decisions: Vec<DecisionRecord>,
    /// Violations of installed run-time invariants.
    pub invariant_violations: Vec<InvariantViolation>,
    /// Mempool admission counters (all-zero unless a bounded
    /// [`crate::AdmissionPolicy`] was installed and exercised).
    pub admission: AdmissionStats,
    /// The shared block store (for post-hoc log walks).
    pub store: BlockStore,
}

impl SimReport {
    /// Length of the longest decided log (1 = genesis only).
    pub fn max_decided_len(&self) -> u64 {
        self.longest_decided.map(|l| l.len()).unwrap_or(1)
    }

    /// Re-derives cross-validator prefix agreement from the *full
    /// decision history*, independently of the online observer: every
    /// recorded decision must be compatible with the longest recorded
    /// decision. (Logs are chains, so any two prefixes of a common
    /// extension are pairwise compatible; checking every record against
    /// one maximal record is therefore complete.) Returns the offending
    /// pairs — empty iff agreement held at every intermediate decision
    /// point, not just in the final transcripts.
    pub fn prefix_agreement_violations(&self) -> Vec<(DecisionRecord, DecisionRecord)> {
        let Some(longest) = self.decisions.iter().max_by_key(|r| r.log.len()) else {
            return Vec::new();
        };
        self.decisions
            .iter()
            .filter(|r| !r.log.compatible(&longest.log, &self.store))
            .map(|r| (*longest, *r))
            .collect()
    }

    /// Panics with a descriptive message if a safety violation occurred,
    /// either online (observer) or in the post-hoc prefix-agreement
    /// re-check over every intermediate decision point.
    ///
    /// # Panics
    ///
    /// Panics when the run had conflicting decisions — including a
    /// transient fork window whose transcripts later reconverged.
    pub fn assert_safety(&self) {
        assert!(
            self.safe,
            "safety violated: {} conflicting decision pairs, first: {:?}",
            self.violations.len(),
            self.violations.first()
        );
        let cross = self.prefix_agreement_violations();
        assert!(
            cross.is_empty(),
            "cross-validator prefix agreement violated at an intermediate decision point \
             ({} pairs despite a clean observer — observer bug?), first: {:?}",
            cross.len(),
            cross.first()
        );
    }

    /// Panics if any installed run-time invariant was violated.
    ///
    /// # Panics
    ///
    /// Panics listing the first violation.
    pub fn assert_invariants(&self) {
        assert!(
            self.invariant_violations.is_empty(),
            "{} invariant violations, first: {}",
            self.invariant_violations.len(),
            self.invariant_violations[0]
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::observer::DecisionObserver;
    use tobsvd_core::{Context, Node};
    use tobsvd_types::{SignedMessage, ValidatorId, View};

    /// Decides a fixed sequence of logs at successive phase boundaries
    /// (one per phase), for forcing transient forks through the engine.
    struct ScriptedDecider {
        script: Vec<Log>,
        next: usize,
    }

    impl Node for ScriptedDecider {
        fn on_phase(&mut self, ctx: &mut Context) {
            if let Some(log) = self.script.get(self.next) {
                self.next += 1;
                ctx.decide(*log);
            }
        }
        fn on_message(&mut self, _m: &SignedMessage, _ctx: &mut Context) {}
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn invariants_run_on_every_decision_and_record_violations() {
        let cfg = SimConfig::new(2).with_seed(1);
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let a = g.extend_empty(&store, ValidatorId::new(0), View::new(1));
        let b = g.extend_empty(&store, ValidatorId::new(1), View::new(1));
        let c = a.extend_empty(&store, ValidatorId::new(0), View::new(2));
        let mut sim = Simulation::builder(cfg)
            .with_store(store)
            .node(ValidatorId::new(0), Box::new(ScriptedDecider { script: vec![a, c], next: 0 }))
            // v1 transiently forks to b, then reconverges onto c.
            .node(ValidatorId::new(1), Box::new(ScriptedDecider { script: vec![b, c], next: 0 }))
            .invariant(Box::new(crate::invariant::PrefixAgreement::new()))
            .invariant(Box::new(crate::invariant::DecisionMonotonicity::new()))
            .invariant(Box::new(crate::invariant::NoConflictingAnchor::new()))
            .build();
        sim.run_until(Time::new(20));
        let report = sim.report();
        let violations = &report.invariant_violations;
        // All three independent invariants catch the a/b fork window.
        for name in ["prefix-agreement", "decision-monotonicity", "no-conflicting-anchor"] {
            assert!(
                violations.iter().any(|v| v.invariant == name),
                "{name} missing from {violations:?}"
            );
        }
        assert!(!report.safe, "observer must agree with the invariants");
    }

    #[test]
    fn mid_run_report_does_not_pollute_final_end_checks() {
        /// Fails at_end until at least one decision was recorded.
        struct NeedsDecision;
        impl crate::invariant::Invariant for NeedsDecision {
            fn name(&self) -> &'static str {
                "needs-decision"
            }
            fn on_decision(
                &mut self,
                _ev: &crate::invariant::DecisionEvent<'_>,
            ) -> Result<(), String> {
                Ok(())
            }
            fn at_end(
                &mut self,
                observer: &DecisionObserver,
                _store: &BlockStore,
                now: Time,
            ) -> Result<(), String> {
                if observer.history().is_empty() {
                    Err(format!("no decision by t={now}"))
                } else {
                    Ok(())
                }
            }
        }
        let cfg = SimConfig::new(1).with_seed(3);
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let a = g.extend_empty(&store, ValidatorId::new(0), View::new(1));
        let mut sim = Simulation::builder(cfg)
            .with_store(store)
            .node(ValidatorId::new(0), Box::new(ScriptedDecider { script: vec![a], next: 0 }))
            .invariant(Box::new(NeedsDecision))
            .build();
        // A t=0 snapshot legitimately reports the end-check violation…
        let early = sim.report();
        assert_eq!(early.invariant_violations.len(), 1);
        // …but it is recomputed, not latched: after the run decides,
        // the final report is clean.
        sim.run_until(Time::new(10));
        let fin = sim.report();
        assert!(fin.invariant_violations.is_empty(), "{:?}", fin.invariant_violations);
    }

    #[test]
    fn clean_run_has_no_invariant_violations() {
        let cfg = SimConfig::new(2).with_seed(2);
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let a = g.extend_empty(&store, ValidatorId::new(0), View::new(1));
        let c = a.extend_empty(&store, ValidatorId::new(0), View::new(2));
        let mut sim = Simulation::builder(cfg)
            .with_store(store)
            .node(ValidatorId::new(0), Box::new(ScriptedDecider { script: vec![a, c], next: 0 }))
            .node(ValidatorId::new(1), Box::new(ScriptedDecider { script: vec![a, c], next: 0 }))
            .invariant(Box::new(crate::invariant::PrefixAgreement::new()))
            .invariant(Box::new(crate::invariant::NoConflictingAnchor::new()))
            .build();
        sim.run_until(Time::new(20));
        let report = sim.report();
        assert!(report.invariant_violations.is_empty());
        report.assert_safety();
        report.assert_invariants();
    }

    #[test]
    fn assert_safety_catches_transient_fork_even_in_clean_looking_report() {
        // Regression for the strengthened assert_safety: a report whose
        // *final* transcripts agree (and whose `safe` flag claims
        // innocence, as a buggy observer would) must still be rejected,
        // because the decision history shows an intermediate fork.
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let a = g.extend_empty(&store, ValidatorId::new(0), View::new(1));
        let b = g.extend_empty(&store, ValidatorId::new(1), View::new(1));
        let c = a.extend_empty(&store, ValidatorId::new(0), View::new(2));
        let fork_then_converge = vec![
            DecisionRecord { validator: ValidatorId::new(0), at: Time::new(8), log: a },
            DecisionRecord { validator: ValidatorId::new(1), at: Time::new(8), log: b },
            DecisionRecord { validator: ValidatorId::new(0), at: Time::new(16), log: c },
            DecisionRecord { validator: ValidatorId::new(1), at: Time::new(16), log: c },
        ];
        let report = SimReport {
            final_time: Time::new(17),
            metrics: Metrics::new(),
            safe: true, // the lie the history check must expose
            violations: Vec::new(),
            longest_decided: Some(c),
            latest_decisions: fork_then_converge[2..].to_vec(),
            confirmed: Vec::new(),
            decisions: fork_then_converge,
            invariant_violations: Vec::new(),
            admission: AdmissionStats::default(),
            store,
        };
        let pairs = report.prefix_agreement_violations();
        assert_eq!(pairs.len(), 1, "exactly the b-vs-c conflict: {pairs:?}");
        assert_eq!(pairs[0].1.log, b);
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| report.assert_safety()));
        assert!(caught.is_err(), "assert_safety must reject the transient fork");
    }

    #[test]
    fn decisions_flow_to_observer() {
        struct DecideOnce {
            done: bool,
        }
        impl Node for DecideOnce {
            fn on_phase(&mut self, ctx: &mut Context) {
                if !self.done {
                    self.done = true;
                    let g = Log::genesis(&ctx.store);
                    ctx.decide(g);
                }
            }
            fn on_message(&mut self, _m: &SignedMessage, _ctx: &mut Context) {}
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let cfg = SimConfig::new(1).with_seed(1);
        let mut sim = Simulation::builder(cfg)
            .node(ValidatorId::new(0), Box::new(DecideOnce { done: false }))
            .build();
        sim.run_until(Time::new(5));
        let report = sim.report();
        assert!(report.safe);
        assert_eq!(report.metrics.decisions, 1);
        assert_eq!(report.max_decided_len(), 1);
        report.assert_safety();
    }
}
