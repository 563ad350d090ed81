//! Decision observation: online Safety checking, per-transaction
//! confirmation times, per-validator decided logs.
//!
//! Safety (paper §3.2): "If two honest validators deliver logs Λ₁ and
//! Λ₂, then Λ₁ and Λ₂ are compatible." The observer maintains the
//! longest decided log as an anchor; every new decision must be
//! compatible with it. Because compatibility with a common extension
//! nests prefixes, all accepted decisions are pairwise compatible, and
//! any conflicting decision is caught the moment it is reported.

use std::collections::BTreeMap;

use tobsvd_core::Mempool;
use tobsvd_types::{BlockStore, Log, Time, TxId, ValidatorId};

/// One decision event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecisionRecord {
    /// The deciding validator.
    pub validator: ValidatorId,
    /// When it decided.
    pub at: Time,
    /// The decided log.
    pub log: Log,
}

/// A detected Safety violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SafetyViolation {
    /// The earlier (anchor) decision.
    pub anchor: DecisionRecord,
    /// The conflicting decision.
    pub conflicting: DecisionRecord,
}

/// A transaction confirmation: submission → first decision including it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConfirmedTx {
    /// The transaction id.
    pub tx: TxId,
    /// Submission time (from the mempool).
    pub submitted_at: Time,
    /// First time any honest validator decided a log containing it.
    pub confirmed_at: Time,
}

impl ConfirmedTx {
    /// Confirmation latency in ticks.
    pub fn latency(&self) -> u64 {
        self.confirmed_at - self.submitted_at
    }
}

/// Observes decisions from all honest validators in a run.
#[derive(Debug)]
pub struct DecisionObserver {
    store: BlockStore,
    /// Longest decided log so far (safety anchor) with its record.
    anchor: Option<DecisionRecord>,
    /// Latest decision per validator.
    latest: BTreeMap<ValidatorId, DecisionRecord>,
    /// All decisions in order.
    history: Vec<DecisionRecord>,
    /// Violations found.
    violations: Vec<SafetyViolation>,
    /// Tx confirmations in anchor-extension order.
    confirmed: Vec<ConfirmedTx>,
    /// Length of the anchor prefix whose txs have been confirmed.
    confirmed_len: u64,
}

impl DecisionObserver {
    /// Creates an observer over the shared store.
    pub fn new(store: BlockStore) -> Self {
        DecisionObserver {
            store,
            anchor: None,
            latest: BTreeMap::new(),
            history: Vec::new(),
            violations: Vec::new(),
            confirmed: Vec::new(),
            confirmed_len: 1, // genesis carries no txs
        }
    }

    /// Records a decision by an honest validator.
    pub fn record(&mut self, validator: ValidatorId, at: Time, log: Log, mempool: &Mempool) {
        let rec = DecisionRecord { validator, at, log };
        self.history.push(rec);

        // Per-validator monotonicity: a validator's decisions must extend
        // its previous ones; a regression is also a (local) violation.
        if let Some(prev) = self.latest.get(&validator) {
            if !prev.log.compatible(&log, &self.store) {
                self.violations.push(SafetyViolation { anchor: *prev, conflicting: rec });
            }
        }
        self.latest.insert(validator, rec);

        match self.anchor {
            None => {
                self.anchor = Some(rec);
                self.confirm_new_blocks(rec, mempool);
            }
            Some(anchor) => {
                if !anchor.log.compatible(&log, &self.store) {
                    self.violations.push(SafetyViolation { anchor, conflicting: rec });
                } else if log.len() > anchor.log.len() {
                    self.anchor = Some(rec);
                    self.confirm_new_blocks(rec, mempool);
                }
            }
        }
    }

    fn confirm_new_blocks(&mut self, rec: DecisionRecord, mempool: &Mempool) {
        // Confirm txs in anchor blocks beyond the previously confirmed
        // prefix. The anchor only ever extends, so each block is
        // processed once.
        if rec.log.len() <= self.confirmed_len {
            return;
        }
        if let Some(ids) = self.store.chain_range(rec.log.tip(), self.confirmed_len) {
            for id in ids {
                if let Some(block) = self.store.get(id) {
                    for tx in block.txs() {
                        let submitted_at =
                            mempool.submitted_at(tx.id()).unwrap_or(rec.at);
                        self.confirmed.push(ConfirmedTx {
                            tx: tx.id(),
                            submitted_at,
                            confirmed_at: rec.at,
                        });
                    }
                }
            }
        }
        self.confirmed_len = rec.log.len();
    }

    /// All recorded violations (empty in a safe execution).
    pub fn violations(&self) -> &[SafetyViolation] {
        &self.violations
    }

    /// Whether the execution was safe so far.
    pub fn is_safe(&self) -> bool {
        self.violations.is_empty()
    }

    /// The longest decided log, if any decision happened.
    pub fn longest_decided(&self) -> Option<Log> {
        self.anchor.map(|a| a.log)
    }

    /// Latest decision per validator.
    pub fn latest_decisions(&self) -> &BTreeMap<ValidatorId, DecisionRecord> {
        &self.latest
    }

    /// Full decision history in arrival order.
    pub fn history(&self) -> &[DecisionRecord] {
        &self.history
    }

    /// Confirmed transactions in confirmation order.
    pub fn confirmed(&self) -> &[ConfirmedTx] {
        &self.confirmed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tobsvd_types::{Transaction, View};

    fn ids(n: u32) -> Vec<ValidatorId> {
        (0..n).map(ValidatorId::new).collect()
    }

    #[test]
    fn compatible_decisions_are_safe() {
        let store = BlockStore::new();
        let pool = Mempool::new();
        let mut obs = DecisionObserver::new(store.clone());
        let v = ids(2);
        let g = Log::genesis(&store);
        let a = g.extend_empty(&store, v[0], View::new(1));
        let b = a.extend_empty(&store, v[1], View::new(2));
        obs.record(v[0], Time::new(10), a, &pool);
        obs.record(v[1], Time::new(12), b, &pool);
        obs.record(v[0], Time::new(14), a, &pool); // old but compatible
        assert!(obs.is_safe());
        assert_eq!(obs.longest_decided(), Some(b));
    }

    #[test]
    fn conflicting_decisions_flagged() {
        let store = BlockStore::new();
        let pool = Mempool::new();
        let mut obs = DecisionObserver::new(store.clone());
        let v = ids(2);
        let g = Log::genesis(&store);
        let a = g.extend_empty(&store, v[0], View::new(1));
        let b = g.extend_empty(&store, v[1], View::new(1));
        obs.record(v[0], Time::new(10), a, &pool);
        obs.record(v[1], Time::new(10), b, &pool);
        assert!(!obs.is_safe());
        assert_eq!(obs.violations().len(), 1);
    }

    #[test]
    fn per_validator_regression_flagged() {
        let store = BlockStore::new();
        let pool = Mempool::new();
        let mut obs = DecisionObserver::new(store.clone());
        let v = ids(1);
        let g = Log::genesis(&store);
        let a = g.extend_empty(&store, v[0], View::new(1));
        let b = g.extend_empty(&store, ValidatorId::new(5), View::new(1));
        obs.record(v[0], Time::new(10), a, &pool);
        obs.record(v[0], Time::new(14), b, &pool); // conflicts with own earlier decision
        assert!(!obs.is_safe());
    }

    #[test]
    fn tx_confirmation_times() {
        let store = BlockStore::new();
        let pool = Mempool::new();
        let tx = Transaction::new(vec![7]);
        pool.submit(tx.clone(), Time::new(2));
        let mut obs = DecisionObserver::new(store.clone());
        let g = Log::genesis(&store);
        let a = g.extend(&store, ValidatorId::new(0), View::new(1), vec![tx.clone()]);
        obs.record(ValidatorId::new(0), Time::new(20), a, &pool);
        // A later decision of the same log must not double-confirm.
        obs.record(ValidatorId::new(1), Time::new(24), a, &pool);
        assert_eq!(obs.confirmed().len(), 1);
        let c = obs.confirmed()[0];
        assert_eq!(c.tx, tx.id());
        assert_eq!(c.latency(), 18);
    }
}
