//! The finalizing validator: TOB-SVD plus finality votes.

use tobsvd_core::{TobConfig, Validator};
use tobsvd_crypto::{KeyCache, Keypair};
use tobsvd_sim::{Context, Node};
use tobsvd_types::{BlockStore, Log, Payload, SignedMessage, ValidatorId, View};

use crate::gadget::{FinalityConfig, FinalityState};

/// A TOB-SVD validator that additionally participates in the finality
/// gadget: at the decide phase of every epoch-boundary view it
/// broadcasts a `FINALIZE` vote for its decided log (or the current
/// checkpoint, if the decided log does not extend it), and it finalizes
/// on ⌈2n/3⌉ compatible votes.
pub struct FinalizingValidator {
    me: ValidatorId,
    keypair: Keypair,
    inner: Validator,
    fin: FinalityState,
    last_voted_epoch: Option<u64>,
    sched_delta: tobsvd_types::Delta,
    finality_votes_cast: u64,
}

impl FinalizingValidator {
    /// Creates the validator.
    pub fn new(
        me: ValidatorId,
        tob_cfg: TobConfig,
        fin_cfg: FinalityConfig,
        store: &BlockStore,
    ) -> Self {
        FinalizingValidator {
            me,
            keypair: KeyCache::keypair(me.key_seed()),
            sched_delta: tob_cfg.delta,
            inner: Validator::new(me, tob_cfg, store),
            fin: FinalityState::new(fin_cfg, store),
            last_voted_epoch: None,
            finality_votes_cast: 0,
        }
    }

    /// The embedded base-protocol validator.
    pub fn inner(&self) -> &Validator {
        &self.inner
    }

    /// The current finalized checkpoint.
    pub fn finalized(&self) -> Log {
        self.fin.finalized()
    }

    /// Finalization history `(epoch, checkpoint)`.
    pub fn finality_history(&self) -> &[(u64, Log)] {
        self.fin.history()
    }

    /// Finality votes this validator broadcast.
    pub fn finality_votes_cast(&self) -> u64 {
        self.finality_votes_cast
    }
}

impl Node for FinalizingValidator {
    fn on_wake(&mut self, ctx: &mut Context) {
        self.inner.on_wake(ctx);
    }

    fn on_phase(&mut self, ctx: &mut Context) {
        // The base protocol acts first (its decide phase may extend the
        // decided log this very tick).
        self.inner.on_phase(ctx);

        // Epoch boundary: the decide phase of every epoch_views-th view.
        let view = View::of_time(ctx.time, ctx.delta);
        let sched = tobsvd_core::ViewSchedule::new(self.sched_delta);
        let epoch_views = self.fin.config().epoch_views;
        if ctx.time == sched.decide_time(view)
            && view.number() > 0
            && view.number() % epoch_views == 0
        {
            let epoch = view.number() / epoch_views;
            if self.last_voted_epoch != Some(epoch) {
                self.last_voted_epoch = Some(epoch);
                let target = self.fin.vote_target(self.inner.decided(), &ctx.store);
                let msg = SignedMessage::sign(
                    &self.keypair,
                    self.me,
                    Payload::FinalityVote { epoch, log: target },
                );
                // Count our own vote immediately; the broadcast reaches
                // the others within Δ.
                self.fin.on_vote(epoch, self.me, target, &ctx.store);
                ctx.broadcast(msg);
                self.finality_votes_cast += 1;
            }
        }
    }

    fn on_message(&mut self, msg: &SignedMessage, ctx: &mut Context) {
        // The base validator verifies, deduplicates and forwards; it
        // ignores finality votes itself.
        self.inner.on_message(msg, ctx);
        if let Payload::FinalityVote { epoch, log } = msg.payload() {
            // Reuse the base validator's verification verdict instead of
            // re-checking the signature: its dedup table holds the id
            // iff this exact (sender, payload) passed verification.
            if msg.sender() != self.me && self.inner.is_verified(msg) {
                self.fin.on_vote(*epoch, msg.sender(), *log, &ctx.store);
            }
        }
    }

    fn label(&self) -> &'static str {
        "tob-svd+finality"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tobsvd_sim::Mempool;
    use tobsvd_types::{Delta, Time};

    #[test]
    fn votes_once_per_epoch_boundary() {
        let store = BlockStore::new();
        let tob = TobConfig::new(4);
        let fin = FinalityConfig::new(4).with_epoch_views(2);
        let mut node =
            FinalizingValidator::new(ValidatorId::new(0), tob, fin, &store);
        let delta = Delta::default();
        let sched = tobsvd_core::ViewSchedule::new(delta);
        // Walk phases through view 2's decide time (epoch 1 boundary).
        let mut votes = 0;
        for k in 0..=(2 * 4 + 2) {
            let t = Time::new(k * delta.ticks());
            let mut ctx = Context::new(t, ValidatorId::new(0), delta, store.clone(), Mempool::new());
            node.on_phase(&mut ctx);
            votes += ctx
                .outbox()
                .iter()
                .filter(|o| {
                    matches!(o, tobsvd_sim::Outgoing::Broadcast(m)
                        if matches!(m.payload(), Payload::FinalityVote { .. }))
                })
                .count();
            let _ = sched;
        }
        assert_eq!(votes, 1, "exactly one finality vote at the epoch-1 boundary");
        assert_eq!(node.finality_votes_cast(), 1);
    }

    #[test]
    fn processes_peer_votes() {
        let store = BlockStore::new();
        let tob = TobConfig::new(4);
        let fin = FinalityConfig::new(4);
        let mut node =
            FinalizingValidator::new(ValidatorId::new(0), tob, fin, &store);
        let g = Log::genesis(&store);
        let a = g.extend_empty(&store, ValidatorId::new(7), View::new(1));
        for sender in 1..4u32 {
            let sv = ValidatorId::new(sender);
            let kp = Keypair::from_seed(sv.key_seed());
            let msg = SignedMessage::sign(&kp, sv, Payload::FinalityVote { epoch: 1, log: a });
            let mut ctx = Context::new(
                Time::new(3),
                ValidatorId::new(0),
                Delta::default(),
                store.clone(),
                Mempool::new(),
            );
            node.on_message(&msg, &mut ctx);
        }
        assert_eq!(node.finalized(), a, "3 of 4 votes finalize");
    }
}
