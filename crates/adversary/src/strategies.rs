//! Byzantine node strategies.

use std::sync::Arc;

use tobsvd_crypto::Keypair;
use tobsvd_sim::{Context, Node, Outgoing};
use tobsvd_types::{
    BlockStore, Delivered, InstanceId, Log, Payload, SignedMessage, Time, ValidatorId, View,
};

use tobsvd_core::{TobConfig, Validator};

/// Omission failure: never sends anything, never reacts.
///
/// Distinct from crash: the validator still counts as always awake (the
/// sleepy model keeps Byzantine validators awake), it just contributes
/// nothing — which *shrinks* perceived participation rather than
/// splitting it.
#[derive(Debug, Default, Clone, Copy)]
pub struct SilentNode;

impl Node for SilentNode {
    fn on_phase(&mut self, _ctx: &mut Context) {}
    fn on_message(&mut self, _msg: &SignedMessage, _ctx: &mut Context) {}
    fn label(&self) -> &'static str {
        "byz-silent"
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Standalone-GA equivocator: at the instance's input phase it sends log
/// `a` to one target set and a conflicting log `b` to another —
/// the canonical attack against Graded Agreement quorums, and the
/// adversary of the GA property tests and the threshold-tightness
/// experiment.
pub struct GaEquivocator {
    me: ValidatorId,
    keypair: Keypair,
    instance: InstanceId,
    start: Time,
    log_a: Log,
    log_b: Log,
    targets_a: Vec<ValidatorId>,
    targets_b: Vec<ValidatorId>,
    sent: bool,
}

impl GaEquivocator {
    /// Creates the equivocator. `log_a` goes to `targets_a` at `start`,
    /// `log_b` to `targets_b`.
    pub fn new(
        me: ValidatorId,
        instance: InstanceId,
        start: Time,
        log_a: Log,
        targets_a: Vec<ValidatorId>,
        log_b: Log,
        targets_b: Vec<ValidatorId>,
    ) -> Self {
        GaEquivocator {
            keypair: Keypair::from_seed(me.key_seed()),
            me,
            instance,
            start,
            log_a,
            log_b,
            targets_a,
            targets_b,
            sent: false,
        }
    }
}

impl Node for GaEquivocator {
    fn on_phase(&mut self, ctx: &mut Context) {
        if ctx.time != self.start || self.sent {
            return;
        }
        self.sent = true;
        let msg_a = SignedMessage::sign(
            &self.keypair,
            self.me,
            Payload::Log { instance: self.instance, log: self.log_a },
        );
        let msg_b = SignedMessage::sign(
            &self.keypair,
            self.me,
            Payload::Log { instance: self.instance, log: self.log_b },
        );
        ctx.multicast(self.targets_a.clone(), msg_a);
        ctx.multicast(self.targets_b.clone(), msg_b);
    }

    fn on_message(&mut self, _msg: &SignedMessage, _ctx: &mut Context) {
        // Refuses to forward: honest gossip has to spread the evidence.
    }

    fn label(&self) -> &'static str {
        "byz-ga-equivocator"
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The strongest generic TOB-SVD adversary in this crate: runs the full
/// honest validator logic internally, but every vote (`LOG`) and every
/// proposal it emits is *equivocated* — the genuine message goes to one
/// half of the network and a conflicting sibling (same parent, different
/// block) to the other half.
///
/// When such a validator holds the view's highest VRF value, honest
/// voters split between its two proposals and the view decides nothing
/// new — which is exactly how "no good leader" views manifest, making
/// this the workhorse of the expected-latency experiments. Below the ½
/// threshold the protocol absorbs all of it (safety tests); above the
/// threshold it can break Consistency.
pub struct SplitBrainNode {
    me: ValidatorId,
    keypair: Keypair,
    inner: Validator,
    targets_a: Vec<ValidatorId>,
    targets_b: Vec<ValidatorId>,
    fork_nonce: u64,
}

impl SplitBrainNode {
    /// Creates the adversary for validator `me`; the network halves
    /// receive the two sides of each equivocation.
    pub fn new(
        me: ValidatorId,
        cfg: TobConfig,
        store: &BlockStore,
        targets_a: Vec<ValidatorId>,
        targets_b: Vec<ValidatorId>,
    ) -> Self {
        SplitBrainNode {
            keypair: Keypair::from_seed(me.key_seed()),
            inner: Validator::new(me, cfg, store),
            me,
            targets_a,
            targets_b,
            fork_nonce: 0,
        }
    }

    /// A conflicting sibling of `log`: same parent, a block of our own.
    /// A nonce transaction makes the sibling differ even when `log`'s
    /// tip was itself proposed by us with the same content.
    fn fork_of(&mut self, log: &Log, store: &BlockStore, view: View) -> Log {
        let parent = if log.len() > 1 {
            log.prefix(log.len() - 1, store).expect("non-genesis has parent")
        } else {
            *log
        };
        self.fork_nonce += 1;
        let marker = tobsvd_types::Transaction::new(
            format!("fork:{}:{}", self.me, self.fork_nonce).into_bytes(),
        );
        parent.extend(store, self.me, view, vec![marker])
    }

    fn rewrite(&mut self, out: Vec<Outgoing>, ctx: &mut Context) {
        for action in out {
            match action {
                Outgoing::Broadcast(msg) => match msg.payload() {
                    Payload::Log { instance, log } => {
                        let fork = self.fork_of(log, &ctx.store, instance.view());
                        let forged = SignedMessage::sign(
                            &self.keypair,
                            self.me,
                            Payload::Log { instance: *instance, log: fork },
                        );
                        ctx.multicast(self.targets_a.clone(), msg);
                        ctx.multicast(self.targets_b.clone(), forged);
                    }
                    Payload::Proposal { view, log, vrf, proof } => {
                        let fork = self.fork_of(log, &ctx.store, *view);
                        let forged = SignedMessage::sign(
                            &self.keypair,
                            self.me,
                            Payload::Proposal { view: *view, log: fork, vrf: *vrf, proof: *proof },
                        );
                        ctx.multicast(self.targets_a.clone(), msg);
                        ctx.multicast(self.targets_b.clone(), forged);
                    }
                    _ => ctx.broadcast(msg),
                },
                Outgoing::Forward(m) => ctx.forward(m),
                Outgoing::ForwardTo(to, batch) => ctx.forward_to(to, batch),
                Outgoing::Multicast(targets, m) => ctx.multicast(targets, m),
            }
        }
    }

    fn scratch(&self, ctx: &Context) -> Context {
        Context::new(ctx.time, ctx.me, ctx.delta, ctx.store.clone(), ctx.mempool.clone())
    }
}

impl Node for SplitBrainNode {
    fn on_phase(&mut self, ctx: &mut Context) {
        let mut scratch = self.scratch(ctx);
        self.inner.on_phase(&mut scratch);
        let out = scratch.take_outbox();
        self.rewrite(out, ctx);
        // Byzantine decisions are ignored by the observer anyway; drop.
    }

    fn on_message(&mut self, msg: &SignedMessage, ctx: &mut Context) {
        self.on_delivery(&(*msg).into(), ctx);
    }

    fn on_delivery(&mut self, msg: &Arc<Delivered>, ctx: &mut Context) {
        let mut scratch = self.scratch(ctx);
        self.inner.on_delivery(msg, &mut scratch);
        let out = scratch.take_outbox();
        // Forward like an honest node so the network stays live.
        self.rewrite(out, ctx);
    }

    fn label(&self) -> &'static str {
        "byz-split-brain"
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Honest content, one phase late: every `LOG` the honest logic would
/// broadcast is held back and released at the *next* phase boundary,
/// landing after the snapshots that were supposed to count it.
pub struct LateVoter {
    inner: Validator,
    pending: Vec<SignedMessage>,
}

impl LateVoter {
    /// Creates a late voter for validator `me`.
    pub fn new(me: ValidatorId, cfg: TobConfig, store: &BlockStore) -> Self {
        LateVoter { inner: Validator::new(me, cfg, store), pending: Vec::new() }
    }
}

impl Node for LateVoter {
    fn on_phase(&mut self, ctx: &mut Context) {
        // Release last phase's held votes first.
        for msg in self.pending.drain(..) {
            ctx.broadcast(msg);
        }
        let mut scratch =
            Context::new(ctx.time, ctx.me, ctx.delta, ctx.store.clone(), ctx.mempool.clone());
        self.inner.on_phase(&mut scratch);
        for action in scratch.take_outbox() {
            match action {
                Outgoing::Broadcast(msg) => match msg.payload() {
                    Payload::Log { .. } => self.pending.push(msg),
                    _ => ctx.broadcast(msg),
                },
                Outgoing::Forward(m) => ctx.forward(m),
                Outgoing::ForwardTo(to, batch) => ctx.forward_to(to, batch),
                Outgoing::Multicast(t, m) => ctx.multicast(t, m),
            }
        }
    }

    fn on_message(&mut self, msg: &SignedMessage, ctx: &mut Context) {
        self.on_delivery(&(*msg).into(), ctx);
    }

    fn on_delivery(&mut self, msg: &Arc<Delivered>, ctx: &mut Context) {
        let mut scratch =
            Context::new(ctx.time, ctx.me, ctx.delta, ctx.store.clone(), ctx.mempool.clone());
        self.inner.on_delivery(msg, &mut scratch);
        for action in scratch.take_outbox() {
            match action {
                Outgoing::Broadcast(m) => ctx.forward(m),
                Outgoing::Forward(m) => ctx.forward(m),
                Outgoing::ForwardTo(to, batch) => ctx.forward_to(to, batch),
                Outgoing::Multicast(t, m) => ctx.multicast(t, m),
            }
        }
    }

    fn label(&self) -> &'static str {
        "byz-late-voter"
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
    use tobsvd_types::Delta;

    fn ctx_at(t: u64, store: &BlockStore) -> Context {
        Context::new(
            Time::new(t),
            ValidatorId::new(0),
            Delta::new(8),
            store.clone(),
            Mempool::new(),
        )
    }

    #[test]
    fn ga_equivocator_targets_two_sets() {
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let a = g.extend_empty(&store, ValidatorId::new(0), View::new(1));
        let b = g.extend_empty(&store, ValidatorId::new(1), View::new(1));
        let mut node = GaEquivocator::new(
            ValidatorId::new(0),
            InstanceId(0),
            Time::ZERO,
            a,
            vec![ValidatorId::new(1)],
            b,
            vec![ValidatorId::new(2)],
        );
        let mut ctx = ctx_at(0, &store);
        node.on_phase(&mut ctx);
        assert_eq!(ctx.outbox().len(), 2);
        // Re-firing does nothing.
        let mut ctx2 = ctx_at(0, &store);
        node.on_phase(&mut ctx2);
        assert!(ctx2.outbox().is_empty());
    }

    #[test]
    fn split_brain_equivocates_votes() {
        let store = BlockStore::new();
        let cfg = TobConfig::new(4);
        let mut node = SplitBrainNode::new(
            ValidatorId::new(0),
            cfg,
            &store,
            vec![ValidatorId::new(1)],
            vec![ValidatorId::new(2), ValidatorId::new(3)],
        );
        // t = Δ is view 0's vote time: the honest inner logic votes the
        // genesis lock; the split brain sends two conflicting LOGs.
        let mut ctx = ctx_at(8, &store);
        node.on_phase(&mut ctx);
        let logs: Vec<(Vec<ValidatorId>, Log)> = ctx
            .outbox()
            .iter()
            .filter_map(|o| match o {
                Outgoing::Multicast(t, m) => match m.payload() {
                    Payload::Log { log, .. } => Some((t.clone(), *log)),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        assert_eq!(logs.len(), 2, "both halves get a vote: {:?}", ctx.outbox());
        assert_ne!(logs[0].1, logs[1].1, "the two votes differ");
        // Note: the fork of the genesis log is an extension, not a
        // conflict (genesis has no sibling), but from view 1 onward the
        // pairs genuinely conflict. Check equivocation evidence shape:
        assert_eq!(
            logs[0].1.common_prefix(&logs[1].1, &store).len(),
            1,
            "they share only genesis"
        );
    }

    #[test]
    fn split_brain_equivocates_proposals() {
        let store = BlockStore::new();
        let cfg = TobConfig::new(4);
        let mut node = SplitBrainNode::new(
            ValidatorId::new(0),
            cfg,
            &store,
            vec![ValidatorId::new(1)],
            vec![ValidatorId::new(2)],
        );
        let mut ctx = ctx_at(0, &store); // propose time of view 0
        node.on_phase(&mut ctx);
        let proposals: Vec<Log> = ctx
            .outbox()
            .iter()
            .filter_map(|o| match o {
                Outgoing::Multicast(_, m) => match m.payload() {
                    Payload::Proposal { log, .. } => Some(*log),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        assert_eq!(proposals.len(), 2);
        assert_ne!(proposals[0], proposals[1]);
    }

    #[test]
    fn late_voter_delays_by_one_phase() {
        let store = BlockStore::new();
        let cfg = TobConfig::new(4);
        let mut node = LateVoter::new(ValidatorId::new(0), cfg, &store);
        // Vote time: the vote is held back.
        let mut ctx = ctx_at(8, &store);
        node.on_phase(&mut ctx);
        let vote_now = ctx
            .outbox()
            .iter()
            .any(|o| matches!(o, Outgoing::Broadcast(m) if matches!(m.payload(), Payload::Log { .. })));
        assert!(!vote_now, "vote must be held");
        // Next boundary: the held vote is released.
        let mut ctx = ctx_at(16, &store);
        node.on_phase(&mut ctx);
        let vote_late = ctx
            .outbox()
            .iter()
            .any(|o| matches!(o, Outgoing::Broadcast(m) if matches!(m.payload(), Payload::Log { .. })));
        assert!(vote_late, "vote released one phase late");
    }

    #[test]
    fn silent_node_stays_silent() {
        let store = BlockStore::new();
        let mut node = SilentNode;
        let mut ctx = ctx_at(0, &store);
        node.on_phase(&mut ctx);
        assert!(ctx.outbox().is_empty());
        assert_eq!(node.label(), "byz-silent");
    }
}
