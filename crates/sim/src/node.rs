//! The sans-io protocol interface: [`Node`] and [`Context`].

use tobsvd_types::{Delta, Log, SignedMessage, Time, ValidatorId};

use crate::mempool::Mempool;
use tobsvd_types::BlockStore;

/// Outgoing network actions emitted by a node during a callback.
#[derive(Clone, Debug)]
pub enum Outgoing {
    /// Broadcast an original message to all validators (including self).
    Broadcast(SignedMessage),
    /// Re-broadcast a received message (honest forwarding). Counted
    /// separately from originals in the metrics and never counts as a
    /// voting phase.
    Forward(SignedMessage),
    /// Re-send a stored message to specific validators (the §2 recovery
    /// protocol's response path). Counted as a forward.
    ForwardTo(Vec<ValidatorId>, SignedMessage),
    /// Send a message only to the given validators. Honest protocol code
    /// never uses this; Byzantine strategies do (e.g. split equivocation).
    Multicast(Vec<ValidatorId>, SignedMessage),
}

/// Crypto-operation counts a node reports through its [`Context`]: how
/// many signature/VRF verifications it actually performed vs answered
/// from its verified-id table or its per-claim VRF verdicts. The engine
/// folds these into [`crate::Metrics`] after every callback, so a whole
/// run's crypto budget is observable without instrumenting node
/// internals. This is
/// the only place crypto work is counted: the code that verifies (or
/// skips) bumps the field here, and nodes keep no totals of their own.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CryptoOps {
    /// Signature verifications performed.
    pub sig_verifies: u64,
    /// Signature verifications skipped (id already verified).
    pub sig_verify_skips: u64,
    /// VRF verifications performed (on demand: the first time a
    /// proposal claim's priority is used).
    pub vrf_verifies: u64,
    /// VRF questions answered from a claim's memoized verdict.
    pub vrf_verify_skips: u64,
    /// Aggregate-signature verifications performed (certificate whose
    /// signer set contains at least one not-yet-vouched signer).
    pub agg_verifies: u64,
    /// Aggregate-signature verifications skipped because every claimed
    /// signer was already individually authenticated (vote in hand or a
    /// previously verified certificate).
    pub agg_verify_skips: u64,
}

/// Per-callback execution context handed to a [`Node`].
///
/// The context *collects* actions (messages, decisions); the engine
/// applies them after the callback returns, keeping nodes free of any
/// direct engine borrow (sans-io).
pub struct Context {
    /// Current simulation time.
    pub time: Time,
    /// The identity of the validator being called.
    pub me: ValidatorId,
    /// The network delay bound.
    pub delta: Delta,
    /// Shared block store (content-addressed block backing).
    pub store: BlockStore,
    /// Shared transaction pool.
    pub mempool: Mempool,
    /// Crypto-operation counts for this callback (see [`CryptoOps`]).
    pub crypto_ops: CryptoOps,
    pub(crate) outbox: Vec<Outgoing>,
    pub(crate) decisions: Vec<Log>,
}

impl Context {
    /// Creates a free-standing context (the engine does this for every
    /// callback; tests and custom harnesses may too).
    pub fn new(
        time: Time,
        me: ValidatorId,
        delta: Delta,
        store: BlockStore,
        mempool: Mempool,
    ) -> Self {
        Context {
            time,
            me,
            delta,
            store,
            mempool,
            crypto_ops: CryptoOps::default(),
            outbox: Vec::new(),
            decisions: Vec::new(),
        }
    }

    /// Actions collected so far (tests and custom harnesses).
    pub fn outbox(&self) -> &[Outgoing] {
        &self.outbox
    }

    /// Drains the collected actions (used by wrapper nodes — e.g.
    /// Byzantine strategies that run honest logic in a scratch context
    /// and rewrite its output).
    pub fn take_outbox(&mut self) -> Vec<Outgoing> {
        std::mem::take(&mut self.outbox)
    }

    /// Decisions collected so far (tests and custom harnesses).
    pub fn decisions(&self) -> &[Log] {
        &self.decisions
    }

    /// Broadcasts an original message to all validators.
    pub fn broadcast(&mut self, msg: SignedMessage) {
        self.outbox.push(Outgoing::Broadcast(msg));
    }

    /// Forwards a received message to all validators.
    pub fn forward(&mut self, msg: SignedMessage) {
        self.outbox.push(Outgoing::Forward(msg));
    }

    /// Re-sends a stored message to specific validators (recovery
    /// responses).
    pub fn forward_to(&mut self, targets: Vec<ValidatorId>, msg: SignedMessage) {
        self.outbox.push(Outgoing::ForwardTo(targets, msg));
    }

    /// Sends a message to a subset of validators (Byzantine strategies).
    pub fn multicast(&mut self, targets: Vec<ValidatorId>, msg: SignedMessage) {
        self.outbox.push(Outgoing::Multicast(targets, msg));
    }

    /// Reports that this validator *decides* `log` (TOB delivery).
    pub fn decide(&mut self, log: Log) {
        self.decisions.push(log);
    }
}

/// A protocol participant driven by the simulation engine.
///
/// All callbacks receive the current [`Context`]; implementations emit
/// actions through it and must not block. Honest implementations live in
/// `tobsvd-ga` / `tobsvd-core`; Byzantine ones in `tobsvd-adversary`.
pub trait Node: Send + 'static {
    /// Called once when the node first starts (time of its first awake
    /// tick) and on every wake-up after sleep, *after* buffered messages
    /// have been delivered via [`Node::on_message`].
    fn on_wake(&mut self, ctx: &mut Context) {
        let _ = ctx;
    }

    /// Called at every Δ-multiple tick while awake (phase boundary).
    fn on_phase(&mut self, ctx: &mut Context);

    /// Called for every delivered message while awake (or buffered
    /// messages at wake time).
    fn on_message(&mut self, msg: &SignedMessage, ctx: &mut Context);

    /// Called when a scheduled [`crate::StateFault`] strikes this
    /// validator: the node must apply the corruption to its own state
    /// (the fault models bit rot / torn writes *inside* the process, so
    /// only the node knows which field the fault names). Default: inert
    /// (placeholder and Byzantine nodes have no honest state to
    /// corrupt).
    fn on_state_fault(&mut self, fault: &crate::StateFault, ctx: &mut Context) {
        let _ = (fault, ctx);
    }

    /// A short human-readable label (for reports and traces).
    fn label(&self) -> &'static str {
        "node"
    }

    /// Downcasting hook so harnesses can read protocol state back out of
    /// the simulation after a run. Implement as `self`.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable downcasting hook. Implement as `self`.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// A node that does nothing; used as a placeholder while a slot's real
/// node is checked out during a callback, and as a harmless stand-in in
/// tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdleNode;

impl Node for IdleNode {
    fn on_phase(&mut self, _ctx: &mut Context) {}
    fn on_message(&mut self, _msg: &SignedMessage, _ctx: &mut Context) {}
    fn label(&self) -> &'static str {
        "idle"
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
    use tobsvd_crypto::Keypair;
    use tobsvd_types::{InstanceId, Payload};

    #[test]
    fn context_collects_actions() {
        let store = BlockStore::new();
        let mempool = Mempool::new();
        let mut ctx = Context::new(
            Time::ZERO,
            ValidatorId::new(0),
            Delta::default(),
            store.clone(),
            mempool,
        );
        let kp = Keypair::from_seed(ValidatorId::new(0).key_seed());
        let msg = SignedMessage::sign(
            &kp,
            ValidatorId::new(0),
            Payload::Log { instance: InstanceId(0), log: Log::genesis(&store) },
        );
        ctx.broadcast(msg);
        ctx.forward(msg);
        ctx.decide(Log::genesis(&store));
        assert_eq!(ctx.outbox.len(), 2);
        assert_eq!(ctx.decisions.len(), 1);
    }

    #[test]
    fn idle_node_is_inert() {
        let store = BlockStore::new();
        let mut ctx = Context::new(
            Time::ZERO,
            ValidatorId::new(0),
            Delta::default(),
            store,
            Mempool::new(),
        );
        let mut node = IdleNode;
        node.on_phase(&mut ctx);
        node.on_wake(&mut ctx);
        assert!(ctx.outbox.is_empty());
        assert_eq!(node.label(), "idle");
    }
}
