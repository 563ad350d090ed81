//! The sans-io protocol interface: [`Node`] and [`Context`].

use std::sync::Arc;

use tobsvd_types::{BlockStore, Delivered, Delta, Log, SignedMessage, Time, ValidatorId};

use crate::mempool::Mempool;

/// Outgoing network actions emitted by a node during a callback.
#[derive(Clone, Debug)]
pub enum Outgoing {
    /// Broadcast an original message to all validators (including self).
    Broadcast(SignedMessage),
    /// Re-broadcast a received message (honest forwarding). Counted
    /// separately from originals in the metrics and never counts as a
    /// voting phase. The handle is the one the message was delivered
    /// under when the forwarder kept it, so a forward copies no message
    /// and carries the signature verdict recorded in it.
    Forward(Arc<Delivered>),
    /// Re-send stored messages, in order, to one validator: the §2
    /// recovery protocol's reply, one action per serve. The handles are
    /// the sender's own stored copies, so a reply copies no message.
    /// Each message counts as one forward.
    ForwardTo(ValidatorId, Vec<Arc<Delivered>>),
    /// Send a message only to the given validators: the fetch plane's
    /// targeted block requests and responses, and Byzantine strategies
    /// (e.g. split equivocation).
    Multicast(Vec<ValidatorId>, SignedMessage),
}

/// Crypto-operation counts a node reports through its [`Context`]: how
/// many signature/VRF verifications it decided vs answered from its
/// verified-id table or its per-claim VRF verdicts. The engine
/// folds these into `tobsvd_sim::Metrics` after every callback, so a whole
/// run's crypto budget is observable without instrumenting node
/// internals. This is
/// the only place crypto work is counted: the code that verifies (or
/// skips) bumps the field here, and nodes keep no totals of their own.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CryptoOps {
    /// Signature verifications: the validator's verification decisions,
    /// one per first sighting its gate checked. A shared handle may
    /// answer one of them from the verdict another recipient recorded in
    /// it ([`tobsvd_types::Delivered`]), so this counts decisions per
    /// validator, not signature checks per process.
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
    /// First sightings the range gate dropped before any crypto
    /// ([`crate::gossip::GossipState::admit_live`]): no live instance
    /// takes them, so they were neither verified nor filed.
    pub dropped_out_of_range: u64,
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
    outbox: Vec<Outgoing>,
    decisions: Vec<Log>,
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
    #[inline]
    pub fn outbox(&self) -> &[Outgoing] {
        &self.outbox
    }

    /// Drains the collected actions (the engine, and wrapper nodes —
    /// e.g. Byzantine strategies that run honest logic in a scratch
    /// context and rewrite its output).
    #[inline]
    pub fn take_outbox(&mut self) -> Vec<Outgoing> {
        std::mem::take(&mut self.outbox)
    }

    /// Decisions collected so far (tests and custom harnesses).
    #[inline]
    pub fn decisions(&self) -> &[Log] {
        &self.decisions
    }

    /// Drains the collected decisions (the engine).
    #[inline]
    pub fn take_decisions(&mut self) -> Vec<Log> {
        std::mem::take(&mut self.decisions)
    }

    /// Broadcasts an original message to all validators.
    pub fn broadcast(&mut self, msg: SignedMessage) {
        self.outbox.push(Outgoing::Broadcast(msg));
    }

    /// Forwards a received message to all validators: its delivered
    /// handle, or a message that is wrapped in one here.
    pub fn forward(&mut self, msg: impl Into<Arc<Delivered>>) {
        self.outbox.push(Outgoing::Forward(msg.into()));
    }

    /// Re-sends stored messages, in order, to `to` (a recovery reply).
    pub fn forward_to(&mut self, to: ValidatorId, msgs: Vec<Arc<Delivered>>) {
        self.outbox.push(Outgoing::ForwardTo(to, msgs));
    }

    /// Sends a message to a subset of validators (the fetch plane,
    /// Byzantine strategies).
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
    /// have been delivered via [`Node::on_delivery`].
    fn on_wake(&mut self, ctx: &mut Context) {
        let _ = ctx;
    }

    /// Called at every Δ-multiple tick while awake (phase boundary).
    fn on_phase(&mut self, ctx: &mut Context);

    /// Receives one message by reference: what [`Node::on_delivery`]
    /// does by default, and the entry point of callers that hold no
    /// shared handle (the TCP runtime's decoded frames, tests, wrapper
    /// nodes).
    fn on_message(&mut self, msg: &SignedMessage, ctx: &mut Context);

    /// Called by the simulation engine for every message delivered while
    /// awake (or buffered for the node while it slept, at wake time),
    /// with the one handle all of a broadcast's copies share. A node that
    /// keeps or forwards the message keeps this handle instead of a copy
    /// of its own, so a message is one allocation for the whole run, and
    /// its signature is checked once: the first recipient's successful
    /// check is recorded in the handle and answers every later one
    /// ([`Delivered::verify`]). Default: [`Node::on_message`], which
    /// sees no handle and so no recorded verdict.
    ///
    /// `on_message` keeps its by-reference signature because most nodes
    /// keep nothing and the runtime, tests and wrapper nodes hold no
    /// handle; taking an `Arc` there would make each of them allocate
    /// one per message. The engine does not clone the handle per
    /// delivery: a node clones it only for what it stores.
    fn on_delivery(&mut self, msg: &Arc<Delivered>, ctx: &mut Context) {
        self.on_message(msg, ctx);
    }

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
