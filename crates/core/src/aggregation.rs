//! The aggregation plane: boundary-deferred relaying with quorum
//! certificates — the relay strategy a validator runs *instead of* the
//! paper's immediate per-receiver forward.
//!
//! A [`Validator`](crate::Validator) holds an
//! `Option<AggregationPlane>`, built once from
//! [`TobConfig::certificates`](crate::TobConfig::certificates). `None`
//! **is** the paper's protocol (Table 1's O(L·n³)); `Some` defers the
//! relay-heavy payloads ([`AggregationPlane::defers`]) to the next
//! phase boundary and collapses quorate vote groups into certificates.
//! Its per-view state, the vote groups and the proposal relay buffer,
//! lives in the validator's window (`crate::window::ViewState`) and is
//! retired with the rest of the view; only this module sees inside it.
//! GA state stays with the validator: [`AggregationPlane::on_certificate`]
//! returns the signers it authenticated and the caller absorbs them, and
//! a §2 recovery serve asks [`served_votes`] which vote messages to send.

use std::sync::Arc;

use tobsvd_crypto::{AggregateSignature, Digest, KeyCache, Keypair, PublicKey, Signature};
use tobsvd_types::{Delivered, InstanceId, Log, Payload, SignedMessage, SignerSet, ValidatorId};

use crate::leader::Priority;
use crate::window::Window;
use crate::Context;

/// Aggregation state for one `(instance, log)` vote group.
///
/// The aggregation plane defers all vote relaying to the next phase
/// boundary. Boundaries are Δ-spaced and the engine delivers messages
/// before firing the phase callback at the same tick, so a vote in this
/// validator's `kΔ` snapshot is flushed at `kΔ` and reaches every honest
/// validator by `(k+1)Δ` — exactly the graded-delivery guarantee the
/// paper obtains from immediate per-receiver forwarding, at O(n²)
/// instead of O(n³) deliveries per view.
pub(crate) struct VoteGroup {
    instance: InstanceId,
    log: Log,
    /// Individually received (and verified) votes as `(sender,
    /// signature)`, in arrival order — the group's `(instance, log)` is
    /// the rest of each vote, so a vote relayed on its own is rebuilt
    /// byte for byte. One entry per sender: gossip dedups ids, and a
    /// sender's two conflicting logs land in two different groups.
    votes: Vec<(ValidatorId, Signature)>,
    /// Senders of `votes` as a bitmap (the signer set of our own
    /// certificate).
    have_votes: SignerSet,
    /// `votes[..flushed]` have been relayed — individually or covered
    /// by a certificate this validator sent.
    flushed: usize,
    /// Signers this validator has *personally* sent a certificate for
    /// (own broadcast or a forwarded received certificate). Only sends
    /// count: coverage is what upholds the relay guarantee through this
    /// validator.
    covered: SignerSet,
    /// Every certificate the flush sent for the group, own or
    /// forwarded, in sending order, when recovery is on: their signers
    /// are `covered`. A recovery serve re-sends these handles.
    sent: Vec<Arc<Delivered>>,
    /// Signers vouched by a received certificate whose aggregate this
    /// validator fully verified.
    cert_verified: SignerSet,
    /// Whether this validator's own certificate for the group has been
    /// broadcast (at most one per group, so the per-sender gossip cap
    /// can never drop a later emission that would carry new signers).
    own_cert_emitted: bool,
    /// Verified received certificates queued for boundary forwarding,
    /// as their signers and the handles they were delivered under, which
    /// the flush forwards: a certificate's parts are nearly all of it,
    /// so keeping the handle costs no more than keeping the parts.
    pending_certs: Vec<(SignerSet, Arc<Delivered>)>,
}

impl VoteGroup {
    fn new(instance: InstanceId, log: Log) -> Self {
        VoteGroup {
            instance,
            log,
            votes: Vec::new(),
            have_votes: SignerSet::empty(),
            flushed: 0,
            covered: SignerSet::empty(),
            sent: Vec::new(),
            cert_verified: SignerSet::empty(),
            own_cert_emitted: false,
            pending_certs: Vec::new(),
        }
    }

    /// Signers whose votes this validator can vouch for without the
    /// certificate under consideration: individually held votes plus
    /// previously verified certificates.
    fn vouched(&self) -> SignerSet {
        let mut s = self.have_votes;
        s.union_with(&self.cert_verified);
        s
    }

    /// The certificates the flush sent for the group.
    #[cfg(test)]
    pub(crate) fn sent(&self) -> &[Arc<Delivered>] {
        &self.sent
    }

    /// Signers already guaranteed to be relayed by this validator: held
    /// votes (flushed individually or via our own certificate) plus
    /// everything we already sent a certificate for.
    fn relayed_by_us(&self) -> SignerSet {
        let mut s = self.have_votes;
        s.union_with(&self.covered);
        s
    }
}

/// Deferred proposal relaying for one view.
///
/// The paper's gossip echoes every received proposal per receiver:
/// n proposals × n forwarders is the second O(n³) delivery term per
/// view, co-equal with the vote echo the certificates eliminate. But a
/// proposal relay is informative in exactly two cases — it spreads the
/// highest-VRF proposal (the one any vote could pick) or it spreads
/// equivocation evidence. Votes themselves never depend on relays
/// under worst-case delay: a proposal received at t relays at the next
/// boundary and lands at t + Δ at the earliest, past the `t_v + Δ`
/// vote it could have fed, while the direct broadcast already reaches
/// every awake validator in time. So the boundary flush forwards the
/// best VRF-valid proposal seen (once per priority improvement) and
/// every buffered copy from a detected equivocator, and drops the
/// rest: O(n) relays per view instead of O(n²). The choice is
/// [`crate::ProposalTracker::relays`], which checks VRFs on demand.
#[derive(Default)]
pub(crate) struct ProposalRelay {
    /// Proposal receptions since the last boundary flush, as `(sender,
    /// slot)` references to the claims the view's tracker recorded (VRFs
    /// not yet checked). Bounded by the gossip cap: at most two distinct
    /// messages per sender per view survive `on_receive`.
    pending: Vec<(ValidatorId, usize)>,
    /// Highest priority already relayed for this view — the same total
    /// order [`crate::ProposalTracker`] uses to pick the vote input, so a
    /// relayed proposal is outranked only by one that would also
    /// outrank it there.
    best_relayed: Option<Priority>,
}

impl ProposalRelay {
    /// Buffers a reference to a fresh, in-window proposal the view's
    /// tracker recorded in `slot`: the relay decision is deferred to the
    /// boundary flush, where the tracker checks the VRFs it needs, knows
    /// the equivocators and hands out the handle it relays.
    pub(crate) fn note(&mut self, sender: ValidatorId, slot: usize) {
        self.pending.push((sender, slot));
    }
}

/// The vote group for `(instance, log)` in `window`, created on first
/// use. Groups per instance are few (honestly at most two — the gossip
/// cap drops further distinct logs per sender), so a linear scan in
/// arrival order keeps the flush deterministic.
///
/// `None` is unreachable in practice (the group is created on demand);
/// the `Option` keeps the accessor total without an unreachable panic
/// arm, and the caller degrades to the baseline per-vote forward.
fn group_mut(window: &mut Window, instance: InstanceId, log: Log) -> Option<&mut VoteGroup> {
    let groups = &mut window.entry(instance.view()).or_default().groups;
    match groups.iter().position(|g| g.instance == instance && g.log == log) {
        Some(i) => groups.get_mut(i),
        None => {
            groups.push(VoteGroup::new(instance, log));
            groups.last_mut()
        }
    }
}

/// What a §2 recovery serve sends of one view's votes, given the view's
/// vote groups and its archived `LOG`s: every certificate the flush sent,
/// then, in arrival order, each archived vote whose sender no sent
/// certificate of its group covers. Those are the votes that arrived
/// since the last flush and the sub-quorum groups'. Each `(sender, log)`
/// the validator relayed is carried once and no message is built: a
/// covered vote's signature is in a sent certificate's aggregate. With
/// no groups (per-vote mode) every archived vote is sent.
pub(crate) fn served_votes<'a>(
    groups: &'a [VoteGroup],
    archive: &'a [Arc<Delivered>],
) -> impl Iterator<Item = &'a Arc<Delivered>> {
    let covered = |msg: &SignedMessage| match *msg.payload() {
        Payload::Log { instance, log } => groups
            .iter()
            .any(|g| g.instance == instance && g.log == log && g.covered.contains(msg.sender())),
        _ => false,
    };
    groups.iter().flat_map(|g| &g.sent).chain(archive.iter().filter(move |msg| !covered(msg)))
}

/// The certificate-mode relay strategy of one validator (see the module
/// docs).
pub(crate) struct AggregationPlane {
    me: ValidatorId,
    keypair: Keypair,
    /// Committee size: bounds certificate signer ids, sets the quorum.
    n: usize,
    /// Whether §2 recovery serves read the certificates a flush sends
    /// ([`crate::TobConfig::recovery`]): only then are their handles kept.
    recovery: bool,
    /// Instrumentation: own certificates broadcast.
    pub(crate) certificates_emitted: u64,
}

impl AggregationPlane {
    pub(crate) fn new(me: ValidatorId, keypair: Keypair, n: usize, recovery: bool) -> Self {
        AggregationPlane { me, keypair, n, recovery, certificates_emitted: 0 }
    }

    /// Whether the plane takes over relaying of `payload`: votes and
    /// certificates buffer in their vote group, proposals in their
    /// view's relay, and all three flush at the next phase boundary.
    /// Everything else keeps the immediate per-receiver forward of the
    /// paper's gossip.
    pub(crate) fn defers(payload: &Payload) -> bool {
        matches!(
            payload,
            Payload::Log { .. } | Payload::Certificate { .. } | Payload::Proposal { .. }
        )
    }

    /// Buffers a fresh, resolved, in-window vote for the boundary flush.
    pub(crate) fn note_vote(
        &mut self,
        window: &mut Window,
        msg: &Arc<Delivered>,
        instance: InstanceId,
        log: Log,
        ctx: &mut Context,
    ) {
        let Some(g) = group_mut(window, instance, log) else {
            // No group handle: keep the relay guarantee the simple way.
            ctx.forward(Arc::clone(msg));
            return;
        };
        // A committee member (the gossip gate admits no other) has a bit.
        g.have_votes.insert(msg.sender());
        g.votes.push((msg.sender(), *msg.signature()));
    }

    /// Handles a fresh, resolved, in-window quorum certificate and
    /// returns the signers whose `(signer, log)` votes it newly
    /// authenticated, for the caller to absorb into its GA (empty when
    /// there is nothing to absorb).
    ///
    /// The attested claims pass through one of two authenticated doors:
    /// every attested signer was already vouched (its vote individually
    /// verified here, or covered by a previously verified certificate)
    /// — the subset fast path, no new claims — or the aggregate itself
    /// verifies against the reconstructed per-signer vote bindings. A
    /// forged aggregate fails the recomputation and is dropped before
    /// any absorption or forwarding.
    pub(crate) fn on_certificate(
        &mut self,
        window: &mut Window,
        msg: &Arc<Delivered>,
        ctx: &mut Context,
    ) -> Vec<ValidatorId> {
        let Payload::Certificate { instance, log, signers, agg } = *msg.payload() else {
            return Vec::new();
        };
        // A certificate naming validators outside the committee claims
        // votes that cannot exist; drop it outright.
        if signers.is_empty() || !signers.within(self.n) {
            return Vec::new();
        }
        let Some(g) = group_mut(window, instance, log) else { return Vec::new() };
        if signers.is_subset(&g.vouched()) {
            // Every attested vote is already authenticated here; the
            // certificate adds no claims and needs no relay from us
            // (held votes flush through our own machinery; previously
            // verified certificates were queued when they arrived).
            ctx.crypto_ops.agg_verify_skips += 1;
            return Vec::new();
        }
        ctx.crypto_ops.agg_verifies += 1;
        let vote_payload = Payload::Log { instance, log };
        let signer_ids: Vec<ValidatorId> = signers.iter().collect();
        let bindings: Vec<Digest> = signer_ids
            .iter()
            .map(|s| SignedMessage::binding_for(*s, &vote_payload))
            .collect();
        let msgs: Vec<&[u8]> = bindings.iter().map(|d| d.as_bytes().as_slice()).collect();
        let pks: Vec<PublicKey> =
            signer_ids.iter().map(|s| KeyCache::keypair(s.key_seed()).public()).collect();
        let pk_refs: Vec<&PublicKey> = pks.iter().collect();
        if !agg.aggregate_verify(&msgs, &pk_refs) {
            return Vec::new(); // forged aggregate: no absorption, no forward
        }
        g.cert_verified.union_with(&signers);
        // Queue for boundary forwarding iff it vouches signers we could
        // not otherwise relay — this is what preserves the paper's
        // graded-delivery guarantee for votes we never saw individually.
        if !signers.is_subset(&g.relayed_by_us()) {
            g.pending_certs.push((signers, Arc::clone(msg)));
        }
        // Duplicates no-op in the GA, and conflicting logs across
        // certificates surface as equivocation in its tracker, exactly
        // as individual votes would.
        signer_ids
    }

    /// Boundary flush (every Δ while awake): forward verified
    /// certificates that extend our coverage, emit our own certificate
    /// once a group turns quorate (> n/2 distinct voters), relay the
    /// remaining buffered votes individually — every view's groups in
    /// view order — then the proposal side of every view, in view order.
    /// Each view's tracker (best VRF, equivocators) checks VRFs into
    /// `ctx.crypto_ops`.
    pub(crate) fn flush(&mut self, window: &mut Window, ctx: &mut Context) {
        let quorum = self.n / 2;
        for g in window.values_mut().flat_map(|state| state.groups.iter_mut()) {
            // Received certificates first: maximal coverage means
            // fewer individual forwards below.
            for (signers, cert) in std::mem::take(&mut g.pending_certs) {
                if !signers.is_subset(&g.relayed_by_us()) {
                    if self.recovery {
                        g.sent.push(Arc::clone(&cert));
                    }
                    ctx.forward(cert);
                    g.covered.union_with(&signers);
                }
            }
            // Our own certificate, at most once per group, and only
            // if it vouches someone our coverage does not.
            if !g.own_cert_emitted
                && g.votes.len() > quorum
                && !g.have_votes.is_subset(&g.covered)
            {
                let mut votes: Vec<&(ValidatorId, Signature)> = g.votes.iter().collect();
                votes.sort_by_key(|(sender, _)| *sender);
                let sigs: Vec<&Signature> = votes.iter().map(|(_, sig)| sig).collect();
                // A quorate group is non-empty, so aggregation always
                // succeeds; on the impossible `Err` the group simply
                // falls through to per-vote forwarding below.
                if let Ok(agg) = AggregateSignature::aggregate(&sigs) {
                    let payload = Payload::Certificate {
                        instance: g.instance,
                        log: g.log,
                        signers: g.have_votes,
                        agg,
                    };
                    let cert = SignedMessage::sign(&self.keypair, self.me, payload);
                    ctx.broadcast(cert);
                    if self.recovery {
                        g.sent.push(cert.into());
                    }
                    self.certificates_emitted += 1;
                    g.own_cert_emitted = true;
                    let have = g.have_votes;
                    g.covered.union_with(&have);
                    g.flushed = g.votes.len();
                }
            }
            // Whatever is still unflushed goes out individually —
            // the sub-quorum (or late-vote) fallback, identical to
            // the paper's per-receiver forwarding.
            let vote = Payload::Log { instance: g.instance, log: g.log };
            while let Some(&(sender, sig)) = g.votes.get(g.flushed) {
                g.flushed += 1;
                if !g.covered.contains(sender) {
                    ctx.forward(SignedMessage::from_parts(sender, vote, sig));
                }
            }
        }
        // Proposal side: relay every buffered copy from a detected
        // equivocator, then the highest-priority valid proposal per view
        // (only when it outranks everything we relayed for the view
        // before) — the two relays that carry information. The rest of
        // the echo is dropped; see [`ProposalRelay`] for why votes never
        // depend on it.
        for side in window.values_mut().filter_map(|state| state.proposals.as_mut()) {
            let pending = std::mem::take(&mut side.relay.pending);
            let best = &mut side.relay.best_relayed;
            for msg in side.tracker.relays(&pending, best, &mut ctx.crypto_ops) {
                ctx.forward(msg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mempool, Outgoing};
    use tobsvd_types::{BlockStore, Delta, Time, View};

    fn vote(sender: u32, instance: InstanceId, log: Log) -> SignedMessage {
        let v = ValidatorId::new(sender);
        SignedMessage::sign(&Keypair::from_seed(v.key_seed()), v, Payload::Log { instance, log })
    }

    /// A plane and the window holding its per-view state.
    type Rig = (AggregationPlane, Window);

    /// One boundary flush of the rig: what it sent.
    fn flush((plane, window): &mut Rig, store: &BlockStore) -> Vec<Outgoing> {
        let mut ctx = Context::new(Time::new(8), plane.me, Delta::new(8), store.clone(), Mempool::new());
        plane.flush(window, &mut ctx);
        ctx.take_outbox()
    }

    fn plane(n: usize) -> Rig {
        let me = ValidatorId::new(0);
        (AggregationPlane::new(me, KeyCache::keypair(me.key_seed()), n, false), Window::new())
    }

    fn note((plane, window): &mut Rig, votes: &[SignedMessage], store: &BlockStore) {
        let mut ctx = Context::new(Time::new(3), plane.me, Delta::new(8), store.clone(), Mempool::new());
        for m in votes {
            let Payload::Log { instance, log } = *m.payload() else { unreachable!() };
            plane.note_vote(window, &(*m).into(), instance, log, &mut ctx);
        }
        assert!(ctx.outbox().is_empty(), "votes are deferred to the boundary");
    }

    #[test]
    fn sub_quorum_votes_are_relayed_as_the_received_messages() {
        let store = BlockStore::new();
        let log = Log::genesis(&store).extend_empty(&store, ValidatorId::new(1), View::ZERO);
        let received: Vec<_> = [5, 2, 7].map(|s| vote(s, InstanceId(0), log)).to_vec();
        let mut plane = plane(8);
        note(&mut plane, &received, &store);
        let relayed: Vec<_> = flush(&mut plane, &store)
            .into_iter()
            .map(|o| match o {
                Outgoing::Forward(m) => **m,
                other => panic!("expected a forward, got {other:?}"),
            })
            .collect();
        assert_eq!(relayed, received, "same ids, signatures and payloads, in arrival order");
        assert!(flush(&mut plane, &store).is_empty(), "each vote is relayed once");
    }

    #[test]
    fn quorate_certificate_aggregates_the_received_signatures_then_late_votes_relay_as_received() {
        let store = BlockStore::new();
        let log = Log::genesis(&store).extend_empty(&store, ValidatorId::new(1), View::ZERO);
        let instance = InstanceId(0);
        let received: Vec<_> = [6, 1, 4, 3, 0].map(|s| vote(s, instance, log)).to_vec();
        let mut plane = plane(8);
        note(&mut plane, &received, &store);
        let sent = flush(&mut plane, &store);
        let [Outgoing::Broadcast(cert)] = sent.as_slice() else { panic!("expected one certificate, got {sent:?}") };
        let mut sorted = received.clone();
        sorted.sort_by_key(|m| m.sender());
        let sigs: Vec<&Signature> = sorted.iter().map(|m| m.signature()).collect();
        let mut signers = SignerSet::empty();
        for m in &received {
            signers.insert(m.sender());
        }
        let agg = AggregateSignature::aggregate(&sigs).expect("non-empty");
        let want = Payload::Certificate { instance, log, signers, agg };
        assert_eq!(*cert.payload(), want);
        assert_eq!(plane.0.certificates_emitted, 1);

        let late = vote(7, instance, log);
        note(&mut plane, &[late], &store);
        assert!(matches!(flush(&mut plane, &store).as_slice(), [Outgoing::Forward(m)] if ***m == late));
    }

    #[test]
    fn a_received_certificate_is_forwarded_as_received() {
        let store = BlockStore::new();
        let log = Log::genesis(&store).extend_empty(&store, ValidatorId::new(1), View::ZERO);
        let instance = InstanceId(0);
        let votes: Vec<_> = [1, 2, 3, 4, 5].map(|s| vote(s, instance, log)).to_vec();
        let mut aggregator = plane(8);
        aggregator.0.me = ValidatorId::new(6);
        aggregator.0.keypair = KeyCache::keypair(aggregator.0.me.key_seed());
        note(&mut aggregator, &votes, &store);
        let [Outgoing::Broadcast(cert)] = flush(&mut aggregator, &store)[..] else { panic!("one certificate") };
        let Payload::Certificate { signers, .. } = *cert.payload() else { unreachable!() };

        let mut plane = plane(8);
        let mut ctx = Context::new(Time::new(3), plane.0.me, Delta::new(8), store.clone(), Mempool::new());
        let absorbed = plane.0.on_certificate(&mut plane.1, &cert.into(), &mut ctx);
        assert_eq!(absorbed, signers.iter().collect::<Vec<_>>());
        let forwarded = flush(&mut plane, &store);
        assert!(matches!(forwarded.as_slice(), [Outgoing::Forward(m)] if ***m == cert), "{forwarded:?}");
    }

    /// The retained bytes per buffered vote: a sender and a signature.
    #[test]
    fn a_buffered_vote_is_36_bytes() {
        assert!(std::mem::size_of::<(ValidatorId, Signature)>() <= 36);
    }
}
