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
//! All state that only means something in certificate mode lives here.
//! GA state stays with the validator: [`AggregationPlane::on_certificate`]
//! returns the signers it authenticated and the caller absorbs them.

use std::collections::BTreeMap;

use tobsvd_crypto::{AggregateSignature, Digest, KeyCache, Keypair, PublicKey, Signature};
use tobsvd_sim::Context;
use tobsvd_types::{InstanceId, Log, Payload, SignedMessage, SignerSet, ValidatorId, View};

use crate::leader::{Priority, ProposalTracker};

/// Aggregation state for one `(instance, log)` vote group.
///
/// The aggregation plane defers all vote relaying to the next phase
/// boundary. Boundaries are Δ-spaced and the engine delivers messages
/// before firing the phase callback at the same tick, so a vote in this
/// validator's `kΔ` snapshot is flushed at `kΔ` and reaches every honest
/// validator by `(k+1)Δ` — exactly the graded-delivery guarantee the
/// paper obtains from immediate per-receiver forwarding, at O(n²)
/// instead of O(n³) deliveries per view.
struct VoteGroup {
    instance: InstanceId,
    log: Log,
    /// Individually received (and verified) votes, in arrival order.
    /// One entry per sender: gossip dedups ids, and a sender's two
    /// conflicting logs land in two different groups.
    votes: Vec<SignedMessage>,
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
    /// Signers vouched by a received certificate whose aggregate this
    /// validator fully verified.
    cert_verified: SignerSet,
    /// Whether this validator's own certificate for the group has been
    /// broadcast (at most one per group, so the per-sender gossip cap
    /// can never drop a later emission that would carry new signers).
    own_cert_emitted: bool,
    /// Verified received certificates queued for boundary forwarding.
    pending_certs: Vec<SignedMessage>,
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
/// [`ProposalTracker::relays`], which checks VRFs on demand.
#[derive(Default)]
struct ProposalRelay {
    /// Proposal receptions since the last boundary flush, as recorded
    /// (VRFs not yet checked). Bounded by the gossip cap: at most two
    /// distinct messages per sender per view survive `on_receive`.
    pending: Vec<SignedMessage>,
    /// Highest priority already relayed for this view — the same total
    /// order [`ProposalTracker`] uses to pick the vote input, so a
    /// relayed proposal is outranked only by one that would also
    /// outrank it there.
    best_relayed: Option<Priority>,
}

/// The certificate-mode relay strategy of one validator (see the module
/// docs).
pub(crate) struct AggregationPlane {
    me: ValidatorId,
    keypair: Keypair,
    /// Committee size: bounds certificate signer ids, sets the quorum.
    n: usize,
    /// Per-view vote groups awaiting the boundary flush (certificate
    /// emission or individual relay). Pruned with the GA window.
    groups: BTreeMap<View, Vec<VoteGroup>>,
    /// Proposal relays buffered since the last boundary plus per-view
    /// relay coverage. Pruned with the proposal window.
    prop_relays: BTreeMap<View, ProposalRelay>,
    /// Instrumentation: own certificates broadcast.
    pub(crate) certificates_emitted: u64,
}

impl AggregationPlane {
    pub(crate) fn new(me: ValidatorId, keypair: Keypair, n: usize) -> Self {
        AggregationPlane {
            me,
            keypair,
            n,
            groups: BTreeMap::new(),
            prop_relays: BTreeMap::new(),
            certificates_emitted: 0,
        }
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

    /// Drops state of instances finished before view `v`: relay buffers
    /// follow the proposal window, vote groups the GA window (a
    /// finished instance takes no more snapshots, so nothing is owed a
    /// relay).
    pub(crate) fn prune(&mut self, v: View) {
        self.prop_relays.retain(|w, _| w.number() + 1 >= v.number());
        self.groups.retain(|w, _| w.number() + 2 >= v.number());
    }

    /// The vote group for `(instance, log)`, created on first use.
    /// Groups per instance are few (honestly at most two — the gossip
    /// cap drops further distinct logs per sender), so a linear scan in
    /// arrival order keeps the flush deterministic.
    ///
    /// `None` is unreachable in practice (the group is created on
    /// demand); the `Option` keeps the accessor total without an
    /// unreachable panic arm, and the caller degrades to the baseline
    /// per-vote forward.
    fn group_mut(&mut self, instance: InstanceId, log: Log) -> Option<&mut VoteGroup> {
        let groups = self.groups.entry(instance.view()).or_default();
        match groups.iter().position(|g| g.instance == instance && g.log == log) {
            Some(i) => groups.get_mut(i),
            None => {
                groups.push(VoteGroup::new(instance, log));
                groups.last_mut()
            }
        }
    }

    /// Buffers a fresh, resolved, in-window vote for the boundary flush.
    pub(crate) fn note_vote(
        &mut self,
        msg: &SignedMessage,
        instance: InstanceId,
        log: Log,
        ctx: &mut Context,
    ) {
        let Some(g) = self.group_mut(instance, log) else {
            // No group handle: keep the relay guarantee the simple way.
            ctx.forward(*msg);
            return;
        };
        if !g.have_votes.insert(msg.sender()) {
            // Beyond the bitmap capacity: fall back to the baseline
            // immediate forward so the relay guarantee still holds.
            ctx.forward(*msg);
            return;
        }
        g.votes.push(*msg);
    }

    /// Buffers a fresh, in-window proposal the view's tracker recorded:
    /// the relay decision is deferred to the boundary flush, where the
    /// tracker checks the VRFs it needs and knows the equivocators.
    pub(crate) fn note_proposal(&mut self, view: View, msg: &SignedMessage) {
        self.prop_relays.entry(view).or_default().pending.push(*msg);
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
        msg: &SignedMessage,
        instance: InstanceId,
        log: Log,
        signers: SignerSet,
        agg: AggregateSignature,
        ctx: &mut Context,
    ) -> Vec<ValidatorId> {
        // A certificate naming validators outside the committee claims
        // votes that cannot exist; drop it outright.
        if signers.is_empty() || !signers.within(self.n) {
            return Vec::new();
        }
        let Some(g) = self.group_mut(instance, log) else { return Vec::new() };
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
        if let Some(g) = self.group_mut(instance, log) {
            g.cert_verified.union_with(&signers);
            // Queue for boundary forwarding iff it vouches signers we
            // could not otherwise relay — this is what preserves the
            // paper's graded-delivery guarantee for votes we never saw
            // individually.
            if !signers.is_subset(&g.relayed_by_us()) {
                g.pending_certs.push(*msg);
            }
        }
        // Duplicates no-op in the GA, and conflicting logs across
        // certificates surface as equivocation in its tracker, exactly
        // as individual votes would.
        signer_ids
    }

    /// Boundary flush (every Δ while awake): forward verified
    /// certificates that extend our coverage, emit our own certificate
    /// once a group turns quorate (> n/2 distinct voters), relay the
    /// remaining buffered votes individually, then the proposal side.
    /// `proposals` is the validator's per-view tracking (best VRF,
    /// equivocators), which checks VRFs into `ctx.crypto_ops`.
    pub(crate) fn flush(&mut self, proposals: &mut BTreeMap<View, ProposalTracker>, ctx: &mut Context) {
        let quorum = self.n / 2;
        for g in self.groups.values_mut().flatten() {
            // Received certificates first: maximal coverage means
            // fewer individual forwards below.
            for cert in std::mem::take(&mut g.pending_certs) {
                let Payload::Certificate { signers, .. } = cert.payload() else {
                    continue;
                };
                if !signers.is_subset(&g.relayed_by_us()) {
                    ctx.forward(cert);
                    g.covered.union_with(signers);
                }
            }
            // Our own certificate, at most once per group, and only
            // if it vouches someone our coverage does not.
            if !g.own_cert_emitted
                && g.votes.len() > quorum
                && !g.have_votes.is_subset(&g.covered)
            {
                let mut votes: Vec<&SignedMessage> = g.votes.iter().collect();
                votes.sort_by_key(|m| m.sender());
                let sigs: Vec<&Signature> = votes.iter().map(|m| m.signature()).collect();
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
                    ctx.broadcast(SignedMessage::sign(&self.keypair, self.me, payload));
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
            while let Some(vote) = g.votes.get(g.flushed).copied() {
                g.flushed += 1;
                if !g.covered.contains(vote.sender()) {
                    ctx.forward(vote);
                }
            }
        }
        // Proposal side: relay every buffered copy from a detected
        // equivocator, then the highest-priority valid proposal per view
        // (only when it outranks everything we relayed for the view
        // before) — the two relays that carry information. The rest of
        // the echo is dropped; see [`ProposalRelay`] for why votes never
        // depend on it.
        for (view, relay) in self.prop_relays.iter_mut() {
            let pending = std::mem::take(&mut relay.pending);
            let Some(tracker) = proposals.get_mut(view) else { continue };
            for msg in tracker.relays(&pending, &mut relay.best_relayed, &mut ctx.crypto_ops) {
                ctx.forward(msg);
            }
        }
    }
}
