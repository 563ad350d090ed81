//! Protocol messages.
//!
//! The paper defines one message type, `⟨LOG, Λ⟩_i` (§3.3). Mechanically
//! the repository uses three payloads:
//!
//! * [`Payload::Log`] — the GA input message `⟨LOG, Λ⟩` tagged with the
//!   GA instance it belongs to (for TOB-SVD, the view number of `GA_v`);
//! * [`Payload::Proposal`] — the leader-election proposal carrying a log
//!   and the proposer's VRF value for the view (paper §3.3 "validators
//!   broadcast one together with their VRF value");
//! * [`Payload::Vote`] — the `VOTE` message of the background Momose–Ren
//!   GA (§4); unused by TOB-SVD itself.
//!
//! Two further payloads implement the content-addressed delta-sync
//! subprotocol (the message-recovery machinery of the asynchrony-resilient
//! sleepy-TOB literature): [`Payload::BlockRequest`] asks a peer for a
//! chain range by tip hash, [`Payload::BlockResponse`] serves it. They are
//! point-to-point, carry no log handle, and are never equivocation-tracked.
//!
//! A [`SignedMessage`] binds a payload to its sender; two different `Log`
//! (or `Proposal`) payloads from one sender for one instance constitute
//! *equivocation evidence* (§3.3).

use std::fmt;

use tobsvd_crypto::{
    AggregateSignature, Digest, Hasher, Keypair, PublicKey, Signature, VrfOutput, VrfProof,
};

use crate::block::BlockId;
use crate::ids::ValidatorId;
use crate::log::Log;
use crate::view::View;

/// Identifies a Graded Agreement instance.
///
/// TOB-SVD runs one GA per view (`GA_v` has instance id `v`); standalone
/// GA harnesses use arbitrary ids.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct InstanceId(pub u64);

impl InstanceId {
    /// The GA instance belonging to a TOB-SVD view.
    pub fn for_view(view: View) -> Self {
        InstanceId(view.number())
    }

    /// The view this instance belongs to (TOB-SVD convention).
    pub fn view(&self) -> View {
        View::new(self.0)
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GA{}", self.0)
    }
}

/// The set of validators attested by a quorum certificate.
///
/// A fixed-width bitmap ([`SignerSet::CAPACITY`] validators) so
/// [`Payload`] stays `Copy`; iteration order is ascending validator id,
/// which is also the canonical aggregation order of the certificate's
/// [`AggregateSignature`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct SignerSet {
    words: [u64; SignerSet::WORDS],
}

impl SignerSet {
    /// Number of 64-bit words backing the bitmap.
    pub const WORDS: usize = 8;
    /// Highest representable validator count (`WORDS × 64`).
    pub const CAPACITY: usize = Self::WORDS * 64;

    /// The empty set.
    pub fn empty() -> Self {
        SignerSet::default()
    }

    /// Inserts `v`; returns `false` when `v`'s index is beyond
    /// [`SignerSet::CAPACITY`] and cannot be represented.
    pub fn insert(&mut self, v: ValidatorId) -> bool {
        let i = v.index();
        // `i / 64` is in range exactly when `i < CAPACITY`.
        match self.words.get_mut(i / 64) {
            Some(w) => {
                *w |= 1u64 << (i % 64);
                true
            }
            None => false,
        }
    }

    /// Whether `v` is in the set.
    pub fn contains(&self, v: ValidatorId) -> bool {
        let i = v.index();
        self.words.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// Number of signers in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Whether every signer in `self` is also in `other`.
    pub fn is_subset(&self, other: &SignerSet) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & !b == 0)
    }

    /// Adds every signer of `other` to `self`.
    pub fn union_with(&mut self, other: &SignerSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// Whether every signer's index is below `n` (a committee of `n`
    /// validators): the words are masked, no bit is walked.
    pub fn within(&self, n: usize) -> bool {
        self.words.iter().enumerate().all(|(wi, w)| {
            let keep = match n.saturating_sub(wi * 64) {
                0 => 0,
                bits @ 1..=63 => (1u64 << bits) - 1,
                _ => u64::MAX,
            };
            w & !keep == 0
        })
    }

    /// Ascending iterator over the member validator ids: per word, the
    /// lowest set bit is read off and cleared, so the cost follows the
    /// number of signers, not the capacity.
    pub fn iter(&self) -> impl Iterator<Item = ValidatorId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            std::iter::successors(Some(word), |w| Some(w & w.wrapping_sub(1)))
                .take_while(|w| *w != 0)
                .map(move |w| ValidatorId::new((wi * 64) as u32 + w.trailing_zeros()))
        })
    }

    /// The raw bitmap words (for wire encoding and hashing).
    pub fn words(&self) -> &[u64; Self::WORDS] {
        &self.words
    }

    /// Reconstructs a set from raw bitmap words.
    pub fn from_words(words: [u64; Self::WORDS]) -> Self {
        SignerSet { words }
    }
}

/// Message payloads.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Payload {
    /// `⟨LOG, Λ⟩` — input to Graded Agreement `instance`.
    Log {
        /// The GA instance this LOG message feeds.
        instance: InstanceId,
        /// The log Λ being input.
        log: Log,
    },
    /// A leader-election proposal for `view`.
    Proposal {
        /// The view being proposed for.
        view: View,
        /// The proposed log (extends the proposer's grade-0 candidate).
        log: Log,
        /// The proposer's VRF output for this view.
        vrf: VrfOutput,
        /// Proof accompanying the VRF output.
        proof: VrfProof,
    },
    /// `VOTE` message of the Momose–Ren background GA (§4).
    Vote {
        /// The GA instance this vote belongs to.
        instance: InstanceId,
        /// The log voted for.
        log: Log,
    },
    /// `RECOVERY` request (paper §2): sent by a validator upon waking so
    /// peers re-send messages it missed while asleep. Carries the
    /// requester's highest decided log (so peers can skip what it
    /// already has) and the first view it wants messages for.
    Recovery {
        /// First view the requester needs messages from.
        from_view: View,
        /// The requester's highest decided log.
        log: Log,
    },
    /// Finality-gadget vote (the ebb-and-flow construction the paper's
    /// introduction points to): a vote to finalize the sender's decided
    /// log as the checkpoint of `epoch`. Two different votes for one
    /// epoch are equivocation evidence.
    FinalityVote {
        /// The finality epoch.
        epoch: u64,
        /// The log voted for finalization.
        log: Log,
    },
    /// A quorum certificate: one constant-size attestation that every
    /// validator in `signers` sent `⟨LOG, log⟩` into GA `instance`. The
    /// aggregation plane broadcasts one certificate instead of relaying
    /// the underlying votes individually, collapsing the per-view
    /// forwarded-vote traffic from O(n³) deliveries to O(n²).
    Certificate {
        /// The GA instance the attested votes feed.
        instance: InstanceId,
        /// The log every attested vote carries.
        log: Log,
        /// Which validators' votes are aggregated.
        signers: SignerSet,
        /// Aggregate over the constituent vote signatures, in ascending
        /// signer order.
        agg: AggregateSignature,
    },
    /// Content-addressed fetch request of the delta-sync subprotocol:
    /// "send me the blocks of the chain ending at `tip`, from height
    /// `from_height` upward". Emitted when a received announcement
    /// references a chain the receiver is missing blocks of.
    BlockRequest {
        /// Tip of the chain being requested.
        tip: BlockId,
        /// First height (inclusive) the requester needs.
        from_height: u64,
    },
    /// Fetch response: a compact in-memory reference to the chain range
    /// `[from_height, height(tip)]`; the wire codec expands it by
    /// inlining the referenced block bodies from the responder's store,
    /// and the decoder inserts them into the receiver's store.
    BlockResponse {
        /// Tip of the served chain range.
        tip: BlockId,
        /// First height (inclusive) served.
        from_height: u64,
        /// Number of blocks served (`height(tip) − from_height + 1`).
        count: u64,
    },
}

impl Payload {
    /// The log carried by this payload — `None` for the fetch-subprotocol
    /// variants, which reference chains by hash rather than carrying a
    /// resolved log handle.
    pub fn log(&self) -> Option<Log> {
        match self {
            Payload::Log { log, .. }
            | Payload::Proposal { log, .. }
            | Payload::Vote { log, .. }
            | Payload::Recovery { log, .. }
            | Payload::FinalityVote { log, .. }
            | Payload::Certificate { log, .. } => Some(*log),
            Payload::BlockRequest { .. } | Payload::BlockResponse { .. } => None,
        }
    }

    /// Whether this payload belongs to the delta-sync fetch subprotocol
    /// (point-to-point; never gossiped or equivocation-tracked).
    pub fn is_sync(&self) -> bool {
        matches!(self, Payload::BlockRequest { .. } | Payload::BlockResponse { .. })
    }

    /// A stable digest of the payload, used as the signing target.
    pub fn signing_digest(&self) -> Digest {
        let mut h = Hasher::new("tobsvd/payload");
        match self {
            Payload::Log { instance, log } => {
                h.update_u64(0);
                h.update_u64(instance.0);
                h.update_digest(&log.tip().0);
                h.update_u64(log.len());
            }
            Payload::Proposal { view, log, vrf, proof } => {
                h.update_u64(1);
                h.update_u64(view.number());
                h.update_digest(&log.tip().0);
                h.update_u64(log.len());
                h.update_digest(&vrf.0);
                h.update_digest(&proof.0);
            }
            Payload::Vote { instance, log } => {
                h.update_u64(2);
                h.update_u64(instance.0);
                h.update_digest(&log.tip().0);
                h.update_u64(log.len());
            }
            Payload::Recovery { from_view, log } => {
                h.update_u64(3);
                h.update_u64(from_view.number());
                h.update_digest(&log.tip().0);
                h.update_u64(log.len());
            }
            Payload::FinalityVote { epoch, log } => {
                h.update_u64(4);
                h.update_u64(*epoch);
                h.update_digest(&log.tip().0);
                h.update_u64(log.len());
            }
            Payload::BlockRequest { tip, from_height } => {
                h.update_u64(5);
                h.update_digest(&tip.0);
                h.update_u64(*from_height);
            }
            Payload::BlockResponse { tip, from_height, count } => {
                h.update_u64(6);
                h.update_digest(&tip.0);
                h.update_u64(*from_height);
                h.update_u64(*count);
            }
            Payload::Certificate { instance, log, signers, agg } => {
                h.update_u64(7);
                h.update_u64(instance.0);
                h.update_digest(&log.tip().0);
                h.update_u64(log.len());
                for word in signers.words() {
                    h.update_u64(*word);
                }
                h.update_digest(agg.as_digest());
            }
        }
        h.finalize()
    }

    /// The equivocation key: two distinct payloads with the same key from
    /// one sender are equivocation evidence.
    ///
    /// Returns `None` for payload kinds where equivocation is not tracked.
    pub fn equivocation_key(&self) -> Option<(u8, u64)> {
        match self {
            Payload::Log { instance, .. } => Some((0, instance.0)),
            Payload::Proposal { view, .. } => Some((1, view.number())),
            Payload::Vote { instance, .. } => Some((2, instance.0)),
            Payload::Recovery { from_view, .. } => Some((3, from_view.number())),
            Payload::FinalityVote { epoch, .. } => Some((4, *epoch)),
            // Certificates carry LOG attestations, so the per-sender
            // gossip cap for LOG messages (at most two distinct per
            // instance) applies to them as well — an honest aggregator
            // emits at most one certificate per vote group, and no
            // instance can honestly carry more than two quorate groups.
            Payload::Certificate { instance, .. } => Some((5, instance.0)),
            // Fetch traffic is request/response, not a protocol claim:
            // re-requesting or re-serving a range is never equivocation.
            Payload::BlockRequest { .. } | Payload::BlockResponse { .. } => None,
        }
    }
}

/// A payload signed by its sender.
///
/// The payload digest is computed exactly once, at construction
/// ([`SignedMessage::sign`] or [`SignedMessage::from_parts`]); the
/// derived signing target (`binding`) and dedup `id` are memoized in the
/// struct, so verification is a single keyed hash and deduplication a
/// plain field read — no per-receive re-hashing of the payload.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SignedMessage {
    sender: ValidatorId,
    payload: Payload,
    signature: Signature,
    /// Memoized signing target `H("msg-bind" ‖ sender ‖ payload digest)`.
    binding: Digest,
    id: Digest,
}

impl SignedMessage {
    /// Signs `payload` as `sender`.
    ///
    /// ```
    /// use tobsvd_crypto::Keypair;
    /// use tobsvd_types::{BlockStore, InstanceId, Log, Payload, SignedMessage, ValidatorId};
    ///
    /// let store = BlockStore::new();
    /// let sender = ValidatorId::new(0);
    /// let kp = Keypair::from_seed(sender.key_seed());
    /// let msg = SignedMessage::sign(
    ///     &kp,
    ///     sender,
    ///     Payload::Log { instance: InstanceId(0), log: Log::genesis(&store) },
    /// );
    /// assert!(msg.verify(&kp.public()));
    /// ```
    pub fn sign(keypair: &Keypair, sender: ValidatorId, payload: Payload) -> Self {
        let (binding, id) = Self::envelope_digests(sender, &payload);
        let signature = keypair.sign(binding.as_bytes());
        SignedMessage { sender, payload, signature, binding, id }
    }

    /// Reassembles a message from wire parts without verification.
    pub fn from_parts(sender: ValidatorId, payload: Payload, signature: Signature) -> Self {
        let (binding, id) = Self::envelope_digests(sender, &payload);
        SignedMessage { sender, payload, signature, binding, id }
    }

    /// Both envelope digests from a single payload digest: the signing
    /// target (`binding`) and the dedup `id` differ only in domain tag.
    fn envelope_digests(sender: ValidatorId, payload: &Payload) -> (Digest, Digest) {
        let payload_digest = payload.signing_digest();
        let mut h = Hasher::new("tobsvd/msg-bind");
        h.update_u64(u64::from(sender.raw()));
        h.update_digest(&payload_digest);
        let binding = h.finalize();
        let mut h = Hasher::new("tobsvd/msg-id");
        h.update_u64(u64::from(sender.raw()));
        h.update_digest(&payload_digest);
        (binding, h.finalize())
    }

    /// The signing target a message from `sender` carrying `payload`
    /// would bind — without building the envelope. Certificate
    /// verification uses this to reconstruct each attested vote's
    /// binding as the per-signer message of the aggregate.
    pub fn binding_for(sender: ValidatorId, payload: &Payload) -> Digest {
        Self::envelope_digests(sender, payload).0
    }

    /// Verifies the signature against the sender's public key, using the
    /// binding digest memoized at construction.
    pub fn verify(&self, public: &PublicKey) -> bool {
        public.verify(self.binding.as_bytes(), &self.signature)
    }

    /// The claimed sender.
    pub fn sender(&self) -> ValidatorId {
        self.sender
    }

    /// The payload.
    pub fn payload(&self) -> &Payload {
        &self.payload
    }

    /// The signature.
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// A unique id for deduplication (hash of sender + payload).
    pub fn id(&self) -> Digest {
        self.id
    }
}

impl fmt::Display for SignedMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.payload {
            Payload::Log { instance, log } => {
                write!(f, "⟨LOG,{log}⟩ from {} in {instance}", self.sender)
            }
            Payload::Proposal { view, log, .. } => {
                write!(f, "⟨PROPOSAL,{log}⟩ from {} for {view}", self.sender)
            }
            Payload::Vote { instance, log } => {
                write!(f, "⟨VOTE,{log}⟩ from {} in {instance}", self.sender)
            }
            Payload::Recovery { from_view, log } => {
                write!(f, "⟨RECOVERY,{log}⟩ from {} since {from_view}", self.sender)
            }
            Payload::FinalityVote { epoch, log } => {
                write!(f, "⟨FINALIZE,{log}⟩ from {} for epoch {epoch}", self.sender)
            }
            Payload::Certificate { instance, log, signers, .. } => {
                write!(f, "⟨QC,{log}×{}⟩ from {} in {instance}", signers.len(), self.sender)
            }
            Payload::BlockRequest { tip, from_height } => {
                write!(f, "⟨FETCH,{tip}≥{from_height}⟩ from {}", self.sender)
            }
            Payload::BlockResponse { tip, from_height, count } => {
                write!(f, "⟨BLOCKS,{tip}≥{from_height}×{count}⟩ from {}", self.sender)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::BlockStore;

    fn log_payload(store: &BlockStore, instance: u64) -> Payload {
        Payload::Log { instance: InstanceId(instance), log: Log::genesis(store) }
    }

    /// The definition `iter` and `within` must agree with: walk every
    /// bit position and test it.
    fn members_bit_by_bit(set: &SignerSet) -> Vec<ValidatorId> {
        (0..SignerSet::CAPACITY as u32)
            .map(ValidatorId::new)
            .filter(|v| set.contains(*v))
            .collect()
    }

    #[test]
    fn signer_iteration_is_ascending_and_matches_the_bitwise_definition() {
        // Deterministic xorshift words: sparse, dense, empty and full sets.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut sets = vec![SignerSet::empty(), SignerSet::from_words([u64::MAX; SignerSet::WORDS])];
        for round in 0..200 {
            let mut words = [0u64; SignerSet::WORDS];
            for w in &mut words {
                *w = match round % 4 {
                    0 => next(),
                    1 => next() & next() & next(),
                    2 => next() | next(),
                    _ => u64::from(next() % 3 == 0) << (next() % 64),
                };
            }
            sets.push(SignerSet::from_words(words));
        }
        for set in &sets {
            let got: Vec<ValidatorId> = set.iter().collect();
            assert_eq!(got, members_bit_by_bit(set));
            assert!(got.windows(2).all(|w| w[0] < w[1]), "ascending");
            assert_eq!(got.len(), set.len());
        }
    }

    #[test]
    fn within_masks_exactly_at_the_committee_size() {
        for n in [0usize, 63, 64, 65, 511, 512] {
            // Everyone below n is within; adding validator n is not.
            let mut set = SignerSet::empty();
            for i in 0..n {
                assert!(set.insert(ValidatorId::new(i as u32)));
            }
            assert!(set.within(n), "full committee of {n}");
            assert!(SignerSet::empty().within(n));
            if n > 0 {
                assert!(!set.within(n - 1), "validator {} is outside {}", n - 1, n - 1);
            }
            if set.insert(ValidatorId::new(n as u32)) {
                assert!(!set.within(n), "validator {n} is outside a committee of {n}");
            }
        }
        assert!(SignerSet::from_words([u64::MAX; SignerSet::WORDS]).within(usize::MAX));
    }

    #[test]
    fn sign_and_verify() {
        let store = BlockStore::new();
        let sender = ValidatorId::new(2);
        let kp = Keypair::from_seed(sender.key_seed());
        let msg = SignedMessage::sign(&kp, sender, log_payload(&store, 1));
        assert!(msg.verify(&kp.public()));
        let other = Keypair::from_seed(ValidatorId::new(3).key_seed());
        assert!(!msg.verify(&other.public()));
    }

    #[test]
    fn message_id_distinguishes_senders_and_payloads() {
        let store = BlockStore::new();
        let kp0 = Keypair::from_seed(ValidatorId::new(0).key_seed());
        let kp1 = Keypair::from_seed(ValidatorId::new(1).key_seed());
        let m0 = SignedMessage::sign(&kp0, ValidatorId::new(0), log_payload(&store, 1));
        let m1 = SignedMessage::sign(&kp1, ValidatorId::new(1), log_payload(&store, 1));
        let m2 = SignedMessage::sign(&kp0, ValidatorId::new(0), log_payload(&store, 2));
        assert_ne!(m0.id(), m1.id());
        assert_ne!(m0.id(), m2.id());
    }

    #[test]
    fn equivocation_keys() {
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let p1 = Payload::Log { instance: InstanceId(4), log: g };
        let p2 = Payload::Vote { instance: InstanceId(4), log: g };
        assert_ne!(p1.equivocation_key(), p2.equivocation_key());
        let p3 = Payload::Log { instance: InstanceId(5), log: g };
        assert_ne!(p1.equivocation_key(), p3.equivocation_key());
        let p4 = Payload::Log {
            instance: InstanceId(4),
            log: g.extend_empty(&store, ValidatorId::new(0), View::new(1)),
        };
        // Same key, different payload => equivocation evidence.
        assert_eq!(p1.equivocation_key(), p4.equivocation_key());
        assert_ne!(p1, p4);
    }

    #[test]
    fn tampered_sender_fails_verification() {
        let store = BlockStore::new();
        let kp = Keypair::from_seed(ValidatorId::new(0).key_seed());
        let m = SignedMessage::sign(&kp, ValidatorId::new(0), log_payload(&store, 1));
        let forged = SignedMessage::from_parts(ValidatorId::new(1), *m.payload(), *m.signature());
        assert!(!forged.verify(&kp.public()));
    }
}
