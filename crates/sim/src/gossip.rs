//! Gossip bookkeeping shared by honest nodes.
//!
//! §3.3 of the paper: "At any time, honest validators forward any message
//! received. Up to two different LOG messages per sender are forwarded
//! upon reception" — the second copy spreads equivocation evidence; a
//! third or later distinct message from the same sender is neither
//! accepted nor forwarded.
//!
//! [`GossipState`] answers, for each delivered message, whether the
//! protocol should process it (`fresh`) and whether the node should
//! re-broadcast it (`forward`). Deduplication is by message id, so the
//! same signed message arriving over multiple forwarding paths is handled
//! once.
//!
//! # Layout: id sets bucketed by view
//!
//! Both id sets here ([`GossipState`]'s seen set and [`VerifiedSet`])
//! only ever grow, and a message id is a uniformly random 32-byte key.
//! One flat ordered set therefore gets deeper and colder with every
//! view that passes, while the traffic that probes it belongs almost
//! entirely to the two or three newest views. The sets are instead
//! indexed by [`tobsvd_types::Payload::view_number`] — one small
//! `BTreeSet` per view — and the distinct-payload counters are keyed
//! view-major, so steady-state lookups touch only the newest,
//! cache-resident buckets whatever the horizon. An id determines its
//! payload and hence its bucket, so this is a pure re-indexing: every
//! answer is the one a single flat set would give. Nothing is pruned
//! here; dropping finished views is a `split_off` on the bucket maps.

use std::collections::{BTreeMap, BTreeSet};

use tobsvd_crypto::{Digest, KeyCache, PublicKey};
use tobsvd_types::{SignedMessage, ValidatorId};

use crate::node::Context;

/// A grow-only set of message ids, bucketed by the view of the message
/// an id names.
///
/// Ids filed without a view — fetch-plane payloads, and the raw ids a
/// state-corruption experiment forces in — live in one extra bucket
/// that every lookup also consults (it is empty in a fault-free
/// protocol run), which keeps membership exactly that of a flat set.
#[derive(Debug, Default)]
struct ViewIds {
    by_view: BTreeMap<u64, BTreeSet<Digest>>,
    unkeyed: BTreeSet<Digest>,
    len: usize,
}

impl ViewIds {
    /// Membership of the id of a message belonging to `view`.
    fn contains_at(&self, view: Option<u64>, id: &Digest) -> bool {
        view.and_then(|v| self.by_view.get(&v)).is_some_and(|bucket| bucket.contains(id))
            || self.unkeyed.contains(id)
    }

    /// Membership of a bare id, view unknown: probes every bucket,
    /// newest first. Audit and diagnostics only.
    fn contains(&self, id: &Digest) -> bool {
        self.unkeyed.contains(id) || self.by_view.values().rev().any(|bucket| bucket.contains(id))
    }

    /// Inserts the id of a message belonging to `view`; `false` when
    /// it was already a member.
    fn insert(&mut self, view: Option<u64>, id: Digest) -> bool {
        let fresh = match view {
            Some(v) => !self.unkeyed.contains(&id) && self.by_view.entry(v).or_default().insert(id),
            None => self.unkeyed.insert(id),
        };
        self.len += usize::from(fresh);
        fresh
    }

    /// Keeps only the ids `keep` holds for; returns how many went.
    fn retain<F: FnMut(&Digest) -> bool>(&mut self, mut keep: F) -> usize {
        let before = self.len;
        self.unkeyed.retain(|id| keep(id));
        for bucket in self.by_view.values_mut() {
            bucket.retain(|id| keep(id));
        }
        self.len = self.unkeyed.len() + self.by_view.values().map(BTreeSet::len).sum::<usize>();
        before - self.len
    }
}

/// Outcome of receiving a message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reception {
    /// First sighting of this exact message — process it.
    pub fresh: bool,
    /// The message should be re-broadcast (first or second distinct
    /// payload from this sender for this equivocation key).
    pub forward: bool,
}

/// Per-node gossip state.
#[derive(Debug, Default)]
pub struct GossipState {
    seen: ViewIds,
    /// Count of distinct payloads seen per (sender, equivocation key),
    /// keyed view-major `(view, sender, kind)` so live entries sit
    /// together at the top of the map.
    distinct: BTreeMap<(u64, ValidatorId, u8), u8>,
}

impl GossipState {
    /// Creates empty gossip state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a received message and returns how to treat it.
    ///
    /// ```
    /// use tobsvd_crypto::Keypair;
    /// use tobsvd_sim::gossip::GossipState;
    /// use tobsvd_types::{BlockStore, InstanceId, Log, Payload, SignedMessage, ValidatorId};
    ///
    /// let store = BlockStore::new();
    /// let v = ValidatorId::new(0);
    /// let kp = Keypair::from_seed(v.key_seed());
    /// let msg = SignedMessage::sign(&kp, v,
    ///     Payload::Log { instance: InstanceId(0), log: Log::genesis(&store) });
    ///
    /// let mut gossip = GossipState::new();
    /// let first = gossip.on_receive(&msg);
    /// assert!(first.fresh && first.forward);
    /// let dup = gossip.on_receive(&msg);
    /// assert!(!dup.fresh && !dup.forward);
    /// ```
    pub fn on_receive(&mut self, msg: &SignedMessage) -> Reception {
        let key = msg.payload().equivocation_key();
        if !self.seen.insert(key.map(|(_, view)| view), msg.id()) {
            return Reception { fresh: false, forward: false };
        }
        let Some((kind, view)) = key else {
            return Reception { fresh: true, forward: true };
        };
        let count = self.distinct.entry((view, msg.sender(), kind)).or_insert(0);
        if *count >= 2 {
            // Third or later distinct message from this sender for this
            // key: neither accepted nor forwarded.
            return Reception { fresh: false, forward: false };
        }
        *count += 1;
        Reception { fresh: true, forward: true }
    }

    /// Number of distinct messages seen (diagnostics).
    pub fn seen_count(&self) -> usize {
        self.seen.len
    }

    /// Whether `id` has been sighted here (the superset side of the
    /// stabilization audit's `verified ⊆ seen` containment check).
    pub fn has_seen(&self, id: &Digest) -> bool {
        self.seen.contains(id)
    }
}

/// The dedup-before-verify gate shared by every honest receive path
/// (`tobsvd-core`'s validator, the GA harness nodes).
///
/// Ids bind `(sender, payload)` and enter the set only after a
/// successful signature verification, so a forged frame can never
/// poison it — a repeat sighting of a member id is a copy of a message
/// already proven authentic, and every downstream action depends only
/// on `(sender, payload)`, so handling the copy is indistinguishable
/// from re-delivering the original, whatever signature bytes the copy
/// carries. Duplicate copies therefore skip crypto entirely; fresh ids
/// (and all forgeries) verify against the process-wide [`KeyCache`].
///
/// Callers decide per message whether a verified id is *retained*
/// (`retain = false` for payload kinds an adversary can mint without
/// bound, e.g. the fetch subprotocol — those pay their own cached-key
/// verification every time, and the set grows in lockstep with
/// [`GossipState`]'s seen set).
#[derive(Debug, Default)]
pub struct VerifiedSet {
    ids: ViewIds,
    /// Per-node `seed → PublicKey` table (bounded by the number of
    /// distinct senders, i.e. n): warm verifications stay lock-free
    /// instead of taking the process-global [`KeyCache`] read lock on
    /// every fresh id — that lock is hit once per sender per node.
    keys: BTreeMap<u64, PublicKey>,
    verifies: u64,
    skips: u64,
}

impl VerifiedSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Admits or rejects a delivered message: `true` means "authentic —
    /// process it" (either a fresh id that verified, or a copy of an
    /// already-verified id), `false` means the signature check failed.
    /// Counts every decision into the per-node totals and the context's
    /// [`crate::CryptoOps`].
    pub fn admit(&mut self, msg: &SignedMessage, retain: bool, ctx: &mut Context) -> bool {
        let view = msg.payload().view_number();
        if self.ids.contains_at(view, &msg.id()) {
            self.skips += 1;
            ctx.note_sig_verify_skip();
            return true;
        }
        self.verifies += 1;
        ctx.note_sig_verify();
        let seed = msg.sender().key_seed();
        let key = match self.keys.get(&seed) {
            Some(k) => *k,
            None => {
                let k = KeyCache::public(seed);
                self.keys.insert(seed, k);
                k
            }
        };
        if !msg.verify(&key) {
            return false;
        }
        if retain {
            self.ids.insert(view, msg.id());
        }
        true
    }

    /// Whether `id` has passed verification here.
    pub fn contains(&self, id: &Digest) -> bool {
        self.ids.contains(id)
    }

    /// Signature verifications performed.
    pub fn verifies(&self) -> u64 {
        self.verifies
    }

    /// Verifications skipped (duplicate sightings of verified ids).
    pub fn skips(&self) -> u64 {
        self.skips
    }

    /// Number of retained verified ids.
    pub fn len(&self) -> usize {
        self.ids.len
    }

    /// Whether no id has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.ids.len == 0
    }

    /// Fault injection: forces a raw id into the set *without*
    /// verification, breaking the `verified ⊆ seen` containment the
    /// honest admit path maintains. Exists only for the stabilization
    /// plane's state-corruption experiments.
    pub fn poison(&mut self, id: Digest) {
        // A raw id names no view; one that is already a member (in
        // whichever bucket) stays where it is.
        if !self.ids.contains(&id) {
            self.ids.insert(None, id);
        }
    }

    /// Quarantine pass: retains only ids for which `keep` holds and
    /// returns how many were evicted. The stabilization audit calls
    /// this with "sighted by gossip" as the predicate, restoring the
    /// containment a [`VerifiedSet::poison`]-style corruption broke.
    pub fn quarantine<F: FnMut(&Digest) -> bool>(&mut self, keep: F) -> usize {
        self.ids.retain(keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tobsvd_crypto::Keypair;
    use tobsvd_types::{BlockStore, InstanceId, Log, Payload, View};

    fn msg(_store: &BlockStore, sender: u32, instance: u64, log: Log) -> SignedMessage {
        let v = ValidatorId::new(sender);
        let kp = Keypair::from_seed(v.key_seed());
        SignedMessage::sign(&kp, v, Payload::Log { instance: InstanceId(instance), log })
    }

    #[test]
    fn first_two_distinct_accepted_third_dropped() {
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let l1 = g.extend_empty(&store, ValidatorId::new(9), View::new(1));
        let l2 = g.extend_empty(&store, ValidatorId::new(8), View::new(1));
        let mut gossip = GossipState::new();

        let r1 = gossip.on_receive(&msg(&store, 0, 5, g));
        let r2 = gossip.on_receive(&msg(&store, 0, 5, l1));
        let r3 = gossip.on_receive(&msg(&store, 0, 5, l2));
        assert_eq!(r1, Reception { fresh: true, forward: true });
        assert_eq!(r2, Reception { fresh: true, forward: true });
        assert_eq!(r3, Reception { fresh: false, forward: false });
    }

    #[test]
    fn instances_tracked_independently() {
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let l1 = g.extend_empty(&store, ValidatorId::new(9), View::new(1));
        let l2 = g.extend_empty(&store, ValidatorId::new(8), View::new(1));
        let mut gossip = GossipState::new();
        // Two distinct in instance 1 exhausts instance 1 only.
        assert!(gossip.on_receive(&msg(&store, 0, 1, l1)).fresh);
        assert!(gossip.on_receive(&msg(&store, 0, 1, l2)).fresh);
        assert!(!gossip.on_receive(&msg(&store, 0, 1, g)).fresh);
        // Instance 2 unaffected.
        assert!(gossip.on_receive(&msg(&store, 0, 2, g)).fresh);
    }

    #[test]
    fn senders_tracked_independently() {
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let l1 = g.extend_empty(&store, ValidatorId::new(9), View::new(1));
        let l2 = g.extend_empty(&store, ValidatorId::new(8), View::new(1));
        let mut gossip = GossipState::new();
        assert!(gossip.on_receive(&msg(&store, 0, 1, l1)).fresh);
        assert!(gossip.on_receive(&msg(&store, 0, 1, l2)).fresh);
        assert!(gossip.on_receive(&msg(&store, 1, 1, l1)).fresh);
    }

    #[test]
    fn verified_set_admits_skips_and_rejects() {
        let store = BlockStore::new();
        let mut ctx = Context::new(
            tobsvd_types::Time::ZERO,
            ValidatorId::new(0),
            tobsvd_types::Delta::default(),
            store.clone(),
            crate::Mempool::new(),
        );
        let genuine = msg(&store, 1, 0, Log::genesis(&store));
        let forged = SignedMessage::from_parts(
            genuine.sender(),
            *genuine.payload(),
            Keypair::from_seed(999).sign(b"forged"),
        );
        let mut set = VerifiedSet::new();
        // Forged-first: rejected, set not seeded.
        assert!(!set.admit(&forged, true, &mut ctx));
        assert!(set.is_empty());
        // Genuine: verified and retained; the earlier forgery cannot
        // shadow it.
        assert!(set.admit(&genuine, true, &mut ctx));
        assert_eq!(set.len(), 1);
        // Any later copy of the id — even the forged one — skips.
        assert!(set.admit(&forged, true, &mut ctx));
        assert_eq!((set.verifies(), set.skips()), (2, 1));
        assert_eq!(ctx.crypto_ops.sig_verifies, 2);
        assert_eq!(ctx.crypto_ops.sig_verify_skips, 1);
        // retain = false: verified but never remembered.
        let other = msg(&store, 2, 0, Log::genesis(&store));
        assert!(set.admit(&other, false, &mut ctx));
        assert!(!set.contains(&other.id()));
        assert!(set.admit(&other, false, &mut ctx));
        assert_eq!(set.verifies(), 4, "non-retained ids re-verify every time");
    }

    #[test]
    fn duplicate_exact_message_ignored() {
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let m = msg(&store, 0, 1, g);
        let mut gossip = GossipState::new();
        assert!(gossip.on_receive(&m).fresh);
        assert!(!gossip.on_receive(&m).fresh);
        assert_eq!(gossip.seen_count(), 1);
    }
}
