//! Gossip bookkeeping shared by honest nodes: the dedup / authenticity
//! gate every receive path goes through.
//!
//! §3.3 of the paper: "At any time, honest validators forward any message
//! received. Up to two different LOG messages per sender are forwarded
//! upon reception" — the second copy spreads equivocation evidence; a
//! third or later distinct message from the same sender is neither
//! accepted nor forwarded.
//!
//! [`GossipState`] answers, with one probe per delivered message, whether
//! it is authentic, whether the protocol should process it (`fresh`) and
//! whether the node should re-broadcast it (`forward`). Dedup is by
//! message id: a message arriving over many paths is verified once.
//!
//! The gate takes the delivered handle ([`Delivered`]) and verifies a
//! first sighting through it. The simulator hands one handle to every
//! recipient of a broadcast, and the handle records a successful check
//! under the key it was made with, so after the first recipient each
//! gate's check is one key compare. Each gate still counts its first
//! sighting as one [`crate::CryptoOps::sig_verifies`], whichever answered
//! it, so the counters are per validator and seed-exact. A forged handle
//! records nothing and is checked at every recipient; a copy of the
//! message in a new handle (the TCP node's decoded frames, a wrapper
//! that receives by reference) starts with no verdict.
//!
//! # Layout: sender-indexed slot tables with an ordered overflow
//!
//! The paper's rule is the index: per `(view, kind, sender)` — the
//! [`tobsvd_types::Payload::equivocation_key`] plus the sender — at most
//! two ids matter, so a view's state is a table addressed by that
//! triple, not an ordered set of random 32-byte hashes.
//!
//! * **Slot tables.** The first id a sender files under a key sits in
//!   its view's table at `[kind][sender]`; a duplicate of it — almost
//!   all traffic — costs one array index and one 32-byte compare. Only
//!   the four views of the live range have tables, in a ring
//!   `live[view % 4]`.
//! * **Overflow.** One ordered set of `(key, id)` holds the rest: later
//!   distinct ids of a key, and ids of views without a table (views
//!   filed before they became live, `RECOVERY` start views and finality
//!   epochs out of the range) until the range passes them — one ordered
//!   descent each. In a view with a table a key has overflow entries
//!   only if its slot is occupied, so an empty slot means "nothing
//!   filed" without a descent. A fault-free run leaves it empty.
//!
//! # Committee gate
//!
//! The gate knows the committee, `0..n` ([`GossipState::for_committee`]).
//! Stand-in keys derive from public seeds, so anyone can sign as an id at
//! or beyond n: `admit` and `admit_live` drop a first sighting from one
//! after the slot probe and before the range gate and the signature
//! check, like a forgery — not verified, filed or forwarded, its window
//! not absorbed. So every slot and cached key is a member's, and nothing
//! behind the gate keeps a case for a sender beyond [`SignerSet::CAPACITY`].
//!
//! # Live range
//!
//! The ring holds the four views of [`View::live_range`] at the view of
//! the last [`GossipState::set_live`] (the validator's Propose step, the
//! same step and range at which its per-view window retires), and a
//! slot vector grows only when a *verified* id is filed into it: no
//! message can buy an O(n) allocation. Moving the range frees each table
//! that left it, with its overflow entries, and every overflow entry of
//! a view behind the range; a view that enters has its overflow entries
//! take their slots. A view that left the range is forgotten: a later
//! copy of one of its ids is a first sighting again. So what is retained
//! is one slot per sender and kind for four views, plus the overflow of
//! views at or ahead of the range.
//!
//! [`GossipState::admit_live`], the validator's gate, drops a first
//! sighting of a `LOG`, certificate or proposal that no live instance
//! takes at the context's clock, and of any `VOTE` or finality vote,
//! which no instance takes at all
//! ([`tobsvd_types::Payload::is_live_at`]) after the slot probe and
//! before any crypto: it is neither verified, filed nor forwarded, and
//! counts as [`crate::CryptoOps::dropped_out_of_range`]. The validator
//! would drop it unprocessed anyway, so the gate changes no honest
//! output, and with it a message for a forgotten view costs no
//! verification.
//!
//! Ids bind `(sender, payload)` and are filed only after their signature
//! verified, so a forged frame can never occupy a slot, and "verified"
//! and "seen" are one membership that one probe serves — except for a
//! fault-injected raw id ([`GossipState::poison`]), which passes for
//! verified unsighted and waits in `raw` (empty in an uncorrupted node)
//! until a delivery files it or the audit evicts it.

use std::collections::BTreeSet;

use tobsvd_crypto::{Digest, KeyCache, PublicKey};
use tobsvd_types::{Delivered, SignedMessage, SignerSet, ValidatorId, View};

use crate::node::Context;

/// Equivocation kinds 0–5 of [`tobsvd_types::Payload::equivocation_key`].
const KINDS: usize = 6;
/// Width of the live range ([`View::live_range`]).
const LIVE_VIEWS: u64 = View::LIVE_VIEWS;
/// `(view number, kind, sender)`: what an id is filed under.
type Key = (u64, u8, u32);
/// One view's first ids: `[kind][sender]`.
type Table = [Vec<Option<Digest>>; KINDS];

/// Outcome of receiving a message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reception {
    /// First sighting of this exact message — process it.
    pub fresh: bool,
    /// The message should be re-broadcast (first or second distinct
    /// payload from this sender for this equivocation key).
    pub forward: bool,
}

const ACCEPTED: Reception = Reception { fresh: true, forward: true };
/// A copy of a filed id, or a third distinct payload under one key.
const IGNORED: Reception = Reception { fresh: false, forward: false };
/// Fetch traffic: served every time, never relayed.
const POINT_TO_POINT: Reception = Reception { fresh: true, forward: false };

/// What [`GossipState::admit_live`] makes of a delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Authentic: a copy of a filed id, or a first sighting that verified.
    Admitted(Reception),
    /// An outsider's first sighting, or a failed signature check.
    Forged,
    /// A first sighting no live instance takes at the context's clock:
    /// neither verified nor filed (module docs, "Live range").
    OutOfRange,
}

/// Per-node dedup-before-verify gate and gossip state (layout and the
/// filing rule: module docs). A repeat sighting of a filed id is a copy
/// of a message already proven authentic and is dropped whatever
/// signature bytes it carries, so duplicates skip crypto entirely; fresh
/// ids (and all forgeries) verify. Fetch payloads carry no equivocation
/// key and are never retained (an adversary can mint them without
/// bound): each pays its own verification.
#[derive(Debug)]
pub struct GossipState {
    /// Senders `0..committee` are admitted.
    committee: usize,
    live_from: u64,
    /// `live[view % LIVE_VIEWS][kind][sender]`: first id filed per key.
    live: [Table; LIVE_VIEWS as usize],
    overflow: BTreeSet<(Key, Digest)>,
    /// Fault-injected ids that pass for verified but were never sighted.
    raw: BTreeSet<Digest>,
    filed: usize,
    /// Public keys by sender index: warm verifications never take the
    /// process-global [`KeyCache`] lock.
    keys: Vec<Option<PublicKey>>,
}

impl Default for GossipState {
    fn default() -> Self {
        Self::new()
    }
}

impl GossipState {
    /// Creates empty gossip state for the widest committee, live in views `0..4`.
    pub fn new() -> Self {
        Self::for_committee(SignerSet::CAPACITY)
    }

    /// [`GossipState::new`] for a committee of `n` validators; allocates
    /// nothing. Panics if `n` exceeds [`SignerSet::CAPACITY`].
    pub fn for_committee(n: usize) -> Self {
        assert!(n <= SignerSet::CAPACITY, "a committee of {n} exceeds {}", SignerSet::CAPACITY);
        let (live, overflow, raw) = (Default::default(), BTreeSet::new(), BTreeSet::new());
        GossipState { committee: n, live_from: 0, live, overflow, raw, filed: 0, keys: Vec::new() }
    }

    fn key(msg: &SignedMessage) -> Option<Key> {
        msg.payload().equivocation_key().map(|(kind, view)| (view, kind, msg.sender().raw()))
    }

    /// The views of the ring when it starts at `from` (three at the top
    /// of the number space, where [`View::live_range`] saturates).
    fn ring(from: u64) -> impl Iterator<Item = u64> {
        (0..LIVE_VIEWS).filter_map(move |i| from.checked_add(i))
    }

    fn is_live(&self, view: u64) -> bool {
        view.checked_sub(self.live_from).is_some_and(|d| d < LIVE_VIEWS)
    }

    /// The slot vector `key` addresses, if its view is live.
    fn slots(&self, (view, kind, _): Key) -> Option<&Vec<Option<Digest>>> {
        if !self.is_live(view) {
            return None;
        }
        self.live.get((view % LIVE_VIEWS) as usize)?.get(usize::from(kind))
    }

    fn slots_mut(&mut self, (view, kind, _): Key) -> Option<&mut Vec<Option<Digest>>> {
        if !self.is_live(view) {
            return None;
        }
        self.live.get_mut((view % LIVE_VIEWS) as usize)?.get_mut(usize::from(kind))
    }

    fn is_filed(&self, key: Key, id: &Digest) -> bool {
        if let Some(slots) = self.slots(key) {
            match slots.get(key.2 as usize) {
                Some(Some(first)) if first == id => return true,
                Some(Some(_)) => {}
                _ => return false,
            }
        }
        self.overflow.contains(&(key, *id))
    }

    /// Stores `id` under `key`, in its slot when that is live and empty;
    /// returns whether the key already held two ids or more.
    fn place(&mut self, key: Key, id: Digest) -> bool {
        let slotted = match self.slots_mut(key) {
            Some(slots) => {
                let sender = key.2 as usize;
                if slots.len() <= sender {
                    slots.resize(sender + 1, None);
                }
                if let Some(slot @ None) = slots.get_mut(sender) {
                    *slot = Some(id);
                    return false;
                }
                true
            }
            None => false,
        };
        let spilled = self.overflow.range((key, Digest::ZERO)..).take_while(|(k, _)| *k == key);
        let capped = usize::from(slotted) + spilled.take(2).count() >= 2;
        self.overflow.insert((key, id));
        capped
    }

    /// Files a first-sighted id and applies the two-distinct cap.
    fn file(&mut self, key: Key, id: Digest) -> Reception {
        self.filed += 1;
        self.raw.remove(&id);
        if self.place(key, id) { IGNORED } else { ACCEPTED }
    }

    /// Removes and returns view `w`'s overflow entries.
    fn take_spilled(&mut self, w: u64) -> Vec<(Key, Digest)> {
        let spilled = self.overflow.range(((w, 0, 0), Digest::ZERO)..);
        let spilled: Vec<_> = spilled.take_while(|(k, _)| k.0 == w).copied().collect();
        for entry in &spilled {
            self.overflow.remove(entry);
        }
        spilled
    }

    /// Moves the live range to [`View::live_range`] of `view` (the
    /// validator's window): each table that left it is freed with its
    /// overflow entries, so are the overflow entries of every view
    /// behind it, and a view that enters has its overflow entries take
    /// their slots.
    pub fn set_live(&mut self, view: u64) {
        let (old, new) = (self.live_from, View::new(view).live_range().start().number());
        let outside = |from: u64| move |w: &u64| w.checked_sub(from).map_or(true, |d| d >= LIVE_VIEWS);
        for w in Self::ring(old).filter(outside(new)) {
            if let Some(table) = self.live.get_mut((w % LIVE_VIEWS) as usize) {
                *table = Table::default();
            }
            self.take_spilled(w);
        }
        self.overflow = self.overflow.split_off(&((new, 0, 0), Digest::ZERO));
        self.live_from = new;
        for w in Self::ring(new).filter(outside(old)) {
            for (key, id) in self.take_spilled(w) {
                self.place(key, id);
            }
        }
    }

    /// A first sighting: verified through its handle unless
    /// fault-injected, then filed. It counts as one verification here
    /// whether the handle's recorded verdict or the signature check
    /// answers it.
    fn first_sighting(
        &mut self,
        msg: &Delivered,
        key: Option<Key>,
        ctx: &mut Context,
    ) -> Option<Reception> {
        let id = msg.id();
        if self.raw.contains(&id) {
            ctx.crypto_ops.sig_verify_skips += 1;
        } else {
            ctx.crypto_ops.sig_verifies += 1;
            if !msg.verify(&self.public_key(msg.sender())) {
                return None;
            }
        }
        Some(match key {
            Some(key) => self.file(key, id),
            None => POINT_TO_POINT,
        })
    }

    /// The one probe per delivery. `None`: an outsider's first sighting,
    /// or a failed signature check. Otherwise: a copy of a filed id skips
    /// verification and is ignored; a first sighting is verified, filed,
    /// and accepted unless it is the sender's third distinct payload for
    /// its key. Every decision counts into the context's
    /// [`crate::CryptoOps`], and only there. Every view is admitted: this
    /// is the gate of a node with no live range.
    pub fn admit(&mut self, msg: &Delivered, ctx: &mut Context) -> Option<Reception> {
        let key = Self::key(msg);
        if key.is_some_and(|key| self.is_filed(key, &msg.id())) {
            ctx.crypto_ops.sig_verify_skips += 1;
            return Some(IGNORED);
        }
        if msg.sender().index() >= self.committee {
            return None;
        }
        self.first_sighting(msg, key, ctx)
    }

    /// [`GossipState::admit`] behind the range gate (module docs, "Live
    /// range"): a first sighting the current view at the context's clock
    /// does not take is dropped between the committee gate and the
    /// signature check. A copy of a filed id pays the probe only.
    pub fn admit_live(&mut self, msg: &Delivered, ctx: &mut Context) -> Admission {
        let key = Self::key(msg);
        if key.is_some_and(|key| self.is_filed(key, &msg.id())) {
            ctx.crypto_ops.sig_verify_skips += 1;
            return Admission::Admitted(IGNORED);
        }
        if msg.sender().index() >= self.committee {
            return Admission::Forged;
        }
        if !msg.payload().is_live_at(View::of_time(ctx.time, ctx.delta)) {
            ctx.crypto_ops.dropped_out_of_range += 1;
            return Admission::OutOfRange;
        }
        match self.first_sighting(msg, key, ctx) {
            Some(reception) => Admission::Admitted(reception),
            None => Admission::Forged,
        }
    }

    /// [`GossipState::admit`] for a caller that vouches for the message
    /// itself: dedup, the committee gate and the two-distinct cap.
    pub fn on_receive(&mut self, msg: &SignedMessage) -> Reception {
        match Self::key(msg) {
            Some(key) if self.is_filed(key, &msg.id()) => IGNORED,
            _ if msg.sender().index() >= self.committee => IGNORED,
            Some(key) => self.file(key, msg.id()),
            None => POINT_TO_POINT,
        }
    }

    fn public_key(&mut self, sender: ValidatorId) -> PublicKey {
        let i = sender.index();
        if self.keys.len() <= i {
            self.keys.resize(i + 1, None);
        }
        let key = || KeyCache::public(sender.key_seed());
        self.keys.get_mut(i).map_or_else(key, |slot| *slot.get_or_insert_with(key))
    }

    /// Whether `msg`'s id passes for verified here: filed, or
    /// fault-injected. Slot-addressed, O(1) for live traffic.
    pub fn is_verified(&self, msg: &SignedMessage) -> bool {
        Self::key(msg).is_some_and(|key| self.is_filed(key, &msg.id()))
            || self.raw.contains(&msg.id())
    }

    /// Whether a bare id is filed — a scan of every entry: fault
    /// injection and diagnostics only; receive paths use [`Self::is_verified`].
    pub fn has_seen(&self, id: &Digest) -> bool {
        let mut slots = self.live.iter().flatten().flatten();
        slots.any(|slot| slot.as_ref() == Some(id)) || self.overflow.iter().any(|(_, i)| i == id)
    }

    /// Number of first sightings filed, a forgotten id filed again
    /// counting again (diagnostics).
    pub fn seen_count(&self) -> usize {
        self.filed
    }

    /// [`Self::seen_count`] plus the fault-injected ids that pass for
    /// verified.
    pub fn verified_count(&self) -> usize {
        self.filed + self.raw.len()
    }

    /// Fault injection (state-corruption experiments): makes a raw id
    /// pass for verified *without* a sighting; a filed id is left alone.
    pub fn poison(&mut self, id: Digest) {
        if !self.has_seen(&id) {
            self.raw.insert(id);
        }
    }

    /// The stabilization audit's quarantine: evicts every id that passes
    /// for verified unsighted; returns how many. O(1) when there are none.
    pub fn quarantine(&mut self) -> usize {
        std::mem::take(&mut self.raw).len()
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

    fn ctx(store: &BlockStore) -> Context {
        Context::new(
            tobsvd_types::Time::ZERO,
            ValidatorId::new(0),
            tobsvd_types::Delta::default(),
            store.clone(),
            crate::Mempool::new(),
        )
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
    fn admit_verifies_once_skips_copies_and_rejects_forgeries() {
        let store = BlockStore::new();
        let mut ctx = ctx(&store);
        let genuine = msg(&store, 1, 0, Log::genesis(&store));
        let forged = SignedMessage::from_parts(
            genuine.sender(),
            *genuine.payload(),
            Keypair::from_seed(999).sign(b"forged"),
        );
        let mut gossip = GossipState::new();
        // Forged-first: rejected, no slot taken.
        assert_eq!(gossip.admit(&forged.into(), &mut ctx), None);
        assert_eq!(gossip.verified_count(), 0);
        assert!(!gossip.is_verified(&genuine));
        // Genuine: verified and filed; the earlier forgery cannot
        // shadow it.
        assert_eq!(gossip.admit(&genuine.into(), &mut ctx), Some(ACCEPTED));
        assert_eq!((gossip.seen_count(), gossip.verified_count()), (1, 1));
        // Any later copy of the id — even the forged one — skips.
        assert_eq!(gossip.admit(&forged.into(), &mut ctx), Some(IGNORED));
        assert_eq!((ctx.crypto_ops.sig_verifies, ctx.crypto_ops.sig_verify_skips), (2, 1));
        // Fetch payloads: verified, served, never remembered.
        let kp = Keypair::from_seed(ValidatorId::new(2).key_seed());
        let fetch = Payload::BlockRequest { tip: store.genesis(), from_height: 1 };
        let fetch = SignedMessage::sign(&kp, ValidatorId::new(2), fetch);
        assert_eq!(gossip.admit(&fetch.into(), &mut ctx), Some(POINT_TO_POINT));
        assert_eq!(gossip.admit(&fetch.into(), &mut ctx), Some(POINT_TO_POINT));
        assert!(!gossip.is_verified(&fetch) && !gossip.has_seen(&fetch.id()));
        assert_eq!(ctx.crypto_ops.sig_verifies, 4, "non-retained ids re-verify every time");
    }

    /// One shared handle through several gates: the first check records
    /// the verdict in the handle, and each gate still counts its own
    /// verification and files the id. The verdict never vouches for
    /// another handle, forged bytes under the same id included.
    #[test]
    fn gates_sharing_a_handle_each_count_and_file_it() {
        let store = BlockStore::new();
        let genuine = Delivered::from(msg(&store, 1, 0, Log::genesis(&store)));
        let forged_sig = Keypair::from_seed(999).sign(b"forged");
        let forged = Delivered::from(SignedMessage::from_parts(genuine.sender(), *genuine.payload(), forged_sig));
        assert_eq!(forged.id(), genuine.id(), "same sender and payload, same id");
        let (mut a, mut b, mut c) = (GossipState::new(), GossipState::new(), GossipState::new());
        for gate in [&mut a, &mut b] {
            let mut cx = ctx(&store);
            assert_eq!(gate.admit(&genuine, &mut cx), Some(ACCEPTED));
            assert_eq!((cx.crypto_ops.sig_verifies, cx.crypto_ops.sig_verify_skips), (1, 0));
            assert!(gate.is_verified(&genuine) && gate.seen_count() == 1);
        }
        let mut cx = ctx(&store);
        assert_eq!(c.admit(&forged, &mut cx), None, "a gate that has not seen the id checks the forgery");
        assert_eq!((cx.crypto_ops.sig_verifies, c.seen_count()), (1, 0));
        // A filed id is a copy whatever bytes it carries: gates that took
        // the genuine handle skip the forged one, as they always have.
        for gate in [&mut a, &mut b] {
            let mut cx = ctx(&store);
            assert_eq!(gate.admit(&forged, &mut cx), Some(IGNORED));
            assert_eq!((cx.crypto_ops.sig_verifies, cx.crypto_ops.sig_verify_skips), (0, 1));
        }
        // A forged handle of an id neither has filed: each gate checks
        // it, and both reject it.
        let unseen = msg(&store, 2, 0, Log::genesis(&store));
        let unseen = Delivered::from(SignedMessage::from_parts(unseen.sender(), *unseen.payload(), forged_sig));
        for gate in [&mut a, &mut b] {
            let mut cx = ctx(&store);
            assert_eq!(gate.admit(&unseen, &mut cx), None);
            assert_eq!((cx.crypto_ops.sig_verifies, gate.seen_count()), (1, 1));
        }
    }

    #[test]
    fn the_committee_gate_admits_members_only() {
        let store = BlockStore::new();
        let (mut ctx, g) = (ctx(&store), Log::genesis(&store));
        let mut gossip = GossipState::for_committee(4);
        let (member, outsider) = (msg(&store, 3, 1, g), msg(&store, 4, 1, g));
        assert_eq!(gossip.admit_live(&outsider.into(), &mut ctx), Admission::Forged);
        assert_eq!(gossip.admit_live(&member.into(), &mut ctx), Admission::Admitted(ACCEPTED));
        // Fetch traffic passes the same gate.
        let kp = Keypair::from_seed(ValidatorId::new(4).key_seed());
        let fetch = Payload::BlockRequest { tip: store.genesis(), from_height: 1 };
        let fetch = SignedMessage::sign(&kp, ValidatorId::new(4), fetch);
        assert_eq!(gossip.admit_live(&fetch.into(), &mut ctx), Admission::Forged);
        assert_eq!((ctx.crypto_ops.sig_verifies, gossip.seen_count()), (1, 1));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn a_committee_the_bitmap_cannot_hold_is_refused() {
        GossipState::for_committee(SignerSet::CAPACITY + 1);
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

    #[test]
    fn far_future_views_buy_no_dense_table() {
        // One Byzantine sender signs 10 000 distinct far-future view
        // numbers. The range gate drops each before its signature check;
        // a node with no range files each genuine id in the ordered
        // overflow, at a constant cost per id, until the range passes it.
        let store = BlockStore::new();
        let (mut ctx, g) = (ctx(&store), Log::genesis(&store));
        let mut gossip = GossipState::new();
        gossip.set_live(7);
        let far: Vec<_> = (0..10_000u64).map(|k| msg(&store, 3, 1_000_000 + 977 * k, g)).collect();
        for m in &far {
            assert_eq!(gossip.admit_live(&(*m).into(), &mut ctx), Admission::OutOfRange);
        }
        let ops = ctx.crypto_ops;
        assert_eq!((ops.sig_verifies, ops.sig_verify_skips, ops.dropped_out_of_range), (0, 0, 10_000));
        assert_eq!((gossip.seen_count(), gossip.overflow.len()), (0, 0), "nothing filed");
        for m in &far {
            assert_eq!(gossip.admit(&(*m).into(), &mut ctx), Some(ACCEPTED));
        }
        let slots: usize = gossip.live.iter().flatten().map(Vec::capacity).sum();
        assert_eq!(slots, 0, "no dense table was allocated");
        assert_eq!((gossip.overflow.len(), gossip.seen_count()), (10_000, 10_000));
        assert!(std::mem::size_of::<(Key, Digest)>() <= 48, "bytes retained per filed id");
        // A sender outside the committee is rejected at admission, in a
        // live view too: not verified, not filed, no table allocated.
        let before = ctx.crypto_ops;
        let wide = msg(&store, SignerSet::CAPACITY as u32, 7, g);
        for _ in 0..2 {
            assert_eq!(gossip.admit(&wide.into(), &mut ctx), None);
            assert_eq!(gossip.admit_live(&wide.into(), &mut ctx), Admission::Forged);
            assert_eq!(gossip.on_receive(&wide), IGNORED);
        }
        assert_eq!(ctx.crypto_ops, before, "0 verifies, 0 skips, 0 drops");
        assert_eq!((gossip.seen_count(), gossip.overflow.len()), (10_000, 10_000), "nothing filed");
        assert_eq!(gossip.live.iter().flatten().map(Vec::capacity).sum::<usize>(), 0);
        assert_eq!(gossip.keys.len(), 4, "no key derived beyond sender 3");
        // Once the range has passed them, every one is forgotten.
        gossip.set_live(1_000_000 + 977 * 10_000);
        assert!(gossip.overflow.is_empty());
        assert!(!gossip.is_verified(&far[0]) && !gossip.has_seen(&wide.id()));
    }

    #[test]
    fn a_view_that_left_the_range_is_forgotten() {
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let l1 = g.extend_empty(&store, ValidatorId::new(9), View::new(1));
        let l2 = g.extend_empty(&store, ValidatorId::new(8), View::new(1));
        let (a, b, c) = (msg(&store, 2, 9, g), msg(&store, 2, 9, l1), msg(&store, 2, 9, l2));
        let mut gossip = GossipState::new();
        // Filed while view 9 is ahead of the range.
        assert_eq!(gossip.on_receive(&a), ACCEPTED);
        // View 9 becomes live: the id takes its slot, is still found and
        // still counts toward the two-distinct cap.
        gossip.set_live(9);
        assert_eq!(gossip.on_receive(&a), IGNORED);
        assert_eq!(gossip.on_receive(&b), ACCEPTED);
        assert_eq!(gossip.on_receive(&c), IGNORED);
        assert!(gossip.overflow.len() == 2 && gossip.has_seen(&c.id()), "b and c spill");
        // While view 9 stays in the range, nothing is forgotten.
        gossip.set_live(10);
        assert!([&a, &b, &c].iter().all(|m| gossip.is_verified(m)));
        // View 9 leaves the range: its table and its overflow entry go,
        // and coming back finds nothing.
        for view in [40, 10] {
            gossip.set_live(view);
            for m in [&a, &b, &c] {
                assert!(!gossip.is_verified(m) && !gossip.has_seen(&m.id()));
            }
        }
        assert!(gossip.overflow.is_empty());
        // A later copy is a first sighting again, and filed again.
        assert_eq!(gossip.on_receive(&c), ACCEPTED);
        assert_eq!(gossip.seen_count(), 4);
    }

    /// A long run — every sender files one id per kind in the live range,
    /// late copies arrive after their view left it, and spare ids land
    /// ahead of it and behind it — keeps at most [`LIVE_VIEWS`] tables
    /// and an overflow that the next range move empties.
    #[test]
    fn fault_free_views_leave_the_overflow_empty() {
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let mut gossip = GossipState::new();
        for view in 0..1_000u64 {
            gossip.set_live(view);
            assert!(gossip.overflow.is_empty(), "view {view}");
            for sender in 0..4 {
                assert_eq!(gossip.on_receive(&msg(&store, sender, view + 1, g)), ACCEPTED);
                if view >= 5 {
                    // A late first sighting: filed behind the range,
                    // forgotten at the next move.
                    assert_eq!(gossip.on_receive(&msg(&store, sender + 4, view - 4, g)), ACCEPTED);
                }
            }
            let tables = gossip.live.iter().filter(|t| t.iter().any(|s| !s.is_empty())).count();
            assert!(tables as u64 <= LIVE_VIEWS);
        }
        gossip.set_live(1_000);
        assert!(gossip.overflow.is_empty());
        assert_eq!(gossip.seen_count(), 4 * 1_000 + 4 * 995);
    }
}
