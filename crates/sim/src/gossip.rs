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
//! # Layout: sender-indexed slot tables with an ordered overflow
//!
//! The paper's rule is the index: per `(view, kind, sender)` — the
//! [`tobsvd_types::Payload::equivocation_key`] plus the sender — at most
//! two ids matter, so a view's state is a table addressed by that
//! triple, not an ordered set of random 32-byte hashes.
//!
//! * **Slot tables.** The first id a sender files under a key sits in
//!   its view's table at `[kind][sender]`; a duplicate of it — almost
//!   all traffic — costs one array index and one 32-byte compare. The
//!   four live views' tables sit in `live[view % 4]`; a view that left
//!   the live range keeps its table whole in `retired`, one ordered
//!   descent by view number away, and is addressed exactly like a live
//!   one.
//! * **Overflow.** One ordered set of `(key, id)` holds the rest: later
//!   distinct ids of a key, senders at or beyond [`SignerSet::CAPACITY`],
//!   and every view that never had a table (attacker-chosen numbers,
//!   `RECOVERY` start views, finality epochs, views filed before they
//!   became live) — one ordered descent each. In a view with a table a
//!   key has overflow entries only if its slot is occupied, so an empty
//!   slot means "nothing filed" without a descent. A fault-free run
//!   leaves it empty.
//! * **Live range.** Fresh tables are made only for the four views of
//!   [`View::live_range`] at the view of the last [`GossipState::set_live`],
//!   and a slot vector grows only when a *verified* id is filed into it:
//!   no message can buy an O(n) allocation. Moving the range moves each
//!   table that left it into `retired` whole, hands a retired table back
//!   to a view that re-enters, and lets overflow entries of a view that
//!   enters without one take their slots — a pure re-indexing, every
//!   answer is the one a flat id set gives. What is retained stays one
//!   slot or entry per filed id.
//!
//! Ids bind `(sender, payload)` and are filed only after their signature
//! verified, so a forged frame can never occupy a slot, and "verified"
//! and "seen" are one membership that one probe serves — except for a
//! fault-injected raw id ([`GossipState::poison`]), which passes for
//! verified unsighted and waits in `raw` (empty in an uncorrupted node)
//! until a delivery files it or the audit evicts it.

use std::collections::{BTreeMap, BTreeSet};

use tobsvd_crypto::{Digest, KeyCache, PublicKey};
use tobsvd_types::{SignedMessage, SignerSet, ValidatorId, View};

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

/// Per-node dedup-before-verify gate and gossip state (layout and the
/// filing rule: module docs). A repeat sighting of a filed id is a copy
/// of a message already proven authentic and is dropped whatever
/// signature bytes it carries, so duplicates skip crypto entirely; fresh
/// ids (and all forgeries) verify. Fetch payloads carry no equivocation
/// key and are never retained (an adversary can mint them without
/// bound): each pays its own verification.
#[derive(Debug, Default)]
pub struct GossipState {
    live_from: u64,
    /// `live[view % LIVE_VIEWS][kind][sender]`: first id filed per key.
    live: [Table; LIVE_VIEWS as usize],
    /// Tables of views that left the live range, by view number.
    retired: BTreeMap<u64, Table>,
    overflow: BTreeSet<(Key, Digest)>,
    /// Fault-injected ids that pass for verified but were never sighted.
    raw: BTreeSet<Digest>,
    filed: usize,
    /// Public keys by sender index: warm verifications never take the
    /// process-global [`KeyCache`] lock.
    keys: Vec<Option<PublicKey>>,
}

impl GossipState {
    /// Creates empty gossip state, live in views `0..4`.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(msg: &SignedMessage) -> Option<Key> {
        msg.payload().equivocation_key().map(|(kind, view)| (view, kind, msg.sender().raw()))
    }

    fn is_live(&self, view: u64) -> bool {
        view.wrapping_sub(self.live_from) < LIVE_VIEWS
    }

    /// The slot vector `key` addresses, if its view has a table (live or
    /// retired) and the key fits one.
    fn slots(&self, (view, kind, sender): Key) -> Option<&Vec<Option<Digest>>> {
        if sender as usize >= SignerSet::CAPACITY {
            return None;
        }
        let table = match self.is_live(view) {
            true => &self.live[(view % LIVE_VIEWS) as usize],
            false => self.retired.get(&view)?,
        };
        table.get(usize::from(kind))
    }

    fn slots_mut(&mut self, (view, kind, sender): Key) -> Option<&mut Vec<Option<Digest>>> {
        if sender as usize >= SignerSet::CAPACITY {
            return None;
        }
        let table = match self.is_live(view) {
            true => &mut self.live[(view % LIVE_VIEWS) as usize],
            false => self.retired.get_mut(&view)?,
        };
        table.get_mut(usize::from(kind))
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

    /// Stores `id` under `key`, in its slot when that is addressable and
    /// empty; returns whether the key already held two ids or more.
    fn place(&mut self, key: Key, id: Digest) -> bool {
        let slotted = match self.slots_mut(key) {
            Some(slots) => {
                let sender = key.2 as usize;
                if slots.len() <= sender {
                    slots.resize(sender + 1, None);
                }
                if slots[sender].is_none() {
                    slots[sender] = Some(id);
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

    /// Moves the live range to [`View::live_range`] of `view` (the
    /// validator's window): tables that left it retire whole, a view
    /// that enters takes its retired table back or, without one, has its
    /// overflow entries take their slots.
    pub fn set_live(&mut self, view: u64) {
        let (old, new) = (self.live_from, View::new(view).live_range().start().number());
        let range = |from: u64| (0..LIVE_VIEWS).map(move |i| from.wrapping_add(i));
        for w in range(old).filter(|w| w.wrapping_sub(new) >= LIVE_VIEWS) {
            let table = std::mem::take(&mut self.live[(w % LIVE_VIEWS) as usize]);
            if table.iter().any(|slots| !slots.is_empty()) {
                self.retired.insert(w, table);
            }
        }
        self.live_from = new;
        for w in range(new).filter(|w| w.wrapping_sub(old) >= LIVE_VIEWS) {
            if let Some(table) = self.retired.remove(&w) {
                self.live[(w % LIVE_VIEWS) as usize] = table;
                continue;
            }
            let spilled = self.overflow.range(((w, 0, 0), Digest::ZERO)..);
            let spilled: Vec<_> = spilled.take_while(|(k, _)| k.0 == w).copied().collect();
            for (key, id) in spilled {
                self.overflow.remove(&(key, id));
                self.place(key, id);
            }
        }
    }

    /// The one probe per delivery. `None`: the signature check failed.
    /// Otherwise: a copy of a filed id skips verification and is ignored;
    /// a first sighting is verified, filed, and accepted unless it is the
    /// sender's third distinct payload for its key. Every decision counts
    /// into the context's [`crate::CryptoOps`], and only there.
    pub fn admit(&mut self, msg: &SignedMessage, ctx: &mut Context) -> Option<Reception> {
        let (key, id) = (Self::key(msg), msg.id());
        let filed = key.is_some_and(|key| self.is_filed(key, &id));
        if filed || self.raw.contains(&id) {
            ctx.crypto_ops.sig_verify_skips += 1;
        } else {
            ctx.crypto_ops.sig_verifies += 1;
            if !msg.verify(&self.public_key(msg.sender())) {
                return None;
            }
        }
        Some(match key {
            Some(key) if !filed => self.file(key, id),
            Some(_) => IGNORED,
            None => POINT_TO_POINT,
        })
    }

    /// [`GossipState::admit`] for a caller that vouches for the message
    /// itself: dedup and the two-distinct cap, no signature check.
    pub fn on_receive(&mut self, msg: &SignedMessage) -> Reception {
        match Self::key(msg) {
            Some(key) if self.is_filed(key, &msg.id()) => IGNORED,
            Some(key) => self.file(key, msg.id()),
            None => POINT_TO_POINT,
        }
    }

    fn public_key(&mut self, sender: ValidatorId) -> PublicKey {
        let (i, seed) = (sender.index(), sender.key_seed());
        if i >= SignerSet::CAPACITY {
            return KeyCache::public(seed);
        }
        if self.keys.len() <= i {
            self.keys.resize(i + 1, None);
        }
        *self.keys[i].get_or_insert_with(|| KeyCache::public(seed))
    }

    /// Whether `msg`'s id passes for verified here: filed, or
    /// fault-injected. Slot-addressed, O(1) for live traffic.
    pub fn is_verified(&self, msg: &SignedMessage) -> bool {
        Self::key(msg).is_some_and(|key| self.is_filed(key, &msg.id()))
            || self.raw.contains(&msg.id())
    }

    /// Whether a bare id has been filed — a scan of every entry: fault
    /// injection and diagnostics only; receive paths use [`Self::is_verified`].
    pub fn has_seen(&self, id: &Digest) -> bool {
        let mut slots = self.live.iter().chain(self.retired.values()).flatten().flatten();
        slots.any(|slot| slot.as_ref() == Some(id)) || self.overflow.iter().any(|(_, i)| i == id)
    }

    /// Number of distinct messages filed (diagnostics).
    pub fn seen_count(&self) -> usize {
        self.filed
    }

    /// Number of ids that pass for verified: filed plus fault-injected.
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
        assert_eq!(gossip.admit(&forged, &mut ctx), None);
        assert_eq!(gossip.verified_count(), 0);
        assert!(!gossip.is_verified(&genuine));
        // Genuine: verified and filed; the earlier forgery cannot
        // shadow it.
        assert_eq!(gossip.admit(&genuine, &mut ctx), Some(ACCEPTED));
        assert_eq!((gossip.seen_count(), gossip.verified_count()), (1, 1));
        // Any later copy of the id — even the forged one — skips.
        assert_eq!(gossip.admit(&forged, &mut ctx), Some(IGNORED));
        assert_eq!((ctx.crypto_ops.sig_verifies, ctx.crypto_ops.sig_verify_skips), (2, 1));
        // Fetch payloads: verified, served, never remembered.
        let kp = Keypair::from_seed(ValidatorId::new(2).key_seed());
        let fetch = Payload::BlockRequest { tip: store.genesis(), from_height: 1 };
        let fetch = SignedMessage::sign(&kp, ValidatorId::new(2), fetch);
        assert_eq!(gossip.admit(&fetch, &mut ctx), Some(POINT_TO_POINT));
        assert_eq!(gossip.admit(&fetch, &mut ctx), Some(POINT_TO_POINT));
        assert!(!gossip.is_verified(&fetch) && !gossip.has_seen(&fetch.id()));
        assert_eq!(ctx.crypto_ops.sig_verifies, 4, "non-retained ids re-verify every time");
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
        // numbers: every id is genuine, so every id is filed — in the
        // ordered overflow, at a constant cost per id.
        let store = BlockStore::new();
        let (mut ctx, g) = (ctx(&store), Log::genesis(&store));
        let mut gossip = GossipState::new();
        gossip.set_live(7);
        for k in 0..10_000u64 {
            let m = msg(&store, 3, 1_000_000 + 977 * k, g);
            assert_eq!(gossip.admit(&m, &mut ctx), Some(ACCEPTED));
        }
        let slots: usize = gossip.live.iter().flatten().map(Vec::capacity).sum();
        assert_eq!(slots, 0, "no dense table was allocated");
        assert_eq!((gossip.overflow.len(), gossip.seen_count()), (10_000, 10_000));
        assert!(std::mem::size_of::<(Key, Digest)>() <= 48, "bytes retained per filed id");
        // A sender index at or beyond the dense bound is overflow-filed
        // even in a live view.
        let far = msg(&store, SignerSet::CAPACITY as u32, 7, g);
        assert_eq!(gossip.admit(&far, &mut ctx), Some(ACCEPTED));
        assert_eq!(gossip.admit(&far, &mut ctx), Some(IGNORED));
        assert_eq!(gossip.live.iter().flatten().map(Vec::capacity).sum::<usize>(), 0);
    }

    #[test]
    fn live_range_moves_change_no_answer() {
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let l1 = g.extend_empty(&store, ValidatorId::new(9), View::new(1));
        let l2 = g.extend_empty(&store, ValidatorId::new(8), View::new(1));
        let (a, b, c) = (msg(&store, 2, 9, g), msg(&store, 2, 9, l1), msg(&store, 2, 9, l2));
        let mut gossip = GossipState::new();
        // Filed while view 9 is not live.
        assert_eq!(gossip.on_receive(&a), ACCEPTED);
        // View 9 becomes live: the id is still found and still counts
        // toward the two-distinct cap.
        gossip.set_live(9);
        assert_eq!(gossip.on_receive(&a), IGNORED);
        assert_eq!(gossip.on_receive(&b), ACCEPTED);
        assert_eq!(gossip.on_receive(&c), IGNORED);
        // View 9 leaves the range, then re-enters: all three ids are
        // still members every time.
        for view in [40, 10, 200] {
            gossip.set_live(view);
            for m in [&a, &b, &c] {
                assert_eq!(gossip.on_receive(m), IGNORED);
                assert!(gossip.is_verified(m) && gossip.has_seen(&m.id()));
            }
        }
        assert_eq!(gossip.seen_count(), 3);
    }

    /// A fault-free run — every sender files one id per kind in the live
    /// range, and late copies arrive after their view retired — never
    /// touches the overflow, however long it runs.
    #[test]
    fn fault_free_views_leave_the_overflow_empty() {
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let mut gossip = GossipState::new();
        for view in 0..1_000u64 {
            gossip.set_live(view);
            for sender in 0..4 {
                assert_eq!(gossip.on_receive(&msg(&store, sender, view + 1, g)), ACCEPTED);
                if view >= 5 {
                    // A late first sighting in a retired view.
                    assert_eq!(gossip.on_receive(&msg(&store, sender + 4, view - 4, g)), ACCEPTED);
                }
            }
        }
        assert!(gossip.overflow.is_empty());
        assert_eq!(gossip.seen_count(), 4 * 1_000 + 4 * 995);
    }
}
