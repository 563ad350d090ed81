//! Differential test of on-demand VRF verification.
//!
//! `ProposalTracker` records proposals as unverified claims and checks a
//! VRF only where a priority is used. That is meant to answer exactly as
//! the tracker it replaced, which verified every fresh proposal on
//! receipt (skipping a pair it had already verified for the sender) and
//! dropped the forged ones. So random streams are fed through the real
//! type and through that eager tracker, behind the same gossip gate
//! (dedup by id, two distinct proposals per sender), and at every
//! boundary the vote input for a random lock, every sender's
//! equivocation status and the flush's relay choice must agree — in a
//! random order, so each query also meets claims the others have not
//! checked yet. The streams mix genuine, forged-output, forged-proof,
//! duplicate and equivocating claims for n ∈ {4, 64, 256}, from
//! committees starting at 0 or ending at `SignerSet::CAPACITY` (the
//! tracker's seats end there, and the gossip gate admits no sender
//! beyond it), so the last seat, 511, is covered. The on-demand check
//! count must never exceed the eager one. The flush relays from `(sender, slot)`
//! references and must hand back the received messages themselves:
//! same id, signature and payload.
//!
//! The vote input also checks `extends(lock)` lazily, claim by claim in
//! the same top-first order; the fork test pins that this picks what
//! the up-front `extends` filter picked, for the same VRF checks.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use tob_svd::crypto::{Digest, Keypair, VrfOutput, VrfProof};
use tob_svd::protocol::leader::{verify_vrf, vrf_for, Priority};
use tob_svd::protocol::ProposalTracker;
use tob_svd::sim::{garbage_bytes, CryptoOps};
use tob_svd::types::{BlockStore, Log, Payload, SignedMessage, SignerSet, ValidatorId, View};

/// The view every claim is for.
fn view() -> View {
    View::new(3)
}

/// The parent's tracker: verify on record, drop forged claims.
#[derive(Default)]
struct EagerTracker {
    /// `Some((log, vrf))` = unique proposal; `None` = equivocated.
    proposals: BTreeMap<ValidatorId, Option<(Log, VrfOutput)>>,
    verified_vrfs: BTreeMap<ValidatorId, (VrfOutput, VrfProof)>,
    verifies: u64,
}

impl EagerTracker {
    /// The parent's `process` for a fresh, in-window proposal: whether it
    /// passed the VRF check (and so was recorded and buffered for relay).
    fn receive(&mut self, msg: &SignedMessage) -> bool {
        let sender = msg.sender();
        let Payload::Proposal { view, log, vrf, proof } = *msg.payload() else { return false };
        if self.verified_vrfs.get(&sender) != Some(&(vrf, proof)) {
            self.verifies += 1;
            if !verify_vrf(sender, view, &vrf, &proof) {
                return false;
            }
            self.verified_vrfs.entry(sender).or_insert((vrf, proof));
        }
        match self.proposals.get_mut(&sender) {
            None => {
                self.proposals.insert(sender, Some((log, vrf)));
            }
            Some(slot) => match slot {
                Some((existing, _)) if *existing == log => {}
                Some(_) => *slot = None,
                None => {}
            },
        }
        true
    }

    fn best_extending(&self, lock: &Log, store: &BlockStore) -> Option<(ValidatorId, Log)> {
        self.proposals
            .iter()
            .filter_map(|(v, slot)| slot.map(|(log, vrf)| (*v, log, vrf)))
            .filter(|(_, log, _)| log.extends(lock, store))
            .max_by_key(|(v, _, vrf)| (*vrf, Reverse(*v)))
            .map(|(v, log, _)| (v, log))
    }

    fn is_equivocator(&self, v: ValidatorId) -> bool {
        matches!(self.proposals.get(&v), Some(None))
    }

    /// The parent's proposal side of `AggregationPlane::flush`.
    fn relays(&self, pending: &[SignedMessage], best_relayed: &mut Option<Priority>) -> Vec<SignedMessage> {
        let mut out = Vec::new();
        let mut best: Option<(Priority, SignedMessage)> = None;
        for msg in pending {
            let Payload::Proposal { vrf, .. } = msg.payload() else { continue };
            if self.is_equivocator(msg.sender()) {
                out.push(*msg);
                continue;
            }
            let prio = (*vrf, Reverse(msg.sender()));
            if best.as_ref().map_or(true, |(p, _)| prio > *p) {
                best = Some((prio, *msg));
            }
        }
        if let Some((prio, msg)) = best {
            if best_relayed.map_or(true, |b| prio > b) {
                out.push(msg);
                *best_relayed = Some(prio);
            }
        }
        out
    }
}

/// One claim in the stream.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Genuine,
    /// A claimed output that is not the proof's (genuine proof).
    ForgedOutput,
    /// The genuine output with a garbage proof.
    ForgedProof,
    /// Another copy of the sender's last message (dropped by gossip).
    Duplicate,
}

#[derive(Clone, Copy, Debug)]
struct Step {
    sender: u32,
    kind: Kind,
    /// Index into the log set the proposal extends.
    log: usize,
    /// Seed for forged outputs.
    seed: u64,
    /// Close the batch: run the boundary queries after this claim.
    boundary: bool,
    /// Index into the log set for the boundary's lock.
    lock: usize,
    /// Which boundary query goes first (0 flush, 1 vote, 2 equivocators).
    first: u8,
}

fn step() -> impl Strategy<Value = Step> {
    (any::<u32>(), 0u8..8, 0usize..6, any::<u64>(), 0u8..6, 0usize..6, 0u8..3).prop_map(
        |(sender, kind, log, seed, boundary, lock, first)| Step {
            sender,
            kind: match kind {
                0..=3 => Kind::Genuine,
                4 => Kind::ForgedOutput,
                5 => Kind::ForgedProof,
                _ => Kind::Duplicate,
            },
            log,
            seed,
            boundary: boundary == 0,
            lock,
            first,
        },
    )
}

fn proposal(sender: ValidatorId, log: Log, vrf: VrfOutput, proof: VrfProof) -> SignedMessage {
    let payload = Payload::Proposal { view: view(), log, vrf, proof };
    SignedMessage::sign(&Keypair::from_seed(sender.key_seed()), sender, payload)
}

/// Genesis, two forks of it, an extension of each fork, and one more
/// fork: locks and proposal tips that extend some of each other.
fn logs(store: &BlockStore) -> Vec<Log> {
    let g = Log::genesis(store);
    let a = g.extend_empty(store, ValidatorId::new(900), View::new(1));
    let b = g.extend_empty(store, ValidatorId::new(901), View::new(1));
    let a2 = a.extend_empty(store, ValidatorId::new(902), View::new(2));
    let b2 = b.extend_empty(store, ValidatorId::new(903), View::new(2));
    let c = g.extend_empty(store, ValidatorId::new(904), View::new(2));
    vec![g, a, b, a2, b2, c]
}

/// Feeds `steps` from validators `first..first + n` through both
/// trackers; returns the on-demand and the eager VRF check counts.
fn run(first: u32, n: u32, steps: &[Step]) -> Result<(u64, u64), TestCaseError> {
    let store = BlockStore::new();
    let logs = logs(&store);
    let mut eager = EagerTracker::default();
    let mut tracker = ProposalTracker::new(view());
    let mut ops = CryptoOps::default();
    // The gossip gate in front of both: dedup by id, two distinct
    // proposals per sender.
    let (mut seen, mut distinct) = (BTreeSet::new(), BTreeMap::<ValidatorId, u8>::new());
    let mut last: BTreeMap<ValidatorId, SignedMessage> = BTreeMap::new();
    let (mut eager_pending, mut pending) = (Vec::new(), Vec::new());
    let (mut eager_best, mut best) = (None, None);
    for (i, s) in steps.iter().enumerate() {
        let sender = ValidatorId::new(first + s.sender % n);
        // A proposal proposes a block on one of the set's logs.
        let log = logs[s.log].extend_empty(&store, sender, view());
        let (vrf, proof) = vrf_for(sender, view());
        let garbage = Digest::from_bytes(garbage_bytes(s.seed, 0));
        let msg = match s.kind {
            Kind::Genuine => proposal(sender, log, vrf, proof),
            Kind::ForgedOutput => proposal(sender, log, VrfOutput(garbage), proof),
            Kind::ForgedProof => proposal(sender, log, vrf, VrfProof(garbage)),
            Kind::Duplicate => last.get(&sender).copied().unwrap_or_else(|| proposal(sender, log, vrf, proof)),
        };
        last.insert(sender, msg);
        let count = distinct.entry(sender).or_insert(0);
        if seen.insert(msg.id()) && *count < 2 {
            *count += 1;
            if eager.receive(&msg) {
                eager_pending.push(msg);
            }
            let slot = tracker.record(&msg.into());
            prop_assert!(slot.is_some(), "a fresh claim is new");
            pending.extend(slot.map(|slot| (sender, slot)));
        }
        if !(s.boundary || i + 1 == steps.len()) {
            continue;
        }
        for query in (0..3).map(|q| (q + s.first) % 3) {
            match query {
                0 => {
                    let want = eager.relays(&std::mem::take(&mut eager_pending), &mut eager_best);
                    let got = tracker.relays(&std::mem::take(&mut pending), &mut best, &mut ops);
                    let got: Vec<SignedMessage> = got.iter().map(|m| ***m).collect();
                    prop_assert_eq!(got, want, "flush relay choice");
                    prop_assert_eq!(best, eager_best);
                }
                1 => {
                    let lock = logs[s.lock];
                    let want = eager.best_extending(&lock, &store);
                    prop_assert_eq!(tracker.best_extending(&lock, &store, &mut ops), want, "vote input");
                }
                _ => {
                    for v in distinct.keys() {
                        prop_assert_eq!(tracker.is_equivocator(*v, &mut ops), eager.is_equivocator(*v));
                    }
                }
            }
        }
        prop_assert!(
            ops.vrf_verifies <= eager.verifies,
            "on-demand checks {} exceed the eager {}",
            ops.vrf_verifies,
            eager.verifies
        );
    }
    Ok((ops.vrf_verifies, eager.verifies))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn on_demand_tracker_answers_like_the_eager_one(
        n in prop_oneof![Just(4u32), Just(64), Just(256)],
        at_end in any::<bool>(),
        steps in proptest::collection::vec(step(), 1..400),
    ) {
        let first = if at_end { SignerSet::CAPACITY as u32 - n } else { 0 };
        run(first, n, &steps)?;
    }
}

/// An honest view at full width: every sender proposes once, genuinely.
/// The eager tracker checks n VRFs; the flush and the vote share one.
#[test]
fn honest_view_costs_one_check_instead_of_n() {
    let steps: Vec<Step> = (0..256)
        .map(|sender| Step {
            sender,
            kind: Kind::Genuine,
            log: 1,
            seed: 0,
            boundary: sender == 255,
            lock: 1,
            first: 0,
        })
        .collect();
    let checks = run(0, 256, &steps).expect("agrees with the eager tracker");
    assert_eq!(checks, (1, 256));
}

/// The vote input with `extends` filtered up front, the parent's way:
/// keep the unforged claims that extend the lock, then try them
/// top-first — check the VRF, then the sender's equivocation.
fn eager_filter_best_extending(
    claims: &[SignedMessage],
    lock: &Log,
    store: &BlockStore,
    ops: &mut CryptoOps,
) -> Option<(ValidatorId, Log)> {
    let mut verdicts: BTreeMap<(ValidatorId, VrfOutput, Digest), bool> = BTreeMap::new();
    let mut valid = |sender: ValidatorId, vrf: VrfOutput, proof: VrfProof, ops: &mut CryptoOps| {
        *verdicts.entry((sender, vrf, proof.0)).or_insert_with(|| {
            ops.vrf_verifies += 1;
            verify_vrf(sender, view(), &vrf, &proof)
        })
    };
    let mut ranked: Vec<(Priority, Log, VrfProof)> = claims
        .iter()
        .filter_map(|m| match *m.payload() {
            Payload::Proposal { log, vrf, proof, .. } => Some(((vrf, Reverse(m.sender())), log, proof)),
            _ => None,
        })
        .filter(|(_, log, _)| log.extends(lock, store))
        .collect();
    ranked.sort_by_key(|(prio, ..)| Reverse(*prio));
    for ((vrf, Reverse(sender)), log, proof) in ranked {
        if !valid(sender, vrf, proof, ops) {
            continue;
        }
        let mut own = claims.iter().filter(|m| m.sender() == sender).filter_map(|m| match *m.payload() {
            Payload::Proposal { log, vrf, proof, .. } => Some((log, vrf, proof)),
            _ => None,
        });
        let (Some(a), Some(b)) = (own.next(), own.next()) else { return Some((sender, log)) };
        if a.0 == b.0 || !valid(sender, a.1, a.2, ops) || !valid(sender, b.1, b.2, ops) {
            return Some((sender, log));
        }
    }
    None
}

/// Forks where the top claims do not extend the lock: the lazy check
/// walks past them without checking their VRFs, and picks the same vote
/// input as the up-front filter for the same number of checks — with a
/// forged claim and an equivocator among the extending ones, and off
/// the lock.
#[test]
fn lazy_extends_picks_like_the_eager_filter_on_forks() {
    let store = BlockStore::new();
    let logs = logs(&store);
    let (g, a, b, a2) = (logs[0], logs[1], logs[2], logs[3]);
    for (n, off_lock) in [(8u32, 3usize), (64, 20), (256, 200)] {
        let mut ranked: Vec<ValidatorId> = (0..n).map(ValidatorId::new).collect();
        ranked.sort_by_key(|v| Reverse(vrf_for(*v, view()).0));
        let mut claims = Vec::new();
        for (rank, sender) in ranked.iter().copied().enumerate() {
            let (vrf, proof) = vrf_for(sender, view());
            // The top `off_lock` claims sit on fork b, the rest on a.
            let parent = if rank < off_lock { b } else { a };
            claims.push(proposal(sender, parent.extend_empty(&store, sender, view()), vrf, proof));
            if rank == off_lock {
                // The best extending sender equivocates on the lock.
                claims.push(proposal(sender, a2.extend_empty(&store, sender, view()), vrf, proof));
            }
        }
        // A forged top claim, once off the lock and once on it.
        let garbage = Digest::from_bytes(garbage_bytes(n.into(), 1));
        let top = VrfOutput(Digest::from_bytes([0xff; 32]));
        let forger = ValidatorId::new(n);
        claims.push(proposal(forger, b.extend_empty(&store, forger, view()), top, VrfProof(garbage)));
        let forger = ValidatorId::new(n + 1);
        claims.push(proposal(forger, a.extend_empty(&store, forger, view()), top, VrfProof(garbage)));

        for lock in [a, g, b] {
            let mut tracker = ProposalTracker::new(view());
            for m in &claims {
                assert!(tracker.record(&(*m).into()).is_some());
            }
            let (mut lazy_ops, mut eager_ops) = (CryptoOps::default(), CryptoOps::default());
            let got = tracker.best_extending(&lock, &store, &mut lazy_ops);
            let want = eager_filter_best_extending(&claims, &lock, &store, &mut eager_ops);
            assert!(want.is_some(), "n = {n}: some claim extends {lock:?}");
            assert_eq!(got, want, "n = {n}, lock {lock:?}: vote input");
            assert_eq!(lazy_ops.vrf_verifies, eager_ops.vrf_verifies, "n = {n}, lock {lock:?}: VRF checks");
        }
    }
}
