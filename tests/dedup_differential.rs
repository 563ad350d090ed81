//! Differential test of the dedup / authenticity gate.
//!
//! `GossipState` files message ids in sender-indexed slot tables (a
//! ring of four, one per view of the live range) with an ordered
//! overflow, drops first sightings from outside the committee and
//! out-of-range ones before their signature check, and forgets every
//! view that leaves the live range. That is meant to be a pure
//! re-indexing of a plainer gate — a verified-id set probed before a
//! seen-id set, both flat, behind the committee and range checks and
//! forgetting exactly what the contract says — so random streams are fed
//! through the real type and through that model, and every observable
//! answer must agree. The model spells the contract out on its own:
//!
//! * **the committee gate**: the gate is built for a committee of
//!   [`COMMITTEE`] validators, narrower than the signer bitmap; a
//!   message from a sender at or beyond it is dropped as a forgery,
//!   unverified, uncounted and unfiled;
//! * **the range gate**: at current view `v`, a first sighting of a
//!   `LOG` or certificate for a view outside `v − 2 ..= v + 1`, or of a
//!   proposal outside `v − 1 ..= v + 1`, is dropped unverified and
//!   unfiled;
//! * **forgetting**: moving the range from start `s` to start `s'`
//!   forgets every id of a view behind `s'` and of a view of
//!   `s ..= s + 3` outside `s' ..= s' + 3`. A forgotten id sighted again
//!   is a first sighting again.
//!
//! `Op::SetLive` moves the range and the context's clock together, to
//! the Propose step of its view, as the validator does. The streams hold
//! duplicates, up to five-way equivocation per `(sender, key)`, views
//! that enter and leave the live range between operations — forward and
//! backward across more than 64 views, so forgotten views come back
//! empty — the last member and sender indices at the committee bound,
//! at the bitmap's and far beyond, fetch payloads that carry no key,
//! forged signatures before and after the genuine copy, and
//! fault-injected raw ids with the audit's quarantine pass.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use tob_svd::crypto::{AggregateSignature, Digest, KeyCache, Keypair};
use tob_svd::protocol::leader::vrf_for;
use tob_svd::sim::gossip::{Admission, GossipState, Reception};
use tob_svd::sim::{garbage_bytes, Context, Mempool};
use tob_svd::types::{
    BlockStore, Delta, InstanceId, Log, Payload, SignedMessage, SignerSet, Time, ValidatorId, View,
};

/// The flat seen-id set, by view, and distinct-payload counters.
#[derive(Default)]
struct FlatGossip {
    seen: BTreeMap<Digest, u64>,
    distinct: BTreeMap<(ValidatorId, (u8, u64)), u8>,
    /// First sightings filed, forgotten ones included.
    filed: usize,
}

impl FlatGossip {
    fn on_receive(&mut self, msg: &SignedMessage) -> Reception {
        let Some(key) = msg.payload().equivocation_key() else {
            return Reception { fresh: true, forward: false };
        };
        if self.seen.insert(msg.id(), key.1).is_some() {
            return Reception { fresh: false, forward: false };
        }
        self.filed += 1;
        let count = self.distinct.entry((msg.sender(), key)).or_insert(0);
        if *count >= 2 {
            return Reception { fresh: false, forward: false };
        }
        *count += 1;
        Reception { fresh: true, forward: true }
    }

    /// Forgets every id and counter of a view `gone` names; returns the
    /// forgotten ids.
    fn forget(&mut self, gone: impl Fn(u64) -> bool) -> Vec<Digest> {
        self.distinct.retain(|(_, (_, w)), _| !gone(*w));
        let forgotten: Vec<Digest> =
            self.seen.iter().filter(|(_, w)| gone(**w)).map(|(id, _)| *id).collect();
        for id in &forgotten {
            self.seen.remove(id);
        }
        forgotten
    }
}

/// The flat-set dedup-before-verify gate.
#[derive(Default)]
struct FlatVerified {
    ids: BTreeSet<Digest>,
    verifies: u64,
    skips: u64,
    dropped: u64,
}

impl FlatVerified {
    fn admit(&mut self, msg: &SignedMessage, retain: bool) -> bool {
        if self.ids.contains(&msg.id()) {
            self.skips += 1;
            return true;
        }
        self.verifies += 1;
        if !msg.verify(&KeyCache::public(msg.sender().key_seed())) {
            return false;
        }
        if retain {
            self.ids.insert(msg.id());
        }
        true
    }
}

/// The range gate, spelled out: whether, at current view `v`, a first
/// sighting of kind `kind` for view `w` is dropped unverified.
fn out_of_range(kind: u8, w: u64, v: u64) -> bool {
    let behind = match kind {
        0 | 5 => 2, // LOG, certificate: `View::live_range`
        1 => 1,     // proposal: `View::proposal_range`
        2 | 4 => return true, // VOTE, finality vote: never live
        _ => return false,
    };
    w < v.saturating_sub(behind) || w > v + 1
}

/// Names one message of a small domain, so that random streams repeat
/// messages and collide on `(sender, key)`.
#[derive(Clone, Copy, Debug)]
struct MsgSpec {
    /// Index into [`SENDERS`].
    sender: usize,
    /// Payload kind: 0–5 keyed (LOG, PROPOSAL, VOTE, RECOVERY,
    /// FINALIZE, QC), 6–7 the keyless fetch pair.
    kind: u8,
    /// Index into [`VIEWS`].
    view: usize,
    /// Which of five distinct logs the payload carries.
    variant: usize,
    forged: bool,
}

/// The committee the gate is built for: validators `0..COMMITTEE`.
const COMMITTEE: usize = 100;
/// Two ordinary senders, the last member, the first index outside the
/// committee, the first beyond the signer bitmap, and one far beyond it.
const SENDERS: [u32; 6] = [
    0,
    1,
    COMMITTEE as u32 - 1,
    COMMITTEE as u32,
    SignerSet::CAPACITY as u32,
    70_000,
];
/// Views the live range (moved over `0..LIVE_SPAN`) sweeps across, plus
/// one it never reaches.
const VIEWS: [u64; 13] = [0, 1, 2, 3, 4, 5, 7, 9, 33, 64, 66, 70, 1 << 40];
/// `SetLive` targets are drawn from `0..LIVE_SPAN`.
const LIVE_SPAN: u64 = 76;

#[derive(Clone, Debug)]
enum Op {
    /// Deliver a message: the one probe of the receive path.
    Deliver(MsgSpec),
    /// Make the id of a (possibly already delivered) message, or a
    /// garbage id, pass for verified.
    Poison { msg: Option<MsgSpec>, garbage: u64 },
    /// The stabilization audit's reconciliation pass.
    Quarantine,
    /// The validator's Propose step at `v`: the live range moves to
    /// `View::live_range`, `[v − 2, v + 2)`, and the clock to `t_v`.
    SetLive(u64),
}

fn msg_spec() -> impl Strategy<Value = MsgSpec> {
    (0..SENDERS.len(), 0u8..8, 0..VIEWS.len(), 0usize..5, 0u8..10).prop_map(
        |(sender, kind, view, variant, f)| MsgSpec {
            sender,
            kind,
            view,
            variant,
            forged: f == 0,
        },
    )
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..12, msg_spec(), any::<bool>(), any::<u64>()).prop_map(|(pick, msg, flag, garbage)| {
        match pick {
            0 => Op::Quarantine,
            1 => Op::Poison {
                msg: flag.then_some(msg),
                garbage,
            },
            2 => Op::SetLive(garbage % LIVE_SPAN),
            _ => Op::Deliver(msg),
        }
    })
}

fn build(spec: &MsgSpec, logs: &[Log; 5]) -> SignedMessage {
    let sender = ValidatorId::new(SENDERS[spec.sender]);
    let log = logs[spec.variant];
    let number = VIEWS[spec.view];
    let instance = InstanceId(number);
    let payload = match spec.kind {
        0 => Payload::Log { instance, log },
        1 => {
            let view = View::new(number);
            let (vrf, proof) = vrf_for(sender, view);
            Payload::Proposal {
                view,
                log,
                vrf,
                proof,
            }
        }
        2 => Payload::Vote { instance, log },
        3 => Payload::Recovery {
            from_view: View::new(number),
            log,
        },
        4 => Payload::FinalityVote { epoch: number, log },
        5 => {
            let mut signers = SignerSet::empty();
            signers.insert(sender);
            let agg = AggregateSignature::from_digest(Digest::from_bytes(garbage_bytes(7, 0)));
            Payload::Certificate {
                instance,
                log,
                signers,
                agg,
            }
        }
        6 => Payload::BlockRequest {
            tip: log.tip(),
            from_height: 1 + spec.view as u64,
        },
        _ => Payload::BlockResponse {
            tip: log.tip(),
            from_height: 1,
            count: 1 + spec.view as u64,
        },
    };
    let signed = SignedMessage::sign(&Keypair::from_seed(sender.key_seed()), sender, payload);
    if spec.forged {
        // Same id (ids bind sender + payload), wrong signature.
        SignedMessage::from_parts(sender, payload, Keypair::from_seed(9_999).sign(b"forged"))
    } else {
        signed
    }
}

/// The real gate and the flat model side by side, plus every message
/// and raw id ever named, for the final membership sweep.
struct Differential {
    logs: [Log; 5],
    ctx: Context,
    gossip: GossipState,
    flat_gossip: FlatGossip,
    flat_verified: FlatVerified,
    /// The model's range start, `v − 2` at the last `SetLive(v)`.
    live_from: u64,
    probes: Vec<SignedMessage>,
    raw_probes: BTreeSet<Digest>,
}

/// A view lasts 4Δ: `SetLive(v)` puts the clock at `4Δ · v`.
const DELTAS_PER_VIEW: u64 = 4;

impl Differential {
    fn new() -> Self {
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let fork = |proposer: u32| g.extend_empty(&store, ValidatorId::new(proposer), View::new(1));
        let logs = [g, fork(0), fork(1), fork(2), fork(3)];
        Differential {
            logs,
            ctx: Context::new(Time::ZERO, ValidatorId::new(0), Delta::default(), store, Mempool::new()),
            gossip: GossipState::for_committee(COMMITTEE),
            flat_gossip: FlatGossip::default(),
            flat_verified: FlatVerified::default(),
            live_from: 0,
            probes: Vec::new(),
            raw_probes: BTreeSet::new(),
        }
    }

    fn step(&mut self, op: &Op) -> Result<(), TestCaseError> {
        match op {
            Op::Deliver(spec) => {
                let m = build(spec, &self.logs);
                self.probes.push(m);
                // The committee gate (an outsider's id is never filed),
                // the range gate in front of a first sighting, then the
                // verification gate (fetch ids not retained), fetch
                // payloads served without touching gossip, then the
                // seen set.
                let keyed = !m.payload().is_sync();
                let current = View::of_time(self.ctx.time, self.ctx.delta).number();
                let want = if m.sender().index() >= COMMITTEE {
                    Admission::Forged
                } else if !self.flat_gossip.seen.contains_key(&m.id())
                    && out_of_range(spec.kind, VIEWS[spec.view], current)
                {
                    self.flat_verified.dropped += 1;
                    Admission::OutOfRange
                } else if self.flat_verified.admit(&m, keyed) {
                    Admission::Admitted(match keyed {
                        true => self.flat_gossip.on_receive(&m),
                        false => Reception { fresh: true, forward: false },
                    })
                } else {
                    Admission::Forged
                };
                prop_assert_eq!(self.gossip.admit_live(&m.into(), &mut self.ctx), want);
            }
            Op::Poison { msg, garbage } => {
                let id = match msg {
                    Some(spec) => {
                        let m = build(spec, &self.logs);
                        self.probes.push(m);
                        m.id()
                    }
                    None => Digest::from_bytes(garbage_bytes(*garbage, 0)),
                };
                self.raw_probes.insert(id);
                self.gossip.poison(id);
                self.flat_verified.ids.insert(id);
            }
            Op::Quarantine => {
                let before = self.flat_verified.ids.len();
                let seen = &self.flat_gossip.seen;
                self.flat_verified.ids.retain(|id| seen.contains_key(id));
                prop_assert_eq!(self.gossip.quarantine(), before - self.flat_verified.ids.len());
            }
            Op::SetLive(view) => {
                self.gossip.set_live(*view);
                self.ctx.time = Time::new(view * DELTAS_PER_VIEW * self.ctx.delta.ticks());
                let (old, new) = (self.live_from, view.saturating_sub(2));
                self.live_from = new;
                let left = |w: u64| (old..old + 4).contains(&w) && !(new..new + 4).contains(&w);
                for id in self.flat_gossip.forget(|w| w < new || left(w)) {
                    self.flat_verified.ids.remove(&id);
                }
                self.check_membership()?;
            }
        }
        prop_assert_eq!(self.gossip.seen_count(), self.flat_gossip.filed);
        let raw = self.flat_verified.ids.iter().filter(|id| !self.flat_gossip.seen.contains_key(*id));
        prop_assert_eq!(self.gossip.verified_count(), self.flat_gossip.filed + raw.count());
        let ops = &self.ctx.crypto_ops;
        prop_assert_eq!(
            (ops.sig_verifies, ops.sig_verify_skips, ops.dropped_out_of_range),
            (self.flat_verified.verifies, self.flat_verified.skips, self.flat_verified.dropped)
        );
        Ok(())
    }

    fn check_membership(&self) -> Result<(), TestCaseError> {
        for m in &self.probes {
            prop_assert_eq!(self.gossip.has_seen(&m.id()), self.flat_gossip.seen.contains_key(&m.id()));
            prop_assert_eq!(self.gossip.is_verified(m), self.flat_verified.ids.contains(&m.id()));
        }
        for id in &self.raw_probes {
            prop_assert_eq!(self.gossip.has_seen(id), self.flat_gossip.seen.contains_key(id));
        }
        Ok(())
    }
}

/// A scripted sweep that hits every range-move path at least once: the
/// live range walks forward over all of [`VIEWS`]' small numbers, each
/// view collecting first ids, equivocating second and third ids and
/// outsiders' ids while live *and* after it left (gated kinds
/// dropped, the others filed behind the range and forgotten at the next
/// move), then walks back so every forgotten view re-enters empty, then
/// forward again.
#[test]
fn sweep_forward_back_and_forward_answers_like_the_flat_sets() {
    let mut diff = Differential::new();
    let deliver = |sender: usize, kind: u8, view: usize, variant: usize| {
        Op::Deliver(MsgSpec { sender, kind, view, variant, forged: false })
    };
    // Every keyed kind from every sender in view `v`, with `variants`
    // distinct payloads each (a forged copy first, to try to shadow).
    let flood = |view: usize, variants: std::ops::Range<usize>| {
        let mut ops = Vec::new();
        for sender in 0..SENDERS.len() {
            for kind in 0..6u8 {
                for variant in variants.clone() {
                    ops.push(Op::Deliver(MsgSpec { sender, kind, view, variant, forged: true }));
                    ops.push(deliver(sender, kind, view, variant));
                }
            }
        }
        ops
    };
    let small_views = VIEWS.len() - 1;
    let mut script = Vec::new();
    for (i, &number) in VIEWS[..small_views].iter().enumerate() {
        script.push(Op::SetLive(number));
        script.extend(flood(i, 0..1));
        if i > 0 {
            // Late equivocations into the previous (by now possibly
            // retired) view.
            script.extend(flood(i - 1, 1..4));
        }
    }
    script.push(Op::SetLive(LIVE_SPAN + 10));
    for (i, &number) in VIEWS[..small_views].iter().enumerate().rev() {
        script.push(Op::SetLive(number));
        script.extend(flood(i, 0..5));
    }
    for &number in &VIEWS[..small_views] {
        script.push(Op::SetLive(number + 1));
    }
    for op in &script {
        diff.step(op).unwrap();
    }
    diff.check_membership().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dedup_table_answers_like_the_two_flat_sets_composed(
        ops in proptest::collection::vec(op(), 1..400),
    ) {
        let mut diff = Differential::new();
        for op in &ops {
            diff.step(op)?;
        }
        diff.check_membership()?;
    }
}
