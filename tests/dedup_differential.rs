//! Differential test of the dedup / authenticity gate.
//!
//! `GossipState` files message ids in a sender-indexed slot table with
//! an ordered overflow and a moving live range. That is meant to be a
//! pure re-indexing of what it replaced — a verified-id set probed
//! before a seen-id set, both flat — so random streams are fed through
//! the real type and through that pair of `BTreeSet<Digest>`s composed
//! exactly as `Validator::on_message` composed them, and every
//! observable answer must agree. The streams hold duplicates, up to
//! five-way equivocation per `(sender, key)`, views that enter and
//! leave the live range between operations, sender indices at and
//! beyond the dense bound, fetch payloads that carry no key, forged
//! signatures before and after the genuine copy, and fault-injected raw
//! ids with the audit's quarantine pass.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use tob_svd::crypto::{AggregateSignature, Digest, KeyCache, Keypair};
use tob_svd::protocol::leader::vrf_for;
use tob_svd::sim::gossip::{GossipState, Reception};
use tob_svd::sim::{garbage_bytes, Context, Mempool};
use tob_svd::types::{
    BlockStore, Delta, InstanceId, Log, Payload, SignedMessage, SignerSet, Time, ValidatorId, View,
};

/// The flat seen-id set and distinct-payload counters.
#[derive(Default)]
struct FlatGossip {
    seen: BTreeSet<Digest>,
    distinct: BTreeMap<(ValidatorId, (u8, u64)), u8>,
}

impl FlatGossip {
    fn on_receive(&mut self, msg: &SignedMessage) -> Reception {
        if !self.seen.insert(msg.id()) {
            return Reception {
                fresh: false,
                forward: false,
            };
        }
        let Some(key) = msg.payload().equivocation_key() else {
            return Reception {
                fresh: true,
                forward: true,
            };
        };
        let count = self.distinct.entry((msg.sender(), key)).or_insert(0);
        if *count >= 2 {
            return Reception {
                fresh: false,
                forward: false,
            };
        }
        *count += 1;
        Reception {
            fresh: true,
            forward: true,
        }
    }
}

/// The flat-set dedup-before-verify gate.
#[derive(Default)]
struct FlatVerified {
    ids: BTreeSet<Digest>,
    verifies: u64,
    skips: u64,
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

/// Two ordinary senders, the last dense index, the first index beyond
/// the dense bound, and one far beyond it.
const SENDERS: [u32; 5] = [
    0,
    1,
    SignerSet::CAPACITY as u32 - 1,
    SignerSet::CAPACITY as u32,
    70_000,
];
/// Views the live range (moved over `0..12`) sweeps across, plus one it
/// never reaches.
const VIEWS: [u64; 9] = [0, 1, 2, 3, 4, 5, 7, 9, 1 << 40];

#[derive(Clone, Debug)]
enum Op {
    /// Deliver a message: the one probe of the receive path.
    Deliver(MsgSpec),
    /// Make the id of a (possibly already delivered) message, or a
    /// garbage id, pass for verified.
    Poison { msg: Option<MsgSpec>, garbage: u64 },
    /// The stabilization audit's reconciliation pass.
    Quarantine,
    /// `Validator::prune(v)`: the live range moves to `[v − 2, v + 2)`.
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
            2 => Op::SetLive(garbage % 12),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dedup_table_answers_like_the_two_flat_sets_composed(
        ops in proptest::collection::vec(op(), 1..400),
    ) {
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let fork = |proposer: u32| g.extend_empty(&store, ValidatorId::new(proposer), View::new(1));
        let logs = [g, fork(0), fork(1), fork(2), fork(3)];
        let mut ctx =
            Context::new(Time::ZERO, ValidatorId::new(0), Delta::default(), store, Mempool::new());

        let mut gossip = GossipState::new();
        let (mut flat_gossip, mut flat_verified) = (FlatGossip::default(), FlatVerified::default());
        let mut probes: Vec<SignedMessage> = Vec::new();
        let mut raw_probes: BTreeSet<Digest> = BTreeSet::new();

        for op in &ops {
            match op {
                Op::Deliver(spec) => {
                    let m = build(spec, &logs);
                    probes.push(m);
                    // `on_message` at the parent: the verification gate
                    // (fetch ids not retained), fetch payloads served
                    // without touching gossip, then the seen set.
                    let keyed = !m.payload().is_sync();
                    let want = flat_verified.admit(&m, keyed).then(|| match keyed {
                        true => flat_gossip.on_receive(&m),
                        false => Reception { fresh: true, forward: false },
                    });
                    prop_assert_eq!(gossip.admit(&m, &mut ctx), want);
                }
                Op::Poison { msg, garbage } => {
                    let id = match msg {
                        Some(spec) => {
                            let m = build(spec, &logs);
                            probes.push(m);
                            m.id()
                        }
                        None => Digest::from_bytes(garbage_bytes(*garbage, 0)),
                    };
                    raw_probes.insert(id);
                    gossip.poison(id);
                    flat_verified.ids.insert(id);
                }
                Op::Quarantine => {
                    let before = flat_verified.ids.len();
                    flat_verified.ids.retain(|id| flat_gossip.seen.contains(id));
                    prop_assert_eq!(gossip.quarantine(), before - flat_verified.ids.len());
                }
                Op::SetLive(view) => gossip.set_live(*view),
            }
            prop_assert_eq!(gossip.seen_count(), flat_gossip.seen.len());
            prop_assert_eq!(gossip.verified_count(), flat_verified.ids.len());
            prop_assert_eq!(
                (ctx.crypto_ops.sig_verifies, ctx.crypto_ops.sig_verify_skips),
                (flat_verified.verifies, flat_verified.skips)
            );
        }
        for m in &probes {
            prop_assert_eq!(gossip.has_seen(&m.id()), flat_gossip.seen.contains(&m.id()));
            prop_assert_eq!(gossip.is_verified(m), flat_verified.ids.contains(&m.id()));
        }
        for id in &raw_probes {
            prop_assert_eq!(gossip.has_seen(id), flat_gossip.seen.contains(id));
        }
    }
}
