//! Differential test of the view-bucketed dedup state.
//!
//! `GossipState` and `VerifiedSet` index their id sets by the view of
//! the message an id names. That is meant to be a pure re-indexing, so
//! random streams — duplicates, two- and three-way equivocations per
//! `(sender, key)`, views out of order, fetch payloads that carry no
//! key, forged signatures, fault-injected raw ids — are fed through
//! the real types and through a reference model built on one flat
//! `BTreeSet<Digest>`, and every observable answer must agree.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use tob_svd::crypto::{AggregateSignature, Digest, KeyCache, Keypair};
use tob_svd::protocol::leader::vrf_for;
use tob_svd::sim::gossip::{GossipState, Reception, VerifiedSet};
use tob_svd::sim::{garbage_bytes, Context, Mempool};
use tob_svd::types::{
    BlockStore, Delta, InstanceId, Log, Payload, SignedMessage, SignerSet, Time, ValidatorId, View,
};

/// The flat-set gossip state the bucketed one replaced.
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
    sender: u32,
    /// Payload kind: 0–5 keyed (LOG, PROPOSAL, VOTE, RECOVERY,
    /// FINALIZE, QC), 6–7 the keyless fetch pair.
    kind: u8,
    view: u64,
    /// Which of three distinct logs the payload carries.
    variant: u8,
    forged: bool,
}

#[derive(Clone, Debug)]
enum Op {
    /// Deliver a message: gossip reception + verification gate.
    Deliver { msg: MsgSpec, retain: bool },
    /// Force the id of a (possibly already delivered) message, or a
    /// garbage id, into the verified set.
    Poison { msg: Option<MsgSpec>, garbage: u64 },
    /// The stabilization audit's reconciliation pass.
    Quarantine,
}

fn msg_spec() -> impl Strategy<Value = MsgSpec> {
    (0u32..3, 0u8..8, 0u64..5, 0u8..3, 0u8..10).prop_map(|(sender, kind, view, variant, f)| {
        MsgSpec {
            sender,
            kind,
            view,
            variant,
            forged: f == 0,
        }
    })
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..10, msg_spec(), any::<bool>(), any::<u64>()).prop_map(|(pick, msg, flag, garbage)| {
        match pick {
            0 => Op::Quarantine,
            1 => Op::Poison {
                msg: flag.then_some(msg),
                garbage,
            },
            _ => Op::Deliver { msg, retain: flag },
        }
    })
}

fn build(spec: &MsgSpec, logs: &[Log; 3]) -> SignedMessage {
    let sender = ValidatorId::new(spec.sender);
    let log = logs[usize::from(spec.variant)];
    let instance = InstanceId(spec.view);
    let payload = match spec.kind {
        0 => Payload::Log { instance, log },
        1 => {
            let view = View::new(spec.view);
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
            from_view: View::new(spec.view),
            log,
        },
        4 => Payload::FinalityVote {
            epoch: spec.view,
            log,
        },
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
            from_height: 1 + spec.view,
        },
        _ => Payload::BlockResponse {
            tip: log.tip(),
            from_height: 1,
            count: 1 + spec.view,
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
    fn bucketed_dedup_state_answers_like_one_flat_set(
        ops in proptest::collection::vec(op(), 1..400),
    ) {
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let logs = [
            g,
            g.extend_empty(&store, ValidatorId::new(0), View::new(1)),
            g.extend_empty(&store, ValidatorId::new(1), View::new(1)),
        ];
        let mut ctx =
            Context::new(Time::ZERO, ValidatorId::new(0), Delta::default(), store, Mempool::new());

        let (mut gossip, mut flat_gossip) = (GossipState::new(), FlatGossip::default());
        let (mut verified, mut flat_verified) = (VerifiedSet::new(), FlatVerified::default());
        let mut probes: BTreeSet<Digest> = BTreeSet::new();

        for op in &ops {
            match op {
                Op::Deliver { msg, retain } => {
                    let m = build(msg, &logs);
                    probes.insert(m.id());
                    // Validator order: verification gate, then gossip.
                    let admitted = verified.admit(&m, *retain, &mut ctx);
                    prop_assert_eq!(admitted, flat_verified.admit(&m, *retain));
                    if admitted {
                        prop_assert_eq!(gossip.on_receive(&m), flat_gossip.on_receive(&m));
                    }
                }
                Op::Poison { msg, garbage } => {
                    let id = match msg {
                        Some(spec) => build(spec, &logs).id(),
                        None => Digest::from_bytes(garbage_bytes(*garbage, 0)),
                    };
                    probes.insert(id);
                    verified.poison(id);
                    flat_verified.ids.insert(id);
                }
                Op::Quarantine => {
                    let evicted = verified.quarantine(|id| gossip.has_seen(id));
                    let before = flat_verified.ids.len();
                    flat_verified.ids.retain(|id| flat_gossip.seen.contains(id));
                    prop_assert_eq!(evicted, before - flat_verified.ids.len());
                }
            }
            prop_assert_eq!(gossip.seen_count(), flat_gossip.seen.len());
            prop_assert_eq!(verified.len(), flat_verified.ids.len());
            prop_assert_eq!(verified.is_empty(), flat_verified.ids.is_empty());
            prop_assert_eq!(
                (verified.verifies(), verified.skips()),
                (flat_verified.verifies, flat_verified.skips)
            );
        }
        for id in &probes {
            prop_assert_eq!(gossip.has_seen(id), flat_gossip.seen.contains(id));
            prop_assert_eq!(verified.contains(id), flat_verified.ids.contains(id));
        }
        prop_assert_eq!(ctx.crypto_ops.sig_verifies, flat_verified.verifies);
        prop_assert_eq!(ctx.crypto_ops.sig_verify_skips, flat_verified.skips);
    }
}
