//! Property tests of the delta-sync wire codec: announcements
//! round-trip to synced receivers, cold receivers get actionable
//! `MissingBlocks` errors, fetch responses transfer ranges across
//! stores, and mutations are rejected or break signatures.

use proptest::prelude::*;
use tob_svd::crypto::{AggregateSignature, Keypair};
use tob_svd::types::{
    wire, BlockStore, InstanceId, Log, Payload, SignedMessage, SignerSet, Transaction,
    ValidatorId, View,
};

#[derive(Clone, Debug)]
struct MsgSpec {
    sender: u32,
    tag: u8,
    instance: u64,
    /// Blocks on the carried log: per block, (proposer, tx sizes).
    blocks: Vec<(u32, Vec<u16>)>,
}

/// Number of generator indices: `MsgSpec::tag` ranges over `0..TAGS`,
/// one per `Payload` variant.
const TAGS: u8 = 8;

/// The generator index (`MsgSpec::tag`) that makes `build_message`
/// produce `payload`'s variant. No wildcard arm, on purpose: a new
/// `Payload` variant stops this suite compiling until it has an index
/// here — and then `fuzz_matrix_generates_every_payload_variant` fails
/// until `build_message` generates it, so no variant reaches the wire
/// without truncation/mutation coverage.
fn generator_index(payload: &Payload) -> u8 {
    match payload {
        Payload::Log { .. } => 0,
        Payload::Proposal { .. } => 1,
        Payload::Vote { .. } => 2,
        Payload::Recovery { .. } => 3,
        Payload::FinalityVote { .. } => 4,
        Payload::BlockRequest { .. } => 5,
        Payload::BlockResponse { .. } => 6,
        Payload::Certificate { .. } => 7,
    }
}

fn msg_spec() -> impl Strategy<Value = MsgSpec> {
    (
        0u32..16,
        0..TAGS,
        0u64..100,
        proptest::collection::vec(
            (0u32..16, proptest::collection::vec(1u16..600, 0..4)),
            0..5,
        ),
    )
        .prop_map(|(sender, tag, instance, blocks)| MsgSpec { sender, tag, instance, blocks })
}

fn build_message(spec: &MsgSpec, store: &BlockStore) -> SignedMessage {
    let mut log = Log::genesis(store);
    for (i, (proposer, tx_sizes)) in spec.blocks.iter().enumerate() {
        let txs: Vec<Transaction> = tx_sizes
            .iter()
            .enumerate()
            .map(|(j, size)| Transaction::synthetic((i * 100 + j) as u64, *size as usize))
            .collect();
        log = log.extend(store, ValidatorId::new(*proposer), View::new(i as u64 + 1), txs);
    }
    let sender = ValidatorId::new(spec.sender);
    let payload = match spec.tag {
        0 => Payload::Log { instance: InstanceId(spec.instance), log },
        1 => {
            let (vrf, proof) =
                tob_svd::protocol::leader::vrf_for(sender, View::new(spec.instance));
            Payload::Proposal { view: View::new(spec.instance), log, vrf, proof }
        }
        2 => Payload::Vote { instance: InstanceId(spec.instance), log },
        3 => Payload::Recovery { from_view: View::new(spec.instance), log },
        4 => Payload::FinalityVote { epoch: spec.instance, log },
        5 => Payload::BlockRequest { tip: log.tip(), from_height: 1 + spec.instance % 4 },
        7 => certificate_over(InstanceId(spec.instance), log, spec.sender),
        6 if log.len() > 1 => {
            Payload::BlockResponse { tip: log.tip(), from_height: 1, count: log.len() - 1 }
        }
        // A response must carry at least one block; fall back to a
        // request for empty chains.
        6 => Payload::BlockRequest { tip: log.tip(), from_height: 1 },
        tag => panic!("generator index {tag} outside 0..{TAGS}"),
    };
    let kp = Keypair::from_seed(sender.key_seed());
    SignedMessage::sign(&kp, sender, payload)
}

/// A quorum certificate over `Payload::Log { instance, log }` votes from
/// three validators starting at `first_signer` — genuine signatures, so
/// decoded certificates aggregate-verify like live ones.
fn certificate_over(instance: InstanceId, log: Log, first_signer: u32) -> Payload {
    let mut signers = SignerSet::empty();
    let mut sigs = Vec::new();
    for i in first_signer..first_signer + 3 {
        let v = ValidatorId::new(i);
        let vkp = Keypair::from_seed(v.key_seed());
        let vote = SignedMessage::sign(&vkp, v, Payload::Log { instance, log });
        sigs.push(*vote.signature());
        signers.insert(v);
    }
    let agg = AggregateSignature::aggregate(&sigs.iter().collect::<Vec<_>>())
        .expect("three votes aggregate");
    Payload::Certificate { instance, log, signers, agg }
}

/// A receiver store holding everything the message's wire frame does
/// *not* carry: the chain below the announcement's inline window. Fetch
/// payloads are self-contained, so the receiver starts cold.
fn synced_receiver(msg: &SignedMessage, store: &BlockStore) -> BlockStore {
    let rx = BlockStore::new();
    if let Some(log) = msg.payload().log() {
        let keep = log.len().saturating_sub(1 + wire::INLINE_WINDOW);
        if let Some(ids) = store.chain_range(log.tip(), 1) {
            for id in ids.iter().take(keep as usize) {
                rx.insert(store.get(*id).unwrap().as_ref().clone()).expect("prefix transfers");
            }
        }
    }
    rx
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// Round trip to a synced receiver preserves the payload and the
    /// signature's validity; the inline window fills the receiver's
    /// store up to the announced tip.
    #[test]
    fn roundtrip_across_stores(spec in msg_spec()) {
        let tx_store = BlockStore::new();
        let msg = build_message(&spec, &tx_store);
        let bytes = wire::encode_message(&msg, &tx_store).expect("encode");
        prop_assert_eq!(bytes.len() as u64, wire::encoded_len(&msg, &tx_store).expect("len"));

        let rx_store = synced_receiver(&msg, &tx_store);
        let decoded = wire::decode_message(&bytes, &rx_store).expect("well-formed");
        prop_assert_eq!(decoded.sender(), msg.sender());
        prop_assert_eq!(decoded.payload(), msg.payload());
        let kp = Keypair::from_seed(msg.sender().key_seed());
        prop_assert!(decoded.verify(&kp.public()));
        // The receiver's store now resolves the whole announced chain.
        if let Some(log) = decoded.payload().log() {
            prop_assert_eq!(rx_store.height(log.tip()), Some(log.len() - 1));
        }
    }

    /// A cold receiver either decodes (fetch payloads and short chains
    /// are self-contained) or gets the recoverable `MissingBlocks`
    /// error naming the block to fetch — never anything else.
    #[test]
    fn cold_receiver_errors_are_actionable(spec in msg_spec()) {
        let tx_store = BlockStore::new();
        let msg = build_message(&spec, &tx_store);
        let bytes = wire::encode_message(&msg, &tx_store).expect("encode");
        let cold = BlockStore::new();
        match wire::decode_message(&bytes, &cold) {
            Ok(decoded) => prop_assert_eq!(decoded.payload(), msg.payload()),
            Err(wire::WireError::MissingBlocks { missing, from_height }) => {
                // The named block really is part of the referenced chain
                // and the hint is a sane start.
                prop_assert!(tx_store.contains(missing));
                prop_assert!(from_height >= 1);
            }
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }

    /// Every strict prefix of an encoding fails to decode (no partial
    /// parses).
    #[test]
    fn truncation_always_fails(spec in msg_spec(), cut_frac in 0.0f64..1.0) {
        let store = BlockStore::new();
        let msg = build_message(&spec, &store);
        let bytes = wire::encode_message(&msg, &store).expect("encode");
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        let rx = synced_receiver(&msg, &store);
        prop_assert!(wire::decode_message(&bytes[..cut], &rx).is_err());
    }

    /// Flipping any single byte either makes the message undecodable or
    /// breaks its signature — the wire format carries no malleability
    /// (in particular the advisory ancestor-hash list is
    /// integrity-checked against the reconstructed chain).
    #[test]
    fn single_byte_flips_never_verify(spec in msg_spec(), pos_frac in 0.0f64..1.0) {
        let store = BlockStore::new();
        let msg = build_message(&spec, &store);
        let mut bytes = wire::encode_message(&msg, &store).expect("encode");
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 0x01;
        let rx = synced_receiver(&msg, &store);
        match wire::decode_message(&bytes, &rx) {
            Err(_) => {} // rejected outright: fine
            Ok(decoded) => {
                let kp = Keypair::from_seed(decoded.sender().key_seed());
                prop_assert!(
                    !decoded.verify(&kp.public()),
                    "tampered byte {pos} still verifies"
                );
            }
        }
    }

    /// Fuzz smoke: arbitrary byte-mutation storms (flips, truncations,
    /// garbage suffixes) over encodings of every payload variant —
    /// announcements, both fetch payloads and quorum certificates —
    /// must never panic the decoder: it returns `Ok` or `Err`, nothing
    /// else. (`tag` in the spec ranges over all `TAGS` variants.)
    #[test]
    fn decode_never_panics_on_mutated_bytes(
        spec in msg_spec(),
        flips in proptest::collection::vec((any::<u16>(), 1u8..=255), 1..8),
        action in 0u8..4,
        amount in any::<u16>(),
    ) {
        let store = BlockStore::new();
        let msg = build_message(&spec, &store);
        let mut bytes = wire::encode_message(&msg, &store).expect("encode");
        match action {
            0 => {
                for (pos, val) in &flips {
                    let i = *pos as usize % bytes.len();
                    bytes[i] ^= val;
                }
            }
            1 => bytes.truncate(amount as usize % (bytes.len() + 1)),
            2 => bytes.extend(flips.iter().map(|(_, v)| *v)),
            _ => {
                // Flip, then cut: mutated length fields meet a short
                // buffer.
                for (pos, val) in &flips {
                    let i = *pos as usize % bytes.len();
                    bytes[i] ^= val;
                }
                bytes.truncate(amount as usize % (bytes.len() + 1));
            }
        }
        let rx = synced_receiver(&msg, &store);
        // The assertion is the return itself: a panic fails the case
        // (the harness catches unwinds and reports the input).
        let _ = wire::decode_message(&bytes, &rx);
    }
}

/// The fuzz matrix above reaches every `Payload` variant: each index in
/// `0..TAGS` generates the variant `generator_index` maps back to it.
#[test]
fn fuzz_matrix_generates_every_payload_variant() {
    let store = BlockStore::new();
    for tag in 0..TAGS {
        let spec = MsgSpec { sender: 1, tag, instance: 3, blocks: vec![(0, vec![40]), (1, vec![])] };
        let msg = build_message(&spec, &store);
        assert_eq!(generator_index(msg.payload()), tag, "{:?}", msg.payload());
    }
}

/// Exhaustive (non-random) coverage: every `Payload` variant
/// round-trips, and every strict prefix of its encoding is rejected.
#[test]
fn every_variant_roundtrips_and_rejects_truncation() {
    let store = BlockStore::new();
    let mut log = Log::genesis(&store);
    for i in 0..3u64 {
        log = log.extend(
            &store,
            ValidatorId::new(i as u32),
            View::new(i + 1),
            vec![Transaction::synthetic(i, 24)],
        );
    }
    let sender = ValidatorId::new(3);
    let (vrf, proof) = tob_svd::protocol::leader::vrf_for(sender, View::new(9));
    let payloads = [
        Payload::Log { instance: InstanceId(9), log },
        Payload::Proposal { view: View::new(9), log, vrf, proof },
        Payload::Vote { instance: InstanceId(9), log },
        Payload::Recovery { from_view: View::new(9), log },
        Payload::FinalityVote { epoch: 9, log },
        Payload::BlockRequest { tip: log.tip(), from_height: 2 },
        Payload::BlockResponse { tip: log.tip(), from_height: 1, count: log.len() - 1 },
        certificate_over(InstanceId(9), log, 0),
    ];
    let kp = Keypair::from_seed(sender.key_seed());
    for payload in payloads {
        let msg = SignedMessage::sign(&kp, sender, payload);
        let bytes = wire::encode_message(&msg, &store).expect("encode");
        assert_eq!(bytes.len() as u64, wire::encoded_len(&msg, &store).expect("len"));

        let rx = synced_receiver(&msg, &store);
        let decoded = wire::decode_message(&bytes, &rx)
            .unwrap_or_else(|e| panic!("{payload:?} failed to decode: {e}"));
        assert_eq!(decoded.payload(), &payload, "identity broken for {payload:?}");
        assert_eq!(decoded.sender(), sender);
        assert!(decoded.verify(&kp.public()), "signature broken for {payload:?}");

        for cut in 0..bytes.len() {
            let rx = synced_receiver(&msg, &store);
            assert!(
                wire::decode_message(&bytes[..cut], &rx).is_err(),
                "{payload:?}: {cut}-byte prefix of {} decoded",
                bytes.len()
            );
        }
    }
}

/// The delta-sync catch-up flow across stores, end to end at the codec
/// level: a cold receiver decodes an announcement, learns exactly which
/// block it is missing, fetches the range, and can then decode the
/// original announcement.
#[test]
fn announcement_then_fetch_then_replay_converges_stores() {
    let store = BlockStore::new();
    let mut log = Log::genesis(&store);
    for i in 0..6u64 {
        log = log.extend(
            &store,
            ValidatorId::new(0),
            View::new(i + 1),
            vec![Transaction::synthetic(i, 32)],
        );
    }
    let sender = ValidatorId::new(0);
    let kp = Keypair::from_seed(sender.key_seed());
    let announcement = SignedMessage::sign(
        &kp,
        sender,
        Payload::Log { instance: InstanceId(6), log },
    );
    let frame = wire::encode_message(&announcement, &store).expect("encode");

    let rx = BlockStore::new();
    let Err(wire::WireError::MissingBlocks { missing, from_height }) =
        wire::decode_message(&frame, &rx)
    else {
        panic!("cold receiver must report missing blocks");
    };
    assert_eq!(from_height, 1);

    // The "peer" serves the requested range.
    let response = SignedMessage::sign(
        &kp,
        sender,
        Payload::BlockResponse {
            tip: missing,
            from_height,
            count: store.height(missing).unwrap() - from_height + 1,
        },
    );
    let resp_frame = wire::encode_message(&response, &store).expect("encode");
    wire::decode_message(&resp_frame, &rx).expect("response decodes into the cold store");

    // Replaying the parked announcement now succeeds.
    let decoded = wire::decode_message(&frame, &rx).expect("replay decodes");
    assert_eq!(decoded.payload(), announcement.payload());
    assert_eq!(rx.height(log.tip()), Some(log.len() - 1));
    // Content survived the transfer: all six transactions are present.
    assert_eq!(rx.transactions_on_chain(log.tip()).len(), 6);
}

#[test]
fn decoder_enforces_limits() {
    // A log-length field beyond MAX_LOG_LEN must be rejected without
    // attempting allocation.
    let store = BlockStore::new();
    let msg = build_message(
        &MsgSpec { sender: 0, tag: 0, instance: 1, blocks: vec![] },
        &store,
    );
    let mut bytes = wire::encode_message(&msg, &store).expect("encode");
    // Layout: version(1) + sender(4) + tag(1) + instance(8) + len(8).
    let len_off = 1 + 4 + 1 + 8;
    bytes[len_off..len_off + 8].copy_from_slice(&u64::MAX.to_be_bytes());
    let rx = BlockStore::new();
    assert!(matches!(
        wire::decode_message(&bytes, &rx),
        Err(wire::WireError::LimitExceeded(_))
    ));
}
