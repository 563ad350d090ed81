//! Golden byte vectors: the exact bytes of every persisted or
//! transmitted format, pinned across builds.
//!
//! The round-trip suites (`wire_codec`, `wal_fuzz`, the codecs' unit
//! tests) compare an encoder with its own decoder, so a change that
//! moves a field in both passes there. These vectors were recorded
//! from the codecs as they stood before the block body, the integer
//! reader and the WAL framing were shared between formats; a codec
//! refactor must leave every one of them unchanged.
//!
//! * one peer frame per `Payload` kind (`wire::encode_message`),
//!   certificate and `BlockResponse` included;
//! * a hash-only `LOG` frame (`wire::encode_hash_only`), the form a
//!   node sends a peer known to store the tip, written down from its
//!   layout when the form was added;
//! * a client `Submit` and a `SubmitAck` (`client::encode_client_frame`);
//! * a `TxBatch`, the peer frame that pushes admitted client
//!   transactions (`client::encode_tx_batches`), written down from its
//!   layout when the frame was added;
//! * a WAL `Block` record, a WAL `Decided` record and a snapshot.

use tob_svd::crypto::{sha256, AggregateSignature, Keypair, VrfOutput, VrfProof};
use tob_svd::storage::{
    decode_snapshot, decode_wal, encode_record, encode_snapshot, BlockRecord, Snapshot, WalRecord,
};
use tob_svd::types::client::{
    decode_tx_batch, encode_client_frame, encode_tx_batches, AckStatus, ClientFrame, TxBatch,
};
use tob_svd::types::{
    wire, BlockStore, InstanceId, Log, Payload, SignedMessage, SignerSet, Transaction,
    ValidatorId, View,
};

/// Lower-case hex of `bytes`.
fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Fails naming every vector whose bytes moved, with its new hex.
fn assert_pinned(moved: &[String]) {
    assert!(moved.is_empty(), "bytes moved:\n{}", moved.join("\n"));
}

/// Genesis, an empty block by validator 2 in view 1, then a block by
/// validator 0 in view 2 carrying two transactions: a three-block log
/// whose announcement lists one ancestor and inlines one body with
/// transactions.
fn sample_log(store: &BlockStore) -> Log {
    Log::genesis(store).extend_empty(store, ValidatorId::new(2), View::new(1)).extend(
        store,
        ValidatorId::new(0),
        View::new(2),
        vec![Transaction::new(vec![1, 2, 3]), Transaction::new(vec![4])],
    )
}

fn signed(payload: Payload) -> SignedMessage {
    let sender = ValidatorId::new(1);
    SignedMessage::sign(&Keypair::from_seed(sender.key_seed()), sender, payload)
}

/// A certificate over `log`'s votes from validators 0, 2 and 5.
fn certificate(log: Log) -> Payload {
    let instance = InstanceId(7);
    let mut signers = SignerSet::empty();
    let mut sigs = Vec::new();
    for v in [0u32, 2, 5].map(ValidatorId::new) {
        let vote = SignedMessage::sign(&Keypair::from_seed(v.key_seed()), v, Payload::Log { instance, log });
        sigs.push(*vote.signature());
        signers.insert(v);
    }
    let agg = AggregateSignature::aggregate(&sigs.iter().collect::<Vec<_>>()).expect("three signatures");
    Payload::Certificate { instance, log, signers, agg }
}

/// Each peer payload kind over `sample_log`, with its recorded frame.
const WIRE: [(&str, &str); 8] = [
    (
        "log",
        "020000000100000000000000000900000000000000033609f0867fff32f84da8\
        dde7b8b5db2a2ae3200e27fcf81fc9bf0ff650e6826e0101942539cb7d552b2b\
        594e7b3e99732b6ff84bdd4b719629ded113fd4bfbf3338aec448b36b2fb0001\
        99fdee09902aef24f94adabd03fdbb8d31d8e6d9c4c8b4a50000000000000000\
        0000000200000002000000030102030000000104c0da1004a9e475ed5d47236f\
        e82c4f9157e98ee8ff32a836f69d81d0a675c57a",
    ),
    (
        "proposal",
        "0200000001010000000000000009a8c71d68ef9ea10140edd55f569b74dc7ad2\
        5d80f237679342f5b0048fd0948fc1cda26362828b69266512052b97cb3729e3\
        b052e4ade47c0a1e3383defe73c700000000000000033609f0867fff32f84da8\
        dde7b8b5db2a2ae3200e27fcf81fc9bf0ff650e6826e0101942539cb7d552b2b\
        594e7b3e99732b6ff84bdd4b719629ded113fd4bfbf3338aec448b36b2fb0001\
        99fdee09902aef24f94adabd03fdbb8d31d8e6d9c4c8b4a50000000000000000\
        0000000200000002000000030102030000000104f2bb21f7cef02aa0d7e85bd3\
        523dd289e1b229a47cd24dd7f03ad4087f819805",
    ),
    (
        "vote",
        "020000000102000000000000000900000000000000033609f0867fff32f84da8\
        dde7b8b5db2a2ae3200e27fcf81fc9bf0ff650e6826e0101942539cb7d552b2b\
        594e7b3e99732b6ff84bdd4b719629ded113fd4bfbf3338aec448b36b2fb0001\
        99fdee09902aef24f94adabd03fdbb8d31d8e6d9c4c8b4a50000000000000000\
        00000002000000020000000301020300000001047cb603626fb9423ff6f85c92\
        615f7bc92cbdc2b0f6f0f5294b1642dfe648bade",
    ),
    (
        "recovery",
        "020000000103000000000000000900000000000000033609f0867fff32f84da8\
        dde7b8b5db2a2ae3200e27fcf81fc9bf0ff650e6826e0101942539cb7d552b2b\
        594e7b3e99732b6ff84bdd4b719629ded113fd4bfbf3338aec448b36b2fb0001\
        99fdee09902aef24f94adabd03fdbb8d31d8e6d9c4c8b4a50000000000000000\
        0000000200000002000000030102030000000104384bf007a069ed513bbc5699\
        ba70634fbb4ac4f4b8079bd1f7e91826632cb294",
    ),
    (
        "finality-vote",
        "020000000104000000000000000900000000000000033609f0867fff32f84da8\
        dde7b8b5db2a2ae3200e27fcf81fc9bf0ff650e6826e0101942539cb7d552b2b\
        594e7b3e99732b6ff84bdd4b719629ded113fd4bfbf3338aec448b36b2fb0001\
        99fdee09902aef24f94adabd03fdbb8d31d8e6d9c4c8b4a50000000000000000\
        00000002000000020000000301020300000001045a0d4756c3e0569a896c011e\
        05849ca5ee73688da02b2d6dd038938caf3199a7",
    ),
    (
        "block-request",
        "0200000001053609f0867fff32f84da8dde7b8b5db2a2ae3200e27fcf81fc9bf\
        0ff650e6826e00000000000000013c6b03a4466819760f6bc3132730d0ca4a43\
        a2e2f6a40196123879fea0dcd9d3",
    ),
    (
        "block-response",
        "0200000001063609f0867fff32f84da8dde7b8b5db2a2ae3200e27fcf81fc9bf\
        0ff650e6826e00000000000000010000000000000002942539cb7d552b2b594e\
        7b3e99732b6ff84bdd4b719629ded113fd4bfbf3338a00000002000000000000\
        0001000000000000000000000000000000020000000200000003010203000000\
        01045325456fffbb456f9524c453d3c2af811c986d622793df0b282a56d6264a\
        75a2",
    ),
    (
        "certificate",
        "020000000107000000000000000700000000000000033609f0867fff32f84da8\
        dde7b8b5db2a2ae3200e27fcf81fc9bf0ff650e6826e0101942539cb7d552b2b\
        594e7b3e99732b6ff84bdd4b719629ded113fd4bfbf3338aec448b36b2fb0001\
        99fdee09902aef24f94adabd03fdbb8d31d8e6d9c4c8b4a50000000000000000\
        0000000200000002000000030102030000000104010000000000000025a9a589\
        07942a37953064b3d3f110768ab8d75b02dde7a0eb30b5f216256277e5b57d13\
        a5c12913c3c9c6b26b07f8c3b8d34e8a45d81754b7fea79ab8d65c9aba",
    ),
];

fn wire_payloads(store: &BlockStore) -> [Payload; 8] {
    let log = sample_log(store);
    let (vrf, proof) = (VrfOutput(sha256(b"vrf")), VrfProof(sha256(b"proof")));
    [
        Payload::Log { instance: InstanceId(9), log },
        Payload::Proposal { view: View::new(9), log, vrf, proof },
        Payload::Vote { instance: InstanceId(9), log },
        Payload::Recovery { from_view: View::new(9), log },
        Payload::FinalityVote { epoch: 9, log },
        Payload::BlockRequest { tip: log.tip(), from_height: 1 },
        Payload::BlockResponse { tip: log.tip(), from_height: 1, count: 2 },
        certificate(log),
    ]
}

#[test]
fn peer_frames_match_their_recorded_bytes() {
    let store = BlockStore::new();
    let mut moved = Vec::new();
    for ((kind, golden), payload) in WIRE.iter().zip(wire_payloads(&store)) {
        let msg = signed(payload);
        let frame = wire::encode_message(&msg, &store).expect("a stored chain encodes");
        assert_eq!(frame.len() as u64, wire::encoded_len(&msg, &store).expect("measures"), "{kind}");
        if hex(&frame) != *golden {
            moved.push(format!("{kind}: {}", hex(&frame)));
        }
        // A cold store decodes the request and the response, which
        // carries the whole chain; the announcements decode against the
        // sender's own store.
        let rx = match payload {
            Payload::BlockRequest { .. } | Payload::BlockResponse { .. } => BlockStore::new(),
            _ => store.clone(),
        };
        let back = wire::decode_message(frame, &rx).expect("a recorded frame decodes");
        assert_eq!((back.payload(), back.id()), (msg.payload(), msg.id()), "{kind}");
    }
    assert_pinned(&moved);
}

#[test]
fn a_hash_only_log_frame_matches_its_recorded_bytes() {
    let store = BlockStore::new();
    let msg = signed(wire_payloads(&store)[0]);
    // The `log` frame's header, length and tip; then k = 0 and a = 2,
    // the ancestors at heights 1 and 0 (the tip's parent first), no
    // window parent, no body; then the same signature.
    let golden = "020000000100000000000000000900000000000000033609f0867fff32f84da8\
        dde7b8b5db2a2ae3200e27fcf81fc9bf0ff650e6826e0002ec448b36b2fb0001\
        99fdee09902aef24f94adabd03fdbb8d31d8e6d9c4c8b4a5942539cb7d552b2b\
        594e7b3e99732b6ff84bdd4b719629ded113fd4bfbf3338ac0da1004a9e475ed\
        5d47236fe82c4f9157e98ee8ff32a836f69d81d0a675c57a";
    let frame = wire::encode_hash_only(&msg, &store).expect("a stored chain encodes");
    assert_eq!(hex(&frame), golden, "hash-only log bytes moved");
    let back = wire::decode_message(frame, &store).expect("the tip is stored");
    assert_eq!((back.payload(), back.id()), (msg.payload(), msg.id()));
}

#[test]
fn client_frames_match_their_recorded_bytes() {
    let payload = b"pay bob 3".to_vec();
    let tx = Transaction::new(payload.clone()).id();
    let frames = [
        (
            "submit",
            ClientFrame::Submit { client: 7, fee: 42, payload: payload.into() },
            "c5000000000000000007000000000000002a0000000970617920626f622033",
        ),
        (
            "submit-ack",
            ClientFrame::SubmitAck { tx, status: AckStatus::Busy },
            "c5013fdb47f7e11274b53ceb7e14d48547cdbd2827eb0d640e224259f6568fb9\
            2a8902",
        ),
    ];
    let mut moved = Vec::new();
    for (kind, frame, golden) in frames {
        let raw = encode_client_frame(&frame);
        if hex(&raw) != golden {
            moved.push(format!("{kind}: {}", hex(&raw)));
        }
    }
    assert_pinned(&moved);
}

#[test]
fn a_tx_batch_matches_its_recorded_bytes() {
    let sender = ValidatorId::new(1);
    let txs = vec![(42, Transaction::new(b"pay bob 3".to_vec())), (0, Transaction::new(vec![4]))];
    // Peer header (version 2, sender 1, tag 8), count 2, then per
    // transaction its fee, size and bytes.
    let golden = "0200000001080000000200000000000000\
        2a0000000970617920626f6220330000\
        0000000000000000000104";
    let frames = encode_tx_batches(sender, &txs, usize::MAX);
    let got: Vec<String> = frames.iter().map(|f| hex(f)).collect();
    assert_eq!(got, vec![golden.to_string()], "one frame, these bytes");
    assert_eq!(decode_tx_batch(&frames[0]), Ok(TxBatch { sender, txs }));
}

/// The WAL records of `sample_log`'s two blocks, parent first.
fn block_records(store: &BlockStore, log: Log) -> Vec<BlockRecord> {
    let ids = store.chain_range(log.tip(), 1).expect("stored chain");
    ids.into_iter()
        .map(|id| {
            let block = store.get(id).expect("stored block");
            BlockRecord {
                parent: block.parent(),
                expected_id: id,
                proposer: block.proposer().expect("not genesis"),
                view: block.view(),
                txs: block.txs().to_vec(),
            }
        })
        .collect()
}

#[test]
fn wal_records_and_snapshot_match_their_recorded_bytes() {
    let store = BlockStore::new();
    let log = sample_log(&store);
    let blocks = block_records(&store, log);
    let records = [
        (
            "block",
            WalRecord::Block(blocks[1].clone()),
            "0000005d52a805eb01ec448b36b2fb000199fdee09902aef24f94adabd03fdbb\
            8d31d8e6d9c4c8b4a53609f0867fff32f84da8dde7b8b5db2a2ae3200e27fcf8\
            1fc9bf0ff650e6826e0000000000000000000000020000000200000003010203\
            0000000104",
        ),
        (
            "decided",
            WalRecord::Decided { tip: log.tip(), len: log.len() },
            "000000298a405f3b023609f0867fff32f84da8dde7b8b5db2a2ae3200e27fcf8\
            1fc9bf0ff650e6826e0000000000000003",
        ),
    ];
    let mut moved = Vec::new();
    for (kind, record, golden) in records {
        let mut image = Vec::new();
        encode_record(&mut image, &record).expect("within bounds");
        if hex(&image) != golden {
            moved.push(format!("{kind}: {}", hex(&image)));
        }
        assert_eq!(decode_wal(&image), (vec![record], 0), "{kind}");
    }
    let snapshot = Snapshot { tip: log.tip(), len: log.len(), blocks };
    let image = encode_snapshot(&snapshot).expect("within bounds");
    let golden = "000000d9df3aacf5033609f0867fff32f84da8dde7b8b5db2a2ae3200e27fcf8\
        1fc9bf0ff650e6826e000000000000000300000002942539cb7d552b2b594e7b\
        3e99732b6ff84bdd4b719629ded113fd4bfbf3338aec448b36b2fb000199fdee\
        09902aef24f94adabd03fdbb8d31d8e6d9c4c8b4a50000000200000000000000\
        0100000000ec448b36b2fb000199fdee09902aef24f94adabd03fdbb8d31d8e6\
        d9c4c8b4a53609f0867fff32f84da8dde7b8b5db2a2ae3200e27fcf81fc9bf0f\
        f650e6826e000000000000000000000002000000020000000301020300000001\
        04";
    if hex(&image) != golden {
        moved.push(format!("snapshot: {}", hex(&image)));
    }
    assert_eq!(decode_snapshot(&image), Ok(snapshot));
    assert_pinned(&moved);
}
