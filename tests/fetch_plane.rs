//! The one fetch plane under private stores: a peer frame that does not
//! decode yet waits in the validator's pending set
//! (`Validator::park_frame`), is fetched from the codec's start hint at
//! its claimed sender, retried as a broadcast from the same hint, and
//! enters through `on_message` — admit gate first — once the gap closes.

use tob_svd::crypto::Keypair;
use tob_svd::protocol::{SyncState, TobConfig, Validator};
use tob_svd::sim::{Context, Mempool, Node, Outgoing};
use tob_svd::types::{
    wire, BlockId, BlockStore, Delta, InstanceId, Log, Payload, SignedMessage, Time, ValidatorId,
    View,
};

const DELTA: u64 = 8;

fn ctx_at(t: u64, store: &BlockStore) -> Context {
    Context::new(Time::new(t), ValidatorId::new(0), Delta::new(DELTA), store.clone(), Mempool::new())
}

fn keypair(v: u32) -> Keypair {
    Keypair::from_seed(ValidatorId::new(v).key_seed())
}

fn sign(v: u32, payload: Payload) -> SignedMessage {
    SignedMessage::sign(&keypair(v), ValidatorId::new(v), payload)
}

/// The `BlockRequest`s of an outbox: (targets, `None` = broadcast; tip;
/// from_height).
fn requests(ctx: &Context) -> Vec<(Option<Vec<ValidatorId>>, BlockId, u64)> {
    ctx.outbox()
        .iter()
        .filter_map(|out| {
            let (to, msg) = match out {
                Outgoing::Broadcast(m) => (None, m),
                Outgoing::Multicast(t, m) => (Some(t.clone()), m),
                _ => return None,
            };
            match msg.payload() {
                Payload::BlockRequest { tip, from_height } => Some((to, *tip, *from_height)),
                _ => None,
            }
        })
        .collect()
}

/// Store A holds `g → b1 → b2 → b3 → b4`; store B holds `b1, b2`, and
/// B's validator knows them (two announcements carried them inline).
struct TwoStores {
    a: BlockStore,
    b: BlockStore,
    chain: Vec<Log>,
    val: Validator,
}

impl TwoStores {
    fn new() -> Self {
        let a = BlockStore::new();
        let mut chain = vec![Log::genesis(&a)];
        for view in 1..=4 {
            let next = chain[chain.len() - 1].extend_empty(&a, ValidatorId::new(1), View::new(view));
            chain.push(next);
        }
        let b = BlockStore::new();
        let mut val = Validator::new(ValidatorId::new(0), TobConfig::new(4), &b);
        for (i, log) in chain[1..=2].iter().enumerate() {
            b.insert(a.get(log.tip()).expect("in A").as_ref().clone()).expect("links in B");
            let vote = sign(2, Payload::Vote { instance: InstanceId(10 + i as u64), log: *log });
            val.on_message(&vote, &mut ctx_at(1, &b));
        }
        assert!(val.sync().knows(chain[2].tip()));
        TwoStores { a, b, chain, val }
    }

    /// Encodes `msg` (a LOG for `b4`) at A, checks that it misses
    /// exactly `b3` at B with the codec's hint one above `b2`, and hands
    /// it to B's validator as the TCP ingest loop would.
    fn park(&mut self, msg: &SignedMessage, ctx: &mut Context) {
        let raw = wire::encode_message(msg, &self.a).expect("encodes at A");
        let Err(wire::WireError::MissingBlocks { missing, from_height }) =
            wire::decode_message(&raw, &self.b)
        else {
            panic!("B lacks b3: the frame must not decode yet");
        };
        assert_eq!((missing, from_height), (self.chain[3].tip(), 3));
        self.val.park_frame(raw, missing, from_height, ctx);
    }

    /// A's answer to the fetch for `b3` from height 3, decoded into B;
    /// returns the context it was handled in.
    fn deliver_b3(&mut self, t: u64) -> Context {
        let tip = self.chain[3].tip();
        let response = sign(1, Payload::BlockResponse { tip, from_height: 3, count: 1 });
        let raw = wire::encode_message(&response, &self.a).expect("encodes at A");
        let decoded = wire::decode_message(&raw, &self.b).expect("the anchor b2 is in B");
        let mut ctx = ctx_at(t, &self.b);
        self.val.on_message(&decoded, &mut ctx);
        ctx
    }
}

#[test]
fn a_parked_frame_fetches_from_the_codec_hint_retries_and_drains() {
    let mut s = TwoStores::new();
    let b3 = s.chain[3].tip();
    let vote = sign(1, Payload::Log { instance: InstanceId(0), log: s.chain[4] });

    // One request, at the claimed sender, from the codec's hint:
    // `fetch_start` cannot walk a chain B lacks and would ask from 1.
    let mut ctx = ctx_at(3, &s.b);
    s.park(&vote, &mut ctx);
    assert_eq!(requests(&ctx), vec![(Some(vec![ValidatorId::new(1)]), b3, 3)]);
    assert_eq!(s.val.sync().pending_len(), 1);

    // Unanswered for RETRY_AFTER_DELTAS·Δ: the next boundary retries as
    // a broadcast, from the same hint.
    let boundary = (3 + SyncState::RETRY_AFTER_DELTAS * DELTA).next_multiple_of(DELTA);
    let mut ctx = ctx_at(boundary, &s.b);
    s.val.on_phase(&mut ctx);
    assert_eq!(requests(&ctx), vec![(None, b3, 3)]);
    assert!(s.val.ga(View::ZERO).is_none(), "nothing processed while parked");

    // The response lands b3 in B: the frame decodes, passes the admit
    // gate and is processed.
    s.deliver_b3(boundary + 1);
    assert_eq!(s.val.sync().pending_len(), 0);
    assert!(s.val.is_verified(&vote));
    assert!(s.val.ga(View::ZERO).is_some(), "the drained LOG reached GA_0");
}

#[test]
fn a_parked_frame_with_a_forged_signature_is_stopped_by_the_admit_gate() {
    let mut s = TwoStores::new();
    let genuine = sign(1, Payload::Log { instance: InstanceId(0), log: s.chain[4] });
    let forged =
        SignedMessage::from_parts(ValidatorId::new(1), *genuine.payload(), keypair(3).sign(b"forged"));

    let mut ctx = ctx_at(3, &s.b);
    s.park(&forged, &mut ctx);
    assert_eq!(s.val.sync().pending_len(), 1);
    let verified = s.val.verified_ids();
    let ctx = s.deliver_b3(4);
    assert_eq!(s.val.sync().pending_len(), 0, "decoded and handed to on_message");
    assert_eq!(ctx.crypto_ops.sig_verifies, 2, "the response, then the drained frame");
    assert_eq!(s.val.verified_ids(), verified, "the forgery was not filed as verified");
    assert!(s.val.ga(View::ZERO).is_none(), "a forged LOG never reaches the GA");
}
