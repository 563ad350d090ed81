//! Layer probes: timed loops over the public functions of each layer,
//! fed with the workload's own shape (validator count, chain depth,
//! block contents) and the messages captured on its traced run.
//!
//! Probes price a layer's operations in isolation; the traced run
//! supplies how often the workload performs them. They carry no bound:
//! a probe answers "did this layer get cheaper", the end-to-end metrics
//! answer "did it matter".

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use tob_svd::crypto::{AggregateSignature, KeyCache, PublicKey, Signature, Vrf};
use tob_svd::ga::support::highest_supported;
use tob_svd::ga::Ga3;
use tob_svd::protocol::SyncState;
use tob_svd::sim::gossip::GossipState;
use tob_svd::sim::{AdmissionPolicy, Mempool};
use tob_svd::storage::{
    replay_into, BlockRecord, DurableStore, FileDurable, MemDurable, WalRecord,
};
use tob_svd::types::{
    wire, BlockId, BlockStore, Delta, InstanceId, Log, Payload, SignedMessage, Time, Transaction,
    ValidatorId, View,
};

use crate::Outcome;

/// Wall budget of one timed loop. Thirty loops keep the probe pass
/// around two seconds.
const BUDGET: Duration = Duration::from_millis(60);
/// The shallow reference depth reported next to the workload's own.
const SHALLOW: u64 = 16;
/// Deepest synthetic chain built: keeps the probe pass bounded on long
/// horizons while still far beyond [`SHALLOW`].
const MAX_DEPTH: u64 = 1024;

pub struct ProbeInput<'a> {
    pub n: usize,
    /// Chain depth the workload reaches (its view count).
    pub depth: u64,
    pub txs_per_block: usize,
    pub tx_bytes: usize,
    /// Unique broadcasts captured on the traced run.
    pub messages: &'a [SignedMessage],
    /// A store holding every chain `messages` reference.
    pub store: &'a BlockStore,
    /// `Some`: probe the file-backed WAL there; `None`: the in-memory one.
    pub wal_dir: Option<PathBuf>,
}

/// Runs `batch` (which reports how many operations it performed) until
/// the budget is spent; returns nanoseconds per operation.
fn time_per_op(mut batch: impl FnMut() -> u64) -> f64 {
    let t0 = Instant::now();
    let mut ops = 0;
    loop {
        ops += batch();
        if t0.elapsed() >= BUDGET {
            break;
        }
    }
    t0.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// A synthetic decided chain: `depth` blocks beyond genesis with the
/// workload's block contents. Returns the block ids, genesis first.
fn build_chain(store: &BlockStore, depth: u64, input: &ProbeInput, salt: u64) -> Vec<BlockId> {
    let mut ids = vec![store.genesis()];
    for height in 0..depth {
        let txs = (0..input.txs_per_block as u64)
            .map(|j| Transaction::synthetic((salt << 40) | (height << 8) | j, input.tx_bytes))
            .collect();
        let proposer = ValidatorId::new((height % input.n as u64) as u32);
        let parent = *ids.last().expect("genesis");
        ids.push(
            store
                .append(parent, proposer, View::new(height), txs)
                .expect("parent stored"),
        );
    }
    ids
}

fn kind_name(payload: &Payload) -> &'static str {
    match payload {
        Payload::Log { .. } => "log",
        Payload::Proposal { .. } => "proposal",
        Payload::Vote { .. } => "vote",
        Payload::Recovery { .. } => "recovery",
        Payload::FinalityVote { .. } => "finality_vote",
        Payload::Certificate { .. } => "certificate",
        Payload::BlockRequest { .. } => "block_request",
        Payload::BlockResponse { .. } => "block_response",
    }
}

pub fn run(input: &ProbeInput) -> Outcome {
    let mut out = Outcome::default();
    assert!(
        !input.messages.is_empty(),
        "the traced run captured no broadcasts"
    );
    let depth = input.depth.clamp(1, MAX_DEPTH);
    wire_probes(input, &mut out);
    crypto_probes(input, &mut out);
    gossip_probe(input, &mut out);
    let mut depths = vec![SHALLOW.min(depth), depth];
    depths.dedup();
    for d in depths {
        let at_workload_depth = d == depth;
        let mut scratch = Outcome::default();
        store_probes(input, d, &mut scratch);
        ga_probes(input, d, &mut scratch);
        mempool_probes(input, d, &mut scratch);
        sync_probe(input, d, &mut scratch);
        if at_workload_depth {
            out.absorb(scratch);
        } else {
            out.note(format!("at depth {d}: {}", scratch.metrics_json()));
        }
    }
    storage_probes(input, depth, &mut out);
    out
}

/// `wire::{encode_message, decode_message, encoded_len}` per payload
/// kind; the headline numbers are the capture-weighted means.
fn wire_probes(input: &ProbeInput, out: &mut Outcome) {
    let mut by_kind: BTreeMap<&'static str, Vec<SignedMessage>> = BTreeMap::new();
    for msg in input.messages {
        by_kind
            .entry(kind_name(msg.payload()))
            .or_default()
            .push(*msg);
    }
    let store = input.store;
    let (mut encode, mut decode, mut len, mut bytes) = (0.0, 0.0, 0.0, 0.0);
    for (kind, msgs) in &by_kind {
        let frames: Vec<_> = msgs
            .iter()
            .map(|m| wire::encode_message(m, store).expect("captured message encodes"))
            .collect();
        for (msg, frame) in msgs.iter().zip(&frames) {
            let back = wire::decode_message(frame.clone(), store).expect("own frame decodes");
            assert_eq!(
                back.id(),
                msg.id(),
                "wire round trip changed a {kind} message"
            );
        }
        let weight = msgs.len() as f64 / input.messages.len() as f64;
        let encode_ns = time_per_op(|| {
            for m in msgs {
                black_box(wire::encode_message(black_box(m), store).expect("encodes"));
            }
            msgs.len() as u64
        });
        let decode_ns = time_per_op(|| {
            for f in &frames {
                black_box(wire::decode_message(black_box(f.clone()), store).expect("decodes"));
            }
            frames.len() as u64
        });
        let len_ns = time_per_op(|| {
            for m in msgs {
                black_box(wire::encoded_len(black_box(m), store).expect("measures"));
            }
            msgs.len() as u64
        });
        let mean_bytes = frames.iter().map(|f| f.len()).sum::<usize>() as f64 / frames.len() as f64;
        out.note(format!(
            "types.wire {kind}: {} msgs, {mean_bytes:.0} B/msg, encode {encode_ns:.0} ns, decode {decode_ns:.0} ns, encoded_len {len_ns:.0} ns",
            msgs.len()
        ));
        encode += weight * encode_ns;
        decode += weight * decode_ns;
        len += weight * len_ns;
        bytes += weight * mean_bytes;
    }
    out.metric("types.wire.encode_ns_per_msg", encode);
    out.metric("types.wire.decode_ns_per_msg", decode);
    out.metric("types.wire.encoded_len_ns_per_msg", len);
    out.metric("types.wire.bytes_per_msg", bytes);
}

/// `Keypair::sign`, `SignedMessage::verify`, `Vrf::verify` and
/// `AggregateSignature::{aggregate, aggregate_verify}` over `n` signers.
fn crypto_probes(input: &ProbeInput, out: &mut Outcome) {
    let msgs = input.messages;
    let keys: Vec<PublicKey> = msgs
        .iter()
        .map(|m| KeyCache::public(m.sender().key_seed()))
        .collect();
    let signer = KeyCache::keypair(ValidatorId::new(0).key_seed());
    let digests: Vec<_> = msgs.iter().map(|m| m.id()).collect();
    out.metric(
        "crypto.sign_ns",
        time_per_op(|| {
            for d in &digests {
                black_box(signer.sign(black_box(d.as_bytes())));
            }
            digests.len() as u64
        }),
    );
    out.metric(
        "crypto.sig_verify_ns",
        time_per_op(|| {
            for (m, pk) in msgs.iter().zip(&keys) {
                assert!(black_box(m).verify(pk), "captured message must verify");
            }
            msgs.len() as u64
        }),
    );

    let claims: Vec<_> = (0..input.n.min(64) as u32)
        .map(|i| {
            let seed = ValidatorId::new(i).key_seed();
            let (output, proof) = Vrf::new(KeyCache::keypair(seed)).eval(u64::from(i));
            (KeyCache::public(seed), u64::from(i), output, proof)
        })
        .collect();
    out.metric(
        "crypto.vrf_verify_ns",
        time_per_op(|| {
            for (pk, view, output, proof) in &claims {
                assert!(
                    Vrf::verify(pk, *view, black_box(output), proof),
                    "own VRF claim verifies"
                );
            }
            claims.len() as u64
        }),
    );

    // One quorum certificate's worth: every validator's vote on one log.
    let payload = Payload::Log {
        instance: InstanceId(1),
        log: Log::genesis(input.store),
    };
    let votes: Vec<SignedMessage> = ValidatorId::all(input.n)
        .map(|v| SignedMessage::sign(&KeyCache::keypair(v.key_seed()), v, payload))
        .collect();
    let sigs: Vec<&Signature> = votes.iter().map(SignedMessage::signature).collect();
    let bindings: Vec<_> = votes
        .iter()
        .map(|v| SignedMessage::binding_for(v.sender(), &payload))
        .collect();
    let binding_bytes: Vec<&[u8]> = bindings.iter().map(|b| b.as_bytes().as_slice()).collect();
    let vote_keys: Vec<PublicKey> = votes
        .iter()
        .map(|v| KeyCache::public(v.sender().key_seed()))
        .collect();
    let vote_key_refs: Vec<&PublicKey> = vote_keys.iter().collect();
    let agg = AggregateSignature::aggregate(&sigs).expect("n ≥ 1 signatures");
    out.metric(
        "crypto.agg_build_ns_per_signer",
        time_per_op(|| {
            black_box(AggregateSignature::aggregate(black_box(&sigs)).expect("aggregates"));
            sigs.len() as u64
        }),
    );
    out.metric(
        "crypto.agg_verify_ns_per_signer",
        time_per_op(|| {
            assert!(agg.aggregate_verify(black_box(&binding_bytes), &vote_key_refs));
            sigs.len() as u64
        }),
    );
}

/// `GossipState::on_receive`: each captured message once fresh and once
/// as a duplicate, the mix a relayed broadcast sees at minimum.
fn gossip_probe(input: &ProbeInput, out: &mut Outcome) {
    out.metric(
        "sim.gossip.on_receive_ns",
        time_per_op(|| {
            let mut gossip = GossipState::new();
            for _ in 0..2 {
                for m in input.messages {
                    black_box(gossip.on_receive(black_box(m)));
                }
            }
            2 * input.messages.len() as u64
        }),
    );
}

/// `BlockStore::{append, lca, chain_range, transactions_on_chain}` on a
/// chain of `depth` blocks with a sibling fork from its midpoint.
fn store_probes(input: &ProbeInput, depth: u64, out: &mut Outcome) {
    let mut salt = 0;
    out.metric(
        "types.store.append_ns",
        time_per_op(|| {
            salt += 1;
            black_box(build_chain(&BlockStore::new(), depth, input, salt));
            depth
        }),
    );
    let store = BlockStore::new();
    let main = build_chain(&store, depth, input, 1);
    let tip = *main.last().expect("tip");
    let fork_parent = main[main.len() / 2];
    let mut fork_tip = fork_parent;
    for height in 0..(depth / 2).max(1) {
        fork_tip = store
            .append(
                fork_tip,
                ValidatorId::new(0),
                View::new(depth + height),
                Vec::new(),
            )
            .expect("fork parent stored");
    }
    assert_eq!(
        store.lca(tip, fork_tip),
        Some(fork_parent),
        "lca finds the fork point"
    );
    out.metric(
        "types.store.lca_ns",
        time_per_op(|| {
            black_box(store.lca(black_box(tip), fork_tip));
            1
        }),
    );
    out.metric(
        "types.store.chain_range_ns",
        time_per_op(|| {
            black_box(store.chain_range(black_box(tip), 1));
            1
        }),
    );
    out.metric(
        "types.store.txs_on_chain_ns",
        time_per_op(|| {
            black_box(store.transactions_on_chain(black_box(tip)));
            1
        }),
    );
}

/// `Ga3::{on_log, on_phase}` and `support::highest_supported` with `n`
/// votes on a log `depth` deep; a quarter of the voters lag one block.
fn ga_probes(input: &ProbeInput, depth: u64, out: &mut Outcome) {
    let store = BlockStore::new();
    let chain = build_chain(&store, depth, input, 2);
    let tip = Log::at_tip(&store, chain[chain.len() - 1]).expect("tip stored");
    let lagging = Log::at_tip(&store, chain[chain.len() - 2]).expect("parent stored");
    let votes: Vec<(ValidatorId, Log)> = ValidatorId::all(input.n)
        .map(|v| (v, if v.index() % 4 == 3 { lagging } else { tip }))
        .collect();
    let delta = Delta::default();
    let start = Time::new(delta.ticks());
    out.metric(
        "ga.on_log_ns",
        time_per_op(|| {
            let mut ga = Ga3::new(InstanceId(1), start);
            for (v, log) in &votes {
                black_box(ga.on_log(*v, *log));
            }
            votes.len() as u64
        }),
    );
    // One instance's whole schedule: snapshots at Δ and 2Δ, then the
    // three graded outputs — five phase calls.
    out.metric(
        "ga.on_phase_ns",
        time_per_op(|| {
            let mut ga = Ga3::new(InstanceId(1), start);
            for (v, log) in &votes {
                ga.on_log(*v, *log);
            }
            for k in 1..=5 {
                ga.on_phase(start + delta * k, delta, &store);
            }
            assert!(
                ga.output(2).is_some(),
                "a unanimous-majority GA outputs grade 2"
            );
            5
        }),
    );
    assert_eq!(
        highest_supported(&votes, votes.len(), &store),
        Some(tip),
        "three quarters carry the tip"
    );
    out.metric(
        "ga.highest_supported_ns",
        time_per_op(|| {
            black_box(highest_supported(black_box(&votes), votes.len(), &store));
            1
        }),
    );
}

/// `Mempool::{admit, pending_for, prune_confirmed}` on a bounded pool
/// holding one block's worth of pending transactions above a chain of
/// `depth` confirmed blocks.
fn mempool_probes(input: &ProbeInput, depth: u64, out: &mut Outcome) {
    let store = BlockStore::new();
    let chain = build_chain(&store, depth, input, 3);
    let decided = Log::at_tip(&store, chain[chain.len() - 1]).expect("tip stored");
    let on_chain = store.transactions_on_chain(decided.tip());
    let fresh: Vec<Transaction> = (0..input.txs_per_block.max(1) as u64)
        .map(|j| Transaction::synthetic((9 << 40) | j, input.tx_bytes))
        .collect();
    let fill = |pool: &Mempool| {
        for (i, tx) in on_chain.iter().chain(&fresh).enumerate() {
            let verdict = pool.admit(tx.clone(), Time::new(i as u64), 1, Some(i as u64 % 2));
            assert!(
                verdict.is_accepted(),
                "probe pool refused a tx: {verdict:?}"
            );
        }
        (on_chain.len() + fresh.len()) as u64
    };
    out.metric(
        "sim.mempool.admit_ns",
        time_per_op(|| fill(&Mempool::bounded(AdmissionPolicy::default()))),
    );
    let pool = Mempool::bounded(AdmissionPolicy::default());
    fill(&pool);
    assert_eq!(
        pool.pending_for(&decided, &store).len(),
        fresh.len(),
        "only fresh txs are pending"
    );
    out.metric(
        "sim.mempool.pending_for_ns",
        time_per_op(|| {
            black_box(pool.pending_for(black_box(&decided), &store));
            1
        }),
    );
    // Pruning consumes the pool, so each timed call gets a fresh one;
    // only the prune itself is on the clock.
    let mut prune_ns = 0u128;
    let mut prunes = 0u64;
    let t0 = Instant::now();
    while prunes == 0 || t0.elapsed() < BUDGET {
        let pool = Mempool::bounded(AdmissionPolicy::default());
        fill(&pool);
        let t = Instant::now();
        pool.prune_confirmed(black_box(&decided), &store);
        prune_ns += t.elapsed().as_nanos();
        prunes += 1;
        assert_eq!(
            pool.pending_len(),
            fresh.len(),
            "prune keeps exactly the unconfirmed"
        );
    }
    out.metric("sim.mempool.prune_ns", prune_ns as f64 / prunes as f64);
}

/// `SyncState::resolve` of an announcement `depth` deep by a validator
/// that knows the whole chain but the tip (the steady-state receive).
fn sync_probe(input: &ProbeInput, depth: u64, out: &mut Outcome) {
    let store = BlockStore::new();
    let chain = build_chain(&store, depth, input, 4);
    let log = Log::at_tip(&store, chain[chain.len() - 1]).expect("tip stored");
    let mut sync = SyncState::new(&store);
    for id in &chain[..chain.len() - 1] {
        sync.mark_own(*id);
    }
    out.metric(
        "core.sync.resolve_ns",
        time_per_op(|| {
            black_box(sync.resolve(black_box(&log), &store));
            1
        }),
    );
}

/// The validator's persistence pattern — per decided block one `Block`
/// record, one `Decided` marker, one sync — then a cold `load` and
/// `replay_into` of the image it left.
fn storage_probes(input: &ProbeInput, depth: u64, out: &mut Outcome) {
    let store = BlockStore::new();
    let chain = build_chain(&store, depth, input, 5);
    let records: Vec<BlockRecord> = chain
        .windows(2)
        .map(|pair| {
            let block = store.get(pair[1]).expect("chain block stored");
            BlockRecord {
                parent: pair[0],
                expected_id: pair[1],
                proposer: block.proposer().expect("non-genesis block has a proposer"),
                view: block.view(),
                txs: block.txs().to_vec(),
            }
        })
        .collect();
    // fsync dominates the file backend: cap the blocks written there so
    // the probe stays within its budget on a slow disk.
    let records = match &input.wal_dir {
        Some(_) => &records[..records.len().min(64)],
        None => &records[..],
    };
    let mut backend: Box<dyn DurableStore> = match &input.wal_dir {
        Some(dir) => {
            let _ = std::fs::remove_dir_all(dir);
            Box::new(FileDurable::open(dir).expect("probe WAL directory opens"))
        }
        None => Box::new(MemDurable::new()),
    };
    let t0 = Instant::now();
    for (i, rec) in records.iter().enumerate() {
        backend
            .append(&WalRecord::Block(rec.clone()))
            .expect("append block");
        backend
            .append(&WalRecord::Decided {
                tip: rec.expected_id,
                len: i as u64 + 2,
            })
            .expect("append marker");
        backend.sync().expect("sync");
    }
    let write_us = t0.elapsed().as_secs_f64() * 1e6;
    let blocks = records.len() as f64;

    let t0 = Instant::now();
    let recovered = backend.load().expect("clean image loads");
    let replayed = replay_into(&BlockStore::new(), &recovered);
    let recover_us = t0.elapsed().as_secs_f64() * 1e6;
    assert_eq!(
        replayed.decided_len,
        records.len() as u64 + 1,
        "full prefix recovers"
    );
    assert_eq!(
        (replayed.skipped, recovered.torn_bytes),
        (0, 0),
        "clean image"
    );

    let wal_bytes: usize = recovered
        .wal
        .iter()
        .map(|rec| {
            let mut buf = Vec::new();
            tob_svd::storage::encode_record(&mut buf, rec).expect("own record encodes");
            buf.len()
        })
        .sum();
    out.metric("storage.append_sync_us_per_block", write_us / blocks);
    out.metric("storage.load_replay_us_per_block", recover_us / blocks);
    out.metric("storage.wal_bytes_per_block", wal_bytes as f64 / blocks);
    if let Some(dir) = &input.wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}
