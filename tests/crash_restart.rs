//! Crash-restart determinism properties of the durable storage plane.
//!
//! The paper's sleepy model lets validators *sleep*; a real deployment
//! also has to survive *dying*. The durable plane (append-only CRC
//! WAL + periodic snapshot checkpoints) turns a kill into a long nap:
//! the restart incarnation reloads snapshot + WAL suffix, replays it
//! into a fresh store, and closes the remaining gap over the §2
//! recovery broadcast and the delta-sync fetch plane. These tests pin
//! the properties that make that safe to rely on:
//!
//! * identical write sequences produce **byte-identical** durable
//!   images, on disk and in memory — recovery is a pure function of
//!   the decided prefix, not of incidental process state;
//! * a validator killed mid-run and restarted from its durable image
//!   re-converges with the network;
//! * whole crash-restart simulations are deterministic: two executions
//!   of the same configuration agree on every per-validator counter.

use tob_svd::sim::{StateFault, TobSimulationBuilder};
use tob_svd::storage::{
    replay_into, BlockRecord, DurableStore, FileDurable, MemDurable, Snapshot, WalRecord,
};
use tob_svd::types::{BlockStore, Time, Transaction, ValidatorId, View};

/// A synthetic decided chain of `len` blocks beyond genesis,
/// parent-first — the image a validator deciding `len` views persists.
fn chain_records(len: u64) -> Vec<BlockRecord> {
    let store = BlockStore::new();
    let mut parent = store.genesis();
    let mut records = Vec::with_capacity(len as usize);
    for i in 0..len {
        let proposer = ValidatorId::new((i as u32) % 5);
        let view = View::new(i);
        let txs = vec![Transaction::synthetic(i, 48)];
        let id = store.append(parent, proposer, view, txs.clone()).expect("chain extends");
        records.push(BlockRecord { parent, expected_id: id, proposer, view, txs });
        parent = id;
    }
    records
}

/// Writes `records` the way the validator's persist hook does: per
/// decided block one `Block` + one `Decided` append and a sync, with a
/// full-chain snapshot every `snapshot_every` blocks (0 = WAL only).
fn write_decided(backend: &mut dyn DurableStore, records: &[BlockRecord], snapshot_every: u64) {
    for (i, rec) in records.iter().enumerate() {
        let len = i as u64 + 2;
        backend.append(&WalRecord::Block(rec.clone())).expect("append");
        backend.append(&WalRecord::Decided { tip: rec.expected_id, len }).expect("marker");
        backend.sync().expect("sync");
        if snapshot_every > 0 && (i as u64 + 1) % snapshot_every == 0 {
            let snapshot =
                Snapshot { tip: rec.expected_id, len, blocks: records[..=i].to_vec() };
            backend.install_snapshot(&snapshot).expect("snapshot");
        }
    }
}

#[test]
fn identical_write_sequences_yield_byte_identical_images() {
    let tmp = std::env::temp_dir().join(format!("tobsvd-crash-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let records = chain_records(40);

    // Two independent file backends fed the same sequence...
    let mut images = Vec::new();
    for side in ["a", "b"] {
        let dir = tmp.join(side);
        let mut backend = FileDurable::open(&dir).expect("open");
        write_decided(&mut backend, &records, 16);
        let wal = std::fs::read(dir.join("wal.log")).expect("wal readable");
        let snapshot = std::fs::read(dir.join("snapshot.bin")).expect("snapshot readable");
        images.push((wal, snapshot));
    }
    assert_eq!(images[0].0, images[1].0, "WAL images must be byte-identical");
    assert_eq!(images[0].1, images[1].1, "snapshot images must be byte-identical");
    assert!(!images[0].0.is_empty(), "the WAL suffix past the checkpoint is non-empty");
    assert!(!images[0].1.is_empty());

    // ...and the in-memory backend shares the exact encoding, so its
    // image sizes match the on-disk ones byte for byte.
    let mut mem = MemDurable::new();
    write_decided(&mut mem, &records, 16);
    assert_eq!(mem.wal_bytes(), images[0].0.len());
    assert_eq!(mem.snapshot_bytes(), images[0].1.len());

    // Checkpoints bound the live WAL: it holds the 8 blocks past the
    // last checkpoint (at 32), not the 40 a WAL-only image carries.
    let mut wal_only = MemDurable::new();
    write_decided(&mut wal_only, &records, 0);
    assert!(mem.wal_bytes() * 4 < wal_only.wal_bytes(), "snapshot must truncate the WAL");

    // The image round-trips: load + replay rebuilds the full prefix.
    let recovered = FileDurable::open(&tmp.join("a")).expect("reopen").load().expect("load");
    let replayed = replay_into(&BlockStore::new(), &recovered);
    assert_eq!(replayed.decided_len, 41);
    assert_eq!(replayed.skipped, 0);
    assert!(replayed.beyond.is_none());

    let _ = std::fs::remove_dir_all(&tmp);
}

/// One simulated kill/restart: validator 1 goes down at `at` for
/// `down` ticks, restarting from its durable snapshot + WAL.
fn crash_run(seed: u64, at: u64, down: u64) -> tob_svd::sim::TobReport {
    let report = TobSimulationBuilder::new(5)
        .views(14)
        .seed(seed)
        .recovery(true)
        .engine(|sim| sim.drop_while_asleep(true))
        .snapshot_every(4)
        .crash_restart(ValidatorId::new(1), Time::new(at), Time::new(at + down))
        .run()
        .expect("crash scenario runs");
    report.assert_safety();
    report
}

#[test]
fn killed_validator_resumes_from_snapshot_plus_wal_and_reconverges() {
    // Kill ticks spread across the run (derived from the seed, fixed
    // forever): early, mid-view, and late-but-with-room-to-recover.
    for (seed, at) in [(3u64, 71u64), (11, 163), (27, 229)] {
        let report = crash_run(seed, at, 64);
        assert_eq!(report.report.metrics.crashes, 1, "seed {seed}");
        let restarted = report.validator(ValidatorId::new(1)).expect("restarted slot is up");
        assert_eq!(restarted.wal_errors(), 0, "seed {seed}: durable plane must stay clean");
        assert!(
            restarted.persisted_len() > 1,
            "seed {seed}: decisions must have been durably persisted"
        );
        let (len, max) = (restarted.decided().len(), report.max_decided_len());
        assert!(len + 2 >= max, "seed {seed}: restarted validator ended at {len} of {max}");
        // The network never stalls for the dead node.
        assert!(report.decided_blocks() >= report.views - 2, "seed {seed}");
    }
}

/// The combined fault: bit rot strikes validator 1's durable image
/// (snapshot checkpoint bit-flipped, WAL bit-flipped *and* tail torn)
/// shortly before the process is killed. The restart incarnation must
/// recover the clean prefix — corrupt checkpoint dropped, undecodable
/// WAL suffix truncated — and close the rest of the gap over the §2
/// recovery broadcast and the delta-sync fetch plane.
fn corrupted_crash_run(seed: u64) -> tob_svd::sim::TobReport {
    let v = ValidatorId::new(1);
    let report = TobSimulationBuilder::new(5)
        .views(14)
        .seed(seed)
        .recovery(true)
        .engine(|sim| sim.drop_while_asleep(true))
        .snapshot_every(4)
        .state_fault(v, Time::new(100), StateFault::SnapshotBitFlip { byte: 9, bit: 5 })
        .state_fault(v, Time::new(101), StateFault::WalBitFlip { byte: 40, bit: 2 })
        .state_fault(v, Time::new(102), StateFault::WalTear { bytes: 11 })
        .crash_restart(v, Time::new(117), Time::new(197))
        .run()
        .expect("combined crash+corruption scenario runs");
    report.assert_safety();
    report
}

#[test]
fn killed_validator_with_shredded_image_recovers_clean_prefix_and_reconverges() {
    for seed in [5u64, 19, 42] {
        let report = corrupted_crash_run(seed);
        assert_eq!(report.report.metrics.crashes, 1, "seed {seed}");
        let restarted = report.validator(ValidatorId::new(1)).expect("restarted slot is up");
        // Torn/corrupt bytes degrade recovery; they are never I/O errors
        // (and never panics).
        assert_eq!(restarted.wal_errors(), 0, "seed {seed}: corruption must not error");
        let (len, max) = (restarted.decided().len(), report.max_decided_len());
        assert!(len + 2 >= max, "seed {seed}: shredded-image restart ended at {len} of {max}");
        // The network never stalls for the corrupted node.
        assert!(report.decided_blocks() >= report.views - 2, "seed {seed}");
    }
}

#[test]
fn corrupted_image_recovery_rebuilds_a_byte_identical_eventual_store() {
    let tmp = std::env::temp_dir().join(format!("tobsvd-corrupt-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let records = chain_records(40);

    // Baseline image `a` and victim image `b`: identical write sequence.
    let (dir_a, dir_b) = (tmp.join("a"), tmp.join("b"));
    for dir in [&dir_a, &dir_b] {
        let mut backend = FileDurable::open(dir).expect("open");
        write_decided(&mut backend, &records, 16);
    }

    // The universe mangles `b`: one bit flipped inside the snapshot
    // checkpoint, and the last WAL bytes torn off mid-record.
    let snap_path = dir_b.join("snapshot.bin");
    let mut snap = std::fs::read(&snap_path).expect("snapshot readable");
    snap[12] ^= 0x08;
    std::fs::write(&snap_path, &snap).expect("snapshot rewritable");
    let wal_path = dir_b.join("wal.log");
    let wal = std::fs::read(&wal_path).expect("wal readable");
    std::fs::write(&wal_path, &wal[..wal.len() - 9]).expect("wal rewritable");

    // Recovery degrades, never fails: the corrupt checkpoint is dropped
    // and the torn suffix truncated, leaving a clean decodable prefix.
    let recovered = FileDurable::open(&dir_b).expect("reopen").load().expect("load succeeds");
    assert!(recovered.snapshot.is_none(), "corrupt checkpoint must be dropped");
    assert!(recovered.torn_bytes > 0, "torn tail must be accounted");

    let store = BlockStore::new();
    let replayed = replay_into(&store, &recovered);
    let (beyond_tip, beyond_len) =
        replayed.beyond.expect("decided head beyond the clean prefix is surfaced for fetch");
    assert!(
        replayed.decided_len < beyond_len,
        "recovery fell short at {} of {beyond_len} and must say so",
        replayed.decided_len
    );

    // Close the gap the way the live plane does: fetch the missing
    // blocks from peers (the canonical records) and re-extend the
    // store; content addressing guarantees the ids line up.
    for rec in &records {
        let id = store
            .append(rec.parent, rec.proposer, rec.view, rec.txs.clone())
            .expect("fetched block extends");
        assert_eq!(id, rec.expected_id, "fetched block must hash to the persisted id");
    }
    assert_eq!(beyond_tip, records[beyond_len as usize - 2].expected_id);

    // Re-persisting the caught-up prefix yields an eventual durable
    // image byte-identical to one that never saw corruption: recovery
    // is a pure function of the decided prefix.
    let dir_c = tmp.join("c");
    let mut backend = FileDurable::open(&dir_c).expect("open");
    write_decided(&mut backend, &records, 16);
    assert_eq!(
        std::fs::read(dir_c.join("wal.log")).expect("wal"),
        std::fs::read(dir_a.join("wal.log")).expect("wal"),
        "eventual WAL image must be byte-identical to the uncorrupted one"
    );
    assert_eq!(
        std::fs::read(dir_c.join("snapshot.bin")).expect("snapshot"),
        std::fs::read(dir_a.join("snapshot.bin")).expect("snapshot"),
        "eventual snapshot image must be byte-identical to the uncorrupted one"
    );

    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn crash_restart_runs_are_deterministic_across_executions() {
    let runs: Vec<_> = (0..2).map(|_| crash_run(9, 117, 80)).collect();
    let (a, b) = (&runs[0], &runs[1]);
    assert_eq!(a.report.final_time, b.report.final_time);
    assert_eq!(a.report.metrics.crashes, b.report.metrics.crashes);
    assert_eq!(a.report.metrics.dropped, b.report.metrics.dropped);
    assert_eq!(a.max_decided_len(), b.max_decided_len());
    for v in ValidatorId::all(5) {
        let (x, y) = (a.validator(v).expect("up"), b.validator(v).expect("up"));
        assert_eq!(x.decided(), y.decided(), "{v}");
        assert_eq!(x.persisted_len(), y.persisted_len(), "{v}");
        assert_eq!(x.votes_cast(), y.votes_cast(), "{v}");
        assert_eq!(x.proposals_made(), y.proposals_made(), "{v}");
        assert_eq!(x.wal_errors(), y.wal_errors(), "{v}");
    }
}
