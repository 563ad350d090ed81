//! `tobsvd-storage` — the durable storage plane under the decided log.
//!
//! Everything else in the reproduction lives in RAM; this crate is the
//! production face of the paper's sleepy model, where "a validator
//! falls asleep" means *a validator process dies and later restarts
//! from disk*. It provides:
//!
//! * [`DurableStore`] — the persistence trait a validator writes its
//!   decided history through: append [`WalRecord`]s, `sync` them
//!   durable, checkpoint a [`Snapshot`] every N decided views, and
//!   `load` everything back after a crash;
//! * [`MemDurable`] — a deterministic in-memory backend for the
//!   simulator and model checker, with faithful crash semantics
//!   (unsynced appends are lost, synced bytes survive);
//! * [`FileDurable`] — a real file-backed backend for the TCP runtime
//!   and benches: an append-only WAL file plus an atomically-replaced
//!   snapshot file, torn tails truncated on open;
//! * [`replay_into`] — deterministic replay of a [`Recovered`] image
//!   into a [`tobsvd_types::BlockStore`], yielding the reconstructed
//!   decided head, the set of block ids the validator provably holds,
//!   and any decided head claimed *beyond* what is locally
//!   reconstructible (closed post-restart by the delta-sync fetch
//!   plane).
//!
//! # Record format
//!
//! Every persisted record is length+CRC framed, mirroring the wire
//! codec's conventions (big-endian integers, `u32` length prefixes,
//! the same per-block body layout as `wire::encode_block_body` plus
//! the parent and expected content hashes):
//!
//! ```text
//! frame  := body_len:u32 | crc32(body):u32 | body
//! body   := tag:u8 | payload
//! tag 1  := Block   — parent:32B | expected_id:32B | proposer:u32 |
//!                     view:u64 | tx_count:u32 | (tx_len:u32 | tx_bytes)*
//! tag 2  := Decided — tip:32B | len:u64
//! ```
//!
//! A snapshot is one frame whose body is `tag 3 | tip:32B | len:u64 |
//! block_count:u32 | block-payloads…` — the full decided chain, so a
//! snapshot alone reconstructs the prefix it covers.
//!
//! # Corruption posture
//!
//! Decoding never panics. A torn, truncated or bit-flipped WAL record
//! invalidates its frame's CRC; the decoder stops there and reports the
//! remaining bytes as the torn tail, which the backends truncate on
//! open (classic WAL semantics: a torn tail is an interrupted write,
//! not data). A corrupt snapshot surfaces as a [`WalError`] and
//! recovery falls back to WAL-only (then to delta-sync fetch for
//! whatever is still missing). This is the same graceful-degradation
//! posture the clippy gate's panic-path lints enforce on the rest of
//! the protocol core, and this crate sits under the same `deny` block.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The panic-safety half of the static gate (README § "Static analysis"):
// outside tests this crate neither aborts nor indexes unchecked; an
// exemption is a site-level `#[allow]` that states its reason.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

mod codec;
mod file;
mod mem;
mod record;
mod replay;

use std::sync::Arc;

use parking_lot::Mutex;

pub use codec::crc32;
pub use file::FileDurable;
pub use mem::MemDurable;
pub use record::{
    decode_snapshot, decode_wal, encode_record, encode_snapshot, BlockRecord, Recovered, Snapshot,
    WalRecord, MAX_SNAPSHOT_BLOCKS,
};
pub use replay::{replay_into, Replayed};

/// A recoverable persistence-layer error. Corruption and I/O failures
/// degrade the validator (a counter ticks, recovery falls back a
/// layer) — they never panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// An operating-system I/O failure (file backend only).
    Io(String),
    /// A structurally corrupt record or snapshot.
    Corrupt(&'static str),
    /// A record exceeding the codec's declared bounds.
    Limit(&'static str),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Corrupt(what) => write!(f, "corrupt wal data: {what}"),
            WalError::Limit(what) => write!(f, "wal limit exceeded: {what}"),
        }
    }
}

impl std::error::Error for WalError {}

/// The persistence trait behind the decided log: an append-only WAL
/// with periodic snapshot checkpoints.
///
/// Durability contract: a record is guaranteed to survive a crash only
/// after a `sync` that returns `Ok` — `append` alone may buffer.
/// `install_snapshot` is atomic and durable by itself and logically
/// truncates the WAL (the snapshot subsumes it).
pub trait DurableStore: Send {
    /// Appends one record to the WAL (buffered until [`DurableStore::sync`]).
    fn append(&mut self, record: &WalRecord) -> Result<(), WalError>;

    /// Makes every appended record durable.
    fn sync(&mut self) -> Result<(), WalError>;

    /// Atomically replaces the checkpoint with `snapshot` and truncates
    /// the WAL it subsumes.
    fn install_snapshot(&mut self, snapshot: &Snapshot) -> Result<(), WalError>;

    /// Reads back the durable image: latest valid snapshot (if any)
    /// plus the decodable WAL suffix, truncating any torn tail.
    fn load(&mut self) -> Result<Recovered, WalError>;

    /// Simulates (or accompanies) a process crash: buffered, unsynced
    /// state is dropped; durable state is untouched.
    fn crash(&mut self);

    /// Fault injection: flips one bit of the durable WAL image.
    /// Out-of-range offsets no-op. Default: no-op (real backends are
    /// corrupted by the universe, not the test harness).
    fn corrupt_wal_bit(&mut self, byte: usize, bit: u32) {
        let _ = (byte, bit);
    }

    /// Fault injection: flips one bit of the durable snapshot image.
    /// Out-of-range offsets (or no snapshot) no-op. Default: no-op.
    fn corrupt_snapshot_bit(&mut self, byte: usize, bit: u32) {
        let _ = (byte, bit);
    }

    /// Fault injection: tears the last `n` bytes off the durable WAL
    /// (an interrupted write). Default: no-op.
    fn tear_wal_tail(&mut self, n: usize) {
        let _ = n;
    }
}

/// A durable backend shared between a live validator and the restart
/// path that will rebuild its replacement.
pub type SharedDurable = Arc<Mutex<Box<dyn DurableStore>>>;

/// Wraps a backend for sharing across the crash/restart boundary.
pub fn shared<D: DurableStore + 'static>(backend: D) -> SharedDurable {
    Arc::new(Mutex::new(Box::new(backend)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tobsvd_types::{BlockStore, Log, Transaction, ValidatorId, View};

    /// Builds a decided chain of `len` blocks (genesis included) and
    /// the matching Block/Decided record stream.
    fn chain(store: &BlockStore, len: u64) -> (Log, Vec<WalRecord>) {
        let mut log = Log::genesis(store);
        let mut records = Vec::new();
        for i in 1..len {
            let txs = vec![Transaction::synthetic(i, 32)];
            let parent = log.tip();
            log = log.extend(store, ValidatorId::new(0), View::new(i), txs.clone());
            records.push(WalRecord::Block(BlockRecord {
                parent,
                expected_id: log.tip(),
                proposer: ValidatorId::new(0),
                view: View::new(i),
                txs,
            }));
            records.push(WalRecord::Decided { tip: log.tip(), len: log.len() });
        }
        (log, records)
    }

    #[test]
    fn synced_records_survive_crash_and_replay() {
        let store = BlockStore::new();
        let (log, records) = chain(&store, 6);
        let mut mem = MemDurable::new();
        for r in &records {
            mem.append(r).unwrap();
        }
        mem.sync().unwrap();
        mem.crash();
        let recovered = mem.load().unwrap();
        assert_eq!(recovered.torn_bytes, 0);
        assert!(recovered.snapshot.is_none());
        assert_eq!(recovered.wal, records);

        let fresh = BlockStore::new();
        let replayed = replay_into(&fresh, &recovered);
        assert_eq!(replayed.decided_tip, log.tip());
        assert_eq!(replayed.decided_len, log.len());
        assert_eq!(replayed.skipped, 0);
        assert_eq!(replayed.beyond, None);
        assert_eq!(replayed.known.len(), 5);
    }

    #[test]
    fn unsynced_appends_are_lost_on_crash() {
        let store = BlockStore::new();
        let (_, records) = chain(&store, 6);
        let mut mem = MemDurable::new();
        let (first, rest) = records.split_at(4);
        for r in first {
            mem.append(r).unwrap();
        }
        mem.sync().unwrap();
        for r in rest {
            mem.append(r).unwrap();
        }
        mem.crash();
        let recovered = mem.load().unwrap();
        assert_eq!(recovered.wal, first, "only synced records survive");
    }

    #[test]
    fn snapshot_subsumes_wal_and_restores_alone() {
        let store = BlockStore::new();
        let (log, records) = chain(&store, 5);
        let mut mem = MemDurable::new();
        for r in &records {
            mem.append(r).unwrap();
        }
        mem.sync().unwrap();
        let blocks: Vec<BlockRecord> = records
            .iter()
            .filter_map(|r| match r {
                WalRecord::Block(b) => Some(b.clone()),
                WalRecord::Decided { .. } => None,
            })
            .collect();
        let snap = Snapshot { tip: log.tip(), len: log.len(), blocks };
        mem.install_snapshot(&snap).unwrap();
        assert_eq!(mem.wal_bytes(), 0, "snapshot must truncate the wal");

        let recovered = mem.load().unwrap();
        assert_eq!(recovered.snapshot.as_ref().map(|s| s.len), Some(log.len()));
        let fresh = BlockStore::new();
        let replayed = replay_into(&fresh, &recovered);
        assert_eq!(replayed.decided_tip, log.tip());
        assert_eq!(replayed.decided_len, log.len());
    }

    #[test]
    fn decided_head_beyond_local_blocks_is_reported_for_fetch() {
        let store = BlockStore::new();
        let (log, records) = chain(&store, 4);
        let mut mem = MemDurable::new();
        // Persist only the Decided markers — the block content never
        // made it to disk (e.g. torn away). Recovery must surface the
        // head for the delta-sync plane instead of silently dropping it.
        for r in &records {
            if matches!(r, WalRecord::Decided { .. }) {
                mem.append(r).unwrap();
            }
        }
        mem.sync().unwrap();
        let recovered = mem.load().unwrap();
        let fresh = BlockStore::new();
        let replayed = replay_into(&fresh, &recovered);
        assert_eq!(replayed.decided_len, 1, "nothing locally reconstructible");
        assert_eq!(replayed.beyond, Some((log.tip(), log.len())));
    }

    #[test]
    fn replay_is_deterministic() {
        let store = BlockStore::new();
        let (_, records) = chain(&store, 8);
        let mut mem = MemDurable::new();
        for r in &records {
            mem.append(r).unwrap();
        }
        mem.sync().unwrap();
        let recovered = mem.load().unwrap();
        let a = replay_into(&BlockStore::new(), &recovered);
        let b = replay_into(&BlockStore::new(), &recovered);
        assert_eq!(a.decided_tip, b.decided_tip);
        assert_eq!(a.known, b.known);
        assert_eq!(a.skipped, b.skipped);
    }
}
