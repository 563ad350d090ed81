//! A validator's decided-log persistence: the write side of the record
//! order that [`replay_into`] reads back.

use tobsvd_types::{BlockId, BlockStore, Log};

use crate::{replay_into, BlockRecord, DurableStore, SharedDurable, Snapshot, WalError, WalRecord};

/// The durable half of a validator: its backend, when one is attached,
/// and the counters of what that backend holds.
///
/// Without a backend it owns no heap memory and persists nothing.
pub struct Persistence {
    durable: Option<SharedDurable>,
    /// Decided log length through which block contents and the head
    /// marker are durably synced.
    persisted_len: u64,
    /// Decided length at the last snapshot checkpoint.
    last_snapshot_len: u64,
    /// Durable operations that failed. Storage faults degrade
    /// durability (the suffix retries on the next decision), never
    /// safety or liveness — and never panic.
    wal_errors: u64,
}

/// What a restart adopts from its durable image.
#[derive(Debug)]
pub struct Restart {
    /// The decided log replay rebuilt (genesis when none).
    pub decided: Log,
    /// Block ids replay wrote into the store: the validator holds them.
    pub known: Vec<BlockId>,
    /// A durably recorded decided head whose blocks did not replay,
    /// for the delta-sync fetch plane.
    pub beyond: Option<BlockId>,
}

impl Default for Persistence {
    fn default() -> Self {
        Persistence { durable: None, persisted_len: 1, last_snapshot_len: 1, wal_errors: 0 }
    }
}

impl Persistence {
    /// Attaches `durable`: every later [`Persistence::persist`] writes to it.
    pub fn attach(&mut self, durable: SharedDurable) {
        self.durable = Some(durable);
    }

    /// Decided log length through which persistence has synced.
    pub fn persisted_len(&self) -> u64 {
        self.persisted_len
    }

    /// Durable operations that failed.
    pub fn wal_errors(&self) -> u64 {
        self.wal_errors
    }

    /// Loads `durable`, replays it into `store` and attaches it. The
    /// restart adopts the furthest decided head that reconstructs; an
    /// unreadable image counts one error and restarts from genesis.
    pub fn recover(&mut self, durable: SharedDurable, store: &BlockStore) -> Restart {
        let loaded = durable.lock().load();
        self.durable = Some(durable);
        let mut restart = Restart { decided: Log::genesis(store), known: Vec::new(), beyond: None };
        let Ok(recovered) = loaded else {
            self.wal_errors = self.wal_errors.saturating_add(1);
            return restart;
        };
        let replayed = replay_into(store, &recovered);
        if let Some(log) = Log::from_parts(store, replayed.decided_tip, replayed.decided_len) {
            restart.decided = log;
            self.persisted_len = replayed.decided_len;
        }
        self.last_snapshot_len = recovered.snapshot.as_ref().map_or(1, |s| s.len).max(1);
        self.wal_errors = self.wal_errors.saturating_add(replayed.skipped);
        restart.known = replayed.known;
        restart.beyond = replayed.beyond.map(|(tip, _)| tip);
        restart
    }

    /// Persists the newly decided log `decided`: a block record for
    /// every height not yet durable, the decided head marker, then one
    /// sync; and every `snapshot_every` decided blocks (0: never) a
    /// snapshot of the full chain, which replaces the WAL. A failure
    /// counts one error and leaves the counters put, so the next
    /// decision retries the whole suffix.
    pub fn persist(&mut self, decided: Log, store: &BlockStore, snapshot_every: u64) {
        if self.try_persist(decided, store, snapshot_every).is_err() {
            self.wal_errors = self.wal_errors.saturating_add(1);
        }
    }

    fn try_persist(&mut self, decided: Log, store: &BlockStore, snapshot_every: u64) -> Result<(), WalError> {
        let Some(durable) = &self.durable else {
            return Ok(());
        };
        if decided.len() <= self.persisted_len {
            return Ok(());
        }
        let suffix = chain(store, decided.tip(), self.persisted_len)?;
        let mut durable = durable.lock();
        // Genesis (or a vanished block) has no record.
        for record in suffix.into_iter().filter_map(|id| block_record(store, id)) {
            durable.append(&WalRecord::Block(record))?;
        }
        durable.append(&WalRecord::Decided { tip: decided.tip(), len: decided.len() })?;
        durable.sync()?;
        self.persisted_len = decided.len();
        if snapshot_every == 0 || decided.len().saturating_sub(self.last_snapshot_len) < snapshot_every {
            return Ok(());
        }
        let blocks = chain(store, decided.tip(), 1)?.into_iter().filter_map(|id| block_record(store, id));
        durable.install_snapshot(&Snapshot { tip: decided.tip(), len: decided.len(), blocks: blocks.collect() })?;
        self.last_snapshot_len = decided.len();
        Ok(())
    }

    /// The audit's counter half: `last_snapshot_len ≤ persisted_len ≤
    /// decided_len` (an overshooting counter silently disables
    /// persistence), and both back to genesis when the decided head is
    /// (`linked` false). Returns the clamps it made.
    pub fn audit(&mut self, decided_len: u64, linked: bool) -> u64 {
        let mut repairs = 0;
        if self.persisted_len > decided_len {
            self.persisted_len = decided_len;
            repairs += 1;
        }
        if self.last_snapshot_len > self.persisted_len {
            self.last_snapshot_len = self.persisted_len;
            repairs += 1;
        }
        if !linked {
            self.persisted_len = self.persisted_len.min(1);
            self.last_snapshot_len = self.last_snapshot_len.min(1);
        }
        repairs
    }

    /// Fault injection: both counters overshoot by `skew`.
    pub fn skew(&mut self, skew: u64) {
        self.persisted_len = self.persisted_len.saturating_add(skew);
        self.last_snapshot_len = self.last_snapshot_len.saturating_add(skew);
    }

    /// Fault injection: runs `fault` on the attached backend, if any.
    pub fn corrupt(&self, fault: impl FnOnce(&mut dyn DurableStore)) {
        if let Some(durable) = &self.durable {
            fault(&mut **durable.lock());
        }
    }
}

/// The decided chain ending at `tip`, from `from_height` up.
fn chain(store: &BlockStore, tip: BlockId, from_height: u64) -> Result<Vec<BlockId>, WalError> {
    store.chain_range(tip, from_height).ok_or(WalError::Corrupt("decided chain not in the store"))
}

/// The durable [`BlockRecord`] for a stored block, `None` for genesis
/// (whose content is implicit) or an unknown id.
fn block_record(store: &BlockStore, id: BlockId) -> Option<BlockRecord> {
    let block = store.get(id)?;
    let proposer = block.proposer()?;
    Some(BlockRecord {
        parent: block.parent(),
        expected_id: block.id(),
        proposer,
        view: block.view(),
        txs: block.txs().to_vec(),
    })
}
