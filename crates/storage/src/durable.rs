//! The one durable policy, over its two media.

use std::borrow::Cow;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::record::{decode_snapshot, decode_wal, encode_record, encode_snapshot};
use crate::{DurableStore, Recovered, Snapshot, WalError, WalRecord};

const WAL_FILE: &str = "wal.log";
const SNAPSHOT_FILE: &str = "snapshot.bin";
const SNAPSHOT_TMP: &str = "snapshot.tmp";

#[derive(Debug)]
enum Medium {
    /// The WAL and snapshot images as byte vectors.
    Mem { wal: Vec<u8>, snapshot: Option<Vec<u8>> },
    /// A directory and its one held append-mode WAL handle.
    Dir { dir: PathBuf, wal: File },
}

impl Medium {
    /// Cuts the WAL back to `keep` bytes if it holds more, appends
    /// `bytes`, fsyncs once, and returns the new WAL length.
    fn write_wal(&mut self, keep: u64, bytes: &[u8]) -> Result<u64, WalError> {
        match self {
            Medium::Mem { wal, .. } => {
                wal.truncate(keep as usize);
                wal.extend_from_slice(bytes);
                Ok(wal.len() as u64)
            }
            Medium::Dir { wal, .. } => {
                let len = wal.metadata()?.len();
                if len > keep {
                    wal.set_len(keep)?;
                }
                wal.write_all(bytes)?;
                wal.sync_all()?;
                Ok(len.min(keep).saturating_add(bytes.len() as u64))
            }
        }
    }

    fn read_wal(&self) -> Result<Cow<'_, [u8]>, WalError> {
        match self {
            Medium::Mem { wal, .. } => Ok(Cow::Borrowed(wal)),
            Medium::Dir { dir, .. } => Ok(Cow::Owned(std::fs::read(dir.join(WAL_FILE))?)),
        }
    }

    fn read_snapshot(&self) -> Option<Cow<'_, [u8]>> {
        match self {
            Medium::Mem { snapshot, .. } => snapshot.as_deref().map(Cow::Borrowed),
            Medium::Dir { dir, .. } => std::fs::read(dir.join(SNAPSHOT_FILE)).ok().map(Cow::Owned),
        }
    }

    /// Replaces the snapshot with `image` atomically; `None` discards it.
    fn put_snapshot(&mut self, image: Option<Vec<u8>>) -> Result<(), WalError> {
        match (self, image) {
            (Medium::Mem { snapshot, .. }, image) => *snapshot = image,
            (Medium::Dir { dir, .. }, None) => std::fs::remove_file(dir.join(SNAPSHOT_FILE))?,
            (Medium::Dir { dir, .. }, Some(image)) => {
                let tmp = dir.join(SNAPSHOT_TMP);
                let mut file = File::create(&tmp)?;
                file.write_all(&image)?;
                file.sync_all()?;
                std::fs::rename(&tmp, dir.join(SNAPSHOT_FILE))?;
            }
        }
        Ok(())
    }
}

/// The [`DurableStore`]: one policy over either medium. The in-memory
/// medium is the simulator's disk, a pure function of the call sequence
/// (checker runs with crash faults replay byte for byte) and the one the
/// fault hooks act on. The directory medium holds `wal.log` and
/// `snapshot.bin`, the latter replaced by tmp + fsync + rename.
#[derive(Debug)]
pub struct Durable {
    medium: Medium,
    /// Appended but not yet synced (lost on crash).
    buffered: Vec<u8>,
    /// WAL length through the last successful sync, load or snapshot:
    /// the next sync cuts off whatever a failed write left past it.
    synced: u64,
}

/// The in-memory medium, built by [`Durable::new`].
pub type MemDurable = Durable;

/// The directory medium, opened by [`Durable::open`].
pub type FileDurable = Durable;

impl Default for Durable {
    fn default() -> Self {
        Durable::new()
    }
}

impl Durable {
    /// An empty in-memory medium.
    pub fn new() -> Durable {
        Durable { medium: Medium::Mem { wal: Vec::new(), snapshot: None }, buffered: Vec::new(), synced: 0 }
    }

    /// Opens (creating if needed) the directory medium at `dir`; fails
    /// with [`WalError::Io`] when the directory or WAL cannot be opened.
    pub fn open(dir: &Path) -> Result<Durable, WalError> {
        std::fs::create_dir_all(dir)?;
        let wal = OpenOptions::new().create(true).append(true).open(dir.join(WAL_FILE))?;
        Ok(Durable { synced: wal.metadata()?.len(), medium: Medium::Dir { dir: dir.to_path_buf(), wal }, buffered: Vec::new() })
    }

    /// Durable WAL size in bytes (excludes the unsynced buffer).
    pub fn wal_bytes(&self) -> usize {
        self.medium.read_wal().map_or(0, |image| image.len())
    }

    /// Durable snapshot size in bytes, 0 when none is installed.
    pub fn snapshot_bytes(&self) -> usize {
        self.medium.read_snapshot().map_or(0, |image| image.len())
    }
}

/// Flips bit `bit % 8` of `byte`, if there is one.
fn flip(byte: Option<&mut u8>, bit: u32) {
    if let Some(b) = byte {
        *b ^= 1u8 << (bit % 8);
    }
}

impl DurableStore for Durable {
    fn append(&mut self, record: &WalRecord) -> Result<(), WalError> {
        encode_record(&mut self.buffered, record)
    }

    fn sync(&mut self) -> Result<(), WalError> {
        if self.buffered.is_empty() {
            return Ok(());
        }
        // On failure the buffer stays, for a later sync to retry.
        self.synced = self.medium.write_wal(self.synced, &self.buffered)?;
        self.buffered.clear();
        Ok(())
    }

    fn install_snapshot(&mut self, snapshot: &Snapshot) -> Result<(), WalError> {
        self.medium.put_snapshot(Some(encode_snapshot(snapshot)?))?;
        // The snapshot subsumes the log it checkpoints.
        self.synced = self.medium.write_wal(0, &[])?;
        self.buffered.clear();
        Ok(())
    }

    fn load(&mut self) -> Result<Recovered, WalError> {
        let read = self.medium.read_snapshot().map(|image| (decode_snapshot(&image).ok(), image.len() as u64));
        let (snapshot, mut torn_bytes) = match read {
            // An undecodable checkpoint is discarded: recovery falls back on the WAL.
            Some((None, bytes)) => (self.medium.put_snapshot(None).map(|()| None)?, bytes),
            Some((snapshot, _)) => (snapshot, 0),
            None => (None, 0),
        };
        let image = self.medium.read_wal()?;
        let (wal, torn_tail) = decode_wal(&image);
        self.synced = (image.len() as u64).saturating_sub(torn_tail);
        drop(image);
        if torn_tail > 0 {
            // Truncated in place: the torn suffix never resurrects.
            self.medium.write_wal(self.synced, &[])?;
            torn_bytes = torn_bytes.saturating_add(torn_tail);
        }
        Ok(Recovered { snapshot, wal, torn_bytes })
    }

    fn crash(&mut self) {
        self.buffered.clear();
    }

    fn corrupt_wal_bit(&mut self, byte: usize, bit: u32) {
        if let Medium::Mem { wal, .. } = &mut self.medium {
            flip(wal.get_mut(byte), bit);
        }
    }

    fn corrupt_snapshot_bit(&mut self, byte: usize, bit: u32) {
        if let Medium::Mem { snapshot: Some(image), .. } = &mut self.medium {
            flip(image.get_mut(byte), bit);
        }
    }

    fn tear_wal_tail(&mut self, n: usize) {
        if let Medium::Mem { wal, .. } = &mut self.medium {
            wal.truncate(wal.len().saturating_sub(n));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tobsvd_crypto::Digest;
    use tobsvd_types::BlockId;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tobsvd-storage-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn decided(len: u64) -> WalRecord {
        WalRecord::Decided { tip: BlockId(Digest::from_bytes([len as u8; 32])), len }
    }

    fn snapshot_at(len: u64) -> Snapshot {
        Snapshot { tip: BlockId(Digest::from_bytes([len as u8; 32])), len, blocks: vec![] }
    }

    /// The WAL and snapshot images, as the medium holds them.
    fn images(d: &Durable) -> (Vec<u8>, Option<Vec<u8>>) {
        (d.medium.read_wal().unwrap().into_owned(), d.medium.read_snapshot().map(Cow::into_owned))
    }

    #[test]
    fn corrupting_any_bit_degrades_to_truncation() {
        let mut mem = MemDurable::new();
        for len in 2..6 {
            mem.append(&decided(len)).unwrap();
        }
        mem.sync().unwrap();
        let full = mem.load().unwrap().wal.len();
        assert_eq!(full, 4);
        let total = mem.wal_bytes();
        for byte in 0..total {
            for bit in 0..8 {
                let mut copy = MemDurable::new();
                for len in 2..6 {
                    copy.append(&decided(len)).unwrap();
                }
                copy.sync().unwrap();
                copy.corrupt_wal_bit(byte, bit);
                let rec = copy.load().unwrap();
                assert!(rec.wal.len() < full, "flip {byte}.{bit} must cost records");
                assert!(rec.torn_bytes > 0);
            }
        }
    }

    #[test]
    fn torn_tail_is_gone_after_reload() {
        let mut mem = MemDurable::new();
        for len in 2..5 {
            mem.append(&decided(len)).unwrap();
        }
        mem.sync().unwrap();
        mem.tear_wal_tail(3);
        let first = mem.load().unwrap();
        assert_eq!(first.wal.len(), 2);
        assert!(first.torn_bytes > 0);
        let second = mem.load().unwrap();
        assert_eq!(second.wal.len(), 2);
        assert_eq!(second.torn_bytes, 0, "truncation must persist");
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_wal() {
        let mut mem = MemDurable::new();
        mem.install_snapshot(&snapshot_at(2)).unwrap();
        mem.append(&decided(3)).unwrap();
        mem.sync().unwrap();
        mem.corrupt_snapshot_bit(10, 2);
        let rec = mem.load().unwrap();
        assert!(rec.snapshot.is_none(), "corrupt checkpoint must be dropped");
        assert_eq!(rec.wal.len(), 1, "wal suffix still recovers");
        assert!(rec.torn_bytes > 0);
    }

    #[test]
    fn survives_reopen() {
        let dir = temp_dir("reopen");
        {
            let mut f = FileDurable::open(&dir).unwrap();
            for len in 2..7 {
                f.append(&decided(len)).unwrap();
            }
            f.sync().unwrap();
            f.crash();
        }
        let mut f = FileDurable::open(&dir).unwrap();
        let rec = f.load().unwrap();
        assert_eq!(rec.wal.len(), 5);
        assert_eq!(rec.torn_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_in_the_file() {
        let dir = temp_dir("torn");
        {
            let mut f = FileDurable::open(&dir).unwrap();
            for len in 2..5 {
                f.append(&decided(len)).unwrap();
            }
            f.sync().unwrap();
        }
        // Tear the file mid-record, as an interrupted write would.
        let path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        let mut f = FileDurable::open(&dir).unwrap();
        let rec = f.load().unwrap();
        assert_eq!(rec.wal.len(), 2);
        assert!(rec.torn_bytes > 0);
        assert!(std::fs::metadata(&path).unwrap().len() < bytes.len() as u64);
        // Appending after truncation keeps the log decodable.
        f.append(&decided(4)).unwrap();
        f.sync().unwrap();
        let rec = f.load().unwrap();
        assert_eq!(rec.wal.len(), 3);
        assert_eq!(rec.torn_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_replaces_wal_atomically() {
        let dir = temp_dir("snap");
        let mut f = FileDurable::open(&dir).unwrap();
        for len in 2..5 {
            f.append(&decided(len)).unwrap();
        }
        f.sync().unwrap();
        f.install_snapshot(&snapshot_at(4)).unwrap();
        f.append(&decided(5)).unwrap();
        f.sync().unwrap();
        f.crash();

        let mut f = FileDurable::open(&dir).unwrap();
        let rec = f.load().unwrap();
        assert_eq!(rec.snapshot.as_ref().map(|s| s.len), Some(4));
        assert_eq!(rec.wal, vec![decided(5)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A failed `write_all` can leave part of a frame in `wal.log`. The
    /// next sync cuts it off before writing, so no synced record ends up
    /// behind a frame the decoder stops at.
    #[test]
    fn partial_frame_from_a_failed_write_strands_no_later_sync() {
        let dir = temp_dir("partial");
        let mut f = FileDurable::open(&dir).unwrap();
        for len in 2..4 {
            f.append(&decided(len)).unwrap();
        }
        f.sync().unwrap();
        let mut frame = Vec::new();
        encode_record(&mut frame, &decided(9)).unwrap();
        let mut wal = OpenOptions::new().append(true).open(dir.join(WAL_FILE)).unwrap();
        wal.write_all(&frame[..frame.len() / 2]).unwrap();
        for len in 4..6 {
            f.append(&decided(len)).unwrap();
        }
        f.sync().unwrap();
        f.crash();

        let rec = FileDurable::open(&dir).unwrap().load().unwrap();
        assert_eq!(rec.wal, (2..6).map(decided).collect::<Vec<_>>(), "every synced record reloads");
        assert_eq!(rec.torn_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One call sequence on both media: appends and syncs, a snapshot, a
    /// crash with unsynced appends, a torn tail and a flipped snapshot
    /// bit (written into the files directly on the directory medium).
    /// Both end with the same images and the same `Recovered` values.
    #[test]
    fn both_media_agree_byte_for_byte() {
        let dir = temp_dir("media");
        let mut media = [MemDurable::new(), FileDurable::open(&dir).unwrap()];
        let mut step = |what: &str, op: &mut dyn FnMut(&mut Durable)| {
            for d in media.iter_mut() {
                op(d);
            }
            assert_eq!(images(&media[0]), images(&media[1]), "images differ after {what}");
        };
        step("syncs", &mut |d| {
            for len in 2..8 {
                d.append(&decided(len)).unwrap();
                if len % 2 == 1 {
                    d.sync().unwrap();
                }
            }
        });
        step("snapshot", &mut |d| d.install_snapshot(&snapshot_at(7)).unwrap());
        step("crash", &mut |d| {
            for len in 8..12 {
                d.append(&decided(len)).unwrap();
                if len == 10 {
                    d.sync().unwrap();
                }
            }
            d.crash();
        });
        step("tear", &mut |d| match &mut d.medium {
            Medium::Mem { .. } => d.tear_wal_tail(7),
            Medium::Dir { dir, .. } => {
                let file = OpenOptions::new().write(true).open(dir.join(WAL_FILE)).unwrap();
                file.set_len(file.metadata().unwrap().len() - 7).unwrap();
            }
        });
        step("snapshot flip", &mut |d| match &mut d.medium {
            Medium::Mem { .. } => d.corrupt_snapshot_bit(20, 3),
            Medium::Dir { dir, .. } => {
                let path = dir.join(SNAPSHOT_FILE);
                let mut image = std::fs::read(&path).unwrap();
                image[20] ^= 1 << 3;
                std::fs::write(&path, image).unwrap();
            }
        });
        let mut loads = Vec::new();
        step("load", &mut |d| loads.push(d.load().unwrap()));
        assert_eq!(loads[0], loads[1]);
        assert!(loads[0].snapshot.is_none() && loads[0].torn_bytes > 0);
        assert_eq!(loads[0].wal, vec![decided(8), decided(9)], "the torn last frame is cut");
        loads.clear();
        step("reload", &mut |d| loads.push(d.load().unwrap()));
        assert_eq!(loads[0], loads[1]);
        assert_eq!(loads[0].torn_bytes, 0, "the tail and the snapshot stay discarded");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
