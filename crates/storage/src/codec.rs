//! Byte-level primitives shared by the WAL and snapshot codecs: CRC32
//! framing and panic-free checked reads.
//!
//! Integers are big-endian, matching the wire codec. The CRC is the
//! reflected IEEE-802.3 polynomial (the ubiquitous `crc32` of zlib and
//! friends), table-driven with a compile-time-built table so the
//! per-record cost is one lookup per byte.

use crate::WalError;

const CRC_POLY: u32 = 0xEDB8_8320;

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut n = 0usize;
    // Const-eval fill of a fixed 256-entry table; n < 256 by the loop bound.
    #[allow(clippy::indexing_slicing)]
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { CRC_POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[n] = c;
        n += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = build_crc_table();

/// CRC32 (IEEE, reflected) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for b in bytes {
        let idx = ((crc ^ u32::from(*b)) & 0xff) as usize;
        // `idx < 256` by the mask; the fallback arm is unreachable but
        // keeps the lookup panic-free under refactoring.
        crc = CRC_TABLE.get(idx).copied().unwrap_or(0) ^ (crc >> 8);
    }
    !crc
}

/// Appends one `len | crc | body` frame to `out`.
///
/// # Errors
///
/// [`WalError::Limit`] if the body length exceeds `u32`.
pub fn put_frame(out: &mut Vec<u8>, body: &[u8]) -> Result<(), WalError> {
    let len = u32::try_from(body.len()).map_err(|_| WalError::Limit("record body over u32"))?;
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(&crc32(body).to_be_bytes());
    out.extend_from_slice(body);
    Ok(())
}

/// A panic-free cursor over an in-memory byte image.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts a cursor at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`WalError::Corrupt`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WalError> {
        let end = self.pos.checked_add(n).ok_or(WalError::Corrupt("length overflow"))?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or(WalError::Corrupt("truncated record"))?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WalError> {
        Ok(self.take(1)?.first().copied().unwrap_or(0))
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WalError> {
        let raw = self.take(4)?;
        let arr: [u8; 4] = raw.try_into().map_err(|_| WalError::Corrupt("short u32"))?;
        Ok(u32::from_be_bytes(arr))
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WalError> {
        let raw = self.take(8)?;
        let arr: [u8; 8] = raw.try_into().map_err(|_| WalError::Corrupt("short u64"))?;
        Ok(u64::from_be_bytes(arr))
    }

    /// Reads a 32-byte digest.
    pub fn digest(&mut self) -> Result<[u8; 32], WalError> {
        let raw = self.take(32)?;
        raw.try_into().map_err(|_| WalError::Corrupt("short digest"))
    }

    /// Reads one frame's body, validating length and CRC.
    ///
    /// # Errors
    ///
    /// [`WalError::Corrupt`] on a truncated header/body or a CRC
    /// mismatch (a torn or bit-flipped frame).
    pub fn frame(&mut self) -> Result<&'a [u8], WalError> {
        let len = self.u32()? as usize;
        let crc = self.u32()?;
        let body = self.take(len)?;
        if crc32(body) != crc {
            return Err(WalError::Corrupt("frame crc mismatch"));
        }
        Ok(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc_matches_known_vectors() {
        // The canonical IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_round_trips_and_rejects_flips() {
        let mut out = Vec::new();
        put_frame(&mut out, b"hello wal").unwrap();
        assert_eq!(Reader::new(&out).frame().unwrap(), b"hello wal");
        for i in 0..out.len() {
            let mut bad = out.clone();
            if let Some(b) = bad.get_mut(i) {
                *b ^= 0x40;
            }
            assert!(Reader::new(&bad).frame().is_err(), "flip at byte {i} must fail");
        }
        for cut in 0..out.len() {
            assert!(Reader::new(&out[..cut]).frame().is_err(), "cut at {cut} must fail");
        }
    }
}
