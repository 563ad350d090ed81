//! CRC32 framing of the WAL and snapshot images. Reads go through the
//! shared checked [`Reader`] of `tobsvd_types::codec`.
//!
//! The CRC is the reflected IEEE-802.3 polynomial (the ubiquitous
//! `crc32` of zlib and friends), table-driven with a compile-time-built
//! table so the per-record cost is one lookup per byte.

use tobsvd_types::codec::Reader;

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

/// Reads one `len | crc | body` frame off `r`, validating length and
/// CRC.
///
/// # Errors
///
/// [`WalError::Corrupt`] on a truncated header/body or a CRC mismatch
/// (a torn or bit-flipped frame).
pub fn read_frame<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], WalError> {
    let len = r.u32()? as usize;
    let crc = r.u32()?;
    let body = r.take(len)?;
    if crc32(body) != crc {
        return Err(WalError::Corrupt("frame crc mismatch"));
    }
    Ok(body)
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
        assert_eq!(read_frame(&mut Reader::new(&out)).unwrap(), b"hello wal");
        for i in 0..out.len() {
            let mut bad = out.clone();
            if let Some(b) = bad.get_mut(i) {
                *b ^= 0x40;
            }
            assert!(read_frame(&mut Reader::new(&bad)).is_err(), "flip at byte {i} must fail");
        }
        for cut in 0..out.len() {
            assert!(read_frame(&mut Reader::new(&out[..cut])).is_err(), "cut at {cut} must fail");
        }
    }
}
