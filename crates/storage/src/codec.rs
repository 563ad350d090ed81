//! CRC32 framing of the WAL and snapshot images. Reads go through the
//! shared checked [`Reader`] of `tobsvd_types::codec`.
//!
//! The CRC is the reflected IEEE-802.3 polynomial (the ubiquitous
//! `crc32` of zlib and friends), sliced by 8: eight compile-time-built
//! tables fold eight input bytes per step, one lookup each, and the
//! tail of fewer than eight bytes goes through the first table a byte
//! at a time. The result is the byte-at-a-time CRC's, bit for bit.

use tobsvd_types::codec::Reader;

use crate::WalError;

const CRC_POLY: u32 = 0xEDB8_8320;

/// `CRC_TABLES[k][b]` is the CRC register after byte `b` and then `k`
/// zero bytes: row 0 is the byte-at-a-time table, and each row steps
/// the one above it through one more zero byte.
const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut n = 0usize;
    // Const-eval fill of fixed 8 × 256 tables; every index is bounded
    // by its loop (n < 256, k < 8) and by the `& 0xff` mask.
    #[allow(clippy::indexing_slicing)]
    while n < 256 {
        let mut c = n as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { CRC_POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][n] = c;
        n += 1;
    }
    let mut k = 1usize;
    #[allow(clippy::indexing_slicing)]
    while k < 8 {
        let mut n = 0usize;
        while n < 256 {
            let prev = tables[k - 1][n];
            tables[k][n] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            n += 1;
        }
        k += 1;
    }
    tables
}

const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

/// `CRC_TABLES[k]` at the low byte of `x`. Callers pass `k < 8` and
/// the mask keeps the byte under 256, so the fallback arm is
/// unreachable; it keeps the lookup panic-free under refactoring.
fn crc_entry(k: usize, x: u64) -> u32 {
    CRC_TABLES.get(k).and_then(|t| t.get((x & 0xff) as usize)).copied().unwrap_or(0)
}

/// CRC32 (IEEE, reflected) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        // An 8-byte chunk always converts; the zero fallback is never
        // taken.
        let x = u64::from_le_bytes(word.try_into().unwrap_or([0; 8])) ^ u64::from(crc);
        crc = (0..8).fold(0, |acc, i| acc ^ crc_entry(7 - i, x >> (8 * i)));
    }
    for b in words.remainder() {
        crc = crc_entry(0, u64::from(crc ^ u32::from(*b))) ^ (crc >> 8);
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

    /// The byte-at-a-time CRC the sliced one replaced: one lookup in
    /// the first table per byte.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for b in bytes {
            crc = CRC_TABLES[0][((crc ^ u32::from(*b)) & 0xff) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn sliced_crc_equals_the_bytewise_one_at_every_length_and_offset() {
        // Pseudo-random bytes (an LCG), so every table entry is reached.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let buf: Vec<u8> = (0..601)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect();
        for start in 0..=300 {
            for len in 0..=300 {
                let bytes = &buf[start..start + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "start {start}, len {len}");
            }
        }
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
