//! SHA-256 (FIPS 180-4): the one hash every signature, message id, VRF
//! output and block id in the repository goes through.
//!
//! Signature checks are the largest cost of the receive path (README
//! § "Verification plane"), and each is one keyed hash of a few dozen
//! bytes, i.e. two compressions. On x86-64 CPUs with the SHA extensions
//! the compression therefore runs on a SHA-NI kernel, chosen at run time
//! by a CPUID check. Every other CPU runs [`compress_soft`], the portable
//! FIPS 180-4 compression, which is also the reference the kernel is
//! tested against. Both produce the same digest bit for bit; nothing
//! selects between them but the CPU.

use crate::digest::Digest;

/// Initial hash values: first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes, four per row — the kernel adds one row
/// per four rounds.
const K: [[u32; 4]; 16] = [
    [0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5],
    [0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5],
    [0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3],
    [0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174],
    [0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc],
    [0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da],
    [0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7],
    [0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967],
    [0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13],
    [0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85],
    [0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3],
    [0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070],
    [0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5],
    [0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3],
    [0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208],
    [0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2],
];

/// Streaming SHA-256 state: 8 working words plus a partial block buffer.
#[derive(Clone, Debug)]
pub(crate) struct Sha256State {
    h: [u32; 8],
    buf: [u8; 64],
    /// Bytes held in `buf`; always < 64 between calls.
    buf_len: usize,
    total_len: u64,
}

impl Sha256State {
    pub(crate) fn new() -> Self {
        Self { h: H0, buf: [0u8; 64], buf_len: 0, total_len: 0 }
    }

    pub(crate) fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            let (head, rest) = data.split_at(take);
            if let Some(dst) = self.buf.get_mut(self.buf_len..self.buf_len + take) {
                dst.copy_from_slice(head);
            }
            self.buf_len += take;
            data = rest;
            if self.buf_len < 64 {
                return;
            }
            compress(&mut self.h, &self.buf);
            self.buf_len = 0;
        }
        let mut blocks = data.chunks_exact(64);
        for chunk in blocks.by_ref() {
            // `chunks_exact(64)` yields 64-byte chunks only.
            if let Ok(block) = chunk.try_into() {
                compress(&mut self.h, block);
            }
        }
        let tail = blocks.remainder();
        if let Some(dst) = self.buf.get_mut(..tail.len()) {
            dst.copy_from_slice(tail);
            self.buf_len = tail.len();
        }
    }

    pub(crate) fn finalize(mut self) -> Digest {
        // Append 0x80, zero-pad until 8 bytes remain in a block, then
        // append the 64-bit big-endian message bit length. The marker
        // always fits (`buf_len` < 64); if the length does not fit after
        // it (`buf_len` ≥ 56), it goes in a second, all-zero block.
        let (_, tail) = self.buf.split_at_mut(self.buf_len);
        if let Some((marker, zeros)) = tail.split_first_mut() {
            *marker = 0x80;
            zeros.fill(0);
        }
        if self.buf_len >= 56 {
            compress(&mut self.h, &self.buf);
            self.buf = [0u8; 64];
        }
        let (_, len_field) = self.buf.split_at_mut(56);
        len_field.copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        compress(&mut self.h, &self.buf);
        digest_of(&self.h)
    }
}

fn digest_of(h: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (dst, word) in out.chunks_exact_mut(4).zip(h) {
        dst.copy_from_slice(&word.to_be_bytes());
    }
    Digest::from_bytes(out)
}

/// One compression of `block` into `state`: the SHA-NI kernel where the
/// CPU has it, [`compress_soft`] everywhere else.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if compress_shani(state, block) {
        return;
    }
    compress_soft(state, block);
}

/// The portable compression function of FIPS 180-4 § 6.2.2.
fn compress_soft(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    // `chunks_exact(4)` yields four-byte chunks only.
    #[allow(clippy::indexing_slicing)]
    for (dst, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
        *dst = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        // Split so the schedule taps (i-16, i-15, i-7, i-2) read the
        // finished prefix while the new word lands in the suffix; the
        // `else` arms are unreachable (the prefix always holds ≥ 16
        // words) but keep every access bounds-checked.
        let (done, todo) = w.split_at_mut(i);
        let (Some(&w16), Some(&w15), Some(&w7), Some(&w2)) =
            (done.get(i - 16), done.get(i - 15), done.get(i - 7), done.get(i - 2))
        else {
            continue;
        };
        let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
        let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
        if let Some(slot) = todo.first_mut() {
            *slot = w16.wrapping_add(s0).wrapping_add(w7).wrapping_add(s1);
        }
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for (k, wi) in K.iter().flatten().zip(w.iter()) {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(*k)
            .wrapping_add(*wi);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// Runs the SHA-NI kernel if the CPU has the extensions it is compiled
/// for, returning whether it ran; `state` is untouched when it did not.
///
/// The crate's only unsafe code: the kernel `unsafe fn` and its one call.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn compress_shani(state: &mut [u32; 8], block: &[u8; 64]) -> bool {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// The Intel SHA-extensions compression (the instruction sequence of
    /// Intel's "New Instructions Supporting the Secure Hash Algorithm on
    /// Intel Architecture Processors", 2013): `sha256rnds2` runs two
    /// rounds on the state held as `ABEF`/`CDGH` register halves,
    /// `sha256msg1`/`msg2` extend the message schedule four words at a
    /// time.
    ///
    /// # Safety
    ///
    /// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn kernel(state: &mut [u32; 8], block: &[u8; 64]) {
        // Byte shuffle that turns each little-endian lane big-endian.
        let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        // `state` as [A B C D] [E F G H] → the ABEF/CDGH layout rnds2 wants.
        let words = state.as_mut_ptr().cast::<__m128i>();
        let dcba = _mm_loadu_si128(words);
        let hgfe = _mm_loadu_si128(words.add(1));
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
        let (abef_in, cdgh_in) = (abef, cdgh);

        let msg = block.as_ptr().cast::<__m128i>();
        let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(msg), be_words);
        let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(msg.add(1)), be_words);
        let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(msg.add(2)), be_words);
        let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(msg.add(3)), be_words);
        // Four rounds per row of `K`: `w0` always holds the row's four
        // schedule words, and the next four are derived from the last
        // sixteen (the last four rows' derivations go unused).
        for k in &K {
            let wk = _mm_add_epi32(w0, _mm_loadu_si128(k.as_ptr().cast()));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            let w4 = _mm_sha256msg2_epu32(
                _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4)),
                w3,
            );
            (w0, w1, w2, w3) = (w1, w2, w3, w4);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);

        // ABEF/CDGH back to [A B C D] [E F G H].
        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        _mm_storeu_si128(words, _mm_blend_epi16(feba, dchg, 0xf0));
        _mm_storeu_si128(words.add(1), _mm_alignr_epi8(dchg, feba, 8));
    }

    if !(is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1"))
    {
        return false;
    }
    // SAFETY: the CPUID check just above (`is_x86_feature_detected!`)
    // found every feature `kernel` is compiled for, which is its only
    // precondition; its loads and stores stay inside `state` (32 bytes)
    // and `block` (64 bytes), and all of them are unaligned ones.
    unsafe { kernel(state, block) };
    true
}

/// Computes the SHA-256 digest of `data` in one shot.
///
/// ```
/// use tobsvd_crypto::sha256;
/// assert_eq!(
///     sha256(b"").to_hex(),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
/// );
/// ```
pub fn sha256(data: &[u8]) -> Digest {
    let mut st = Sha256State::new();
    st.update(data);
    st.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The digest of `data` in hex, after checking that the soft-only
    /// path gives the same digest.
    fn hex(data: &[u8]) -> String {
        let digest = sha256(data);
        assert_eq!(sha256_soft(data), digest, "soft-only path, {} bytes", data.len());
        digest.to_hex()
    }

    /// SHA-256 over [`compress_soft`] alone, with its own padding: the
    /// fallback, run on every host whatever [`compress`] dispatches to.
    fn sha256_soft(data: &[u8]) -> Digest {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut h = H0;
        for block in msg.chunks_exact(64) {
            compress_soft(&mut h, block.try_into().unwrap());
        }
        digest_of(&h)
    }

    /// splitmix64, the seeded stream of the differential test.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn dispatched_compress_matches_soft_on_random_inputs() {
        let mut rng = 0x5eed_u64;
        for case in 0..20_000 {
            let mut h = [0u32; 8];
            for word in &mut h {
                *word = splitmix(&mut rng) as u32;
            }
            let mut block = [0u8; 64];
            for chunk in block.chunks_exact_mut(8) {
                chunk.copy_from_slice(&splitmix(&mut rng).to_le_bytes());
            }
            let (mut dispatched, mut soft) = (h, h);
            compress(&mut dispatched, &block);
            compress_soft(&mut soft, &block);
            assert_eq!(dispatched, soft, "case {case}: state {h:08x?}, block {block:02x?}");
        }
    }

    #[test]
    fn finalize_pads_like_the_soft_path_at_every_length() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 7 + 3) as u8).collect();
        for len in 0..=data.len() {
            assert_eq!(sha256(&data[..len]), sha256_soft(&data[..len]), "length {len}");
        }
    }

    // NIST / FIPS 180-4 known-answer vectors, on both paths (`hex`).
    #[test]
    fn empty_string() {
        assert_eq!(
            hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn four_block_message() {
        assert_eq!(
            hex(b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&data),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn exactly_55_bytes_fits_padding_in_one_block() {
        // 55 bytes is the largest message whose padding fits in one block.
        let data = vec![0x41u8; 55];
        let one_shot = sha256(&data);
        let mut st = Sha256State::new();
        st.update(&data);
        assert_eq!(st.finalize(), one_shot);
    }

    #[test]
    fn exactly_56_bytes_forces_extra_block() {
        let data = vec![0x42u8; 56];
        // Compare against splitting the update in two arbitrary pieces.
        let mut st = Sha256State::new();
        st.update(&data[..13]);
        st.update(&data[13..]);
        assert_eq!(st.finalize(), sha256(&data));
    }

    #[test]
    fn exactly_64_bytes() {
        let data = vec![0x43u8; 64];
        assert_eq!(sha256(&data), {
            let mut st = Sha256State::new();
            for b in &data {
                st.update(std::slice::from_ref(b));
            }
            st.finalize()
        });
    }

    #[test]
    fn incremental_equals_one_shot_many_splits() {
        let data: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
        let expect = sha256(&data);
        for chunk in [1usize, 3, 7, 31, 63, 64, 65, 127, 1000] {
            let mut st = Sha256State::new();
            for piece in data.chunks(chunk) {
                st.update(piece);
            }
            assert_eq!(st.finalize(), expect, "chunk size {chunk}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        // Not a cryptographic claim, just a sanity check on wiring.
        let a = sha256(b"view:1");
        let b = sha256(b"view:2");
        assert_ne!(a, b);
    }
}
