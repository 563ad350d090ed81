//! SHA-256 (FIPS 180-4) implemented from scratch.
//!
//! The implementation processes input in 512-bit blocks with the standard
//! message schedule and compression function. It is deliberately written
//! for clarity over raw speed; at the message sizes used by the protocol
//! (tens of bytes per hash) it is far from a bottleneck.

use crate::digest::Digest;

/// Initial hash values: first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Streaming SHA-256 state: 8 working words plus a partial block buffer.
#[derive(Clone, Debug)]
pub(crate) struct Sha256State {
    h: [u32; 8],
    buf: [u8; 64],
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
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            let (head, rest) = data.split_at(take);
            for (dst, src) in self.buf.iter_mut().skip(self.buf_len).zip(head) {
                *dst = *src;
            }
            self.buf_len += take;
            data = rest;
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        let mut blocks = data.chunks_exact(64);
        for chunk in blocks.by_ref() {
            let mut block = [0u8; 64];
            block.copy_from_slice(chunk);
            self.compress(&block);
        }
        let tail = blocks.remainder();
        if !tail.is_empty() {
            // The buffer is empty here: a non-empty remainder means the
            // partial-block branch above either stayed empty or flushed.
            for (dst, src) in self.buf.iter_mut().zip(tail) {
                *dst = *src;
            }
            self.buf_len = tail.len();
        }
    }

    pub(crate) fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Append 0x80, pad with zeros until 8 bytes remain in the block,
        // then append the 64-bit big-endian message bit length.
        self.update_padding(0x80);
        while self.buf_len != 56 {
            self.update_padding(0x00);
        }
        let len_bytes = bit_len.to_be_bytes();
        for b in len_bytes {
            self.update_padding(b);
        }
        debug_assert_eq!(self.buf_len, 0);
        let mut out = [0u8; 32];
        for (dst, word) in out.chunks_exact_mut(4).zip(self.h) {
            dst.copy_from_slice(&word.to_be_bytes());
        }
        Digest::from_bytes(out)
    }

    /// Pushes one padding byte without affecting the recorded message length.
    fn update_padding(&mut self, byte: u8) {
        if let Some(slot) = self.buf.get_mut(self.buf_len) {
            *slot = byte;
        }
        self.buf_len += 1;
        if self.buf_len == 64 {
            let block = self.buf;
            self.compress(&block);
            self.buf_len = 0;
        }
    }

    fn compress(&mut self, block: &[u8; 64]) {
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

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.h;
        for (k, wi) in K.iter().zip(w.iter()) {
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

        self.h[0] = self.h[0].wrapping_add(a);
        self.h[1] = self.h[1].wrapping_add(b);
        self.h[2] = self.h[2].wrapping_add(c);
        self.h[3] = self.h[3].wrapping_add(d);
        self.h[4] = self.h[4].wrapping_add(e);
        self.h[5] = self.h[5].wrapping_add(f);
        self.h[6] = self.h[6].wrapping_add(g);
        self.h[7] = self.h[7].wrapping_add(h);
    }
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

    fn hex(data: &[u8]) -> String {
        sha256(data).to_hex()
    }

    // NIST / FIPS 180-4 known-answer vectors.
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
