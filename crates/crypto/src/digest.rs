//! 32-byte digest newtype and an incremental [`Hasher`].

use std::fmt;

use crate::sha256impl::Sha256State;

/// A 32-byte SHA-256 digest.
///
/// Digests are ordered lexicographically (big-endian), which is what the
/// VRF-based leader election uses to compare VRF outputs.
///
/// ```
/// use tobsvd_crypto::{sha256, Digest};
/// let d = sha256(b"abc");
/// let parsed = Digest::from_hex(&d.to_hex()).unwrap();
/// assert_eq!(d, parsed);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Digest([u8; 32]);

impl Digest {
    /// The all-zero digest, used as a sentinel (e.g. the genesis parent).
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Wraps raw bytes as a digest.
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }

    /// Returns the raw bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Consumes the digest, returning the raw bytes.
    pub fn into_bytes(self) -> [u8; 32] {
        self.0
    }

    /// Lowercase hex encoding of the digest.
    pub fn to_hex(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(64);
        for b in &self.0 {
            // Formatting into a String is infallible.
            let _ = write!(s, "{b:02x}");
        }
        s
    }

    /// Parses a 64-character hex string.
    ///
    /// # Errors
    ///
    /// Returns `None` if the string is not exactly 64 hex characters.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 64 || !s.is_ascii() {
            return None;
        }
        let mut out = [0u8; 32];
        // `chunks_exact(2)` guarantees two bytes per pair, so the pair
        // accesses below are bounds-safe by construction.
        #[allow(clippy::indexing_slicing)]
        for (o, pair) in out.iter_mut().zip(s.as_bytes().chunks_exact(2)) {
            let hi = (pair[0] as char).to_digit(16)?;
            let lo = (pair[1] as char).to_digit(16)?;
            *o = ((hi << 4) | lo) as u8;
        }
        Some(Digest(out))
    }

    /// A short 8-character prefix, handy for logging.
    pub fn short(&self) -> String {
        self.to_hex()[..8].to_string()
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}..)", self.short())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Digest {
    fn from(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }
}

/// Incremental SHA-256 hasher with a domain-separation convention.
///
/// Each logical field is written with [`Hasher::update`]; fixed-width
/// integers are written big-endian so the encoding is injective for the
/// message layouts used in this repository.
///
/// ```
/// use tobsvd_crypto::Hasher;
/// let mut h = Hasher::new("block");
/// h.update(b"payload");
/// h.update_u64(42);
/// let digest = h.finalize();
/// assert_eq!(digest, {
///     let mut h2 = Hasher::new("block");
///     h2.update(b"payload");
///     h2.update_u64(42);
///     h2.finalize()
/// });
/// ```
#[derive(Clone, Debug)]
pub struct Hasher {
    state: Sha256State,
}

impl Hasher {
    /// Creates a hasher with a domain-separation tag.
    ///
    /// The tag length and bytes are absorbed first so different domains
    /// can never collide on identical payloads.
    pub fn new(domain: &str) -> Self {
        let mut state = Sha256State::new();
        state.update(&(domain.len() as u64).to_be_bytes());
        state.update(domain.as_bytes());
        Hasher { state }
    }

    /// Absorbs raw bytes, length-prefixed for injectivity.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.state.update(&(data.len() as u64).to_be_bytes());
        self.state.update(data);
        self
    }

    /// Absorbs a `u64` in big-endian.
    pub fn update_u64(&mut self, v: u64) -> &mut Self {
        self.state.update(&v.to_be_bytes());
        self
    }

    /// Absorbs another digest.
    pub fn update_digest(&mut self, d: &Digest) -> &mut Self {
        self.state.update(d.as_bytes());
        self
    }

    /// Finishes and returns the digest.
    pub fn finalize(self) -> Digest {
        self.state.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256;

    #[test]
    fn hex_roundtrip() {
        let d = sha256(b"roundtrip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
    }

    #[test]
    fn from_hex_rejects_bad_input() {
        assert_eq!(Digest::from_hex("xyz"), None);
        assert_eq!(Digest::from_hex(&"g".repeat(64)), None);
        assert_eq!(Digest::from_hex(&"a".repeat(63)), None);
        assert_eq!(Digest::from_hex(&"a".repeat(65)), None);
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut lo = [0u8; 32];
        let mut hi = [0u8; 32];
        lo[0] = 1;
        hi[0] = 2;
        assert!(Digest::from_bytes(lo) < Digest::from_bytes(hi));
        let mut hi2 = [0u8; 32];
        hi2[31] = 1;
        assert!(Digest::ZERO < Digest::from_bytes(hi2));
    }

    #[test]
    fn domain_separation_changes_digest() {
        let mut a = Hasher::new("domain-a");
        a.update(b"same");
        let mut b = Hasher::new("domain-b");
        b.update(b"same");
        assert_ne!(a.finalize(), b.finalize());
    }

    #[test]
    fn length_prefix_is_injective() {
        // ("ab","c") must differ from ("a","bc").
        let mut a = Hasher::new("t");
        a.update(b"ab").update(b"c");
        let mut b = Hasher::new("t");
        b.update(b"a").update(b"bc");
        assert_ne!(a.finalize(), b.finalize());
    }

    #[test]
    fn debug_and_display_non_empty() {
        let d = Digest::ZERO;
        assert!(!format!("{d:?}").is_empty());
        assert_eq!(format!("{d}").len(), 64);
    }
}
