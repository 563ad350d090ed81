//! Cryptographic substrate for the TOB-SVD reproduction.
//!
//! The paper assumes an idealized cryptographic layer: unforgeable
//! signatures bound to validator identities and a Verifiable Random
//! Function (VRF) used for leader election (paper, §3.1 and §3.3). This
//! crate provides that layer:
//!
//! * [`sha256`] — a from-scratch SHA-256 implementation (FIPS 180-4),
//!   validated against the NIST known-answer vectors. Everything
//!   content-addressed in the repository (block ids, message ids, VRF
//!   outputs, signatures) hashes through it. On x86-64 CPUs with the SHA
//!   extensions the compression runs on a SHA-NI kernel, chosen at run
//!   time by a CPUID check; the portable compression is the fallback
//!   elsewhere and the reference the kernel is tested against.
//! * [`Digest`] — a 32-byte digest newtype with ordering, hex formatting
//!   and incremental hashing helpers.
//! * [`Keypair`]/[`Signature`] — *simulated* signatures: a signature is a
//!   keyed digest binding `(secret, message)`. Verification recomputes the
//!   binding from the registered key material. The simulator and runtime
//!   uphold the paper's unforgeability assumption ("as long as a validator
//!   remains honest, the adversary cannot forge its signatures") by
//!   construction: no component fabricates a binding for a key it does not
//!   hold.
//! * [`AggregateSignature`] — a BLS-shaped aggregate over constituent
//!   signatures, verified in one pass over the `(key, message)` pairs;
//!   quorum certificates ride on it to compress `k` votes into one
//!   constant-size attestation.
//! * [`KeyCache`] — a process-wide memo of seed → keypair derivations;
//!   key material is a pure function of the seed, so the hot receive
//!   paths look keys up instead of re-deriving them per message.
//! * [`Vrf`] — a hash-based VRF: `eval(view) = H(secret ‖ view)`, publicly
//!   verifiable by recomputation from the public seed. Outputs are fixed
//!   per `(validator, view)` *before* any adversarial corruption choice,
//!   which is exactly the property Lemma 2 of the paper relies on.
//!
//! # Example
//!
//! ```
//! use tobsvd_crypto::{sha256, Digest, Keypair};
//!
//! let d: Digest = sha256(b"abc");
//! assert_eq!(
//!     d.to_hex(),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//!
//! let kp = Keypair::from_seed(7);
//! let sig = kp.sign(b"hello");
//! assert!(kp.public().verify(b"hello", &sig));
//! assert!(!kp.public().verify(b"other", &sig));
//! ```

// `deny`, not `forbid` as in every other crate: the SHA-NI kernel in
// `sha256impl.rs` is the workspace's one site-level exemption from
// `unsafe_code`, and its unsafe call must carry a `// SAFETY:` comment.
#![deny(unsafe_code, clippy::undocumented_unsafe_blocks)]
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

mod aggregate;
mod cache;
mod digest;
mod keys;
mod sha256impl;
mod vrf;

pub use aggregate::{AggregateError, AggregateSignature};
pub use cache::KeyCache;
pub use digest::{Digest, Hasher};
pub use keys::{Keypair, PublicKey, SecretKey, Signature};
pub use sha256impl::sha256;
pub use vrf::{Vrf, VrfOutput, VrfProof};
