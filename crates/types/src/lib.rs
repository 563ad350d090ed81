//! Core data types for the TOB-SVD reproduction.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace, mirroring §3 ("Model and Definitions") of the paper:
//!
//! * [`Time`] — discrete simulation time in ticks; Δ (the network delay
//!   bound) is a configurable number of ticks.
//! * [`View`] — protocol views; TOB-SVD views span 4Δ.
//! * [`ValidatorId`] — validator identities `v_1 … v_n`.
//! * [`Transaction`], [`Block`], [`Log`], [`BlockStore`] — the log model
//!   of §3.2: a log is a finite sequence of hash-linked blocks extending
//!   the genesis log Λ_g; prefix (⪯), compatibility and conflict are
//!   ancestry relations on the block tree.
//! * [`Payload`], [`SignedMessage`], [`InstanceId`] — the `LOG` message
//!   of §3.3 plus the auxiliary `PROPOSAL` (leader election) and `VOTE`
//!   (Momose–Ren background GA, §4) payloads.
//! * [`wire`] — a hand-rolled binary codec used by the real TCP runtime
//!   and the simulator's byte accounting. Since the delta-sync refactor,
//!   log-carrying messages cross the wire as *hash announcements* (tip
//!   hash + parent-hash list + a one-block inline window); missing
//!   content is fetched with [`Payload::BlockRequest`] /
//!   [`Payload::BlockResponse`], so per-message wire bytes are O(1) in
//!   chain length instead of the O(L) full-chain shipping of Table 1's
//!   accounting (retained as [`wire::inline_equivalent_len`] for
//!   comparison).
//!
//! # Example
//!
//! ```
//! use tobsvd_types::{BlockStore, Log, ValidatorId, View};
//!
//! let store = BlockStore::new();
//! let genesis = Log::genesis(&store);
//! let a = genesis.extend_empty(&store, ValidatorId::new(0), View::new(1));
//! let b = a.extend_empty(&store, ValidatorId::new(1), View::new(2));
//! assert!(genesis.is_prefix_of(&b, &store));
//! assert!(a.compatible(&b, &store));
//! assert_eq!(b.len(), 3);
//! ```

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

/// Fixed per-message envelope overhead assumed by the *nominal*
/// (pre-delta-sync) byte accounting — see
/// [`wire::inline_equivalent_len`].
pub const ENVELOPE_NOMINAL_BYTES: u64 = 64;

mod block;
pub mod client;
mod ids;
mod log;
mod message;
mod store;
// Tick arithmetic saturates or is checked: raw `+ - * / %` on the
// wrapped integer is denied here, each exemption says why it cannot
// overflow (tests/delta_saturation.rs drives the callers' side).
#[cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
mod time;
mod tx;
#[cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
mod view;
pub mod wire;

pub use block::{Block, BlockId};
pub use ids::ValidatorId;
pub use log::Log;
pub use message::{InstanceId, Payload, SignedMessage, SignerSet};
pub use store::{BlockStore, StoreError};
pub use time::{Delta, Time};
pub use tx::{Transaction, TxId};
pub use view::View;
