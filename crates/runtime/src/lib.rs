//! Real multi-node TOB-SVD deployment over localhost TCP.
//!
//! The same sans-io [`tobsvd_core::Validator`] that runs under the
//! discrete-event simulator runs here against a real network: per node,
//! one thread paced by the tick clock, which once per tick makes one
//! nonblocking pass (the [`IngestStats`]-instrumented `ingest` module)
//! over every inbound socket — peers *and* thousands of client sessions
//! — without a thread per connection and without polling between ticks. The mesh speaks length-prefixed
//! frames encoded by [`tobsvd_types::wire`] (content-addressed delta
//! sync: hash announcements plus `BlockRequest`/`BlockResponse`
//! fetches, so wire bytes per message are O(1) in chain length);
//! clients speak the separate `tobsvd_types::client` protocol on the
//! same listener (classified by the first payload byte) through
//! [`client::ClientConn`]. A shared-epoch tick clock stands in for the
//! model's synchronized clocks, and a bounded
//! [`tobsvd_core::AdmissionPolicy`] mempool acknowledges every
//! submission with explicit backpressure instead of unbounded queueing.
//!
//! This crate is the "would a downstream user actually deploy this?"
//! proof: no simulator types cross the boundary — only wire bytes.
//!
//! ```no_run
//! use tobsvd_runtime::{ClusterConfig, LocalCluster};
//!
//! let report = LocalCluster::run(ClusterConfig::new(4).views(6)).expect("cluster runs");
//! report.assert_agreement();
//! println!("every node decided {} blocks", report.min_decided_len() - 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Static gate (README § "Static analysis"): real time and sockets are
// this crate's job, so the clock/entropy lists of clippy.toml do not
// bind it; hash-order iteration stays denied (workspace lint).
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]
// The whole crate is held to the protocol core's panic-safety lints: it
// parses bytes from untrusted sockets on the node's one thread, and a
// garbled stream closes a session, never a node.
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

pub mod client;
mod clock;
mod cluster;
mod frame;
mod ingest;
mod link;
mod node;

pub use client::{Ack, ClientConn};
pub use clock::TickClock;
pub use cluster::{ClusterConfig, ClusterError, ClusterReport, LocalCluster, RunningCluster};
pub use frame::MAX_FRAME_BYTES;
pub use ingest::{IngestStats, CLIENT_OUTBUF_CAP};
pub use node::{DecidedEvent, NodeConfig, NodeHandle, NodeOutcome};
