//! TOB-SVD — the Total-Order Broadcast protocol of Figure 4.
//!
//! TOB-SVD proceeds in views of 4Δ. Each view `v` runs one
//! [`tobsvd_ga::Ga3`] instance `GA_v` over `[t_v + Δ, t_v + 6Δ]`,
//! overlapping the next view's instance for one Δ. The three view phases
//! each consume one grade of the *previous* view's GA:
//!
//! ```text
//! Propose (t_v):      grade-0 output of GA_{v−1} = the candidate;
//!                     every awake validator proposes an extension with
//!                     its VRF value.
//! Vote (t_v + Δ):     grade-1 output of GA_{v−1} = the lock; input to
//!                     GA_v the highest-VRF non-equivocating proposal
//!                     extending the lock, or the lock itself.
//! Decide (t_v + 2Δ):  grade-2 output of GA_{v−1} is decided.
//! (t_v + 3Δ):         nothing beyond the ongoing GA_v bookkeeping.
//! ```
//!
//! One `LOG` broadcast per view — the *single vote* of the protocol's
//! name — suffices to decide a block in the best case; the protocol
//! works in the (5Δ, 2Δ, ½)-sleepy model.
//!
//! [`Validator`] is the sans-io state machine (also a simulator
//! [`tobsvd_sim::Node`]); [`TobSimulationBuilder`] assembles whole-network
//! simulations; [`ViewSchedule`] carries the Figure 3 timing algebra;
//! [`leader`] has the VRF election helpers used by the Lemma 2
//! experiments; [`sync`] implements the content-addressed delta-sync
//! plane (block knowledge tracking, the bounded pending set, and the
//! `BlockRequest`/`BlockResponse` fetch subprotocol that also carries
//! the §2 recovery path's block content).

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

mod aggregation;
mod config;
pub mod leader;
mod protocol;
mod schedule;
pub mod sync;
mod validator;

pub use config::TobConfig;
pub use leader::ProposalTracker;
pub use protocol::{TobError, TobReport, TobSimulationBuilder, TxWorkload};
pub use schedule::ViewSchedule;
pub use sync::{Resolution, SyncState};
pub use validator::Validator;
