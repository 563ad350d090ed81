//! Table 1 comparison substrate: the five baseline protocols
//! (MR, MMR2, GL, 1/3-MMR, 1/4-MMR) alongside TOB-SVD.
//!
//! The paper's evaluation (Table 1) compares *protocol-structure
//! constants* — latencies in Δ, voting phases, communication exponents —
//! not testbed measurements. This crate regenerates them from first
//! principles:
//!
//! * [`spec`] — the published constants of every protocol plus the
//!   structural view-process parameters (view length, decision offset,
//!   voting phases per view) that generate them;
//! * [`process`] — the leader-lottery view process: closed-form and
//!   Monte-Carlo expected latency, transaction expected latency and
//!   voting phases per decided block, driven by the good-leader
//!   probability (> ½ per Lemma 2, → ½ at the adversarial boundary).
//!
//! Where a baseline's own accounting deviates from the plain geometric
//! model (MMR2's expected case, MR's transaction expected latency), the
//! spec carries the paper constant and the bench prints both, flagged
//! ([`spec::BaselineSpec::geometric_model_exact`]; README § "Build,
//! test, bench").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod process;
pub mod spec;

pub use process::{
    closed_form_expected, closed_form_tx_expected, phases_per_block, simulate_expected_latency,
    simulate_tx_expected_latency, ViewProcess,
};
pub use spec::{all_specs, BaselineSpec, PaperRow};
