//! Graded Agreement (GA) primitives of the TOB-SVD paper.
//!
//! A Graded Agreement with `k` grades lets each validator input a log Λ
//! and output logs with grades `0 ≤ g < k`, subject to (paper §3.2):
//!
//! 1. **Consistency** — grade-`g` outputs (g > 0) of honest validators
//!    never conflict;
//! 2. **Graded Delivery** — an honest grade-`g` output (Λ, g) forces
//!    every honest participant in the grade-`g−1` output phase to output
//!    (Λ, g−1);
//! 3. **Validity** — if every honest validator awake at time 0 inputs an
//!    extension of Λ, all participants output (Λ, g) for every grade;
//! 4. **Integrity** — no honest output extends a log no honest validator
//!    input an extension of;
//! 5. **Uniqueness** — one honest validator never outputs two conflicting
//!    logs at the same grade.
//!
//! [`properties`] states the five as predicates over the honest
//! validators' outputs, for tests and checkers to share.
//!
//! Two protocols:
//!
//! * [`Ga<K>`](Ga) — Figures 1 and 2, one state machine for every `k`:
//!   [`Ga2`] (k = 2, 3Δ, the (3Δ, 0, ½)-sleepy model) and [`Ga3`]
//!   (k = 3, 5Δ, the (5Δ, 0, ½)-sleepy model; the nested time-shifted
//!   quorum, and the GA TOB-SVD runs). Uniqueness holds at *every*
//!   grade.
//! * [`MrGa`] — the §4 background protocol of Momose–Ren, with `VOTE`
//!   messages; grade-0 outputs may violate Uniqueness (counting
//!   equivocations in `X_Λ`), which the `mr_uniqueness_gap` experiment
//!   demonstrates.
//!
//! Both are sans-io state machines driven by `on_log` / `on_vote` /
//! `on_phase`, and this crate depends only on `tobsvd-types` and
//! `tobsvd-crypto`. `tobsvd-core` embeds [`Ga3`] directly inside the
//! TOB-SVD validator; `tobsvd_sim::GaNode` adapts [`Ga2`], [`Ga3`] and
//! [`MrGa`] to the protocol's `Node` interface for standalone GA
//! experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ga;
mod mr;
pub mod properties;
pub mod support;
mod tracker;

pub use ga::{Ga, Ga2, Ga3};
pub use mr::{MrGa, MR_DURATION_DELTAS};
pub use tracker::{LogTracker, TrackOutcome, VSnapshot};
