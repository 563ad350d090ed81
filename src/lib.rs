//! # TOB-SVD — Total-Order Broadcast with Single-Vote Decisions in the Sleepy Model
//!
//! Facade crate for the full reproduction of the paper
//! *TOB-SVD: Total-Order Broadcast with Single-Vote Decisions in the
//! Sleepy Model* (D'Amato, Saltini, Tran, Zanolini — ICDCS 2025,
//! arXiv:2310.11331).
//!
//! The repository is a Cargo workspace; this crate re-exports every member
//! under a stable module path so downstream users can depend on a single
//! crate:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `tobsvd-types` | time, logs, blocks, views, messages, wire codec |
//! | [`crypto`] | `tobsvd-crypto` | SHA-256, simulated signatures, hash VRF |
//! | [`sim`] | `tobsvd-sim` | discrete-event sleepy-model simulator |
//! | [`ga`] | `tobsvd-ga` | Graded Agreement primitives (Figures 1–2, §4) |
//! | [`protocol`] | `tobsvd-core` | the TOB-SVD protocol (Figure 4) |
//! | [`adversary`] | `tobsvd-adversary` | Byzantine strategies and churn generators |
//! | [`baselines`] | `tobsvd-baselines` | Table 1 comparison protocols |
//! | [`analysis`] | `tobsvd-analysis` | statistics and table rendering |
//! | [`runtime`] | `tobsvd-runtime` | real TCP multi-node deployment |
//! | [`finality`] | `tobsvd-finality` | ebb-and-flow finality gadget (paper intro) |
//! | [`storage`] | `tobsvd-storage` | durable WAL + snapshot checkpoints + crash recovery |
//! | [`sweep`] | `tobsvd-sweep` | declarative scenario matrices + parallel sweep runner |
//! | [`check`] | `tobsvd-check` | randomized schedule-exploration model checker + shrinker |
//!
//! # Quickstart
//!
//! Run a fault-free 8-validator network for 12 views and read back the
//! decided log:
//!
//! ```
//! use tob_svd::protocol::TobSimulationBuilder;
//!
//! let report = TobSimulationBuilder::new(8)
//!     .views(12)
//!     .seed(7)
//!     .run()
//!     .expect("simulation runs");
//! assert!(report.max_decided_len() > 1);
//! report.assert_safety();
//! ```

#![forbid(unsafe_code)]

pub use tobsvd_adversary as adversary;
pub use tobsvd_analysis as analysis;
pub use tobsvd_baselines as baselines;
pub use tobsvd_check as check;
pub use tobsvd_core as protocol;
pub use tobsvd_crypto as crypto;
pub use tobsvd_finality as finality;
pub use tobsvd_ga as ga;
#[cfg(feature = "runtime")]
pub use tobsvd_runtime as runtime;
pub use tobsvd_sim as sim;
pub use tobsvd_storage as storage;
pub use tobsvd_sweep as sweep;
pub use tobsvd_types as types;
