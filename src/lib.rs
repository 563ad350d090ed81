//! # TOB-SVD — Total-Order Broadcast with Single-Vote Decisions in the Sleepy Model
//!
//! Facade crate for the full reproduction of the paper
//! *TOB-SVD: Total-Order Broadcast with Single-Vote Decisions in the
//! Sleepy Model* (D'Amato, Saltini, Tran, Zanolini — ICDCS 2025,
//! arXiv:2310.11331).
//!
//! The repository is a Cargo workspace; this crate re-exports every
//! library member under a stable module path so downstream users can
//! depend on a single crate (`tobsvd-bench`, the paper-artifact
//! regenerators, is not re-exported):
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`crypto`] | `tobsvd-crypto` | SHA-256, simulated signatures, hash VRF |
//! | [`types`] | `tobsvd-types` | time, logs, blocks, views, messages, wire codec |
//! | [`storage`] | `tobsvd-storage` | durable WAL + snapshot checkpoints + crash recovery |
//! | [`ga`] | `tobsvd-ga` | Graded Agreement primitives (Figures 1–2, §4) |
//! | [`protocol`] | `tobsvd-core` | the TOB-SVD protocol (Figure 4) and its sans-io interface: `Node`, `Context`, the gossip gate, the mempool |
//! | [`sim`] | `tobsvd-sim` | discrete-event sleepy-model simulator, whole-network assembly (`TobSimulationBuilder`), the standalone GA harness (`GaHarness`) |
//! | [`adversary`] | `tobsvd-adversary` | Byzantine strategies and churn generators |
//! | [`check`] | `tobsvd-check` | randomized schedule-exploration model checker + shrinker |
//! | [`runtime`] | `tobsvd-runtime` | real TCP multi-node deployment (on `protocol`, not `sim`) |
//!
//! # Quickstart
//!
//! Run an 8-validator network for 12 views, with every message taking
//! the full Δ, and read back the decided log. Engine settings (delay,
//! sleep schedule, adversary, invariants, …) are `SimulationBuilder`'s
//! own, set through the `engine` hook:
//!
//! ```
//! use tob_svd::sim::{TobSimulationBuilder, WorstCaseDelay};
//!
//! let report = TobSimulationBuilder::new(8)
//!     .views(12)
//!     .seed(7)
//!     .engine(|sim| sim.delay(Box::new(WorstCaseDelay)))
//!     .run()
//!     .expect("simulation runs");
//! assert!(report.max_decided_len() > 1);
//! report.assert_safety();
//! ```

#![forbid(unsafe_code)]

pub use tobsvd_adversary as adversary;
pub use tobsvd_check as check;
pub use tobsvd_core as protocol;
pub use tobsvd_crypto as crypto;
pub use tobsvd_ga as ga;
#[cfg(feature = "runtime")]
pub use tobsvd_runtime as runtime;
pub use tobsvd_sim as sim;
pub use tobsvd_storage as storage;
pub use tobsvd_types as types;
