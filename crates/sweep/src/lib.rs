//! Scenario sweeps: declarative evaluation matrices for TOB-SVD and a
//! parallel runner that executes them on scoped worker threads.
//!
//! The paper's headline claims (6Δ good-case latency, liveness under
//! churn, safety against split-brain equivocation) are statements over
//! *families* of executions, not single runs. This crate makes those
//! families first-class:
//!
//! * [`ScenarioMatrix`] declares a cartesian product
//!   `n × Δ × participation × delay policy × adversary × seed`; its
//!   expansion is an ordered list of self-contained [`Scenario`] values.
//! * [`run_matrix`]/[`run_scenarios`] execute the list on a pool of
//!   crossbeam scoped threads. Every scenario is an independent
//!   simulation with its own `StdRng` derived from the scenario seed, so
//!   results are bit-identical regardless of thread count or completion
//!   order — a [`SweepReport`] is always presented in matrix order.
//! * [`SweepReport`] aggregates per-scenario [`ScenarioOutcome`]s
//!   (safety, decided blocks, good-leader fraction, latency, message
//!   complexity, executed-tick counts) and renders them as a table or
//!   JSON for trend tracking across commits.
//!
//! ```
//! use tobsvd_sweep::{DelaySpec, ScenarioMatrix};
//!
//! let matrix = ScenarioMatrix::new(vec![4], vec![4]).views(4).seeds(vec![1]);
//! let report = tobsvd_sweep::run_matrix(&matrix, 2);
//! assert_eq!(report.outcomes().len(), 1);
//! assert!(report.all_safe());
//! assert_eq!(matrix.delays, vec![DelaySpec::Uniform]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod matrix;
mod report;
mod runner;

pub use matrix::{AdversarySpec, DelaySpec, ParticipationSpec, Scenario, ScenarioMatrix};
pub use report::{ScenarioOutcome, SweepReport};
pub use runner::{effective_threads, run_indexed, run_matrix, run_scenarios};
