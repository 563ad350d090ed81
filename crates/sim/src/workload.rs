//! Deterministic open-loop client workload generator.
//!
//! Models a large population of distinct users (millions are fine — the
//! population is never materialized; users exist only as sampled ranks)
//! submitting transactions *open-loop*: arrivals occur at a configured
//! rate regardless of how the system is keeping up, which is what makes
//! saturation and backpressure observable at all. Closed-loop drivers
//! (wait-for-ack-then-send) self-throttle and hide overload — the
//! classic coordinated-omission trap.
//!
//! Per-user activity follows a Zipf distribution (a few hot users send
//! most traffic, a long tail sends rarely), sampled in O(1) via the
//! bounded-Pareto inverse CDF, and the aggregate rate is modulated by
//! periodic bursts. Everything is driven by one dedicated
//! [`rand::StdRng`] stream, so a given `(spec, seed)` pair yields a
//! byte-identical arrival schedule on every run — and, because the
//! stream is the generator's own, wiring a workload into an existing
//! simulation perturbs none of the simulation's other RNG streams.
//!
//! The same generator drives the sim engine (via
//! `TxWorkload::OpenLoop`) and the TCP runtime's ingestion bench, so
//! "the workload" means the same bytes in both worlds.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tobsvd_types::{Time, Transaction};

/// Parameters of an open-loop workload. All-integer (fixed-point in
/// milli-units where fractional values are useful) so specs are `Copy`,
/// `Eq` and hashable — sweep matrices and scenario labels need that.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct OpenLoopSpec {
    /// Distinct users in the population (sampled, never materialized).
    pub users: u64,
    /// Zipf exponent `s` ×1000 (1000 ⇒ s = 1.0; 0 ⇒ uniform).
    pub zipf_milli: u64,
    /// Mean arrivals per tick ×1000 (500 ⇒ one tx every other tick).
    pub rate_milli: u64,
    /// Ticks between burst onsets (0 disables bursts).
    pub burst_every: u64,
    /// Burst duration in ticks.
    pub burst_len: u64,
    /// Rate multiplier while a burst is active.
    pub burst_mult: u64,
    /// Transaction payload size in bytes (min 16: user + nonce header).
    pub tx_bytes: u32,
    /// Fee bids are drawn uniformly from `1..=fee_levels` (0 ⇒ all 1).
    pub fee_levels: u64,
}

impl Default for OpenLoopSpec {
    /// A million-user population with a mildly skewed (s = 0.9) Zipf
    /// profile, 2 tx/tick steady state and 8× bursts every 200 ticks.
    fn default() -> Self {
        OpenLoopSpec {
            users: 1_000_000,
            zipf_milli: 900,
            rate_milli: 2_000,
            burst_every: 200,
            burst_len: 20,
            burst_mult: 8,
            tx_bytes: 64,
            fee_levels: 16,
        }
    }
}

impl OpenLoopSpec {
    /// Compact human-readable label for sweep rows and scenario names.
    pub fn label(&self) -> String {
        format!(
            "open{}u-z{}-r{}{}",
            self.users,
            self.zipf_milli,
            self.rate_milli,
            if self.burst_every > 0 {
                format!("-b{}x{}", self.burst_every, self.burst_mult)
            } else {
                String::new()
            }
        )
    }

    /// Arrival rate (milli-tx per tick) in effect at `tick`, accounting
    /// for bursts.
    pub fn rate_milli_at(&self, tick: u64) -> u64 {
        let bursting = self.burst_every > 0
            && self.burst_len > 0
            && (tick % self.burst_every) < self.burst_len;
        if bursting {
            self.rate_milli.saturating_mul(self.burst_mult.max(1))
        } else {
            self.rate_milli
        }
    }
}

/// One generated client submission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Submission tick.
    pub at: Time,
    /// Originating user (0-based rank; low ranks are the hot users).
    pub user: u64,
    /// Fee bid.
    pub fee: u64,
    /// The transaction (payload encodes user + per-user nonce, so every
    /// arrival is a distinct, content-addressed transaction).
    pub tx: Transaction,
}

/// Deterministic open-loop arrival generator.
///
/// ```
/// use tobsvd_sim::{OpenLoopSpec, OpenLoopWorkload};
/// use tobsvd_types::Time;
///
/// let spec = OpenLoopSpec { rate_milli: 1_500, burst_every: 0, ..OpenLoopSpec::default() };
/// let mut a = OpenLoopWorkload::new(spec, 42);
/// let mut b = OpenLoopWorkload::new(spec, 42);
/// let xs: Vec<_> = (0..10).flat_map(|t| a.tick(Time::new(t))).collect();
/// let ys: Vec<_> = (0..10).flat_map(|t| b.tick(Time::new(t))).collect();
/// assert_eq!(xs, ys);                // same seed ⇒ same schedule
/// assert_eq!(xs.len(), 15);          // 1.5 tx/tick over 10 ticks
/// ```
#[derive(Clone, Debug)]
pub struct OpenLoopWorkload {
    spec: OpenLoopSpec,
    rng: StdRng,
    /// Fractional-arrival accumulator in milli-units: arrival *counts*
    /// per tick are a pure function of (spec, tick), independent of the
    /// RNG, which only picks users and fees.
    carry_milli: u64,
    /// Per-user nonces (only touched users occupy memory).
    nonces: BTreeMap<u64, u64>,
}

impl OpenLoopWorkload {
    /// Creates a generator over its own dedicated RNG stream.
    pub fn new(spec: OpenLoopSpec, seed: u64) -> Self {
        OpenLoopWorkload {
            spec,
            rng: StdRng::seed_from_u64(seed),
            carry_milli: 0,
            nonces: BTreeMap::new(),
        }
    }

    /// The spec this generator was built from.
    pub fn spec(&self) -> OpenLoopSpec {
        self.spec
    }

    /// Generates the arrivals for tick `now` (possibly none).
    pub fn tick(&mut self, now: Time) -> Vec<Arrival> {
        self.carry_milli += self.spec.rate_milli_at(now.ticks());
        let count = self.carry_milli / 1_000;
        self.carry_milli %= 1_000;
        let mut out = Vec::with_capacity(count as usize);
        for _ in 0..count {
            out.push(self.arrival(now));
        }
        out
    }

    fn arrival(&mut self, now: Time) -> Arrival {
        let user = self.sample_user();
        let fee = if self.spec.fee_levels > 1 {
            self.rng.gen_range(1..=self.spec.fee_levels)
        } else {
            1
        };
        let nonce = self.nonces.entry(user).or_insert(0);
        *nonce += 1;
        let tx = build_tx(user, *nonce, self.spec.tx_bytes);
        Arrival { at: now, user, fee, tx }
    }

    /// Samples a user rank from a Zipf(s) profile over `users` ranks via
    /// the bounded-Pareto inverse CDF — O(1) per sample, no per-user
    /// state, so million-user populations cost nothing up front.
    fn sample_user(&mut self) -> u64 {
        let n = self.spec.users.max(1) as f64;
        let s = self.spec.zipf_milli as f64 / 1_000.0;
        let u = self.rng.gen::<f64>();
        let x = if (s - 1.0).abs() < 1e-9 {
            // s = 1: inverse of H(x) ≈ ln x / ln N.
            n.powf(u)
        } else {
            // s ≠ 1: inverse of the truncated power-law CDF.
            let t: f64 = 1.0 + u * (n.powf(1.0 - s) - 1.0);
            t.powf(1.0 / (1.0 - s))
        };
        let rank = x.floor() as u64;
        rank.clamp(1, self.spec.users.max(1)) - 1
    }
}

/// Builds the deterministic payload for (user, nonce): an 8+8-byte
/// header zero-padded to `tx_bytes`. Content addressing then gives each
/// (user, nonce) pair a unique, reproducible [`tobsvd_types::TxId`].
fn build_tx(user: u64, nonce: u64, tx_bytes: u32) -> Transaction {
    let len = (tx_bytes as usize).max(16);
    let mut payload = vec![0u8; len];
    payload[..8].copy_from_slice(&user.to_be_bytes());
    payload[8..16].copy_from_slice(&nonce.to_be_bytes());
    Transaction::new(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn flat(spec: OpenLoopSpec, seed: u64, ticks: u64) -> Vec<Arrival> {
        let mut w = OpenLoopWorkload::new(spec, seed);
        (0..ticks).flat_map(|t| w.tick(Time::new(t))).collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        let spec = OpenLoopSpec::default();
        assert_eq!(flat(spec, 7, 300), flat(spec, 7, 300));
    }

    #[test]
    fn different_seeds_differ() {
        let spec = OpenLoopSpec { burst_every: 0, ..OpenLoopSpec::default() };
        assert_ne!(flat(spec, 7, 100), flat(spec, 8, 100));
    }

    #[test]
    fn arrival_count_matches_rate_exactly() {
        let spec = OpenLoopSpec {
            rate_milli: 1_250,
            burst_every: 0,
            ..OpenLoopSpec::default()
        };
        // Counts are RNG-independent: 1.25 tx/tick × 400 ticks = 500.
        assert_eq!(flat(spec, 1, 400).len(), 500);
        assert_eq!(flat(spec, 999, 400).len(), 500);
    }

    #[test]
    fn bursts_raise_the_rate() {
        let base = OpenLoopSpec {
            rate_milli: 1_000,
            burst_every: 0,
            ..OpenLoopSpec::default()
        };
        let bursty = OpenLoopSpec { burst_every: 50, burst_len: 10, burst_mult: 5, ..base };
        let plain = flat(base, 3, 100).len();
        let burst = flat(bursty, 3, 100).len();
        // 20 of 100 ticks run at 5×: 80×1 + 20×5 = 180 vs 100.
        assert_eq!(plain, 100);
        assert_eq!(burst, 180);
    }

    #[test]
    fn all_arrivals_are_distinct_txs() {
        let spec = OpenLoopSpec {
            users: 10, // tiny population forces nonce reuse pressure
            zipf_milli: 1_000,
            rate_milli: 5_000,
            burst_every: 0,
            ..OpenLoopSpec::default()
        };
        let arrivals = flat(spec, 5, 200);
        let ids: BTreeSet<_> = arrivals.iter().map(|a| a.tx.id()).collect();
        assert_eq!(ids.len(), arrivals.len());
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let spec = OpenLoopSpec {
            users: 1_000_000,
            zipf_milli: 1_100,
            rate_milli: 10_000,
            burst_every: 0,
            ..OpenLoopSpec::default()
        };
        let arrivals = flat(spec, 11, 1_000);
        let hot = arrivals.iter().filter(|a| a.user < 100).count();
        // Under s=1.1 the top-100 of a million users carry a large
        // share; under uniform they would carry ~0.01%.
        assert!(
            hot * 10 > arrivals.len(),
            "expected >10% of traffic from top-100 users, got {hot}/{}",
            arrivals.len()
        );
        // The tail exists too: some arrival from outside the top 10k.
        assert!(arrivals.iter().any(|a| a.user >= 10_000));
    }

    #[test]
    fn uniform_when_zipf_zero() {
        let spec = OpenLoopSpec {
            users: 1_000,
            zipf_milli: 0,
            rate_milli: 20_000,
            burst_every: 0,
            ..OpenLoopSpec::default()
        };
        let arrivals = flat(spec, 13, 500);
        let hot = arrivals.iter().filter(|a| a.user < 10).count();
        // ~1% expected; allow generous slack but rule out Zipf-like mass.
        assert!(hot < arrivals.len() / 20, "uniform sampling looks skewed: {hot}");
    }

    #[test]
    fn fees_span_the_configured_levels() {
        let spec = OpenLoopSpec {
            fee_levels: 4,
            rate_milli: 10_000,
            burst_every: 0,
            ..OpenLoopSpec::default()
        };
        let fees: BTreeSet<u64> = flat(spec, 21, 200).iter().map(|a| a.fee).collect();
        assert_eq!(fees, (1..=4).collect());
    }
}
