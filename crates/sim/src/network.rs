//! Message delay policies.
//!
//! The network is synchronous with delay bound Δ: a message sent at `t`
//! must be delivered at some `t' ∈ (t, t+Δ]`. Within that window, delays
//! are adversary-controlled; a [`DelayPolicy`] decides the delay of each
//! individual copy. Adversarial split/targeted policies live in
//! `tobsvd-adversary`; the three canonical policies are here.

use rand::rngs::StdRng;
use rand::Rng;
use tobsvd_types::{Delta, SignedMessage, Time, ValidatorId};

/// Decides per-copy message delays, in ticks within `[1, Δ]`.
pub trait DelayPolicy: Send {
    /// Delay for the copy of `msg` sent by `from` to `to` at time `at`.
    ///
    /// Implementations must return a value in `[1, delta.ticks()]`; the
    /// engine clamps out-of-range values defensively into `[1, Δ]`, so a
    /// buggy policy returning `0` or `u64::MAX` cannot produce same-tick
    /// or unbounded delivery.
    fn delay(
        &mut self,
        msg: &SignedMessage,
        from: ValidatorId,
        to: ValidatorId,
        at: Time,
        delta: Delta,
        rng: &mut StdRng,
    ) -> u64;
}

/// Per-copy delivery veto, consulted before the delay draw.
///
/// A `DeliveryFilter` models a lossy network adversary: returning
/// `false` suppresses that copy entirely (counted in
/// `Metrics::filtered`), which is *stronger* than anything a
/// [`DelayPolicy`] may do — delays are clamped into the synchrony
/// window, drops step outside the model. The model checker uses filters
/// to attack the delta-sync fetch subprotocol (dropping
/// `BlockRequest`/`BlockResponse` copies in bounded windows) and to
/// verify that fetch retries recover. Self-copies (`from == to`) are
/// never filtered. The default configuration installs no filter.
pub trait DeliveryFilter: Send {
    /// Whether the copy of `msg` from `from` to `to` sent at `at` may
    /// be delivered.
    fn allow(
        &mut self,
        msg: &SignedMessage,
        from: ValidatorId,
        to: ValidatorId,
        at: Time,
    ) -> bool;
}

/// Uniform random delay in `[1, Δ]` — the "benign network" default.
#[derive(Clone, Copy, Debug, Default)]
pub struct UniformDelay;

impl DelayPolicy for UniformDelay {
    fn delay(
        &mut self,
        _msg: &SignedMessage,
        _from: ValidatorId,
        _to: ValidatorId,
        _at: Time,
        delta: Delta,
        rng: &mut StdRng,
    ) -> u64 {
        rng.gen_range(1..=delta.ticks())
    }
}

/// Every copy takes exactly Δ — the adversarial worst case allowed by
/// synchrony, and the setting under which the paper's latency numbers
/// (6Δ best case etc.) are tight.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorstCaseDelay;

impl DelayPolicy for WorstCaseDelay {
    fn delay(
        &mut self,
        _msg: &SignedMessage,
        _from: ValidatorId,
        _to: ValidatorId,
        _at: Time,
        _delta: Delta,
        _rng: &mut StdRng,
    ) -> u64 {
        _delta.ticks()
    }
}

/// Every copy arrives on the next tick — instantaneous network.
#[derive(Clone, Copy, Debug, Default)]
pub struct BestCaseDelay;

impl DelayPolicy for BestCaseDelay {
    fn delay(
        &mut self,
        _msg: &SignedMessage,
        _from: ValidatorId,
        _to: ValidatorId,
        _at: Time,
        _delta: Delta,
        _rng: &mut StdRng,
    ) -> u64 {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tobsvd_crypto::Keypair;
    use tobsvd_types::{BlockStore, InstanceId, Log, Payload, SignedMessage};

    fn sample_msg() -> SignedMessage {
        let store = BlockStore::new();
        let v = ValidatorId::new(0);
        let kp = Keypair::from_seed(v.key_seed());
        SignedMessage::sign(&kp, v, Payload::Log { instance: InstanceId(0), log: Log::genesis(&store) })
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = UniformDelay;
        let msg = sample_msg();
        let delta = Delta::new(8);
        for _ in 0..200 {
            let d = p.delay(&msg, ValidatorId::new(0), ValidatorId::new(1), Time::ZERO, delta, &mut rng);
            assert!((1..=8).contains(&d));
        }
    }

    #[test]
    fn worst_case_is_delta() {
        let mut rng = StdRng::seed_from_u64(1);
        let msg = sample_msg();
        let d = WorstCaseDelay.delay(
            &msg,
            ValidatorId::new(0),
            ValidatorId::new(1),
            Time::ZERO,
            Delta::new(8),
            &mut rng,
        );
        assert_eq!(d, 8);
    }

    #[test]
    fn best_case_is_one_tick() {
        let mut rng = StdRng::seed_from_u64(1);
        let msg = sample_msg();
        let d = BestCaseDelay.delay(
            &msg,
            ValidatorId::new(0),
            ValidatorId::new(1),
            Time::ZERO,
            Delta::new(8),
            &mut rng,
        );
        assert_eq!(d, 1);
    }
}
