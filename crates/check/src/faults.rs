//! Fetch-subprotocol fault injection.
//!
//! Two complementary levers attack the delta-sync plane, both scoped to
//! `BlockRequest`/`BlockResponse` copies touching a targeted validator
//! inside a bounded tick window:
//!
//! * [`FetchFaultFilter`] — a [`DeliveryFilter`] that *drops* the
//!   copies outright. This steps outside the synchrony model, so the
//!   protocol's answer is not a proof obligation but machinery: fetch
//!   retries re-broadcast until the window closes.
//! * [`FetchFaultDelay`] — a [`DelayPolicy`] wrapper that stretches the
//!   copies to the full Δ (the worst case synchrony allows), leaving
//!   all other traffic to the wrapped base policy.
//!
//! Both are deterministic functions of `(msg, from, to, at)`, so
//! fault-injected scenarios replay bit-identically.

use rand::rngs::StdRng;
use tobsvd_sim::{DelayPolicy, DeliveryFilter};
use tobsvd_types::{Delta, SignedMessage, Time, ValidatorId};

/// Whether a copy `from → to` sent at `at` touches one of the
/// `(validator, from, until)` windows: the validator is either end and
/// `at` lies in `[from, until)`.
fn in_window(
    windows: &[(ValidatorId, u64, u64)],
    from: ValidatorId,
    to: ValidatorId,
    at: Time,
) -> bool {
    windows.iter().any(|&(v, start, until)| {
        (from == v || to == v) && start <= at.ticks() && at.ticks() < until
    })
}

/// Drops targeted fetch-subprotocol copies (see module doc).
#[derive(Clone, Debug)]
pub struct FetchFaultFilter {
    windows: Vec<(ValidatorId, u64, u64)>,
}

impl FetchFaultFilter {
    /// Creates the filter from the scenario's `Drop`-kind windows.
    pub fn new(windows: Vec<(ValidatorId, u64, u64)>) -> Self {
        FetchFaultFilter { windows }
    }
}

impl DeliveryFilter for FetchFaultFilter {
    fn allow(
        &mut self,
        msg: &SignedMessage,
        from: ValidatorId,
        to: ValidatorId,
        at: Time,
    ) -> bool {
        if !msg.payload().is_sync() {
            return true;
        }
        !in_window(&self.windows, from, to, at)
    }
}

/// Worst-case-delays targeted fetch-subprotocol copies, delegating
/// everything else to the wrapped base policy.
pub struct FetchFaultDelay {
    inner: Box<dyn DelayPolicy>,
    windows: Vec<(ValidatorId, u64, u64)>,
}

impl FetchFaultDelay {
    /// Wraps `inner` with the scenario's `Delay`-kind windows.
    pub fn new(inner: Box<dyn DelayPolicy>, windows: Vec<(ValidatorId, u64, u64)>) -> Self {
        FetchFaultDelay { inner, windows }
    }
}

impl DelayPolicy for FetchFaultDelay {
    fn delay(
        &mut self,
        msg: &SignedMessage,
        from: ValidatorId,
        to: ValidatorId,
        at: Time,
        delta: Delta,
        rng: &mut StdRng,
    ) -> u64 {
        if msg.payload().is_sync() && in_window(&self.windows, from, to, at) {
            return delta.ticks();
        }
        self.inner.delay(msg, from, to, at, delta, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tobsvd_crypto::Keypair;
    use tobsvd_sim::BestCaseDelay;
    use tobsvd_types::{BlockStore, InstanceId, Log, Payload};

    fn sync_msg(store: &BlockStore) -> SignedMessage {
        let v = ValidatorId::new(0);
        let kp = Keypair::from_seed(v.key_seed());
        SignedMessage::sign(
            &kp,
            v,
            Payload::BlockRequest { tip: store.genesis(), from_height: 1 },
        )
    }

    fn announce_msg(store: &BlockStore) -> SignedMessage {
        let v = ValidatorId::new(0);
        let kp = Keypair::from_seed(v.key_seed());
        SignedMessage::sign(
            &kp,
            v,
            Payload::Log { instance: InstanceId(0), log: Log::genesis(store) },
        )
    }

    fn window() -> Vec<(ValidatorId, u64, u64)> {
        vec![(ValidatorId::new(1), 10, 20)]
    }

    #[test]
    fn filter_drops_only_targeted_sync_copies_in_window() {
        let store = BlockStore::new();
        let mut f = FetchFaultFilter::new(window());
        let sync = sync_msg(&store);
        let ann = announce_msg(&store);
        let (v0, v1, v2) = (ValidatorId::new(0), ValidatorId::new(1), ValidatorId::new(2));
        // Inside the window, touching v1 (either direction): dropped.
        assert!(!f.allow(&sync, v0, v1, Time::new(10)));
        assert!(!f.allow(&sync, v1, v2, Time::new(19)));
        // Outside the window or not touching v1 or not sync: allowed.
        assert!(f.allow(&sync, v0, v1, Time::new(20)));
        assert!(f.allow(&sync, v0, v2, Time::new(12)));
        assert!(f.allow(&ann, v0, v1, Time::new(12)), "announcements are untouched");
    }

    #[test]
    fn delay_stretches_only_targeted_sync_copies() {
        let store = BlockStore::new();
        let mut p = FetchFaultDelay::new(Box::new(BestCaseDelay), window());
        let mut rng = StdRng::seed_from_u64(1);
        let delta = Delta::new(8);
        let sync = sync_msg(&store);
        let ann = announce_msg(&store);
        let (v0, v1) = (ValidatorId::new(0), ValidatorId::new(1));
        assert_eq!(p.delay(&sync, v0, v1, Time::new(12), delta, &mut rng), 8);
        assert_eq!(p.delay(&sync, v0, v1, Time::new(25), delta, &mut rng), 1);
        assert_eq!(p.delay(&ann, v0, v1, Time::new(12), delta, &mut rng), 1);
    }
}
