//! Protocol configuration.

use tobsvd_types::Delta;

/// Maximum transactions batched into one proposed block.
pub const MAX_TXS_PER_PROPOSAL: usize = 256;

/// Static configuration of a TOB-SVD validator.
#[derive(Clone, Debug)]
pub struct TobConfig {
    /// Number of validators `n`.
    pub n: usize,
    /// The network delay bound Δ.
    pub delta: Delta,
    /// Enables the §2 recovery protocol: on waking, broadcast a
    /// `RECOVERY` request, and serve peers' requests from a bounded
    /// archive of recent messages and the certificates already sent.
    /// Required for liveness when the network does not buffer for
    /// asleep validators.
    pub recovery: bool,
    /// Enables the aggregation plane: vote relaying is deferred to the
    /// next phase boundary and quorate vote groups cross the wire as one
    /// `Payload::Certificate` instead of per-receiver vote forwards,
    /// collapsing per-view traffic from O(n³) to O(n²) deliveries.
    /// Disable to reproduce the per-vote baseline (Table 1's cubic fit).
    pub certificates: bool,
    /// Snapshot cadence of the durable storage plane: a checkpoint is
    /// written every time the decided log has grown by this many blocks
    /// since the last one. Only consulted when a durable backend is
    /// attached.
    pub snapshot_every: u64,
}

impl TobConfig {
    /// Default configuration for `n` validators.
    pub fn new(n: usize) -> Self {
        TobConfig {
            n,
            delta: Delta::default(),
            recovery: false,
            certificates: true,
            snapshot_every: 8,
        }
    }

    /// Sets Δ.
    pub fn with_delta(mut self, delta: Delta) -> Self {
        self.delta = delta;
        self
    }

    /// Enables the §2 recovery protocol.
    pub fn with_recovery(mut self, recovery: bool) -> Self {
        self.recovery = recovery;
        self
    }

    /// Enables or disables the quorum-certificate aggregation plane.
    pub fn with_certificates(mut self, certificates: bool) -> Self {
        self.certificates = certificates;
        self
    }

    /// Sets the durable-storage snapshot cadence (decided blocks
    /// between checkpoints); 0 disables snapshots (WAL only).
    pub fn with_snapshot_every(mut self, every: u64) -> Self {
        self.snapshot_every = every;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let cfg = TobConfig::new(10).with_delta(Delta::new(4)).with_recovery(true);
        assert_eq!(cfg.n, 10);
        assert_eq!(cfg.delta.ticks(), 4);
        assert!(cfg.recovery);
    }
}
