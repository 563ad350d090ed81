//! Measurement: message counts, bytes, voting phases.
//!
//! The counters here feed the Table 1 reproduction directly:
//!
//! * *voting phases per new block* — a voting phase is "a point in time
//!   when every honest validator … sends a **new** message" (paper
//!   footnote 3). We count original `LOG` broadcasts (GA inputs) and
//!   `VOTE` broadcasts; proposals and forwards are not voting phases.
//! * *communication complexity* — per-delivery message counts and byte
//!   counts, whose growth vs `n` the complexity experiment fits against
//!   O(n²)/O(n³).
//!
//! Since the delta-sync refactor, byte accounting is two-sided and
//! per-message-kind: [`Metrics::bytes_delivered`] is the *actual* wire
//! encoding length of every delivered copy (hash announcements + fetch
//! traffic, via `wire::encoded_len`), broken down per payload kind in
//! the `*_bytes` counters; [`Metrics::inline_equiv_bytes`] accumulates,
//! for the same deliveries, what the pre-delta-sync full-chain codec
//! would have shipped (`wire::inline_equivalent_len`). The ratio of the
//! two is the delta-sync saving, measurable in a single run.

use serde::{Deserialize, Serialize};

/// Classification of a message for accounting purposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MessageKind {
    /// GA input `⟨LOG, Λ⟩` (a vote in TOB-SVD's sense).
    Log,
    /// Leader-election proposal.
    Proposal,
    /// Momose–Ren GA `VOTE`.
    Vote,
    /// `RECOVERY` request (§2 recovery protocol).
    Recovery,
    /// Finality vote (`Payload::FinalityVote`; no validator sends one).
    FinalityVote,
    /// Delta-sync block fetch request.
    BlockRequest,
    /// Delta-sync block fetch response.
    BlockResponse,
    /// Quorum certificate (aggregated vote group, aggregation plane).
    Certificate,
}

/// Aggregated counters for one simulation run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Metrics {
    /// Original (non-forward) broadcasts of `LOG` payloads.
    pub log_broadcasts: u64,
    /// Original broadcasts of `PROPOSAL` payloads.
    pub proposal_broadcasts: u64,
    /// Original broadcasts of `VOTE` payloads.
    pub vote_broadcasts: u64,
    /// Original broadcasts of `RECOVERY` requests.
    pub recovery_broadcasts: u64,
    /// Original broadcasts of finality votes.
    pub finality_broadcasts: u64,
    /// Block fetch requests sent (delta-sync subprotocol).
    pub block_request_broadcasts: u64,
    /// Block fetch responses sent (delta-sync subprotocol).
    pub block_response_broadcasts: u64,
    /// Quorum certificates broadcast (aggregation plane).
    pub certificate_broadcasts: u64,
    /// Forwarded (re-broadcast or recovery-resent) messages.
    pub forwards: u64,
    /// Per-recipient message deliveries.
    pub deliveries: u64,
    /// Actual wire bytes delivered (sum of every delivered copy's
    /// encoded length under the delta-sync codec).
    pub bytes_delivered: u64,
    /// Wire bytes the pre-delta-sync full-chain codec would have
    /// delivered for the same non-fetch messages (nominal envelope +
    /// full-log sizes). `inline_equiv_bytes / bytes_delivered` is the
    /// delta-sync saving.
    pub inline_equiv_bytes: u64,
    /// Delivered bytes of `LOG` payloads.
    pub log_bytes: u64,
    /// Delivered bytes of `PROPOSAL` payloads.
    pub proposal_bytes: u64,
    /// Delivered bytes of `VOTE` payloads.
    pub vote_bytes: u64,
    /// Delivered bytes of `RECOVERY` payloads.
    pub recovery_bytes: u64,
    /// Delivered bytes of finality votes.
    pub finality_bytes: u64,
    /// Delivered bytes of block fetch requests.
    pub block_request_bytes: u64,
    /// Delivered bytes of block fetch responses.
    pub block_response_bytes: u64,
    /// Delivered bytes of quorum certificates.
    pub certificate_bytes: u64,
    /// Signature verifications actually performed by nodes (first
    /// sighting of each unique message id per validator, plus every
    /// forged frame — forgeries never enter a verified-id set).
    pub sig_verifies: u64,
    /// Deliveries that skipped signature verification because the
    /// message id was already in the receiving node's verified-id set
    /// (duplicate copies of a broadcast; fetch-plane ids are never
    /// retained, so fetch frames always verify).
    pub sig_verify_skips: u64,
    /// VRF verifications actually performed. VRFs are verified on
    /// demand — only a proposal claim whose priority a vote, a boundary
    /// relay or a recovery serve uses, at most once per claim — so this
    /// is about one per validator per view, not one per proposal
    /// received.
    pub vrf_verifies: u64,
    /// VRF questions answered from a claim's memoized verdict instead of
    /// a fresh check.
    pub vrf_verify_skips: u64,
    /// Aggregate-signature verifications actually performed (certificate
    /// receptions whose signer set was not already fully vouched).
    pub agg_verifies: u64,
    /// Certificate receptions that skipped aggregate verification
    /// because every claimed signer was already individually
    /// authenticated at the receiver.
    pub agg_verify_skips: u64,
    /// First sightings of a `LOG`, certificate or proposal that no live
    /// instance of the receiver took, dropped before any crypto
    /// (neither verified nor filed, so counted in neither
    /// `sig_verifies` nor `sig_verify_skips`).
    #[serde(default)]
    pub dropped_out_of_range: u64,
    /// Messages buffered for asleep validators.
    pub buffered: u64,
    /// Messages dropped because the recipient was asleep (only in
    /// drop-while-asleep mode — the practical setting the §2 recovery
    /// protocol exists for).
    pub dropped: u64,
    /// Kill/restart faults applied (process crashes, not sleeps:
    /// volatile state is lost and only durable storage survives).
    #[serde(default)]
    pub crashes: u64,
    /// State-corruption faults applied ([`crate::StateFault`]: bit rot
    /// in decided logs, counters, caches, sync knowledge, or the
    /// durable image — the stabilization plane's adversary).
    #[serde(default)]
    pub state_corruptions: u64,
    /// Message copies suppressed by an installed
    /// [`crate::DeliveryFilter`] (fetch-corruption experiments).
    pub filtered: u64,
    /// Decisions reported by nodes.
    pub decisions: u64,
    /// Ticks simulated (the horizon covered, regardless of advance mode).
    pub ticks: u64,
    /// Ticks actually executed by the engine: equals `ticks` under the
    /// tick loop and is far smaller under the event-driven engine on
    /// sparse executions — the ratio is the engine's work saving.
    pub executed_ticks: u64,
}

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an original broadcast of the given kind.
    pub fn record_broadcast(&mut self, kind: MessageKind) {
        match kind {
            MessageKind::Log => self.log_broadcasts += 1,
            MessageKind::Proposal => self.proposal_broadcasts += 1,
            MessageKind::Vote => self.vote_broadcasts += 1,
            MessageKind::Recovery => self.recovery_broadcasts += 1,
            MessageKind::FinalityVote => self.finality_broadcasts += 1,
            MessageKind::BlockRequest => self.block_request_broadcasts += 1,
            MessageKind::BlockResponse => self.block_response_broadcasts += 1,
            MessageKind::Certificate => self.certificate_broadcasts += 1,
        }
    }

    /// Records one delivered copy: `wire_bytes` under the delta-sync
    /// codec, `inline_bytes` under the counterfactual full-chain codec.
    pub fn record_delivery(&mut self, kind: MessageKind, wire_bytes: u64, inline_bytes: u64) {
        self.deliveries += 1;
        self.bytes_delivered += wire_bytes;
        self.inline_equiv_bytes += inline_bytes;
        match kind {
            MessageKind::Log => self.log_bytes += wire_bytes,
            MessageKind::Proposal => self.proposal_bytes += wire_bytes,
            MessageKind::Vote => self.vote_bytes += wire_bytes,
            MessageKind::Recovery => self.recovery_bytes += wire_bytes,
            MessageKind::FinalityVote => self.finality_bytes += wire_bytes,
            MessageKind::BlockRequest => self.block_request_bytes += wire_bytes,
            MessageKind::BlockResponse => self.block_response_bytes += wire_bytes,
            MessageKind::Certificate => self.certificate_bytes += wire_bytes,
        }
    }

    /// Folds one callback's (or one run of callbacks') crypto-operation
    /// counts into the run totals.
    pub fn record_crypto(&mut self, ops: tobsvd_core::CryptoOps) {
        self.sig_verifies += ops.sig_verifies;
        self.sig_verify_skips += ops.sig_verify_skips;
        self.vrf_verifies += ops.vrf_verifies;
        self.vrf_verify_skips += ops.vrf_verify_skips;
        self.agg_verifies += ops.agg_verifies;
        self.agg_verify_skips += ops.agg_verify_skips;
        self.dropped_out_of_range += ops.dropped_out_of_range;
    }

    /// Total fetch-subprotocol sends (requests + responses).
    pub fn sync_broadcasts(&self) -> u64 {
        self.block_request_broadcasts + self.block_response_broadcasts
    }

    /// Delivered bytes of the fetch subprotocol (requests + responses).
    pub fn sync_bytes(&self) -> u64 {
        self.block_request_bytes + self.block_response_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_classification() {
        let mut m = Metrics::new();
        m.record_broadcast(MessageKind::Log);
        m.record_broadcast(MessageKind::Log);
        m.record_broadcast(MessageKind::Proposal);
        m.record_broadcast(MessageKind::Vote);
        m.record_broadcast(MessageKind::BlockRequest);
        m.record_broadcast(MessageKind::BlockResponse);
        assert_eq!(m.log_broadcasts, 2);
        assert_eq!(m.sync_broadcasts(), 2);
    }

    #[test]
    fn delivery_accounting_is_per_kind_and_two_sided() {
        let mut m = Metrics::new();
        m.record_delivery(MessageKind::Log, 100, 1000);
        m.record_delivery(MessageKind::BlockResponse, 700, 0);
        assert_eq!(m.deliveries, 2);
        assert_eq!(m.bytes_delivered, 800);
        assert_eq!(m.inline_equiv_bytes, 1000);
        assert_eq!(m.log_bytes, 100);
        assert_eq!(m.block_response_bytes, 700);
        assert_eq!(m.sync_bytes(), 700);
    }
}
