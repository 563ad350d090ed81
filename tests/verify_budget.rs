//! Crypto-operation budget regression for the verification fast path.
//!
//! The receive pipeline is dedup-before-verify: per validator, a
//! verified-id set (seeded only post-verify) lets duplicate copies of a
//! broadcast skip signature checking entirely, sender keys come from a
//! process-wide cache instead of per-delivery derivation, and VRFs are
//! verified on demand — only a claim whose priority is used, once per
//! claim. Crypto work is counted in one place —
//! the `Context::crypto_ops` the engine folds into `Metrics` — so this
//! suite reads the run's `Metrics` and the finished validators' filed
//! ids, and pins the resulting budget on a fault-free 50-view n=8 run:
//!
//! * **exactly 1 signature verification per unique message id per
//!   validator** (no forged frames to reject): `m.sig_verifies` equals
//!   the sum of every validator's `verified_ids()`. The sum implies the
//!   per-validator equality: a validator files an id only after
//!   verifying it, so each validator's verifications are at least its
//!   filed ids, and terms that are each ≥ their counterpart can only
//!   sum to equal totals if every pair is equal;
//! * **`sig_verify_skips` tiles the duplicate deliveries**: together the
//!   two counters account for every delivered copy, so no delivery can
//!   dodge the accounting (or sneak in an unverified processing path);
//! * VRF verifications are linear, not quadratic: about one per
//!   validator per view (the vote input's), where verifying on receipt
//!   cost one per `(sender, view)` pair per validator;
//! * **a far-view flood is free**: correctly signed `LOG`s,
//!   certificates and proposals for views outside the live range are
//!   dropped before their signature check, so a flooded run verifies,
//!   files and forwards exactly what the same run without the flood
//!   does, in both relay modes;
//! * **a vote flood is free**: no instance of TOB-SVD takes a `VOTE` or
//!   a finality vote, so correctly signed ones, in range or far ahead,
//!   are dropped the same way;
//! * **an outsider flood is free and cannot stall decisions**:
//!   correctly signed `LOG`s from ids outside the committee are dropped
//!   at admission, before their signature check, so they never count
//!   in GA's `|S|`; the flooded run verifies, files, forwards and
//!   decides exactly what the quiet run does, in both relay modes.
//!
//! A regression that re-verifies per delivery breaks the first equality
//! by an order of magnitude (gossip fan-out makes duplicates dominate);
//! a regression that skips verification of *fresh* ids breaks it the
//! other way, and the tiling too.

use tob_svd::crypto::{AggregateSignature, KeyCache};
use tob_svd::protocol::leader::vrf_for;
use tob_svd::sim::{Context, Node, TobReport, TobSimulationBuilder, TxWorkload, WorstCaseDelay};
use tob_svd::types::{InstanceId, Log, Payload, SignedMessage, SignerSet, ValidatorId, View};

const N: usize = 8;
const VIEWS: u64 = 50;

#[test]
fn one_signature_verify_per_unique_message_per_validator() {
    // Per-vote baseline: this test pins the dedup-before-verify budget
    // under the paper's gossip echo, where duplicate copies dominate.
    // (The aggregation plane removes the echo — and with it the
    // duplicates — which `certificate_counters_tile_under_churn` below
    // covers.)
    let report = TobSimulationBuilder::new(N)
        .views(VIEWS)
        .seed(5)
        .certificates(false)
        .workload(TxWorkload::PerView { count: 4, size: 128 })
        .run()
        .expect("fault-free run");
    report.assert_safety();
    let m = &report.report.metrics;
    assert!(report.decided_blocks() >= VIEWS - 2, "fault-free run decides nearly every view");

    // One verification per unique verified id, summed over validators
    // (the module doc derives the per-validator equality from it), and
    // one table: every id that passes for verified was sighted (fetch-
    // plane ids are never filed, and this run sends none).
    assert_eq!(m.block_request_broadcasts, 0);
    assert_eq!(m.sig_verifies, verified_ids(&report), "one verification per unique id");
    for v in report.honest_validators() {
        assert_eq!(v.verified_ids(), v.unique_messages_seen(), "{}: one table, no raw ids", v.id());
    }
    // VRF budget: c·n·(views + 2) with c = 1 — each validator checks
    // the one claim its vote adopts (measured 408 = 8 × 51 vote phases;
    // verifying on receipt measured n² per view, 3 264).
    assert!(
        m.vrf_verifies <= N as u64 * (VIEWS + 2),
        "VRF verifies {} exceed the linear budget",
        m.vrf_verifies
    );

    // Aggregate tiling: every delivered copy was either verified or
    // skipped — the two counters partition the deliveries exactly
    // (always-awake run: no buffered copies counted at a later wake).
    assert_eq!(
        m.sig_verifies + m.sig_verify_skips,
        m.deliveries,
        "sig_verifies + sig_verify_skips must tile deliveries"
    );

    // The saving is real: with n=8 gossip fan-out, duplicate copies are
    // the overwhelming majority of deliveries (measured 88.9 %).
    let skip_fraction = m.sig_verify_skips as f64 / m.deliveries as f64;
    assert!(
        skip_fraction >= 0.8,
        "expected ≥80% of deliveries to skip crypto, got {:.1}%",
        skip_fraction * 100.0
    );
}

/// The budget holds under churn too — waking validators receive bursts
/// of buffered duplicates, which must all hit the skip path (buffered
/// copies were counted as deliveries when they arrived, so exact tiling
/// is not required here; the per-validator unique-id bound is). This
/// scenario uses buffered sleep semantics, so it produces no fetch
/// traffic — asserted below, because fetch frames verify without being
/// retained and would legitimately break the strict equality.
#[test]
fn budget_holds_with_sleep_churn() {
    use tob_svd::sim::ParticipationSchedule;
    use tob_svd::types::{Time, ValidatorId};

    let delta = 8u64;
    let mut part = ParticipationSchedule::always_awake(N);
    // Two sleepers with staggered naps.
    part.set_intervals(
        ValidatorId::new(2),
        vec![(Time::ZERO, Time::new(40 * delta)), (Time::new(60 * delta), Time::new(100_000))],
    );
    part.set_intervals(
        ValidatorId::new(5),
        vec![(Time::ZERO, Time::new(80 * delta)), (Time::new(110 * delta), Time::new(100_000))],
    );
    let report = TobSimulationBuilder::new(N)
        .views(VIEWS)
        .seed(9)
        .engine(move |sim| sim.participation(part))
        .run()
        .expect("churn run");
    report.assert_safety();
    // Precondition for the strict equality below: no fetch-plane frames
    // (those verify with retain=false and would put sig_verifies above
    // verified_ids by exactly their count — correct, but not what this
    // scenario is calibrated to measure).
    assert_eq!(report.report.metrics.block_request_broadcasts, 0, "buffered churn needs no fetches");
    assert_eq!(report.report.metrics.block_response_broadcasts, 0);
    assert_eq!(
        report.report.metrics.sig_verifies,
        verified_ids(&report),
        "one verification per unique message id even across naps"
    );
}

/// Certificate-era churn: with the aggregation plane on (the default)
/// and validators sleeping mid-view while certificates are in flight,
/// every certificate broadcast the engine counted is one validator's
/// emission, counted once — no emission may be lost when a context is
/// applied for a validator that naps right after, and none may be
/// double-counted across the sleep boundary.
#[test]
fn certificate_counters_tile_under_churn() {
    use tob_svd::sim::ParticipationSchedule;
    use tob_svd::types::{Time, ValidatorId};

    let delta = 8u64;
    let mut part = ParticipationSchedule::always_awake(N);
    // Nap boundaries deliberately *inside* views (not on view starts),
    // so certificates assembled at phase boundaries are in flight to
    // validators that sleep before the next boundary.
    part.set_intervals(
        ValidatorId::new(1),
        vec![(Time::ZERO, Time::new(30 * delta + 3)), (Time::new(70 * delta + 5), Time::new(100_000))],
    );
    part.set_intervals(
        ValidatorId::new(6),
        vec![(Time::ZERO, Time::new(90 * delta + 2)), (Time::new(130 * delta + 1), Time::new(100_000))],
    );
    let report = TobSimulationBuilder::new(N)
        .views(VIEWS)
        .seed(11)
        .engine(move |sim| sim.participation(part))
        .run()
        .expect("churn run");
    report.assert_safety();
    let m = &report.report.metrics;

    // Certificates were genuinely in flight.
    assert!(m.certificate_broadcasts > 0, "aggregation plane must be active");
    assert!(m.certificate_bytes > 0, "certificate deliveries must be byte-accounted");
    assert!(m.agg_verify_skips > 0, "subset-skip fast path must fire");
    assert_eq!(
        m.certificate_broadcasts,
        report.honest_validators().map(|v| v.certificates_emitted()).sum::<u64>(),
        "every certificate broadcast is one validator's emission, counted once"
    );
}

/// A Byzantine validator that, at every phase boundary while `flood` is
/// set, sends every honest validator the messages `messages` signs at
/// that boundary.
struct Flooder {
    flood: bool,
    messages: fn(&Context) -> Vec<SignedMessage>,
}

impl Node for Flooder {
    fn on_phase(&mut self, ctx: &mut Context) {
        if self.flood {
            for msg in (self.messages)(ctx) {
                ctx.multicast(honest(), msg);
            }
        }
    }

    fn on_message(&mut self, _msg: &SignedMessage, _ctx: &mut Context) {}

    fn label(&self) -> &'static str {
        "byz-flooder"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A correctly signed `LOG`, certificate and proposal for views just
/// outside and far outside both ends of the live range. A copy arrives
/// within Δ, in the sender's view `v` or in `v + 1`, so views `v + 3` and
/// up and `v − 3` and down (`v − 2` for a proposal) are out of range on
/// arrival: no live instance ever takes one.
fn far_view_flood(ctx: &Context) -> Vec<SignedMessage> {
    let me = byzantine();
    let v = View::of_time(ctx.time, ctx.delta).number();
    let kp = KeyCache::keypair(me.key_seed());
    let log = Log::genesis(&ctx.store);
    let mut signers = SignerSet::empty();
    signers.insert(me);
    let agg = AggregateSignature::aggregate(&[&kp.sign(b"far")]).expect("one signature");
    let behind = [v.checked_sub(3), v.checked_sub(1_000)].into_iter().flatten();
    let mut out = Vec::new();
    for w in behind.chain([v + 3, v + 1_000, u64::MAX]) {
        let instance = InstanceId(w);
        // Behind, a proposal is out of range one view later than a LOG.
        let view = View::new(if w < v { w + 1 } else { w });
        let (vrf, proof) = vrf_for(me, view);
        for payload in [
            Payload::Log { instance, log },
            Payload::Certificate { instance, log, signers, agg },
            Payload::Proposal { view, log, vrf, proof },
        ] {
            out.push(SignedMessage::sign(&kp, me, payload));
        }
    }
    out
}

/// A far-view flood costs an honest validator nothing but the drop: in
/// both relay modes, every honest validator verifies, files and forwards
/// exactly what it does in the same run without the flood, and each
/// flooded delivery is counted once in `dropped_out_of_range`.
#[test]
fn a_far_view_flood_costs_no_crypto_no_filing_and_no_forward() {
    assert_flood_is_dropped_unverified(far_view_flood);
}

/// A correctly signed `VOTE` for instances `v` and `v + 1`, which are in
/// the live range, and for `v + 1_000` and `u64::MAX`, plus a finality
/// vote for epochs `v` and `u64::MAX`. TOB-SVD takes neither payload at
/// any view. Relayed, each one would cost n² deliveries, and a far
/// instance would wait in gossip's overflow for a range it never reaches.
fn vote_flood(ctx: &Context) -> Vec<SignedMessage> {
    let me = byzantine();
    let v = View::of_time(ctx.time, ctx.delta).number();
    let kp = KeyCache::keypair(me.key_seed());
    let log = Log::genesis(&ctx.store);
    let votes = [v, v + 1, v + 1_000, u64::MAX]
        .map(|w| Payload::Vote { instance: InstanceId(w), log });
    let finality = [v, u64::MAX].map(|epoch| Payload::FinalityVote { epoch, log });
    votes.into_iter().chain(finality).map(|p| SignedMessage::sign(&kp, me, p)).collect()
}

/// A VOTE and finality-vote flood, in range or not, is dropped like a
/// far-view one: unverified, unfiled and unforwarded, in both relay
/// modes.
#[test]
fn a_vote_flood_costs_no_crypto_no_filing_and_no_forward() {
    assert_flood_is_dropped_unverified(vote_flood);
}

/// In both relay modes: the flood was delivered, every flooded delivery
/// counts once in `dropped_out_of_range`, and the honest validators did
/// the quiet run's work.
fn assert_flood_is_dropped_unverified(messages: fn(&Context) -> Vec<SignedMessage>) {
    for certificates in [false, true] {
        let run = |flood: bool| flood_run(certificates, Flooder { flood, messages });
        let (quiet, flooded) = (run(false), run(true));
        let (q, f) = (&quiet.report.metrics, &flooded.report.metrics);
        let flood = f.deliveries - q.deliveries;
        assert!(flood > 1_000, "the flood was delivered ({flood} copies)");
        assert_eq!((q.dropped_out_of_range, f.dropped_out_of_range), (0, flood), "{certificates}");
        assert_same_honest_work(&quiet, &flooded, certificates);
    }
}

/// For each instance `v` and `v + 1` of a phase boundary in view `v`, a
/// `LOG` signed as each of the seven ids `n ..= n + 6` outside the
/// committee, each on its own fork of genesis. The stand-in keys derive
/// from public seeds, so anyone can sign as such an id. Counted in a GA
/// instance's `|S|`, the seven would lift its `2·|V_Λ| > |S|` bar above
/// what the seven honest votes can clear.
fn outsider_flood(ctx: &Context) -> Vec<SignedMessage> {
    let v = View::of_time(ctx.time, ctx.delta);
    let genesis = Log::genesis(&ctx.store);
    let mut out = Vec::new();
    for outsider in (N as u32..=N as u32 + 6).map(ValidatorId::new) {
        let kp = KeyCache::keypair(outsider.key_seed());
        let log = genesis.extend_empty(&ctx.store, outsider, v);
        for instance in [v.number(), v.number() + 1].map(InstanceId) {
            out.push(SignedMessage::sign(&kp, outsider, Payload::Log { instance, log }));
        }
    }
    out
}

/// An outsider flood cannot stall decisions: in both relay modes the
/// committee gate drops every flooded `LOG` at admission, unverified, so
/// every honest validator verifies, files, forwards and decides exactly
/// what it does in the quiet run. A gate that admitted outsiders decided
/// 0 of the 20 blocks here.
#[test]
fn an_outsider_flood_cannot_stall_decisions() {
    for certificates in [false, true] {
        let run =
            |flood: bool| flood_run(certificates, Flooder { flood, messages: outsider_flood });
        let (quiet, flooded) = (run(false), run(true));
        let flood = flooded.report.metrics.deliveries - quiet.report.metrics.deliveries;
        assert!(flood > 1_000, "the flood was delivered ({flood} copies)");
        assert_eq!(quiet.decided_blocks(), 20, "{certificates}: the quiet run decides every block");
        assert_same_honest_work(&quiet, &flooded, certificates);
    }
}

/// The Byzantine validator of the flood runs: the last.
fn byzantine() -> ValidatorId {
    ValidatorId::new(N as u32 - 1)
}

/// The honest validators of the flood runs: all but the last.
fn honest() -> Vec<ValidatorId> {
    ValidatorId::all(N).take(N - 1).collect()
}

/// The 20-view flood run: seed 13, [`byzantine`] running `byz`. Delays
/// are fixed at Δ, so a flood draws nothing from the run's RNG and the
/// honest traffic of a quiet and a flooded run is the same.
fn flood_run(certificates: bool, byz: impl Node) -> TobReport {
    let report = TobSimulationBuilder::new(N)
        .views(20)
        .seed(13)
        .certificates(certificates)
        .engine(|sim| sim.delay(Box::new(WorstCaseDelay)))
        .byzantine(byzantine(), Box::new(move |_| Box::new(byz)))
        .run()
        .expect("flood run");
    report.assert_safety();
    report
}

/// The flood bought nothing: the flooded run verified and forwarded what
/// the quiet run did and, with no fetch traffic, each validator verified
/// exactly the ids it filed (the tiling argument of the first test), the
/// same ids as without the flood, and decided the same log.
fn assert_same_honest_work(quiet: &TobReport, flooded: &TobReport, certificates: bool) {
    let (q, f) = (&quiet.report.metrics, &flooded.report.metrics);
    assert_eq!((f.sig_verifies, f.forwards), (q.sig_verifies, q.forwards), "{certificates}");
    assert_eq!(f.block_request_broadcasts, 0);
    assert_eq!(f.sig_verifies, verified_ids(flooded));
    for (a, b) in quiet.honest_validators().zip(flooded.honest_validators()) {
        assert_eq!(a.unique_messages_seen(), b.unique_messages_seen(), "{}", a.id());
        assert_eq!(a.verified_ids(), b.verified_ids(), "{}", a.id());
        assert_eq!(a.decided(), b.decided(), "{certificates}: {}", a.id());
    }
}

/// Distinct ids that pass for verified, summed over the validators.
fn verified_ids(report: &TobReport) -> u64 {
    report.honest_validators().map(|v| v.verified_ids() as u64).sum()
}
