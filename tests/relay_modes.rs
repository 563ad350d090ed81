//! The two relay strategies side by side on the same seed:
//! `certificates(true)` (the aggregation plane: boundary-deferred relays,
//! quorum certificates) against `certificates(false)` (the paper's
//! immediate per-receiver forward, where no aggregation state exists).
//!
//! The strategy decides *how votes and proposals travel*, never what is
//! decided: fault-free, both must decide the identical chain; under
//! churn with the §2 recovery protocol both must stay safe and within
//! one block of each other. And the per-vote validator must have no
//! door through which a certificate could reach its GA.

use tob_svd::adversary::churn;
use tob_svd::crypto::{AggregateSignature, Keypair, Signature};
use tob_svd::protocol::{TobConfig, TobReport, TobSimulationBuilder, TxWorkload, Validator};
use tob_svd::sim::{standard_invariants, Context, Mempool, Node, Outgoing};
use tob_svd::types::{
    BlockId, BlockStore, Delta, InstanceId, Log, Payload, SignedMessage, SignerSet, Time,
    ValidatorId, View,
};

const N: usize = 8;

fn with_invariants(mut builder: TobSimulationBuilder) -> TobSimulationBuilder {
    for inv in standard_invariants() {
        builder = builder.invariant(inv);
    }
    builder
}

fn fault_free(n: usize, certificates: bool) -> TobReport {
    with_invariants(
        TobSimulationBuilder::new(n)
            .views(12)
            .seed(21)
            .certificates(certificates)
            .workload(TxWorkload::PerView { count: 2, size: 40 }),
    )
    .run()
    .expect("valid configuration")
}

fn churn_recovery(certificates: bool) -> TobReport {
    let views = 14u64;
    let delta = Delta::default();
    let horizon = View::new(views + 1).start_time(delta);
    with_invariants(
        TobSimulationBuilder::new(N)
            .views(views)
            .seed(21)
            .certificates(certificates)
            .drop_while_asleep(true)
            .recovery(true)
            .participation(churn::rotating_sleep(N, 4, 4 * delta.ticks(), horizon))
            .workload(TxWorkload::PerView { count: 1, size: 24 }),
    )
    .run()
    .expect("valid configuration")
}

/// Every validator's final decided chain as block ids (genesis
/// excluded). Ids are content addresses, so they compare across the two
/// runs' separate stores.
fn decided_chains(report: &TobReport) -> Vec<(ValidatorId, Vec<BlockId>)> {
    report
        .report
        .latest_decisions
        .iter()
        .map(|rec| {
            let ids =
                report.report.store.chain_range(rec.log.tip(), 1).expect("decided chain is stored");
            (rec.validator, ids)
        })
        .collect()
}

fn assert_no_plane(report: &TobReport) {
    let m = &report.report.metrics;
    assert_eq!(m.certificate_broadcasts, 0, "per-vote mode broadcasts no certificate");
    assert_eq!(m.certificate_bytes, 0);
    assert_eq!(m.agg_verifies, 0, "per-vote mode verifies no aggregate");
    assert_eq!(m.agg_verify_skips, 0);
}

#[test]
fn fault_free_both_strategies_decide_the_same_chain() {
    let (cert, per_vote) = (fault_free(N, true), fault_free(N, false));
    for report in [&cert, &per_vote] {
        report.assert_safety();
        report.report.assert_invariants();
    }
    assert!(cert.decided_blocks() >= 10, "fault-free run decides nearly every view");
    let chains = decided_chains(&cert);
    assert_eq!(chains.len(), N, "every validator decided");
    assert_eq!(chains, decided_chains(&per_vote), "same block ids at every validator");

    assert_no_plane(&per_vote);
    assert!(cert.report.metrics.certificate_broadcasts > 0, "the plane must actually run");
    assert!(
        cert.report.metrics.forwards < per_vote.report.metrics.forwards,
        "certificates must relay strictly less: {} vs {} forwards",
        cert.report.metrics.forwards,
        per_vote.report.metrics.forwards
    );
}

/// What the plane buys on the wire, at the smallest n where the bars
/// hold: one certificate replaces n per-receiver vote copies, so bytes
/// per decided block are ≥ 5× below the per-vote baseline by n = 16, and
/// doubling n multiplies them by ~4 (n² deliveries) where the paper's
/// O(L·n³) forwarding multiplies by ~8.
#[test]
fn certificates_cut_wire_bytes_fivefold_and_grow_sub_cubically() {
    let bytes_per_block = |n: usize, certificates: bool| {
        let report = fault_free(n, certificates);
        report.report.metrics.bytes_delivered as f64 / report.decided_blocks() as f64
    };
    let (cert, cert_2n) = (bytes_per_block(N, true), bytes_per_block(2 * N, true));
    let (per_vote, per_vote_2n) = (bytes_per_block(N, false), bytes_per_block(2 * N, false));
    assert!(
        per_vote_2n >= 5.0 * cert_2n,
        "certificates must cut wire bytes per decided block ≥ 5× at n = {}: {per_vote_2n:.0} vs {cert_2n:.0}",
        2 * N
    );
    assert!(
        cert_2n <= 6.0 * cert,
        "certificate mode must grow sub-cubically: ×{:.1} for n = {N} → {}",
        cert_2n / cert,
        2 * N
    );
    assert!(
        per_vote_2n > 6.0 * per_vote,
        "the per-vote baseline is the cubic one: ×{:.1} for n = {N} → {}",
        per_vote_2n / per_vote,
        2 * N
    );
}

#[test]
fn under_churn_and_recovery_both_strategies_stay_safe_and_within_one_block() {
    let (cert, per_vote) = (churn_recovery(true), churn_recovery(false));
    for report in [&cert, &per_vote] {
        report.assert_safety();
        report.report.assert_invariants();
        assert!(report.decided_blocks() > 0, "churn run must still decide");
        assert!(report.report.metrics.recovery_broadcasts > 0, "sleepers must wake and recover");
    }
    assert!(
        cert.max_decided_len().abs_diff(per_vote.max_decided_len()) <= 1,
        "decided lengths diverged: {} (certificates) vs {} (per-vote)",
        cert.max_decided_len(),
        per_vote.max_decided_len()
    );
    assert_no_plane(&per_vote);
    assert!(cert.report.metrics.forwards < per_vote.report.metrics.forwards);
}

#[test]
fn per_vote_validator_neither_absorbs_nor_buffers_a_certificate() {
    let store = BlockStore::new();
    let genesis = Log::genesis(&store);
    let instance = InstanceId::for_view(View::ZERO);
    // A well-formed certificate: a genuine quorum of votes for the
    // genesis log, aggregated in signer order, signed by validator 1.
    let voters: Vec<ValidatorId> = (1..=5).map(ValidatorId::new).collect();
    let votes: Vec<SignedMessage> = voters
        .iter()
        .map(|v| {
            let kp = Keypair::from_seed(v.key_seed());
            SignedMessage::sign(&kp, *v, Payload::Log { instance, log: genesis })
        })
        .collect();
    let sigs: Vec<&Signature> = votes.iter().map(|m| m.signature()).collect();
    let mut signers = SignerSet::empty();
    for v in &voters {
        assert!(signers.insert(*v));
    }
    let cert = SignedMessage::sign(
        &Keypair::from_seed(ValidatorId::new(1).key_seed()),
        ValidatorId::new(1),
        Payload::Certificate {
            instance,
            log: genesis,
            signers,
            agg: AggregateSignature::aggregate(&sigs).expect("non-empty"),
        },
    );
    let ctx_at = |t: u64| {
        Context::new(Time::new(t), ValidatorId::new(0), Delta::new(8), store.clone(), Mempool::new())
    };
    let certificate_forwards = |ctx: &Context| {
        ctx.outbox()
            .iter()
            .filter(|o| match o {
                Outgoing::Forward(m) => matches!(m.payload(), Payload::Certificate { .. }),
                _ => false,
            })
            .count()
    };

    // Control: under the aggregation plane the same frame is verified
    // and its five votes reach GA_0.
    let mut with_plane = Validator::new(ValidatorId::new(0), TobConfig::new(N), &store);
    let mut ctx = ctx_at(9);
    with_plane.on_message(&cert, &mut ctx);
    assert_eq!(ctx.crypto_ops.agg_verifies, 1);
    assert!(with_plane.ga(View::ZERO).is_some(), "the plane absorbs a verified certificate");
    assert_eq!(certificate_forwards(&ctx), 0, "and defers its relay to the boundary");

    // Per-vote: gossip echoes the fresh frame on reception like any
    // other, and that is all that ever happens to it.
    let cfg = TobConfig::new(N).with_certificates(false);
    let mut per_vote = Validator::new(ValidatorId::new(0), cfg, &store);
    let mut ctx = ctx_at(9);
    per_vote.on_message(&cert, &mut ctx);
    assert_eq!(certificate_forwards(&ctx), 1, "gossip's ordinary echo");
    assert_eq!(ctx.outbox().len(), 1, "nothing but the echo");
    assert!(per_vote.ga(View::ZERO).is_none(), "the certificate's votes never reach the GA");
    assert_eq!((ctx.crypto_ops.agg_verifies, ctx.crypto_ops.agg_verify_skips), (0, 0));
    // A second copy is a gossip duplicate; the following boundaries
    // relay nothing, because nothing was buffered.
    let mut ctx = ctx_at(10);
    per_vote.on_message(&cert, &mut ctx);
    assert!(ctx.outbox().is_empty(), "duplicate copies are not echoed again");
    for t in [16, 24] {
        let mut ctx = ctx_at(t);
        per_vote.on_phase(&mut ctx);
        assert_eq!(certificate_forwards(&ctx), 0, "no deferred relay at t = {t}");
    }
    assert!(per_vote.ga(View::ZERO).is_none());
    assert_eq!(per_vote.certificates_emitted(), 0);
}
