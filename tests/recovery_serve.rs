//! §2 recovery serves, validator to validator, through the public
//! callbacks.
//!
//! A serve must leave a requester's `GA_v` exactly where a re-send of
//! every archived `LOG` leaves it: the same seats, the same snapshots
//! and the same outputs at every later phase boundary. It must do so
//! one hop on too, when the requester serves what it recovered to a
//! second one. A served proposal is the handle it was delivered under.
//! And a request signed by an id outside the committee must not be
//! served at all.

use std::sync::Arc;

use tob_svd::crypto::KeyCache;
use tob_svd::protocol::leader::vrf_for;
use tob_svd::protocol::{TobConfig, Validator};
use tob_svd::sim::{Context, Mempool, Node, Outgoing, TobSimulationBuilder};
use tob_svd::types::{
    wire, BlockStore, Delivered, Delta, InstanceId, Log, Payload, SignedMessage, Time, ValidatorId, View,
};

const N: usize = 16;
const DELTA: u64 = 8;
const SERVER: u32 = 0;
/// A requester, and the second one it serves in turn.
const REQUESTERS: [u32; 2] = [14, 15];
/// The scripted votes are for `GA_1` and `GA_2`; `GA_2` starts at 72.
const LAST_BOUNDARY: u64 = 128;

fn sign(from: u32, payload: Payload) -> SignedMessage {
    let v = ValidatorId::new(from);
    SignedMessage::sign(&KeyCache::keypair(v.key_seed()), v, payload)
}

fn vote(from: u32, view: u64, log: Log) -> SignedMessage {
    sign(from, Payload::Log { instance: InstanceId::for_view(View::new(view)), log })
}

fn ctx(store: &BlockStore, t: u64, me: u32) -> Context {
    Context::new(Time::new(t), ValidatorId::new(me), Delta::new(DELTA), store.clone(), Mempool::new())
}

fn validator(me: u32, store: &BlockStore) -> Validator {
    let cfg = TobConfig::new(N).with_delta(Delta::new(DELTA)).with_recovery(true);
    Validator::new(ValidatorId::new(me), cfg, store)
}

/// Runs `val` over the ticks `ticks`: the scripted deliveries of a tick
/// first, then its phase boundary, as the engine orders them. What it
/// sends is dropped.
fn drive(val: &mut Validator, store: &BlockStore, ticks: std::ops::Range<u64>, script: &[(u64, SignedMessage)]) {
    let me = val.id().raw();
    for t in ticks {
        let mut c = ctx(store, t, me);
        for (_, msg) in script.iter().filter(|(at, _)| *at == t) {
            val.on_message(msg, &mut c);
        }
        if t % DELTA == 0 {
            val.on_phase(&mut c);
        }
    }
}

/// `requester`'s `RECOVERY` reaches `server` at tick `t`: the one reply
/// batch it gets (empty when nothing is served).
fn request(server: &mut Validator, store: &BlockStore, requester: u32, t: u64) -> Vec<Arc<Delivered>> {
    let current = View::of_time(Time::new(t), Delta::new(DELTA));
    let payload = Payload::Recovery { from_view: *current.live_range().start(), log: Log::genesis(store) };
    let mut c = ctx(store, t, server.id().raw());
    server.on_message(&sign(requester, payload), &mut c);
    let mut replies = c.take_outbox().into_iter().filter_map(|out| match out {
        Outgoing::ForwardTo(to, batch) => Some((to, batch)),
        _ => None,
    });
    let reply = replies.next();
    assert!(replies.next().is_none(), "one reply per serve");
    reply.map_or_else(Vec::new, |(to, batch)| {
        assert_eq!(to, ValidatorId::new(requester));
        batch
    })
}

fn absorb(val: &mut Validator, store: &BlockStore, t: u64, batch: &[Arc<Delivered>]) {
    let mut c = ctx(store, t, val.id().raw());
    for msg in batch {
        val.on_message(msg, &mut c);
    }
}

/// Every field of the live `GA_w`s: seats, `|V|` and `|S|`, both
/// snapshots and the outputs (`Ga3`'s `Debug` prints them all).
fn gas(val: &Validator) -> Vec<String> {
    (0..=4).map(|w| format!("{:?}", val.ga(View::new(w)))).collect()
}

/// The seats of `GA_w`, if it took in any vote (a vote boundary makes
/// an empty instance).
fn seats(val: &Validator, w: u64) -> Option<String> {
    let ga = val.ga(View::new(w)).filter(|ga| ga.tracker().s_len() > 0)?;
    Some(format!("{:?}", ga.tracker()))
}

/// The archives the serves are checked on, each a script of deliveries
/// to the server. Two forks of genesis, `a` and `b`; a quorum is more
/// than n/2 = 8 votes, and the server flushes at every boundary.
fn scripts(store: &BlockStore) -> Vec<(&'static str, Vec<(u64, SignedMessage)>)> {
    let g = Log::genesis(store);
    let a = g.extend_empty(store, ValidatorId::new(1), View::new(1));
    let b = g.extend_empty(store, ValidatorId::new(2), View::new(1));
    let votes = |at: u64, view: u64, log: Log, from: &[u32]| -> Vec<(u64, SignedMessage)> {
        from.iter().map(|&s| (at, vote(s, view, log))).collect()
    };
    let quorate: Vec<u32> = (1..=9).collect();
    vec![
        (
            "a quorate group, an equivocator in a sub-quorum group, two late votes",
            [
                votes(73, 2, a, &quorate),
                votes(75, 2, b, &[3, 10]),
                votes(83, 2, a, &[11]),
                votes(90, 2, a, &[12]),
            ]
            .concat(),
        ),
        ("a sub-quorum group only", votes(74, 2, a, &[1, 2, 3])),
        (
            "every voter equivocates: two quorate groups",
            [votes(73, 2, a, &quorate), votes(75, 2, b, &quorate)].concat(),
        ),
        (
            "quorate groups in two views, late votes in both",
            [
                votes(41, 1, b, &quorate),
                votes(51, 1, b, &[10, 11]),
                votes(73, 2, a, &quorate),
                votes(77, 2, a, &[12]),
            ]
            .concat(),
        ),
    ]
}

#[test]
fn a_serve_leaves_the_requesters_gas_where_a_resend_of_every_archived_vote_does() {
    let store = BlockStore::new();
    for (what, script) in scripts(&store) {
        // The requester heard four of the votes sent at 73 before it
        // went to sleep at 81, so `GA_2`'s first snapshot is not empty.
        let heard: Vec<_> = script.iter().filter(|(at, m)| *at == 73 && m.sender().raw() <= 4).cloned().collect();
        for serve_at in [81, 86, 91, 99, 106] {
            let mut server = validator(SERVER, &store);
            drive(&mut server, &store, 0..serve_at, &script);
            let served = request(&mut server, &store, REQUESTERS[0], serve_at);
            // What the server took in: every scripted vote before the
            // serve is in its live range.
            let resend: Vec<_> =
                script.iter().filter(|(at, _)| *at < serve_at).map(|(_, m)| (*m).into()).collect();
            for arrive in serve_at + 1..=serve_at + DELTA {
                let [mut recovered, mut reference] = REQUESTERS.map(|_| validator(REQUESTERS[0], &store));
                for r in [&mut recovered, &mut reference] {
                    drive(r, &store, 64..81, &heard);
                }
                absorb(&mut recovered, &store, arrive, &served);
                absorb(&mut reference, &store, arrive, &resend);
                assert_eq!(gas(&recovered), gas(&reference), "{what}: serve at {serve_at}, arrival {arrive}");
                for t in arrive..=LAST_BOUNDARY {
                    if t % DELTA == 0 {
                        for r in [&mut recovered, &mut reference] {
                            r.on_phase(&mut ctx(&store, t, REQUESTERS[0]));
                        }
                        assert_eq!(gas(&recovered), gas(&reference), "{what}: serve at {serve_at}, t = {t}");
                    }
                }
            }
        }
    }
}

#[test]
fn a_requester_that_recovered_serves_a_second_one_the_same_seats() {
    let store = BlockStore::new();
    for (what, script) in scripts(&store) {
        for serve_at in [81, 91, 99] {
            let mut server = validator(SERVER, &store);
            drive(&mut server, &store, 0..serve_at, &script);
            let served = request(&mut server, &store, REQUESTERS[0], serve_at);
            let mut first = validator(REQUESTERS[0], &store);
            let arrive = serve_at + 3;
            absorb(&mut first, &store, arrive, &served);
            // Its next boundary flushes what it took in, so the second
            // hop is served from what it sent.
            let boundary = arrive.next_multiple_of(DELTA);
            drive(&mut first, &store, boundary..boundary + 1, &[]);
            let onward = request(&mut first, &store, REQUESTERS[1], boundary + 1);
            let mut second = validator(REQUESTERS[1], &store);
            absorb(&mut second, &store, boundary + 2, &onward);
            for w in 0..=4 {
                assert_eq!(seats(&second, w), seats(&first, w), "{what}: serve at {serve_at}, GA_{w}");
            }
            assert!(seats(&second, 2).is_some(), "{what}: the second hop carried view 2");
        }
    }
}

/// A serve hands out the proposal's delivered handle itself, vetted
/// through the tracker's claim: the same `Arc`, so the same wire bytes
/// as the received message.
#[test]
fn a_served_proposal_is_the_delivered_handle() {
    let store = BlockStore::new();
    let (proposer, view) = (ValidatorId::new(3), View::new(1));
    let (vrf, proof) = vrf_for(proposer, view);
    let log = Log::genesis(&store).extend_empty(&store, proposer, view);
    let delivered: Arc<Delivered> = sign(proposer.raw(), Payload::Proposal { view, log, vrf, proof }).into();
    let mut server = validator(SERVER, &store);
    // View 1 starts at 4Δ = 32.
    server.on_delivery(&delivered, &mut ctx(&store, 33, SERVER));
    let served = request(&mut server, &store, REQUESTERS[0], 34);
    let proposals: Vec<_> = served.iter().filter(|m| matches!(m.payload(), Payload::Proposal { .. })).collect();
    let [proposal] = proposals.as_slice() else { panic!("one served proposal, got {served:?}") };
    assert!(Arc::ptr_eq(proposal, &delivered), "the serve is the delivered handle");
    let bytes = |m: &SignedMessage| wire::encode_message(m, &store).expect("stored chain");
    assert_eq!(bytes(proposal), bytes(&delivered));
}

/// Slot 3 of a four-validator run: at `t = 2Δ`, once the honest
/// validators hold votes and proposals, it sends one request signed as
/// validator 9. The stand-in keys derive from public seeds, so anyone
/// can sign for an id beyond the committee.
struct Outsider {
    request: fn(Log) -> Payload,
    heard: Option<Log>,
}

impl Node for Outsider {
    fn on_phase(&mut self, ctx: &mut Context) {
        let Some(log) = self.heard.filter(|_| ctx.time == Time::new(2 * DELTA)) else { return };
        ctx.broadcast(sign(9, (self.request)(log)));
    }

    fn on_message(&mut self, msg: &SignedMessage, _ctx: &mut Context) {
        if let Payload::Proposal { log, .. } = msg.payload() {
            self.heard.get_or_insert(*log);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn run_with_outsider(request: fn(Log) -> Payload) {
    let report = TobSimulationBuilder::new(4)
        .views(4)
        .seed(5)
        .recovery(true)
        .byzantine(ValidatorId::new(3), Box::new(move |_| Box::new(Outsider { request, heard: None })))
        .run()
        .expect("valid configuration");
    report.assert_safety();
    assert!(report.decided_blocks() > 0);
}

#[test]
fn a_recovery_request_from_outside_the_committee_is_not_served() {
    run_with_outsider(|log| Payload::Recovery { from_view: View::ZERO, log });
}

#[test]
fn a_block_request_from_outside_the_committee_is_not_served() {
    run_with_outsider(|log| Payload::BlockRequest { tip: log.tip(), from_height: 1 });
}
