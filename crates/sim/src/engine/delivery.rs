//! Step 4 of the tick: message delivery, and the scheduling of what
//! callbacks emit.
//!
//! # Delivery order
//!
//! Deliveries are nearly all events, so they bypass the heap: each tick
//! has a bucket that copies are appended to when the message is sent.
//! Appends happen in the order the heap's `seq` counter used to number
//! them, so a bucket read front to back *is* the `(time, Deliver, seq)`
//! order — the **event order** below.
//!
//! Step 4 does not call the nodes in event order. A broadcast is n
//! consecutive events for n different recipients, and calling them
//! round-robin lands every call on a validator whose state left the
//! cache n − 1 calls ago (at n = 256, half of `on_message`'s time).
//! The bucket is drained **recipient by recipient** instead: one pass
//! in event order does the byte accounting and settles each delivery's
//! fate (received, buffered, dropped) as a per-event loop would; a
//! stable counting sort groups the received ones by recipient; each
//! recipient's node is checked out once and gets its messages in their
//! original relative order; and what those calls emitted is applied
//! afterwards **in event order**. The regrouping is unobservable:
//!
//! * *Nodes cannot tell.* A node sees only its own receptions, in the
//!   same relative order. What a call emits lands at `now + delay`,
//!   `delay ≥ 1`, never in the bucket being drained, and slot state
//!   (awake, crashed, Byzantine) changes only in the other steps. Nodes
//!   share the content-addressed
//!   [`BlockStore`](tobsvd_types::BlockStore), where insertion order
//!   cannot change what an id resolves to, and the
//!   [`Mempool`](crate::Mempool), which a delivery does not write and
//!   the engine prunes only when it applies a decision.
//! * *The engine replays.* Everything order-sensitive on its side —
//!   which bucket a copy joins and where, the delivery filter, the
//!   delay policy's RNG draws, the controller's
//!   [`TickView`](crate::TickView), decisions reaching observer,
//!   invariants and mempool prune — happens while applying effects, in
//!   event order whichever order the calls ran in. The per-call crypto
//!   counts are sums.
//!
//! A wake-up's buffered messages are one recipient's run through the
//! same helper. `tests/transcript_golden.rs` pins transcripts recorded
//! from the per-event engine.

use std::sync::Arc;

use tobsvd_core::{Context, IdleNode, Node, Outgoing};
use tobsvd_types::{wire, Log, Payload, SignedMessage, ValidatorId};

use super::Simulation;
use crate::invariant::{DecisionEvent, InvariantViolation};
use crate::metrics::MessageKind;
use crate::observer::DecisionRecord;

/// One broadcast's shared delivery payload: the `Arc`'d message plus
/// its byte accounting, computed once at send time (both lengths are
/// invariant per message — blocks are immutable once stored) instead of
/// re-derived for each of the n per-recipient deliveries.
#[derive(Clone)]
struct Delivery {
    msg: Arc<SignedMessage>,
    /// Exact wire encoding length under the delta-sync codec.
    wire_len: u64,
    /// Legacy full-chain accounting for the same message.
    inline_len: u64,
}

/// The deliveries scheduled for one tick, in scheduling order.
#[derive(Default)]
pub(super) struct Bucket {
    /// One entry per broadcast with a copy landing on this tick (the
    /// copies of one broadcast are scheduled back to back, so a new
    /// entry is needed only when the message changes).
    shares: Vec<Delivery>,
    /// `(recipient, index into shares)` per delivery. Eight bytes: the
    /// per-vote flood schedules n³ copies onto one tick.
    entries: Vec<(u32, u32)>,
}

/// What one `on_message` call emitted, set aside until the whole run of
/// calls is over and applied in `tag` order.
pub(super) struct Effect {
    /// The call's position in event order.
    tag: u32,
    from: ValidatorId,
    outbox: Vec<Outgoing>,
    decisions: Vec<Log>,
}

impl Simulation {
    /// Step 4: the tick's deliveries, drained recipient by recipient
    /// (the module doc argues why that is unobservable). The drained
    /// bucket is kept for its capacity.
    pub(super) fn deliver_tick(&mut self) {
        let Some(mut bucket) = self.deliveries.remove(&self.time) else {
            return;
        };
        let mut ends = std::mem::take(&mut self.group_ends);
        let mut order = std::mem::take(&mut self.group_order);
        ends.clear();
        ends.resize(self.slots.len(), 0);
        // Accounting and disposition, in event order. Byte accounting:
        // the copy's actual wire encoding under the delta-sync codec,
        // plus what the old full-chain codec would have shipped (for
        // the savings ratio) — both computed once per broadcast at send
        // time. Slot state cannot change inside the run of deliveries
        // (and `awake` implies not crashed).
        for &(to, share) in &bucket.entries {
            let delivery = &bucket.shares[share as usize];
            self.metrics.record_delivery(
                kind_of(delivery.msg.payload()),
                delivery.wire_len,
                delivery.inline_len,
            );
            let slot = &mut self.slots[to as usize];
            debug_assert!(!(slot.awake && slot.crashed), "a crashed process is never awake");
            if slot.awake {
                ends[to as usize] += 1;
            } else if slot.crashed || self.drop_while_asleep {
                // A dead process receives nothing, and nothing buffers
                // for it — regardless of the sleep mode. For a sleeper,
                // the practical setting of §2: nobody buffers for you;
                // the recovery protocol must fill the gap.
                self.metrics.dropped += 1;
            } else {
                self.metrics.buffered += 1;
                slot.buffer.push(Arc::clone(&delivery.msg));
            }
        }
        // Stable counting sort of the received deliveries by recipient:
        // counts → group starts → (after the scatter) group ends.
        let mut received = 0u32;
        for end in &mut ends {
            received += std::mem::replace(end, received);
        }
        order.clear();
        order.resize(received as usize, 0);
        for (i, &(to, _)) in bucket.entries.iter().enumerate() {
            if self.slots[to as usize].awake {
                let at = &mut ends[to as usize];
                order[*at as usize] = i as u32;
                *at += 1;
            }
        }
        let mut ctx = self.context(0);
        let mut start = 0;
        for (idx, &end) in ends.iter().enumerate() {
            let end = end as usize;
            if end > start {
                let run = order[start..end].iter().map(|&i| {
                    let (_, share) = bucket.entries[i as usize];
                    (i, &bucket.shares[share as usize].msg)
                });
                self.receive_run(idx, &mut ctx, run);
            }
            start = end;
        }
        self.apply_effects();
        self.group_ends = ends;
        self.group_order = order;
        bucket.shares.clear();
        bucket.entries.clear();
        self.spare_buckets.push(bucket);
    }

    /// Delivers everything buffered for slot `idx` while it slept, as
    /// one run in arrival order.
    pub(super) fn deliver_buffered(&mut self, idx: usize) {
        let buffered = std::mem::take(&mut self.slots[idx].buffer);
        let mut ctx = self.context(idx);
        self.receive_run(idx, &mut ctx, (0..).zip(buffered.iter()));
        self.apply_effects();
    }

    /// Checks the node of slot `idx` out once and hands it `msgs` in
    /// order, by their shared handles ([`Node::on_delivery`]), through
    /// the reused `ctx`. Whatever a call emits is set
    /// aside in `self.effects` under the call's tag, for
    /// [`Simulation::apply_effects`].
    fn receive_run<'a>(
        &mut self,
        idx: usize,
        ctx: &mut Context,
        msgs: impl Iterator<Item = (u32, &'a Arc<SignedMessage>)>,
    ) {
        let from = ValidatorId::new(idx as u32);
        ctx.me = from;
        let mut node: Box<dyn Node> = std::mem::replace(&mut self.slots[idx].node, Box::new(IdleNode));
        for (tag, msg) in msgs {
            node.on_delivery(msg, ctx);
            self.metrics.record_crypto(std::mem::take(&mut ctx.crypto_ops));
            if !ctx.outbox().is_empty() || !ctx.decisions().is_empty() {
                // Held until the bucket is done: in per-vote mode every
                // call emits its own forwards, and each held outbox
                // should not also keep its `Vec`'s growth slack.
                let mut outbox = ctx.take_outbox();
                outbox.shrink_to_fit();
                self.effects.push(Effect { tag, from, outbox, decisions: ctx.take_decisions() });
            }
        }
        self.slots[idx].node = node;
    }

    /// Applies the effects set aside by [`Simulation::receive_run`], in
    /// the event order of the calls that caused them.
    fn apply_effects(&mut self) {
        let mut effects = std::mem::take(&mut self.effects);
        effects.sort_unstable_by_key(|e| e.tag);
        for e in effects.drain(..) {
            self.apply_actions(e.from, e.outbox, e.decisions);
        }
        self.effects = effects;
    }

    /// Applies what one callback of validator `from` emitted: schedules
    /// its messages, then reports its decisions.
    pub(super) fn apply_actions(&mut self, from: ValidatorId, outbox: Vec<Outgoing>, decisions: Vec<Log>) {
        let byzantine = self.slots[from.index()].byzantine;
        for out in outbox {
            // One allocation (and one byte-length computation) per
            // broadcast: every delivery event and the controller's tick
            // view share the handle.
            match out {
                Outgoing::Broadcast(msg) => {
                    self.metrics.record_broadcast(kind_of(msg.payload()));
                    let delivery = self.share(Arc::new(msg));
                    self.deliver_to_all(from, &delivery);
                }
                // A forward arrives with its handle: no allocation.
                Outgoing::Forward(msg) => {
                    self.metrics.forwards += 1;
                    let delivery = self.share(msg);
                    self.deliver_to_all(from, &delivery);
                }
                // A recovery reply arrives with its handles: scheduled
                // copy by copy, in batch order, with no allocation.
                Outgoing::ForwardTo(to, batch) => {
                    for msg in batch {
                        self.metrics.forwards += 1;
                        let delivery = self.share(msg);
                        self.deliver_one(from, to, &delivery);
                    }
                }
                Outgoing::Multicast(targets, msg) => {
                    self.metrics.record_broadcast(kind_of(msg.payload()));
                    let delivery = self.share(Arc::new(msg));
                    self.deliver_to_each(from, &targets, &delivery);
                }
            }
        }
        let decided_something = !decisions.is_empty();
        for log in decisions {
            self.metrics.decisions += 1;
            if !byzantine {
                let t = self.time;
                self.observer.record(from, t, log, &self.mempool);
                let rec = DecisionRecord { validator: from, at: t, log };
                let ev = DecisionEvent { record: &rec, observer: &self.observer, store: &self.store };
                for inv in &mut self.invariants {
                    if let Err(detail) = inv.on_decision(&ev) {
                        self.invariant_violations.push(InvariantViolation { invariant: inv.name(), at: t, detail });
                    }
                }
            }
        }
        // Memory hygiene for long sweeps: the decided anchor only grows
        // on a decision (keep this off the per-message path), and its
        // transactions can never be proposed again. The pool ignores an
        // anchor it has already pruned.
        if decided_something {
            if let Some(anchor) = self.observer.longest_decided() {
                self.mempool.prune_confirmed(&anchor, &self.store);
            }
        }
    }

    /// Pairs an outgoing message's handle with both byte accountings,
    /// computed once per send from one read of its tip.
    fn share(&mut self, msg: Arc<SignedMessage>) -> Delivery {
        // The sim's store is the single shared source of truth, so a
        // constructed message always has its chain stored; a failure here
        // is a sim bug and must not be silently charged as 0 bytes.
        let (wire_len, inline_len) =
            wire::encoded_and_inline_len(&msg, &self.store).expect("sim store holds every chain");
        self.sent_this_tick.push(Arc::clone(&msg));
        Delivery { msg, wire_len, inline_len }
    }

    fn deliver_to_all(&mut self, from: ValidatorId, delivery: &Delivery) {
        for to in ValidatorId::all(self.cfg.n) {
            self.deliver_one(from, to, delivery);
        }
    }

    /// Delivers to each distinct target once, in first-occurrence order.
    /// Every fetch request and response takes this path, so the dedup
    /// marks live in a scratch buffer that is wiped target by target
    /// instead of being allocated per call.
    fn deliver_to_each(&mut self, from: ValidatorId, targets: &[ValidatorId], delivery: &Delivery) {
        let mut marks = std::mem::take(&mut self.target_marks);
        for &to in targets {
            if !std::mem::replace(&mut marks[to.index()], true) {
                self.deliver_one(from, to, delivery);
            }
        }
        for to in targets {
            marks[to.index()] = false;
        }
        self.target_marks = marks;
    }

    fn deliver_one(&mut self, from: ValidatorId, to: ValidatorId, delivery: &Delivery) {
        let delta = self.cfg.delta;
        let msg = &delivery.msg;
        let delay = if from == to {
            // A validator always has its own message on the next tick
            // (and a lossy-network filter cannot touch the local copy).
            1
        } else {
            if let Some(filter) = &mut self.filter {
                if !filter.allow(msg, from, to, self.time) {
                    self.metrics.filtered += 1;
                    return;
                }
            }
            self.delay
                .delay(msg, from, to, self.time, delta, &mut self.rng)
                .clamp(1, delta.ticks())
        };
        // Appending is scheduling: bucket order is event order.
        let spare = &mut self.spare_buckets;
        let bucket = self
            .deliveries
            .entry(self.time + delay)
            .or_insert_with(|| spare.pop().unwrap_or_default());
        if !bucket.shares.last().is_some_and(|last| Arc::ptr_eq(&last.msg, msg)) {
            bucket.shares.push(delivery.clone());
        }
        bucket.entries.push((to.raw(), (bucket.shares.len() - 1) as u32));
    }
}

fn kind_of(payload: &Payload) -> MessageKind {
    match payload {
        Payload::Log { .. } => MessageKind::Log,
        Payload::Proposal { .. } => MessageKind::Proposal,
        Payload::Vote { .. } => MessageKind::Vote,
        Payload::Recovery { .. } => MessageKind::Recovery,
        Payload::FinalityVote { .. } => MessageKind::FinalityVote,
        Payload::BlockRequest { .. } => MessageKind::BlockRequest,
        Payload::BlockResponse { .. } => MessageKind::BlockResponse,
        Payload::Certificate { .. } => MessageKind::Certificate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::SimulationBuilder;
    use crate::schedule::ParticipationSchedule;
    use rand::rngs::StdRng;
    use tobsvd_crypto::Keypair;
    use tobsvd_types::{BlockStore, InstanceId, Time, View};

    // -----------------------------------------------------------------
    // Same-tick seams of the split drain: heap events ranked before the
    // deliveries, the tick's bucket, heap events ranked after.
    // -----------------------------------------------------------------

    /// `(when, recipient, original sender)` of every reception, shared by
    /// all of a run's [`Recorder`]s so it survives a crash.
    type ReceptionLog = Arc<std::sync::Mutex<Vec<(Time, ValidatorId, ValidatorId)>>>;

    /// Broadcasts one LOG at t = 0, logs every reception, and forwards
    /// whatever it receives at `forward_at`.
    struct Recorder {
        me: ValidatorId,
        log: ReceptionLog,
        forward_at: Option<Time>,
    }

    impl Node for Recorder {
        fn on_phase(&mut self, ctx: &mut Context) {
            if ctx.time == Time::ZERO {
                let kp = Keypair::from_seed(self.me.key_seed());
                ctx.broadcast(SignedMessage::sign(
                    &kp,
                    self.me,
                    Payload::Log { instance: InstanceId(0), log: Log::genesis(&ctx.store) },
                ));
            }
        }
        fn on_message(&mut self, msg: &SignedMessage, ctx: &mut Context) {
            self.log.lock().unwrap().push((ctx.time, self.me, msg.sender()));
            if self.forward_at == Some(ctx.time) {
                ctx.forward(*msg);
            }
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// Three recorders under worst-case delay: the t = 0 broadcasts reach
    /// their sender at t = 1 and everyone else at t = Δ = 8.
    fn recorder_sim(
        forward_at: Option<Time>,
        configure: impl FnOnce(SimulationBuilder) -> SimulationBuilder,
    ) -> (Simulation, ReceptionLog) {
        let log = ReceptionLog::default();
        let mut b = configure(
            Simulation::builder(SimConfig::new(3).with_seed(1))
                .delay(Box::new(crate::network::WorstCaseDelay)),
        );
        for v in ValidatorId::all(3) {
            b = b.node(v, Box::new(Recorder { me: v, log: Arc::clone(&log), forward_at }));
        }
        (b.build(), log)
    }

    fn receptions_at(log: &ReceptionLog, t: u64) -> Vec<(u32, u32)> {
        let log = log.lock().unwrap();
        log.iter().filter(|r| r.0 == Time::new(t)).map(|r| (r.1.raw(), r.2.raw())).collect()
    }

    #[test]
    fn wake_precedes_same_tick_delivery() {
        let (mut sim, log) = recorder_sim(None, |b| {
            let mut part = ParticipationSchedule::always_awake(3);
            part.set_intervals(ValidatorId::new(2), vec![(Time::new(8), Time::new(100))]);
            b.participation(part)
        });
        sim.run_until(Time::new(8));
        // v2 woke at t = 8 before the t = 8 bucket: both LOGs reach the
        // node directly, nothing was buffered for it.
        assert_eq!(sim.metrics().buffered, 0);
        let to_v2: Vec<_> = receptions_at(&log, 8).into_iter().filter(|r| r.0 == 2).collect();
        assert_eq!(to_v2, vec![(2, 0), (2, 1)]);
    }

    #[test]
    fn same_tick_delivery_precedes_crash() {
        let (mut sim, log) = recorder_sim(None, |b| {
            b.crashes(vec![(ValidatorId::new(1), Time::new(8), Time::new(100))])
        });
        sim.run_until(Time::new(8));
        // v1 saw the t = 8 deliveries, then died.
        assert!(sim.slots[1].crashed);
        assert_eq!(sim.metrics().dropped, 0);
        assert!(receptions_at(&log, 8).contains(&(1, 0)));
        assert!(receptions_at(&log, 8).contains(&(1, 2)));
    }

    #[test]
    fn same_tick_delivery_precedes_restart_and_is_dropped_once() {
        let (mut sim, log) = recorder_sim(None, |b| {
            let log = ReceptionLog::default();
            b.crashes(vec![(ValidatorId::new(1), Time::new(2), Time::new(8))]).restart_factory(
                Box::new(move |me, _| {
                    Box::new(Recorder { me, log: Arc::clone(&log), forward_at: None })
                }),
            )
        });
        sim.run_until(Time::new(8));
        // v1 is back up at the end of t = 8, but the tick's two copies
        // for it arrived while it was still down: dropped, each counted
        // as one delivery and one drop, never handed to either
        // incarnation.
        assert!(sim.is_awake(ValidatorId::new(1)) && !sim.slots[1].crashed);
        assert_eq!(sim.metrics().dropped, 2);
        assert_eq!(sim.metrics().deliveries, 9);
        assert!(receptions_at(&log, 8).iter().all(|r| r.0 != 1));
    }

    /// Logs the sender of every copy it is asked to delay (the engine
    /// asks in scheduling order, one RNG-visible call per copy) and
    /// gives each sender its own delay.
    struct SchedulingLog(Arc<std::sync::Mutex<Vec<(Time, u32)>>>);
    impl crate::network::DelayPolicy for SchedulingLog {
        fn delay(
            &mut self,
            _msg: &SignedMessage,
            from: ValidatorId,
            _to: ValidatorId,
            at: Time,
            delta: tobsvd_types::Delta,
            _rng: &mut StdRng,
        ) -> u64 {
            self.0.lock().unwrap().push((at, from.raw()));
            if at == Time::ZERO {
                delta.ticks()
            } else {
                1 + u64::from(from.raw())
            }
        }
    }

    #[test]
    fn grouped_drain_keeps_reception_order_and_schedules_effects_in_event_order() {
        let scheduled = Arc::new(std::sync::Mutex::new(Vec::new()));
        let (mut sim, log) = recorder_sim(Some(Time::new(8)), |b| {
            b.delay(Box::new(SchedulingLog(Arc::clone(&scheduled))))
        });
        sim.run_until(Time::new(8));
        // The t = 8 bucket in event order: v0's LOG to v1, v2; v1's to
        // v0, v2; v2's to v0, v1. The drain calls v0 (v1's, v2's), v1
        // (v0's, v2's), v2 (v0's, v1's): each recipient in event order…
        let mut by_recipient = receptions_at(&log, 8);
        by_recipient.sort_by_key(|r| r.0); // stable: keeps each recipient's order
        assert_eq!(by_recipient, vec![(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]);
        // …while the forwards those receptions emitted were scheduled
        // (two delay-policy calls each, self copy excluded) in the order
        // of the receptions that caused them, not of the calls.
        let forwarders: Vec<u32> =
            scheduled.lock().unwrap().iter().filter(|s| s.0 == Time::new(8)).map(|s| s.1).collect();
        assert_eq!(forwarders, vec![1, 1, 2, 2, 0, 0, 2, 2, 0, 0, 1, 1]);
        assert_eq!(sim.metrics().forwards, 6);
    }

    /// `k` LOGs over ever longer chains with ever larger transactions,
    /// so no two have the same encoded length.
    fn growing_logs(store: &BlockStore, k: usize) -> Vec<SignedMessage> {
        let me = ValidatorId::new(0);
        let kp = Keypair::from_seed(me.key_seed());
        let mut log = Log::genesis(store);
        (0..k as u64)
            .map(|i| {
                let tx = tobsvd_types::Transaction::synthetic(i, 8 * (i as usize + 1));
                log = log.extend(store, me, View::new(i), vec![tx]);
                SignedMessage::sign(&kp, me, Payload::Log { instance: InstanceId(i), log })
            })
            .collect()
    }

    /// At t = 0 validator 0 sends [`growing_logs`] to validator 1, as one
    /// `ForwardTo` batch or as one single-target `Multicast` per message;
    /// every node logs `(arrival, id)` of what it receives.
    struct BatchSender {
        batched: bool,
        sent: Vec<SignedMessage>,
        received: Vec<(Time, tobsvd_crypto::Digest)>,
    }

    impl Node for BatchSender {
        fn on_phase(&mut self, ctx: &mut Context) {
            if ctx.me.index() != 0 || ctx.time != Time::ZERO {
                return;
            }
            self.sent = growing_logs(&ctx.store, 12);
            let to = ValidatorId::new(1);
            if self.batched {
                ctx.forward_to(to, self.sent.iter().copied().map(Arc::new).collect());
            } else {
                for m in &self.sent {
                    ctx.multicast(vec![to], *m);
                }
            }
        }
        fn on_message(&mut self, msg: &SignedMessage, ctx: &mut Context) {
            self.received.push((ctx.time, msg.id()));
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn a_forward_batch_is_scheduled_copy_by_copy_in_batch_order() {
        let run = |batched: bool| {
            let mut b = Simulation::builder(SimConfig::new(2).with_seed(11));
            for v in ValidatorId::all(2) {
                b = b.node(v, Box::new(BatchSender { batched, sent: Vec::new(), received: Vec::new() }));
            }
            let mut sim = b.build();
            sim.run_until(Time::new(9));
            let sender = sim.node(ValidatorId::new(0)).as_any().downcast_ref::<BatchSender>().unwrap();
            let receiver = sim.node(ValidatorId::new(1)).as_any().downcast_ref::<BatchSender>().unwrap();
            (sim.metrics().clone(), sender.sent.clone(), receiver.received.clone(), sim.store.clone())
        };
        let (metrics, sent, received, store) = run(true);
        let k = sent.len() as u64;
        assert_eq!((metrics.forwards, metrics.deliveries), (k, k));
        assert_eq!(metrics.log_broadcasts, 0, "a batch is forwards only");
        // Each copy is charged its own lengths, not its batch's.
        let lens: Vec<u64> = sent.iter().map(|m| wire::encoded_len(m, &store).unwrap()).collect();
        assert!(lens.windows(2).all(|w| w[0] < w[1]), "{lens:?}");
        assert_eq!(metrics.bytes_delivered, lens.iter().sum::<u64>());
        assert_eq!(metrics.log_bytes, metrics.bytes_delivered);
        let inline: u64 = sent.iter().map(|m| wire::inline_equivalent_len(m, &store)).sum();
        assert_eq!(metrics.inline_equiv_bytes, inline);
        // One delay draw per copy, in batch order: arrivals are the
        // batch stably sorted by arrival tick, and match what one
        // single-target send per message draws.
        let ids: Vec<_> = received.iter().map(|r| r.1).collect();
        let mut by_arrival: Vec<_> = sent.iter().map(|m| m.id()).collect();
        by_arrival.sort_by_key(|id| received.iter().find(|r| r.1 == *id).map(|r| r.0));
        assert_eq!(ids, by_arrival);
        assert!(received.windows(2).any(|w| w[0].0 != w[1].0), "the draws spread: {received:?}");
        let (per_message, _, per_message_received, _) = run(false);
        assert_eq!(received, per_message_received);
        assert_eq!(metrics.bytes_delivered, per_message.bytes_delivered);
    }
}
