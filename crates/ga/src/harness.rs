//! Standalone Graded Agreement execution on the simulator.
//!
//! [`GaNode`] adapts any of the three GA state machines to the
//! simulator's [`Node`] interface (input broadcast, honest forwarding,
//! signature verification, schedule driving). [`GaHarness`] assembles a
//! one-instance experiment — per-validator inputs, Byzantine slots,
//! participation schedules, delay policies — runs it, and extracts every
//! validator's outputs, which is what the Theorem 1/2 property tests
//! check the GA properties against.

use tobsvd_crypto::{KeyCache, Keypair};
use tobsvd_sim::gossip::GossipState;
use tobsvd_sim::{
    Context, DelayPolicy, Node, ParticipationSchedule, SimConfig, SimReport, Simulation,
    UniformDelay,
};
use tobsvd_types::{BlockStore, InstanceId, Log, Payload, SignedMessage, Time, ValidatorId};

use crate::ga2::{Ga2, GA2_DURATION_DELTAS, GA2_GRADES};
use crate::ga3::{Ga3, GA3_DURATION_DELTAS, GA3_GRADES};
use crate::mr::{MrGa, MR_DURATION_DELTAS};

/// Which GA protocol to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GaKind {
    /// Figure 1, k = 2.
    Two,
    /// Figure 2, k = 3.
    Three,
    /// §4 Momose–Ren background GA.
    Mr,
}

impl GaKind {
    /// Number of grades.
    pub fn grades(&self) -> u8 {
        match self {
            GaKind::Two => GA2_GRADES,
            GaKind::Three => GA3_GRADES,
            GaKind::Mr => 2,
        }
    }

    /// Protocol duration in Δ.
    pub fn duration_deltas(&self) -> u64 {
        match self {
            GaKind::Two => GA2_DURATION_DELTAS,
            GaKind::Three => GA3_DURATION_DELTAS,
            GaKind::Mr => MR_DURATION_DELTAS,
        }
    }
}

enum AnyGa {
    Two(Ga2),
    Three(Ga3),
    Mr(MrGa),
}

/// An honest validator running a single GA instance.
pub struct GaNode {
    me: ValidatorId,
    keypair: Keypair,
    instance: InstanceId,
    start: Time,
    input: Option<Log>,
    input_sent: bool,
    ga: AnyGa,
    /// Dedup / authenticity gate, shared with `tobsvd-core`'s validator.
    gossip: GossipState,
}

impl GaNode {
    /// Creates a node for `me` running `kind`, inputting `input` at
    /// `start` (`None` = no input, e.g. asleep at the input phase).
    pub fn new(
        me: ValidatorId,
        kind: GaKind,
        instance: InstanceId,
        start: Time,
        input: Option<Log>,
    ) -> Self {
        let ga = match kind {
            GaKind::Two => AnyGa::Two(Ga2::new(instance, start)),
            GaKind::Three => AnyGa::Three(Ga3::new(instance, start)),
            GaKind::Mr => AnyGa::Mr(MrGa::new(instance, start)),
        };
        GaNode {
            me,
            keypair: KeyCache::keypair(me.key_seed()),
            instance,
            start,
            input,
            input_sent: false,
            ga,
            gossip: GossipState::new(),
        }
    }

    /// The highest output at `grade` (`None` if not participating or no
    /// log passed). For [`GaKind::Mr`] grade 0, returns the first maximal
    /// output — use [`GaNode::mr_grade0_outputs`] to see all of them.
    pub fn output(&self, grade: u8) -> Option<Log> {
        match &self.ga {
            AnyGa::Two(ga) => ga.output(grade),
            AnyGa::Three(ga) => ga.output(grade),
            AnyGa::Mr(ga) => match grade {
                0 => ga.outputs_grade0().first().copied(),
                1 => ga.output_grade1(),
                _ => None,
            },
        }
    }

    /// Whether this node executed the output phase for `grade`.
    pub fn participated(&self, grade: u8) -> bool {
        match &self.ga {
            AnyGa::Two(ga) => ga.participated(grade),
            AnyGa::Three(ga) => ga.participated(grade),
            AnyGa::Mr(ga) => match grade {
                0 => ga.participated_grade0(),
                1 => ga.participated_grade1(),
                _ => false,
            },
        }
    }

    /// All maximal grade-0 outputs of the MR GA (possibly conflicting).
    pub fn mr_grade0_outputs(&self) -> Vec<Log> {
        match &self.ga {
            AnyGa::Mr(ga) => ga.outputs_grade0().to_vec(),
            _ => Vec::new(),
        }
    }
}

impl Node for GaNode {
    fn on_phase(&mut self, ctx: &mut Context) {
        if ctx.time == self.start && !self.input_sent {
            self.input_sent = true;
            if let Some(log) = self.input {
                match &mut self.ga {
                    AnyGa::Two(ga) => ga.set_input(log),
                    AnyGa::Three(ga) => ga.set_input(log),
                    AnyGa::Mr(ga) => ga.set_input(log),
                }
                let msg = SignedMessage::sign(
                    &self.keypair,
                    self.me,
                    Payload::Log { instance: self.instance, log },
                );
                ctx.broadcast(msg);
            }
        }
        let votes = match &mut self.ga {
            AnyGa::Two(ga) => {
                ga.on_phase(ctx.time, ctx.delta, &ctx.store);
                Vec::new()
            }
            AnyGa::Three(ga) => {
                ga.on_phase(ctx.time, ctx.delta, &ctx.store);
                Vec::new()
            }
            AnyGa::Mr(ga) => ga.on_phase(ctx.time, ctx.delta, &ctx.store),
        };
        for log in votes {
            let msg = SignedMessage::sign(
                &self.keypair,
                self.me,
                Payload::Vote { instance: self.instance, log },
            );
            ctx.broadcast(msg);
        }
    }

    fn on_message(&mut self, msg: &SignedMessage, ctx: &mut Context) {
        // "The adversary cannot forge signatures": drop invalid ones.
        let Some(reception) = self.gossip.admit(msg, ctx) else {
            return;
        };
        if reception.forward {
            ctx.forward(*msg);
        }
        if !reception.fresh {
            return;
        }
        match msg.payload() {
            Payload::Log { instance, log } if *instance == self.instance => {
                match &mut self.ga {
                    AnyGa::Two(ga) => {
                        ga.on_log(msg.sender(), *log);
                    }
                    AnyGa::Three(ga) => {
                        ga.on_log(msg.sender(), *log);
                    }
                    AnyGa::Mr(ga) => {
                        ga.on_log(msg.sender(), *log);
                    }
                }
            }
            Payload::Vote { instance, log } if *instance == self.instance => {
                if let AnyGa::Mr(ga) = &mut self.ga {
                    ga.on_vote(msg.sender(), *log);
                }
            }
            _ => {}
        }
    }

    fn label(&self) -> &'static str {
        match self.ga {
            AnyGa::Two(_) => "ga2",
            AnyGa::Three(_) => "ga3",
            AnyGa::Mr(_) => "mr-ga",
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Result of a [`GaHarness`] run.
#[derive(Debug)]
pub struct GaRunResult {
    /// `outputs[v][g]`: highest output of validator `v` at grade `g`
    /// (empty entries for Byzantine slots).
    pub outputs: Vec<Vec<Option<Log>>>,
    /// `participated[v][g]`.
    pub participated: Vec<Vec<bool>>,
    /// All maximal MR grade-0 outputs per validator (MR runs only).
    pub mr_grade0: Vec<Vec<Log>>,
    /// Whether each validator stayed honest.
    pub honest: Vec<bool>,
    /// The inputs each honest validator made.
    pub inputs: Vec<Option<Log>>,
    /// Simulation summary.
    pub report: SimReport,
    /// The shared block store (for relation checks on the outputs).
    pub store: BlockStore,
}

/// Builds and runs a single standalone GA instance.
pub struct GaHarness {
    cfg: SimConfig,
    kind: GaKind,
    start: Time,
    store: BlockStore,
    inputs: Vec<Option<Log>>,
    byzantine: Vec<Option<Box<dyn Node>>>,
    participation: ParticipationSchedule,
    delay: Box<dyn DelayPolicy>,
}

impl GaHarness {
    /// Creates a harness for `cfg.n` validators running `kind` from
    /// time 0.
    pub fn new(cfg: SimConfig, kind: GaKind) -> Self {
        let n = cfg.n;
        GaHarness {
            kind,
            start: Time::ZERO,
            store: BlockStore::new(),
            inputs: vec![None; n],
            byzantine: (0..n).map(|_| None).collect(),
            participation: ParticipationSchedule::always_awake(n),
            delay: Box::new(UniformDelay),
            cfg,
        }
    }

    /// The shared store; build input logs against it.
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// Sets validator `v`'s input log.
    pub fn input(&mut self, v: ValidatorId, log: Log) -> &mut Self {
        self.inputs[v.index()] = Some(log);
        self
    }

    /// Installs a Byzantine node at `v` (overrides any input).
    pub fn byzantine(&mut self, v: ValidatorId, node: Box<dyn Node>) -> &mut Self {
        self.byzantine[v.index()] = Some(node);
        self
    }

    /// Sets the participation schedule.
    pub fn participation(&mut self, p: ParticipationSchedule) -> &mut Self {
        self.participation = p;
        self
    }

    /// Sets the delay policy.
    pub fn delay(&mut self, d: Box<dyn DelayPolicy>) -> &mut Self {
        self.delay = d;
        self
    }

    /// Runs the instance to completion and collects outputs.
    pub fn run(self) -> GaRunResult {
        let n = self.cfg.n;
        let kind = self.kind;
        let grades = kind.grades();
        let duration = kind.duration_deltas();
        let delta = self.cfg.delta;
        let instance = InstanceId(0);

        // Inputs were built against the harness store; make it the
        // simulation's shared store so every lookup resolves.
        let mut builder = Simulation::builder(self.cfg).with_store(self.store.clone());
        let store = self.store.clone();
        let inputs = self.inputs.clone();
        let mut byz_flags = vec![false; n];
        let mut byzantine = self.byzantine;
        for v in ValidatorId::all(n) {
            if let Some(node) = byzantine[v.index()].take() {
                byz_flags[v.index()] = true;
                builder = builder.byzantine_node(v, node);
            } else {
                let node = GaNode::new(v, kind, instance, self.start, inputs[v.index()]);
                builder = builder.node(v, Box::new(node));
            }
        }
        builder = builder.participation(self.participation).delay(self.delay);
        let mut sim = builder.build();
        // One extra Δ of margin so trailing forwards settle in metrics.
        sim.run_until(self.start + delta * duration);

        let mut outputs = Vec::with_capacity(n);
        let mut participated = Vec::with_capacity(n);
        let mut mr_grade0 = Vec::with_capacity(n);
        for v in ValidatorId::all(n) {
            if byz_flags[v.index()] {
                outputs.push(vec![None; grades as usize]);
                participated.push(vec![false; grades as usize]);
                mr_grade0.push(Vec::new());
                continue;
            }
            let node = sim
                .node(v)
                .as_any()
                .downcast_ref::<GaNode>()
                .expect("honest slots hold GaNodes");
            outputs.push((0..grades).map(|g| node.output(g)).collect());
            participated.push((0..grades).map(|g| node.participated(g)).collect());
            mr_grade0.push(node.mr_grade0_outputs());
        }
        GaRunResult {
            outputs,
            participated,
            mr_grade0,
            honest: byz_flags.iter().map(|b| !b).collect(),
            inputs,
            report: sim.report(),
            store,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tobsvd_types::View;

    /// All-honest unanimous run outputs the common input at every grade,
    /// for each GA kind.
    #[test]
    fn unanimous_runs_all_kinds() {
        for kind in [GaKind::Two, GaKind::Three, GaKind::Mr] {
            let cfg = SimConfig::new(5).with_seed(11);
            let mut h = GaHarness::new(cfg, kind);
            let log = Log::genesis(h.store()).extend_empty(
                h.store(),
                ValidatorId::new(0),
                View::new(1),
            );
            for v in ValidatorId::all(5) {
                h.input(v, log);
            }
            let result = h.run();
            for v in 0..5 {
                for g in 0..kind.grades() {
                    assert_eq!(
                        result.outputs[v][g as usize],
                        Some(log),
                        "{kind:?} validator {v} grade {g}"
                    );
                }
            }
            result.report.assert_safety();
            // One LOG per validator in every kind; only the Momose–Ren
            // GA pays the extra VOTE round (§4, Table 1's voting phases).
            let m = &result.report.metrics;
            assert_eq!(m.log_broadcasts, 5, "{kind:?}");
            assert_eq!(m.vote_broadcasts, if matches!(kind, GaKind::Mr) { 5 } else { 0 }, "{kind:?}");
        }
    }

    /// Different extensions of a common prefix: everyone outputs at least
    /// the prefix (Validity).
    #[test]
    fn validity_with_divergent_extensions() {
        let cfg = SimConfig::new(6).with_seed(7);
        let mut h = GaHarness::new(cfg, GaKind::Three);
        let base = Log::genesis(h.store()).extend_empty(
            h.store(),
            ValidatorId::new(0),
            View::new(1),
        );
        for v in ValidatorId::all(6) {
            // Each validator extends `base` differently.
            let mine = base.extend_empty(h.store(), v, View::new(2));
            h.input(v, mine);
        }
        let result = h.run();
        for v in 0..6 {
            for g in 0..3 {
                let out = result.outputs[v][g].expect("some output");
                assert!(
                    base.is_prefix_of(&out, &result.store),
                    "validator {v} grade {g} output {out} must extend base"
                );
            }
        }
    }

    /// A validator asleep during the Δ snapshot cannot output grade 1 but
    /// still outputs grade 0 (GA2 participation rules, end to end).
    #[test]
    fn sleeping_through_snapshot_blocks_grade1() {
        let cfg = SimConfig::new(4).with_seed(3);
        let delta = cfg.delta;
        let mut h = GaHarness::new(cfg, GaKind::Two);
        let log = Log::genesis(h.store()).extend_empty(
            h.store(),
            ValidatorId::new(1),
            View::new(1),
        );
        for v in ValidatorId::all(4) {
            h.input(v, log);
        }
        // v3 sleeps during (0, 2Δ): misses the Δ snapshot, wakes for 2Δ.
        let mut part = ParticipationSchedule::always_awake(4);
        part.set_intervals(
            ValidatorId::new(3),
            vec![
                (Time::ZERO, Time::new(1)),
                (Time::new(2 * delta.ticks()), Time::new(100 * delta.ticks())),
            ],
        );
        h.participation(part);
        let result = h.run();
        // Grade 0 output fine (awake at 2Δ with all messages delivered at wake).
        assert_eq!(result.outputs[3][0], Some(log));
        // Grade 1 not participated.
        assert!(!result.participated[3][1]);
        assert_eq!(result.outputs[3][1], None);
        // Others output grade 1.
        assert_eq!(result.outputs[0][1], Some(log));
    }
}
