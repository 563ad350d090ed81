//! Local cluster orchestration: spawn n nodes on ephemeral localhost
//! ports, run for a fixed number of views, collect and cross-check
//! their decisions.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

use tobsvd_core::{AdmissionPolicy, ViewSchedule};
use tobsvd_types::{Delta, SignerSet, Transaction, TxId, ValidatorId};

use crate::clock::TickClock;
use crate::node::{spawn_node, NodeConfig, NodeHandle, NodeOutcome};

/// Cluster configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub n: usize,
    /// Views to run.
    pub views: u64,
    /// Δ in ticks.
    pub delta: Delta,
    /// Wall-clock duration of one tick.
    pub tick: Duration,
    /// Transactions seeded into every node's pool.
    pub seed_txs: usize,
    /// Disk-backed mode: when set, node `i` persists its WAL and
    /// snapshots under `<data_root>/node-<i>` and recovers from that
    /// directory at start.
    pub data_root: Option<std::path::PathBuf>,
    /// Mempool admission policy of every node's ingest plane
    /// ([`AdmissionPolicy::default`] if `None`).
    pub admission: Option<AdmissionPolicy>,
    /// Extra delay before tick 0. Listeners accept during warm-up, so
    /// benches can connect large client fleets before the run clock
    /// starts (a connect storm that outlives a short run would find
    /// the listeners already closed).
    pub warmup: Duration,
}

impl ClusterConfig {
    /// Defaults: Δ = 4 ticks of 10 ms (Δ = 40 ms), 4 views, 4 txs.
    pub fn new(n: usize) -> Self {
        ClusterConfig {
            n,
            views: 4,
            delta: Delta::new(4),
            tick: Duration::from_millis(10),
            seed_txs: 4,
            data_root: None,
            admission: None,
            warmup: Duration::ZERO,
        }
    }

    /// Sets the number of views.
    pub fn views(mut self, views: u64) -> Self {
        self.views = views;
        self
    }

    /// Sets the tick duration.
    pub fn tick(mut self, tick: Duration) -> Self {
        self.tick = tick;
        self
    }

    /// Enables disk-backed nodes rooted at `root`.
    pub fn data_root(mut self, root: impl Into<std::path::PathBuf>) -> Self {
        self.data_root = Some(root.into());
        self
    }

    /// Sets every node's mempool admission policy.
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = Some(policy);
        self
    }

    /// Extends the pre-run warm-up window (see [`ClusterConfig::warmup`]).
    pub fn warmup(mut self, warmup: Duration) -> Self {
        self.warmup = warmup;
        self
    }
}

/// Errors from [`LocalCluster::run`].
#[derive(Debug)]
pub enum ClusterError {
    /// Could not bind a listener.
    Bind(std::io::Error),
    /// Could not spawn a node thread.
    Spawn(std::io::Error),
    /// A node thread panicked.
    NodePanic(String),
    /// A node aborted before running (e.g. unopenable durable dir).
    NodeFatal(String),
    /// Configuration invalid.
    BadConfig(&'static str),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Bind(e) => write!(f, "bind failed: {e}"),
            ClusterError::Spawn(e) => write!(f, "spawn failed: {e}"),
            ClusterError::NodePanic(m) => write!(f, "node panicked: {m}"),
            ClusterError::NodeFatal(m) => write!(f, "node aborted: {m}"),
            ClusterError::BadConfig(m) => write!(f, "bad configuration: {m}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Report of a cluster run.
#[derive(Debug)]
pub struct ClusterReport {
    outcomes: Vec<NodeOutcome>,
}

impl ClusterReport {
    /// Per-node outcomes, in validator order.
    pub fn outcomes(&self) -> Vec<NodeOutcome> {
        self.outcomes.clone()
    }

    /// Joins node `me`'s decision stream against transaction ids: for
    /// every transaction in its decided log, the node-loop tick at
    /// which the decision containing it first landed. The ingest bench
    /// subtracts client submission ticks from these to get
    /// submitted→decided latency.
    pub fn decided_tx_ticks(&self, me: ValidatorId) -> BTreeMap<TxId, u64> {
        let mut out = BTreeMap::new();
        let Some(o) = self.outcomes.iter().find(|o| o.me == me) else {
            return out;
        };
        let mut prev_len = 1u64;
        for ev in &o.decided_events {
            for id in o.store.chain_range(ev.tip, prev_len).unwrap_or_default() {
                if let Some(block) = o.store.get(id) {
                    for tx in block.txs() {
                        out.entry(tx.id()).or_insert(ev.tick);
                    }
                }
            }
            prev_len = ev.len;
        }
        out
    }

    /// Shortest decided log length across nodes.
    pub fn min_decided_len(&self) -> u64 {
        self.outcomes.iter().map(|o| o.decided_len).min().unwrap_or(1)
    }

    /// Longest decided log length across nodes.
    pub fn max_decided_len(&self) -> u64 {
        self.outcomes.iter().map(|o| o.decided_len).max().unwrap_or(1)
    }

    /// Checks pairwise compatibility of all decided logs (Safety across
    /// real processes): for every pair, the shorter log's tip must be an
    /// ancestor of the longer log's tip in the longer node's store.
    pub fn agreement(&self) -> bool {
        for a in &self.outcomes {
            for b in &self.outcomes {
                let (short, long) = if a.decided_len <= b.decided_len { (a, b) } else { (b, a) };
                if short.decided_len == 1 {
                    continue; // genesis is a prefix of everything
                }
                if !long.store.is_ancestor(short.decided_tip, long.decided_tip) {
                    return false;
                }
            }
        }
        true
    }

    /// Panics unless all decided logs are pairwise compatible.
    ///
    /// # Panics
    ///
    /// Panics on disagreement.
    pub fn assert_agreement(&self) {
        assert!(self.agreement(), "cluster nodes decided conflicting logs");
    }
}

/// A cluster whose nodes are running: the handle clients (benches,
/// tests) use to connect mid-run, then [`RunningCluster::join`].
pub struct RunningCluster {
    handles: Vec<NodeHandle>,
    addrs: BTreeMap<ValidatorId, SocketAddr>,
    clock: TickClock,
    run_ticks: u64,
}

impl RunningCluster {
    /// The listen address of node `v` (clients submit here).
    pub fn addr_of(&self, v: ValidatorId) -> Option<SocketAddr> {
        self.addrs.get(&v).copied()
    }

    /// The shared epoch clock.
    pub fn clock(&self) -> TickClock {
        self.clock
    }

    /// Total ticks the run covers.
    pub fn run_ticks(&self) -> u64 {
        self.run_ticks
    }

    /// Waits for every node and assembles the report.
    ///
    /// # Errors
    ///
    /// Node panics and pre-run aborts.
    pub fn join(self) -> Result<ClusterReport, ClusterError> {
        let outcomes = self.handles.into_iter().map(NodeHandle::join).collect::<Result<_, _>>()?;
        Ok(ClusterReport { outcomes })
    }
}

/// Orchestrates local clusters.
pub struct LocalCluster;

impl LocalCluster {
    /// Spawns a cluster and returns while it runs, so callers can drive
    /// client traffic against the nodes' listeners.
    ///
    /// # Errors
    ///
    /// Socket/bind and thread-spawn failures.
    pub fn spawn(cfg: ClusterConfig) -> Result<RunningCluster, ClusterError> {
        // Epoch slightly in the future so all nodes start at tick 0;
        // callers extend the margin via `warmup` to pre-connect clients.
        let epoch = Instant::now() + Duration::from_millis(150) + cfg.warmup;
        Self::spawn_at(cfg, epoch)
    }

    /// [`LocalCluster::spawn`] with tick 0 at `epoch`.
    fn spawn_at(cfg: ClusterConfig, epoch: Instant) -> Result<RunningCluster, ClusterError> {
        if cfg.n == 0 {
            return Err(ClusterError::BadConfig("n must be ≥ 1"));
        }
        if cfg.n > SignerSet::CAPACITY {
            return Err(ClusterError::BadConfig("n must be ≤ SignerSet::CAPACITY"));
        }
        if cfg.views == 0 {
            return Err(ClusterError::BadConfig("views must be ≥ 1"));
        }
        // Bind all listeners first so dialing cannot race.
        let mut listeners = Vec::with_capacity(cfg.n);
        let mut addrs: BTreeMap<ValidatorId, SocketAddr> = BTreeMap::new();
        for v in ValidatorId::all(cfg.n) {
            let l = TcpListener::bind("127.0.0.1:0").map_err(ClusterError::Bind)?;
            addrs.insert(v, l.local_addr().map_err(ClusterError::Bind)?);
            listeners.push((v, l));
        }

        // Shared workload: identical txs (content-addressed) on every node.
        let txs: Vec<Transaction> =
            (0..cfg.seed_txs).map(|i| Transaction::synthetic(i as u64, 48)).collect();

        let clock = TickClock::new(epoch, cfg.tick);
        let run_ticks = ViewSchedule::new(cfg.delta).run_end(cfg.views).ticks();

        let mut handles = Vec::with_capacity(cfg.n);
        for (v, listener) in listeners {
            let peers: BTreeMap<ValidatorId, SocketAddr> = addrs
                .iter()
                .filter(|(p, _)| **p != v)
                .map(|(p, a)| (*p, *a))
                .collect();
            let node_cfg = NodeConfig {
                me: v,
                n: cfg.n,
                delta: cfg.delta,
                run_ticks,
                seed_txs: txs.clone(),
                data_dir: cfg
                    .data_root
                    .as_ref()
                    .map(|root| root.join(format!("node-{}", v.index()))),
                admission: cfg.admission,
            };
            handles.push(
                spawn_node(node_cfg, listener, peers, clock).map_err(ClusterError::Spawn)?,
            );
        }
        Ok(RunningCluster { handles, addrs, clock, run_ticks })
    }

    /// Runs a cluster to completion.
    ///
    /// # Errors
    ///
    /// Socket/bind failures, spawn failures and node panics.
    pub fn run(cfg: ClusterConfig) -> Result<ClusterReport, ClusterError> {
        Self::spawn(cfg)?.join()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_node_cluster_decides_and_agrees() {
        let report = LocalCluster::run(ClusterConfig::new(3).views(4)).expect("cluster runs");
        report.assert_agreement();
        assert!(
            report.min_decided_len() > 1,
            "every node should decide at least one block: {:?}",
            report.outcomes()
        );
        // Everyone voted roughly once per view, and every store read
        // back every chain it was asked to encode.
        for o in &report.outcomes {
            assert!(o.votes_cast >= 3, "{:?}", o);
            assert_eq!(o.encode_failures, 0, "{:?}", o);
        }
    }

    #[test]
    fn disk_backed_cluster_persists_and_recovers_offline() {
        use tobsvd_storage::{replay_into, DurableStore, FileDurable};
        use tobsvd_types::BlockStore;

        let root = std::env::temp_dir()
            .join(format!("tobsvd-cluster-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);

        let report = LocalCluster::run(ClusterConfig::new(3).views(5).data_root(&root))
            .expect("disk-backed cluster runs");
        report.assert_agreement();
        for o in &report.outcomes {
            assert_eq!((o.wal_errors, o.encode_failures), (0, 0), "{:?}", o);
            assert!(o.persisted_len > 1, "decisions must hit the disk: {:?}", o);
        }

        // Cold recovery from node 0's directory alone: the snapshot +
        // WAL suffix must rebuild the persisted decided prefix into a
        // fresh store, and that prefix must sit on the node's final
        // decided chain.
        let node0 = &report.outcomes[0];
        let wal_dir = root.join("node-0");
        assert!(wal_dir.join("wal.log").exists());
        let recovered =
            FileDurable::open(&wal_dir).expect("reopen").load().expect("clean load");
        let fresh = BlockStore::new();
        let replayed = replay_into(&fresh, &recovered);
        assert_eq!(replayed.skipped, 0);
        assert_eq!(replayed.decided_len, node0.persisted_len);
        assert!(
            node0.store.is_ancestor(replayed.decided_tip, node0.decided_tip),
            "recovered tip must be a decided ancestor"
        );

        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn nodes_that_start_behind_the_clock_withhold_then_resume() {
        // Tick 0 lies 40 ticks in the past: every node loop replays its
        // first ten or so phase boundaries while catching up, each more
        // than Δ/2 late, then runs on time for the remaining views.
        let root = std::env::temp_dir()
            .join(format!("tobsvd-cluster-late-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cfg = ClusterConfig::new(3).views(12).data_root(&root);
        let behind = cfg.tick * 40;
        let epoch = Instant::now().checked_sub(behind).expect("host uptime exceeds 0.4 s");
        let report = LocalCluster::spawn_at(cfg, epoch)
            .and_then(RunningCluster::join)
            .expect("cluster runs");

        report.assert_agreement();
        for o in &report.outcomes {
            assert!(o.late_boundaries > 0, "{}: the burst must be noticed", o.me);
            assert!(o.decisions_withheld > 0, "{}: a late GA's output must be withheld", o.me);
            assert_eq!((o.wal_errors, o.encode_failures), (0, 0), "{}", o.me);
            assert_eq!(o.persisted_len, o.decided_len, "{}: WAL holds exactly the decided log", o.me);
            // Caught up, the node decides again — from clean instances.
            assert!(o.decided_len > 4, "{}: decided only {}", o.me, o.decided_len);
            assert!(o.decided_events.iter().all(|ev| ev.tick > 40), "{}", o.me);
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn config_validation() {
        assert!(matches!(
            LocalCluster::run(ClusterConfig::new(0)),
            Err(ClusterError::BadConfig(_))
        ));
        assert!(matches!(
            LocalCluster::run(ClusterConfig::new(2).views(0)),
            Err(ClusterError::BadConfig(_))
        ));
        assert!(matches!(
            LocalCluster::run(ClusterConfig::new(SignerSet::CAPACITY + 1)),
            Err(ClusterError::BadConfig(_))
        ));
    }
}
