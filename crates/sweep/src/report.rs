//! Per-scenario outcomes and whole-sweep reports.

use std::time::Duration;

use tobsvd_core::TobReport;
use tobsvd_sim::AdmissionStats;

use crate::matrix::Scenario;

/// Summary of one executed scenario.
///
/// Everything except `wall` is a pure function of the scenario (seeded
/// simulations are deterministic); `wall` is measurement noise and is
/// excluded from [`ScenarioOutcome::same_results`].
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// The scenario that was run.
    pub scenario: Scenario,
    /// Whether no safety violation was observed.
    pub safe: bool,
    /// Decided blocks beyond genesis (longest honest decided log).
    pub decided_blocks: u64,
    /// Fraction of views with a good leader.
    pub good_leader_fraction: f64,
    /// Number of confirmed transactions.
    pub confirmed_txs: usize,
    /// Mean confirmation latency in Δ, if any transaction confirmed.
    pub mean_latency_deltas: Option<f64>,
    /// Per-recipient message deliveries.
    pub deliveries: u64,
    /// Nominal bytes delivered.
    pub bytes_delivered: u64,
    /// Horizon covered, in ticks.
    pub ticks: u64,
    /// Ticks the engine actually executed (≤ `ticks`; the gap is the
    /// event-driven engine's saving).
    pub executed_ticks: u64,
    /// Mempool admission counters (all zero for unbounded scenarios).
    pub admission: AdmissionStats,
    /// Wall-clock time of this scenario's run.
    pub wall: Duration,
}

impl ScenarioOutcome {
    /// Builds the outcome from a finished report.
    pub fn from_report(scenario: Scenario, report: &TobReport, wall: Duration) -> Self {
        let latencies = report.tx_latencies_deltas();
        let mean = if latencies.is_empty() {
            None
        } else {
            Some(latencies.iter().sum::<f64>() / latencies.len() as f64)
        };
        ScenarioOutcome {
            scenario,
            safe: report.report.safe,
            decided_blocks: report.decided_blocks(),
            good_leader_fraction: report.good_leader_fraction(),
            confirmed_txs: report.report.confirmed.len(),
            mean_latency_deltas: mean,
            deliveries: report.report.metrics.deliveries,
            bytes_delivered: report.report.metrics.bytes_delivered,
            ticks: report.report.metrics.ticks,
            executed_ticks: report.report.metrics.executed_ticks,
            admission: report.admission(),
            wall,
        }
    }

    /// Whether two outcomes agree on every deterministic field (i.e.
    /// everything except wall-clock time). Used by the determinism tests
    /// to show thread count and scheduling cannot leak into results.
    pub fn same_results(&self, other: &ScenarioOutcome) -> bool {
        self.scenario == other.scenario
            && self.safe == other.safe
            && self.decided_blocks == other.decided_blocks
            && self.good_leader_fraction == other.good_leader_fraction
            && self.confirmed_txs == other.confirmed_txs
            && self.mean_latency_deltas == other.mean_latency_deltas
            && self.deliveries == other.deliveries
            && self.bytes_delivered == other.bytes_delivered
            && self.ticks == other.ticks
            && self.executed_ticks == other.executed_ticks
            && self.admission == other.admission
    }

    fn json(&self, out: &mut String) {
        use std::fmt::Write;
        let _ = write!(
            out,
            "{{\"label\":\"{}\",\"n\":{},\"delta\":{},\"views\":{},\"seed\":{},\
             \"safe\":{},\"decided_blocks\":{},\"good_leader_fraction\":{:.4},\
             \"confirmed_txs\":{},\"mean_latency_deltas\":{},\"deliveries\":{},\
             \"bytes_delivered\":{},\"ticks\":{},\"executed_ticks\":{},\
             \"admitted\":{},\"shed\":{},\"pending_peak\":{},\"wall_us\":{}}}",
            self.scenario.label(),
            self.scenario.n,
            self.scenario.delta,
            self.scenario.views,
            self.scenario.seed,
            self.safe,
            self.decided_blocks,
            self.good_leader_fraction,
            self.confirmed_txs,
            self.mean_latency_deltas
                .map_or_else(|| "null".to_string(), |l| format!("{l:.3}")),
            self.deliveries,
            self.bytes_delivered,
            self.ticks,
            self.executed_ticks,
            self.admission.accepted,
            self.admission.busy + self.admission.rate_limited + self.admission.evicted,
            self.admission.pending_peak,
            self.wall.as_micros(),
        );
    }
}

/// The collected result of a sweep, in matrix order.
#[derive(Clone, Debug, Default)]
pub struct SweepReport {
    outcomes: Vec<ScenarioOutcome>,
    /// Wall-clock time of the whole sweep (spans all workers).
    pub total_wall: Duration,
    /// Number of worker threads used.
    pub threads: usize,
}

impl SweepReport {
    /// Builds a report from outcomes already in matrix order.
    pub fn new(outcomes: Vec<ScenarioOutcome>, total_wall: Duration, threads: usize) -> Self {
        SweepReport { outcomes, total_wall, threads }
    }

    /// Per-scenario outcomes, in matrix order.
    pub fn outcomes(&self) -> &[ScenarioOutcome] {
        &self.outcomes
    }

    /// Whether every scenario stayed safe.
    pub fn all_safe(&self) -> bool {
        self.outcomes.iter().all(|o| o.safe)
    }

    /// Scenarios that violated safety (should be empty for compliant
    /// matrices).
    pub fn unsafe_scenarios(&self) -> Vec<&ScenarioOutcome> {
        self.outcomes.iter().filter(|o| !o.safe).collect()
    }

    /// Total decided blocks across the sweep.
    pub fn total_decided_blocks(&self) -> u64 {
        self.outcomes.iter().map(|o| o.decided_blocks).sum()
    }

    /// Sum of horizon ticks vs executed ticks across the sweep — the
    /// aggregate event-driven saving.
    pub fn tick_totals(&self) -> (u64, u64) {
        (
            self.outcomes.iter().map(|o| o.ticks).sum(),
            self.outcomes.iter().map(|o| o.executed_ticks).sum(),
        )
    }

    /// Renders a fixed-width table of all outcomes plus a summary line.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<40} {:>5} {:>7} {:>6} {:>9} {:>10} {:>10} {:>9}",
            "scenario", "safe", "blocks", "good%", "lat(Δ)", "delivered", "exec/hor", "wall"
        );
        for o in &self.outcomes {
            let _ = writeln!(
                out,
                "{:<40} {:>5} {:>7} {:>6.0} {:>9} {:>10} {:>9.1}% {:>8.1}ms",
                o.scenario.label(),
                if o.safe { "ok" } else { "FAIL" },
                o.decided_blocks,
                o.good_leader_fraction * 100.0,
                o.mean_latency_deltas
                    .map_or_else(|| "-".to_string(), |l| format!("{l:.2}")),
                o.deliveries,
                if o.ticks == 0 {
                    0.0
                } else {
                    o.executed_ticks as f64 / o.ticks as f64 * 100.0
                },
                o.wall.as_secs_f64() * 1e3,
            );
        }
        let (horizon, executed) = self.tick_totals();
        let _ = writeln!(
            out,
            "\n{} scenarios on {} threads in {:.2}s — {} decided blocks, executed {} of {} horizon ticks ({:.2}%)",
            self.outcomes.len(),
            self.threads,
            self.total_wall.as_secs_f64(),
            self.total_decided_blocks(),
            executed,
            horizon,
            if horizon == 0 { 0.0 } else { executed as f64 / horizon as f64 * 100.0 },
        );
        out
    }

    /// Serializes the report as a JSON array of scenario objects (no
    /// external dependency; the offline serde stand-in has no real
    /// serializer).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, o) in self.outcomes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            o.json(&mut out);
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::ScenarioMatrix;

    fn outcome() -> ScenarioOutcome {
        let scenario = ScenarioMatrix::new(vec![4], vec![4]).views(3).scenarios().remove(0);
        let report = scenario.run_report();
        ScenarioOutcome::from_report(scenario, &report, Duration::from_millis(3))
    }

    #[test]
    fn outcome_summarizes_report() {
        let o = outcome();
        assert!(o.safe);
        assert!(o.decided_blocks > 0);
        assert!(o.executed_ticks <= o.ticks);
        assert!(o.confirmed_txs > 0);
    }

    #[test]
    fn same_results_ignores_wall_time() {
        let mut a = outcome();
        let mut b = a.clone();
        b.wall = Duration::from_secs(1234);
        assert!(a.same_results(&b));
        a.decided_blocks += 1;
        assert!(!a.same_results(&b));
    }

    #[test]
    fn render_and_json_contain_every_scenario() {
        let o = outcome();
        let label = o.scenario.label();
        let report = SweepReport::new(vec![o], Duration::from_millis(5), 2);
        let table = report.render();
        assert!(table.contains(&label));
        assert!(table.contains("1 scenarios on 2 threads"));
        let json = report.to_json();
        assert!(json.starts_with('['));
        assert!(json.contains("\"safe\":true"));
        assert!(json.contains("\"executed_ticks\""));
    }
}
