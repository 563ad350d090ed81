//! `tobsvd-perf` — the performance ledger of the TOB-SVD reproduction.
//!
//! ```text
//! tobsvd-perf --workload W [--seed S] [--seconds T] [--trace 0|1] [--smoke]
//! tobsvd-perf [--seed S] [--seconds T] [--trace 0|1] [--smoke]      # every workload
//! tobsvd-perf --self-check [--seed S] [--seconds T] [--smoke]       # suite twice, compared
//! ```
//!
//! One invocation with `--workload` measures one workload in this
//! process and prints, as the last line of standard output, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}` carrying every
//! end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`). Without `--workload` each workload runs in its own
//! child process (so `peak_rss_mib` is per workload) and the lines are
//! collected into one object. Any failed correctness check aborts with
//! a non-zero exit code and no result line. See `perf/README.md`.

mod json;
mod probes;
mod proc;
mod sims;
mod spec;
mod stats;
mod tcp;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations the workload attempted (transactions submitted) …
    pub attempted: u64,
    /// … and how many of them failed (refused, dropped or undecided).
    pub failed: u64,
    metrics: Vec<(&'static str, f64)>,
    notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.metrics.iter().all(|(n, _)| *n != name),
            "metric {name} recorded twice"
        );
        assert!(
            spec::unit_of(name).is_some(),
            "metric {name} is not in the ledger's vocabulary"
        );
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("metric {name} was not recorded"))
    }

    pub fn absorb(&mut self, other: Outcome) {
        for (name, value) in other.metrics {
            self.metric(name, value);
        }
        self.notes.extend(other.notes);
    }

    /// Records 0 for every not-yet-recorded per-layer metric under
    /// `prefix`: the layer does not run on this workload.
    pub fn zero_fill(&mut self, prefix: &str) {
        for (name, _, _) in spec::PER_LAYER {
            if name.starts_with(prefix) && self.metrics.iter().all(|(n, _)| *n != name) {
                self.metric(name, 0.0);
            }
        }
    }

    pub fn metrics_json(&self) -> String {
        let entries: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = spec::unit_of(name).expect("checked on insert");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", entries.join(", "))
    }

    /// The contract's result line. Panics unless exactly the declared
    /// metric set for this mode was recorded.
    fn result_line(&self, trace: bool) -> String {
        let declared: Vec<&str> = if trace {
            spec::PER_LAYER.iter().map(|(n, ..)| *n).collect()
        } else {
            spec::END_TO_END.iter().map(|(n, ..)| *n).collect()
        };
        for name in &declared {
            assert!(
                self.metrics.iter().any(|(n, _)| n == name),
                "declared metric {name} missing"
            );
        }
        assert_eq!(
            self.metrics.len(),
            declared.len(),
            "undeclared metrics recorded"
        );
        assert!(
            self.attempted >= 1,
            "a run must attempt at least one operation"
        );
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }
}

/// Where trace files and scratch data go: `perf/out` next to the
/// sources, inside the checkout the binary was built from.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn write_out_file(dir: &Path, name: &str, contents: &str) {
    std::fs::create_dir_all(dir).expect("create perf/out");
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("# wrote {}", path.display());
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    self_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 23,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        self_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--self-check" => args.self_check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn run_workload(name: &str, args: &Args) -> Result<String, String> {
    let out_dir = out_dir();
    let outcome = if let Some(spec) = sims::spec(name, args.smoke) {
        println!("# {}", proc::machine_note(&out_dir, None));
        if args.trace {
            sims::run_traced(&spec, args.seed, args.smoke, &out_dir)
        } else {
            sims::run_end_to_end(&spec, args.seed, args.seconds)
        }
    } else if name == "tcp_ingest" {
        println!("# {}", proc::machine_note(&out_dir, Some(tcp::TICK_MS)));
        tcp::run(args.seed, args.seconds, args.trace, args.smoke, &out_dir)
    } else {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "unknown workload {name}; known: {}",
            known.join(", ")
        ));
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    Ok(outcome.result_line(args.trace))
}

/// Runs every workload in its own child process and returns each
/// one's result line.
fn run_suite(args: &Args, trace: bool) -> Result<Vec<(&'static str, String)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut results = Vec::new();
    for (name, _) in spec::WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        let output = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        if !output.status.success() {
            return Err(format!(
                "{name} failed ({}):\n{stdout}{}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            ));
        }
        let line = stdout
            .lines()
            .last()
            .ok_or(format!("{name} printed nothing"))?;
        results.push((name, line.to_string()));
        eprintln!("{name}: done");
    }
    Ok(results)
}

fn metric_value(result_line: &str, name: &str) -> Option<f64> {
    json::parse(result_line)
        .ok()?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// Runs the suite twice on this build and prints one row per
/// (workload, metric) with both values. Same code and same seed, so a
/// difference can only be the host. Pairs ISSUE 11 defines are judged:
/// exact ones must repeat bit for bit; the others fail beyond the bound
/// `BENCHMARK.json` declares and read `unresolved` between ISSUE 11's
/// bound and that one (the host's spread is wider than the bound, so
/// the pair can show neither a gain nor a regression today). Analogue
/// pairs are printed and never judged.
fn self_check(args: &Args) -> Result<bool, String> {
    let first = run_suite(args, false)?;
    let second = run_suite(args, false)?;
    let mut ok = true;
    println!(
        "{:<12} {:<28} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "run 1", "run 2", "worse by", "gate"
    );
    for ((workload, a), (_, b)) in first.iter().zip(&second) {
        for (name, unit, better, declared) in spec::END_TO_END {
            let (x, y) = match (metric_value(a, name), metric_value(b, name)) {
                (Some(x), Some(y)) => (x, y),
                _ => return Err(format!("{workload}: {name} missing from a result line")),
            };
            // How much worse the second run is than the first (negative:
            // it got better), absolute and as a share of the first.
            let worse_abs = if better == spec::LOWER { y - x } else { x - y };
            let worse = worse_abs / x;
            let (gate, judged) = match spec::gate(name, workload) {
                spec::Gate::Analogue => ("-".to_string(), "analogue"),
                spec::Gate::Exact => ("exact".to_string(), if x == y { "ok" } else { DISAGREES }),
                spec::Gate::Abs(limit) => (
                    format!("{limit}"),
                    verdict(worse_abs.abs() <= limit, worse.abs() <= declared),
                ),
                spec::Gate::Rel(limit) => (
                    format!("{:.0}%", limit * 100.0),
                    verdict(worse.abs() <= limit, worse.abs() <= declared),
                ),
            };
            ok &= judged != DISAGREES;
            println!(
                "{workload:<12} {name:<28} {x:>16.6} {y:>16.6} {:>8.2}% {gate:>7}  {judged} [{unit}]",
                worse * 100.0,
            );
        }
    }
    Ok(ok)
}

const DISAGREES: &str = "DISAGREES";

fn verdict(within_issue_bound: bool, within_declared_bound: bool) -> &'static str {
    match (within_issue_bound, within_declared_bound) {
        (true, _) => "ok",
        (false, true) => "unresolved",
        (false, false) => DISAGREES,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tobsvd-perf: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.self_check {
        self_check(&args).and_then(|ok| {
            if ok {
                Ok(())
            } else {
                Err("self-check: runs disagree".to_string())
            }
        })
    } else if let Some(name) = &args.workload {
        run_workload(name, &args).map(|line| println!("{line}"))
    } else {
        run_suite(&args, args.trace).map(|results| {
            let lines: Vec<String> = results
                .iter()
                .map(|(name, line)| format!("\"{name}\": {line}"))
                .collect();
            println!("{{{}}}", lines.join(", "));
        })
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tobsvd-perf: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_difference_beyond_the_declared_bound_disagrees() {
        assert_eq!(verdict(true, true), "ok");
        assert_eq!(verdict(false, true), "unresolved");
        assert_eq!(verdict(false, false), DISAGREES);
    }
}
