//! Drive the `tobsvd-check` model checker from the command line.
//!
//! ```sh
//! # Explore 2000 model-compliant schedules on all cores (CI smoke).
//! cargo run --release --example model_check -- --executions 2000 --seed 1
//!
//! # Hunt in the hostile (over-bound) space, shrink the first failure
//! # and write a replayable reproducer artifact.
//! cargo run --release --example model_check -- --hostile --out repro.json
//!
//! # Replay a reproducer artifact byte-for-byte.
//! cargo run --release --example model_check -- --replay repro.json
//! ```
//!
//! Exit status: `0` when the run matched expectations (no failures in a
//! compliant exploration; failure found+shrunk in `--hostile` mode;
//! reproducer still failing in `--replay` mode), `1` otherwise, an
//! unreadable or invalid artifact included. A failing compliant
//! exploration shrinks its first failure and writes the artifact to
//! `--out` (default `target/model-check/reproducer.json`) so CI can
//! upload it.

use std::path::PathBuf;
use std::process::ExitCode;

use tob_svd::check::{checker, shrink, CheckConfig, Reproducer, ScenarioSpace};

fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn write_reproducer(path: &PathBuf, repro: &Reproducer) {
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(path, repro.to_json()) {
        Ok(()) => eprintln!("reproducer written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let executions: usize = arg_value(&args, "--executions")
        .map(|v| v.parse().expect("--executions takes a number"))
        .unwrap_or(2000);
    let seed: u64 = arg_value(&args, "--seed")
        .map(|v| v.parse().expect("--seed takes a number"))
        .unwrap_or(1);
    let out = PathBuf::from(
        arg_value(&args, "--out")
            .unwrap_or_else(|| "target/model-check/reproducer.json".to_string()),
    );

    if let Some(path) = arg_value(&args, "--replay") {
        let parsed = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| Reproducer::from_json(&text));
        let repro = match parsed {
            Ok(repro) => repro,
            Err(e) => {
                eprintln!("cannot replay {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprintln!("replaying {path}: {:?}", repro.scenario);
        if repro.replay() {
            eprintln!("reproduced: invariants {:?} still fail", repro.invariants);
            return ExitCode::SUCCESS;
        }
        eprintln!("NOT reproduced — the artifact no longer fails");
        return ExitCode::FAILURE;
    }

    if args.iter().any(|a| a == "--hostile") {
        eprintln!("hunting in the hostile (over-bound) scenario space, seed {seed}...");
        let cfg = CheckConfig::new(0, seed).space(ScenarioSpace::hostile());
        let report = checker::run_until_failure(&cfg, 64, executions.max(64));
        let Some(failure) = report.failures.first() else {
            eprintln!("no failure found — unexpected for the hostile space");
            return ExitCode::FAILURE;
        };
        eprintln!(
            "failure at execution {}: {:?} violates {:?} — shrinking...",
            failure.index,
            failure.scenario,
            failure.verdict.failure_signature()
        );
        let result = shrink(&failure.scenario);
        eprintln!(
            "shrunk after {} candidate runs ({} rounds): {:?}",
            result.candidates_tried, result.rounds, result.minimal
        );
        let repro = Reproducer {
            scenario: result.minimal,
            invariants: result.violated.iter().map(|s| s.to_string()).collect(),
        };
        print!("{}", repro.to_json());
        write_reproducer(&out, &repro);
        return ExitCode::SUCCESS;
    }

    eprintln!("exploring {executions} model-compliant schedules, seed {seed}...");
    let report = checker::run(&CheckConfig::new(executions, seed));
    eprintln!("{}", report.summary());
    if report.all_passed() {
        return ExitCode::SUCCESS;
    }
    // A violation inside the model is a real bug: shrink and persist it.
    let failure = &report.failures[0];
    eprintln!(
        "BUG: execution {} violates {:?}: {:?}",
        failure.index,
        failure.verdict.failure_signature(),
        failure.scenario
    );
    let result = shrink(&failure.scenario);
    let repro = Reproducer {
        scenario: result.minimal,
        invariants: result.violated.iter().map(|s| s.to_string()).collect(),
    };
    print!("{}", repro.to_json());
    write_reproducer(&out, &repro);
    ExitCode::FAILURE
}
