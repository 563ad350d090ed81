//! End-to-end check of the ledger's contract at smoke sizes: every
//! workload runs, and each result line carries exactly the metric names
//! `BENCHMARK.json` declares — once, finite, with the declared unit.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use json::Value;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of `BENCHMARK.json`'s `section`.
fn declared(doc: &Value, section: &str) -> Vec<(String, String)> {
    doc.get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
        .iter()
        .map(|entry| {
            let field = |key| {
                entry
                    .get(key)
                    .and_then(Value::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn run_smoke(workload: &str, trace: bool) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_tobsvd-perf"))
        .args(["--workload", workload, "--smoke", "--seed", "5"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("bench binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let line = stdout.lines().last().expect("a result line");
    json::parse(line)
        .unwrap_or_else(|e| panic!("{workload}: result line is not JSON ({e}): {line}"))
}

// One test, run serially: the TCP workload is tick-paced and must not
// share two cores with four simulators.
#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let doc = benchmark_json();
    let workloads = declared_workloads(&doc);
    assert_eq!(workloads.len(), 5);
    for trace in [false, true] {
        let expected = declared(&doc, if trace { "per_layer" } else { "end_to_end" });
        for workload in &workloads {
            let result = run_smoke(workload, trace);
            let keys: Vec<&str> = result
                .as_object()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{workload}"
            );
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            let attempted = result
                .get("attempted")
                .and_then(Value::as_f64)
                .expect("attempted");
            let failed = result
                .get("failed")
                .and_then(Value::as_f64)
                .expect("failed");
            assert!(
                attempted >= 1.0 && attempted.fract() == 0.0,
                "{workload}: attempted {attempted}"
            );
            assert!((0.0..=attempted).contains(&failed) && failed.fract() == 0.0);

            let metrics = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics object");
            let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let unique: BTreeSet<&str> = emitted.iter().copied().collect();
            assert_eq!(
                unique.len(),
                emitted.len(),
                "{workload}: a metric name repeats"
            );
            let wanted: BTreeSet<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(
                unique, wanted,
                "{workload} trace={trace}: emitted names ≠ declared names"
            );
            for (name, unit) in &expected {
                assert!(valid_name(name), "bad metric name {name:?}");
                let entry = result
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .expect("present");
                let value = entry
                    .get("value")
                    .and_then(Value::as_f64)
                    .expect("numeric value");
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                assert_eq!(
                    entry.get("unit").and_then(Value::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
            }
        }
    }
    let trace_file = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/trace-sim_churn.json");
    let trace = std::fs::read_to_string(&trace_file).expect("the traced run wrote its spans");
    let trace = json::parse(&trace).expect("trace file is JSON");
    assert_eq!(
        trace
            .get("spans")
            .and_then(Value::as_array)
            .map(<[Value]>::len),
        Some(3)
    );
}

fn declared_workloads(doc: &Value) -> Vec<String> {
    doc.get("workloads")
        .and_then(Value::as_array)
        .expect("workloads list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn unknown_arguments_are_refused_without_a_result_line() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--bogus"],
        &["--seconds", "0"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_tobsvd-perf"))
            .args(args)
            .output()
            .expect("runs");
        assert!(!output.status.success(), "{args:?} must fail");
        assert!(output.stdout.is_empty(), "{args:?} must not print a result");
    }
}
