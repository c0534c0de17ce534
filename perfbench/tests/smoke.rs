//! Self-test: short runs of every workload check the result contract,
//! the traced run's attribution, and that a wrong output is counted.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use serde::Value;

const BIN: &str = env!("CARGO_BIN_EXE_perfbench");
const WORKLOADS: [&str; 3] = ["dse_sweep", "sim_validate", "serve_storm"];

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

/// (name, unit) of every metric in the given `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let json = benchmark_json();
    let field = |m: &Value, k: &str| match m.get(k) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("metric field {k} is {other:?}"),
    };
    json.get(list)
        .and_then(Value::as_array)
        .expect("metric list present")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// Runs the benchmark and returns (exit success, last stdout line).
fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let last = stdout.lines().last().unwrap_or("").to_string();
    (out.status.success(), last)
}

fn count(v: Option<&Value>) -> u64 {
    match v {
        Some(Value::UInt(n)) => *n,
        Some(Value::Int(n)) => u64::try_from(*n).expect("count is not negative"),
        other => panic!("expected a whole number, got {other:?}"),
    }
}

/// Checks the result line against the contract and returns it parsed.
fn check_result(line: &str, list: &str, workload: &str) -> Value {
    let result: Value = serde_json::from_str(line).expect("last line is JSON");
    let keys: Vec<&str> = result
        .as_object()
        .expect("result is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(count(result.get("attempted")) >= 1);
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object");
    let declared = declared(list);
    assert_eq!(
        metrics.len(),
        declared.len(),
        "{workload}: every {list} metric printed once"
    );
    for (name, unit) in &declared {
        let printed: Vec<_> = metrics.iter().filter(|(k, _)| k == name).collect();
        assert_eq!(printed.len(), 1, "{workload}: {name} printed once");
        let m = &printed[0].1;
        assert_eq!(
            m.get("unit"),
            Some(&Value::Str(unit.clone())),
            "{workload}: {name} unit"
        );
        assert!(
            matches!(
                m.get("value"),
                Some(Value::Float(_) | Value::Int(_) | Value::UInt(_))
            ),
            "{workload}: {name} has a numeric value"
        );
    }
    result
}

fn value(result: &Value, name: &str) -> f64 {
    match result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
    {
        Some(Value::Float(f)) => *f,
        Some(Value::Int(i)) => *i as f64,
        Some(Value::UInt(u)) => *u as f64,
        other => panic!("{name}: {other:?}"),
    }
}

#[test]
fn every_end_to_end_metric_is_printed_with_its_unit() {
    for (i, workload) in WORKLOADS.iter().enumerate() {
        let seed = (11 + i).to_string();
        let (ok, line) = run(&[
            "--workload",
            workload,
            "--seed",
            &seed,
            "--seconds",
            "1",
            "--trace",
            "0",
        ]);
        assert!(ok, "{workload} exits 0");
        let result = check_result(&line, "end_to_end", workload);
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(
            count(result.get("failed")),
            0,
            "{workload}: no failed operations"
        );
    }
}

#[test]
fn traced_run_prints_every_layer_and_attributes_all_its_time() {
    for (i, workload) in WORKLOADS.iter().enumerate() {
        let seed = 21 + i as u64;
        let (ok, line) = run(&[
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
            "--trace",
            "1",
        ]);
        assert!(ok, "{workload} traced run exits 0");
        let result = check_result(&line, "per_layer", workload);
        let path = format!(
            "{}/out/spans-{workload}-seed{seed}.json",
            env!("CARGO_MANIFEST_DIR")
        );
        let spans: Value = serde_json::from_str(
            &std::fs::read_to_string(&path).expect("traced run writes its spans"),
        )
        .expect("span file parses");
        let total = count(spans.get("time_ns"));
        let unattributed = count(spans.get("unattributed_ns"));
        let rows: u64 = spans
            .get("rows")
            .and_then(Value::as_object)
            .expect("attribution rows")
            .iter()
            .map(|(_, v)| count(Some(v)))
            .sum();
        assert!(total > 0, "{workload}: traced requests were recorded");
        assert_eq!(
            rows + unattributed,
            total,
            "{workload}: rows + unattributed = traced time"
        );
        let pct = 100.0 * unattributed as f64 / total as f64;
        assert!((value(&result, "unattributed_pct") - pct).abs() < 1e-9);
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn a_corrupted_output_counts_as_one_failed_operation() {
    for (i, workload) in WORKLOADS.iter().enumerate() {
        let seed = (31 + i).to_string();
        let (ok, line) = run(&[
            "--workload",
            workload,
            "--seed",
            &seed,
            "--seconds",
            "1",
            "--trace",
            "0",
            "--corrupt-one",
        ]);
        assert!(ok, "{workload} exits 0 and reports the failure");
        let result = check_result(&line, "end_to_end", workload);
        assert_eq!(
            count(result.get("failed")),
            1,
            "{workload}: one failed operation"
        );
        assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--seed"][..], &[][..]] {
        let (ok, line) = run(args);
        assert!(!ok, "{args:?} fails");
        assert!(line.is_empty(), "{args:?} prints no result");
    }
}
