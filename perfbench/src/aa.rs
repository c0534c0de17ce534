//! A/A spread report: run one workload repeatedly, each run a fresh child
//! process with its own seed, and print every end-to-end metric's median,
//! quartiles and range against the bound `BENCHMARK.json` gives it.
//!
//! A metric is steady when its quartile spread is under a third of its
//! bound. With `--sets 2` a second set of runs follows, with its own
//! spread, and its median is compared with the first set's, the check a
//! later change is held to.

use std::process::Command;

use serde::Value;

/// Quartiles as Python's `statistics.quantiles(values, n=4)` (the default
/// exclusive method) computes them.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len() as i64;
    if ld < 2 {
        let v = data.first().copied().unwrap_or(f64::NAN);
        return (v, v, v);
    }
    let m = ld + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        let (a, b) = (data[j as usize - 1], data[j as usize]);
        (a * (4.0 - delta) + b * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// (name, bound, better) for every end-to-end metric in `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64, String)>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let json: Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let metrics = json
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let field = |m: &Value, k: &str| match m.get(k) {
        Some(Value::Str(s)) => s.clone(),
        _ => String::new(),
    };
    Ok(metrics
        .iter()
        .map(|m| {
            let bound = match m.get("bound") {
                Some(Value::Float(f)) => *f,
                Some(Value::Int(i)) => *i as f64,
                Some(Value::UInt(u)) => *u as f64,
                _ => f64::NAN,
            };
            (field(m, "name"), bound, field(m, "better"))
        })
        .collect())
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

/// One child run; returns its metric values by name.
fn child(workload: &str, seed: u64, seconds: f64) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() {
        return Err(format!(
            "seed {seed}: exit {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let json: Value = serde_json::from_str(last).map_err(|e| format!("seed {seed}: {e}"))?;
    if json.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("seed {seed}: outputs were not correct: {last}"));
    }
    let metrics = json
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result has no metrics")?;
    Ok(metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), number(v.get("value"))?)))
        .collect())
}

pub fn run(
    workload: &str,
    runs: usize,
    sets: usize,
    seed0: u64,
    seconds: f64,
) -> Result<(), String> {
    let bounds = bounds()?;
    let mut per_set: Vec<Vec<Vec<(String, f64)>>> = Vec::new();
    for set in 0..sets.max(1) {
        let mut results = Vec::new();
        for i in 0..runs {
            let seed = seed0 + (set * runs + i) as u64;
            let r = child(workload, seed, seconds)?;
            eprintln!("{workload} seed {seed}: {r:?}");
            results.push(r);
        }
        per_set.push(results);
    }
    let values = |set: &[Vec<(String, f64)>], name: &str| -> Vec<f64> {
        set.iter()
            .filter_map(|r| r.iter().find(|(k, _)| k == name).map(|&(_, v)| v))
            .collect()
    };
    println!(
        "{workload}: {runs} runs x {} set(s) of {seconds} s",
        per_set.len()
    );
    println!(
        "{:<24} {:>3} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "metric", "set", "median", "q1", "q3", "min", "max", "spread", "bound"
    );
    for (name, bound, better) in &bounds {
        let mut first_median = f64::NAN;
        for (i, set) in per_set.iter().enumerate() {
            let v = values(set, name);
            let (q1, med, q3) = quartiles(&v);
            let spread = (q3 - q1) / med;
            let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mut verdict = if name == "setup_s" {
                "spread not bounded"
            } else if spread < bound / 3.0 {
                "steady"
            } else if spread <= *bound {
                "within bound, not steady"
            } else {
                "TOO NOISY"
            }
            .to_string();
            if i == 0 {
                first_median = med;
            } else {
                let worse = if better == "higher" {
                    (first_median - med) / first_median
                } else {
                    (med - first_median) / first_median
                };
                let ok = if worse <= *bound {
                    "ok"
                } else {
                    "WORSE THAN BOUND"
                };
                verdict += &format!("; median worse than set 1 by {worse:.4}: {ok}");
            }
            println!(
                "{name:<24} {:>3} {med:>12.4} {q1:>12.4} {q3:>12.4} {lo:>12.4} {hi:>12.4} {spread:>8.4} {bound:>6.3}  {verdict}",
                i + 1
            );
        }
    }
    earlier_design_note(&bounds);
    Ok(())
}

/// What this report's rule says about the metrics of an earlier design of
/// this benchmark, from the ranges measured on it (2-CPU virtual machine):
/// sub-second iterations, three proportional rates per loop, and a p90
/// over a two-mode latency mix.
fn earlier_design_note(bounds: &[(String, f64, String)]) {
    let bound = |name: &str| {
        bounds
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(f64::NAN, |b| b.1)
    };
    // (metric, workload, low, high, what it measured)
    let earlier = [
        (
            "minsts_per_s",
            "sim_full",
            14.2,
            17.9,
            "one 32-cell grid iteration, 1 thread",
        ),
        (
            "minsts_per_s",
            "sim_full",
            23.9,
            34.9,
            "one 32-cell grid iteration, 2 threads",
        ),
        (
            "latency_p90_ms",
            "serve_storm",
            19.7,
            291.0,
            "p50 vs p90 of a two-mode latency mix",
        ),
    ];
    println!("earlier design under this rule (range / midpoint against bound / 3):");
    for (metric, workload, lo, hi, what) in earlier {
        let spread = (hi - lo) / ((hi + lo) / 2.0);
        let b = bound(metric);
        let flag = if spread >= b / 3.0 {
            "flagged"
        } else {
            "passes"
        };
        println!(
            "  {workload}/{metric} ({what}): {lo}..{hi}, spread {spread:.3} vs {:.3}: {flag}",
            b / 3.0
        );
    }
    println!("  serve_storm/setup_s was 0.0008 s, below timer noise: flagged (set-up must cover real work)");
}
