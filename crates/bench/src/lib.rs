//! # mim-bench — experiment harness
//!
//! One binary per table/figure of the ISPASS 2012 paper:
//!
//! | binary | reproduces |
//! |---|---|
//! | `table2` | the architecture design space (Table 2) |
//! | `fig3_validation` | model vs detailed simulation, MiBench, default machine |
//! | `fig4_width_stacks` | CPI stacks vs superscalar width |
//! | `fig5_design_space` | error CDF over the 192-point space + speedup |
//! | `fig6_spec` | validation on memory-intensive SPEC-like workloads |
//! | `fig7_inorder_vs_ooo` | in-order vs out-of-order CPI stacks |
//! | `fig8_compiler_opts` | normalized cycle stacks across compiler options |
//! | `fig9_edp` | EDP design-space exploration, model vs simulation |
//! | `fig10_pareto` | Pareto-frontier exploration with the hybrid model→sim workflow (extension of §5–6, built on `mim-explore`) |
//!
//! Every binary is built on the [`mim_runner`] evaluation API: an
//! [`Experiment`](mim_runner::Experiment) declares the (workload ×
//! design-point × evaluator) grid, and the binary post-processes the
//! resulting [`ExperimentReport`](mim_runner::ExperimentReport) into the
//! table/series the paper reports, writing a JSON record under the
//! results directory.
//!
//! Four gated programs measure the repo's speed claims and assert a floor
//! on each: the `trace_replay`, `select_speedup` and `serve_throughput`
//! benches (`cargo bench -p mim-bench --bench <name>`, each a plain
//! `fn main()`) and the `sampling_accuracy` binary. Each writes its
//! numbers through [`write_bench_record`] to a `BENCH_<name>.json` at the
//! workspace root. Per-layer timings live in the `perfbench` package.

#![forbid(unsafe_code)]

pub mod cli;
pub mod figures;

use std::fs;
use std::io;
use std::path::PathBuf;

use serde::Serialize;

/// Instruction budget per workload for design-space sweeps, keeping the
/// 192-point × 19-benchmark detailed-simulation reference tractable.
pub const SWEEP_LIMIT: u64 = 400_000;

/// Where experiment outputs are written: `$MIM_RESULTS_DIR` when set,
/// otherwise `results/` at the workspace root.
pub fn results_dir() -> PathBuf {
    match std::env::var_os("MIM_RESULTS_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results"),
    }
}

/// Serializes `value` as pretty JSON into `<results_dir>/<name>.json` and
/// returns the written path.
///
/// # Errors
///
/// Propagates I/O errors from creating the directory or writing the file.
pub fn write_json<T: Serialize + ?Sized>(name: &str, value: &T) -> io::Result<PathBuf> {
    let dir = results_dir();
    fs::create_dir_all(&dir)?;
    write_pretty(dir.join(format!("{name}.json")), value)
}

/// Serializes a gated program's `record` as pretty JSON into
/// `BENCH_<name>.json` at the workspace root, where the repo tracks its
/// perf trajectory, and returns the written path.
///
/// # Errors
///
/// Propagates I/O errors from writing the file.
pub fn write_bench_record<T: Serialize + ?Sized>(name: &str, record: &T) -> io::Result<PathBuf> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    write_pretty(root.join(format!("BENCH_{name}.json")), record)
}

fn write_pretty<T: Serialize + ?Sized>(path: PathBuf, value: &T) -> io::Result<PathBuf> {
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    fs::write(&path, json)?;
    eprintln!("[wrote {}]", path.display());
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test covers the default path, the env override, and the error
    /// path — `MIM_RESULTS_DIR` is process-global state, so splitting
    /// these into separate `#[test]`s would race under the parallel test
    /// harness.
    #[test]
    fn results_dir_override_and_write_json_error_paths() {
        struct RestoreEnv;
        impl Drop for RestoreEnv {
            fn drop(&mut self) {
                std::env::remove_var("MIM_RESULTS_DIR");
            }
        }
        let _restore = RestoreEnv;

        // Default: the workspace-root results directory.
        std::env::remove_var("MIM_RESULTS_DIR");
        assert!(results_dir().ends_with("../../results"));
        // Empty override falls back to the default.
        std::env::set_var("MIM_RESULTS_DIR", "");
        assert!(results_dir().ends_with("../../results"));

        // Override redirects writes.
        let dir = std::env::temp_dir().join(format!("mim-bench-test-{}", std::process::id()));
        std::env::set_var("MIM_RESULTS_DIR", &dir);
        assert_eq!(results_dir(), dir);
        let path = write_json("unit_test", &vec![1u32, 2, 3]).expect("write");
        let text = fs::read_to_string(&path).expect("read back");
        assert!(text.contains('1'));
        fs::remove_dir_all(&dir).ok();

        // I/O failures surface as Err, not panics.
        std::env::set_var("MIM_RESULTS_DIR", "/proc/definitely-not-writable");
        assert!(write_json("unit_test", &vec![1u32]).is_err());
    }
}
