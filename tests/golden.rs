//! Golden snapshot tests: the `--quick` JSON outputs of the
//! `fig3_validation`, `fig9_edp`, and `table2` binaries, and a small
//! model-and-energy `ExperimentReport` in compact and pretty form, are
//! checked in under `tests/golden/` and must regenerate
//! **byte-identically**.
//!
//! Tolerance-band assertions catch gross regressions; these snapshots
//! catch *silent numeric drift* — a profiler counting one extra event, a
//! model term changing in the 6th decimal — the moment it happens. When a
//! change is intentional, regenerate the snapshots with
//! `UPDATE_GOLDEN=1 cargo test --test golden` and review the JSON diff
//! like any other code change.

use mim::core::DesignSpace;
use mim::runner::{EvalKind, Experiment};
use mim::workloads::{mibench, WorkloadSize};
use mim_bench::figures;

fn check(name: &str, golden: &str, actual: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = format!("{}/tests/golden/{name}.json", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, actual).expect("write golden");
        eprintln!("[updated {path}]");
        return;
    }
    assert!(
        golden == actual,
        "golden snapshot `{name}` drifted.\n\
         If the change is intentional, run `UPDATE_GOLDEN=1 cargo test --test golden`\n\
         and commit the refreshed snapshot.\n\
         --- golden (first 400 chars) ---\n{}\n\
         --- actual (first 400 chars) ---\n{}",
        &golden[..golden.len().min(400)],
        &actual[..actual.len().min(400)],
    );
}

#[test]
fn fig3_validation_quick_json_is_byte_stable() {
    let rows = figures::fig3_rows(true);
    let actual = serde_json::to_string_pretty(&rows).expect("serialize");
    check(
        "fig3_validation",
        include_str!("golden/fig3_validation.json"),
        &actual,
    );
}

#[test]
fn fig9_edp_quick_json_is_byte_stable() {
    let results = figures::fig9_results(true, false);
    let actual = serde_json::to_string_pretty(&results).expect("serialize");
    check("fig9_edp", include_str!("golden/fig9_edp.json"), &actual);
}

#[test]
fn table2_design_points_json_is_byte_stable() {
    let ids = figures::table2_design_point_ids();
    let actual = serde_json::to_string_pretty(&ids).expect("serialize");
    check(
        "table2_design_points",
        include_str!("golden/table2_design_points.json"),
        &actual,
    );
}

#[test]
fn experiment_report_json_is_byte_stable() {
    // The dse_sweep shape in miniature: model and energy over a few
    // Table-2 points for two kernels.
    let report = Experiment::new()
        .title("golden")
        .workloads([mibench::sha(), mibench::crc32()])
        .size(WorkloadSize::Tiny)
        .design_space(DesignSpace::paper_table2())
        .stride(47)
        .evaluators([EvalKind::Model])
        .energy(true)
        .run()
        .expect("experiment");
    assert_eq!(report.rows.len(), 10);
    check(
        "experiment_report",
        include_str!("golden/experiment_report.json"),
        &report.to_json(),
    );
    check(
        "experiment_report_compact",
        include_str!("golden/experiment_report_compact.json"),
        &serde_json::to_string(&report).expect("serialize"),
    );
}
