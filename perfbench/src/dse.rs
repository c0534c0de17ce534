//! `dse_sweep`: the paper's use case. Profile each kernel once, score all
//! 192 Table-2 design points with the mechanistic model and its energy
//! model, and encode the report.

use mim_core::DesignSpace;
use mim_runner::{EvalKind, Experiment, WorkloadSpec, WorkloadStore};
use mim_workloads::{Workload, WorkloadSize};

use crate::spans::span;
use crate::window::{check, run_ns, run_since, Work};

pub struct Dse {
    specs: Vec<WorkloadSpec>,
    size: WorkloadSize,
    space: DesignSpace,
    reference: String,
    /// Functional executions summed over every sweep's fresh store.
    pub executions: std::sync::atomic::AtomicU64,
}

impl Dse {
    /// Makes the reference report with one cold sweep.
    pub fn setup(kernels: &[Workload], size: WorkloadSize) -> Result<Dse, String> {
        let mut dse = Dse {
            specs: kernels.iter().cloned().map(WorkloadSpec::from).collect(),
            size,
            space: DesignSpace::paper_table2(),
            reference: String::new(),
            executions: Default::default(),
        };
        dse.reference = dse.sweep()?.0;
        Ok(dse)
    }

    /// One sweep on a fresh store: generate, profile, model grid, encode.
    fn sweep(&self) -> Result<(String, Work), String> {
        let started = run_ns();
        let store = WorkloadStore::new();
        for spec in &self.specs {
            let mut s = span("workloads.generate");
            store.program(spec, self.size);
            s.work(1);
        }
        let hierarchy = &self.space.base().hierarchy;
        let (l2s, predictors) = (self.space.l2_configs(), self.space.predictor_configs());
        for spec in &self.specs {
            let mut s = span("profile.sweep");
            let profile = store
                .profile(spec, self.size, None, hierarchy, l2s, predictors)
                .map_err(|e| e.to_string())?;
            s.work(profile.num_insts);
        }
        let report = {
            let mut s = span("runner.grid");
            let report = Experiment::new()
                .title("dse_sweep")
                .workloads(self.specs.iter().cloned())
                .size(self.size)
                .design_space(self.space.clone())
                .evaluators([EvalKind::Model])
                .energy(true)
                .threads(1)
                .with_cache(store.clone())
                .run()
                .map_err(|e| e.to_string())?;
            s.work(report.rows.len() as u64);
            report
        };
        let json = {
            let mut s = span("json.encode");
            let json = report.to_json();
            s.work(json.len() as u64);
            json
        };
        let work = Work {
            cells: report.rows.len() as u64,
            insts: report.rows.iter().map(|r| r.instructions).sum(),
            latency: run_since(started),
        };
        self.executions.fetch_add(
            store.functional_executions(),
            std::sync::atomic::Ordering::Relaxed,
        );
        Ok((json, work))
    }

    /// One timed operation: a sweep whose report must match the reference.
    pub fn op(&self) -> Result<Work, String> {
        let (json, work) = self.sweep()?;
        check("dse_sweep report", &json, &self.reference)?;
        Ok(work)
    }

    /// The last output, for the decode probe.
    pub fn output(&self) -> &str {
        &self.reference
    }
}
