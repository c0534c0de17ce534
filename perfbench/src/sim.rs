//! `sim_validate`: the cycle-level simulator the model is validated
//! against. Full and sampled simulation of every kernel on every 24th
//! Table-2 point, over a persistent store whose traces are recorded
//! during set-up, so sampled cells stream their traces from disk.

use mim_core::{DesignPoint, DesignSpace};
use mim_runner::{
    EvalResult, Evaluator, SampledSimEvaluator, SimEvaluator, WorkloadSpec, WorkloadStore,
};
use mim_workloads::{Workload, WorkloadSize};

use crate::spans::span;
use crate::window::{check, run_ns, run_since, shuffled, ScratchDir, Work};

/// Every `POINT_STRIDE`-th Table-2 point is simulated.
pub const POINT_STRIDE: usize = 24;

pub struct SimValidate {
    specs: Vec<WorkloadSpec>,
    size: WorkloadSize,
    space: DesignSpace,
    points: Vec<DesignPoint>,
    store: WorkloadStore,
    /// Reference output per entry of `points`.
    references: Vec<String>,
    /// Mean |sampled − full| / full CPI over the grid, in percent.
    pub sampled_cpi_error_pct: f64,
    /// Exact simulated counts summed over the grid: cycles, L1D misses,
    /// L2 misses, branch mispredicts.
    pub counts: [u64; 4],
    // Declared last: the store's files go after the store is dropped.
    _dir: ScratchDir,
}

impl SimValidate {
    /// Records every kernel's trace into a fresh persistent store and runs
    /// the grid once to make the references.
    pub fn setup(
        kernels: &[Workload],
        size: WorkloadSize,
        seed: u64,
    ) -> Result<SimValidate, String> {
        let dir = ScratchDir::new("store");
        let store = WorkloadStore::persistent(&dir.0).map_err(|e| e.to_string())?;
        let specs: Vec<WorkloadSpec> = kernels.iter().cloned().map(WorkloadSpec::from).collect();
        for spec in &specs {
            let mut s = span("workloads.generate");
            store.program(spec, size);
            s.work(1);
            store.trace(spec, size, None).map_err(|e| e.to_string())?;
        }
        let space = DesignSpace::paper_table2();
        let points = shuffled(space.points().step_by(POINT_STRIDE).collect(), seed);
        let mut sim = SimValidate {
            specs,
            size,
            space,
            points,
            store,
            references: Vec::new(),
            sampled_cpi_error_pct: 0.0,
            counts: [0; 4],
            _dir: dir,
        };
        let mut errors = Vec::new();
        for i in 0..sim.points.len() {
            let (rows, json, _) = sim.validate(i)?;
            for pair in rows.chunks(2) {
                let (full, sampled) = (&pair[0], &pair[1]);
                errors.push(100.0 * (sampled.cpi - full.cpi).abs() / full.cpi);
                let misses = full.misses.expect("simulator reports misses");
                sim.counts[0] += full.cycles as u64;
                sim.counts[1] += misses.l1d_misses;
                sim.counts[2] += misses.l2d_misses + misses.l2i_misses;
                sim.counts[3] += full.branch.expect("simulator reports branches").mispredicts;
            }
            sim.references.push(json);
        }
        sim.sampled_cpi_error_pct = errors.iter().sum::<f64>() / errors.len() as f64;
        Ok(sim)
    }

    /// Full and sampled simulation of every kernel on point `i`.
    fn validate(&self, i: usize) -> Result<(Vec<EvalResult>, String, Work), String> {
        let started = run_ns();
        let point = &self.points[i];
        let mut rows = Vec::with_capacity(2 * self.specs.len());
        for spec in &self.specs {
            let full = {
                let mut s = span("pipeline.full");
                let r = SimEvaluator::for_point(&self.space, point)
                    .with_cache(self.store.clone())
                    .evaluate(spec, self.size)
                    .map_err(|e| e.to_string())?;
                s.work(r.instructions);
                r
            };
            let sampled = {
                let mut s = span("pipeline.sampled");
                let r = SampledSimEvaluator::for_point(&self.space, point)
                    .with_cache(self.store.clone())
                    .evaluate(spec, self.size)
                    .map_err(|e| e.to_string())?;
                s.work(r.instructions);
                r
            };
            rows.push(full);
            rows.push(sampled);
        }
        let latency = run_since(started);
        let json = {
            let mut s = span("json.encode");
            let json = serde_json::to_string(&rows).map_err(|e| e.to_string())?;
            s.work(json.len() as u64);
            json
        };
        let work = Work {
            cells: rows.len() as u64,
            insts: rows.iter().map(|r| r.instructions).sum(),
            latency,
        };
        Ok((rows, json, work))
    }

    /// One timed operation: validate the `n`-th point of the seeded order.
    pub fn op(&self, n: u64) -> Result<Work, String> {
        let i = n as usize % self.points.len();
        let (_, json, work) = self.validate(i)?;
        check("sim_validate cells", &json, &self.references[i])?;
        Ok(work)
    }

    pub fn store(&self) -> &WorkloadStore {
        &self.store
    }

    /// The last output, for the decode probe.
    pub fn output(&self) -> &str {
        &self.references[0]
    }
}
