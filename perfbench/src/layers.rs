//! Per-layer probes and metrics for the traced run.
//!
//! Every per-layer metric is read from spans named after it. Layers the
//! workload's own operations call get their spans from the timed window;
//! the probes below time the remaining layers' public calls on the
//! workload's own kernels after the window has closed.

use std::collections::BTreeMap;
use std::hint::black_box;

use mim_core::{DesignSpace, MechanisticModel};
use mim_isa::BlockEngine;
use mim_power::{Activity, EnergyModel};
use mim_profile::SweepProfiler;
use mim_runner::DiskStore;
use mim_trace::{Trace, TraceSource};
use mim_workloads::{Workload, WorkloadSize};
use serde::Value;

use crate::spans::{span, Record};
use crate::window::{median, ScratchDir};

/// Times the layers no workload operation calls directly: functional
/// execution, trace record/replay/stream, model and energy evaluation,
/// and JSON decoding of the workload's own outputs. Returns the trace
/// sizes, which are counts rather than spans.
pub fn probe(
    kernels: &[Workload],
    size: WorkloadSize,
    outputs: &[String],
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut counts = BTreeMap::new();
    let programs: Vec<_> = kernels.iter().map(|k| k.program(size)).collect();
    let dir = ScratchDir::new("probe");
    let disk = DiskStore::open(&dir.0).map_err(|e| e.to_string())?;
    let (mut in_memory, mut encoded) = (0u64, 0u64);
    // Three passes, so one slow moment of the shared machine moves the
    // rates less; the sizes are counted on the first.
    for pass in 0..3 {
        for program in &programs {
            {
                let mut s = span("isa.exec");
                let outcome = BlockEngine::new(program)
                    .run(None)
                    .map_err(|e| e.to_string())?;
                s.work(outcome.instructions());
            }
            let trace = {
                let mut s = span("trace.record");
                let trace = Trace::record(program, None).map_err(|e| e.to_string())?;
                s.work(trace.len());
                trace
            };
            if pass == 0 {
                in_memory += trace.encoded_bytes() as u64;
                encoded += trace.to_bytes().len() as u64;
            }
            {
                let mut s = span("trace.replay");
                let mut events = 0u64;
                let mut replay = trace.replay(program).map_err(|e| e.to_string())?;
                replay
                    .drive(&mut |ev| {
                        black_box(ev);
                        events += 1;
                    })
                    .map_err(|e| e.to_string())?;
                s.work(events);
            }
            disk.put_trace(program, None, &trace)
                .map_err(|e| e.to_string())?;
            {
                let mut s = span("trace.stream");
                let mut events = 0u64;
                let mut stream = disk
                    .stream_trace(program, None)
                    .map_err(|e| e.to_string())?
                    .ok_or("trace missing from the disk store")?;
                stream
                    .drive(&mut |ev| {
                        black_box(ev);
                        events += 1;
                    })
                    .map_err(|e| e.to_string())?;
                s.work(events);
            }
        }
    }
    counts.insert("trace.in_memory_bytes", in_memory as f64);
    counts.insert("trace.encoded_bytes", encoded as f64);

    // Model and energy per design point, over all 192 points of every
    // kernel, on inputs from one profiling pass per kernel.
    let space = DesignSpace::paper_table2();
    let profiler = SweepProfiler::for_design_space(&space);
    let points: Vec<_> = space.points().collect();
    let mut cells = Vec::new();
    for program in &programs {
        let profile = profiler.profile(program, None).map_err(|e| e.to_string())?;
        for point in &points {
            cells.push((
                MechanisticModel::new(&point.machine),
                EnergyModel::new(&point.machine),
                profile.inputs_for(point.l2_index, point.predictor_index),
            ));
        }
    }
    const REPEATS: usize = 10;
    let mut cycles = vec![0.0; cells.len()];
    {
        let mut s = span("core.model");
        for _ in 0..REPEATS {
            for (cell, out) in cells.iter().zip(cycles.iter_mut()) {
                *out = black_box(cell.0.predict(black_box(&cell.2))).total_cycles();
            }
        }
        s.work((REPEATS * cells.len()) as u64);
    }
    {
        let mut s = span("power.energy");
        for _ in 0..REPEATS {
            for (cell, &c) in cells.iter().zip(&cycles) {
                black_box(
                    cell.1
                        .evaluate(&Activity::from_model(black_box(&cell.2), c)),
                );
            }
        }
        s.work((REPEATS * cells.len()) as u64);
    }

    for text in outputs {
        let mut s = span("json.decode");
        let value: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        black_box(value);
        s.work(text.len() as u64);
    }
    Ok(counts)
}

/// Metric reading helpers over the recorded spans.
pub struct Spans<'a>(pub &'a [Record]);

impl Spans<'_> {
    fn named<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'s Record> + 's {
        self.0.iter().filter(move |r| r.name == name)
    }

    /// Work per nanosecond over every span named `name`.
    pub fn rate(&self, name: &str) -> f64 {
        let (work, ns) = self
            .named(name)
            .fold((0u64, 0u64), |(w, n), r| (w + r.work, n + r.ns()));
        work as f64 / ns.max(1) as f64
    }

    /// Median duration in ms of single spans named `name`.
    pub fn p50_ms(&self, name: &str) -> f64 {
        let ms: Vec<f64> = self.named(name).map(|r| r.ns() as f64 * 1e-6).collect();
        median(&ms)
    }

    /// Median over root spans of the summed duration, in ms, of the spans
    /// named in `names` under each root — the cost of one request's (or
    /// one set-up's) calls into a layer.
    pub fn per_root_ms(&self, names: &[&str]) -> f64 {
        let mut by_root: BTreeMap<u64, u64> = BTreeMap::new();
        for r in self.0.iter().filter(|r| names.contains(&r.name)) {
            *by_root.entry(r.root).or_default() += r.ns();
        }
        let ms: Vec<f64> = by_root.values().map(|&ns| ns as f64 * 1e-6).collect();
        median(&ms)
    }

    pub fn has(&self, name: &str) -> bool {
        self.named(name).next().is_some()
    }
}
