//! The timing model.
//!
//! Implemented as a single in-order pass over the dynamic instruction
//! stream that propagates timing constraints (fetch cycle, execute-entry
//! cycle, memory-stage occupancy, operand availability). For an in-order
//! pipeline this is cycle-exact and much faster than a stage-by-stage
//! simulator, because every instruction's stage timings follow from a
//! handful of max-constraints over its predecessors.

use mim_bpred::{BranchPredictor, BranchStats};
use mim_cache::{BlockFetches, Hierarchy, MemAccessKind, MemLevel, MissCounts};
use mim_core::{CpiTimeline, MachineConfig, StackComponent};
use mim_isa::{Block, BlockHooks, InstClass, Program, TraceEvent, VmError, NUM_REGS};
use mim_trace::{LiveVm, PhaseRuns, SamplePhase, Sampling, TraceError, TraceSource};

/// Statistics of a sampled simulation run ([`PipelineSim::simulate_source`]
/// over a source with a sampling plan): the per-unit CPI population behind
/// the scaled point estimate, summarized as a CLT 95% confidence interval.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledStats {
    /// Detailed sample units measured.
    pub units: u64,
    /// Instructions simulated in detail (inside sample windows).
    pub measured_instructions: u64,
    /// Cycles charged to measured instructions.
    pub measured_cycles: u64,
    /// The CPI point estimate: mean of per-unit CPIs (the SMARTS
    /// estimator). [`SimResult::cycles`] is this scaled by the full
    /// walked stream length.
    pub cpi: f64,
    /// Half-width ε of the 95% confidence interval on [`cpi`]
    /// (`±1.96·s/√n` over per-unit CPIs; 0 when fewer than two units).
    pub ci_half_width: f64,
    /// Fraction of the walked stream measured in detail.
    pub fraction: f64,
}

/// Outcome of a detailed simulation run.
///
/// Its miss and branch counts are the types the profiler reports per
/// candidate ([`MissCounts`], [`BranchStats`]), so a run at a design point
/// compares field for field with that point's profiled model inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Workload name.
    pub name: String,
    /// Retired instructions (for sampled runs: the full walked stream,
    /// not just the measured windows).
    pub instructions: u64,
    /// Total execution cycles (for sampled runs: the scaled estimate).
    pub cycles: u64,
    /// Cache/TLB miss counters observed during the run (sampled runs
    /// count measured events only; warming updates state, not counters).
    pub misses: MissCounts,
    /// Branch counts of the machine's predictor (sampled runs count
    /// measured branches only; oracle prediction counts every branch as
    /// predicted right).
    pub branch: BranchStats,
    /// Sampling statistics (`None` for full, unsampled runs).
    pub sampling: Option<SampledStats>,
    /// Per-interval CPI-stack timeline (`None` unless requested via
    /// [`PipelineSim::with_timeline`]). Strictly out-of-band: enabling it
    /// changes no other field.
    pub timeline: Option<CpiTimeline>,
}

impl SimResult {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }

    /// Execution time in seconds at the given frequency.
    pub fn time_seconds(&self, frequency_ghz: f64) -> f64 {
        mim_core::cycles_to_seconds(self.cycles as f64, frequency_ghz)
    }
}

/// Counterfactual knobs: selectively idealize one pipeline mechanism while
/// keeping everything else (including cache/predictor state evolution and
/// the retired instruction stream) bit-identical.
///
/// Differential validation (`mim-validate`) measures the simulator's
/// *effective* penalty of mechanism X as `cycles(full) - cycles(ideal X)`
/// and compares it against the mechanistic model's closed-form term for X,
/// attributing model-vs-simulation CPI error to the term whose
/// approximation diverges most. Cache and predictor structures are still
/// accessed and updated under every knob, so idealizing one mechanism
/// never perturbs the others' behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimIdealization {
    /// Instruction fetch never stalls (L1I/ITLB misses cost zero cycles).
    pub perfect_icache: bool,
    /// Loads and stores complete with the L1 hit latency of one cycle
    /// (D-cache/DTLB misses cost zero extra cycles).
    pub perfect_dcache: bool,
    /// Branch directions are predicted perfectly; taken branches still pay
    /// their fetch bubble (that is a front-end redirect, not a prediction).
    pub oracle_branches: bool,
    /// Correctly predicted taken branches and unconditional jumps redirect
    /// fetch for free (no one-cycle bubble). Combined with
    /// `oracle_branches` this removes every cycle the model's branch terms
    /// (Eq. 4 plus the taken-branch hit penalty) account for.
    pub free_taken_bubbles: bool,
    /// Multiply/divide execute in one pipelined cycle like ALU ops.
    pub unit_latencies: bool,
    /// Operand dependencies never delay issue (register values are
    /// forwarded with zero latency from any distance).
    pub no_dependencies: bool,
}

impl SimIdealization {
    /// No idealization: the full detailed simulation.
    pub fn none() -> SimIdealization {
        SimIdealization::default()
    }
}

/// Cycle-accurate simulator for one machine configuration.
#[derive(Debug, Clone)]
pub struct PipelineSim {
    machine: MachineConfig,
    ideal: SimIdealization,
    timeline: Option<u64>,
}

impl PipelineSim {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if the machine configuration is invalid.
    pub fn new(machine: &MachineConfig) -> PipelineSim {
        machine
            .validate()
            .expect("machine configuration must be valid");
        PipelineSim {
            machine: machine.clone(),
            ideal: SimIdealization::none(),
            timeline: None,
        }
    }

    /// Selectively idealizes pipeline mechanisms (counterfactual runs for
    /// per-term error attribution).
    pub fn with_idealization(mut self, ideal: SimIdealization) -> PipelineSim {
        self.ideal = ideal;
        self
    }

    /// Requests a [`CpiTimeline`] on [`SimResult`]: cycle attribution per
    /// `interval`-instruction bucket of the walked stream (minimum 1).
    /// Off by default; purely additive — every other result field is
    /// unchanged.
    ///
    /// Attribution is first-order and event-charged: each miss/stall
    /// event charges its nominal latency to its component within the
    /// interval it retires in, each interval's row is clamped to the
    /// cycles the interval actually took (overlapped latencies trim in
    /// canonical component order), and the un-attributed remainder —
    /// including dependence stalls — lands in
    /// [`Base`](StackComponent::Base). Integer cycles end to end, so
    /// timelines are byte-deterministic across runs and thread counts.
    pub fn with_timeline(mut self, interval: u64) -> PipelineSim {
        self.timeline = Some(interval.max(1));
        self
    }

    /// The simulated machine.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Simulates the program to completion.
    ///
    /// # Errors
    ///
    /// Propagates [`VmError`] if the program faults functionally.
    pub fn simulate(&self, program: &Program) -> Result<SimResult, VmError> {
        self.simulate_limit(program, None)
    }

    /// Simulates at most `limit` instructions (or to completion), driving
    /// a live functional execution.
    ///
    /// Every call executes the program once more. A sweep over many
    /// design points can record the workload once
    /// (`mim_trace::Trace::record`) and pass a replay to
    /// [`simulate_source`](PipelineSim::simulate_source) per point: the
    /// replay delivers the same stream at about the live block engine's
    /// rate and executes nothing, so the recording is the only functional
    /// pass of the sweep.
    ///
    /// # Errors
    ///
    /// Propagates [`VmError`] if the program faults functionally.
    pub fn simulate_limit(
        &self,
        program: &Program,
        limit: Option<u64>,
    ) -> Result<SimResult, VmError> {
        self.simulate_source(&mut LiveVm::new(program).with_limit(limit))
            .map_err(TraceError::into_vm)
    }

    /// Simulates the dynamic instruction stream produced by any
    /// [`TraceSource`] — the one timing driver, functionally decoupled.
    ///
    /// With a [`Replay`](mim_trace::Replay) source this performs **no**
    /// functional execution: the pipeline timing model consumes the
    /// recorded stream directly.
    ///
    /// The simulator is a [`BlockHooks`] set driven through
    /// [`TraceSource::drive_hooks`], so no [`TraceEvent`] is built per
    /// instruction. Each instruction's fetch goes to the cache hierarchy
    /// at [`before_instruction`](BlockHooks::before_instruction), its data
    /// access at [`mem_access`](BlockHooks::mem_access), its branch
    /// direction arrives at [`cond_branch`](BlockHooks::cond_branch), and
    /// the timing kernel runs when it retires. Inside a whole block
    /// ([`begin_block`](BlockHooks::begin_block)) only the first fetch of
    /// each of the block's static fetch runs reaches the hierarchy; the
    /// rest of the run is a known L1 hit. The profiler walks the same
    /// [`BlockFetches`] countdown over the same runs.
    /// [`simulate_events`](PipelineSim::simulate_events), the
    /// event-walking oracle, gives a byte-equal [`SimResult`].
    ///
    /// A source without a sampling plan ([`TraceSource::sampling`]) is
    /// simulated in full: every instruction runs through the detailed
    /// timing model and [`SimResult::cycles`] adds the two-cycle pipeline
    /// drain.
    ///
    /// A source with a plan is simulated statistically, SMARTS-style,
    /// over its walked stream, one [`Sampling::phase_run`] per run of
    /// positions: [`SamplePhase::Warm`] instructions update cache-hierarchy
    /// and branch-predictor **state** only ([`Hierarchy::warm`],
    /// [`BranchPredictor::update`] — no timing, no counters),
    /// [`SamplePhase::Measure`] instructions run the full detailed timing
    /// model, and skipped instructions are walked but touch nothing.
    /// Pipeline timing state is continuous across sample units (the
    /// windows are simulated as if concatenated), so per-unit cycle counts
    /// carry no per-unit pipeline-fill/drain bias; cache and predictor
    /// state persist throughout and are kept warm between windows by the
    /// plan's warm-up instructions. The reported [`SimResult::cycles`] is
    /// the mean per-unit CPI scaled by the full walked stream length, and
    /// [`SimResult::sampling`] carries the CLT 95% confidence half-width
    /// ±ε over the units.
    ///
    /// The hooks are one body compiled twice, picked here from
    /// [`TraceSource::sampling`]: a full run answers every position with
    /// [`SamplePhase::Measure`] as a constant, so it walks no plan, tracks
    /// no stale fetch memo and closes no sample units, and a planned run
    /// walks the plan's [`PhaseRuns`]. The oracle walks every source,
    /// full or planned, through the planned instantiation. Both
    /// instantiations inline the timing kernel.
    ///
    /// The kernel divides nothing per instruction. Its front-end ring of
    /// the last `frontend_depth × width` execute-entry cycles is indexed by
    /// a counter that wraps to 0 at the ring's length; the ring starts all
    /// 0, so reading it before it first wraps delays no fetch. An absent
    /// source operand reads an extra operand-availability slot that no
    /// instruction writes, so it stays 0 and delays no issue.
    ///
    /// # Errors
    ///
    /// Propagates the source's [`TraceError`] (a functional fault for live
    /// sources, a corrupt recording for replays).
    pub fn simulate_source<S: TraceSource>(&self, source: &mut S) -> Result<SimResult, TraceError> {
        match source.sampling() {
            None => Run::new(self, None, Full).drive(source),
            plan => Run::new(self, plan, PhaseRuns::new(plan)).drive(source),
        }
    }

    /// The differential oracle of
    /// [`simulate_source`](PipelineSim::simulate_source): the same
    /// simulation, walking whole [`TraceEvent`]s through the closure driver
    /// [`TraceSource::drive_phased`]. Every event's fetch and data access
    /// go to the hierarchy, warm or measured, and its sampling phase comes
    /// from the driver. It shares only the timing kernel with
    /// `simulate_source` and yields a byte-equal [`SimResult`], timeline
    /// included, at a fraction of the throughput.
    ///
    /// # Errors
    ///
    /// Same contract as [`simulate_source`](PipelineSim::simulate_source).
    pub fn simulate_events<S: TraceSource>(&self, source: &mut S) -> Result<SimResult, TraceError> {
        let name = source.name().to_string();
        let plan = source.sampling();
        let mut run = Run::new(self, plan, PhaseRuns::new(plan));
        // Walked-stream position of the next delivered event. Skipped
        // events are never delivered, but their positions are plan
        // arithmetic, so the timeline's interval boundaries stay aligned
        // with the full-simulation timeline of the same stream.
        let mut pos: u64 = 0;
        let outcome = source.drive_phased(&mut |phase, ev| {
            if let (Some(acc), Some(plan)) = (run.tl.as_mut(), plan.as_ref()) {
                while plan.phase(pos) == SamplePhase::Skip {
                    pos += 1;
                    acc.tick(run.st.watermark());
                }
            }
            match phase {
                SamplePhase::Skip => {}
                SamplePhase::Warm => {
                    run.units.warm(run.st.watermark());
                    run.hierarchy
                        .warm(MemAccessKind::Fetch, Program::inst_addr(ev.pc));
                    match ev.class {
                        InstClass::Load => {
                            run.hierarchy
                                .warm(MemAccessKind::Load, ev.eff_addr.expect("load address"));
                        }
                        InstClass::Store => {
                            run.hierarchy
                                .warm(MemAccessKind::Store, ev.eff_addr.expect("store address"));
                        }
                        InstClass::CondBranch => {
                            run.predictor.update(ev.pc, ev.taken == Some(true));
                        }
                        _ => {}
                    }
                }
                SamplePhase::Measure => {
                    run.fetch = run
                        .hierarchy
                        .access(MemAccessKind::Fetch, Program::inst_addr(ev.pc));
                    match ev.class {
                        InstClass::Load => {
                            run.data = run
                                .hierarchy
                                .access(MemAccessKind::Load, ev.eff_addr.expect("load address"));
                        }
                        InstClass::Store => {
                            run.data = run
                                .hierarchy
                                .access(MemAccessKind::Store, ev.eff_addr.expect("store address"));
                        }
                        InstClass::CondBranch => run.taken = ev.taken == Some(true),
                        _ => {}
                    }
                    run.step(ev);
                    run.units.measured(run.st.watermark());
                }
            }
            if let Some(acc) = run.tl.as_mut() {
                pos += 1;
                acc.tick(run.st.watermark());
            }
        })?;
        let walked = outcome.instructions();
        if let Some(acc) = run.tl.as_mut() {
            // Trailing skipped positions after the last delivered event.
            while pos < walked {
                pos += 1;
                acc.tick(run.st.watermark());
            }
        }
        Ok(run.finish(name, walked))
    }
}

/// The phases of a run's walked positions.
///
/// [`Full`] measures every position and [`PhaseRuns`] walks a sampling
/// plan. [`Run`] is generic over the two, so a full run's hooks compile
/// with every phase test folded to `Measure`.
trait Plan {
    /// Every position is measured: no position is skipped or warmed, and
    /// the run closes no sample units.
    const FULL: bool;
    /// The phase of the next walked position.
    fn next_phase(&mut self) -> SamplePhase;
}

/// The plan of a full run: every position is measured.
struct Full;

impl Plan for Full {
    const FULL: bool = true;

    #[inline(always)]
    fn next_phase(&mut self) -> SamplePhase {
        SamplePhase::Measure
    }
}

impl Plan for PhaseRuns {
    const FULL: bool = false;

    #[inline(always)]
    fn next_phase(&mut self) -> SamplePhase {
        PhaseRuns::next_phase(self)
    }
}

/// One simulation run: the machine's caches, predictor and pipeline
/// state, the retired and branch counts, and the sample-unit and timeline
/// bookkeeping. It is the [`BlockHooks`] set
/// [`PipelineSim::simulate_source`] drives, as `Run<Full>` for a full
/// run and `Run<PhaseRuns>` for a planned one; the oracle
/// [`PipelineSim::simulate_events`] feeds a `Run<PhaseRuns>` whole events.
///
/// The timing kernel ([`Run::step`]) keeps two invariants in
/// [`PipeState`] in place of per-instruction tests: the front-end ring's
/// slot is a wrap counter over a ring that starts all 0, and the
/// operand-availability slot [`NO_REG`] is 0 for the whole run.
struct Run<P: Plan> {
    ideal: SimIdealization,
    lat: Latencies,
    hierarchy: Hierarchy,
    predictor: Box<dyn BranchPredictor>,
    st: PipeState,
    /// Instructions run through the timing kernel.
    retired: u64,
    branch: BranchStats,
    tl: Option<TimelineAcc>,
    units: Units,
    sampled: bool,
    /// The phases of the walked positions, and the current instruction's
    /// (read through [`Run::phase`]).
    phases: P,
    phase: SamplePhase,
    /// The blocks' fetch runs and the current block's countdown. Inside a
    /// block, an instruction's fetch goes to the hierarchy only at the
    /// first instruction of a fetch run, or after a skipped instruction;
    /// every other measured fetch is a known L1 hit, counted in `repeats`.
    fetches: BlockFetches,
    /// A skipped instruction came after the hierarchy's last fetch, which
    /// left its fetch memo behind. Never set in a full run.
    stale: bool,
    /// Measured fetches answered as repeats, added to
    /// [`MissCounts::inst_accesses`] at the end.
    repeats: u64,
    /// The current instruction's fetch result: servicing level and ITLB
    /// miss.
    fetch: (MemLevel, bool),
    /// The current instruction's data access result (loads and stores).
    data: (MemLevel, bool),
    /// The current conditional branch's direction.
    taken: bool,
}

/// The sample units of a sampled run. A unit closes after `len` measured
/// instructions (window end), or at the first warm instruction of the next
/// window for plans whose windows the stream truncates, or at stream end.
/// A full run through the hooks keeps none; the oracle's full run counts
/// into one unit that never closes.
#[derive(Default)]
struct Units {
    /// Measured instructions per unit (`u64::MAX` without a plan).
    len: u64,
    cpis: Vec<f64>,
    /// Measured instructions of the open unit.
    insts: u64,
    /// Cycle watermark at the open unit's start.
    base: u64,
    measured_cycles: u64,
}

impl Units {
    /// One more measured instruction, the pipeline now at `mark`.
    #[inline(always)]
    fn measured(&mut self, mark: u64) {
        self.insts += 1;
        if self.insts == self.len {
            self.close(mark);
        }
    }

    /// A warm instruction: closes a unit its window left open.
    #[inline(always)]
    fn warm(&mut self, mark: u64) {
        if self.insts > 0 {
            self.close(mark);
        }
    }

    fn close(&mut self, mark: u64) {
        self.cpis
            .push((mark - self.base) as f64 / self.insts as f64);
        self.measured_cycles += mark - self.base;
        self.base = mark;
        self.insts = 0;
    }
}

impl<P: Plan> Run<P> {
    /// A run under `plan`, its positions' phases walked by `phases`.
    fn new(sim: &PipelineSim, plan: Option<Sampling>, phases: P) -> Run<P> {
        let lat = Latencies::of(&sim.machine);
        Run {
            ideal: sim.ideal,
            st: PipeState::new(lat.cap),
            lat,
            hierarchy: Hierarchy::new(sim.machine.hierarchy.clone()),
            predictor: sim.machine.predictor.build(),
            retired: 0,
            branch: BranchStats::default(),
            tl: sim.timeline.map(TimelineAcc::new),
            units: Units {
                len: plan.map_or(u64::MAX, |s| s.length()),
                ..Units::default()
            },
            sampled: plan.is_some(),
            phases,
            phase: SamplePhase::Measure,
            fetches: BlockFetches::default(),
            stale: false,
            repeats: 0,
            fetch: (MemLevel::L1, false),
            data: (MemLevel::L1, false),
            taken: false,
        }
    }

    /// Drives `source` through the hooks to the end of its stream.
    fn drive<S: TraceSource>(mut self, source: &mut S) -> Result<SimResult, TraceError> {
        let name = source.name().to_string();
        let outcome = source.drive_hooks(&mut self)?;
        Ok(self.finish(name, outcome.instructions()))
    }

    /// The result of a run that walked `walked` instructions.
    fn finish(mut self, name: String, walked: u64) -> SimResult {
        let mark = self.st.watermark();
        let (instructions, cycles, sampling) = if P::FULL || !self.sampled {
            // Drain: memory + writeback stages after the last completion
            // event.
            (self.retired, mark + 2, None)
        } else {
            let units = &mut self.units;
            if units.insts > 0 {
                // Final (possibly truncated) unit at stream end.
                units.close(mark);
            }
            let n = units.cpis.len() as u64;
            let mean = if n == 0 {
                0.0
            } else {
                units.cpis.iter().sum::<f64>() / n as f64
            };
            let half = if n >= 2 {
                let var = units
                    .cpis
                    .iter()
                    .map(|x| (x - mean) * (x - mean))
                    .sum::<f64>()
                    / (n - 1) as f64;
                1.96 * (var / n as f64).sqrt()
            } else {
                0.0
            };
            let stats = SampledStats {
                units: n,
                measured_instructions: self.retired,
                measured_cycles: units.measured_cycles,
                cpi: mean,
                ci_half_width: half,
                fraction: if walked == 0 {
                    0.0
                } else {
                    self.retired as f64 / walked as f64
                },
            };
            (walked, (mean * walked as f64).round() as u64, Some(stats))
        };
        let mut misses = self.hierarchy.counts(0);
        misses.inst_accesses += self.repeats;
        SimResult {
            name,
            instructions,
            cycles,
            misses,
            branch: self.branch,
            sampling,
            timeline: self.tl.map(|acc| acc.finish(mark)),
        }
    }

    /// The current instruction's phase: a constant in a full run.
    #[inline(always)]
    fn phase(&self) -> SamplePhase {
        if P::FULL {
            SamplePhase::Measure
        } else {
            self.phase
        }
    }

    /// The current instruction retires: a measured one runs through the
    /// timing kernel, and every walked position ticks the timeline.
    #[inline(always)]
    fn retire(&mut self, op: &TraceEvent) {
        match self.phase() {
            SamplePhase::Measure => {
                self.step(op);
                if !P::FULL {
                    self.units.measured(self.st.watermark());
                }
            }
            SamplePhase::Warm => self.units.warm(self.st.watermark()),
            SamplePhase::Skip => {}
        }
        if let Some(acc) = self.tl.as_mut() {
            acc.tick(self.st.watermark());
        }
    }

    /// One instruction through the timing kernel: fetch, execute entry,
    /// per-class effects. This is the detailed path shared by full and
    /// sampled simulation and by both drivers. The cache and predictor
    /// outcomes arrive in `self.fetch`, `self.data` and `self.taken`; all
    /// pipeline state lives in `self.st`, continuous across sample units.
    /// When a timeline accumulator is present, miss/stall events charge
    /// their nominal penalties to it (interval bookkeeping stays with the
    /// driver).
    #[inline(always)]
    fn step(&mut self, ev: &TraceEvent) {
        let lat = &self.lat;
        let st = &mut self.st;
        let tl = &mut self.tl;
        self.retired += 1;
        if let Some(acc) = tl.as_mut() {
            acc.measured();
        }
        let idx = st.slot;
        st.slot = if idx + 1 == lat.cap { 0 } else { idx + 1 };

        // ---------------- fetch ------------------------------------------
        // Backpressure: the instruction `cap` ahead entered execute at
        // `ex_ring[idx]` (0 while the ring is still filling).
        let fmin = st.fetch_min.max(st.ex_ring[idx]);
        if st.fetch_slots >= lat.w || fmin > st.fetch_cycle {
            st.fetch_cycle = fmin.max(st.fetch_cycle + u64::from(st.fetch_slots > 0));
            st.fetch_slots = 0;
        }
        // I-cache / ITLB access in program order.
        let (level, itlb_miss) = self.fetch;
        let mut stall = match level {
            MemLevel::L1 => 0,
            MemLevel::L2 => lat.l2,
            MemLevel::Memory => lat.mem,
        };
        if itlb_miss {
            stall += lat.tlb;
        }
        if self.ideal.perfect_icache {
            stall = 0;
        }
        if stall > 0 {
            if let Some(acc) = tl.as_mut() {
                match level {
                    MemLevel::L1 => {}
                    MemLevel::L2 => acc.charge(StackComponent::IL2Access, lat.l2),
                    MemLevel::Memory => acc.charge(StackComponent::IL2Miss, lat.mem),
                }
                if itlb_miss {
                    acc.charge(StackComponent::TlbMiss, lat.tlb);
                }
            }
            st.fetch_cycle += stall;
            st.fetch_slots = 0;
        }
        let f = st.fetch_cycle;
        st.fetch_slots += 1;

        // ---------------- execute entry ----------------------------------
        let mut earliest = f + lat.depth;
        if !self.ideal.no_dependencies {
            let [a, b] = ev.sources.map(|src| src.map_or(NO_REG, |r| r.index()));
            earliest = earliest.max(st.avail[a]).max(st.avail[b]);
        }
        let t;
        // Stages shift as units (paper §2.2): instructions from
        // different fetch groups never share an issue cycle, so
        // taken-branch bubbles and miss-truncated fetch groups keep
        // their slot cost through the pipeline.
        if st.group_cycle != u64::MAX
            && earliest <= st.group_cycle
            && st.group_count < lat.w
            && !st.group_blocked
        {
            // Join the current issue group.
            t = st.group_cycle;
            st.group_count += 1;
        } else {
            // Start a new group.
            t = earliest
                .max(st.ex_free_at)
                .max(if st.group_cycle == u64::MAX {
                    0
                } else {
                    st.group_cycle + 1
                });
            st.group_cycle = t;
            st.group_count = 1;
            st.group_blocked = false;
            st.group_leave = (t + 1).max(st.mem_busy_until);
            st.group_mem_extra = 0;
            st.ex_free_at = st.ex_free_at.max(st.group_leave);
        }
        st.ex_ring[idx] = t;
        let mut completion = t + 1;

        // ---------------- per-class effects --------------------------------
        match ev.class {
            // Under unit_latencies, mul/div fall through to the ALU
            // arm below.
            InstClass::Mul | InstClass::Div if !self.ideal.unit_latencies => {
                let l = if ev.class == InstClass::Mul {
                    lat.mul
                } else {
                    lat.div
                };
                if let Some(dst) = ev.dst {
                    st.avail[dst.index()] = t + l;
                }
                if let Some(acc) = tl.as_mut() {
                    let component = if ev.class == InstClass::Mul {
                        StackComponent::Mul
                    } else {
                        StackComponent::Div
                    };
                    acc.charge(component, l.saturating_sub(1));
                }
                // Non-pipelined: blocks EX for the full latency and, by
                // in-order commit, all younger instructions.
                st.ex_free_at = st.ex_free_at.max(t + l);
                st.group_blocked = true;
                completion = t + l;
            }
            InstClass::Load | InstClass::Store => {
                let (dlevel, dtlb_miss) = self.data;
                let mut l = match dlevel {
                    MemLevel::L1 => lat.l1d,
                    MemLevel::L2 => lat.l2,
                    MemLevel::Memory => lat.mem,
                };
                if dtlb_miss {
                    l += lat.tlb;
                }
                if self.ideal.perfect_dcache {
                    l = 1;
                } else if let Some(acc) = tl.as_mut() {
                    match dlevel {
                        MemLevel::L1 => {
                            acc.charge(StackComponent::L1HitExtra, lat.l1d.saturating_sub(1));
                        }
                        MemLevel::L2 => acc.charge(StackComponent::DL2Access, lat.l2),
                        MemLevel::Memory => acc.charge(StackComponent::DL2Miss, lat.mem),
                    }
                    if dtlb_miss {
                        acc.charge(StackComponent::TlbMiss, lat.tlb);
                    }
                }
                // MEM entry: the group's EX-exit plus any misses already
                // serialized within this group.
                let mem_entry = st.group_leave + st.group_mem_extra;
                if l > 1 {
                    st.group_mem_extra += l;
                    st.mem_busy_until = st.mem_busy_until.max(mem_entry + l);
                } else {
                    st.mem_busy_until = st.mem_busy_until.max(mem_entry + 1);
                }
                if let Some(dst) = ev.dst {
                    st.avail[dst.index()] = mem_entry + l;
                }
                completion = mem_entry + l;
            }
            InstClass::CondBranch => {
                let taken = self.taken;
                let pred = if self.ideal.oracle_branches {
                    taken
                } else {
                    self.predictor.predict(ev.pc)
                };
                self.predictor.update(ev.pc, taken);
                self.branch.record(pred, taken);
                if pred != taken {
                    if let Some(acc) = tl.as_mut() {
                        // First-order flush cost: the front-end refill.
                        acc.charge(StackComponent::BranchMiss, lat.depth);
                    }
                    // Squash: fetch resumes after resolution in EX.
                    st.fetch_min = st.fetch_min.max(t + 1);
                    st.fetch_slots = lat.w; // current fetch group ends
                } else if taken {
                    // Correct taken prediction: one fetch bubble.
                    if !self.ideal.free_taken_bubbles {
                        if let Some(acc) = tl.as_mut() {
                            acc.charge(StackComponent::TakenBranch, 1);
                        }
                        st.fetch_min = st.fetch_min.max(f + 2);
                        st.fetch_slots = lat.w;
                    }
                }
            }
            InstClass::Jump => {
                // Unconditional: always taken, one fetch bubble.
                if !self.ideal.free_taken_bubbles {
                    if let Some(acc) = tl.as_mut() {
                        acc.charge(StackComponent::TakenBranch, 1);
                    }
                    st.fetch_min = st.fetch_min.max(f + 2);
                    st.fetch_slots = lat.w;
                }
            }
            _ => {
                if let Some(dst) = ev.dst {
                    st.avail[dst.index()] = t + 1;
                }
            }
        }
        st.last_completion = st.last_completion.max(completion);
    }
}

impl<P: Plan> BlockHooks for Run<P> {
    fn begin_block(&mut self, block: &Block) {
        self.fetches.begin(
            &self.hierarchy,
            block.entry_pc(),
            block.instructions(),
            || block.events().iter().map(|ev| Program::inst_addr(ev.pc)),
        );
    }

    #[inline(always)]
    fn before_instruction(&mut self, op: &TraceEvent) {
        if !P::FULL {
            self.phase = self.phases.next_phase();
        }
        let fresh =
            !self.fetches.in_block() || self.fetches.step().is_some() || (!P::FULL && self.stale);
        match self.phase() {
            SamplePhase::Skip => self.stale = true,
            SamplePhase::Warm => {
                if fresh {
                    self.stale = false;
                    self.hierarchy
                        .warm(MemAccessKind::Fetch, Program::inst_addr(op.pc));
                }
            }
            SamplePhase::Measure => {
                self.fetch = if fresh {
                    if !P::FULL {
                        self.stale = false;
                    }
                    self.hierarchy
                        .access(MemAccessKind::Fetch, Program::inst_addr(op.pc))
                } else {
                    self.repeats += 1;
                    (MemLevel::L1, false)
                };
            }
        }
    }

    #[inline(always)]
    fn mem_access(&mut self, op: &TraceEvent, addr: u64) {
        let kind = if op.class == InstClass::Load {
            MemAccessKind::Load
        } else {
            MemAccessKind::Store
        };
        match self.phase() {
            SamplePhase::Skip => {}
            SamplePhase::Warm => self.hierarchy.warm(kind, addr),
            SamplePhase::Measure => self.data = self.hierarchy.access(kind, addr),
        }
    }

    #[inline(always)]
    fn cond_branch(&mut self, op: &TraceEvent, taken: bool) {
        match self.phase() {
            SamplePhase::Skip => {}
            SamplePhase::Warm => self.predictor.update(op.pc, taken),
            SamplePhase::Measure => self.taken = taken,
        }
    }

    #[inline(always)]
    fn after_instruction(&mut self, op: &TraceEvent) {
        self.retire(op);
    }

    #[inline(always)]
    fn after_taken_branch(&mut self, op: &TraceEvent, _target: u32) {
        self.retire(op);
    }
}

/// Machine-derived latency constants for the timing kernel.
struct Latencies {
    w: u64,
    depth: u64,
    l2: u64,
    mem: u64,
    tlb: u64,
    mul: u64,
    div: u64,
    l1d: u64,
    /// Front-end occupancy bound: the D front-end stages hold at most
    /// D*W instructions in flight ahead of execute (Little's law: this
    /// is exactly the occupancy needed to sustain W instructions per
    /// cycle through a D-deep front end). An instruction can be fetched
    /// only once the instruction `cap` ahead of it has entered execute.
    cap: usize,
}

impl Latencies {
    fn of(m: &MachineConfig) -> Latencies {
        let w = u64::from(m.width);
        let depth = u64::from(m.frontend_depth);
        Latencies {
            w,
            depth,
            l2: u64::from(m.l2_hit_cycles()),
            mem: u64::from(m.mem_cycles()),
            tlb: u64::from(m.tlb_walk_cycles),
            mul: u64::from(m.mul_latency),
            div: u64::from(m.div_latency),
            l1d: u64::from(m.l1_hit_cycles),
            cap: (depth * w) as usize,
        }
    }
}

/// The timing kernel's pipeline state: fetch, issue-group, and
/// memory-stage occupancy constraints. One instance spans a full run;
/// sampled runs keep it continuous across sample units (the measured
/// windows are simulated as if concatenated) and read per-unit cycles off
/// [`watermark`](PipeState::watermark) deltas.
struct PipeState {
    fetch_cycle: u64, // cycle of the group being filled
    fetch_slots: u64, // instructions fetched in that group
    fetch_min: u64,   // earliest allowed next fetch (redirects)
    /// Execute-entry cycle of the last `cap` instructions, indexed by
    /// `slot`; all 0 until the ring first wraps.
    ex_ring: Vec<u64>,
    /// The ring slot of the next instruction: a wrap counter in `0..cap`.
    slot: usize,
    /// Operand availability for EX entry, per register, and 0 in the
    /// extra slot [`NO_REG`] that an absent source operand reads.
    avail: [u64; NUM_REGS + 1],
    group_cycle: u64, // EX cycle of current issue group
    group_count: u64,
    group_blocked: bool,  // mul/div issued: no younger joins
    group_leave: u64,     // when current group exits EX to MEM
    group_mem_extra: u64, // serialized intra-group misses
    ex_free_at: u64,      // earliest start of the next group
    mem_busy_until: u64,  // memory stage availability
    last_completion: u64,
}

/// The slot of [`PipeState::avail`] an absent source operand reads: no
/// instruction writes it, so it stays 0 and never delays issue.
const NO_REG: usize = NUM_REGS;

impl PipeState {
    fn new(cap: usize) -> PipeState {
        PipeState {
            fetch_cycle: 0,
            fetch_slots: 0,
            fetch_min: 0,
            ex_ring: vec![0; cap],
            slot: 0,
            avail: [0; NUM_REGS + 1],
            group_cycle: u64::MAX,
            group_count: 0,
            group_blocked: false,
            group_leave: 0,
            group_mem_extra: 0,
            ex_free_at: 0,
            mem_busy_until: 0,
            last_completion: 0,
        }
    }

    /// The monotone cycle high-water mark: every charged cycle is at or
    /// below it. Full runs report `watermark() + 2` (memory + writeback
    /// drain); sampled runs difference it at unit boundaries, so the
    /// drain constant cancels out of per-unit CPIs.
    #[inline]
    fn watermark(&self) -> u64 {
        self.last_completion.max(self.mem_busy_until)
    }
}

/// Builds a [`CpiTimeline`] during simulation: per-interval event-charged
/// penalties reconciled against the pipeline's watermark deltas.
///
/// `tick` advances the *walked* position (interval boundaries);
/// `measured`/`charge` record the instructions and penalties the detailed
/// kernel actually simulated. For a full run walked == measured; for a
/// sampled run only in-window instructions measure, keeping interval
/// indices aligned with the full run's.
struct TimelineAcc {
    timeline: CpiTimeline,
    interval: u64,
    cur: [u64; StackComponent::COUNT],
    cur_insts: u64,
    walked: u64,
    last_watermark: u64,
}

impl TimelineAcc {
    fn new(interval: u64) -> TimelineAcc {
        let interval = interval.max(1);
        TimelineAcc {
            timeline: CpiTimeline::new(interval),
            interval,
            cur: [0; StackComponent::COUNT],
            cur_insts: 0,
            walked: 0,
            last_watermark: 0,
        }
    }

    /// Charges `cycles` of nominal penalty to `component` in the current
    /// interval.
    fn charge(&mut self, component: StackComponent, cycles: u64) {
        self.cur[component.index()] += cycles;
    }

    /// Counts one instruction simulated in detail.
    fn measured(&mut self) {
        self.cur_insts += 1;
    }

    /// Advances one walked position; closes the interval at the boundary
    /// using the current cycle watermark.
    fn tick(&mut self, mark: u64) {
        self.walked += 1;
        if self.walked == self.interval {
            self.flush(mark);
        }
    }

    /// Closes the current interval: the row's total is exactly the
    /// watermark delta. Event-charged penalties can overcount when
    /// latencies hide under one another, so charges are trimmed in
    /// canonical component order to fit; the un-attributed remainder
    /// (dependence stalls included) lands in `Base`.
    fn flush(&mut self, mark: u64) {
        let delta = mark - self.last_watermark;
        let mut row = [0u64; StackComponent::COUNT];
        let mut remaining = delta;
        for (slot, &charged) in row.iter_mut().zip(&self.cur) {
            let take = charged.min(remaining);
            *slot = take;
            remaining -= take;
        }
        row[StackComponent::Base.index()] += remaining;
        self.timeline.push_row(self.cur_insts, row);
        self.last_watermark = mark;
        self.cur = [0; StackComponent::COUNT];
        self.cur_insts = 0;
        self.walked = 0;
    }

    /// Closes any partial interval and returns the finished timeline.
    fn finish(mut self, mark: u64) -> CpiTimeline {
        if self.walked > 0 || self.cur_insts > 0 {
            self.flush(mark);
        }
        self.timeline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mim_isa::{Program, ProgramBuilder, Reg::*};

    fn machine(width: u32) -> MachineConfig {
        MachineConfig {
            width,
            ..MachineConfig::default_config()
        }
    }

    /// Cycles spent on cache/TLB misses (model-style first-order estimate),
    /// used to factor cold-cache effects out of microbenchmark expectations.
    fn miss_cycles(r: &SimResult, m: &MachineConfig) -> f64 {
        let l2 = f64::from(m.l2_hit_cycles());
        let mem = f64::from(m.mem_cycles());
        let tlb = f64::from(m.tlb_walk_cycles);
        let c = &r.misses;
        (c.l1i_l2_hits() + c.l1d_l2_hits()) as f64 * l2
            + (c.l2i_misses + c.l2d_misses) as f64 * mem
            + (c.itlb_misses + c.dtlb_misses) as f64 * tlb
    }

    fn adjusted_cycles(r: &SimResult, m: &MachineConfig) -> f64 {
        r.cycles as f64 - miss_cycles(r, m)
    }

    #[test]
    fn ideal_code_approaches_full_width() {
        // A warm loop of independent ALU ops sustains close to W per
        // cycle; the loop's taken branch adds a bubble per iteration.
        let p = looped("ideal", |b| {
            for i in 0..96usize {
                let dst = mim_isa::Reg::from_index(1 + (i % 24)).unwrap();
                b.li(dst, i as i64);
            }
        });
        for w in [1u32, 2, 4] {
            let m = machine(w);
            let r = PipelineSim::new(&m).simulate(&p).unwrap();
            // Per iteration: 98 instructions at width W, plus ~2 cycles of
            // loop-branch bubble/redirect.
            let ideal = 200.0 * (98.0 / f64::from(w) + 2.0);
            assert!(
                (r.cycles as f64 - ideal).abs() <= ideal * 0.08 + 100.0,
                "W={w}: {} cycles vs ideal {ideal}",
                r.cycles
            );
        }
    }

    /// Wraps `body` in a 200-iteration loop so the I-cache warms up after
    /// the first pass and cold-miss effects become negligible.
    fn looped(name: &str, body: impl Fn(&mut ProgramBuilder)) -> Program {
        let mut b = ProgramBuilder::named(name);
        b.li(R30, 0);
        b.li(R31, 200);
        let top = b.here();
        body(&mut b);
        b.addi(R30, R30, 1);
        b.blt(R30, R31, top);
        b.halt();
        b.build()
    }

    #[test]
    fn dependent_chain_serializes_regardless_of_width() {
        // 50 dependent adds per iteration: a serial chain is ~1 IPC no
        // matter the width.
        let p = looped("chain", |b| {
            for _ in 0..50 {
                b.addi(R1, R1, 1);
            }
        });
        let r1 = PipelineSim::new(&machine(1)).simulate(&p).unwrap();
        let r4 = PipelineSim::new(&machine(4)).simulate(&p).unwrap();
        assert!(
            r4.cycles >= 200 * 50,
            "chain broke serialization: {}",
            r4.cycles
        );
        let rel = (r4.cycles as f64 - r1.cycles as f64).abs() / (r1.cycles as f64);
        assert!(
            rel < 0.1,
            "width changed serial chain time: {} vs {}",
            r1.cycles,
            r4.cycles
        );
    }

    #[test]
    fn multiply_latency_is_exposed() {
        // 20 dependent multiplies per iteration ≈ 20 * mul_latency cycles.
        let p = looped("mulchain", |b| {
            b.li(R2, 1);
            for _ in 0..20 {
                b.mul(R1, R1, R2);
            }
        });
        let m = machine(4);
        let r = PipelineSim::new(&m).simulate(&p).unwrap();
        let expected = 200.0 * 20.0 * f64::from(m.mul_latency);
        assert!(
            (r.cycles as f64 - expected).abs() / expected < 0.1,
            "{} cycles vs expected ~{expected}",
            r.cycles
        );
    }

    #[test]
    fn independent_multiplies_still_block_in_order_pipe() {
        // Non-pipelined multiplier + in-order commit: independent muls
        // serialize too.
        let p = looped("muls", |b| {
            b.li(R1, 1);
            b.li(R2, 1);
            for i in 0..20usize {
                let dst = mim_isa::Reg::from_index(3 + (i % 20)).unwrap();
                b.mul(dst, R1, R2);
            }
        });
        let m = machine(4);
        let r = PipelineSim::new(&m).simulate(&p).unwrap();
        assert!(r.cycles as f64 >= 200.0 * 20.0 * f64::from(m.mul_latency) * 0.95);
    }

    #[test]
    fn load_use_bubble_on_scalar_pipe() {
        // ld; use costs 3 cycles/pair at W=1 (1 bubble); separating the
        // pair with an independent instruction hides the bubble (3 cycles
        // for 3 instructions).
        let with_use = looped("loaduse", |b| {
            b.data_words(&[1, 2, 3, 4]);
            b.li(R1, 0);
            for _ in 0..20 {
                b.ld(R2, R1, 0);
                b.addi(R3, R2, 1);
            }
        });
        let separated = looped("separated", |b| {
            b.data_words(&[1, 2, 3, 4]);
            b.li(R1, 0);
            for _ in 0..20 {
                b.ld(R2, R1, 0);
                b.addi(R4, R1, 1);
                b.addi(R3, R2, 1);
            }
        });
        let m = machine(1);
        let ru = PipelineSim::new(&m).simulate(&with_use).unwrap();
        let rs = PipelineSim::new(&m).simulate(&separated).unwrap();
        // Each load-use pair costs 3 cycles (1 bubble); inserting an
        // independent instruction into the pair hides the bubble, so both
        // versions take the same time even though `separated` executes 20
        // more instructions per iteration.
        assert!(rs.instructions > ru.instructions);
        let rel = (rs.cycles as f64 - ru.cycles as f64).abs() / (ru.cycles as f64);
        assert!(
            rel < 0.04,
            "bubble not hidden: {} vs {} cycles",
            ru.cycles,
            rs.cycles
        );
        // And the pair version pays ~1.5 cycles/instruction (3 per pair).
        let per_pair_u = ru.cycles as f64 / (200.0 * 20.0);
        assert!(
            (per_pair_u - 3.0).abs() < 0.4,
            "load-use pair: {per_pair_u}"
        );
    }

    #[test]
    fn taken_branches_cost_one_bubble() {
        let mut b = ProgramBuilder::named("jumps");
        let mut labels = Vec::new();
        for _ in 0..500 {
            labels.push(b.label());
        }
        for &label in &labels {
            b.jmp(label);
            b.bind(label);
        }
        b.halt();
        let p = b.build();
        let m = machine(1);
        let r = PipelineSim::new(&m).simulate(&p).unwrap();
        let per_jump = (adjusted_cycles(&r, &m) - 5.0) / 500.0;
        assert!(
            (per_jump - 2.0).abs() < 0.1,
            "taken jump should cost 2 cycles at W=1, got {per_jump}"
        );
    }

    #[test]
    fn misprediction_costs_frontend_depth() {
        // Data-dependent branch on genuinely unpredictable data (SplitMix64
        // hash bits). Compare two machines differing only in front-end
        // depth: extra cost per mispredict ≈ depth difference.
        fn splitmix(seed: u64) -> u64 {
            let mut z = seed.wrapping_add(0x9E3779B97F4A7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
        let mut b = ProgramBuilder::named("bmiss");
        let data: Vec<i64> = (0..4096u64).map(|i| (splitmix(i) & 1) as i64).collect();
        let arr = b.data_words(&data);
        b.li(R1, 0);
        b.li(R2, 4096);
        let top = b.here();
        b.slli(R3, R1, 3);
        b.addi(R3, R3, arr as i64);
        b.ld(R4, R3, 0);
        let skip = b.label();
        b.beq(R4, R0, skip);
        b.addi(R5, R5, 1);
        b.bind(skip);
        b.addi(R1, R1, 1);
        b.blt(R1, R2, top);
        b.halt();
        let p = b.build();

        let mut shallow = machine(4);
        shallow.frontend_depth = 2;
        let mut deep = machine(4);
        deep.frontend_depth = 6;
        let rs = PipelineSim::new(&shallow).simulate(&p).unwrap();
        let rd = PipelineSim::new(&deep).simulate(&p).unwrap();
        assert_eq!(rs.branch.mispredicts, rd.branch.mispredicts);
        assert!(
            rs.branch.mispredicts > 1000,
            "need plentiful mispredicts: {}",
            rs.branch.mispredicts
        );
        let delta = (rd.cycles - rs.cycles) as f64 / rs.branch.mispredicts as f64;
        assert!(
            (delta - 4.0).abs() < 0.8,
            "per-mispredict depth delta: {delta} (expected ~4)"
        );
    }

    #[test]
    fn l2_misses_cost_memory_latency() {
        let p = mim_workloads::spec::mcf_like().program(mim_workloads::WorkloadSize::Tiny);
        let m = machine(4);
        let r = PipelineSim::new(&m).simulate(&p).unwrap();
        assert!(
            r.cpi() > 10.0,
            "pointer chase should be memory bound, CPI = {}",
            r.cpi()
        );
    }

    #[test]
    fn sim_and_profiler_agree_on_event_counts() {
        use mim_profile::Profiler;
        let m = machine(4);
        for w in [
            mim_workloads::mibench::sha(),
            mim_workloads::mibench::dijkstra(),
            mim_workloads::mibench::tiffdither(),
        ] {
            let p = w.program(mim_workloads::WorkloadSize::Tiny);
            let sim = PipelineSim::new(&m).simulate(&p).unwrap();
            let prof = Profiler::new(&m).profile(&p).unwrap();
            assert_eq!(sim.instructions, prof.num_insts, "{}", w.name());
            assert_eq!(sim.misses, prof.misses, "{}", w.name());
            assert_eq!(sim.branch, prof.branch, "{}", w.name());
        }
    }

    #[test]
    fn idealization_knobs_remove_their_own_penalty_only() {
        // Each knob must make the run no slower, and the targeted knob
        // must remove (nearly) all of its mechanism's cycles.
        let m = machine(4);
        let p = mim_workloads::mibench::qsort().program(mim_workloads::WorkloadSize::Tiny);
        let full = PipelineSim::new(&m).simulate(&p).unwrap();
        let run = |ideal: SimIdealization| {
            PipelineSim::new(&m)
                .with_idealization(ideal)
                .simulate(&p)
                .unwrap()
        };
        for ideal in [
            SimIdealization {
                perfect_icache: true,
                ..SimIdealization::none()
            },
            SimIdealization {
                perfect_dcache: true,
                ..SimIdealization::none()
            },
            SimIdealization {
                oracle_branches: true,
                ..SimIdealization::none()
            },
            SimIdealization {
                unit_latencies: true,
                ..SimIdealization::none()
            },
            SimIdealization {
                no_dependencies: true,
                ..SimIdealization::none()
            },
            SimIdealization {
                free_taken_bubbles: true,
                ..SimIdealization::none()
            },
        ] {
            let r = run(ideal);
            assert!(
                r.cycles <= full.cycles,
                "{ideal:?} slower: {} > {}",
                r.cycles,
                full.cycles
            );
            // The retired stream and cache/predictor state evolution are
            // untouched by idealization.
            assert_eq!(r.instructions, full.instructions, "{ideal:?}");
            assert_eq!(r.misses, full.misses, "{ideal:?}");
            assert_eq!(r.branch.branches, full.branch.branches, "{ideal:?}");
        }
        // Oracle prediction eliminates mispredicts entirely.
        let oracle = run(SimIdealization {
            oracle_branches: true,
            ..SimIdealization::none()
        });
        assert_eq!(oracle.branch.mispredicts, 0);
        assert!(full.branch.mispredicts > 0);
        // A memory-bound kernel loses most of its cycles to the D-cache
        // knob.
        let mcf = mim_workloads::spec::mcf_like().program(mim_workloads::WorkloadSize::Tiny);
        let mcf_full = PipelineSim::new(&m).simulate(&mcf).unwrap();
        let mcf_ideal = PipelineSim::new(&m)
            .with_idealization(SimIdealization {
                perfect_dcache: true,
                ..SimIdealization::none()
            })
            .simulate(&mcf)
            .unwrap();
        assert!(
            (mcf_ideal.cycles as f64) < 0.3 * mcf_full.cycles as f64,
            "perfect D-cache should collapse a pointer chase: {} vs {}",
            mcf_ideal.cycles,
            mcf_full.cycles
        );
    }

    #[test]
    fn one_window_plan_degenerates_to_full_simulation() {
        // A plan whose single window covers the whole stream measures
        // every event as one unit: the point estimate is the full cycle
        // count (minus the pipeline-drain constant, which cancels in
        // watermark deltas) and the interval is degenerate.
        let p = mim_workloads::mibench::sha().program(mim_workloads::WorkloadSize::Tiny);
        let m = machine(4);
        let trace = mim_trace::Trace::record(&p, None).unwrap();
        let full = PipelineSim::new(&m).simulate(&p).unwrap();
        assert!(full.sampling.is_none());
        let whole = mim_trace::Sampling::new(trace.len(), trace.len());
        let mut replay = trace.replay(&p).unwrap().with_sampling(whole);
        let sampled = PipelineSim::new(&m).simulate_source(&mut replay).unwrap();
        let stats = sampled.sampling.as_ref().unwrap();
        assert_eq!(stats.units, 1);
        assert_eq!(stats.measured_instructions, full.instructions);
        assert!((stats.fraction - 1.0).abs() < 1e-12);
        assert_eq!(stats.ci_half_width, 0.0);
        assert_eq!(sampled.instructions, full.instructions);
        assert_eq!(sampled.misses, full.misses);
        assert_eq!(sampled.branch.mispredicts, full.branch.mispredicts);
        // Full reporting adds the +2 drain that the watermark delta omits.
        assert_eq!(sampled.cycles + 2, full.cycles);
    }

    #[test]
    fn sampled_cpi_tracks_full_cpi_with_warming() {
        use mim_trace::Sampling;
        let m = machine(4);
        for w in [
            mim_workloads::mibench::sha(),
            mim_workloads::mibench::qsort(),
        ] {
            let p = w.program(mim_workloads::WorkloadSize::Tiny);
            let full = PipelineSim::new(&m).simulate(&p).unwrap();
            let trace = mim_trace::Trace::record(&p, None).unwrap();
            let mut replay = trace
                .replay(&p)
                .unwrap()
                .with_sampling(Sampling::default_plan());
            let sampled = PipelineSim::new(&m).simulate_source(&mut replay).unwrap();
            let stats = sampled.sampling.as_ref().unwrap();
            assert!(stats.units > 5, "{}: only {} units", w.name(), stats.units);
            assert!(
                stats.fraction < 0.15,
                "{}: measured fraction {}",
                w.name(),
                stats.fraction
            );
            // The point estimate must land within the reported interval
            // plus a small systematic allowance for window seams and
            // residual cold state after warm-up.
            let err = (sampled.cpi() - full.cpi()).abs();
            let tol = stats.ci_half_width + 0.02 * full.cpi();
            assert!(
                err <= tol,
                "{}: sampled CPI {} vs full {} (±{})",
                w.name(),
                sampled.cpi(),
                full.cpi(),
                stats.ci_half_width
            );
        }
    }

    #[test]
    fn warming_tightens_sampled_error() {
        // The same sampling geometry with warm-up disabled must not beat
        // the warmed run: cold cache/predictor state at each window start
        // biases per-unit CPI upward.
        use mim_trace::Sampling;
        let m = machine(4);
        let p = mim_workloads::mibench::qsort().program(mim_workloads::WorkloadSize::Tiny);
        let full = PipelineSim::new(&m).simulate(&p).unwrap();
        let trace = mim_trace::Trace::record(&p, None).unwrap();
        let run = |plan: Sampling| {
            let mut replay = trace.replay(&p).unwrap().with_sampling(plan);
            PipelineSim::new(&m).simulate_source(&mut replay).unwrap()
        };
        let warmed = run(Sampling::default_plan());
        let cold = run(Sampling::new(1000, 100).with_offset(100));
        let err_warm = (warmed.cpi() - full.cpi()).abs();
        let err_cold = (cold.cpi() - full.cpi()).abs();
        assert!(
            err_warm <= err_cold + 1e-9,
            "warming should not hurt: warm {err_warm} vs cold {err_cold}"
        );
    }

    #[test]
    fn timeline_is_off_by_default_and_strictly_out_of_band() {
        let p = mim_workloads::mibench::sha().program(mim_workloads::WorkloadSize::Tiny);
        let m = machine(4);
        let plain = PipelineSim::new(&m).simulate(&p).unwrap();
        assert!(plain.timeline.is_none());
        let timed = PipelineSim::new(&m)
            .with_timeline(5000)
            .simulate(&p)
            .unwrap();
        let tl = timed.timeline.as_ref().expect("timeline requested");
        // Out-of-band: every other field is untouched.
        assert_eq!(timed.cycles, plain.cycles);
        assert_eq!(timed.instructions, plain.instructions);
        assert_eq!(timed.misses, plain.misses);
        assert_eq!(timed.branch.mispredicts, plain.branch.mispredicts);
        // The timeline accounts for every instruction, and with the +2
        // pipeline-drain constant, every cycle.
        assert_eq!(tl.interval(), 5000);
        assert_eq!(tl.num_insts(), timed.instructions);
        assert_eq!(tl.total_cycles() + 2, timed.cycles);
        // Full-run intervals are full-width except possibly the last.
        for i in 0..tl.len() - 1 {
            assert_eq!(tl.insts_of(i), 5000, "interval {i}");
        }
        // Deterministic across runs (integer cycles end to end, so equal
        // values serialize to equal bytes).
        let again = PipelineSim::new(&m)
            .with_timeline(5000)
            .simulate(&p)
            .unwrap();
        assert_eq!(tl, again.timeline.as_ref().unwrap());
    }

    #[test]
    fn sampled_timeline_aligns_interval_for_interval_with_full() {
        use mim_trace::Sampling;
        let p = mim_workloads::mibench::qsort().program(mim_workloads::WorkloadSize::Tiny);
        let m = machine(4);
        let full = PipelineSim::new(&m)
            .with_timeline(2000)
            .simulate(&p)
            .unwrap();
        let ftl = full.timeline.as_ref().unwrap();
        let trace = mim_trace::Trace::record(&p, None).unwrap();

        // A plan whose one window covers the whole stream walks the
        // identical stream and must produce the identical timeline.
        let whole = Sampling::new(trace.len(), trace.len());
        let mut replay = trace.replay(&p).unwrap().with_sampling(whole);
        let degen = PipelineSim::new(&m)
            .with_timeline(2000)
            .simulate_source(&mut replay)
            .unwrap();
        assert_eq!(degen.timeline.as_ref().unwrap(), ftl);

        // With a plan, interval boundaries are positions in the *walked*
        // stream, so the sampled timeline has the same shape as the full
        // one and each interval's cycles cover exactly the measured
        // instructions inside it.
        let mut replay = trace
            .replay(&p)
            .unwrap()
            .with_sampling(Sampling::default_plan());
        let sampled = PipelineSim::new(&m)
            .with_timeline(2000)
            .simulate_source(&mut replay)
            .unwrap();
        let stl = sampled.timeline.as_ref().unwrap();
        let stats = sampled.sampling.as_ref().unwrap();
        assert_eq!(stl.len(), ftl.len(), "interval counts align");
        assert_eq!(stl.num_insts(), stats.measured_instructions);
        assert_eq!(stl.total_cycles(), stats.measured_cycles);
        for i in 0..stl.len() {
            assert!(
                stl.insts_of(i) <= ftl.insts_of(i),
                "interval {i}: sampled measures a subset"
            );
        }
        // The per-phase view localizes error: on covered intervals the
        // sampled CPI tracks the full CPI to first order.
        let covered: Vec<usize> = (0..stl.len()).filter(|&i| stl.insts_of(i) >= 200).collect();
        assert!(!covered.is_empty(), "plan must cover some intervals");
        let mean_err = covered
            .iter()
            .map(|&i| (stl.cpi_of_interval(i) - ftl.cpi_of_interval(i)).abs())
            .sum::<f64>()
            / covered.len() as f64;
        assert!(
            mean_err <= 0.5 * full.cpi(),
            "per-phase error {mean_err} vs full CPI {}",
            full.cpi()
        );
    }

    #[test]
    fn wider_machines_are_never_slower() {
        for w in [
            mim_workloads::mibench::sha(),
            mim_workloads::mibench::qsort(),
        ] {
            let p = w.program(mim_workloads::WorkloadSize::Tiny);
            let mut prev = u64::MAX;
            for width in 1..=4 {
                let r = PipelineSim::new(&machine(width)).simulate(&p).unwrap();
                assert!(
                    r.cycles <= prev,
                    "{}: width {width} slower ({} > {prev})",
                    w.name(),
                    r.cycles
                );
                prev = r.cycles;
            }
        }
    }
}
