//! The one-pass profiler and its design-space sweep variant.

use mim_bpred::{BranchPredictor, BranchStats, PredictorConfig};
use mim_cache::{BlockFetches, CacheConfig, Hierarchy, HierarchyConfig, MemAccessKind, MissCounts};
use mim_core::{InstMix, MachineConfig, ModelInputs};
use mim_isa::{Block, BlockEngine, BlockHooks, InstClass, Program, TraceEvent, VmError};
use mim_trace::{TraceError, TraceSource};
use serde::{Deserialize, Serialize};

use crate::deps::{BlockDeps, DepTracker};

/// Everything one profiling pass learns about a workload: the
/// machine-independent program statistics plus per-candidate miss and
/// misprediction counts for every L2 cache and branch predictor in the
/// sweep.
///
/// Extract the mechanistic-model inputs for a specific design point with
/// [`inputs_for`](WorkloadProfile::inputs_for).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadProfile {
    /// Workload name.
    pub name: String,
    /// Dynamic instruction count.
    pub num_insts: u64,
    /// Dynamic instruction mix.
    pub mix: InstMix,
    /// Dependency histograms (unit / long-latency / load producers).
    pub deps_unit: mim_core::DepHistogram,
    /// Dependencies on multiply/divide producers.
    pub deps_ll: mim_core::DepHistogram,
    /// Dependencies on load producers.
    pub deps_load: mim_core::DepHistogram,
    /// Miss counts per L2 candidate (indexed like the sweep's L2 list).
    pub misses: Vec<MissCounts>,
    /// Prediction statistics per predictor candidate (indexed like the
    /// sweep's predictor list).
    pub branch: Vec<PredictorStats>,
}

/// One predictor candidate's record in a [`WorkloadProfile`]: its
/// [`PredictorConfig::name`] and its [`BranchStats`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PredictorStats {
    /// Predictor name.
    pub name: String,
    /// Conditional branches observed.
    pub branches: u64,
    /// Mispredicted conditional branches.
    pub mispredicts: u64,
    /// Correctly predicted branches whose prediction was taken.
    pub taken_correct: u64,
}

impl PredictorStats {
    /// The candidate's counts, as the model reads them.
    pub fn counts(&self) -> BranchStats {
        BranchStats {
            branches: self.branches,
            mispredicts: self.mispredicts,
            taken_correct: self.taken_correct,
        }
    }
}

impl WorkloadProfile {
    /// Builds [`ModelInputs`] for the design point using the
    /// `l2_index`-th cache candidate and `predictor_index`-th predictor.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range for the profiled sweep.
    pub fn inputs_for(&self, l2_index: usize, predictor_index: usize) -> ModelInputs {
        ModelInputs {
            name: self.name.clone(),
            num_insts: self.num_insts,
            mix: self.mix,
            deps_unit: self.deps_unit.clone(),
            deps_ll: self.deps_ll.clone(),
            deps_load: self.deps_load.clone(),
            misses: self.misses[l2_index],
            branch: self.branch[predictor_index].counts(),
        }
    }
}

impl std::fmt::Display for WorkloadProfile {
    /// One human-readable summary line per profile — the form signature
    /// tables and validation reports embed, e.g.
    /// `sha: 21514 insts, mix alu 62.8% mul 4.7% div 0.0% ld 15.6% st 7.8%
    /// br 7.8% jmp 1.2%, deps 12843, 8 L2 x 2 predictor candidates`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pct = |n: u64| 100.0 * n as f64 / self.num_insts.max(1) as f64;
        write!(
            f,
            "{}: {} insts, mix alu {:.1}% mul {:.1}% div {:.1}% ld {:.1}% st {:.1}% \
             br {:.1}% jmp {:.1}%, deps {}, {} L2 x {} predictor candidates",
            self.name,
            self.num_insts,
            pct(self.mix.alu),
            pct(self.mix.mul),
            pct(self.mix.div),
            pct(self.mix.load),
            pct(self.mix.store),
            pct(self.mix.cond_branch),
            pct(self.mix.jump),
            self.deps_unit.total() + self.deps_ll.total() + self.deps_load.total(),
            self.misses.len(),
            self.branch.len(),
        )
    }
}

/// Profiles a workload once for an entire design space: all L2 cache
/// candidates via one many-candidate [`Hierarchy`] and all
/// branch predictors over the one branch stream (paper §2.1).
///
/// # Example
///
/// ```
/// use mim_bpred::PredictorConfig;
/// use mim_cache::{CacheConfig, HierarchyConfig};
/// use mim_profile::SweepProfiler;
/// use mim_workloads::{mibench, WorkloadSize};
///
/// # fn main() -> Result<(), mim_isa::VmError> {
/// let profiler = SweepProfiler::new(
///     HierarchyConfig::default_hierarchy(),
///     vec![CacheConfig::new("L2-256K", 256 * 1024, 8, 64).unwrap()],
///     vec![PredictorConfig::gshare_1k()],
/// );
/// let program = mibench::dijkstra().program(WorkloadSize::Tiny);
/// let profile = profiler.profile(&program, None)?;
/// assert_eq!(profile.misses.len(), 1);
/// assert!(profile.num_insts > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SweepProfiler {
    base: HierarchyConfig,
    l2s: Vec<CacheConfig>,
    predictors: Vec<PredictorConfig>,
}

impl SweepProfiler {
    /// Creates a profiler for the given L1/TLB geometry and candidate
    /// lists.
    pub fn new(
        base: HierarchyConfig,
        l2s: Vec<CacheConfig>,
        predictors: Vec<PredictorConfig>,
    ) -> SweepProfiler {
        SweepProfiler {
            base,
            l2s,
            predictors,
        }
    }

    /// Convenience constructor covering one profiling pass for an entire
    /// design space: the space's base L1/TLB geometry plus every L2 and
    /// predictor candidate.
    pub fn for_design_space(space: &mim_core::DesignSpace) -> SweepProfiler {
        SweepProfiler::new(
            space.base().hierarchy.clone(),
            space.l2_configs().to_vec(),
            space.predictor_configs().to_vec(),
        )
    }

    /// Runs the workload functionally once, collecting all statistics.
    ///
    /// `limit` bounds the number of retired instructions (useful for
    /// sampling long workloads); `None` runs to completion. The pass runs
    /// on the block-compiled engine — the profiler's collector is a
    /// [`BlockHooks`] set, so no per-event [`TraceEvent`] reconstruction
    /// happens between execution and the cache/predictor models.
    /// [`profile_source`](SweepProfiler::profile_source) over
    /// [`LiveVm::interpreted`](mim_trace::LiveVm::interpreted) yields the
    /// identical profile from the per-step interpreter.
    ///
    /// This live pass costs one functional execution.
    /// [`profile_source`](SweepProfiler::profile_source) over a replay of
    /// an existing recording costs none and runs at about the same rate,
    /// since both charge whole blocks; recording only to profile once
    /// costs more than this pass.
    ///
    /// # Errors
    ///
    /// Propagates [`VmError`] if the program faults.
    pub fn profile(
        &self,
        program: &Program,
        limit: Option<u64>,
    ) -> Result<WorkloadProfile, VmError> {
        let mut collector = self.collector();
        let mut engine = BlockEngine::new(program);
        engine.run_hooks(limit, &mut collector)?;
        Ok(collector.into_profile(program.name().to_string(), &self.predictors))
    }

    /// Profiles the dynamic instruction stream produced by any
    /// [`TraceSource`], collecting all sweep statistics in one pass. The
    /// collector runs on the source's hooks, so a replay's whole blocks
    /// are charged per block, exactly as [`profile`](SweepProfiler::profile)
    /// charges the engine's. A sampling plan on the source filters only
    /// its closure drivers, so a sampled replay is profiled whole.
    ///
    /// # Errors
    ///
    /// Propagates the source's [`TraceError`] (a functional fault for live
    /// sources, a corrupt recording for replays).
    pub fn profile_source<S: TraceSource>(
        &self,
        source: &mut S,
    ) -> Result<WorkloadProfile, TraceError> {
        let name = source.name().to_string();
        let mut collector = self.collector();
        source.drive_hooks(&mut collector)?;
        Ok(collector.into_profile(name, &self.predictors))
    }

    /// A fresh statistics collector for this sweep's candidate lists.
    fn collector(&self) -> Collector {
        Collector {
            caches: Hierarchy::sweep(&self.base, self.l2s.clone()),
            preds: self
                .predictors
                .iter()
                .map(|p| (p.build(), BranchStats::default()))
                .collect(),
            deps: DepTracker::new(),
            mix: InstMix::default(),
            summaries: Vec::new(),
            fetches: BlockFetches::default(),
        }
    }
}

/// The profiling pass's mutable state: instruction mix, dependency
/// tracker, the many-candidate cache hierarchy, and each predictor
/// candidate with its counts — everything one retired instruction touches.
///
/// The collector is a [`BlockHooks`] set. An instruction that arrives
/// outside a block has its mix, dependencies and fetch charged as it
/// arrives. A block works from a static [`BlockSummary`] computed the
/// first time the block runs:
///
/// - per block, charged once at the end: the mix and the in-block
///   dependencies, times the block's execution count (both are sums);
/// - per block execution, at [`begin_block`](BlockHooks::begin_block):
///   the live-in dependencies, the last writers and the sequence number;
/// - per fetch run, at the run's first instruction (for the block's first
///   run, at `begin_block`, which nothing comes between): the fetches of
///   one [`FetchRun`] (one per L1I line and ITLB page the block crosses)
///   to the fetch memo, the ITLB, the L1I and, on a miss, the L2s;
/// - per instruction: a countdown to the next fetch run, then the data
///   accesses and the branch outcomes, each recorded against every
///   predictor candidate before that candidate trains on it.
///
/// The orders give the same profile because neither the mix nor the
/// dependency tracker reads the caches or the predictors, and the caches
/// still see every fetch run and data access in program order, which
/// matters because the L2s are unified.
///
/// The interpreter, the block engine's careful tail and a replay's
/// mid-block tail (a limit that ends mid-block) fire no `begin_block`, so
/// their instructions take the per-instruction path.
struct Collector {
    caches: Hierarchy,
    /// Each predictor candidate and its counts, in the sweep's order.
    preds: Vec<(Box<dyn BranchPredictor>, BranchStats)>,
    deps: DepTracker,
    /// The mix of the per-instruction paths; the blocks' mix is added in
    /// [`into_profile`](Collector::into_profile).
    mix: InstMix,
    /// Static summaries of the blocks seen so far, by entry pc.
    summaries: Vec<Option<BlockSummary>>,
    /// The blocks' fetch runs and the current block's countdown.
    fetches: BlockFetches,
}

/// The static facts of one basic block and how often it ran: its mix and
/// its dependency summary.
struct BlockSummary {
    /// Uninterrupted executions of the block.
    executions: u64,
    mix: InstMix,
    deps: BlockDeps,
}

impl BlockSummary {
    fn of(block: &Block) -> BlockSummary {
        let events = block.events();
        // Charging a whole block at entry relies on every template
        // retiring exactly once per uninterrupted execution.
        assert_eq!(events.len() as u64, block.instructions());
        let mut mix = InstMix::default();
        for ev in events {
            count(&mut mix, ev.class);
        }
        BlockSummary {
            executions: 0,
            mix,
            deps: BlockDeps::of(events),
        }
    }
}

/// Adds one instruction of `class` to the mix.
#[inline(always)]
fn count(mix: &mut InstMix, class: InstClass) {
    match class {
        InstClass::Mul => mix.mul += 1,
        InstClass::Div => mix.div += 1,
        InstClass::Load => mix.load += 1,
        InstClass::Store => mix.store += 1,
        InstClass::CondBranch => mix.cond_branch += 1,
        InstClass::Jump => mix.jump += 1,
        _ => mix.alu += 1,
    }
}

impl Collector {
    fn into_profile(mut self, name: String, predictors: &[PredictorConfig]) -> WorkloadProfile {
        for s in self.summaries.iter().flatten() {
            let (n, m) = (s.executions, &s.mix);
            self.mix.alu += n * m.alu;
            self.mix.mul += n * m.mul;
            self.mix.div += n * m.div;
            self.mix.load += n * m.load;
            self.mix.store += n * m.store;
            self.mix.cond_branch += n * m.cond_branch;
            self.mix.jump += n * m.jump;
            self.deps.charge_local(&s.deps, n);
        }
        let (deps_unit, deps_ll, deps_load) = self.deps.into_histograms();
        let misses = (0..self.caches.candidates())
            .map(|i| self.caches.counts(i))
            .collect();
        WorkloadProfile {
            name,
            num_insts: self.mix.total(),
            mix: self.mix,
            deps_unit,
            deps_ll,
            deps_load,
            misses,
            branch: predictors
                .iter()
                .zip(&self.preds)
                .map(|(config, (_, b))| PredictorStats {
                    name: config.name(),
                    branches: b.branches,
                    mispredicts: b.mispredicts,
                    taken_correct: b.taken_correct,
                })
                .collect(),
        }
    }
}

impl BlockHooks for Collector {
    fn begin_block(&mut self, block: &Block) {
        let pc = block.entry_pc() as usize;
        if pc >= self.summaries.len() {
            self.summaries.resize_with(pc + 1, || None);
        }
        let summary = self.summaries[pc].get_or_insert_with(|| BlockSummary::of(block));
        summary.executions += 1;
        self.deps.observe_block(&summary.deps);
        self.fetches
            .begin(&self.caches, block.entry_pc(), block.instructions(), || {
                block.events().iter().map(|ev| Program::inst_addr(ev.pc))
            });
    }

    #[inline(always)]
    fn before_instruction(&mut self, op: &TraceEvent) {
        if self.fetches.in_block() {
            if let Some(run) = self.fetches.step() {
                self.caches.fetch_run(&run);
            }
            return;
        }
        // Outside a block: this instruction's mix, dependencies and fetch.
        count(&mut self.mix, op.class);
        self.deps.observe(op);
        self.caches
            .access(MemAccessKind::Fetch, Program::inst_addr(op.pc));
    }

    #[inline(always)]
    fn mem_access(&mut self, op: &TraceEvent, addr: u64) {
        let kind = if op.class == InstClass::Load {
            MemAccessKind::Load
        } else {
            MemAccessKind::Store
        };
        self.caches.access(kind, addr);
    }

    #[inline(always)]
    fn cond_branch(&mut self, op: &TraceEvent, taken: bool) {
        // Conditional branches only — jumps are always-taken and handled
        // analytically by the model.
        for (predictor, stats) in &mut self.preds {
            stats.record(predictor.predict(op.pc), taken);
            predictor.update(op.pc, taken);
        }
    }
}

/// Single-configuration convenience profiler: profiles a program for one
/// [`MachineConfig`] and returns ready-to-use [`ModelInputs`].
#[derive(Debug, Clone)]
pub struct Profiler {
    sweep: SweepProfiler,
}

impl Profiler {
    /// Creates a profiler matching one machine configuration: the
    /// one-point space [`DesignSpace::new(machine)`](mim_core::DesignSpace::new).
    pub fn new(machine: &MachineConfig) -> Profiler {
        let space = mim_core::DesignSpace::new(machine.clone());
        Profiler {
            sweep: SweepProfiler::for_design_space(&space),
        }
    }

    /// Profiles the program to completion.
    ///
    /// # Errors
    ///
    /// Propagates [`VmError`] if the program faults.
    pub fn profile(&self, program: &Program) -> Result<ModelInputs, VmError> {
        Ok(self.sweep.profile(program, None)?.inputs_for(0, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mim_core::DesignSpace;
    use mim_workloads::{mibench, WorkloadSize};

    #[test]
    fn mix_sums_to_instruction_count() {
        let machine = MachineConfig::default_config();
        let p = mibench::sha().program(WorkloadSize::Tiny);
        let inputs = Profiler::new(&machine).profile(&p).unwrap();
        assert_eq!(inputs.mix.total(), inputs.num_insts);
        assert!(inputs.mix.cond_branch > 0);
        assert!(inputs.mix.load > 0);
        assert!(inputs.num_insts > 10_000);
    }

    #[test]
    fn sweep_covers_all_candidates_consistently() {
        let space = DesignSpace::paper_table2();
        let profiler = SweepProfiler::for_design_space(&space);
        let p = mibench::qsort().program(WorkloadSize::Tiny);
        let profile = profiler.profile(&p, None).unwrap();
        assert_eq!(profile.misses.len(), 8);
        assert_eq!(profile.branch.len(), 2);
        // L1-side counts identical across L2 candidates.
        for m in &profile.misses {
            assert_eq!(m.l1d_misses, profile.misses[0].l1d_misses);
            assert_eq!(m.l1i_misses, profile.misses[0].l1i_misses);
            // L2 misses bounded by L1 misses.
            assert!(m.l2d_misses <= m.l1d_misses);
            assert!(m.l2i_misses <= m.l1i_misses);
        }
        // Larger same-associativity L2s never miss more (inclusion).
        // Candidates are ordered 128K-8w, 128K-16w, 256K-8w, ...
        let eight_way: Vec<&MissCounts> = profile.misses.iter().step_by(2).collect();
        for w in eight_way.windows(2) {
            assert!(w[1].l2d_misses + w[1].l2i_misses <= w[0].l2d_misses + w[0].l2i_misses);
        }
    }

    /// An empty L2 list profiles without a panic and reports no miss
    /// counts.
    #[test]
    fn no_l2_candidate_profiles_without_misses() {
        let machine = MachineConfig::default_config();
        let profiler = SweepProfiler::new(
            machine.hierarchy.clone(),
            Vec::new(),
            vec![machine.predictor.clone()],
        );
        let p = mibench::sha().program(WorkloadSize::Tiny);
        let profile = profiler.profile(&p, None).unwrap();
        assert!(profile.misses.is_empty());
        assert_eq!(profile.mix.total(), profile.num_insts);
    }

    #[test]
    fn display_and_serde_round_trip() {
        let space = DesignSpace::paper_table2();
        let profiler = SweepProfiler::for_design_space(&space);
        let p = mibench::sha().program(WorkloadSize::Tiny);
        let profile = profiler.profile(&p, None).unwrap();
        let line = profile.to_string();
        assert!(line.starts_with("sha: "), "got `{line}`");
        assert!(
            line.contains("8 L2 x 2 predictor candidates"),
            "got `{line}`"
        );
        // Profiles embed into JSON reports and come back intact.
        let json = serde_json::to_string(&profile).unwrap();
        let back: WorkloadProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back.num_insts, profile.num_insts);
        assert_eq!(back.mix, profile.mix);
        assert_eq!(back.misses, profile.misses);
    }

    #[test]
    fn profile_is_deterministic() {
        let machine = MachineConfig::default_config();
        let p = mibench::patricia().program(WorkloadSize::Tiny);
        let a = Profiler::new(&machine).profile(&p).unwrap();
        let b = Profiler::new(&machine).profile(&p).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn memory_bound_kernel_has_more_misses_than_compute_kernel() {
        let machine = MachineConfig::default_config();
        let profiler = Profiler::new(&machine);
        let mcf = profiler
            .profile(&mim_workloads::spec::mcf_like().program(WorkloadSize::Tiny))
            .unwrap();
        let sha = profiler
            .profile(&mibench::sha().program(WorkloadSize::Tiny))
            .unwrap();
        let rate = |m: &ModelInputs| m.misses.l2d_misses as f64 / m.num_insts.max(1) as f64;
        assert!(
            rate(&mcf) > 10.0 * rate(&sha),
            "mcf {} vs sha {}",
            rate(&mcf),
            rate(&sha)
        );
    }

    #[test]
    fn limit_truncates_profiling() {
        let machine = MachineConfig::default_config();
        let p = mibench::dijkstra().program(WorkloadSize::Small);
        let profiler = SweepProfiler::new(
            machine.hierarchy.clone(),
            vec![machine.hierarchy.l2.clone()],
            vec![machine.predictor.clone()],
        );
        let profile = profiler.profile(&p, Some(5_000)).unwrap();
        assert_eq!(profile.num_insts, 5_000);
    }

    #[test]
    fn scheduling_reduces_short_distance_dependencies() {
        // The §6.2 premise: the list scheduler stretches dependency
        // distances, visible directly in the profile.
        let machine = MachineConfig::default_config();
        let profiler = Profiler::new(&machine);
        let p = mibench::tiff2bw().program(WorkloadSize::Tiny);
        let s = mim_workloads::opt::schedule(&p);
        let base = profiler.profile(&p).unwrap();
        let sched = profiler.profile(&s).unwrap();
        let short = |m: &ModelInputs| {
            (1..4)
                .map(|d| m.deps_unit.at(d) + m.deps_ll.at(d) + m.deps_load.at(d))
                .sum::<u64>()
        };
        assert!(
            short(&sched) < short(&base),
            "scheduling did not reduce short dependencies: {} -> {}",
            short(&base),
            short(&sched)
        );
    }
}
