//! CPI stacks: execution time split into mechanistic components.

use std::fmt;

use serde::{Deserialize, Serialize};

/// One component of a [`CpiStack`].
///
/// The fine-grained components can be aggregated into the coarser legends
/// the paper's figures use (e.g. Figure 4's "l2 access" is
/// [`IL2Access`](StackComponent::IL2Access) +
/// [`DL2Access`](StackComponent::DL2Access)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StackComponent {
    /// Minimum execution time `N/W`.
    Base,
    /// Multiply execute latency beyond one cycle (§3.4).
    Mul,
    /// Divide execute latency beyond one cycle (§3.4).
    Div,
    /// L1 data hit latency beyond one cycle, if configured (§3.4).
    L1HitExtra,
    /// Instruction-side L1 misses that hit in L2.
    IL2Access,
    /// Instruction-side L2 misses (serviced by memory).
    IL2Miss,
    /// Data-side L1 misses that hit in L2.
    DL2Access,
    /// Data-side L2 misses (serviced by memory).
    DL2Miss,
    /// Instruction + data TLB miss walks.
    TlbMiss,
    /// Branch misprediction penalty (front-end flush, Eq. 4).
    BranchMiss,
    /// Taken-branch hit penalty: fetch bubble per correctly predicted
    /// taken branch or unconditional jump (§3.3).
    TakenBranch,
    /// Same-stage dependencies on unit-latency producers (Eq. 11).
    DepUnit,
    /// Dependencies on long-latency producers excluding loads (Eq. 12).
    DepLL,
    /// Dependencies on load producers (Eq. 16).
    DepLoad,
}

impl StackComponent {
    /// All components in canonical (display) order.
    pub const ALL: [StackComponent; 14] = [
        StackComponent::Base,
        StackComponent::Mul,
        StackComponent::Div,
        StackComponent::L1HitExtra,
        StackComponent::IL2Access,
        StackComponent::IL2Miss,
        StackComponent::DL2Access,
        StackComponent::DL2Miss,
        StackComponent::TlbMiss,
        StackComponent::BranchMiss,
        StackComponent::TakenBranch,
        StackComponent::DepUnit,
        StackComponent::DepLL,
        StackComponent::DepLoad,
    ];

    /// Number of components.
    pub const COUNT: usize = Self::ALL.len();

    /// Short display label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            StackComponent::Base => "base",
            StackComponent::Mul => "mul",
            StackComponent::Div => "div",
            StackComponent::L1HitExtra => "l1 hit extra",
            StackComponent::IL2Access => "il2 access",
            StackComponent::IL2Miss => "il2 miss",
            StackComponent::DL2Access => "dl2 access",
            StackComponent::DL2Miss => "dl2 miss",
            StackComponent::TlbMiss => "tlb miss",
            StackComponent::BranchMiss => "bpred miss",
            StackComponent::TakenBranch => "bpred hit (taken)",
            StackComponent::DepUnit => "dep (unit)",
            StackComponent::DepLL => "dep (long-lat)",
            StackComponent::DepLoad => "dep (load)",
        }
    }

    /// Position of this component in [`ALL`](StackComponent::ALL) — the
    /// row layout shared by [`CpiStack`] and [`CpiTimeline`].
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&c| c == self).expect("in ALL")
    }
}

/// A CPI stack: total execution cycles broken down by mechanistic cause.
///
/// Produced by [`MechanisticModel::predict`](crate::MechanisticModel::predict)
/// (and by the out-of-order comparator model). Component values are stored
/// as *cycles*; [`cpi_of`](CpiStack::cpi_of) normalizes by the instruction
/// count.
///
/// # Example
///
/// ```
/// use mim_core::{CpiStack, StackComponent};
///
/// let mut stack = CpiStack::new("demo", 1000);
/// stack.add(StackComponent::Base, 250.0);
/// stack.add(StackComponent::DepUnit, 50.0);
/// assert_eq!(stack.total_cycles(), 300.0);
/// assert!((stack.cpi() - 0.3).abs() < 1e-12);
/// assert!((stack.cpi_of(StackComponent::DepUnit) - 0.05).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpiStack {
    name: String,
    num_insts: u64,
    cycles: Vec<f64>,
}

impl CpiStack {
    /// Creates an all-zero stack for a run of `num_insts` instructions.
    pub fn new(name: impl Into<String>, num_insts: u64) -> CpiStack {
        CpiStack {
            name: name.into(),
            num_insts,
            cycles: vec![0.0; StackComponent::COUNT],
        }
    }

    /// Workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Dynamic instruction count the stack is normalized by.
    pub fn num_insts(&self) -> u64 {
        self.num_insts
    }

    /// Adds `cycles` to `component`.
    pub fn add(&mut self, component: StackComponent, cycles: f64) {
        self.cycles[component.index()] += cycles;
    }

    /// Cycles attributed to `component`.
    pub fn cycles_of(&self, component: StackComponent) -> f64 {
        self.cycles[component.index()]
    }

    /// CPI contribution of `component`.
    pub fn cpi_of(&self, component: StackComponent) -> f64 {
        if self.num_insts == 0 {
            0.0
        } else {
            self.cycles_of(component) / self.num_insts as f64
        }
    }

    /// Total predicted execution cycles (the model's `T`, Eq. 1).
    pub fn total_cycles(&self) -> f64 {
        self.cycles.iter().sum()
    }

    /// Overall cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.num_insts == 0 {
            0.0
        } else {
            self.total_cycles() / self.num_insts as f64
        }
    }

    /// Execution time in seconds at the given clock frequency.
    pub fn time_seconds(&self, frequency_ghz: f64) -> f64 {
        crate::cycles_to_seconds(self.total_cycles(), frequency_ghz)
    }

    /// Iterates `(component, cycles)` pairs in canonical order.
    pub fn components(&self) -> impl Iterator<Item = (StackComponent, f64)> + '_ {
        StackComponent::ALL
            .iter()
            .map(move |&c| (c, self.cycles_of(c)))
    }

    // -- aggregations matching the paper's figure legends --------------------

    /// All dependency-induced cycles ("dependencies" in Figures 4, 7, 8).
    pub fn dependencies(&self) -> f64 {
        self.cycles_of(StackComponent::DepUnit)
            + self.cycles_of(StackComponent::DepLL)
            + self.cycles_of(StackComponent::DepLoad)
    }

    /// Multiply + divide latency cycles ("mul/div").
    pub fn mul_div(&self) -> f64 {
        self.cycles_of(StackComponent::Mul) + self.cycles_of(StackComponent::Div)
    }

    /// L1-miss-but-L2-hit cycles, instruction + data ("l2 access").
    pub fn l2_access(&self) -> f64 {
        self.cycles_of(StackComponent::IL2Access) + self.cycles_of(StackComponent::DL2Access)
    }

    /// L2-miss cycles, instruction + data ("l2 miss").
    pub fn l2_miss(&self) -> f64 {
        self.cycles_of(StackComponent::IL2Miss) + self.cycles_of(StackComponent::DL2Miss)
    }

    // -- aggregations matching mim-validate's attribution terms --------------

    /// Instruction-side cache-miss cycles (L1I misses serviced by L2 or
    /// memory). TLB-walk cycles are kept separate because the model lumps
    /// instruction and data walks into one component; use
    /// [`MechanisticModel::miss_penalty`](crate::MechanisticModel::miss_penalty)
    /// with the per-side walk counts to split them.
    pub fn icache_cycles(&self) -> f64 {
        self.cycles_of(StackComponent::IL2Access) + self.cycles_of(StackComponent::IL2Miss)
    }

    /// Data-side cache cycles: L1D misses serviced by L2 or memory, plus
    /// any extra L1-hit latency.
    pub fn dcache_cycles(&self) -> f64 {
        self.cycles_of(StackComponent::DL2Access)
            + self.cycles_of(StackComponent::DL2Miss)
            + self.cycles_of(StackComponent::L1HitExtra)
    }

    /// All branch-induced cycles: misprediction flushes plus taken-branch
    /// fetch bubbles.
    pub fn branch_cycles(&self) -> f64 {
        self.cycles_of(StackComponent::BranchMiss) + self.cycles_of(StackComponent::TakenBranch)
    }
}

/// A time-resolved CPI stack: cycle attribution per fixed-width
/// instruction interval, the simulated-time analogue of a profiler
/// timeline.
///
/// Intervals are `interval` instructions wide, measured over the *walked*
/// stream. Each interval carries a compact row of attributed cycles
/// aligned with [`StackComponent::ALL`] plus the number of instructions
/// actually *measured* inside it — for a full simulation that equals the
/// interval width (last interval excepted), for a sampled simulation only
/// the in-window instructions, so sampled and full timelines of the same
/// stream align interval-for-interval and can be compared per phase.
///
/// Values are integer cycles: a timeline built from the same stream is
/// byte-identical across runs, thread counts, and timing on/off.
///
/// # Example
///
/// ```
/// use mim_core::{CpiTimeline, StackComponent};
///
/// let mut tl = CpiTimeline::new(1000);
/// let mut row = [0u64; StackComponent::COUNT];
/// row[StackComponent::Base.index()] = 500;
/// row[StackComponent::DL2Miss.index()] = 250;
/// tl.push_row(1000, row);
/// assert_eq!(tl.len(), 1);
/// assert_eq!(tl.total_cycles(), 750);
/// assert!((tl.cpi_of_interval(0) - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpiTimeline {
    interval: u64,
    insts: Vec<u64>,
    rows: Vec<Vec<u64>>,
}

impl CpiTimeline {
    /// Creates an empty timeline with `interval`-instruction buckets
    /// (minimum 1).
    pub fn new(interval: u64) -> CpiTimeline {
        CpiTimeline {
            interval: interval.max(1),
            insts: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Interval width in walked instructions.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Number of intervals recorded.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no interval has been recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends one interval: `insts` measured instructions and a cycle
    /// row aligned with [`StackComponent::ALL`].
    pub fn push_row(&mut self, insts: u64, row: [u64; StackComponent::COUNT]) {
        self.insts.push(insts);
        self.rows.push(row.to_vec());
    }

    /// Instructions measured inside interval `i`.
    pub fn insts_of(&self, i: usize) -> u64 {
        self.insts[i]
    }

    /// Total instructions measured across all intervals.
    pub fn num_insts(&self) -> u64 {
        self.insts.iter().sum()
    }

    /// Cycles attributed to `component` in interval `i`.
    pub fn cycles_of(&self, i: usize, component: StackComponent) -> u64 {
        self.rows[i][component.index()]
    }

    /// Total cycles charged to interval `i`.
    pub fn interval_cycles(&self, i: usize) -> u64 {
        self.rows[i].iter().sum()
    }

    /// Total cycles across all intervals.
    pub fn total_cycles(&self) -> u64 {
        self.rows.iter().flatten().sum()
    }

    /// CPI of interval `i` over its measured instructions (0 when the
    /// interval measured nothing — e.g. a fully skipped sampled
    /// interval).
    pub fn cpi_of_interval(&self, i: usize) -> f64 {
        if self.insts[i] == 0 {
            0.0
        } else {
            self.interval_cycles(i) as f64 / self.insts[i] as f64
        }
    }

    /// Interval `i` as a named [`CpiStack`] (cycles widened to `f64`,
    /// normalized by the interval's measured instructions).
    pub fn sample(&self, i: usize) -> CpiStack {
        let mut stack = CpiStack::new(format!("interval-{i}"), self.insts[i]);
        for (c, &cycles) in StackComponent::ALL.iter().zip(&self.rows[i]) {
            stack.add(*c, cycles as f64);
        }
        stack
    }
}

impl fmt::Display for CpiStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "CPI stack for {} ({} insts): CPI = {:.4}",
            self.name,
            self.num_insts,
            self.cpi()
        )?;
        for (c, cycles) in self.components() {
            if cycles != 0.0 {
                writeln!(
                    f,
                    "  {:<18} {:>10.4}  ({:>5.1}%)",
                    c.label(),
                    cycles / self.num_insts.max(1) as f64,
                    100.0 * cycles / self.total_cycles().max(f64::MIN_POSITIVE)
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_and_totals_are_consistent() {
        let mut s = CpiStack::new("t", 100);
        s.add(StackComponent::Base, 25.0);
        s.add(StackComponent::Mul, 5.0);
        s.add(StackComponent::Div, 2.0);
        s.add(StackComponent::DepLoad, 8.0);
        let sum: f64 = s.components().map(|(_, c)| c).sum();
        assert!((sum - s.total_cycles()).abs() < 1e-12);
        assert!((s.mul_div() - 7.0).abs() < 1e-12);
        assert!((s.dependencies() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn time_scales_inverse_with_frequency() {
        let mut s = CpiStack::new("t", 10);
        s.add(StackComponent::Base, 1000.0);
        let t1 = s.time_seconds(1.0);
        let t2 = s.time_seconds(2.0);
        assert!((t1 / t2 - 2.0).abs() < 1e-12);
        assert!((t1 - 1e-6).abs() < 1e-18);
    }

    #[test]
    fn zero_instruction_stack_is_safe() {
        let s = CpiStack::new("empty", 0);
        assert_eq!(s.cpi(), 0.0);
        assert_eq!(s.cpi_of(StackComponent::Base), 0.0);
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = StackComponent::ALL.iter().map(|c| c.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), StackComponent::COUNT);
    }

    #[test]
    fn display_contains_nonzero_components_only() {
        let mut s = CpiStack::new("t", 100);
        s.add(StackComponent::Base, 25.0);
        let out = s.to_string();
        assert!(out.contains("base"));
        assert!(!out.contains("bpred miss"));
    }
}
