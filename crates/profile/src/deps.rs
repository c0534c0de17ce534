//! Dependency-distance tracking (the `deps_*(d)` profiles of Table 1).

use mim_core::{DepHistogram, ModelInputs};
use mim_isa::{InstClass, Reg, TraceEvent, NUM_REGS};

/// Producer class for dependency classification (paper §3.5): unit-latency
/// ALU producers, long-latency producers (multiply/divide), and loads —
/// loads are separate because they deliver in the memory stage. Ordered
/// from least to most constraining, the tie rule of [`nearest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ProducerKind {
    Unit,
    LongLatency,
    Load,
}

impl ProducerKind {
    fn of(class: InstClass) -> ProducerKind {
        match class {
            InstClass::Load => ProducerKind::Load,
            InstClass::Mul | InstClass::Div => ProducerKind::LongLatency,
            _ => ProducerKind::Unit,
        }
    }
}

/// Streaming tracker of nearest-producer dependency distances.
///
/// For every retired instruction, the tracker finds the *closest* producer
/// among its source registers (the paper counts the shortest dependency
/// distance when there are two producers) and records the distance in the
/// histogram matching that producer's class.
///
/// # Example
///
/// ```
/// use mim_isa::{ProgramBuilder, Reg, Vm};
/// use mim_profile::DepTracker;
///
/// # fn main() -> Result<(), mim_isa::VmError> {
/// let mut b = ProgramBuilder::new();
/// b.li(Reg::R1, 5);
/// b.addi(Reg::R2, Reg::R1, 1); // depends on li at distance 1
/// b.halt();
/// let p = b.build();
/// let mut tracker = DepTracker::new();
/// Vm::new(&p).run_with(None, |ev| tracker.observe(ev))?;
/// let (unit, _ll, _load) = tracker.into_histograms();
/// assert_eq!(unit.at(1), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DepTracker {
    /// Per-register: sequence number and class of the last producer.
    last_writer: [Option<(u64, ProducerKind)>; NUM_REGS],
    seq: u64,
    unit: DepHistogram,
    ll: DepHistogram,
    load: DepHistogram,
}

impl Default for DepTracker {
    fn default() -> DepTracker {
        DepTracker::new()
    }
}

impl DepTracker {
    /// Creates an empty tracker.
    pub fn new() -> DepTracker {
        DepTracker {
            last_writer: [None; NUM_REGS],
            seq: 0,
            unit: DepHistogram::new(),
            ll: DepHistogram::new(),
            load: DepHistogram::new(),
        }
    }

    /// Observes one retired instruction.
    pub fn observe(&mut self, ev: &TraceEvent) {
        self.seq += 1;
        self.record_nearest(self.seq, ev.sources);
        if let Some(dst) = ev.dst {
            self.last_writer[dst.index()] = Some((self.seq, ProducerKind::of(ev.class)));
        }
    }

    /// Observes one whole execution of the basic block summarized by
    /// `block`, exactly as [`observe`](DepTracker::observe) on each of its
    /// instructions in order would: only the block's live-in sources are
    /// looked up in the register table.
    pub(crate) fn observe_block(&mut self, block: &BlockDeps) {
        let base = self.seq;
        for &(offset, sources) in &block.live_in {
            self.record_nearest(base + 1 + offset, sources);
        }
        for &dep in &block.local {
            self.record(dep);
        }
        for &(reg, offset, kind) in &block.writes {
            self.last_writer[reg] = Some((base + 1 + offset, kind));
        }
        self.seq = base + block.len;
    }

    /// Records the nearest producer in the register table of the
    /// instruction with sequence number `t` reading `sources`.
    fn record_nearest(&mut self, t: u64, sources: [Option<Reg>; 2]) {
        let producers = sources
            .into_iter()
            .flatten()
            .filter_map(|src| self.last_writer[src.index()].map(|(wseq, kind)| (t - wseq, kind)));
        if let Some(dep) = nearest(producers) {
            self.record(dep);
        }
    }

    fn record(&mut self, (d, kind): (u64, ProducerKind)) {
        let d = d as usize;
        match kind {
            ProducerKind::Unit => self.unit.record(d),
            ProducerKind::LongLatency => self.ll.record(d),
            ProducerKind::Load => self.load.record(d),
        }
    }

    /// Consumes the tracker, returning `(deps_unit, deps_LL, deps_ld)`.
    pub fn into_histograms(self) -> (DepHistogram, DepHistogram, DepHistogram) {
        (self.unit, self.ll, self.load)
    }

    /// Writes the histograms into a [`ModelInputs`].
    pub fn fill(self, inputs: &mut ModelInputs) {
        let (unit, ll, load) = self.into_histograms();
        inputs.deps_unit = unit;
        inputs.deps_ll = ll;
        inputs.deps_load = load;
    }
}

/// The dependency facts of one basic block that do not depend on what
/// ran before it, computed once per block by [`BlockDeps::of`].
///
/// Inside a block, a source written earlier in the same block has a
/// static distance, and that producer is always nearer than any producer
/// from before the block. So only instructions whose sources are all
/// live-ins need the dynamic register table.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockDeps {
    /// Nearest producer (distance, kind) of every instruction that has
    /// one inside the block.
    local: Vec<(u64, ProducerKind)>,
    /// Instructions whose sources all come from before the block:
    /// (offset in the block, sources).
    live_in: Vec<(u64, [Option<Reg>; 2])>,
    /// The last write of each register the block writes:
    /// (register index, offset, kind).
    writes: Vec<(usize, u64, ProducerKind)>,
    /// Instructions in the block.
    len: u64,
}

impl BlockDeps {
    /// Summarizes a block from its static event templates, in program
    /// order.
    pub(crate) fn of(events: &[TraceEvent]) -> BlockDeps {
        let mut writer: [Option<(u64, ProducerKind)>; NUM_REGS] = [None; NUM_REGS];
        let mut block = BlockDeps {
            len: events.len() as u64,
            ..BlockDeps::default()
        };
        for (offset, ev) in (0u64..).zip(events) {
            let producers = ev.sources.into_iter().flatten().filter_map(|src| {
                writer[src.index()].map(|(woffset, kind)| (offset - woffset, kind))
            });
            match nearest(producers) {
                Some(dep) => block.local.push(dep),
                None if ev.sources.iter().any(Option::is_some) => {
                    block.live_in.push((offset, ev.sources));
                }
                None => {}
            }
            if let Some(dst) = ev.dst {
                writer[dst.index()] = Some((offset, ProducerKind::of(ev.class)));
            }
        }
        block.writes = (0..NUM_REGS)
            .filter_map(|reg| writer[reg].map(|(offset, kind)| (reg, offset, kind)))
            .collect();
        block
    }
}

/// The nearest of a consumer's producers, as (distance, kind). On a
/// distance tie, the more constraining producer class wins (load, then
/// long-latency, then unit), matching the pipeline, where the
/// later-delivering producer determines the stall.
fn nearest(producers: impl Iterator<Item = (u64, ProducerKind)>) -> Option<(u64, ProducerKind)> {
    producers.fold(None, |best, (d, kind)| match best {
        Some((best_d, best_kind)) if d > best_d || (d == best_d && kind <= best_kind) => best,
        _ => Some((d, kind)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mim_isa::{ProgramBuilder, Reg::*, Vm};

    fn histograms_of(
        build: impl FnOnce(&mut ProgramBuilder),
    ) -> (DepHistogram, DepHistogram, DepHistogram) {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        b.halt();
        let p = b.build();
        let mut t = DepTracker::new();
        Vm::new(&p).run_with(None, |ev| t.observe(ev)).unwrap();
        t.into_histograms()
    }

    #[test]
    fn classifies_producers_by_class() {
        let (unit, ll, load) = histograms_of(|b| {
            let a = b.data_words(&[7]);
            b.li(R1, a as i64);
            b.ld(R2, R1, 0); // consumer of li (unit) at d=1
            b.addi(R3, R2, 1); // consumer of load at d=1
            b.mul(R4, R3, R3); // consumer of unit at d=1
            b.addi(R5, R4, 1); // consumer of mul (LL) at d=1
        });
        assert_eq!(unit.at(1), 2); // ld<-li and mul<-addi
        assert_eq!(load.at(1), 1);
        assert_eq!(ll.at(1), 1);
    }

    #[test]
    fn takes_nearest_producer() {
        let (unit, _, _) = histograms_of(|b| {
            b.li(R1, 1); // producer A (distance 2 from consumer)
            b.li(R2, 2); // producer B (distance 1 from consumer)
            b.add(R3, R1, R2); // nearest is R2 at d=1
        });
        assert_eq!(unit.at(1), 1); // only the shortest distance is recorded
        assert_eq!(unit.at(2), 0);
    }

    #[test]
    fn nearest_producer_class_wins() {
        let (unit, _, load) = histograms_of(|b| {
            let a = b.data_words(&[3]);
            b.li(R1, a as i64);
            b.li(R2, 5); // unit producer, d=2 from consumer
            b.ld(R3, R1, 0); // load producer, d=1 from consumer
            b.add(R4, R2, R3); // min distance 1 via the load
        });
        assert_eq!(load.at(1), 1);
        assert_eq!(unit.at(2), 1); // the ld itself consumed R1 at d=2
    }

    #[test]
    fn rewritten_register_hides_older_producer() {
        let (unit, _, load) = histograms_of(|b| {
            let a = b.data_words(&[3]);
            b.li(R1, a as i64);
            b.ld(R2, R1, 0); // load consumes R1 (unit producer, d=1)
            b.li(R2, 9); // overwrites the load's result
            b.addi(R3, R2, 1); // consumer sees the li, not the load
        });
        assert_eq!(load.total(), 0); // nothing ever consumed a load result
        assert_eq!(unit.at(1), 2); // ld<-li(R1) and addi<-li(R2)
    }

    #[test]
    fn distances_beyond_max_are_dropped() {
        let (unit, _, _) = histograms_of(|b| {
            b.li(R1, 1);
            for _ in 0..100 {
                b.li(R2, 0); // padding, no deps on R1
            }
            b.addi(R3, R1, 1); // d=101 > MAX_DEP_DISTANCE
        });
        assert_eq!(unit.total(), 0);
    }
}
