//! The [`TraceSource`] abstraction: one interface over live functional
//! execution and recorded-trace replay.

use mim_isa::{BlockEngine, BlockHooks, EventHooks, Program, RunOutcome, TraceEvent, Vm};

use crate::error::TraceError;

/// A producer of the dynamic instruction stream.
///
/// Timing consumers (`mim-pipeline`'s simulator, `mim-profile`'s
/// profilers) are written against this trait, so they neither know nor
/// care whether events come from a live functional pass ([`LiveVm`]) or
/// from a recorded [`Trace`](crate::Trace) ([`Replay`](crate::Replay)).
/// That decoupling is the paper's §2.1 framework applied to the whole
/// stack: functional execution happens once, timing passes happen per
/// design point.
///
/// Every source is observed through `mim-isa`'s one hook protocol,
/// [`BlockHooks`]: [`drive_hooks`](TraceSource::drive_hooks) is the one
/// method a source implements. The closure drivers
/// [`drive`](TraceSource::drive) and
/// [`drive_phased`](TraceSource::drive_phased) are provided on top of
/// it, through [`EventHooks`].
///
/// A source is driven **once**: a drive consumes the stream from the
/// source's current position to its end (instruction limits are a
/// property of the source, fixed at construction). Replays enforce this:
/// a second drive raises [`TraceError::Exhausted`] instead of silently
/// reporting a successful zero-event pass.
pub trait TraceSource {
    /// Name of the workload producing the stream.
    fn name(&self) -> &str;

    /// Fires `hooks` over every remaining instruction of the stream, as
    /// described on [`BlockHooks`], and reports how the underlying
    /// execution ended. Whole blocks arrive with
    /// [`begin_block`](BlockHooks::begin_block) where the source runs
    /// them whole: the block engine, and a replay away from its limit.
    /// The interpreter and the instructions before a limit that ends
    /// mid-block arrive without it.
    ///
    /// A source's sampling plan does not filter the hooks: they see the
    /// whole walked stream.
    ///
    /// # Errors
    ///
    /// [`LiveVm`] propagates functional faults as [`TraceError::Vm`];
    /// [`Replay`](crate::Replay) raises [`TraceError::Corrupt`] if the
    /// trace walks off the program text or its bytes are damaged
    /// (possible only for corrupted files —
    /// [`Trace::replay`](crate::Trace::replay) already rejects mismatched
    /// programs).
    fn drive_hooks<H: BlockHooks>(&mut self, hooks: &mut H) -> Result<RunOutcome, TraceError>;

    /// The sampling plan governing this source's stream, if any.
    ///
    /// Consumers that care about sample-unit structure (the sampled timing
    /// simulation) read the plan here; sources without one expose the
    /// whole stream as a single measured unit.
    fn sampling(&self) -> Option<Sampling> {
        None
    }

    /// Drives `observer` over every event the source's sampling plan
    /// measures — every event, for a source without a plan.
    ///
    /// # Errors
    ///
    /// Same contract as [`drive_hooks`](TraceSource::drive_hooks).
    fn drive(&mut self, observer: &mut dyn FnMut(&TraceEvent)) -> Result<RunOutcome, TraceError> {
        if self.sampling().is_none() {
            return self.drive_hooks(&mut EventHooks::new(observer));
        }
        self.drive_phased(&mut |phase, ev| {
            if phase == SamplePhase::Measure {
                observer(ev);
            }
        })
    }

    /// Drives `observer` with each event tagged by its [`SamplePhase`]
    /// under the source's sampling plan (everything
    /// [`SamplePhase::Measure`] without one).
    ///
    /// Sampled sources deliver [`SamplePhase::Warm`] events (walked for
    /// functional warming between detailed units) and
    /// [`SamplePhase::Measure`] events (inside a sample window);
    /// [`SamplePhase::Skip`] events are walked but never delivered — not
    /// simulating them is where sampling's speedup comes from.
    ///
    /// # Errors
    ///
    /// Same contract as [`drive_hooks`](TraceSource::drive_hooks).
    fn drive_phased(
        &mut self,
        observer: &mut dyn FnMut(SamplePhase, &TraceEvent),
    ) -> Result<RunOutcome, TraceError> {
        let mut runs = PhaseRuns::new(self.sampling());
        self.drive_hooks(&mut EventHooks::new(|ev: &TraceEvent| {
            let phase = runs.next_phase();
            if phase != SamplePhase::Skip {
                observer(phase, ev);
            }
        }))
    }
}

/// The role of one walked event under a [`Sampling`] plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplePhase {
    /// Fast-forward: the event is walked so control flow advances, but no
    /// observer sees it.
    Skip,
    /// Functional warming: the event should update cache-hierarchy and
    /// branch-predictor *state* only — no timing is charged.
    Warm,
    /// Detailed measurement: the event is inside a sample window and runs
    /// through the full timing model.
    Measure,
}

/// The functional backend a [`LiveVm`] drives: the per-step interpreter
/// ([`Vm`]) or the block-compiled engine ([`BlockEngine`]). Both fire the
/// same per-instruction hooks; only the engine adds `begin_block`, and
/// the choice otherwise only affects throughput.
enum Backend<'p> {
    Interp(Vm<'p>),
    Block(BlockEngine<'p>),
}

/// The live recording backend: drives a functional execution pass,
/// firing the hooks of each retired instruction as it executes.
///
/// This is the only [`TraceSource`] that actually executes the program;
/// it backs the program-based entry points (`PipelineSim::simulate`,
/// `SweepProfiler::profile`'s interpreted oracle). [`LiveVm::new`] runs
/// on the block-compiled [`BlockEngine`]; [`LiveVm::interpreted`] runs
/// the per-step interpreter, which yields the identical stream at a
/// fraction of the throughput and serves as the differential oracle.
pub struct LiveVm<'p> {
    program: &'p Program,
    backend: Backend<'p>,
    limit: Option<u64>,
}

impl<'p> LiveVm<'p> {
    /// A live source over a fresh block-compiled engine for `program`,
    /// unlimited.
    pub fn new(program: &'p Program) -> LiveVm<'p> {
        LiveVm {
            program,
            backend: Backend::Block(BlockEngine::new(program)),
            limit: None,
        }
    }

    /// A live source over the per-step interpreter — the differential
    /// oracle, and the baseline the
    /// `trace_replay` bench measures block-engine speedup against.
    pub fn interpreted(program: &'p Program) -> LiveVm<'p> {
        LiveVm {
            program,
            backend: Backend::Interp(Vm::new(program)),
            limit: None,
        }
    }

    /// Bounds the pass to `limit` retired instructions.
    pub fn with_limit(mut self, limit: Option<u64>) -> LiveVm<'p> {
        self.limit = limit;
        self
    }
}

impl TraceSource for LiveVm<'_> {
    fn name(&self) -> &str {
        self.program.name()
    }

    fn drive_hooks<H: BlockHooks>(&mut self, hooks: &mut H) -> Result<RunOutcome, TraceError> {
        Ok(match &mut self.backend {
            Backend::Interp(vm) => vm.run_hooks(self.limit, hooks)?,
            Backend::Block(engine) => engine.run_hooks(self.limit, hooks)?,
        })
    }
}

/// Systematic sampling plan for replay: out of every `period` events,
/// `length` are emitted (the classic SMARTS-style periodic sampling of the
/// dynamic instruction stream).
///
/// Sample windows start at stream positions `offset + k * period`; the
/// `warmup` events immediately before each window are tagged
/// [`SamplePhase::Warm`] so consumers can functionally warm caches and
/// predictors without charging timing. A non-zero
/// [`offset`](Sampling::with_offset) keeps the first window from
/// measuring program cold-start.
///
/// Intended for `Large` runs where even replay is worth truncating:
/// consumers observe [`fraction`](Sampling::fraction) (`length/period`)
/// of the stream. The replay still *walks* the
/// skipped events (the control-flow chain must advance), but skipping the
/// observer — the expensive part, cache/predictor simulation — is where
/// the time goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sampling {
    period: u64,
    length: u64,
    warmup: u64,
    offset: u64,
}

impl Sampling {
    /// A plan emitting `length` of every `period` events, with no warming
    /// and no offset.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < length <= period`. Paths fed by untrusted input
    /// (serve job specs) must use [`try_new`](Sampling::try_new) instead.
    pub fn new(period: u64, length: u64) -> Sampling {
        Sampling::try_new(period, length)
            .unwrap_or_else(|_| panic!("sampling needs 0 < length ({length}) <= period ({period})"))
    }

    /// Fallible constructor: rejects impossible geometry with a typed
    /// error instead of panicking, so a bad request can never take down a
    /// worker that builds plans from untrusted specs.
    ///
    /// # Errors
    ///
    /// [`TraceError::InvalidSampling`] unless `0 < length <= period`.
    pub fn try_new(period: u64, length: u64) -> Result<Sampling, TraceError> {
        if length == 0 || length > period {
            return Err(TraceError::InvalidSampling { period, length });
        }
        Ok(Sampling {
            period,
            length,
            warmup: 0,
            offset: 0,
        })
    }

    /// The default plan for sampled timing simulation: 1-in-10 coverage
    /// (100-event windows every 1000 events) with full functional warming
    /// between windows and the first window offset past position 0 so it
    /// does not measure program cold-start.
    pub fn default_plan() -> Sampling {
        Sampling::new(1000, 100).with_warmup(900).with_offset(100)
    }

    /// Sets the number of events before each sample window tagged
    /// [`SamplePhase::Warm`] (functional state updates, no timing).
    /// `period - length` warms through every skipped event.
    pub fn with_warmup(mut self, warmup: u64) -> Sampling {
        self.warmup = warmup;
        self
    }

    /// Shifts all sample windows to start at `offset + k * period`, so
    /// the first window no longer measures the stream's cold-start.
    pub fn with_offset(mut self, offset: u64) -> Sampling {
        self.offset = offset;
        self
    }

    /// Events emitted per period.
    pub fn length(&self) -> u64 {
        self.length
    }

    /// Period of the plan, in events.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Warm-up length before each window, in events.
    pub fn warmup(&self) -> u64 {
        self.warmup
    }

    /// Stream position of the first sample window.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// The [`SamplePhase`] of the event at stream position `pos`:
    /// `Measure` inside a window, `Warm` within `warmup` events before a
    /// window start, `Skip` otherwise.
    pub fn phase(&self, pos: u64) -> SamplePhase {
        if pos >= self.offset && (pos - self.offset) % self.period < self.length {
            return SamplePhase::Measure;
        }
        // Distance to the next window start (always >= 1 here).
        let gap = if pos < self.offset {
            self.offset - pos
        } else {
            self.period - (pos - self.offset) % self.period
        };
        if gap <= self.warmup {
            SamplePhase::Warm
        } else {
            SamplePhase::Skip
        }
    }

    /// The [`SamplePhase`] of stream position `pos` and how many positions
    /// from `pos` on keep it: to the end of the warm-up, skip stretch or
    /// window that holds `pos`. Each run is maximal, except that windows
    /// back to back (`length == period`) are counted one window at a time.
    ///
    /// Walking the stream run by run takes one division per run where
    /// [`phase`](Sampling::phase) takes two per position.
    pub fn phase_run(&self, pos: u64) -> (SamplePhase, u64) {
        // Distance from `pos` to the next window start, or the phase and
        // the rest of the window holding `pos`.
        let gap = if pos < self.offset {
            self.offset - pos
        } else {
            let into = (pos - self.offset) % self.period;
            if into < self.length {
                return (SamplePhase::Measure, self.length - into);
            }
            self.period - into
        };
        if gap <= self.warmup {
            (SamplePhase::Warm, gap)
        } else {
            (SamplePhase::Skip, gap - self.warmup)
        }
    }

    /// Fraction of the stream observed (`length / period`).
    pub fn fraction(&self) -> f64 {
        self.length as f64 / self.period as f64
    }
}

/// A walk over the phases of successive stream positions from position 0,
/// one [`Sampling::phase_run`] per run: the countdown that
/// [`TraceSource::drive_phased`] and the sampled timing simulation share.
/// Without a plan every position is [`SamplePhase::Measure`].
#[derive(Debug, Clone)]
pub struct PhaseRuns {
    plan: Option<Sampling>,
    phase: SamplePhase,
    /// Positions of the current run still to come.
    left: u64,
    /// The first position of the next run.
    next: u64,
}

impl PhaseRuns {
    /// A walk from position 0 under `plan`.
    pub fn new(plan: Option<Sampling>) -> PhaseRuns {
        PhaseRuns {
            plan,
            phase: SamplePhase::Measure,
            left: if plan.is_some() { 0 } else { u64::MAX },
            next: 0,
        }
    }

    /// The phase of the next position.
    #[inline(always)]
    pub fn next_phase(&mut self) -> SamplePhase {
        if self.left == 0 {
            self.start_run();
        }
        self.left -= 1;
        self.phase
    }

    #[cold]
    fn start_run(&mut self) {
        // `left` starts at 0 only under a plan.
        let plan = self.plan.expect("a run ends only under a plan");
        (self.phase, self.left) = plan.phase_run(self.next);
        self.next = self.next.saturating_add(self.left);
    }
}
