//! The [`TraceSource`] abstraction: one interface over live functional
//! execution and recorded-trace replay.

use mim_isa::{BlockEngine, Program, RunOutcome, TraceEvent, Vm};

use crate::error::TraceError;

/// A producer of the dynamic instruction stream.
///
/// Timing consumers (`mim-pipeline`'s simulator, `mim-profile`'s
/// profilers) are written against this trait, so they neither know nor
/// care whether events come from a live [`Vm`] pass ([`LiveVm`]) or from a
/// recorded [`Trace`](crate::Trace) ([`Replay`](crate::Replay)). That decoupling is the paper's §2.1
/// framework applied to the whole stack: functional execution happens
/// once, timing passes happen per design point.
///
/// A source is driven **once**: [`drive`](TraceSource::drive) consumes the
/// stream from the source's current position to its end (instruction
/// limits are a property of the source, fixed at construction). Replays
/// enforce this: a second drive raises [`TraceError::Exhausted`] instead
/// of silently reporting a successful zero-event pass.
pub trait TraceSource {
    /// Name of the workload producing the stream.
    fn name(&self) -> &str;

    /// Drives `observer` over every remaining event of the stream and
    /// reports how the underlying execution ended.
    ///
    /// # Errors
    ///
    /// [`LiveVm`] propagates functional faults as [`TraceError::Vm`];
    /// [`Replay`](crate::Replay) raises [`TraceError::Corrupt`] if the
    /// trace walks off the program text or its bytes are damaged
    /// (possible only for corrupted files —
    /// [`Trace::replay`](crate::Trace::replay) already rejects mismatched
    /// programs).
    fn drive(&mut self, observer: &mut dyn FnMut(&TraceEvent)) -> Result<RunOutcome, TraceError>;

    /// The sampling plan governing this source's stream, if any.
    ///
    /// Consumers that care about sample-unit structure (the sampled timing
    /// simulation) read the plan here; sources without one expose the
    /// whole stream as a single measured unit.
    fn sampling(&self) -> Option<Sampling> {
        None
    }

    /// Drives `observer` with each event tagged by its [`SamplePhase`]
    /// under the source's sampling plan.
    ///
    /// Sampled sources deliver [`SamplePhase::Warm`] events (walked for
    /// functional warming between detailed units) and
    /// [`SamplePhase::Measure`] events (inside a sample window);
    /// [`SamplePhase::Skip`] events are walked but never delivered — not
    /// materializing them is where sampling's speedup comes from. The
    /// default implementation wraps [`drive`](TraceSource::drive) and tags
    /// everything [`SamplePhase::Measure`].
    ///
    /// # Errors
    ///
    /// Same contract as [`drive`](TraceSource::drive).
    fn drive_phased(
        &mut self,
        observer: &mut dyn FnMut(SamplePhase, &TraceEvent),
    ) -> Result<RunOutcome, TraceError> {
        self.drive(&mut |ev| observer(SamplePhase::Measure, ev))
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
/// ([`Vm`]) or the block-compiled engine ([`BlockEngine`]). Both emit the
/// identical [`TraceEvent`] stream; the choice only affects throughput.
enum Backend<'p> {
    Interp(Vm<'p>),
    Block(BlockEngine<'p>),
}

/// The live recording backend: drives a functional execution pass,
/// emitting each retired instruction as it executes.
///
/// This is the only [`TraceSource`] that actually executes the program;
/// it backs the legacy program-based entry points
/// (`PipelineSim::simulate`, `SweepProfiler::profile`) and
/// [`Trace::record`](crate::Trace::record). [`LiveVm::new`] runs on the
/// block-compiled [`BlockEngine`]; [`LiveVm::interpreted`] runs the
/// per-step interpreter, which emits the byte-identical stream at a
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

    fn drive(&mut self, observer: &mut dyn FnMut(&TraceEvent)) -> Result<RunOutcome, TraceError> {
        match &mut self.backend {
            Backend::Interp(vm) => Ok(vm.run_with(self.limit, |ev| observer(ev))?),
            Backend::Block(engine) => Ok(engine.run_with(self.limit, |ev| observer(ev))?),
        }
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
/// consumers observe `length/period` of the stream and scale additive
/// statistics by [`scale`](Sampling::scale). The replay still *walks* the
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

    /// True if the event at stream position `pos` is inside a sample
    /// window.
    pub fn contains(&self, pos: u64) -> bool {
        self.phase(pos) == SamplePhase::Measure
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

    /// Fraction of the stream observed (`length / period`).
    pub fn fraction(&self) -> f64 {
        self.length as f64 / self.period as f64
    }

    /// Factor by which additive statistics gathered under this plan should
    /// be scaled to estimate full-stream values (`period / length`).
    pub fn scale(&self) -> f64 {
        self.period as f64 / self.length as f64
    }
}
