//! The timed window, the run-time clock, output checks and the statistics
//! the report uses.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::spans;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads /proc and the process CPU clock of 64-bit Linux");

/// CPU time this process has run so far, over all its threads, in ns.
///
/// Every time the benchmark reports is read from this clock, not from the
/// wall clock. The operations are CPU-bound and run one at a time, so on
/// a quiet machine the two agree; on a shared virtual machine the kernel
/// leaves out of it the time the hypervisor gives the CPU to other guests
/// (steal), which moves wall-clock figures by tens of percent from one
/// minute to the next.
pub fn run_ns() -> u64 {
    // `clockid_t` is a C int and `timespec` two 64-bit fields on 64-bit
    // Linux, the only platform the benchmark builds for.
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Time on the [`run_ns`] clock since `start_ns`.
pub fn run_since(start_ns: u64) -> Duration {
    Duration::from_nanos(run_ns() - start_ns)
}

/// What one completed operation delivered.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    /// Evaluation cells in the operation's output.
    pub cells: u64,
    /// Instructions those cells cover.
    pub insts: u64,
    /// Run time of the operation, excluding the output check.
    pub latency: Duration,
}

/// One operation of the timed window.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// What the operation delivered; `None` if it failed.
    pub work: Option<Work>,
    pub traced: bool,
}

/// The operations of one timed window.
#[derive(Debug, Default)]
pub struct Window {
    /// Run time of the whole window, operations and their checks.
    pub run_s: f64,
    /// Wall time of the whole window, for the log.
    pub wall_s: f64,
    pub ops: Vec<Op>,
    pub errors: Vec<String>,
}

impl Window {
    pub fn attempted(&self) -> u64 {
        self.ops.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.ops.iter().filter(|o| o.work.is_none()).count() as u64
    }

    /// `amount` of work completed per second of the window's run time.
    pub fn rate(&self, amount: impl Fn(&Work) -> f64) -> f64 {
        let done: f64 = self
            .ops
            .iter()
            .filter_map(|o| o.work.as_ref())
            .map(amount)
            .sum();
        done / self.run_s
    }

    /// Latencies in ms of the untraced operations; a failed operation
    /// counts as infinitely late.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|o| !o.traced)
            .map(|o| {
                o.work
                    .map_or(f64::INFINITY, |w| w.latency.as_secs_f64() * 1e3)
            })
            .collect()
    }

    /// Mean latency of the traced or of the untraced operations.
    pub fn mean_latency(&self, traced: bool) -> f64 {
        let l: Vec<f64> = self
            .ops
            .iter()
            .filter(|o| o.traced == traced)
            .filter_map(|o| o.work.map(|w| w.latency.as_secs_f64()))
            .collect();
        l.iter().sum::<f64>() / l.len().max(1) as f64
    }
}

/// Runs `op` in a closed loop until `seconds` of wall time have passed
/// and at least two operations (one of them traced, with `trace` on) have
/// run: each operation starts when the previous one has finished.
///
/// Before each operation, `aside` is called with the share of the window
/// gone so far; the run time it takes is left out of the window's.
///
/// With `trace` on, every other operation runs traced, so the traced and
/// untraced halves see the same conditions and their latency difference
/// is the tracing overhead.
pub fn run(
    seconds: f64,
    trace: bool,
    mut aside: impl FnMut(f64) -> Result<(), String>,
    mut op: impl FnMut(u64) -> Result<Work, String>,
) -> Result<Window, String> {
    let mut window = Window::default();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let run_started = run_ns();
    let mut aside_ns = 0;
    let mut n: u64 = 0;
    loop {
        let now = Instant::now();
        if now >= deadline && n >= 2 {
            break;
        }
        let aside_started = run_ns();
        aside((now - started).as_secs_f64() / seconds)?;
        aside_ns += run_ns() - aside_started;
        let traced = trace && n % 2 == 1;
        let outcome = spans::traced(traced, "request", || op(n));
        window.ops.push(Op {
            work: outcome.as_ref().ok().copied(),
            traced,
        });
        if let Err(e) = outcome {
            window.errors.push(e);
        }
        n += 1;
    }
    window.run_s = (run_since(run_started).as_nanos() as u64 - aside_ns) as f64 * 1e-9;
    window.wall_s = started.elapsed().as_secs_f64();
    Ok(window)
}

static CORRUPT_NEXT: AtomicBool = AtomicBool::new(false);

/// Makes the next [`check`] see a corrupted output (the self-test's proof
/// that a wrong output is counted as a failure).
pub fn corrupt_next_output() {
    CORRUPT_NEXT.store(true, Ordering::SeqCst);
}

/// Compares an operation's output bytes with the reference made during
/// set-up.
pub fn check(what: &str, got: &str, want: &str) -> Result<(), String> {
    let corrupt = CORRUPT_NEXT.swap(false, Ordering::SeqCst);
    if corrupt || got != want {
        return Err(format!(
            "{what}: output differs from the set-up reference ({} bytes, expected {})",
            got.len() + usize::from(corrupt),
            want.len()
        ));
    }
    Ok(())
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if sorted[hi].is_infinite() {
        return sorted[hi];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident memory of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The benchmark's scratch directory inside the checkout (ignored by git).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("benchmark output directory is writable");
    dir
}

/// A directory under [`out_dir`] removed again on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> ScratchDir {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("{tag}-{}-{n}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("scratch directory is writable");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// A seeded permutation of `items`.
pub fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    let mut rng = mim_core::SplitMix64::new(seed);
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
    items
}
