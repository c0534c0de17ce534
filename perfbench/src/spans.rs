//! In-memory span recording for the traced run.
//!
//! Spans are recorded only by the benchmark's own code, around calls into
//! one layer's public functions. A thread records only while it is inside
//! [`traced`] with tracing on, so the same workload code runs with and
//! without spans, and the untraced path pays one thread-local read per
//! span. Records stay in memory until [`take`] hands them over at exit.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::window::run_ns;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Record {
    pub id: u64,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// The outermost span on the thread (`request`, `setup` or `probe`).
    pub root: u64,
    pub root_name: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Units of work the call did (instructions, bytes, points, ...).
    pub work: u64,
}

impl Record {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

fn records() -> &'static Mutex<Vec<Record>> {
    static RECORDS: OnceLock<Mutex<Vec<Record>>> = OnceLock::new();
    RECORDS.get_or_init(|| Mutex::new(Vec::with_capacity(1 << 16)))
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    /// Open spans on this thread: (id, root id, root name).
    static STACK: RefCell<Vec<(u64, u64, &'static str)>> = const { RefCell::new(Vec::new()) };
}

/// An open span; records itself when dropped.
pub struct Span {
    open: Option<(u64, &'static str, u64)>,
    work: u64,
}

impl Span {
    /// Sets the work count the span reports.
    pub fn work(&mut self, work: u64) {
        self.work = work;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((id, name, start_ns)) = self.open.take() else {
            return;
        };
        let end_ns = run_ns();
        let (parent, root, root_name) = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let (_, root, root_name) = s.pop().expect("span stack matches open spans");
            (s.last().map(|&(p, _, _)| p), root, root_name)
        });
        let record = Record {
            id,
            parent,
            root,
            root_name,
            name,
            start_ns,
            end_ns,
            work: self.work,
        };
        if let Ok(mut records) = records().lock() {
            records.push(record);
        }
    }
}

/// Opens a span named `name` if this thread is tracing.
pub fn span(name: &'static str) -> Span {
    if !ACTIVE.with(Cell::get) {
        return Span {
            open: None,
            work: 0,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        let (root, root_name) = s.first().map_or((id, name), |&(_, r, n)| (r, n));
        s.push((id, root, root_name));
    });
    Span {
        open: Some((id, name, run_ns())),
        work: 0,
    }
}

/// Runs `f` on this thread with tracing `on`, inside a root span named
/// `root` when on.
pub fn traced<R>(on: bool, root: &'static str, f: impl FnOnce() -> R) -> R {
    let was = ACTIVE.with(|a| a.replace(on));
    let out = {
        let _root = span(root);
        f()
    };
    ACTIVE.with(|a| a.set(was));
    out
}

/// Every span recorded so far, in end order.
pub fn take() -> Vec<Record> {
    std::mem::take(&mut *records().lock().expect("span records poisoned"))
}

/// Wall time of the traced requests split into layer self times.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Summed duration of every traced `request` span.
    pub time_ns: u64,
    /// Self time per layer span name inside those requests.
    pub rows: BTreeMap<&'static str, u64>,
    /// Request time no layer span covers: the request span's own self
    /// time (loop bookkeeping and output checks).
    pub unattributed_ns: u64,
}

impl Attribution {
    pub fn unattributed_pct(&self) -> f64 {
        100.0 * self.unattributed_ns as f64 / self.time_ns.max(1) as f64
    }
}

/// Splits the traced requests' time into self times: a span's self
/// time is its duration minus its direct children's, so the rows plus the
/// request spans' own self time add up to the requests' time exactly.
pub fn attribute(records: &[Record]) -> Attribution {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for r in records {
        if let Some(parent) = r.parent {
            *child_ns.entry(parent).or_default() += r.ns();
        }
    }
    let mut out = Attribution::default();
    for r in records.iter().filter(|r| r.root_name == "request") {
        let self_ns = r
            .ns()
            .saturating_sub(child_ns.get(&r.id).copied().unwrap_or(0));
        if r.parent.is_none() {
            out.time_ns += r.ns();
            out.unattributed_ns += self_ns;
        } else {
            *out.rows.entry(r.name).or_default() += self_ns;
        }
    }
    out
}
