//! Wall-clock profiles: a [`SpanSink`] that aggregates span start/stop
//! events into a deterministic call tree, with Chrome trace-event and
//! flamegraph collapsed-stack exporters.
//!
//! The tree is keyed by span *name path* (`a` → `a;b` → `a;b;c`), so it
//! is stable across runs and thread counts: two runs doing the same work
//! produce the same nodes with the same counts. Nanosecond totals come
//! from the spans' `elapsed_ns`, which the span layer only populates when
//! [timing](crate::timing_enabled) is on — with `MIM_OBS=off` every
//! duration is zero and both exporters are byte-deterministic.
//!
//! Exports:
//!
//! * [`to_chrome_trace`](ProfileSink::to_chrome_trace) — trace-event JSON
//!   (`{"traceEvents":[...]}`) loadable in Perfetto / `chrome://tracing`,
//!   one complete (`"ph":"X"`) event per closed span.
//! * [`to_collapsed`](ProfileSink::to_collapsed) — collapsed-stack text
//!   (`a;b;c <self_ns>` per line) ready for `flamegraph.pl` /
//!   `inferno-flamegraph`. Line values are *self* time, so the lines sum
//!   exactly to the root total.
//! * [`tree`](ProfileSink::tree) / [`ProfileNode::to_value`] — the
//!   aggregate tree as data (the serve `profile` command's payload).
//! * [`breakdown`](ProfileSink::breakdown) — per-field-value aggregation
//!   of one span name (e.g. `experiment.cell` by `workload`), giving
//!   cell-level cost splits without polluting metric cardinality.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use serde::Value;

use crate::registry::timing_enabled;
use crate::span::{SpanEvent, SpanPhase, SpanSink};

/// On-disk trace export format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Chrome trace-event JSON (Perfetto / `chrome://tracing`).
    Chrome,
    /// Flamegraph collapsed-stack text (`stack <self_ns>` lines).
    Collapsed,
}

impl TraceFormat {
    /// Picks a format from a file path's extension: `.folded` / `.txt`
    /// mean [`Collapsed`](TraceFormat::Collapsed), anything else (the
    /// conventional `.json`) means [`Chrome`](TraceFormat::Chrome).
    pub fn from_path(path: &std::path::Path) -> TraceFormat {
        match path.extension().and_then(|e| e.to_str()) {
            Some("folded") | Some("txt") => TraceFormat::Collapsed,
            _ => TraceFormat::Chrome,
        }
    }
}

/// One node of the aggregated call tree: a span name path with its entry
/// count, inclusive nanoseconds, and self (exclusive) nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileNode {
    /// Span name (one path segment; the path is the ancestor chain).
    pub name: String,
    /// Closed spans aggregated into this node.
    pub count: u64,
    /// Total (inclusive) nanoseconds across those spans.
    pub total_ns: u64,
    /// Self (exclusive) nanoseconds: total minus children's totals,
    /// clamped at zero.
    pub self_ns: u64,
    /// Child nodes, sorted by name.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// The node (and its subtree) as a JSON value.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            ("count".to_string(), Value::UInt(self.count)),
            ("total_ns".to_string(), Value::UInt(self.total_ns)),
            ("self_ns".to_string(), Value::UInt(self.self_ns)),
            (
                "children".to_string(),
                Value::Array(self.children.iter().map(ProfileNode::to_value).collect()),
            ),
        ])
    }
}

/// One closed span's cost under one field value — a
/// [`breakdown`](ProfileSink::breakdown) row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakdownRow {
    /// The field's rendered value.
    pub value: String,
    /// Closed spans carrying that value.
    pub count: u64,
    /// Total nanoseconds across them.
    pub total_ns: u64,
}

struct Node {
    name: String,
    children: Vec<usize>,
    count: u64,
    total_ns: u64,
}

struct OpenSpan {
    node: usize,
    ts_ns: u64,
    tid: u64,
}

struct Complete {
    name: String,
    ts_ns: u64,
    dur_ns: u64,
    tid: u64,
}

#[derive(Default)]
struct State {
    nodes: Vec<Node>,
    open: HashMap<u64, OpenSpan>,
    complete: Vec<Complete>,
    threads: Vec<ThreadId>,
    // (span name, field key, rendered value) -> (count, total_ns)
    fields: HashMap<(String, String, String), (u64, u64)>,
}

impl State {
    fn child_of(&mut self, parent: usize, name: &str) -> usize {
        if let Some(&c) = self.nodes[parent]
            .children
            .iter()
            .find(|&&c| self.nodes[c].name == name)
        {
            return c;
        }
        let idx = self.nodes.len();
        self.nodes.push(Node {
            name: name.to_string(),
            children: Vec::new(),
            count: 0,
            total_ns: 0,
        });
        self.nodes[parent].children.push(idx);
        idx
    }

    fn build(&self, idx: usize) -> ProfileNode {
        let node = &self.nodes[idx];
        let mut children: Vec<ProfileNode> = node.children.iter().map(|&c| self.build(c)).collect();
        children.sort_by(|a, b| a.name.cmp(&b.name));
        let child_total: u64 = children.iter().map(|c| c.total_ns).sum();
        ProfileNode {
            name: node.name.clone(),
            count: node.count,
            total_ns: node.total_ns,
            self_ns: node.total_ns.saturating_sub(child_total),
            children,
        }
    }
}

/// A [`SpanSink`] aggregating spans into a deterministic call-tree
/// profile, exported as Chrome trace-event JSON, collapsed stacks, a
/// [`ProfileNode`] tree or a per-field [`breakdown`](ProfileSink::breakdown).
///
/// Optionally [`with_export`](ProfileSink::with_export) rewrites a file
/// whenever the last open span closes — the `MIM_SPANS=chrome:<path>` /
/// `collapsed:<path>` auto-export mode, crash-tolerant because every
/// completed top-level span refreshes the file.
pub struct ProfileSink {
    epoch: Instant,
    state: Mutex<State>,
    export: Option<(TraceFormat, PathBuf)>,
}

impl Default for ProfileSink {
    fn default() -> ProfileSink {
        ProfileSink::new()
    }
}

impl ProfileSink {
    /// Creates an empty profile.
    pub fn new() -> ProfileSink {
        ProfileSink {
            epoch: Instant::now(),
            state: Mutex::new(State {
                nodes: vec![Node {
                    name: String::new(),
                    children: Vec::new(),
                    count: 0,
                    total_ns: 0,
                }],
                ..State::default()
            }),
            export: None,
        }
    }

    /// Configures auto-export: `path` is rewritten in `format` whenever
    /// the last open span closes (and on [`write`](ProfileSink::write)).
    #[must_use]
    pub fn with_export(mut self, format: TraceFormat, path: impl Into<PathBuf>) -> ProfileSink {
        self.export = Some((format, path.into()));
        self
    }

    /// The aggregated call tree: top-level (parentless) spans with their
    /// descendants, sorted by name at every level.
    pub fn tree(&self) -> Vec<ProfileNode> {
        let state = self.state.lock().expect("profile sink poisoned");
        state.build(0).children
    }

    /// The profile as a JSON value: `{"spans": [tree...]}` plus the total
    /// nanoseconds across top-level spans.
    pub fn to_value(&self) -> Value {
        let tree = self.tree();
        let total: u64 = tree.iter().map(|n| n.total_ns).sum();
        Value::Object(vec![
            ("total_ns".to_string(), Value::UInt(total)),
            (
                "spans".to_string(),
                Value::Array(tree.iter().map(ProfileNode::to_value).collect()),
            ),
        ])
    }

    /// Chrome trace-event JSON: one complete (`"ph":"X"`) event per
    /// closed span, timestamps in microseconds (nanosecond precision kept
    /// as exact decimals) relative to the sink's creation. Load the file
    /// in [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`.
    pub fn to_chrome_trace(&self) -> String {
        let state = self.state.lock().expect("profile sink poisoned");
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in state.complete.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let name = serde_json::to_string(&Value::Str(e.name.clone()))
                .expect("string serialization is infallible");
            out.push_str(&format!(
                "{{\"name\":{name},\"cat\":\"mim\",\"ph\":\"X\",\"ts\":{}.{:03},\
                 \"dur\":{}.{:03},\"pid\":0,\"tid\":{}}}",
                e.ts_ns / 1000,
                e.ts_ns % 1000,
                e.dur_ns / 1000,
                e.dur_ns % 1000,
                e.tid
            ));
        }
        out.push_str("]}\n");
        out
    }

    /// Flamegraph collapsed-stack text: one `path;to;span <self_ns>` line
    /// per tree node, sorted, where the value is the node's *self* time —
    /// so the lines sum exactly to the root total. Feed to
    /// `flamegraph.pl` or `inferno-flamegraph`.
    pub fn to_collapsed(&self) -> String {
        fn walk(node: &ProfileNode, prefix: &str, lines: &mut Vec<String>) {
            let path = if prefix.is_empty() {
                node.name.clone()
            } else {
                format!("{prefix};{}", node.name)
            };
            lines.push(format!("{path} {}", node.self_ns));
            for child in &node.children {
                walk(child, &path, lines);
            }
        }
        let mut lines = Vec::new();
        for root in self.tree() {
            walk(&root, "", &mut lines);
        }
        lines.sort();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }

    /// Aggregates the closed spans named `span` by the rendered value of
    /// their `key` field, sorted by value. Spans without the field are
    /// omitted.
    pub fn breakdown(&self, span: &str, key: &str) -> Vec<BreakdownRow> {
        let state = self.state.lock().expect("profile sink poisoned");
        let mut rows: Vec<BreakdownRow> = state
            .fields
            .iter()
            .filter(|((name, k, _), _)| name == span && k == key)
            .map(|((_, _, value), &(count, total_ns))| BreakdownRow {
                value: value.clone(),
                count,
                total_ns,
            })
            .collect();
        rows.sort_by(|a, b| a.value.cmp(&b.value));
        rows
    }

    /// Renders the profile in `format`.
    pub fn render(&self, format: TraceFormat) -> String {
        match format {
            TraceFormat::Chrome => self.to_chrome_trace(),
            TraceFormat::Collapsed => self.to_collapsed(),
        }
    }

    /// Writes the configured export file now (no-op without
    /// [`with_export`](ProfileSink::with_export)).
    ///
    /// # Errors
    ///
    /// Propagates the filesystem write error.
    pub fn write(&self) -> std::io::Result<()> {
        if let Some((format, path)) = &self.export {
            std::fs::write(path, self.render(*format))?;
        }
        Ok(())
    }
}

impl SpanSink for ProfileSink {
    fn event(&self, event: &SpanEvent) {
        let mut state = self.state.lock().expect("profile sink poisoned");
        match event.phase {
            SpanPhase::Start => {
                let parent = event
                    .parent
                    .and_then(|p| state.open.get(&p).map(|o| o.node))
                    .unwrap_or(0);
                let node = state.child_of(parent, &event.name);
                let ts_ns = if timing_enabled() {
                    self.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
                } else {
                    0
                };
                let id = std::thread::current().id();
                let tid = match state.threads.iter().position(|&t| t == id) {
                    Some(i) => i as u64,
                    None => {
                        state.threads.push(id);
                        (state.threads.len() - 1) as u64
                    }
                };
                state.open.insert(event.seq, OpenSpan { node, ts_ns, tid });
            }
            SpanPhase::End => {
                let Some(open) = state.open.remove(&event.seq) else {
                    return; // started before this sink was installed
                };
                let dur_ns = event.elapsed_ns.unwrap_or(0);
                state.nodes[open.node].count += 1;
                state.nodes[open.node].total_ns += dur_ns;
                state.complete.push(Complete {
                    name: event.name.clone(),
                    ts_ns: open.ts_ns,
                    dur_ns,
                    tid: open.tid,
                });
                for (key, value) in &event.fields {
                    let entry = state
                        .fields
                        .entry((event.name.clone(), key.clone(), value.render()))
                        .or_insert((0, 0));
                    entry.0 += 1;
                    entry.1 += dur_ns;
                }
                if self.export.is_some() && state.open.is_empty() {
                    drop(state);
                    let _ = self.write();
                }
            }
        }
    }
}
