//! The line-delimited JSON protocol.
//!
//! Every message is one compact JSON object on one line. Requests carry a
//! `cmd` field; responses carry `ok` (a boolean) plus command-specific
//! fields, with failures shaped as `{"ok":false,"error":"..."}`.
//!
//! | request                                   | success response |
//! |-------------------------------------------|------------------|
//! | `{"cmd":"submit","job":{...}}`            | `{"ok":true,"id":N,"deduped":B}` |
//! | `{"cmd":"status","id":N}`                 | `{"ok":true,"id":N,"state":"queued"\|"running"\|"done"\|"failed"}` |
//! | `{"cmd":"result","id":N}`                 | `{"ok":true,"id":N,"result":{...report...}}` (blocks until done) |
//! | `{"cmd":"stats"}`                         | `{"ok":true,"stats":{"store":{...},"cells":{...},"jobs":{...},"latency":{...}}}` |
//! | `{"cmd":"metrics"}`                       | `{"ok":true,"metrics":{"counters":{...},"gauges":{...},"histograms":{...}}}` |
//! | `{"cmd":"metrics","format":"prometheus"}` | `{"ok":true,"metrics_text":"..."}` (Prometheus exposition text) |
//! | `{"cmd":"profile","id":N}`                | `{"ok":true,"id":N,"profile":{"total_ns":…,"spans":[...],"cells":{...}}}` (finished jobs) |
//! | `{"cmd":"watch","interval_ms":T,"count":K}` | `K` lines `{"ok":true,"seq":I,"metrics":{...delta...}}`, one per interval |
//! | `{"cmd":"shutdown"}`                      | `{"ok":true}` then the server closes open connections, drains and exits |
//!
//! A request line longer than 1 MiB, or one that is not UTF-8, gets an
//! error response; the connection stays open for the next line.
//!
//! The `result` payload is byte-deterministic: reports serialize wall
//! clock-free and field-order-stable, so the same job spec yields the
//! same bytes across runs, worker counts, and restarts.

pub use serde::Value;

use crate::spec::{as_u64, JobSpec};

/// Wire format of a `metrics` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsFormat {
    /// The snapshot as a JSON object (`metrics` field).
    #[default]
    Json,
    /// Prometheus text exposition, embedded as one JSON string
    /// (`metrics_text` field).
    Prometheus,
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Enqueue a job.
    Submit(Box<JobSpec>),
    /// Query a job's lifecycle state.
    Status(u64),
    /// Fetch a job's report, blocking until it finishes.
    Result(u64),
    /// Fetch server counters.
    Stats,
    /// Fetch the merged metrics snapshot (counters, gauges, latency
    /// histograms) in the requested format.
    Metrics(MetricsFormat),
    /// Fetch a finished job's wall-clock span profile.
    Profile(u64),
    /// Stream metrics-snapshot deltas: one response line per interval,
    /// `count` lines total, each carrying the change since the previous
    /// line (counters/histograms as differences, gauges as current
    /// values).
    Watch {
        /// Milliseconds between consecutive delta lines.
        interval_ms: u64,
        /// Number of delta lines to stream before the connection returns
        /// to request/response mode.
        count: u64,
    },
    /// Drain and stop the server.
    Shutdown,
}

impl Request {
    /// Parses one protocol line.
    ///
    /// # Errors
    ///
    /// Returns the message for the `{"ok":false,...}` reply on malformed
    /// input.
    pub fn parse(line: &str) -> Result<Request, String> {
        let value: Value =
            serde_json::from_str(line.trim()).map_err(|e| format!("malformed JSON: {e}"))?;
        let cmd = match value.get("cmd") {
            Some(Value::Str(s)) => s.clone(),
            Some(v) => return Err(format!("`cmd` must be a string, got {}", v.kind())),
            None => return Err("request is missing the `cmd` field".into()),
        };
        match cmd.as_str() {
            "submit" => {
                let job = value
                    .get("job")
                    .ok_or_else(|| "submit is missing the `job` field".to_string())?;
                Ok(Request::Submit(Box::new(JobSpec::from_value(job)?)))
            }
            "status" => Ok(Request::Status(request_id(&value)?)),
            "result" => Ok(Request::Result(request_id(&value)?)),
            "stats" => Ok(Request::Stats),
            "metrics" => match value.get("format") {
                None => Ok(Request::Metrics(MetricsFormat::Json)),
                Some(Value::Str(s)) if s == "json" => Ok(Request::Metrics(MetricsFormat::Json)),
                Some(Value::Str(s)) if s == "prometheus" => {
                    Ok(Request::Metrics(MetricsFormat::Prometheus))
                }
                Some(Value::Str(s)) => Err(format!(
                    "unknown metrics format `{s}` (expected `json` or `prometheus`)"
                )),
                Some(v) => Err(format!("`format` must be a string, got {}", v.kind())),
            },
            "profile" => Ok(Request::Profile(request_id(&value)?)),
            "watch" => Ok(Request::Watch {
                interval_ms: request_u64(&value, "interval_ms", 1000)?,
                count: request_u64(&value, "count", 10)?.max(1),
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown command `{other}`")),
        }
    }

    /// Serializes the request as one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        let fields = match self {
            Request::Submit(job) => vec![
                ("cmd".to_string(), Value::Str("submit".into())),
                ("job".to_string(), job.to_value()),
            ],
            Request::Status(id) => vec![
                ("cmd".to_string(), Value::Str("status".into())),
                ("id".to_string(), Value::UInt(*id)),
            ],
            Request::Result(id) => vec![
                ("cmd".to_string(), Value::Str("result".into())),
                ("id".to_string(), Value::UInt(*id)),
            ],
            Request::Stats => vec![("cmd".to_string(), Value::Str("stats".into()))],
            Request::Metrics(format) => {
                let label = match format {
                    MetricsFormat::Json => "json",
                    MetricsFormat::Prometheus => "prometheus",
                };
                vec![
                    ("cmd".to_string(), Value::Str("metrics".into())),
                    ("format".to_string(), Value::Str(label.into())),
                ]
            }
            Request::Profile(id) => vec![
                ("cmd".to_string(), Value::Str("profile".into())),
                ("id".to_string(), Value::UInt(*id)),
            ],
            Request::Watch { interval_ms, count } => vec![
                ("cmd".to_string(), Value::Str("watch".into())),
                ("interval_ms".to_string(), Value::UInt(*interval_ms)),
                ("count".to_string(), Value::UInt(*count)),
            ],
            Request::Shutdown => vec![("cmd".to_string(), Value::Str("shutdown".into()))],
        };
        to_line(&Value::Object(fields))
    }
}

fn request_u64(value: &Value, key: &str, default: u64) -> Result<u64, String> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(v) => as_u64(v).ok_or_else(|| not_an_integer(key, v)),
    }
}

fn request_id(value: &Value) -> Result<u64, String> {
    match value.get("id") {
        None => Err("request is missing the `id` field".into()),
        Some(v) => as_u64(v).ok_or_else(|| not_an_integer("id", v)),
    }
}

fn not_an_integer(key: &str, v: &Value) -> String {
    format!("`{key}` must be an integer, got {}", v.kind())
}

/// Builds a success response with extra fields after `"ok":true`.
pub fn ok_response(fields: Vec<(String, Value)>) -> Value {
    let mut all = vec![("ok".to_string(), Value::Bool(true))];
    all.extend(fields);
    Value::Object(all)
}

/// Builds a failure response.
pub fn error_response(message: impl Into<String>) -> Value {
    Value::Object(vec![
        ("ok".to_string(), Value::Bool(false)),
        ("error".to_string(), Value::Str(message.into())),
    ])
}

/// A success reply carrying an already-encoded JSON payload,
/// `{"ok":true,"id":N,"<field>":<json>}`: the same bytes as [`to_line`]
/// of that reply built as a [`Value`], without decoding or re-encoding
/// `json`.
pub(crate) fn stored_reply(id: u64, field: &str, json: &str) -> String {
    format!(r#"{{"ok":true,"id":{id},"{field}":{json}}}"#)
}

/// The inverse of [`stored_reply`]: the payload of a line in its layout,
/// `{"ok":true,"id":N,"<field>":<json>}`, cut out unchecked; `None` for a
/// line of any other shape.
pub(crate) fn stored_payload<'a>(line: &'a str, field: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(r#"{"ok":true,"id":"#)?;
    let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    let rest = rest[digits..].strip_prefix(",\"")?.strip_prefix(field)?;
    rest.strip_prefix("\":")?
        .strip_suffix('}')
        .filter(|_| digits > 0)
}

/// Serializes a value as one compact protocol line (no trailing newline).
pub fn to_line(value: &Value) -> String {
    serde_json::to_string(value).expect("value serialization is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let line = r#"{"cmd":"submit","job":{"kind":"experiment","workloads":["sha"],"evaluators":["model"]}}"#;
        let request = Request::parse(line).expect("parses");
        let reparsed = Request::parse(&request.to_line()).expect("round-trips");
        assert_eq!(request, reparsed);
        for (line, expected) in [
            (r#"{"cmd":"status","id":3}"#, Request::Status(3)),
            (r#"{"cmd":"result","id":9}"#, Request::Result(9)),
            (r#"{"cmd":"stats"}"#, Request::Stats),
            (
                r#"{"cmd":"metrics"}"#,
                Request::Metrics(MetricsFormat::Json),
            ),
            (
                r#"{"cmd":"metrics","format":"json"}"#,
                Request::Metrics(MetricsFormat::Json),
            ),
            (
                r#"{"cmd":"metrics","format":"prometheus"}"#,
                Request::Metrics(MetricsFormat::Prometheus),
            ),
            (r#"{"cmd":"profile","id":4}"#, Request::Profile(4)),
            (
                r#"{"cmd":"watch"}"#,
                Request::Watch {
                    interval_ms: 1000,
                    count: 10,
                },
            ),
            (
                r#"{"cmd":"watch","interval_ms":50,"count":3}"#,
                Request::Watch {
                    interval_ms: 50,
                    count: 3,
                },
            ),
            // `count` is clamped to at least one streamed line.
            (
                r#"{"cmd":"watch","count":0}"#,
                Request::Watch {
                    interval_ms: 1000,
                    count: 1,
                },
            ),
            (r#"{"cmd":"shutdown"}"#, Request::Shutdown),
        ] {
            let request = Request::parse(line).expect(line);
            assert_eq!(request, expected);
            assert_eq!(Request::parse(&request.to_line()).expect(line), expected);
        }
    }

    #[test]
    fn malformed_requests_are_protocol_errors() {
        for (line, needle) in [
            ("not json", "malformed JSON"),
            (r#"{"id":1}"#, "missing the `cmd`"),
            (r#"{"cmd":"frobnicate"}"#, "unknown command"),
            (r#"{"cmd":"status"}"#, "missing the `id`"),
            (r#"{"cmd":"profile"}"#, "missing the `id`"),
            (
                r#"{"cmd":"watch","count":"lots"}"#,
                "`count` must be an integer",
            ),
            (r#"{"cmd":"submit"}"#, "missing the `job`"),
            (
                r#"{"cmd":"metrics","format":"xml"}"#,
                "unknown metrics format",
            ),
            (
                r#"{"cmd":"submit","job":{"kind":"nope"}}"#,
                "unknown job kind",
            ),
        ] {
            let err = Request::parse(line).expect_err(line);
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        }
    }

    #[test]
    fn responses_are_single_lines() {
        let ok = ok_response(vec![("id".into(), Value::UInt(7))]);
        assert_eq!(to_line(&ok), r#"{"ok":true,"id":7}"#);
        let err = error_response("boom");
        assert_eq!(to_line(&err), r#"{"ok":false,"error":"boom"}"#);
        assert!(!to_line(&ok).contains('\n'));
    }

    #[test]
    fn stored_payload_inverts_stored_reply() {
        let report = r#"{"rows":[1.5,"a\"}"]}"#;
        let line = stored_reply(42, "result", report);
        let built = ok_response(vec![
            ("id".into(), Value::UInt(42)),
            ("result".into(), serde_json::from_str(report).unwrap()),
        ]);
        assert_eq!(line, to_line(&built));
        assert_eq!(stored_payload(&line, "result"), Some(report));
        assert_eq!(stored_payload(&line, "profile"), None);
        assert_eq!(
            stored_payload(r#"{"ok":true,"id":,"result":1}"#, "result"),
            None
        );
        assert_eq!(stored_payload(r#"{"ok":true,"id":4}"#, "result"), None);
    }
}
