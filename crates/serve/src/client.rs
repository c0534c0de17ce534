//! A small blocking client for the line-delimited protocol — what the
//! e2e tests, the throughput bench, and the `--smoke` self-test drive the
//! server with.

use std::io::{BufRead, BufReader, Write};

use mim_obs::Snapshot;
use serde::Value;

use crate::error::ServeError;
use crate::protocol::{to_line, MetricsFormat, Request};
use crate::server::{BoundAddr, Stream};
use crate::spec::{as_u64, JobSpec};

/// The `(id, deduped)` outcome of a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submitted {
    /// Job id to poll/fetch with.
    pub id: u64,
    /// True when the server coalesced this submission onto an existing
    /// identical job.
    pub deduped: bool,
}

/// A blocking protocol client over one connection.
///
/// Addresses mirror [`Server::bind`](crate::Server::bind): `unix:<path>`,
/// `tcp:<host>:<port>`, or a bare `<host>:<port>`.
pub struct Client {
    conn: BufReader<Stream>,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Addr`] for unparseable addresses and
    /// [`ServeError::Io`] for connection failures.
    pub fn connect(addr: &str) -> Result<Client, ServeError> {
        let stream = Stream::connect(&BoundAddr::parse(addr)?)?;
        Ok(Client {
            conn: BufReader::new(stream),
        })
    }

    /// Sends one request line and reads one response line.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on transport failure, [`ServeError::Protocol`]
    /// on a non-JSON reply or closed connection, [`ServeError::Rejected`]
    /// when the server answers `{"ok":false,...}`.
    pub fn request(&mut self, request: &Request) -> Result<Value, ServeError> {
        let mut replies = self.exchange(request, 1)?;
        Ok(replies.pop().expect("one reply per exchange"))
    }

    /// Submits a job.
    ///
    /// # Errors
    ///
    /// See [`request`](Client::request).
    pub fn submit(&mut self, job: &JobSpec) -> Result<Submitted, ServeError> {
        let reply = self.request(&Request::Submit(Box::new(job.clone())))?;
        let deduped = matches!(reply.get("deduped"), Some(Value::Bool(true)));
        let id = field(reply, "id", |id| as_u64(&id))?;
        Ok(Submitted { id, deduped })
    }

    /// Queries a job's state label (`queued`/`running`/`done`/`failed`).
    ///
    /// # Errors
    ///
    /// See [`request`](Client::request).
    pub fn status(&mut self, id: u64) -> Result<String, ServeError> {
        field(self.request(&Request::Status(id))?, "state", string)
    }

    /// Fetches a job's report, blocking until the job finishes.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] carries the job's own error message when
    /// the job failed.
    pub fn result(&mut self, id: u64) -> Result<Value, ServeError> {
        field(self.request(&Request::Result(id))?, "result", Some)
    }

    /// Like [`result`](Client::result), but returns the report's compact
    /// JSON bytes — the deterministic representation response-identity
    /// tests compare.
    ///
    /// # Errors
    ///
    /// See [`result`](Client::result).
    pub fn result_text(&mut self, id: u64) -> Result<String, ServeError> {
        Ok(to_line(&self.result(id)?))
    }

    /// Fetches the server's stats object.
    ///
    /// # Errors
    ///
    /// See [`request`](Client::request).
    pub fn stats(&mut self) -> Result<Value, ServeError> {
        field(self.request(&Request::Stats)?, "stats", Some)
    }

    /// Fetches the server's merged metrics snapshot as a JSON value
    /// (counters, gauges, and latency histograms with derived quantiles).
    ///
    /// # Errors
    ///
    /// See [`request`](Client::request).
    pub fn metrics(&mut self) -> Result<Value, ServeError> {
        let reply = self.request(&Request::Metrics(MetricsFormat::Json))?;
        field(reply, "metrics", Some)
    }

    /// Fetches the server's metrics in Prometheus text exposition form.
    ///
    /// # Errors
    ///
    /// See [`request`](Client::request).
    pub fn metrics_prometheus(&mut self) -> Result<String, ServeError> {
        let reply = self.request(&Request::Metrics(MetricsFormat::Prometheus))?;
        field(reply, "metrics_text", string)
    }

    /// Fetches a finished job's wall-clock span profile
    /// (`{"total_ns":…,"spans":[…],"cells":{…}}`).
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] for unknown ids, unfinished jobs, and
    /// jobs that ran with profile capture disabled.
    pub fn profile(&mut self, id: u64) -> Result<Value, ServeError> {
        field(self.request(&Request::Profile(id))?, "profile", Some)
    }

    /// Streams `count` metrics-delta snapshots, one per `interval_ms`
    /// tick: each returned [`Snapshot`] is the change since the previous
    /// tick (counters and histograms as differences, gauges as current
    /// values). Blocks for roughly `count * interval_ms` milliseconds.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] if the server begins shutting down
    /// mid-stream (or [`ServeError::Protocol`], if it closed the
    /// connection before the error line went out);
    /// [`ServeError::Io`]/[`ServeError::Protocol`] on transport trouble.
    pub fn watch(&mut self, interval_ms: u64, count: u64) -> Result<Vec<Snapshot>, ServeError> {
        self.exchange(&Request::Watch { interval_ms, count }, count.max(1))?
            .into_iter()
            .map(|reply| {
                let metrics = field(reply, "metrics", Some)?;
                Snapshot::from_value(&metrics).map_err(ServeError::Protocol)
            })
            .collect()
    }

    /// Asks the server to drain and stop.
    ///
    /// # Errors
    ///
    /// See [`request`](Client::request).
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        self.request(&Request::Shutdown).map(|_| ())
    }

    /// The client's one wire path: writes `request` as a line, then reads
    /// `replies` reply lines, each parsed and checked for `"ok":true`.
    fn exchange(&mut self, request: &Request, replies: u64) -> Result<Vec<Value>, ServeError> {
        let stream = self.conn.get_mut();
        stream.write_all((request.to_line() + "\n").as_bytes())?;
        stream.flush()?;
        (0..replies)
            .map(|_| {
                let mut line = String::new();
                if self.conn.read_line(&mut line)? == 0 {
                    return Err(ServeError::Protocol("server closed the connection".into()));
                }
                let reply: Value = serde_json::from_str(&line)
                    .map_err(|e| ServeError::Protocol(format!("malformed response: {e}")))?;
                match reply.get("ok") {
                    Some(Value::Bool(true)) => Ok(reply),
                    Some(Value::Bool(false)) => {
                        Err(ServeError::Rejected(match reply.get("error") {
                            Some(Value::Str(s)) => s.clone(),
                            _ => "unspecified error".to_string(),
                        }))
                    }
                    _ => Err(ServeError::Protocol("response has no `ok` field".into())),
                }
            })
            .collect()
    }
}

/// The one reply-field accessor: takes `key` out of a reply and converts
/// it with `read`; a missing or mistyped field is a protocol error.
fn field<T>(
    reply: Value,
    key: &str,
    read: impl FnOnce(Value) -> Option<T>,
) -> Result<T, ServeError> {
    let value = match reply {
        Value::Object(fields) => fields.into_iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    };
    value
        .and_then(read)
        .ok_or_else(|| ServeError::Protocol(format!("reply has no `{key}`")))
}

fn string(value: Value) -> Option<String> {
    match value {
        Value::Str(s) => Some(s),
        _ => None,
    }
}
