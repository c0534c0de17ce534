//! A small blocking client for the line-delimited protocol — what the
//! e2e tests, the throughput bench, and the `--smoke` self-test drive the
//! server with.

use std::io::{BufRead, BufReader, Write};

use mim_obs::Snapshot;
use serde::Value;

use crate::error::ServeError;
use crate::protocol::{stored_payload, MetricsFormat, Request};
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
    /// tests compare. The server splices the stored report into its reply
    /// (`{"ok":true,"id":N,"result":<report>}`), so the bytes are cut out
    /// of the reply line and checked by parsing them, never encoded again.
    ///
    /// # Errors
    ///
    /// See [`result`](Client::result); a truncated reply or a report that
    /// is not well-formed JSON is a [`ServeError::Protocol`].
    pub fn result_text(&mut self, id: u64) -> Result<String, ServeError> {
        self.send(&Request::Result(id))?;
        let line = self.read_reply()?;
        let Some(report) = stored_payload(&line, "result") else {
            check_reply(&line)?;
            return Err(ServeError::Protocol("reply has no `result`".into()));
        };
        serde_json::from_str::<Value>(report)
            .map_err(|e| ServeError::Protocol(format!("malformed result: {e}")))?;
        Ok(report.to_string())
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
        self.send(request)?;
        (0..replies)
            .map(|_| check_reply(&self.read_reply()?))
            .collect()
    }

    /// Writes `request` as one line.
    fn send(&mut self, request: &Request) -> Result<(), ServeError> {
        let stream = self.conn.get_mut();
        stream.write_all((request.to_line() + "\n").as_bytes())?;
        stream.flush()?;
        Ok(())
    }

    /// Reads one whole reply line, without its newline.
    fn read_reply(&mut self) -> Result<String, ServeError> {
        let mut line = String::new();
        if self.conn.read_line(&mut line)? == 0 {
            return Err(ServeError::Protocol("server closed the connection".into()));
        }
        if line.pop() != Some('\n') {
            return Err(ServeError::Protocol("reply truncated".into()));
        }
        Ok(line)
    }
}

/// Parses a reply line and checks it for `"ok":true`.
fn check_reply(line: &str) -> Result<Value, ServeError> {
    let reply: Value = serde_json::from_str(line)
        .map_err(|e| ServeError::Protocol(format!("malformed response: {e}")))?;
    match reply.get("ok") {
        Some(Value::Bool(true)) => Ok(reply),
        Some(Value::Bool(false)) => Err(ServeError::Rejected(match reply.get("error") {
            Some(Value::Str(s)) => s.clone(),
            _ => "unspecified error".to_string(),
        })),
        _ => Err(ServeError::Protocol("response has no `ok` field".into())),
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

#[cfg(test)]
mod tests {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;
    use std::thread;

    use super::*;

    /// `result_text` against a one-shot server that answers the request
    /// line with `reply` and closes the connection.
    fn result_text_for(reply: &'static str) -> Result<String, ServeError> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = format!("tcp:{}", listener.local_addr().expect("local addr"));
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream);
            reader.read_line(&mut String::new()).expect("request line");
            reader.get_mut().write_all(reply.as_bytes()).expect("reply");
        });
        let text = Client::connect(&addr).expect("connects").result_text(7);
        server.join().expect("server thread");
        text
    }

    #[test]
    fn result_text_cuts_the_report_out_of_the_reply() {
        let text =
            result_text_for("{\"ok\":true,\"id\":7,\"result\":{\"rows\":[1.5,\"a\\\"}\"]}}\n");
        assert_eq!(text.as_deref(), Ok(r#"{"rows":[1.5,"a\"}"]}"#));
    }

    #[test]
    fn result_text_reports_bad_replies_as_typed_errors() {
        let protocol = |reply| match result_text_for(reply) {
            Err(ServeError::Protocol(message)) => message,
            other => panic!("{reply:?} gave {other:?}"),
        };
        // Cut off mid-report by a closed connection.
        assert!(protocol("{\"ok\":true,\"id\":7,\"result\":{\"rows\":[1,").contains("truncated"));
        // A whole line whose report is not JSON.
        assert!(
            protocol("{\"ok\":true,\"id\":7,\"result\":{\"rows\":[1,}}\n").contains("malformed")
        );
        assert!(protocol("{\"ok\":true,\"id\":7,\"result\":tru}\n").contains("malformed"));
        assert!(protocol("{\"ok\":true,\"id\":7,\"result\":{}}}\n").contains("malformed"));
        // Not the stored layout, and not a reply either.
        assert!(protocol("{\"ok\":true,\"id\":7}\n").contains("result"));
        assert!(protocol("{\"ok\":true,\"id\":,\"result\":{}}\n").contains("malformed"));
        assert!(protocol("garbage\n").contains("malformed"));
        assert!(protocol("").contains("closed"));
        assert_eq!(
            result_text_for("{\"ok\":false,\"error\":\"unknown job id 7\"}\n"),
            Err(ServeError::Rejected("unknown job id 7".into()))
        );
    }
}
