//! The socket front-end: TCP and unix-domain listeners speaking the
//! line-delimited protocol, one handler thread per connection.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use serde::Value;

use crate::engine::Engine;
use crate::error::ServeError;
use crate::protocol::{error_response, ok_response, stored_reply, to_line, MetricsFormat, Request};

/// The longest request line the server reads, in bytes. A longer line
/// gets an error response and is discarded up to its newline, so one
/// client cannot grow a handler's buffer without limit.
const MAX_REQUEST_BYTES: usize = 1 << 20;

/// How often a sleeping `watch` checks whether the server is stopping.
const STOP_POLL: Duration = Duration::from_millis(50);

/// A server address: what [`Server::bind`] listens on and
/// [`Client::connect`](crate::Client::connect) dials.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundAddr {
    /// `tcp:<host>:<port>` (port resolved when binding port 0).
    Tcp(String),
    /// `unix:<path>`.
    Unix(PathBuf),
}

impl BoundAddr {
    /// Parses `unix:<path>`, `tcp:<host>:<port>`, or a bare
    /// `<host>:<port>`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Addr`] for anything else.
    pub(crate) fn parse(addr: &str) -> Result<BoundAddr, ServeError> {
        if let Some(path) = addr.strip_prefix("unix:") {
            if path.is_empty() {
                return Err(ServeError::Addr("empty unix socket path".into()));
            }
            return Ok(BoundAddr::Unix(PathBuf::from(path)));
        }
        let hostport = addr.strip_prefix("tcp:").unwrap_or(addr);
        if !hostport.contains(':') {
            return Err(ServeError::Addr(format!(
                "`{addr}` is neither unix:<path> nor <host>:<port>"
            )));
        }
        Ok(BoundAddr::Tcp(hostport.to_string()))
    }

    /// The `unix:...`/`tcp:...` string clients connect with.
    pub fn to_connect_string(&self) -> String {
        match self {
            BoundAddr::Tcp(addr) => format!("tcp:{addr}"),
            BoundAddr::Unix(path) => format!("unix:{}", path.display()),
        }
    }
}

/// One connection over either transport.
pub(crate) enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    /// Dials `addr`.
    pub(crate) fn connect(addr: &BoundAddr) -> Result<Stream, ServeError> {
        match addr {
            BoundAddr::Tcp(hostport) => TcpStream::connect(hostport)
                .map(Stream::tcp)
                .map_err(|e| ServeError::Io(format!("connect {hostport}: {e}"))),
            BoundAddr::Unix(path) => UnixStream::connect(path)
                .map(Stream::Unix)
                .map_err(|e| ServeError::Io(format!("connect {}: {e}", path.display()))),
        }
    }

    fn tcp(stream: TcpStream) -> Stream {
        stream.set_nodelay(true).ok(); // request/response lines, not bulk
        Stream::Tcp(stream)
    }

    fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    /// Closes both directions, releasing whoever is blocked reading.
    fn shutdown(&self) {
        match self {
            Stream::Tcp(s) => s.shutdown(Shutdown::Both),
            Stream::Unix(s) => s.shutdown(Shutdown::Both),
        }
        .ok();
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Stream> {
        Ok(match self {
            Listener::Tcp(l) => Stream::tcp(l.accept()?.0),
            Listener::Unix(l) => Stream::Unix(l.accept()?.0),
        })
    }
}

/// A bound evaluation server. [`run`](Server::run) accepts connections
/// until a client sends `shutdown`, then drains the engine and returns.
///
/// Addresses: `unix:<path>` binds a unix-domain socket; `tcp:<host>:<port>`
/// (or a bare `<host>:<port>`) binds TCP. Port 0 picks a free port —
/// read it back from [`addr`](Server::addr).
pub struct Server {
    listener: Listener,
    engine: Engine,
    addr: BoundAddr,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Binds a listener and attaches it to `engine`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Addr`] for unparseable addresses and
    /// [`ServeError::Io`] for bind failures (port in use, stale socket
    /// path, ...).
    pub fn bind(addr: &str, engine: Engine) -> Result<Server, ServeError> {
        let (listener, addr) = match BoundAddr::parse(addr)? {
            BoundAddr::Unix(path) => {
                let listener = UnixListener::bind(&path)
                    .map_err(|e| ServeError::Io(format!("bind {}: {e}", path.display())))?;
                (Listener::Unix(listener), BoundAddr::Unix(path))
            }
            BoundAddr::Tcp(hostport) => {
                let listener = TcpListener::bind(&hostport)
                    .map_err(|e| ServeError::Io(format!("bind {hostport}: {e}")))?;
                let local = listener.local_addr()?;
                (Listener::Tcp(listener), BoundAddr::Tcp(local.to_string()))
            }
        };
        Ok(Server {
            listener,
            engine,
            addr,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (with any ephemeral TCP port resolved).
    pub fn addr(&self) -> &BoundAddr {
        &self.addr
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Accepts and serves connections until a `shutdown` request arrives,
    /// then closes every open connection, joins the engine's workers
    /// (draining queued jobs) and cleans up the socket. Run this on a
    /// dedicated thread to serve in the background.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] if accepting fails outright.
    pub fn run(self) -> Result<(), ServeError> {
        let Server {
            listener,
            engine,
            addr,
            stop,
        } = self;
        // Each live handler, with a clone of its stream to close at exit.
        let mut live: Vec<(JoinHandle<()>, Stream)> = Vec::new();
        let accepted = loop {
            let stream = match listener.accept() {
                Ok(stream) => stream,
                Err(e) => break Err(ServeError::from(e)),
            };
            if stop.load(Ordering::SeqCst) {
                break Ok(());
            }
            live.retain(|(handler, _)| !handler.is_finished());
            let Ok(peer) = stream.try_clone() else {
                continue; // out of descriptors: drop the connection
            };
            let engine = engine.clone();
            let stop = Arc::clone(&stop);
            let addr = addr.clone();
            let handler =
                std::thread::spawn(move || handle_connection(stream, &engine, &stop, &addr));
            live.push((handler, peer));
        };
        for (_, peer) in &live {
            peer.shutdown();
        }
        for (handler, _) in live {
            handler.join().ok();
        }
        engine.shutdown();
        if let BoundAddr::Unix(path) = &addr {
            std::fs::remove_file(path).ok();
        }
        accepted
    }
}

/// Serves one connection: read a line, answer a line, until EOF (or a
/// shutdown request, which also stops the accept loop).
fn handle_connection(stream: Stream, engine: &Engine, stop: &AtomicBool, addr: &BoundAddr) {
    let mut conn = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        let request = match read_request(&mut conn, &mut line) {
            Ok(None) | Err(_) => return,
            Ok(Some(request)) => request,
        };
        let reply = match request {
            // `watch` is the protocol's one multi-line response: stream
            // the delta lines here, then fall back to request/response
            // mode.
            Ok(Request::Watch { interval_ms, count }) => {
                match stream_watch(conn.get_mut(), engine, stop, interval_ms, count) {
                    Ok(()) => continue,
                    Err(_) => return,
                }
            }
            Ok(Request::Shutdown) => {
                if send(conn.get_mut(), to_line(&ok_response(vec![]))).is_ok() {
                    stop.store(true, Ordering::SeqCst);
                    Stream::connect(addr).ok(); // wakes the accept loop
                }
                return;
            }
            Ok(request) => respond(engine, request),
            Err(message) => to_line(&error_response(message)),
        };
        if send(conn.get_mut(), reply).is_err() {
            return;
        }
    }
}

/// Writes one reply line: every reply the server sends leaves through
/// here.
fn send(stream: &mut Stream, mut line: String) -> io::Result<()> {
    line.push('\n');
    stream.write_all(line.as_bytes())?;
    stream.flush()
}

/// Reads the next non-blank request line into `line` and parses it.
/// `Ok(None)` means the client closed the connection. A line longer than
/// [`MAX_REQUEST_BYTES`] is discarded up to its newline and, like a line
/// that is not UTF-8, comes back as an error message to answer.
fn read_request(
    reader: &mut impl BufRead,
    line: &mut Vec<u8>,
) -> io::Result<Option<Result<Request, String>>> {
    loop {
        line.clear();
        let limit = MAX_REQUEST_BYTES as u64 + 1; // room for the newline
        if reader.by_ref().take(limit).read_until(b'\n', line)? == 0 {
            return Ok(None);
        }
        if line.len() > MAX_REQUEST_BYTES && line.last() != Some(&b'\n') {
            reader.skip_until(b'\n')?;
            return Ok(Some(Err(format!(
                "request line exceeds {MAX_REQUEST_BYTES} bytes"
            ))));
        }
        let text = match std::str::from_utf8(line) {
            Ok(text) => text,
            Err(e) => return Ok(Some(Err(format!("request is not valid UTF-8: {e}")))),
        };
        if !text.trim().is_empty() {
            return Ok(Some(Request::parse(text)));
        }
    }
}

/// The reply line for one request-response request. Finished reports
/// and profiles are spliced in as the text the engine stored, never
/// decoded or re-encoded.
fn respond(engine: &Engine, request: Request) -> String {
    let stored = |id, field, text: Result<Arc<str>, String>| match text {
        Ok(json) => stored_reply(id, field, &json),
        Err(message) => to_line(&error_response(message)),
    };
    let reply = match request {
        Request::Result(id) => return stored(id, "result", engine.wait_result(id)),
        Request::Profile(id) => return stored(id, "profile", engine.profile(id)),
        Request::Submit(spec) => match engine.submit(*spec) {
            Ok((id, deduped)) => ok_response(vec![
                ("id".into(), Value::UInt(id)),
                ("deduped".into(), Value::Bool(deduped)),
            ]),
            Err(message) => error_response(message),
        },
        Request::Status(id) => match engine.status(id) {
            Some(status) => ok_response(vec![
                ("id".into(), Value::UInt(id)),
                ("state".into(), Value::Str(status.label().into())),
            ]),
            None => error_response(format!("unknown job id {id}")),
        },
        Request::Stats => ok_response(vec![("stats".into(), engine.stats())]),
        Request::Metrics(format) => {
            let snapshot = engine.metrics();
            ok_response(match format {
                MetricsFormat::Json => vec![("metrics".into(), snapshot.to_value())],
                MetricsFormat::Prometheus => {
                    vec![("metrics_text".into(), Value::Str(snapshot.to_prometheus()))]
                }
            })
        }
        // Streamed and handled by `handle_connection` before `respond` is
        // reached; kept total so a direct call still answers sensibly.
        Request::Watch { .. } => {
            error_response("watch is a streaming command; connect over a socket")
        }
        Request::Shutdown => ok_response(vec![]),
    };
    to_line(&reply)
}

/// Streams one `watch` reply: `count` lines of metrics deltas, each
/// covering one `interval_ms` tick ([`Snapshot::delta_since`] semantics —
/// counters and histograms as differences, gauges as current values).
/// Stops early once the server begins shutting down, sending an error
/// line if the connection is still open: the wait between lines is cut
/// into [`STOP_POLL`] slices that each check `stop`.
///
/// An `Err` return means the connection is done: the caller drops it.
fn stream_watch(
    stream: &mut Stream,
    engine: &Engine,
    stop: &AtomicBool,
    interval_ms: u64,
    count: u64,
) -> io::Result<()> {
    let mut baseline = engine.metrics();
    for seq in 0..count.max(1) {
        let mut wait = Duration::from_millis(interval_ms);
        while !wait.is_zero() && !stop.load(Ordering::SeqCst) {
            let slice = wait.min(STOP_POLL);
            std::thread::sleep(slice);
            wait -= slice;
        }
        if stop.load(Ordering::SeqCst) {
            // Answer the remaining expectation with one terminal error
            // line so a blocked reader is released, then drop the
            // connection.
            send(stream, to_line(&error_response("server is shutting down")))?;
            return Err(io::Error::other("watch interrupted by shutdown"));
        }
        let current = engine.metrics();
        let delta = current.delta_since(&baseline);
        baseline = current;
        send(
            stream,
            to_line(&ok_response(vec![
                ("seq".into(), Value::UInt(seq)),
                ("metrics".into(), delta.to_value()),
            ])),
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobSpec;
    use mim_runner::{CellMemo, WorkloadStore};

    #[test]
    fn stored_replies_equal_encoding_the_reply_value() {
        let engine = Engine::start(WorkloadStore::new(), CellMemo::new(), 1, 8);
        for capture in [true, false] {
            engine.set_profile_capture(capture);
            let json = format!(
                r#"{{"kind":"experiment","title":"capture {capture}","workloads":["sha"],
                    "evaluators":["model","sim"],"limit":20000}}"#
            );
            let value: Value = serde_json::from_str(&json).expect("job JSON parses");
            let spec = JobSpec::from_value(&value).expect("job parses");
            let report = spec
                .execute(&WorkloadStore::new(), &CellMemo::new())
                .expect("job runs");
            let (id, _) = engine.submit(spec).expect("submits");
            let reply = |field: &str, payload: Value| {
                to_line(&ok_response(vec![
                    ("id".into(), Value::UInt(id)),
                    (field.into(), payload),
                ]))
            };
            assert_eq!(
                respond(&engine, Request::Result(id)),
                reply("result", report)
            );
            let profile = respond(&engine, Request::Profile(id));
            if capture {
                let stored = engine.profile(id).expect("profile captured");
                let value: Value = serde_json::from_str(&stored).expect("profile is JSON");
                assert_eq!(profile, reply("profile", value));
            } else {
                let message = format!("job {id} has no profile (capture was disabled)");
                assert_eq!(profile, to_line(&error_response(message)));
            }
        }
        engine.shutdown();
    }

    #[test]
    fn request_lines_are_capped_at_max_request_bytes() {
        let stats = br#"{"cmd":"stats"}"#;
        let mut input = Vec::new();
        for len in [MAX_REQUEST_BYTES, MAX_REQUEST_BYTES + 1] {
            input.extend(std::iter::repeat_n(b' ', len - stats.len()));
            input.extend_from_slice(stats);
            input.push(b'\n');
        }
        input.extend_from_slice(stats); // a last line without its newline
        let mut reader = BufReader::new(input.as_slice());
        let mut line = Vec::new();
        let mut next = || read_request(&mut reader, &mut line).expect("in-memory read");
        assert_eq!(next(), Some(Ok(Request::Stats)), "exactly at the cap");
        let over = next().expect("a line").expect_err("one byte over the cap");
        assert!(over.contains("exceeds"), "{over}");
        assert_eq!(next(), Some(Ok(Request::Stats)), "the next line is intact");
        assert_eq!(next(), None);
    }
}
