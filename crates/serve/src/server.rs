//! The socket front-end: TCP and unix-domain listeners speaking the
//! line-delimited protocol, one handler thread per connection.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use serde::Value;

use crate::engine::Engine;
use crate::error::ServeError;
use crate::protocol::{error_response, ok_response, to_line, MetricsFormat, Request};

/// The longest request line the server reads, in bytes. A longer line
/// gets an error response and is discarded up to its newline, so one
/// client cannot grow a handler's buffer without limit.
const MAX_REQUEST_BYTES: usize = 1 << 20;

/// A bound server address, normalized back to string form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundAddr {
    /// `tcp:<ip>:<port>` (port resolved when binding port 0).
    Tcp(String),
    /// `unix:<path>`.
    Unix(PathBuf),
}

impl BoundAddr {
    /// The `unix:...`/`tcp:...` string clients connect with.
    pub fn to_connect_string(&self) -> String {
        match self {
            BoundAddr::Tcp(addr) => format!("tcp:{addr}"),
            BoundAddr::Unix(path) => format!("unix:{}", path.display()),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
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
        if let Some(path) = addr.strip_prefix("unix:") {
            if path.is_empty() {
                return Err(ServeError::Addr("empty unix socket path".into()));
            }
            let path = PathBuf::from(path);
            let listener = UnixListener::bind(&path)
                .map_err(|e| ServeError::Io(format!("bind {}: {e}", path.display())))?;
            return Ok(Server {
                listener: Listener::Unix(listener),
                engine,
                addr: BoundAddr::Unix(path),
                stop: Arc::new(AtomicBool::new(false)),
            });
        }
        let hostport = addr.strip_prefix("tcp:").unwrap_or(addr);
        if !hostport.contains(':') {
            return Err(ServeError::Addr(format!(
                "`{addr}` is neither unix:<path> nor <host>:<port>"
            )));
        }
        let listener = TcpListener::bind(hostport)
            .map_err(|e| ServeError::Io(format!("bind {hostport}: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| ServeError::Io(e.to_string()))?;
        Ok(Server {
            listener: Listener::Tcp(listener),
            engine,
            addr: BoundAddr::Tcp(local.to_string()),
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
    /// then joins the engine's workers (draining queued jobs) and cleans
    /// up the socket. Run this on a dedicated thread to serve in the
    /// background.
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
        let mut handlers = Vec::new();
        loop {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            match &listener {
                Listener::Tcp(l) => {
                    let (stream, _) = l.accept().map_err(|e| ServeError::Io(e.to_string()))?;
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    stream.set_nodelay(true).ok(); // request/response lines, not bulk
                    let engine = engine.clone();
                    let stop = Arc::clone(&stop);
                    let addr = addr.clone();
                    handlers.push(std::thread::spawn(move || {
                        handle_connection(stream, &engine, &stop, &addr);
                    }));
                }
                Listener::Unix(l) => {
                    let (stream, _) = l.accept().map_err(|e| ServeError::Io(e.to_string()))?;
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let engine = engine.clone();
                    let stop = Arc::clone(&stop);
                    let addr = addr.clone();
                    handlers.push(std::thread::spawn(move || {
                        handle_connection(stream, &engine, &stop, &addr);
                    }));
                }
            }
        }
        for handler in handlers {
            handler.join().ok();
        }
        engine.shutdown();
        if let BoundAddr::Unix(path) = &addr {
            std::fs::remove_file(path).ok();
        }
        Ok(())
    }
}

/// Serves one connection: read a line, answer a line, until EOF (or a
/// shutdown request, which also stops the accept loop).
fn handle_connection<S>(stream: S, engine: &Engine, stop: &AtomicBool, addr: &BoundAddr)
where
    for<'a> &'a S: std::io::Read + Write,
{
    let mut reader = BufReader::new(&stream);
    let mut line = Vec::new();
    loop {
        let (response, shutdown) = match read_request(&mut reader, &mut line) {
            Ok(None) | Err(_) => return,
            // `watch` is the protocol's one multi-line response: stream
            // the delta lines here, then fall back to request/response
            // mode.
            Ok(Some(Ok(Request::Watch { interval_ms, count }))) => {
                if stream_watch(&stream, engine, interval_ms, count).is_err() {
                    return;
                }
                continue;
            }
            Ok(Some(Ok(request))) => respond(engine, request),
            Ok(Some(Err(message))) => (error_response(message), false),
        };
        let mut writer = &stream;
        if writer
            .write_all((to_line(&response) + "\n").as_bytes())
            .and_then(|()| writer.flush())
            .is_err()
        {
            return;
        }
        if shutdown {
            stop.store(true, Ordering::SeqCst);
            wake_acceptor(addr);
            return;
        }
    }
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

/// Computes the response for one parsed request; the boolean asks the
/// caller to begin shutdown after writing it.
fn respond(engine: &Engine, request: Request) -> (Value, bool) {
    match request {
        Request::Submit(spec) => match engine.submit(*spec) {
            Ok((id, deduped)) => (
                ok_response(vec![
                    ("id".into(), Value::UInt(id)),
                    ("deduped".into(), Value::Bool(deduped)),
                ]),
                false,
            ),
            Err(message) => (error_response(message), false),
        },
        Request::Status(id) => match engine.status(id) {
            Some(status) => (
                ok_response(vec![
                    ("id".into(), Value::UInt(id)),
                    ("state".into(), Value::Str(status.label().into())),
                ]),
                false,
            ),
            None => (error_response(format!("unknown job id {id}")), false),
        },
        Request::Result(id) => match engine.wait_result(id) {
            Ok(report) => (
                ok_response(vec![
                    ("id".into(), Value::UInt(id)),
                    ("result".into(), (*report).clone()),
                ]),
                false,
            ),
            Err(message) => (error_response(message), false),
        },
        Request::Stats => (ok_response(vec![("stats".into(), engine.stats())]), false),
        Request::Metrics(format) => {
            let snapshot = engine.metrics();
            let fields = match format {
                MetricsFormat::Json => vec![("metrics".into(), snapshot.to_value())],
                MetricsFormat::Prometheus => {
                    vec![("metrics_text".into(), Value::Str(snapshot.to_prometheus()))]
                }
            };
            (ok_response(fields), false)
        }
        Request::Profile(id) => match engine.profile(id) {
            Ok(profile) => (
                ok_response(vec![
                    ("id".into(), Value::UInt(id)),
                    ("profile".into(), (*profile).clone()),
                ]),
                false,
            ),
            Err(message) => (error_response(message), false),
        },
        // Streamed by `handle_connection` before `respond` is reached;
        // kept total so a direct call still answers sensibly.
        Request::Watch { .. } => (
            error_response("watch is a streaming command; connect over a socket"),
            false,
        ),
        Request::Shutdown => (ok_response(vec![]), true),
    }
}

/// Streams one `watch` reply: `count` lines of metrics deltas, each
/// covering one `interval_ms` tick ([`Snapshot::delta_since`] semantics —
/// counters and histograms as differences, gauges as current values).
/// Stops early, with an error line, if the server begins shutting down.
///
/// An `Err` return means the client went away: the caller drops the
/// connection.
fn stream_watch<S>(stream: &S, engine: &Engine, interval_ms: u64, count: u64) -> std::io::Result<()>
where
    for<'a> &'a S: std::io::Read + Write,
{
    let mut writer = stream;
    let mut write_line = move |value: &Value| {
        writer
            .write_all((to_line(value) + "\n").as_bytes())
            .and_then(|()| writer.flush())
    };
    let mut baseline = engine.metrics();
    for seq in 0..count.max(1) {
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
        if engine.stopping() {
            // Answer the remaining expectation with one terminal error
            // line so a blocked reader is released, then drop the
            // connection.
            write_line(&error_response("server is shutting down"))?;
            return Err(std::io::Error::other("watch interrupted by shutdown"));
        }
        let current = engine.metrics();
        let delta = current.delta_since(&baseline);
        baseline = current;
        write_line(&ok_response(vec![
            ("seq".into(), Value::UInt(seq)),
            ("metrics".into(), delta.to_value()),
        ]))?;
    }
    Ok(())
}

/// Unblocks the accept loop after `stop` is set by making one throwaway
/// connection to ourselves.
fn wake_acceptor(addr: &BoundAddr) {
    match addr {
        BoundAddr::Tcp(hostport) => {
            TcpStream::connect(hostport).ok();
        }
        BoundAddr::Unix(path) => {
            UnixStream::connect(path).ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
