//! The daemon: accept loop, per-connection protocol state machine,
//! limits, and graceful drain (`docs/serving.md` §4–§9).
//!
//! One [`Server`] owns one shared [`StoreSession`] (eager or lazy), a
//! [`Coalescer`] over it, an accept thread, and one thread per live
//! connection. Every request goes through [`Coalescer::submit`]: it
//! queues, and whichever connection thread finds no batch running leads
//! one, answering everything queued with one flat `query_many` call.

use crate::coalesce::{CoalesceStats, Coalescer, Rejection};
use crate::protocol::{
    check_length, write_frame, Frame, FrameError, FrameTag, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use polygamy_core::query::RelationshipQuery;
use polygamy_json as json;
use polygamy_obs::{count, global, names};
use polygamy_store::{write_outcome_json, StoreSession};
use std::fmt::{self, Write as _};
use std::io::{self, IoSliceMut, Read, Write as _};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The server's JSON handshake, sent as the `H` frame payload on every
/// accepted connection (`docs/serving.md` §7).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// [`PROTOCOL_VERSION`] of the serving build; clients reject a
    /// mismatch instead of guessing at frame semantics.
    pub protocol: u32,
    /// Human-readable server identification.
    pub server: String,
    /// Data sets this session serves, in catalog order.
    pub datasets: Vec<String>,
    /// Whether cross-connection batch coalescing is enabled; a server of
    /// this build always writes `true`.
    pub coalescing: bool,
}

impl Hello {
    /// The `H` payload: `{"protocol","server","datasets","coalescing"}`,
    /// in that order.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"protocol\":{},\"server\":", self.protocol);
        json::write_str(&mut out, &self.server);
        out.push_str(",\"datasets\":[");
        for (i, dataset) in self.datasets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, dataset);
        }
        let _ = write!(out, "],\"coalescing\":{}}}", self.coalescing);
        out
    }

    /// Reads an `H` payload. Keys may come in any order and unknown keys
    /// are ignored, so a newer server may add fields (§7); a missing key or
    /// a value of the wrong type is an error.
    pub fn from_json(text: &str) -> Result<Self, json::Error> {
        let hello = json::parse(text)?;
        Ok(Self {
            protocol: hello.get("protocol")?.as_int()?,
            server: hello.get("server")?.as_str()?.to_owned(),
            datasets: (hello.get("datasets")?.as_array()?.iter())
                .map(|d| d.as_str().map(str::to_owned))
                .collect::<Result<_, _>>()?,
            coalescing: hello.get("coalescing")?.as_bool()?,
        })
    }
}

/// The JSON payload of an `E` frame (`docs/serving.md` §6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Machine-readable kind: `parse`, `query`, `bad-frame`,
    /// `overloaded`, `shutting-down` or `internal`.
    pub error: String,
    /// Human-readable detail; for `parse` errors this is the full
    /// caret-underlined diagnostic from [`polygamy_core::pql`].
    pub message: String,
}

impl WireError {
    fn new(kind: &str, message: impl Into<String>) -> Self {
        Self {
            error: kind.into(),
            message: message.into(),
        }
    }

    /// The `E` payload: `{"error","message"}`, in that order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"error\":");
        json::write_str(&mut out, &self.error);
        out.push_str(",\"message\":");
        json::write_str(&mut out, &self.message);
        out.push('}');
        out
    }

    /// Reads an `E` payload, under the same rules as [`Hello::from_json`]:
    /// any key order, unknown keys ignored, a missing key an error.
    pub fn from_json(text: &str) -> Result<Self, json::Error> {
        let error = json::parse(text)?;
        Ok(Self {
            error: error.get("error")?.as_str()?.to_owned(),
            message: error.get("message")?.as_str()?.to_owned(),
        })
    }
}

/// Tunable limits, all documented (with defaults) in the limits table of
/// `docs/serving.md` §9.
///
/// ```
/// use polygamy_serve::ServeOptions;
/// let opts = ServeOptions::default();
/// assert_eq!(opts.max_inflight, 256);
/// ```
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Admission cap in *queries* (not requests) queued or evaluating at
    /// once; submissions beyond it block their connection (TCP
    /// backpressure). CLI: `--max-inflight`.
    pub max_inflight: usize,
    /// A connection must deliver each frame within this long of the
    /// previous frame's completion (or of connect); idle or stalled
    /// connections are closed. CLI: `--read-timeout-ms`.
    pub read_timeout: Duration,
    /// Largest accepted frame length (tag + payload). CLI:
    /// `--max-frame-bytes`.
    pub max_frame_bytes: u32,
    /// Read by nothing: every request is coalesced (`docs/serving.md` §8).
    /// The field stays only because the benchmark harness still sets it.
    pub coalesce: bool,
    /// When set, a background thread appends the registry snapshot to
    /// this file as one JSON line per second (plus a final line at
    /// drain), so an unattended daemon leaves a metrics record without
    /// any client polling the `M` frame. CLI: `--metrics-jsonl`.
    pub metrics_jsonl: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            max_inflight: 256,
            read_timeout: Duration::from_secs(30),
            max_frame_bytes: MAX_FRAME_BYTES,
            coalesce: true,
            metrics_jsonl: None,
        }
    }
}

/// State shared by the accept loop and the connection threads.
struct Shared {
    coalescer: Coalescer,
    opts: ServeOptions,
    draining: AtomicBool,
    conns: Mutex<Vec<JoinHandle<()>>>,
    hello: Vec<u8>,
    /// Where a connection reaches the listener, which blocks in `accept`:
    /// the bound address, or loopback of its family when that is
    /// unspecified (`0.0.0.0`, `[::]`).
    wake: SocketAddr,
    /// When the first drain trigger fired — the start of the interval
    /// `serve.drain_ns` measures.
    drain_started: Mutex<Option<Instant>>,
}

impl Shared {
    fn draining(&self) -> bool {
        // ordering: SeqCst pairs with the store in `begin_drain` so that
        // once any thread observes draining, it also observes the closed
        // coalescer — admission and drain must agree on one total order.
        self.draining.load(Ordering::SeqCst)
    }

    /// Flips the server into drain mode: stop accepting, refuse new
    /// requests, let admitted work finish. Idempotent. One connection to
    /// the listener wakes the accept loop to see the flag.
    fn begin_drain(&self) {
        self.drain_started
            .lock()
            .expect("drain stamp poisoned")
            .get_or_insert_with(Instant::now);
        // ordering: SeqCst with the loads in `draining()` — the flag and
        // the coalescer close below form one publication that every
        // admission check sees in the same order.
        self.draining.store(true, Ordering::SeqCst);
        self.coalescer.close();
        let _ = TcpStream::connect_timeout(&self.wake, Duration::from_secs(1));
    }
}

/// A running PQL daemon bound to a TCP address.
///
/// ```no_run
/// use polygamy_serve::{Server, ServeOptions};
/// use polygamy_store::StoreSession;
/// use std::sync::Arc;
///
/// let session = Arc::new(StoreSession::open_lazy("city.plst").unwrap());
/// let server = Server::bind("127.0.0.1:7461", session, ServeOptions::default()).unwrap();
/// println!("serving on {}", server.local_addr());
/// let stats = server.wait(); // returns once a client sends the shutdown frame
/// println!("served {} queries in {} batches", stats.queries, stats.batches);
/// ```
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    flusher: Option<JoinHandle<()>>,
    flusher_stop: Arc<AtomicBool>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port, then
    /// [`Server::local_addr`]) and starts serving `session` with the
    /// given options. The session is shared — concurrent connections are
    /// answered from one index, one segment LRU and one query cache.
    ///
    /// Fails when `opts.metrics_jsonl` cannot be opened for appending (the
    /// error names the path) or `addr` cannot be bound (it names the
    /// address): a daemon asked to keep a metrics record never runs
    /// without one.
    pub fn bind(
        addr: impl ToSocketAddrs + fmt::Display,
        session: Arc<StoreSession>,
        opts: ServeOptions,
    ) -> io::Result<Self> {
        let metrics_file = match &opts.metrics_jsonl {
            None => None,
            Some(path) => {
                let opened = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path);
                Some(opened.map_err(|e| {
                    let what = format!("cannot open metrics file {}: {e}", path.display());
                    io::Error::new(e.kind(), what)
                })?)
            }
        };
        let listener = TcpListener::bind(&addr)
            .map_err(|e| io::Error::new(e.kind(), format!("cannot bind {addr}: {e}")))?;
        let local = listener.local_addr()?;
        let wake = match local.ip() {
            ip if !ip.is_unspecified() => local,
            ip if ip.is_ipv4() => SocketAddr::new(Ipv4Addr::LOCALHOST.into(), local.port()),
            _ => SocketAddr::new(Ipv6Addr::LOCALHOST.into(), local.port()),
        };
        let hello = Hello {
            protocol: PROTOCOL_VERSION,
            server: format!("polygamy-serve {}", env!("CARGO_PKG_VERSION")),
            datasets: (session.catalog().iter())
                .map(|d| d.meta.name.clone())
                .collect(),
            coalescing: true,
        };
        let shared = Arc::new(Shared {
            coalescer: Coalescer::new(session, opts.max_inflight),
            opts,
            draining: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            hello: hello.to_json().into_bytes(),
            wake,
            drain_started: Mutex::new(None),
        });
        let flusher_stop = Arc::new(AtomicBool::new(false));
        let flusher = metrics_file.map(|file| {
            let stop = Arc::clone(&flusher_stop);
            std::thread::Builder::new()
                .name("polygamy-serve-metrics".into())
                .spawn(move || metrics_flusher(file, &stop))
                .expect("spawn metrics flusher")
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("polygamy-serve-accept".into())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn accept loop")
        };
        Ok(Self {
            shared,
            addr: local,
            accept: Some(accept),
            flusher,
            flusher_stop,
        })
    }

    /// The address the server actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Coalescing/admission counters so far.
    pub fn stats(&self) -> CoalesceStats {
        self.shared.coalescer.stats()
    }

    /// Begins a graceful drain from the host process (the wire's `S`
    /// frame does the same): stop accepting, refuse new requests, finish
    /// and flush everything already admitted. Idempotent; returns
    /// immediately — pair with [`Server::wait`].
    pub fn shutdown(&self) {
        self.shared.begin_drain();
    }

    /// Blocks until the server has fully drained (which requires a
    /// shutdown trigger — [`Server::shutdown`] or a client `S` frame) and
    /// every thread has exited; returns the final counters.
    pub fn wait(mut self) -> CoalesceStats {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // No new connections can spawn now; join the existing ones.
        let conns = std::mem::take(&mut *self.shared.conns.lock().expect("conns poisoned"));
        for h in conns {
            let _ = h.join();
        }
        // Everything admitted has been answered: the drain is over.
        if let Some(started) = *self
            .shared
            .drain_started
            .lock()
            .expect("drain stamp poisoned")
        {
            let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            count(names::SERVE_DRAIN_NS, nanos);
        }
        // Stop the flusher last so its final line records post-drain state.
        // ordering: SeqCst publishes the stop flag after every drain-side
        // metric update above, so the flusher's final snapshot is complete.
        self.flusher_stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.flusher.take() {
            let _ = h.join();
        }
        self.shared.coalescer.stats()
    }
}

/// Body of the `--metrics-jsonl` thread: appends one registry-snapshot
/// JSON line roughly every second, and a final line once `stop` is set
/// (after the drain completes, so the last line is the daemon's closing
/// state).
fn metrics_flusher(mut file: std::fs::File, stop: &AtomicBool) {
    loop {
        // ordering: SeqCst pairs with the shutdown store — seeing `stop`
        // implies seeing the drained metrics the final line must record.
        let stopping = stop.load(Ordering::SeqCst);
        let line = global().snapshot().to_json();
        let _ = writeln!(file, "{line}");
        let _ = file.flush();
        if stopping {
            return;
        }
        for _ in 0..20 {
            // ordering: same SeqCst pairing as the loop-top load.
            if stop.load(Ordering::SeqCst) {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

/// Accepts until drain begins. `accept` blocks; the drain's own wake-up
/// connection (or a client's arriving after it) is dropped unserved. Only
/// a failed `accept` (`EMFILE`, say) waits before the next.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.draining() {
        match listener.accept() {
            Ok(_) if shared.draining() => return,
            Ok((stream, _peer)) => {
                let mut conns = shared.conns.lock().expect("conns poisoned");
                // Join the connections that have ended, so a finished
                // thread's stack is not kept mapped until the drain.
                for handle in std::mem::take(&mut *conns) {
                    if handle.is_finished() {
                        let _ = handle.join();
                    } else {
                        conns.push(handle);
                    }
                }
                let shared2 = Arc::clone(shared);
                // A thread that cannot be spawned drops its closure, and
                // with it the stream: that connection closes, and the
                // daemon keeps accepting.
                if let Ok(handle) = std::thread::Builder::new()
                    .name("polygamy-serve-conn".into())
                    .spawn(move || serve_connection(stream, &shared2))
                {
                    conns.push(handle);
                }
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// How one attempt to read the next frame ended.
enum NextFrame {
    /// A complete frame arrived.
    Frame(Frame),
    /// Close the connection quietly (clean EOF, drain while idle).
    Close,
    /// The peer exceeded the read timeout (idle or stalled mid-frame).
    TimedOut,
    /// Framing broke in a way that poisons the stream position.
    Fatal(FrameError),
}

/// Fills `bufs` completely — one vectored read per wake-up, so a frame's
/// tag byte and payload land in their own buffers in one system call —
/// with the connection's poll tick, honouring the frame deadline and
/// (while no byte of the current frame has arrived) the drain flag.
fn read_full(
    stream: &mut TcpStream,
    mut bufs: &mut [IoSliceMut<'_>],
    deadline: Instant,
    shared: &Shared,
    frame_started: bool,
) -> Result<(), NextFrame> {
    let mut started = frame_started;
    IoSliceMut::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        match stream.read_vectored(bufs) {
            Ok(0) => {
                return Err(if started {
                    NextFrame::Fatal(FrameError::TruncatedFrame)
                } else {
                    NextFrame::Close
                });
            }
            Ok(n) => {
                started = true;
                IoSliceMut::advance_slices(&mut bufs, n);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.draining() && !started {
                    return Err(NextFrame::Close);
                }
                if Instant::now() >= deadline {
                    return Err(NextFrame::TimedOut);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(NextFrame::Fatal(FrameError::Io(e))),
        }
    }
    Ok(())
}

/// Reads the next frame, enforcing the read timeout: the deadline starts
/// when the wait starts and is *not* extended by partial progress, so a
/// drip-feeding client cannot hold a connection open indefinitely.
fn next_frame(stream: &mut TcpStream, shared: &Shared) -> NextFrame {
    let deadline = Instant::now() + shared.opts.read_timeout;
    let mut prefix = [0u8; 4];
    let mut bufs = [IoSliceMut::new(&mut prefix)];
    if let Err(out) = read_full(stream, &mut bufs, deadline, shared, false) {
        return out;
    }
    let max = shared.opts.max_frame_bytes;
    let payload_len = match check_length(u32::from_le_bytes(prefix), max) {
        Ok(n) => n,
        Err(e) => return NextFrame::Fatal(e),
    };
    let mut tag = [0u8; 1];
    let mut payload = vec![0u8; payload_len];
    let mut bufs = [IoSliceMut::new(&mut tag), IoSliceMut::new(&mut payload)];
    if let Err(out) = read_full(stream, &mut bufs, deadline, shared, true) {
        return out;
    }
    NextFrame::Frame(Frame {
        tag: tag[0],
        payload,
    })
}

fn send_error(stream: &mut TcpStream, err: &WireError) -> io::Result<()> {
    // Every error frame bumps its per-kind counter; the kind set is the
    // closed wire vocabulary of docs/serving.md §6, so this creates at
    // most six counters.
    global()
        .counter(&format!("{}{}", names::SERVE_ERRORS_PREFIX, err.error))
        .inc();
    write_frame(stream, FrameTag::Error, err.to_json().as_bytes())
}

/// Decrements the live-connection gauge and counts the close on every
/// exit path out of [`serve_connection`].
struct ConnGuard;

impl Drop for ConnGuard {
    fn drop(&mut self) {
        count(names::SERVE_CONNECTIONS_CLOSED, 1);
        global().gauge(names::SERVE_CONNECTIONS_ACTIVE).add(-1);
    }
}

/// The per-connection protocol state machine (`docs/serving.md` §4).
fn serve_connection(mut stream: TcpStream, shared: &Shared) {
    count(names::SERVE_CONNECTIONS_OPENED, 1);
    global().gauge(names::SERVE_CONNECTIONS_ACTIVE).add(1);
    let _guard = ConnGuard;
    // The poll tick bounds how stale the drain flag and deadline checks
    // can get; it must sit well under the read timeout.
    let tick =
        (shared.opts.read_timeout / 8).clamp(Duration::from_millis(5), Duration::from_millis(50));
    if stream.set_read_timeout(Some(tick)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    if write_frame(&mut stream, FrameTag::Hello, &shared.hello).is_err() {
        return;
    }
    loop {
        let frame = match next_frame(&mut stream, shared) {
            NextFrame::Frame(f) => f,
            NextFrame::Close | NextFrame::TimedOut => return,
            NextFrame::Fatal(e) => {
                // Best effort: tell the peer why before hanging up. After
                // a framing fault the stream position is unreliable, so
                // the connection always closes.
                let _ = send_error(&mut stream, &WireError::new("bad-frame", e.to_string()));
                return;
            }
        };
        match frame.known_tag() {
            Some(FrameTag::Query) => {
                if !handle_query(&mut stream, shared, &frame.payload) {
                    return;
                }
            }
            Some(FrameTag::Metrics) => {
                // A point-in-time registry snapshot, canonical JSON
                // (docs/serving.md §10). Served even while draining —
                // observing a drain is exactly when you want metrics.
                count(names::SERVE_METRICS_FRAMES, 1);
                let body = global().snapshot().to_json();
                if write_frame(&mut stream, FrameTag::Result, body.as_bytes()).is_err() {
                    return;
                }
            }
            Some(FrameTag::Shutdown) => {
                // Acknowledge, then drain the whole server. The ack is
                // written before drain begins so the shutting-down client
                // always hears back.
                let _ = write_frame(&mut stream, FrameTag::Result, b"{\"draining\":true}");
                shared.begin_drain();
                return;
            }
            Some(FrameTag::Hello) | Some(FrameTag::Result) | Some(FrameTag::Error) => {
                // Server-only frames arriving at the server: a confused
                // peer, but framing is intact — answer and keep serving.
                if send_error(
                    &mut stream,
                    &WireError::new(
                        "bad-frame",
                        format!("tag `{}` is not a client request", frame.tag as char),
                    ),
                )
                .is_err()
                {
                    return;
                }
            }
            None => {
                // Unknown tag: likely a newer client. Typed error, keep
                // the connection (forward-compatibility, §7).
                if send_error(
                    &mut stream,
                    &WireError::new(
                        "bad-frame",
                        format!("unknown frame tag byte 0x{:02x}", frame.tag),
                    ),
                )
                .is_err()
                {
                    return;
                }
            }
        }
    }
}

/// Handles one `Q` frame. Returns false when the connection must close.
fn handle_query(stream: &mut TcpStream, shared: &Shared, payload: &[u8]) -> bool {
    let src = match std::str::from_utf8(payload) {
        Ok(s) => s,
        Err(_) => {
            return send_error(
                stream,
                &WireError::new("bad-frame", "request payload is not valid UTF-8"),
            )
            .is_ok();
        }
    };
    if shared.draining() {
        let _ = send_error(
            stream,
            &WireError::new("shutting-down", "server is draining; no new requests"),
        );
        return false;
    }
    // Parse before submitting: a parse error never joins a batch, and the
    // error frame carries the same caret diagnostic the REPL prints
    // (docs/serving.md §6).
    let queries: Arc<[RelationshipQuery]> = match polygamy_core::pql::parse_batch(src) {
        Ok(qs) => qs.into(),
        Err(e) => {
            return send_error(stream, &WireError::new("parse", e.render(src))).is_ok();
        }
    };
    if queries.is_empty() {
        // A comment-only batch is a valid, empty request.
        return write_frame(stream, FrameTag::Result, b"").is_ok();
    }
    let outcome = match shared.coalescer.submit(Arc::clone(&queries)) {
        Ok(outcome) => outcome,
        Err(rejection) => return report_rejection(stream, rejection),
    };
    match outcome {
        Ok(results) => {
            // One canonical JSON object per query, newline-separated, in
            // request order — each line is byte-identical to what
            // `polygamy-store query --json` prints for that query alone
            // (docs/serving.md §5).
            let mut body = String::new();
            for (i, (query, relationships)) in queries.iter().zip(results).enumerate() {
                if i > 0 {
                    body.push('\n');
                }
                write_outcome_json(&mut body, query, &relationships);
            }
            write_frame(stream, FrameTag::Result, body.as_bytes()).is_ok()
        }
        Err(e) => send_error(stream, &WireError::new("query", e.to_string())).is_ok(),
    }
}

/// Renders a rejection; returns false when the connection must close.
fn report_rejection(stream: &mut TcpStream, rejection: Rejection) -> bool {
    match rejection {
        Rejection::Abandoned => {
            let _ = send_error(
                stream,
                &WireError::new("internal", "the batch evaluating this request panicked"),
            );
            false
        }
        Rejection::ShuttingDown => {
            let _ = send_error(
                stream,
                &WireError::new("shutting-down", "server is draining; no new requests"),
            );
            false
        }
        Rejection::TooLarge {
            queries,
            max_inflight,
        } => send_error(
            stream,
            &WireError::new(
                "overloaded",
                format!(
                    "request carries {queries} queries, above the --max-inflight cap of \
                     {max_inflight}; split the batch"
                ),
            ),
        )
        .is_ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytes of the handshake boundary (`docs/serving.md` §6–7): `H`
    /// and `E` payloads are parsed by clients built from other revisions,
    /// so field names, order and escaping may only change together with
    /// [`PROTOCOL_VERSION`].
    #[test]
    fn hello_and_error_payload_bytes_are_pinned() {
        let hello = Hello {
            protocol: PROTOCOL_VERSION,
            server: "polygamy-serve 0.1.0".into(),
            datasets: vec!["gas-prices".into(), "taxi".into(), "weather".into()],
            coalescing: true,
        };
        assert_eq!(
            hello.to_json(),
            concat!(
                r#"{"protocol":1,"server":"polygamy-serve 0.1.0","#,
                r#""datasets":["gas-prices","taxi","weather"],"coalescing":true}"#,
            )
        );
        let error = WireError::new(
            "parse",
            "line 1: expected `between`\n  betwen taxi\n  ^^^^^^ \"here\"",
        );
        assert_eq!(
            error.to_json(),
            concat!(
                r#"{"error":"parse","message":"line 1: expected `between`\n"#,
                r#"  betwen taxi\n  ^^^^^^ \"here\""}"#,
            )
        );
        assert_eq!(Hello::from_json(&hello.to_json()), Ok(hello));
        assert_eq!(WireError::from_json(&error.to_json()), Ok(error));
    }

    /// `docs/serving.md` §7: a client reads `H` and `E` payloads from
    /// servers of other revisions, so key order does not matter and
    /// unknown keys are skipped — but a payload missing a key it needs is
    /// a typed error, not a default.
    #[test]
    fn handshake_payloads_tolerate_order_and_unknown_keys() {
        let hello = Hello::from_json(
            r#"{"coalescing":false,"shards":3,"datasets":["taxi"],"server":"x","build":{"id":[1]},"protocol":1}"#,
        )
        .unwrap();
        assert_eq!(
            hello,
            Hello {
                protocol: 1,
                server: "x".into(),
                datasets: vec!["taxi".into()],
                coalescing: false,
            }
        );
        let error = WireError::from_json(r#"{"hint":"retry","message":"m","error":"query"}"#);
        assert_eq!(error, Ok(WireError::new("query", "m")));

        let missing = Hello::from_json(r#"{"protocol":1,"server":"x","datasets":[]}"#);
        assert_eq!(missing, Err(json::Error::MissingKey("coalescing".into())));
        let missing = WireError::from_json(r#"{"error":"parse"}"#);
        assert_eq!(missing, Err(json::Error::MissingKey("message".into())));
        for wrong in [
            r#"{"protocol":"1","server":"x","datasets":[],"coalescing":true}"#,
            r#"{"protocol":1.0,"server":"x","datasets":[],"coalescing":true}"#,
            r#"{"protocol":-1,"server":"x","datasets":[],"coalescing":true}"#,
            r#"{"protocol":1,"server":"x","datasets":[7],"coalescing":true}"#,
            r#"{"protocol":1,"server":"x","datasets":[],"coalescing":1}"#,
            r#"[]"#,
        ] {
            assert!(
                matches!(Hello::from_json(wrong), Err(json::Error::Invalid(_))),
                "{wrong}"
            );
        }
    }

    /// A server on `addr` over an empty store saved at a path named by
    /// `name`, which the caller removes.
    fn empty_server(addr: &str, name: &str) -> (Server, PathBuf) {
        use polygamy_core::prelude::{CityGeometry, Config};
        let path = std::env::temp_dir().join(format!("plst-{name}-{}.plst", std::process::id()));
        let mut dp = polygamy_core::DataPolygamy::new(
            CityGeometry::city_only(0.0, 0.0, 1.0, 1.0),
            Config::fast_test(),
        );
        dp.build_index();
        polygamy_store::Store::save(&path, dp.geometry(), dp.index().unwrap()).unwrap();
        let session = Arc::new(StoreSession::open(&path).unwrap());
        let server = Server::bind(addr, session, ServeOptions::default()).unwrap();
        (server, path)
    }

    /// Connects to `addr` and reads the greeting.
    fn greeted(addr: SocketAddr) -> TcpStream {
        let mut stream = TcpStream::connect(addr).unwrap();
        let hello = crate::protocol::read_frame(&mut stream, MAX_FRAME_BYTES).unwrap();
        assert_eq!(hello.unwrap().known_tag(), Some(FrameTag::Hello));
        stream
    }

    /// Drains `server` as a host process does, failing instead of hanging
    /// if the accept loop never wakes.
    fn drain_within(server: Server, limit: Duration) {
        let (done, drained) = std::sync::mpsc::channel();
        server.shutdown();
        std::thread::spawn(move || done.send(server.wait()));
        assert!(drained.recv_timeout(limit).is_ok(), "no drain in {limit:?}");
    }

    /// 200 sequential connect → hello → close cycles: the accept loop
    /// joins ended connection threads as new connections arrive, so the
    /// handles it keeps stay bounded by the connections still open.
    #[test]
    fn finished_connection_threads_are_reaped() {
        let (server, path) = empty_server("127.0.0.1:0", "reap");
        let mut most = 0;
        for _ in 0..200 {
            drop(greeted(server.local_addr()));
            most = most.max(server.shared.conns.lock().unwrap().len());
        }
        assert!(most <= 8, "{most} connection handles kept");
        drain_within(server, Duration::from_secs(10));
        std::fs::remove_file(&path).unwrap();
    }

    /// The accept loop blocks in `accept` rather than polling it, so a
    /// connection is greeted at once: 200 sequential connect → hello →
    /// close cycles take well under 2 s, where a 20 ms poll tick would
    /// make them 4 s.
    #[test]
    fn sequential_connections_are_greeted_without_a_poll_tick() {
        let (server, path) = empty_server("127.0.0.1:0", "greet");
        let started = Instant::now();
        for _ in 0..200 {
            drop(greeted(server.local_addr()));
        }
        let took = started.elapsed();
        assert!(took < Duration::from_secs(2), "200 greetings took {took:?}");
        drain_within(server, Duration::from_secs(10));
        std::fs::remove_file(&path).unwrap();
    }

    /// A server bound to the unspecified address is woken for its drain
    /// through loopback, and a client that reached it before is served.
    #[test]
    fn a_server_bound_to_the_unspecified_address_drains() {
        let (server, path) = empty_server("0.0.0.0:0", "unspecified");
        assert!(server.local_addr().ip().is_unspecified());
        let port = server.local_addr().port();
        drop(greeted(SocketAddr::new(Ipv4Addr::LOCALHOST.into(), port)));
        drain_within(server, Duration::from_secs(10));
        std::fs::remove_file(&path).unwrap();
    }

    /// A `\u` surrogate pair in a payload is one character; a lone or
    /// mismatched surrogate is an error, not a substituted character.
    #[test]
    fn handshake_surrogate_escapes_follow_one_rule() {
        let hello = |server: &str| {
            Hello::from_json(&format!(
                r#"{{"protocol":1,"server":"{server}","datasets":[],"coalescing":true}}"#
            ))
        };
        assert_eq!(hello(r"\uD83E\uDD80").unwrap().server, "🦀");
        for lone in [r"\uD800\u0041", r"\uDD80", r"\uD83E"] {
            assert!(
                matches!(hello(lone), Err(json::Error::Syntax { .. })),
                "{lone}"
            );
        }
    }
}
