//! A minimal blocking client for the wire protocol — the counterpart the
//! `loadgen` load generator, the integration tests and third-party tools
//! build on. Speaks exactly the spec in `docs/serving.md`: reads the `H`
//! handshake, sends `Q`/`S` frames, and returns `R`/`E` payloads.

use crate::protocol::{
    read_frame, write_frame, FrameError, FrameTag, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use crate::server::{Hello, WireError};
use polygamy_obs::MetricsSnapshot;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// A client-side failure (as opposed to a typed error *frame*, which is
/// a successful protocol exchange — see [`Response`]).
#[derive(Debug)]
pub enum ClientError {
    /// Connecting or reading/writing the socket failed.
    Io(io::Error),
    /// The byte stream violated the framing rules.
    Frame(FrameError),
    /// Frames arrived whose sequence or payload violates the spec (e.g.
    /// no hello, a non-JSON error payload).
    Protocol(String),
    /// The server speaks a different protocol version; nothing after the
    /// hello can be trusted, so the client refuses to continue.
    VersionMismatch {
        /// Version the server announced.
        server: u32,
        /// Version this client implements.
        client: u32,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Frame(e) => write!(f, "framing error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ClientError::VersionMismatch { server, client } => {
                write!(f, "server speaks protocol v{server}, this client v{client}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// The server's answer to one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// An `R` frame: for queries, one canonical JSON object per query,
    /// newline-separated, in request order (empty for an empty batch).
    Results(String),
    /// An `E` frame: the typed error object. Receiving one does *not*
    /// mean the connection is dead — `parse`/`query`/`overloaded` errors
    /// leave it serving (`docs/serving.md` §6).
    Error(WireError),
}

/// One connection to a `polygamy-serve` daemon.
///
/// ```no_run
/// use polygamy_serve::Client;
///
/// let mut client = Client::connect("127.0.0.1:7461").unwrap();
/// println!("serving: {}", client.hello().datasets.join(", "));
/// let response = client.request("between taxi and * where score >= 0.6").unwrap();
/// println!("{response:?}");
/// ```
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    hello: Hello,
}

impl Client {
    /// Connects and performs the handshake: reads the `H` frame and
    /// verifies the protocol version.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        Self::from_stream(TcpStream::connect(addr)?)
    }

    /// Like [`Client::connect`], but retries refused/unreachable
    /// connections until `patience` elapses — for scripts that start the
    /// daemon and immediately drive it.
    pub fn connect_retry(
        addr: impl ToSocketAddrs + Clone,
        patience: Duration,
    ) -> Result<Self, ClientError> {
        let deadline = Instant::now() + patience;
        loop {
            match TcpStream::connect(addr.clone()) {
                Ok(stream) => return Self::from_stream(stream),
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    fn from_stream(mut stream: TcpStream) -> Result<Self, ClientError> {
        stream.set_nodelay(true).ok();
        let frame = read_frame(&mut stream, MAX_FRAME_BYTES)?
            .ok_or_else(|| ClientError::Protocol("connection closed before hello".into()))?;
        if frame.known_tag() != Some(FrameTag::Hello) {
            return Err(ClientError::Protocol(format!(
                "expected hello frame, got tag 0x{:02x}",
                frame.tag
            )));
        }
        let text = String::from_utf8(frame.payload)
            .map_err(|_| ClientError::Protocol("hello payload is not UTF-8".into()))?;
        let hello = Hello::from_json(&text)
            .map_err(|e| ClientError::Protocol(format!("hello payload is invalid: {e}")))?;
        if hello.protocol != PROTOCOL_VERSION {
            return Err(ClientError::VersionMismatch {
                server: hello.protocol,
                client: PROTOCOL_VERSION,
            });
        }
        Ok(Self { stream, hello })
    }

    /// The handshake the server sent on connect.
    pub fn hello(&self) -> &Hello {
        &self.hello
    }

    /// Sends one `Q` request (a PQL batch: one query per line) and waits
    /// for its `R` or `E` answer.
    pub fn request(&mut self, pql: &str) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, FrameTag::Query, pql.as_bytes())?;
        self.read_response()
    }

    /// Sends the `M` frame and parses the server's metrics snapshot — the
    /// client side of `docs/serving.md` §10. Counter values only ever
    /// grow, so two snapshots from the same server satisfy
    /// [`MetricsSnapshot::is_monotonic_since`]. Against a pre-`M` server
    /// this surfaces the recoverable `bad-frame` error as
    /// [`ClientError::Protocol`]; the connection stays usable.
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ClientError> {
        write_frame(&mut self.stream, FrameTag::Metrics, b"")?;
        match self.read_response()? {
            Response::Results(text) => MetricsSnapshot::parse_json(&text).map_err(|e| {
                ClientError::Protocol(format!("metrics payload is not a valid snapshot: {e}"))
            }),
            Response::Error(e) => Err(ClientError::Protocol(format!(
                "metrics request refused: {} ({})",
                e.error, e.message
            ))),
        }
    }

    /// Sends the `S` frame and waits for the drain acknowledgement; the
    /// server refuses new work, finishes what is admitted, and exits.
    /// Consumes the client — the server closes this connection after the
    /// ack.
    pub fn shutdown_server(mut self) -> Result<(), ClientError> {
        write_frame(&mut self.stream, FrameTag::Shutdown, b"")?;
        match self.read_response()? {
            Response::Results(_) => Ok(()),
            Response::Error(e) => Err(ClientError::Protocol(format!(
                "shutdown refused: {} ({})",
                e.error, e.message
            ))),
        }
    }

    fn read_response(&mut self) -> Result<Response, ClientError> {
        let frame = read_frame(&mut self.stream, MAX_FRAME_BYTES)?
            .ok_or_else(|| ClientError::Protocol("connection closed before response".into()))?;
        match frame.known_tag() {
            Some(FrameTag::Result) => {
                let text = String::from_utf8(frame.payload)
                    .map_err(|_| ClientError::Protocol("result payload is not UTF-8".into()))?;
                Ok(Response::Results(text))
            }
            Some(FrameTag::Error) => {
                let text = String::from_utf8(frame.payload)
                    .map_err(|_| ClientError::Protocol("error payload is not UTF-8".into()))?;
                let err = WireError::from_json(&text)
                    .map_err(|e| ClientError::Protocol(format!("error payload is invalid: {e}")))?;
                Ok(Response::Error(err))
            }
            _ => Err(ClientError::Protocol(format!(
                "expected result or error frame, got tag 0x{:02x}",
                frame.tag
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `metrics()` parses bytes a server sent, up to a whole frame of them:
    /// a frame of nothing but `[` is a typed error, not a stack overflow.
    #[test]
    fn a_frame_of_open_brackets_is_no_snapshot() {
        let deep = "[".repeat(MAX_FRAME_BYTES as usize);
        assert!(MetricsSnapshot::parse_json(&deep).is_err());
    }
}
