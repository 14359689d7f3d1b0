//! The wire codec: length-prefixed, tagged frames.
//!
//! This module implements §2–§4 of the normative protocol specification
//! in `docs/serving.md`. Everything that travels a connection is a
//! **frame**:
//!
//! ```text
//! ┌────────────────────┬──────────┬──────────────────────┐
//! │ length u32 LE      │ tag u8   │ payload (length − 1) │
//! └────────────────────┴──────────┴──────────────────────┘
//! ```
//!
//! The length prefix counts the tag byte plus the payload, so a frame
//! occupies exactly `4 + length` bytes on the wire and `length >= 1`
//! always. Payloads are UTF-8 text (PQL in requests, JSON elsewhere);
//! the codec itself treats them as bytes — UTF-8 validation is the
//! server's concern, so a framing-level reader never needs to buffer a
//! partially valid string.
//!
//! ```
//! use polygamy_serve::protocol::{read_frame, write_frame, Frame, FrameTag, MAX_FRAME_BYTES};
//!
//! let mut wire = Vec::new();
//! write_frame(&mut wire, FrameTag::Query, b"between taxi and *").unwrap();
//! assert_eq!(wire.len(), 4 + 1 + 18);
//! let frame = read_frame(&mut wire.as_slice(), MAX_FRAME_BYTES).unwrap().unwrap();
//! assert_eq!(frame, Frame::new(FrameTag::Query, b"between taxi and *".to_vec()));
//! // Clean EOF at a frame boundary is "no more frames", not an error.
//! assert!(read_frame(&mut [].as_slice(), MAX_FRAME_BYTES).unwrap().is_none());
//! ```

use std::io::{self, IoSlice, Read, Write};

/// Protocol version, exchanged in the `hello` frame (`docs/serving.md`
/// §7). Bumped on any change to the frame layout, tag set, or payload
/// schemas that an existing client could misread; clients reject a
/// mismatched version instead of guessing.
pub const PROTOCOL_VERSION: u32 = 1;

/// Default cap on `length` (tag + payload) a peer will accept, 1 MiB.
/// Far above any real PQL batch or response on one side, far below an
/// allocation a garbage length prefix could weaponize on the other.
pub const MAX_FRAME_BYTES: u32 = 1 << 20;

/// The one-byte frame tags of protocol version 1 (`docs/serving.md` §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameTag {
    /// `H` — server → client, once per connection, immediately after
    /// accept: JSON handshake (protocol version, served data sets).
    Hello = b'H',
    /// `Q` — client → server: a PQL batch (one query per line) to
    /// evaluate.
    Query = b'Q',
    /// `R` — server → client: success payload. For a `Q` request: one
    /// canonical JSON object per query, newline-separated, in request
    /// order. For a `S` request: a drain acknowledgement object.
    Result = b'R',
    /// `E` — server → client: a typed error object (`docs/serving.md`
    /// §6). The connection stays open unless the spec says otherwise.
    Error = b'E',
    /// `S` — client → server: begin graceful shutdown (drain in-flight
    /// work, refuse new requests, exit).
    Shutdown = b'S',
    /// `M` — client → server: request a metrics snapshot. Answered with
    /// an `R` frame carrying the process-wide registry snapshot as
    /// canonical JSON (`docs/serving.md` §10). The payload is ignored
    /// (send empty). Added without a version bump: pre-`M` servers answer
    /// it with a recoverable `bad-frame` error per the §7 unknown-tag
    /// rule, so newer clients degrade cleanly.
    Metrics = b'M',
}

impl FrameTag {
    /// Decodes a tag byte; `None` for tags this protocol version does not
    /// know (the server answers those with a `bad-frame` error rather
    /// than dropping the connection, so newer clients degrade cleanly).
    pub fn from_byte(b: u8) -> Option<Self> {
        match b {
            b'H' => Some(FrameTag::Hello),
            b'Q' => Some(FrameTag::Query),
            b'R' => Some(FrameTag::Result),
            b'E' => Some(FrameTag::Error),
            b'S' => Some(FrameTag::Shutdown),
            b'M' => Some(FrameTag::Metrics),
            _ => None,
        }
    }
}

/// One decoded frame: a known-or-unknown tag byte plus its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The raw tag byte as read off the wire (kept raw so unknown tags
    /// can be reported back precisely).
    pub tag: u8,
    /// The payload bytes (everything after the tag).
    pub payload: Vec<u8>,
}

impl Frame {
    /// A frame with a known tag.
    pub fn new(tag: FrameTag, payload: Vec<u8>) -> Self {
        Self {
            tag: tag as u8,
            payload,
        }
    }

    /// The decoded tag, if this protocol version knows it.
    pub fn known_tag(&self) -> Option<FrameTag> {
        FrameTag::from_byte(self.tag)
    }
}

/// A framing-level failure while reading.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed (includes timeouts surfaced as
    /// [`io::ErrorKind::WouldBlock`]/[`io::ErrorKind::TimedOut`]).
    Io(io::Error),
    /// The stream ended inside a frame — a peer vanished mid-write.
    TruncatedFrame,
    /// The length prefix exceeds the negotiated cap; the stream position
    /// is no longer trustworthy, so the connection must close.
    Oversize {
        /// Length the prefix declared.
        declared: u32,
        /// The cap it violated.
        max: u32,
    },
    /// A frame with `length == 0` — there is no tag byte to dispatch on.
    Empty,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::TruncatedFrame => write!(f, "stream ended inside a frame"),
            FrameError::Oversize { declared, max } => {
                write!(f, "frame length {declared} exceeds the {max}-byte cap")
            }
            FrameError::Empty => write!(f, "zero-length frame (no tag byte)"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame: `u32 LE (1 + payload.len())`, tag byte, payload.
///
/// The five header bytes and the payload go out as one vectored write —
/// one syscall, and on a `TCP_NODELAY` socket one segment, for a frame
/// the kernel takes whole — resumed after a short write, and the payload
/// is never copied.
///
/// Fails with [`io::ErrorKind::InvalidInput`] if the payload is too large
/// for the length prefix (`docs/serving.md` §2 caps frames well below
/// that anyway).
pub fn write_frame(w: &mut impl Write, tag: FrameTag, payload: &[u8]) -> io::Result<()> {
    let length = u32::try_from(payload.len())
        .ok()
        .and_then(|n| n.checked_add(1))
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "frame payload exceeds u32 range",
            )
        })?;
    let [l0, l1, l2, l3] = length.to_le_bytes();
    let head = [l0, l1, l2, l3, tag as u8];
    let mut slices = [IoSlice::new(&head), IoSlice::new(payload)];
    let mut unsent = &mut slices[..];
    while !unsent.is_empty() {
        match w.write_vectored(unsent) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut unsent, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Reads one frame, enforcing the `max` length cap.
///
/// Returns `Ok(None)` on a clean EOF *at a frame boundary* (the peer
/// closed between frames); EOF anywhere else is
/// [`FrameError::TruncatedFrame`]. The declared length is validated
/// **before** any payload allocation — by the same check the server's
/// deadline-aware reader makes — so a garbage prefix cannot force a huge
/// allocation.
pub fn read_frame(r: &mut impl Read, max: u32) -> Result<Option<Frame>, FrameError> {
    let mut len_buf = [0u8; 4];
    match r.read(&mut len_buf) {
        Ok(0) => return Ok(None),
        Ok(n) => r.read_exact(&mut len_buf[n..]).map_err(map_truncation)?,
        Err(e) => return Err(FrameError::Io(e)),
    }
    let payload_len = check_length(u32::from_le_bytes(len_buf), max)?;
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag).map_err(map_truncation)?;
    let mut payload = vec![0u8; payload_len];
    r.read_exact(&mut payload).map_err(map_truncation)?;
    Ok(Some(Frame {
        tag: tag[0],
        payload,
    }))
}

/// Validates a frame's declared `length` (tag + payload) against the cap
/// `max` and returns the payload length it leaves after the tag byte —
/// the one check both [`read_frame`] and the server's deadline-aware
/// reader make before allocating anything for the frame.
pub(crate) fn check_length(length: u32, max: u32) -> Result<usize, FrameError> {
    if length == 0 {
        return Err(FrameError::Empty);
    }
    if length > max {
        return Err(FrameError::Oversize {
            declared: length,
            max,
        });
    }
    Ok(length as usize - 1)
}

/// EOF inside a frame is a protocol error, not a transport error.
fn map_truncation(e: io::Error) -> FrameError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        FrameError::TruncatedFrame
    } else {
        FrameError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_every_tag() {
        for tag in [
            FrameTag::Hello,
            FrameTag::Query,
            FrameTag::Result,
            FrameTag::Error,
            FrameTag::Shutdown,
            FrameTag::Metrics,
        ] {
            let mut wire = Vec::new();
            write_frame(&mut wire, tag, b"payload").unwrap();
            let frame = read_frame(&mut wire.as_slice(), MAX_FRAME_BYTES)
                .unwrap()
                .unwrap();
            assert_eq!(frame.known_tag(), Some(tag));
            assert_eq!(frame.payload, b"payload");
        }
    }

    #[test]
    fn empty_payload_is_legal() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameTag::Shutdown, b"").unwrap();
        assert_eq!(wire, [1, 0, 0, 0, b'S']);
        let frame = read_frame(&mut wire.as_slice(), MAX_FRAME_BYTES)
            .unwrap()
            .unwrap();
        assert!(frame.payload.is_empty());
    }

    #[test]
    fn several_frames_stream_back_to_back() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameTag::Query, b"a").unwrap();
        write_frame(&mut wire, FrameTag::Query, b"bb").unwrap();
        let mut r = wire.as_slice();
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_BYTES)
                .unwrap()
                .unwrap()
                .payload,
            b"a"
        );
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_BYTES)
                .unwrap()
                .unwrap()
                .payload,
            b"bb"
        );
        assert!(read_frame(&mut r, MAX_FRAME_BYTES).unwrap().is_none());
    }

    #[test]
    fn truncation_inside_prefix_and_body() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameTag::Query, b"hello").unwrap();
        // Cut inside the length prefix.
        assert!(matches!(
            read_frame(&mut wire[..2].to_vec().as_slice(), MAX_FRAME_BYTES),
            Err(FrameError::TruncatedFrame)
        ));
        // Cut inside the payload.
        assert!(matches!(
            read_frame(&mut wire[..7].to_vec().as_slice(), MAX_FRAME_BYTES),
            Err(FrameError::TruncatedFrame)
        ));
    }

    #[test]
    fn oversize_is_rejected_before_allocation() {
        let mut wire = u32::MAX.to_le_bytes().to_vec();
        wire.push(b'Q');
        assert!(matches!(
            read_frame(&mut wire.as_slice(), 1024),
            Err(FrameError::Oversize {
                declared: u32::MAX,
                max: 1024
            })
        ));
    }

    #[test]
    fn zero_length_frame_is_an_error() {
        let wire = 0u32.to_le_bytes();
        assert!(matches!(
            read_frame(&mut wire.as_slice(), MAX_FRAME_BYTES),
            Err(FrameError::Empty)
        ));
    }

    /// A writer that takes at most `limit` bytes per call and counts the
    /// calls, vectored or not.
    struct Counting {
        wire: Vec<u8>,
        calls: usize,
        limit: usize,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let before = self.wire.len();
            for buf in bufs {
                let room = self.limit - (self.wire.len() - before);
                self.wire.extend_from_slice(&buf[..buf.len().min(room)]);
            }
            Ok(self.wire.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A frame is one write call when the writer takes it whole, and the
    /// same bytes, resumed where they stopped, when it takes a few at a
    /// time.
    #[test]
    fn a_frame_is_one_vectored_write() {
        for payload in [&b""[..], b"x", b"between taxi and *"] {
            let mut expected = ((payload.len() + 1) as u32).to_le_bytes().to_vec();
            expected.push(b'Q');
            expected.extend_from_slice(payload);
            let mut whole = Counting {
                wire: Vec::new(),
                calls: 0,
                limit: usize::MAX,
            };
            write_frame(&mut whole, FrameTag::Query, payload).unwrap();
            assert_eq!((whole.wire.as_slice(), whole.calls), (&expected[..], 1));
            let mut trickle = Counting {
                wire: Vec::new(),
                calls: 0,
                limit: 3,
            };
            write_frame(&mut trickle, FrameTag::Query, payload).unwrap();
            assert_eq!(trickle.wire, expected);
            assert_eq!(trickle.calls, expected.len().div_ceil(3));
        }
    }

    #[test]
    fn unknown_tag_is_preserved_raw() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&2u32.to_le_bytes());
        wire.extend_from_slice(b"Zx");
        let frame = read_frame(&mut wire.as_slice(), MAX_FRAME_BYTES)
            .unwrap()
            .unwrap();
        assert_eq!(frame.tag, b'Z');
        assert_eq!(frame.known_tag(), None);
        assert_eq!(frame.payload, b"x");
    }
}
