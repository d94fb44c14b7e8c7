//! The `livephase-serve` wire protocol: versioned, length-prefixed binary
//! frames.
//!
//! Every frame on the socket is
//!
//! ```text
//! u32 LE payload length | u8 frame tag | body (fixed-width LE fields,
//!                                             strings as u16 length + UTF-8)
//! ```
//!
//! The payload length covers the tag and body and must lie in
//! `1..=MAX_FRAME_BYTES`; anything outside that range is rejected before a
//! single payload byte is read, so an adversarial length prefix cannot
//! make the server allocate. Decoding is total: every error path returns a
//! [`DecodeError`], never panics, and a frame must consume its payload
//! exactly (trailing bytes are an error, which keeps the protocol
//! extensible only through new tags and the version field).
//!
//! A connection opens with a version handshake: the client's first frame
//! must be [`Frame::Hello`], the server answers [`Frame::HelloAck`] (or an
//! [`Frame::Error`] and closes). After that the client streams
//! [`Frame::Sample`]s and the server answers one [`Frame::Decision`] per
//! sample, in order, batched per socket flush.

use std::fmt;
use std::io::{self, Read, Write};

/// The one protocol version this build speaks. A server receiving a
/// `Hello` with any other version answers [`ErrorCode::VersionMismatch`]
/// and closes the connection; `HelloAck` carries this version back.
///
/// Version 3 retired tags 5 and 6 (v2's counter snapshot request and
/// reply); they now decode as [`DecodeError::UnknownTag`]. Every other
/// tag keeps its v2 byte.
pub const PROTOCOL_VERSION: u16 = 3;

/// Hard ceiling on the payload length of a single frame.
///
/// Large enough for any frame this protocol defines (strings are capped
/// at `u16::MAX` by their length field), small enough that a hostile
/// length prefix cannot cause a large allocation.
pub const MAX_FRAME_BYTES: usize = 64 * 1024;

/// Confidence scale: [`Frame::Decision`] carries the shard's running
/// prediction accuracy for the stream in basis points, `0..=10_000` —
/// the engine-wide scale, re-exported so wire consumers need not depend
/// on `livephase-core` directly.
pub use livephase_core::CONFIDENCE_SCALE;

/// Ceiling on the exposition text a [`Frame::Metrics`] may carry,
/// chosen so the string length (u16), tag and length prefix all stay
/// comfortably inside [`MAX_FRAME_BYTES`]. Servers truncate the
/// rendered text at a line boundary below this before framing it.
pub const MAX_METRICS_TEXT_BYTES: usize = 60 * 1024;

/// Why the server (or client) is about to give up on a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The peer speaks a different protocol version.
    VersionMismatch,
    /// A frame failed to decode; the connection is poisoned.
    Malformed,
    /// The server is at its `--max-conns` accept gate.
    Busy,
    /// The connection sat idle past the read timeout.
    IdleTimeout,
    /// The `Hello` named an unknown platform or predictor configuration.
    BadConfig,
    /// A well-formed frame arrived out of protocol order (e.g. `Sample`
    /// before `Hello`).
    Protocol,
    /// The server is draining for shutdown.
    ShuttingDown,
    /// The peer stopped draining its socket: the sender's bounded
    /// outbound queue overflowed and the connection is being shed.
    SlowConsumer,
}

impl ErrorCode {
    /// Stable snake_case name, used as a metrics label value
    /// (`serve_errors_total{code="..."}`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::VersionMismatch => "version_mismatch",
            Self::Malformed => "malformed",
            Self::Busy => "busy",
            Self::IdleTimeout => "idle_timeout",
            Self::BadConfig => "bad_config",
            Self::Protocol => "protocol",
            Self::ShuttingDown => "shutting_down",
            Self::SlowConsumer => "slow_consumer",
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            Self::VersionMismatch => 1,
            Self::Malformed => 2,
            Self::Busy => 3,
            Self::IdleTimeout => 4,
            Self::BadConfig => 5,
            Self::Protocol => 6,
            Self::ShuttingDown => 7,
            Self::SlowConsumer => 8,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => Self::VersionMismatch,
            2 => Self::Malformed,
            3 => Self::Busy,
            4 => Self::IdleTimeout,
            5 => Self::BadConfig,
            6 => Self::Protocol,
            7 => Self::ShuttingDown,
            8 => Self::SlowConsumer,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::VersionMismatch => "version mismatch",
            Self::Malformed => "malformed frame",
            Self::Busy => "server busy",
            Self::IdleTimeout => "idle timeout",
            Self::BadConfig => "bad configuration",
            Self::Protocol => "protocol violation",
            Self::ShuttingDown => "shutting down",
            Self::SlowConsumer => "slow consumer",
        };
        f.write_str(s)
    }
}

/// One protocol frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client → server, first frame: version handshake plus the session
    /// configuration (platform name and predictor spec, e.g.
    /// `"pentium_m"` / `"gpht:8:128"`). The shard that accepts the
    /// connection serves it, whatever the `client_id`.
    Hello {
        /// Protocol version the client speaks.
        version: u16,
        /// Stable client identity, for the client's own bookkeeping.
        client_id: u64,
        /// Platform the client's counters come from.
        platform: String,
        /// Predictor specification for this session's streams.
        predictor: String,
    },
    /// Server → client: handshake accepted.
    HelloAck {
        /// Protocol version the server speaks.
        version: u16,
        /// Shard index the session landed on.
        shard: u32,
        /// Number of DVFS operating points decisions index into.
        op_points: u8,
    },
    /// Client → server: one sampling interval's counter readings for one
    /// logical process.
    Sample {
        /// Process the interval belongs to (per-pid predictor state).
        pid: u32,
        /// Micro-ops retired in the interval.
        uops: u64,
        /// Memory bus transactions in the interval.
        mem_trans: u64,
        /// TSC delta of the interval (informational; decisions never
        /// depend on it).
        tsc_delta: u64,
    },
    /// Server → client: the DVFS operating point to apply for `pid`'s
    /// next interval.
    Decision {
        /// Process the decision is for.
        pid: u32,
        /// Operating-point index (0 = fastest).
        op_point: u8,
        /// Running prediction accuracy for this stream, in basis points
        /// of [`CONFIDENCE_SCALE`].
        confidence: u16,
    },
    /// Either direction: the connection is being abandoned and why. The
    /// sender closes after this frame.
    Error {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Client → server: clean close. The server flushes any in-flight
    /// decisions and closes the connection.
    Goodbye,
    /// Client → server: request a [`Frame::Metrics`] exposition
    /// scrape. Answered in-order with the connection's decision stream.
    MetricsRequest,
    /// Server → client: the metrics registry rendered in the
    /// Prometheus text exposition format, truncated at a line boundary
    /// to at most [`MAX_METRICS_TEXT_BYTES`].
    Metrics {
        /// The exposition text.
        text: String,
    },
}

/// A frame's one-byte wire tag. Each [`Frame`] variant's tag, wire
/// value and name live here, once: rustc rejects a duplicate
/// discriminant, [`Frame::tag`] is an exhaustive `match`, and
/// [`decode_payload`] dispatches exhaustively on the tag. Bytes 5 and 6
/// are retired (see [`PROTOCOL_VERSION`]) and must not be reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Tag {
    Hello = 1,
    HelloAck = 2,
    Sample = 3,
    Decision = 4,
    Error = 7,
    Goodbye = 8,
    MetricsRequest = 9,
    Metrics = 10,
}

impl Tag {
    /// The tag a wire byte names, if any.
    fn from_u8(byte: u8) -> Option<Self> {
        Some(match byte {
            1 => Self::Hello,
            2 => Self::HelloAck,
            3 => Self::Sample,
            4 => Self::Decision,
            7 => Self::Error,
            8 => Self::Goodbye,
            9 => Self::MetricsRequest,
            10 => Self::Metrics,
            _ => return None,
        })
    }

    /// The frame kind's name, for protocol-violation messages.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Self::Hello => "Hello",
            Self::HelloAck => "HelloAck",
            Self::Sample => "Sample",
            Self::Decision => "Decision",
            Self::Error => "Error",
            Self::Goodbye => "Goodbye",
            Self::MetricsRequest => "MetricsRequest",
            Self::Metrics => "Metrics",
        }
    }
}

impl Frame {
    /// This frame's wire tag.
    pub(crate) fn tag(&self) -> Tag {
        match self {
            Self::Hello { .. } => Tag::Hello,
            Self::HelloAck { .. } => Tag::HelloAck,
            Self::Sample { .. } => Tag::Sample,
            Self::Decision { .. } => Tag::Decision,
            Self::Error { .. } => Tag::Error,
            Self::Goodbye => Tag::Goodbye,
            Self::MetricsRequest => Tag::MetricsRequest,
            Self::Metrics { .. } => Tag::Metrics,
        }
    }
}

/// A frame that failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The length prefix was zero or exceeded [`MAX_FRAME_BYTES`].
    BadLength(usize),
    /// The payload ended before the frame's fields did.
    Truncated,
    /// The payload had bytes left over after the frame's fields.
    TrailingBytes(usize),
    /// The frame tag is not part of this protocol version.
    UnknownTag(u8),
    /// A string field was not valid UTF-8.
    BadString,
    /// An error frame carried an unknown error code.
    BadErrorCode(u8),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadLength(n) => write!(f, "frame length {n} outside 1..={MAX_FRAME_BYTES}"),
            Self::Truncated => write!(f, "payload truncated"),
            Self::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame"),
            Self::UnknownTag(t) => write!(f, "unknown frame tag {t}"),
            Self::BadString => write!(f, "string field is not UTF-8"),
            Self::BadErrorCode(c) => write!(f, "unknown error code {c}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A frame-level read failure: either the socket failed or the bytes did.
#[derive(Debug)]
pub enum FrameError {
    /// Transport failure (includes read/write timeouts).
    Io(io::Error),
    /// The bytes arrived but are not a frame.
    Decode(DecodeError),
}

impl FrameError {
    /// Whether this is a socket timeout (`WouldBlock`/`TimedOut`).
    #[must_use]
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            Self::Io(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
        )
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o: {e}"),
            Self::Decode(e) => write!(f, "decode: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<DecodeError> for FrameError {
    fn from(e: DecodeError) -> Self {
        Self::Decode(e)
    }
}

#[expect(
    clippy::indexing_slicing,
    reason = "end <= u16::MAX < bytes.len() where the slice is taken"
)]
fn put_str(buf: &mut Vec<u8>, s: &str) {
    // Protocol strings are length-prefixed with a u16; anything longer
    // is truncated at a char boundary rather than panicking (no frame
    // this protocol defines legitimately carries one — error messages
    // and metrics text are bounded well below this upstream).
    let mut bytes = s.as_bytes();
    if bytes.len() > usize::from(u16::MAX) {
        let mut end = usize::from(u16::MAX);
        while end > 0 && !s.is_char_boundary(end) {
            end -= 1;
        }
        bytes = &bytes[..end];
    }
    let len = u16::try_from(bytes.len()).unwrap_or(u16::MAX);
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(bytes);
}

/// Encodes a frame's payload (tag + body), without the length prefix.
#[must_use]
pub fn encode_payload(frame: &Frame) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32);
    encode_payload_into(frame, &mut buf);
    buf
}

/// Encodes a frame's payload (tag + body) by appending to `buf`,
/// without the length prefix and without allocating a fresh vector —
/// the hot-path variant for write loops that reuse an outbound buffer.
pub fn encode_payload_into(frame: &Frame, buf: &mut Vec<u8>) {
    buf.push(frame.tag() as u8);
    match frame {
        Frame::Hello {
            version,
            client_id,
            platform,
            predictor,
        } => {
            buf.extend_from_slice(&version.to_le_bytes());
            buf.extend_from_slice(&client_id.to_le_bytes());
            put_str(buf, platform);
            put_str(buf, predictor);
        }
        Frame::HelloAck {
            version,
            shard,
            op_points,
        } => {
            buf.extend_from_slice(&version.to_le_bytes());
            buf.extend_from_slice(&shard.to_le_bytes());
            buf.push(*op_points);
        }
        Frame::Sample {
            pid,
            uops,
            mem_trans,
            tsc_delta,
        } => {
            buf.extend_from_slice(&pid.to_le_bytes());
            buf.extend_from_slice(&uops.to_le_bytes());
            buf.extend_from_slice(&mem_trans.to_le_bytes());
            buf.extend_from_slice(&tsc_delta.to_le_bytes());
        }
        Frame::Decision {
            pid,
            op_point,
            confidence,
        } => {
            buf.extend_from_slice(&pid.to_le_bytes());
            buf.push(*op_point);
            buf.extend_from_slice(&confidence.to_le_bytes());
        }
        Frame::Error { code, message } => {
            buf.push(code.to_u8());
            put_str(buf, message);
        }
        Frame::Metrics { text } => put_str(buf, text),
        Frame::Goodbye | Frame::MetricsRequest => {}
    }
}

/// Encodes a frame to its full wire form: length prefix plus payload.
#[must_use]
pub fn encode(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(36);
    encode_into(frame, &mut out);
    out
}

/// Encodes a frame to its full wire form (length prefix plus payload)
/// by appending to `out`, allocating nothing beyond amortized buffer
/// growth. This is the shard write path: one reusable outbound buffer
/// per connection accumulates many frames per socket flush, so the
/// steady-state decision stream performs zero per-frame allocations.
pub fn encode_into(frame: &Frame, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    encode_payload_into(frame, out);
    // Payloads are structurally bounded far below u32::MAX: strings are
    // u16-length-prefixed and every other field is fixed-width.
    let payload_len = out.len() - start - 4;
    let len = u32::try_from(payload_len).unwrap_or_else(|_| unreachable!("payload fits in u32"));
    match out.get_mut(start..start + 4) {
        Some(prefix) => prefix.copy_from_slice(&len.to_le_bytes()),
        None => unreachable!("length prefix was reserved above"),
    }
}

/// Sequential little-endian field reader over a frame payload.
struct Fields<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Fields<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or(DecodeError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    /// [`take`](Self::take) into a fixed-width array, for the LE integer
    /// readers below — infallible once `take` has supplied `N` bytes.
    fn take_arr<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut arr = [0u8; N];
        arr.copy_from_slice(self.take(N)?);
        Ok(arr)
    }

    #[expect(clippy::indexing_slicing, reason = "take(1) returned exactly one byte")]
    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take_arr()?))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take_arr()?))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take_arr()?))
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let len = usize::from(self.u16()?);
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadString)
    }

    fn finish(self) -> Result<(), DecodeError> {
        let left = self.bytes.len() - self.pos;
        if left == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes(left))
        }
    }
}

/// Decodes one frame from its payload bytes (tag + body, no length
/// prefix).
///
/// # Errors
///
/// Returns a [`DecodeError`] for an empty payload, an unknown tag, a
/// truncated body, trailing bytes, a non-UTF-8 string, or an unknown
/// error code — never panics, whatever the input.
pub fn decode_payload(payload: &[u8]) -> Result<Frame, DecodeError> {
    if payload.is_empty() {
        return Err(DecodeError::BadLength(0));
    }
    let mut f = Fields {
        bytes: payload,
        pos: 0,
    };
    let byte = f.u8()?;
    let tag = Tag::from_u8(byte).ok_or(DecodeError::UnknownTag(byte))?;
    let frame = match tag {
        Tag::Hello => Frame::Hello {
            version: f.u16()?,
            client_id: f.u64()?,
            platform: f.string()?,
            predictor: f.string()?,
        },
        Tag::HelloAck => Frame::HelloAck {
            version: f.u16()?,
            shard: f.u32()?,
            op_points: f.u8()?,
        },
        Tag::Sample => Frame::Sample {
            pid: f.u32()?,
            uops: f.u64()?,
            mem_trans: f.u64()?,
            tsc_delta: f.u64()?,
        },
        Tag::Decision => Frame::Decision {
            pid: f.u32()?,
            op_point: f.u8()?,
            confidence: f.u16()?,
        },
        Tag::Error => {
            let code = f.u8()?;
            Frame::Error {
                code: ErrorCode::from_u8(code).ok_or(DecodeError::BadErrorCode(code))?,
                message: f.string()?,
            }
        }
        Tag::Goodbye => Frame::Goodbye,
        Tag::MetricsRequest => Frame::MetricsRequest,
        Tag::Metrics => Frame::Metrics { text: f.string()? },
    };
    f.finish()?;
    Ok(frame)
}

/// Writes one frame to `w` (buffered writers batch; call `flush`
/// yourself).
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    w.write_all(&encode(frame))
}

/// Reads one length-prefixed frame from `r`.
///
/// The length prefix is validated against [`MAX_FRAME_BYTES`] *before*
/// any payload is read, so an adversarial prefix cannot force an
/// allocation; a bad length or undecodable payload poisons only this
/// connection.
///
/// # Errors
///
/// [`FrameError::Io`] on transport failure (including read timeouts —
/// see [`FrameError::is_timeout`]); [`FrameError::Decode`] on a bad
/// length prefix or payload.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len == 0 || len > MAX_FRAME_BYTES {
        return Err(DecodeError::BadLength(len).into());
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(decode_payload(&payload)?)
}

/// Once the consumed prefix of the decode buffer grows past this, the
/// remaining bytes are shifted to the front so the buffer's capacity
/// stays bounded by the largest burst, not the lifetime byte count.
const DECODER_COMPACT_BYTES: usize = 16 * 1024;

/// Incremental, resumable frame decoder for non-blocking reads.
///
/// Blocking connections can use [`read_frame`], which owns the socket
/// until a whole frame arrives. A reactor cannot: a readiness event
/// delivers however many bytes the kernel has — half a length prefix,
/// three frames and a torn fourth — and the decoder must bank them and
/// resume later. `FrameDecoder` accepts arbitrary byte-boundary splits
/// via [`feed`](Self::feed) and yields exactly the frames a one-shot
/// decode of the concatenated stream would, in order.
///
/// The internal buffer is reused across frames and compacted as the
/// consumed prefix grows, so steady-state decoding of fixed-width
/// frames ([`Frame::Sample`], [`Frame::Decision`]) performs no
/// per-frame heap allocation. Errors are terminal for the stream, as
/// everywhere else in this protocol: the caller poisons the connection
/// and drops the decoder.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
    /// Times [`next_frame`](Self::next_frame) came up empty-handed with
    /// a torn frame banked — resumes attributable to the frame at the
    /// head of the buffer.
    head_resumes: u32,
    /// Resumes the most recently yielded frame needed (telemetry).
    last_resumes: u32,
}

impl FrameDecoder {
    /// A decoder with an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Banks `bytes` for decoding. Call [`next_frame`](Self::next_frame)
    /// until it returns `Ok(None)` to drain every completed frame.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes banked but not yet consumed by a yielded frame.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// How many resumed `next_frame` attempts the most recently yielded
    /// frame needed before its bytes were complete (0 when the frame
    /// arrived whole in one feed) — the reactor's decode-resume
    /// histogram samples this.
    #[must_use]
    pub fn last_resumes(&self) -> u32 {
        self.last_resumes
    }

    /// Yields the next complete frame, or `Ok(None)` when the banked
    /// bytes end mid-frame (feed more and retry).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] exactly where the one-shot path would:
    /// a length prefix outside `1..=MAX_FRAME_BYTES`, or a payload
    /// [`decode_payload`] rejects. Errors poison the stream; the caller
    /// is expected to drop the decoder with its connection.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, DecodeError> {
        let Some(avail) = self.buf.len().checked_sub(self.pos) else {
            unreachable!("consumed prefix never exceeds buffer length")
        };
        if avail < 4 {
            return Ok(self.pending(avail));
        }
        let Some(len_bytes) = self.buf.get(self.pos..self.pos + 4) else {
            unreachable!("avail >= 4 bytes were checked above")
        };
        let mut arr = [0u8; 4];
        arr.copy_from_slice(len_bytes);
        let len = u32::from_le_bytes(arr) as usize;
        if len == 0 || len > MAX_FRAME_BYTES {
            return Err(DecodeError::BadLength(len));
        }
        if avail < 4 + len {
            return Ok(self.pending(avail));
        }
        let Some(payload) = self.buf.get(self.pos + 4..self.pos + 4 + len) else {
            unreachable!("avail >= 4 + len bytes were checked above")
        };
        let frame = decode_payload(payload)?;
        self.pos += 4 + len;
        self.last_resumes = self.head_resumes;
        self.head_resumes = 0;
        self.compact();
        Ok(Some(frame))
    }

    /// Bookkeeping for an incomplete head frame: counts the resume (a
    /// torn frame is banked) and compacts so a long-lived connection's
    /// buffer does not creep.
    fn pending(&mut self, avail: usize) -> Option<Frame> {
        if avail > 0 {
            self.head_resumes = self.head_resumes.saturating_add(1);
        }
        self.compact();
        None
    }

    fn compact(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= DECODER_COMPACT_BYTES {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// Truncates exposition text to at most [`MAX_METRICS_TEXT_BYTES`],
/// cutting at a line boundary so a scrape never ends mid-series. The
/// common (untruncated) case borrows; only oversized registries copy.
#[must_use]
pub fn truncate_metrics_text(text: &str) -> &str {
    if text.len() <= MAX_METRICS_TEXT_BYTES {
        return text;
    }
    // Scan bytes so the cut never lands inside a multi-byte character
    // ('\n' is ASCII, so byte position == char boundary).
    let cut = text
        .as_bytes()
        .get(..MAX_METRICS_TEXT_BYTES)
        .unwrap_or_default()
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1);
    text.get(..cut).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: &Frame) {
        let bytes = encode(frame);
        let (prefix, payload) = bytes.split_at(4);
        assert_eq!(
            u32::from_le_bytes(prefix.try_into().unwrap()) as usize,
            payload.len()
        );
        assert_eq!(&decode_payload(payload).unwrap(), frame);
        // And through the streaming reader.
        let mut cursor = io::Cursor::new(bytes);
        assert_eq!(&read_frame(&mut cursor).unwrap(), frame);
    }

    #[test]
    fn every_frame_round_trips() {
        round_trip(&Frame::Hello {
            version: PROTOCOL_VERSION,
            client_id: 0xDEAD_BEEF_0123,
            platform: "pentium_m".into(),
            predictor: "gpht:8:128".into(),
        });
        round_trip(&Frame::HelloAck {
            version: PROTOCOL_VERSION,
            shard: 3,
            op_points: 6,
        });
        round_trip(&Frame::Sample {
            pid: 42,
            uops: 100_000_000,
            mem_trans: 1_234_567,
            tsc_delta: 987_654_321,
        });
        round_trip(&Frame::Decision {
            pid: 42,
            op_point: 5,
            confidence: 9_876,
        });
        round_trip(&Frame::Error {
            code: ErrorCode::Malformed,
            message: "tag 200 is not a frame".into(),
        });
        round_trip(&Frame::Goodbye);
        round_trip(&Frame::MetricsRequest);
        round_trip(&Frame::Metrics {
            text: "# TYPE serve_connections_total counter\nserve_connections_total 3\n".into(),
        });
    }

    /// Wire compatibility: each tag's byte, and the full encoding of one
    /// instance of every frame variant, as literal bytes. A renumbered
    /// tag changes both sides of a round trip, so only a golden sees it.
    /// The retired tags 5 and 6 stay unknown: a v2 peer's snapshot
    /// request decodes as an error, never as another frame.
    #[test]
    fn tags_and_frame_encodings_are_pinned() {
        let tags = [
            (Tag::Hello, 1),
            (Tag::HelloAck, 2),
            (Tag::Sample, 3),
            (Tag::Decision, 4),
            (Tag::Error, 7),
            (Tag::Goodbye, 8),
            (Tag::MetricsRequest, 9),
            (Tag::Metrics, 10),
        ];
        for (tag, byte) in tags {
            assert_eq!(tag as u8, byte, "{tag:?}");
            assert_eq!(Tag::from_u8(byte), Some(tag));
        }
        for unknown in [0, 5, 6, 11] {
            assert_eq!(Tag::from_u8(unknown), None);
        }
        // A v2 client's snapshot request (tag 5), whole on the wire.
        let mut dec = FrameDecoder::new();
        dec.feed(&[1, 0, 0, 0, 5]);
        assert_eq!(dec.next_frame(), Err(DecodeError::UnknownTag(5)));

        let z7 = [0u8; 7];
        let cases: [(Frame, Vec<u8>); 8] = [
            (
                Frame::Hello {
                    version: 2,
                    client_id: 0x0807_0605_0403_0201,
                    platform: "pm".into(),
                    predictor: "g".into(),
                },
                [
                    &[18, 0, 0, 0, 1, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8][..],
                    &[2, 0, b'p', b'm', 1, 0, b'g'],
                ]
                .concat(),
            ),
            (
                Frame::HelloAck {
                    version: 2,
                    shard: 3,
                    op_points: 6,
                },
                vec![8, 0, 0, 0, 2, 2, 0, 3, 0, 0, 0, 6],
            ),
            (
                Frame::Sample {
                    pid: 7,
                    uops: 0x0102,
                    mem_trans: 3,
                    tsc_delta: 4,
                },
                [
                    &[29, 0, 0, 0, 3, 7, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0][..],
                    &[3],
                    &z7,
                    &[4],
                    &z7,
                ]
                .concat(),
            ),
            (
                Frame::Decision {
                    pid: 7,
                    op_point: 5,
                    confidence: 0x1234,
                },
                vec![8, 0, 0, 0, 4, 7, 0, 0, 0, 5, 0x34, 0x12],
            ),
            (
                Frame::Error {
                    code: ErrorCode::VersionMismatch,
                    message: "v".into(),
                },
                vec![5, 0, 0, 0, 7, 1, 1, 0, b'v'],
            ),
            (Frame::Goodbye, vec![1, 0, 0, 0, 8]),
            (Frame::MetricsRequest, vec![1, 0, 0, 0, 9]),
            (
                Frame::Metrics { text: "m".into() },
                vec![4, 0, 0, 0, 10, 1, 0, b'm'],
            ),
        ];
        for (frame, bytes) in &cases {
            assert_eq!(&encode(frame), bytes, "{frame:?}");
            round_trip(frame);
        }
    }

    #[test]
    fn metrics_truncation_respects_line_boundaries() {
        // Short text passes through untouched.
        let short = "a_total 1\nb_total 2\n";
        assert_eq!(truncate_metrics_text(short), short);
        // Oversized text is cut at the last newline under the cap —
        // with a multi-byte char (µ) straddling everywhere to prove the
        // cut never lands mid-character.
        let line = "lat_µs_bucket{le=\"31\"} 4\n";
        let long = line.repeat(MAX_METRICS_TEXT_BYTES / line.len() + 10);
        let cut = truncate_metrics_text(&long);
        assert!(cut.len() <= MAX_METRICS_TEXT_BYTES);
        assert!(cut.ends_with('\n'), "cut mid-line");
        assert_eq!(cut.len() % line.len(), 0, "cut at a whole line");
        // A truncated scrape still frames and round-trips.
        round_trip(&Frame::Metrics { text: cut.into() });
        // Degenerate: one giant line with no newline under the cap.
        let giant = "x".repeat(MAX_METRICS_TEXT_BYTES + 5);
        assert_eq!(truncate_metrics_text(&giant), "");
    }

    #[test]
    fn empty_and_unknown_payloads_are_rejected() {
        assert_eq!(decode_payload(&[]), Err(DecodeError::BadLength(0)));
        assert_eq!(decode_payload(&[200]), Err(DecodeError::UnknownTag(200)));
    }

    #[test]
    fn truncation_and_trailing_bytes_are_rejected() {
        let payload = encode_payload(&Frame::Sample {
            pid: 1,
            uops: 2,
            mem_trans: 3,
            tsc_delta: 4,
        });
        for cut in 1..payload.len() {
            assert_eq!(
                decode_payload(&payload[..cut]),
                Err(DecodeError::Truncated),
                "cut at {cut}"
            );
        }
        let mut padded = payload;
        padded.push(0);
        assert_eq!(decode_payload(&padded), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_reading() {
        let mut bytes = (u32::try_from(MAX_FRAME_BYTES).unwrap() + 1)
            .to_le_bytes()
            .to_vec();
        bytes.push(Tag::Goodbye as u8);
        let mut cursor = io::Cursor::new(bytes);
        match read_frame(&mut cursor) {
            Err(FrameError::Decode(DecodeError::BadLength(n))) => {
                assert_eq!(n, MAX_FRAME_BYTES + 1);
            }
            other => panic!("expected BadLength, got {other:?}"),
        }
    }

    #[test]
    fn bad_strings_and_codes_are_rejected() {
        // Hello with invalid UTF-8 in the platform string.
        let mut payload = vec![Tag::Hello as u8];
        payload.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.extend_from_slice(&2u16.to_le_bytes());
        payload.extend_from_slice(&[0xFF, 0xFE]);
        payload.extend_from_slice(&0u16.to_le_bytes());
        assert_eq!(decode_payload(&payload), Err(DecodeError::BadString));

        let mut payload = vec![Tag::Error as u8, 99];
        payload.extend_from_slice(&0u16.to_le_bytes());
        assert_eq!(decode_payload(&payload), Err(DecodeError::BadErrorCode(99)));
    }

    #[test]
    fn error_codes_round_trip() {
        for code in [
            ErrorCode::VersionMismatch,
            ErrorCode::Malformed,
            ErrorCode::Busy,
            ErrorCode::IdleTimeout,
            ErrorCode::BadConfig,
            ErrorCode::Protocol,
            ErrorCode::ShuttingDown,
            ErrorCode::SlowConsumer,
        ] {
            assert_eq!(ErrorCode::from_u8(code.to_u8()), Some(code));
            assert!(!code.to_string().is_empty());
        }
        assert_eq!(ErrorCode::from_u8(0), None);
    }

    #[test]
    fn encode_into_matches_encode_and_appends() {
        let frames = [
            Frame::Sample {
                pid: 7,
                uops: 1,
                mem_trans: 2,
                tsc_delta: 3,
            },
            Frame::Decision {
                pid: 7,
                op_point: 4,
                confidence: 5_000,
            },
            Frame::Error {
                code: ErrorCode::SlowConsumer,
                message: "queue overflow".into(),
            },
        ];
        let mut out = Vec::new();
        let mut expect = Vec::new();
        for frame in &frames {
            encode_into(frame, &mut out);
            expect.extend_from_slice(&encode(frame));
        }
        assert_eq!(out, expect, "encode_into must append identical bytes");
    }

    #[test]
    fn frame_decoder_handles_split_and_batched_frames() {
        let frames = [
            Frame::Hello {
                version: PROTOCOL_VERSION,
                client_id: 9,
                platform: "pentium_m".into(),
                predictor: "gpht:8:128".into(),
            },
            Frame::Sample {
                pid: 1,
                uops: 10,
                mem_trans: 20,
                tsc_delta: 30,
            },
            Frame::Goodbye,
        ];
        let mut stream = Vec::new();
        for frame in &frames {
            encode_into(frame, &mut stream);
        }

        // One byte at a time.
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for byte in &stream {
            dec.feed(std::slice::from_ref(byte));
            while let Some(frame) = dec.next_frame().unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(got, frames);
        assert_eq!(dec.buffered(), 0);
        assert!(dec.last_resumes() > 0, "torn frames must count resumes");

        // All at once: whole-feed frames report zero resumes.
        let mut dec = FrameDecoder::new();
        dec.feed(&stream);
        for frame in &frames {
            assert_eq!(dec.next_frame().unwrap().as_ref(), Some(frame));
            assert_eq!(dec.last_resumes(), 0);
        }
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn frame_decoder_rejects_bad_lengths_like_the_stream_reader() {
        let mut dec = FrameDecoder::new();
        dec.feed(&0u32.to_le_bytes());
        assert_eq!(dec.next_frame(), Err(DecodeError::BadLength(0)));

        let mut dec = FrameDecoder::new();
        let too_big = u32::try_from(MAX_FRAME_BYTES).unwrap() + 1;
        dec.feed(&too_big.to_le_bytes());
        assert_eq!(
            dec.next_frame(),
            Err(DecodeError::BadLength(MAX_FRAME_BYTES + 1))
        );
    }

    #[test]
    fn frame_decoder_compacts_without_losing_bytes() {
        let frame = Frame::Sample {
            pid: 3,
            uops: 4,
            mem_trans: 5,
            tsc_delta: 6,
        };
        let bytes = encode(&frame);
        let mut dec = FrameDecoder::new();
        // Push far more than the compaction threshold through a small
        // decoder, splitting feeds at an awkward stride.
        let rounds = (2 * super::DECODER_COMPACT_BYTES) / bytes.len() + 8;
        let mut fed = Vec::new();
        for _ in 0..rounds {
            fed.extend_from_slice(&bytes);
        }
        let mut seen = 0usize;
        for chunk in fed.chunks(7) {
            dec.feed(chunk);
            while let Some(got) = dec.next_frame().unwrap() {
                assert_eq!(got, frame);
                seen += 1;
            }
        }
        assert_eq!(seen, rounds);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn timeout_classification() {
        let e = FrameError::Io(io::Error::new(io::ErrorKind::WouldBlock, "t"));
        assert!(e.is_timeout());
        let e = FrameError::Io(io::Error::new(io::ErrorKind::BrokenPipe, "t"));
        assert!(!e.is_timeout());
        let e = FrameError::Decode(DecodeError::Truncated);
        assert!(!e.is_timeout());
    }
}
