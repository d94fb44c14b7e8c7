//! Clients for the `livephase-serve` protocol.
//!
//! [`Client`] is the blocking session: [`Client::connect`] runs the
//! version handshake; after that the caller pipelines
//! [`Client::queue_sample`] + [`Client::flush`] against
//! [`Client::read_decision`]. Writes are buffered — nothing reaches the
//! socket until `flush` — so a window of samples costs one syscall, the
//! same batching discipline the server uses for decisions.
//!
//! [`ConnDriver`] is the nonblocking counterpart for many-connection
//! load generation: one driver per socket, advanced by readiness events
//! from a caller-owned epoll loop (see `loadgen`), with the same
//! resumable [`FrameDecoder`] the server uses — so one thread can multiplex tens of thousands of sessions.

use crate::wire::{
    self, ErrorCode, Frame, FrameDecoder, FrameError, StatsSnapshot, PROTOCOL_VERSION,
};
use std::fmt;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server's bytes did not decode.
    Frame(FrameError),
    /// The server answered with a terminal [`Frame::Error`].
    Refused {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The server sent a well-formed frame the protocol does not allow
    /// here.
    Unexpected {
        /// What the caller was waiting for.
        wanted: &'static str,
        /// What arrived instead.
        got: &'static str,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o: {e}"),
            Self::Frame(e) => write!(f, "frame: {e}"),
            Self::Refused { code, message } => write!(f, "server refused ({code}): {message}"),
            Self::Unexpected { wanted, got } => write!(f, "expected {wanted}, server sent {got}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        Self::Frame(e)
    }
}

/// One decision read back from the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServedDecision {
    /// Process the decision is for.
    pub pid: u32,
    /// Operating-point index to apply (0 = fastest).
    pub op_point: u8,
    /// Running prediction accuracy in basis points.
    pub confidence: u16,
}

/// A connected, handshaken session.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    shard: u32,
    op_points: u8,
}

impl Client {
    /// Connects, sets socket timeouts, and performs the `Hello` /
    /// `HelloAck` handshake.
    ///
    /// # Errors
    ///
    /// Transport errors; [`ClientError::Refused`] when the server
    /// answers `Error` (version mismatch, bad predictor spec, busy).
    pub fn connect(
        addr: impl ToSocketAddrs,
        client_id: u64,
        platform: &str,
        predictor: &str,
        timeout: Duration,
    ) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::with_capacity(32 * 1024, stream);
        let mut client = Self {
            reader,
            writer,
            shard: 0,
            op_points: 0,
        };
        client.send(&Frame::Hello {
            version: PROTOCOL_VERSION,
            client_id,
            platform: platform.to_owned(),
            predictor: predictor.to_owned(),
        })?;
        client.flush()?;
        match client.read()? {
            Frame::HelloAck {
                shard, op_points, ..
            } => {
                client.shard = shard;
                client.op_points = op_points;
                Ok(client)
            }
            Frame::Error { code, message } => Err(ClientError::Refused { code, message }),
            other => Err(unexpected("HelloAck", &other)),
        }
    }

    /// Shard index the session landed on.
    #[must_use]
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Number of operating points decisions index into.
    #[must_use]
    pub fn op_points(&self) -> u8 {
        self.op_points
    }

    /// Queues one counter sample (buffered; call [`flush`](Self::flush)).
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn queue_sample(
        &mut self,
        pid: u32,
        uops: u64,
        mem_trans: u64,
        tsc_delta: u64,
    ) -> Result<(), ClientError> {
        self.send(&Frame::Sample {
            pid,
            uops,
            mem_trans,
            tsc_delta,
        })
    }

    /// Pushes everything queued onto the socket.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        self.writer.flush()?;
        Ok(())
    }

    /// Reads the next decision.
    ///
    /// # Errors
    ///
    /// Transport/decode errors; [`ClientError::Refused`] when the server
    /// terminates the session instead.
    pub fn read_decision(&mut self) -> Result<ServedDecision, ClientError> {
        match self.read()? {
            Frame::Decision {
                pid,
                op_point,
                confidence,
            } => Ok(ServedDecision {
                pid,
                op_point,
                confidence,
            }),
            Frame::Error { code, message } => Err(ClientError::Refused { code, message }),
            other => Err(unexpected("Decision", &other)),
        }
    }

    /// Requests and reads a stats snapshot. Drain pending decisions
    /// first: the protocol answers in order per stream, but a snapshot
    /// may overtake decisions still being computed.
    ///
    /// # Errors
    ///
    /// Transport/decode errors; [`ClientError::Unexpected`] if a
    /// decision was still in flight.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        self.send(&Frame::StatsRequest)?;
        self.flush()?;
        match self.read()? {
            Frame::Stats(snapshot) => Ok(snapshot),
            Frame::Error { code, message } => Err(ClientError::Refused { code, message }),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Requests and reads a metrics exposition scrape. As with
    /// [`stats`](Self::stats), drain pending decisions first.
    ///
    /// # Errors
    ///
    /// Transport/decode errors; [`ClientError::Refused`] when the
    /// server terminates the session instead.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        self.send(&Frame::MetricsRequest)?;
        self.flush()?;
        match self.read()? {
            Frame::Metrics { text } => Ok(text),
            Frame::Error { code, message } => Err(ClientError::Refused { code, message }),
            other => Err(unexpected("Metrics", &other)),
        }
    }

    /// Sends `Goodbye` and closes the session.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn goodbye(mut self) -> Result<(), ClientError> {
        self.send(&Frame::Goodbye)?;
        self.flush()?;
        Ok(())
    }

    /// Reads one raw frame (for callers exercising the protocol edges).
    ///
    /// # Errors
    ///
    /// Transport/decode errors.
    pub fn read(&mut self) -> Result<Frame, ClientError> {
        Ok(wire::read_frame(&mut self.reader)?)
    }

    fn send(&mut self, frame: &Frame) -> Result<(), ClientError> {
        wire::write_frame(&mut self.writer, frame)?;
        Ok(())
    }
}

/// A nonblocking protocol driver: one socket, a resumable decoder, and
/// an outbound byte queue, advanced by readiness events from a
/// caller-owned epoll loop.
///
/// The driver is transport-only: the caller queues frames with
/// [`queue`](Self::queue), pumps bytes with [`fill`](Self::fill) /
/// [`flush`](Self::flush) when its event loop reports readiness, and
/// drains decoded frames with [`next_frame`](Self::next_frame). Session
/// logic (handshake tracking, windowed replay, oracle comparison) stays
/// with the caller, which is what lets one thread drive tens of
/// thousands of these.
#[derive(Debug)]
pub struct ConnDriver {
    stream: TcpStream,
    decoder: FrameDecoder,
    outbound: Vec<u8>,
    sent: usize,
    peer_gone: bool,
}

impl ConnDriver {
    /// Connects (blocking, so callers can pace connect waves), switches
    /// the socket nonblocking, and queues the `Hello` — the handshake
    /// completes when the caller's event loop reads the `HelloAck`.
    ///
    /// # Errors
    ///
    /// Propagates connect/setup failures.
    pub fn connect(
        addr: impl ToSocketAddrs,
        client_id: u64,
        platform: &str,
        predictor: &str,
    ) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let mut driver = Self {
            stream,
            decoder: FrameDecoder::new(),
            outbound: Vec::new(),
            sent: 0,
            peer_gone: false,
        };
        driver.queue(&Frame::Hello {
            version: PROTOCOL_VERSION,
            client_id,
            platform: platform.to_owned(),
            predictor: predictor.to_owned(),
        });
        driver.flush();
        Ok(driver)
    }

    /// The socket's raw fd, for epoll registration.
    #[must_use]
    pub fn as_raw_fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// Appends one frame to the outbound queue (call
    /// [`flush`](Self::flush) to push bytes).
    pub fn queue(&mut self, frame: &Frame) {
        wire::encode_into(frame, &mut self.outbound);
    }

    /// Bytes queued outbound and not yet written.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.outbound.len().saturating_sub(self.sent)
    }

    /// Whether the peer closed or the socket failed.
    #[must_use]
    pub fn peer_gone(&self) -> bool {
        self.peer_gone
    }

    /// Writes queued bytes until the socket pushes back.
    pub fn flush(&mut self) {
        while self.sent < self.outbound.len() {
            let Some(chunk) = self.outbound.get(self.sent..) else {
                unreachable!("sent is bounded by outbound.len() by the loop condition")
            };
            match self.stream.write(chunk) {
                Ok(0) => {
                    self.peer_gone = true;
                    break;
                }
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.peer_gone = true;
                    break;
                }
            }
        }
        if self.sent == self.outbound.len() {
            self.outbound.clear();
            self.sent = 0;
        }
    }

    /// Reads whatever the socket has into the decoder; drain the decoded
    /// frames with [`next_frame`](Self::next_frame).
    pub fn fill(&mut self, scratch: &mut [u8]) {
        loop {
            match self.stream.read(scratch) {
                Ok(0) => {
                    self.peer_gone = true;
                    break;
                }
                Ok(n) => {
                    let Some(chunk) = scratch.get(..n) else {
                        unreachable!("read(2) never returns more than the buffer length")
                    };
                    self.decoder.feed(chunk);
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.peer_gone = true;
                    break;
                }
            }
        }
    }

    /// Yields the next complete frame banked by [`fill`](Self::fill), or
    /// `Ok(None)` when the banked bytes end mid-frame.
    ///
    /// # Errors
    ///
    /// [`ClientError::Frame`] when the server's bytes do not decode.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, ClientError> {
        self.decoder
            .next_frame()
            .map_err(|e| ClientError::Frame(FrameError::Decode(e)))
    }
}

fn unexpected(wanted: &'static str, got: &Frame) -> ClientError {
    ClientError::Unexpected {
        wanted,
        got: got.tag().name(),
    }
}
