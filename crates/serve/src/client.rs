//! The blocking client for the `livephase-serve` protocol.
//!
//! [`Client::connect`] runs the version handshake; after that the
//! caller pipelines [`Client::queue_sample`] + [`Client::flush`] against
//! [`Client::read_decision`]. Writes are buffered — nothing reaches the
//! socket until `flush` — so a window of samples costs one syscall, the
//! same batching discipline the server uses for decisions. Frames go
//! through [`wire::read_frame`] and [`wire::write_frame`]. The
//! nonblocking many-connection client is the load generator
//! ([`crate::loadgen`]), which drives the server's own framed transport.

use crate::wire::{self, ErrorCode, Frame, FrameError, StatsSnapshot, PROTOCOL_VERSION};
use std::fmt;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
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

fn unexpected(wanted: &'static str, got: &Frame) -> ClientError {
    ClientError::Unexpected {
        wanted,
        got: got.tag().name(),
    }
}
