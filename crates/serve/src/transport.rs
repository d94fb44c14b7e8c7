//! One nonblocking, framed socket: the serve wire's only read loop and
//! only write loop.
//!
//! Both ends of a reactor-driven connection — the server's [`Conn`]
//! and the load generator's sessions — hold a [`Framed`]: the socket,
//! its resumable [`FrameDecoder`], the outbound byte queue with its
//! `sent` cursor, whether the peer is gone, and the interest registered
//! with the owner's epoll. The owner keeps only its session state and
//! calls [`read`](Framed::read) and [`write`](Framed::write) when its
//! event loop reports readiness. Every `WouldBlock`, `Interrupted` and
//! 0-byte rule lives in those two loops.
//!
//! [`Conn`]: crate::conn::Conn

use crate::reactor::{Epoll, Interest};
use crate::wire::{self, DecodeError, Frame, FrameDecoder};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::{AsRawFd, RawFd};

/// Readiness events drained per `epoll_wait`.
pub(crate) const EVENTS_PER_WAIT: usize = 1024;

/// Size of the read scratch an event loop shares across its sockets:
/// reads land there and go to the owning socket's decoder, so no read
/// allocates.
pub(crate) const SCRATCH_BYTES: usize = 64 * 1024;

/// Consecutive `read(2)` calls per readiness event before yielding back
/// to the event loop; level-triggered registration re-delivers anything
/// left, so this only bounds one socket's monopoly of its loop.
const MAX_READS_PER_EVENT: usize = 4;

/// Once this many sent bytes accumulate at the front of the outbound
/// queue mid-stream, they are compacted away so the buffer cannot creep.
const OUTBOUND_COMPACT_BYTES: usize = 32 * 1024;

/// A nonblocking socket with a frame decoder and an outbound queue.
#[derive(Debug)]
pub(crate) struct Framed {
    stream: TcpStream,
    decoder: FrameDecoder,
    outbound: Vec<u8>,
    sent: usize,
    /// The peer closed, the socket failed, or the owner gave up on it:
    /// the owner should close it.
    pub(crate) peer_gone: bool,
    /// The interest currently registered with the owner's epoll.
    interest: Option<Interest>,
}

impl Framed {
    /// Wraps a socket the caller has already made nonblocking.
    pub(crate) fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            decoder: FrameDecoder::new(),
            outbound: Vec::new(),
            sent: 0,
            peer_gone: false,
            interest: None,
        }
    }

    /// The socket's raw fd: its epoll token and its key in the owner's
    /// connection table.
    pub(crate) fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// Appends one frame to the outbound queue; [`write`](Self::write)
    /// pushes it.
    pub(crate) fn queue(&mut self, frame: &Frame) {
        wire::encode_into(frame, &mut self.outbound);
    }

    /// Bytes queued outbound and not yet written to the socket.
    pub(crate) fn pending(&self) -> usize {
        self.outbound.len().saturating_sub(self.sent)
    }

    /// The interest of a socket its owner keeps open: read, plus write
    /// while bytes are queued (a level-triggered `EPOLLOUT` on an idle
    /// socket would busy-spin).
    pub(crate) fn open_interest(&self) -> Interest {
        if self.pending() > 0 {
            Interest::ReadWrite
        } else {
            Interest::Read
        }
    }

    /// The one read loop: up to [`MAX_READS_PER_EVENT`] reads into
    /// `scratch`, stopping early once the socket is drained. The bytes
    /// go to the decoder, or, when `discard` is set (the owner is
    /// closing), nowhere: they are still pulled off the socket, because
    /// closing with unread inbound bytes resets the connection. EOF or a
    /// socket error sets [`peer_gone`](Self::peer_gone). Returns the
    /// bytes read.
    pub(crate) fn read(&mut self, scratch: &mut [u8], discard: bool) -> usize {
        let mut total = 0;
        for _ in 0..MAX_READS_PER_EVENT {
            match self.stream.read(scratch) {
                Ok(0) => {
                    self.peer_gone = true;
                    break;
                }
                Ok(n) => {
                    total += n;
                    if !discard {
                        let Some(chunk) = scratch.get(..n) else {
                            unreachable!("read(2) never returns more than the buffer length")
                        };
                        self.decoder.feed(chunk);
                    }
                    if n < scratch.len() {
                        break; // socket drained
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
        total
    }

    /// The one write loop: writes queued bytes until the socket pushes
    /// back, then clears or compacts the queue. A socket error sets
    /// [`peer_gone`](Self::peer_gone). Returns the bytes written.
    pub(crate) fn write(&mut self) -> usize {
        let mut total = 0;
        while self.sent < self.outbound.len() {
            let Some(chunk) = self.outbound.get(self.sent..) else {
                unreachable!("sent is bounded by outbound.len() by the loop condition")
            };
            match self.stream.write(chunk) {
                Ok(0) => {
                    self.peer_gone = true;
                    break;
                }
                Ok(n) => {
                    self.sent += n;
                    total += n;
                }
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
        } else if self.sent >= OUTBOUND_COMPACT_BYTES {
            self.outbound.drain(..self.sent);
            self.sent = 0;
        }
        total
    }

    /// Yields the next complete frame [`read`](Self::read) banked, or
    /// `Ok(None)` when the banked bytes end mid-frame.
    pub(crate) fn next_frame(&mut self) -> Result<Option<Frame>, DecodeError> {
        self.decoder.next_frame()
    }

    /// Resumes the most recently yielded frame needed (telemetry).
    pub(crate) fn last_resumes(&self) -> u32 {
        self.decoder.last_resumes()
    }

    /// Half-closes the socket: the peer reads EOF after the bytes
    /// already written.
    pub(crate) fn shutdown_write(&self) {
        let _ = self.stream.shutdown(Shutdown::Write);
    }

    /// Brings the socket's epoll registration in line with `want`,
    /// registering it on the first call. `None` (the owner is finished)
    /// or a failed registration queues the fd on `to_close`.
    pub(crate) fn sync(
        &mut self,
        epoll: &Epoll,
        want: Option<Interest>,
        to_close: &mut Vec<RawFd>,
    ) {
        let fd = self.fd();
        let Some(want) = want else {
            to_close.push(fd);
            return;
        };
        if self.interest == Some(want) {
            return;
        }
        let token = fd as u64;
        let registered = if self.interest.is_some() {
            epoll.modify(fd, want, token)
        } else {
            epoll.add(fd, want, token)
        };
        if registered.is_ok() {
            self.interest = Some(want);
        } else {
            to_close.push(fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::{set_recv_buffer, set_send_buffer};
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    /// A connected loopback pair: the nonblocking end wrapped in a
    /// [`Framed`], and the blocking peer.
    fn pair() -> (Framed, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (ours, _) = listener.accept().unwrap();
        ours.set_nonblocking(true).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        (Framed::new(ours), peer)
    }

    fn sample(i: u32) -> Frame {
        Frame::Sample {
            pid: i,
            uops: u64::from(i) * 3,
            mem_trans: u64::from(i) * 7,
            tsc_delta: 1,
        }
    }

    /// Reads until at least `want` bytes have arrived or the peer is
    /// gone, polling the nonblocking socket for up to five seconds.
    fn read_at_least(framed: &mut Framed, scratch: &mut [u8], want: usize, discard: bool) -> usize {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut got = 0;
        while got < want && !framed.peer_gone && Instant::now() < deadline {
            let n = framed.read(scratch, discard);
            got += n;
            if n == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        got
    }

    #[test]
    fn a_write_that_would_block_resumes_at_the_right_byte() {
        let (mut framed, mut peer) = pair();
        set_send_buffer(framed.fd(), 16 * 1024).unwrap();
        set_recv_buffer(peer.as_raw_fd(), 64 * 1024).unwrap();
        let frames: Vec<Frame> = (0..20_000).map(sample).collect();
        for f in &frames {
            framed.queue(f);
        }
        let total = framed.pending();
        let first = framed.write();
        assert!(first < total, "the socket never pushed back");
        assert_eq!(framed.pending(), total - first);
        // The peer drains while the owner keeps writing; it must decode
        // exactly the queued frames, in order.
        let mut decoder = FrameDecoder::new();
        let mut got = Vec::new();
        let mut buf = vec![0u8; 64 * 1024];
        while got.len() < frames.len() {
            framed.write();
            let n = peer.read(&mut buf).unwrap();
            assert!(n > 0, "the peer saw EOF before every frame");
            decoder.feed(&buf[..n]);
            while let Some(f) = decoder.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        assert_eq!(framed.pending(), 0);
        assert!(!framed.peer_gone);
    }

    #[test]
    fn a_frame_torn_across_two_reads_is_yielded_once() {
        let (mut framed, mut peer) = pair();
        let bytes = wire::encode(&sample(7));
        let (head, tail) = bytes.split_at(bytes.len() / 2);
        let mut scratch = vec![0u8; SCRATCH_BYTES];
        peer.write_all(head).unwrap();
        assert_eq!(
            read_at_least(&mut framed, &mut scratch, head.len(), false),
            head.len()
        );
        assert_eq!(framed.next_frame(), Ok(None));
        peer.write_all(tail).unwrap();
        assert_eq!(
            read_at_least(&mut framed, &mut scratch, tail.len(), false),
            tail.len()
        );
        assert_eq!(framed.next_frame(), Ok(Some(sample(7))));
        assert_eq!(framed.next_frame(), Ok(None));
    }

    #[test]
    fn a_peer_closing_mid_frame_sets_peer_gone_and_yields_nothing() {
        let (mut framed, mut peer) = pair();
        let bytes = wire::encode(&sample(9));
        peer.write_all(&bytes[..bytes.len() - 1]).unwrap();
        drop(peer);
        let mut scratch = vec![0u8; SCRATCH_BYTES];
        read_at_least(&mut framed, &mut scratch, usize::MAX, false);
        assert!(framed.peer_gone);
        assert_eq!(framed.next_frame(), Ok(None));
    }

    #[test]
    fn a_closing_owner_feeds_the_decoder_nothing() {
        let (mut framed, mut peer) = pair();
        let bytes = wire::encode(&sample(3));
        peer.write_all(&bytes).unwrap();
        let mut scratch = vec![0u8; SCRATCH_BYTES];
        let read = read_at_least(&mut framed, &mut scratch, bytes.len(), true);
        assert_eq!(read, bytes.len(), "the bytes still leave the socket");
        assert_eq!(framed.decoder.buffered(), 0);
        assert_eq!(framed.next_frame(), Ok(None));
    }

    #[test]
    fn one_read_call_takes_at_most_its_bound() {
        let (mut framed, mut peer) = pair();
        let scratch_len = 16;
        let sent = vec![0xa5u8; 1000];
        peer.write_all(&sent).unwrap();
        // Wait until the whole write is in the receive buffer.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut probe = vec![0u8; sent.len()];
        while framed.stream.peek(&mut probe).unwrap_or(0) < sent.len() {
            assert!(Instant::now() < deadline, "the peer's bytes never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut scratch = vec![0u8; scratch_len];
        let bound = MAX_READS_PER_EVENT * scratch_len;
        assert_eq!(framed.read(&mut scratch, false), bound);
        assert_eq!(framed.decoder.buffered(), bound);
        assert_eq!(framed.read(&mut scratch, false), bound);
        assert!(!framed.peer_gone);
    }
}
