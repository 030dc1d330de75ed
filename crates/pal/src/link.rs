//! Duplex byte links — the PAL's transport endpoints.
//!
//! A [`ByteLink`] is a non-blocking, reliable, ordered byte stream between
//! two endpoints. It is the contract the message-passing channel layer
//! (`motor-mpc`) builds packets over, exactly as MPICH2's sock channel sits
//! on stream sockets. Two implementations are provided:
//!
//! * [`shm_pair`] — an in-process pair built from two SPSC byte rings,
//!   modelling a shared-memory interconnect between ranks hosted as threads
//!   of one OS process.
//! * [`tcp_pair`] / [`TcpLink`] — a real kernel TCP connection over
//!   loopback, the direct analog of the MPICH2 Windows/Posix sock channel.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

use crate::error::{PalError, PalResult};
use crate::poll::WakeCells;
use crate::ring::{ring, RingConsumer, RingProducer};
use crate::window::Windows;

/// A non-blocking, ordered, reliable duplex byte stream.
pub trait ByteLink: Send {
    /// Write as many bytes of `src` as currently possible; returns the
    /// number written (possibly zero). Never blocks.
    fn try_write(&mut self, src: &[u8]) -> PalResult<usize>;

    /// Read up to `dst.len()` bytes; returns the number read (possibly
    /// zero). Never blocks.
    fn try_read(&mut self, dst: &mut [u8]) -> PalResult<usize>;

    /// True once the peer endpoint is gone.
    fn is_closed(&self) -> bool;

    /// This end's handle on the window table it shares with its peer, if
    /// the two ends live in one address space (see [`crate::window`]).
    /// Links that cross a process boundary, simulate one, or wrap another
    /// link answer `None`, and all their bytes travel through the stream.
    fn windows(&self) -> Option<Windows> {
        None
    }

    /// This end's handle on the wake cells it shares with its peer, if
    /// both ends live in one process (see [`crate::poll`]): whoever moves
    /// bytes through this end wakes what is parked on the other. A link
    /// that leaves the process answers `None`, and its waits are bounded
    /// by their park quantum alone.
    fn wake_cells(&self) -> Option<WakeCells> {
        None
    }
}

/// Owned, type-erased link.
pub type BoxedLink = Box<dyn ByteLink>;

/// In-process shared-memory link: one ring per direction, plus the
/// window table bulk data can bypass the rings through.
pub struct ShmLink {
    tx: RingProducer,
    rx: RingConsumer,
    windows: Windows,
    wake: WakeCells,
}

/// Create a connected pair of in-process links with `capacity` bytes of
/// buffering per direction.
pub fn shm_pair(capacity: usize) -> (ShmLink, ShmLink) {
    let (a_tx, b_rx) = ring(capacity);
    let (b_tx, a_rx) = ring(capacity);
    let (a_win, b_win) = Windows::pair();
    let (a_wake, b_wake) = WakeCells::pair();
    (
        ShmLink {
            tx: a_tx,
            rx: a_rx,
            windows: a_win,
            wake: a_wake,
        },
        ShmLink {
            tx: b_tx,
            rx: b_rx,
            windows: b_win,
            wake: b_wake,
        },
    )
}

impl ByteLink for ShmLink {
    fn try_write(&mut self, src: &[u8]) -> PalResult<usize> {
        self.tx.try_write(src)
    }

    fn try_read(&mut self, dst: &mut [u8]) -> PalResult<usize> {
        self.rx.try_read(dst)
    }

    fn is_closed(&self) -> bool {
        self.tx.is_closed() && self.rx.is_closed()
    }

    fn windows(&self) -> Option<Windows> {
        Some(self.windows.clone())
    }

    fn wake_cells(&self) -> Option<WakeCells> {
        Some(self.wake.clone())
    }
}

/// A real TCP loopback connection in non-blocking mode. Both ends of a
/// [`tcp_pair`] live in this process, so they share wake cells; the bytes
/// still cross the kernel.
pub struct TcpLink {
    stream: TcpStream,
    peer_gone: bool,
    wake: WakeCells,
}

impl TcpLink {
    fn new(stream: TcpStream, wake: WakeCells) -> PalResult<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(TcpLink {
            stream,
            peer_gone: false,
            wake,
        })
    }
}

/// Create a connected pair of TCP links over the loopback interface.
pub fn tcp_pair() -> PalResult<(TcpLink, TcpLink)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let client = TcpStream::connect(addr)?;
    let (server, _) = listener.accept()?;
    let (a_wake, b_wake) = WakeCells::pair();
    Ok((TcpLink::new(client, a_wake)?, TcpLink::new(server, b_wake)?))
}

impl ByteLink for TcpLink {
    fn try_write(&mut self, src: &[u8]) -> PalResult<usize> {
        if src.is_empty() {
            return Ok(0);
        }
        match self.stream.write(src) {
            Ok(0) => {
                self.peer_gone = true;
                Err(PalError::Disconnected)
            }
            Ok(n) => Ok(n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(0),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(0),
            Err(e)
                if e.kind() == std::io::ErrorKind::BrokenPipe
                    || e.kind() == std::io::ErrorKind::ConnectionReset =>
            {
                self.peer_gone = true;
                Err(PalError::Disconnected)
            }
            Err(e) => Err(e.into()),
        }
    }

    fn try_read(&mut self, dst: &mut [u8]) -> PalResult<usize> {
        if dst.is_empty() {
            return Ok(0);
        }
        match self.stream.read(dst) {
            Ok(0) => {
                self.peer_gone = true;
                Err(PalError::Disconnected)
            }
            Ok(n) => Ok(n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(0),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(0),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {
                self.peer_gone = true;
                Err(PalError::Disconnected)
            }
            Err(e) => Err(e.into()),
        }
    }

    fn is_closed(&self) -> bool {
        self.peer_gone
    }

    fn wake_cells(&self) -> Option<WakeCells> {
        Some(self.wake.clone())
    }
}

/// Blocking-write helper used by tests and simple tools: spins a link's
/// `try_write` until the whole buffer is flushed.
pub fn write_all(link: &mut dyn ByteLink, mut src: &[u8]) -> PalResult<()> {
    while !src.is_empty() {
        let n = link.try_write(src)?;
        src = &src[n..];
        if n == 0 {
            std::hint::spin_loop();
        }
    }
    Ok(())
}

/// Blocking-read helper: spins `try_read` until `dst` is filled.
pub fn read_exact(link: &mut dyn ByteLink, dst: &mut [u8]) -> PalResult<()> {
    let mut off = 0;
    while off < dst.len() {
        let n = link.try_read(&mut dst[off..])?;
        off += n;
        if n == 0 {
            std::hint::spin_loop();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise_duplex(mut a: impl ByteLink + 'static, mut b: impl ByteLink + 'static) {
        let t = std::thread::spawn(move || {
            let mut buf = [0u8; 11];
            read_exact(&mut b, &mut buf).unwrap();
            assert_eq!(&buf, b"ping-motor!");
            write_all(&mut b, b"pong").unwrap();
        });
        write_all(&mut a, b"ping-motor!").unwrap();
        let mut buf = [0u8; 4];
        read_exact(&mut a, &mut buf).unwrap();
        assert_eq!(&buf, b"pong");
        t.join().unwrap();
    }

    #[test]
    fn shm_duplex_roundtrip() {
        let (a, b) = shm_pair(4096);
        exercise_duplex(a, b);
    }

    #[test]
    fn tcp_duplex_roundtrip() {
        let (a, b) = tcp_pair().unwrap();
        exercise_duplex(a, b);
    }

    #[test]
    fn shm_bulk_transfer_larger_than_ring() {
        let (mut a, mut b) = shm_pair(256);
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let expect = data.clone();
        let t = std::thread::spawn(move || {
            write_all(&mut a, &data).unwrap();
        });
        let mut got = vec![0u8; expect.len()];
        read_exact(&mut b, &mut got).unwrap();
        assert_eq!(got, expect);
        t.join().unwrap();
    }

    #[test]
    fn tcp_survives_interleaved_chunks() {
        let (mut a, mut b) = tcp_pair().unwrap();
        for i in 0..50u8 {
            write_all(&mut a, &[i; 33]).unwrap();
            let mut buf = [0u8; 33];
            read_exact(&mut b, &mut buf).unwrap();
            assert_eq!(buf, [i; 33]);
        }
    }

    #[test]
    fn shm_close_detected() {
        let (a, mut b) = shm_pair(64);
        drop(a);
        let mut buf = [0u8; 4];
        assert!(matches!(b.try_read(&mut buf), Err(PalError::Disconnected)));
    }

    #[test]
    fn only_shm_ends_share_a_window_table() {
        let (a, b) = shm_pair(64);
        let (wa, wb) = (a.windows().unwrap(), b.windows().unwrap());
        let src = [7u8; 16];
        // SAFETY: `src` outlives the exposure.
        let _exp = unsafe { wa.expose(1, src.as_ptr(), src.len()) };
        let mut dst = [0u8; 16];
        // SAFETY: `dst` is 16 writable bytes.
        assert_eq!(unsafe { wb.pull(1, dst.as_mut_ptr(), 16, || {}) }, Some(16));
        assert_eq!(dst, src);
        let (c, d) = tcp_pair().unwrap();
        assert!(c.windows().is_none() && d.windows().is_none());
    }

    #[test]
    fn boxed_link_is_object_safe() {
        let (a, b) = shm_pair(128);
        let mut links: Vec<BoxedLink> = vec![Box::new(a), Box::new(b)];
        links[0].try_write(b"x").unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(links[1].try_read(&mut buf).unwrap(), 1);
        assert_eq!(&buf, b"x");
    }
}
