//! # motor-pal — Platform Adaptation Layer
//!
//! The Motor paper builds its runtime on the SSCLI *Platform Adaptation
//! Layer* (PAL), a virtual subset of the Windows API that hides the host
//! platform, and its message transport on the MPICH2 *sock channel*, which
//! talks to the operating system directly. This crate is the analog of that
//! lowest layer: everything above it (the managed runtime, the message
//! passing core, the Motor bindings) is platform-agnostic and talks only to
//! the abstractions defined here.
//!
//! The PAL provides:
//!
//! * [`clock`] — monotonic timing used by the benchmark protocol.
//! * [`ring`] — single-producer/single-consumer byte ring buffers, the
//!   shared-memory transport primitive.
//! * [`link`] — the [`link::ByteLink`] duplex byte-stream abstraction with
//!   two implementations: in-process shared memory ([`link::shm_pair`]) and
//!   real TCP over loopback ([`link::tcp_pair`]), mirroring MPICH2's `shm`
//!   and `sock` channels.
//! * [`window`] — exposed send windows: the table the two ends of an
//!   in-process link share, through which a receiver copies bulk data
//!   straight out of the sender's buffer instead of through the rings.
//! * [`poll`] — the *polling-wait* primitives. Motor replaced MPICH2's
//!   blocking system calls with a polling wait that periodically yields to
//!   the garbage collector; the backoff ladder, the eventcount
//!   [`poll::Waker`] a wait parks on and the [`poll::WakeCells`] through
//!   which moving bytes wakes the peer are the pieces that loop is built
//!   from.
//! * [`error`] — the PAL error type.

pub mod clock;
pub mod error;
pub mod link;
pub mod poll;
pub mod ring;
pub mod window;

pub use clock::{HostTicks, TickSource, VirtualClock};
pub use error::{PalError, PalResult};
pub use link::{shm_pair, tcp_pair, BoxedLink, ByteLink};
pub use poll::{Backoff, BackoffConfig, WakeCells, Waker};

/// Status oracle of a conditional pin (paper §4.3): `true` while the
/// operation it stands for is still using its buffer. The collector asks
/// during mark; a transport request answers. It lives here because the
/// runtime that asks and the message passing core that answers know
/// nothing of each other — so the request itself can be the condition,
/// with nothing allocated to adapt one to the other.
pub trait PinCondition: Send + Sync {
    /// Whether the underlying operation is still in flight.
    fn in_flight(&self) -> bool;
}

impl<F: Fn() -> bool + Send + Sync> PinCondition for F {
    fn in_flight(&self) -> bool {
        self()
    }
}

#[doc(hidden)]
pub mod interleave {
    //! Two real threads in a forced order: the harness the window table's,
    //! the waker's and (in `motor-obs`) the in-flight table's interleaving
    //! tests share. Test support; compiled always so that other crates'
    //! tests can reach it.
    use std::sync::mpsc;

    /// The first thread's handle on the second, which waits for its turn
    /// and then runs once.
    pub struct Turn {
        give: mpsc::Sender<()>,
        done: mpsc::Receiver<()>,
    }

    impl Turn {
        /// Give the second thread its turn and wait until it has finished.
        pub fn gate(&self) {
            self.release();
            self.done.recv().unwrap();
        }

        /// Give the second thread its turn and carry on: it runs
        /// concurrently with whatever the first thread does next.
        pub fn release(&self) {
            self.give.send(()).unwrap();
        }
    }

    /// Run `first` on this thread and `second` on one of its own, started
    /// when `first` gives it its turn. Returns what both produced, after
    /// both have finished.
    pub fn two_threads<A, B: Send>(
        first: impl FnOnce(&Turn) -> A,
        second: impl FnOnce() -> B + Send,
    ) -> (A, B) {
        let (give, turn) = mpsc::channel();
        let (finished, done) = mpsc::channel();
        std::thread::scope(|s| {
            let second = s.spawn(move || {
                turn.recv().unwrap();
                let b = second();
                let _ = finished.send(());
                b
            });
            let a = first(&Turn { give, done });
            (a, second.join().unwrap())
        })
    }
}
