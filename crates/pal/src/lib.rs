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

pub use clock::{TickSource, VirtualClock};
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
    //! Real threads in a forced order: the harnesses the window table's,
    //! the waker's and (in `motor-obs`) the in-flight table's interleaving
    //! tests share. [`two_threads`] gates a second thread from the first;
    //! [`conduct`] steps any number of workers from stop to stop, each
    //! stop a point the code under test reports. Test support; compiled
    //! always so that other crates' tests can reach it.
    use std::cell::Cell;
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

    /// A worker's end of a [`Conductor`]: it reports where it stopped
    /// and waits to be sent on. Once the conductor is gone, stops no
    /// longer wait. Dropping the baton tells the conductor the worker has
    /// finished.
    pub struct Baton<P> {
        at: mpsc::Sender<P>,
        go: mpsc::Receiver<()>,
    }

    impl<P> Baton<P> {
        /// Report `point` and wait to be sent on.
        pub fn stop(&self, point: P) {
            if self.at.send(point).is_ok() {
                let _ = self.go.recv();
            }
        }
    }

    /// One worker as the conductor sees it.
    struct Worker<P> {
        go: mpsc::Sender<()>,
        at: mpsc::Receiver<P>,
        running: Cell<bool>,
        finished: Cell<bool>,
    }

    /// The test's end of [`conduct`]: sends workers on, by index, and
    /// waits for them at their next stop.
    pub struct Conductor<P> {
        workers: Vec<Worker<P>>,
    }

    impl<P> Conductor<P> {
        /// Send worker `w` on without waiting for it: it runs
        /// concurrently with whatever the conductor does next.
        pub fn go(&self, w: usize) {
            let worker = &self.workers[w];
            assert!(!worker.running.get(), "worker {w} is already running");
            let _ = worker.go.send(());
            worker.running.set(true);
        }

        /// Wait until worker `w`, sent on, stops again: `Some(point)`, or
        /// `None` once it has finished.
        pub fn stopped(&self, w: usize) -> Option<P> {
            let worker = &self.workers[w];
            assert!(worker.running.get(), "worker {w} was not sent on");
            worker.running.set(false);
            let at = worker.at.recv().ok();
            worker.finished.set(at.is_none());
            at
        }

        /// [`Self::go`], then [`Self::stopped`].
        pub fn step(&self, w: usize) -> Option<P> {
            self.go(w);
            self.stopped(w)
        }

        /// Let worker `w` run to its end through all its stops.
        pub fn finish(&self, w: usize) {
            let worker = &self.workers[w];
            if worker.running.get() {
                self.stopped(w);
            }
            while !worker.finished.get() {
                self.step(w);
            }
        }
    }

    /// A worker body for [`conduct`].
    pub type Work<'a, P> = Box<dyn FnOnce(Baton<P>) + Send + 'a>;

    /// Run each of `workers` on a thread of its own, each held until the
    /// conductor first sends it on, and `conductor` on this one. When
    /// `conductor` returns, the workers run on freely; `conduct` returns
    /// once all have finished.
    pub fn conduct<'a, P: Send + 'a>(
        workers: Vec<Work<'a, P>>,
        conductor: impl FnOnce(&Conductor<P>),
    ) {
        std::thread::scope(|s| {
            let mut ends = Vec::new();
            for work in workers {
                let (go, go_rx) = mpsc::channel();
                let (at_tx, at) = mpsc::channel();
                s.spawn(move || {
                    let _ = go_rx.recv();
                    work(Baton {
                        at: at_tx,
                        go: go_rx,
                    });
                });
                ends.push(Worker {
                    go,
                    at,
                    running: Cell::new(false),
                    finished: Cell::new(false),
                });
            }
            conductor(&Conductor { workers: ends });
        })
    }
}
