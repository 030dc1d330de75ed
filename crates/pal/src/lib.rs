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
//! * [`poll`] — the *polling-wait* primitive. Motor replaced MPICH2's
//!   blocking system calls with a polling wait that periodically yields to
//!   the garbage collector; [`poll::polling_wait`] is that loop, generic
//!   over the "yield" callback.
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
pub use poll::{polling_wait, polling_wait_with, Backoff, BackoffConfig};
