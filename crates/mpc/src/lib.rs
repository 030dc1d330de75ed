//! # motor-mpc — the Message Passing Core
//!
//! A from-scratch, layered MPI library mirroring MPICH2's architecture
//! (paper §6): an **MPI layer** (communicators, point-to-point operations,
//! collectives, MPI-2 dynamic process management) over a **CH3-style
//! device** (message queuing, envelope matching, eager/rendezvous
//! protocols, progress engine) over a **channel layer** (framing and data
//! transfer on PAL byte links — in-process shared memory or TCP loopback).
//!
//! The crate is *native*: it has no dependency on the managed runtime and
//! is used directly by the paper's "C++ / MPICH2" baseline. Motor
//! (`motor-core`) embeds the very same core inside the virtual machine and
//! reaches it through the FCall layer, which is the paper's architectural
//! point: one message-passing core, two positions in the stack.
//!
//! ```
//! use motor_mpc::universe::Universe;
//!
//! // Two ranks ping-pong four bytes.
//! Universe::run(2, |proc| {
//!     let world = proc.world();
//!     if world.rank() == 0 {
//!         world.send_slice(&[1i32], 1, 0).unwrap();
//!         let mut buf = [0i32];
//!         world.recv_slice(&mut buf, 1, 0).unwrap();
//!         assert_eq!(buf[0], 2);
//!     } else {
//!         let mut buf = [0i32];
//!         world.recv_slice(&mut buf, 0, 0).unwrap();
//!         world.send_slice(&[buf[0] + 1], 0, 0).unwrap();
//!     }
//! })
//! .unwrap();
//! ```

pub mod channel;
pub mod comm;
pub mod device;
pub mod dtype;
pub mod error;
pub mod group;
mod matching;
pub mod packet;
pub mod progress;
pub mod request;
pub mod schedule;
pub mod source;
pub mod tag;
pub mod universe;

pub use comm::Comm;
pub use device::{Device, DeviceConfig, ANY_TAG};
pub use dtype::{DType, MpcPrim, ReduceOp};
pub use error::{MpcError, MpcResult};
pub use group::Group;
pub use progress::{Caller, ProgressEngine, ProgressMode};
pub use request::{Request, Status};
pub use schedule::Coll;
pub use source::Source;
pub use tag::Tag;
pub use universe::{LinkFactory, Proc, Universe};
