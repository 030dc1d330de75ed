//! # motor-api — the typed Rust front-end over the Motor message core
//!
//! The lower layers expose the paper's machinery faithfully: managed
//! handles, explicit pinning policies, reflective serialization.  This
//! crate is the surface application code is meant to use — typed, safe,
//! and with the bookkeeping the paper removed from MPI signatures
//! (counts, datatypes, raw buffers) removed here too:
//!
//! * [`Communicator`] — `send_slice`/`recv_into`/`isend_slice`/
//!   `irecv_slice`, collectives (`bcast_slice`, `scatter_slice`,
//!   `gather_slice`, `allgather_slice`, `allreduce_slice`) generic over
//!   element type; sub-ranges are plain Rust slicing.
//! * [`PendingSend`]/[`PendingRecv`] — in-flight operations carrying the
//!   verifier's linear request discipline into the type system:
//!   `#[must_use]`, buffer borrows held until completion, and a drop-bomb
//!   on abandonment.
//! * [`Transportable`] + `#[derive(Transportable)]` — compile-time
//!   split-representation serializers (paper §7.5) that are byte-for-byte
//!   identical to the reflective managed path, so native and managed
//!   ranks exchange object graphs freely.
//! * [`managed::ArrayBuf`] — typed RAII views of managed primitive
//!   arrays for ranks running inside a Motor VM, monomorphizing to the
//!   same handle-based `Mp` calls as hand-written code.
//!
//! ```
//! use motor_api::{Communicator, Transportable};
//! use motor_core::cluster::run_cluster_default;
//!
//! #[derive(Transportable, Debug, Default, PartialEq)]
//! struct Sample {
//!     id: i32,
//!     #[transportable]
//!     values: Vec<f64>,
//! }
//!
//! run_cluster_default(2, |_reg| {}, |proc| {
//!     let comm = Communicator::bind(proc.mp());
//!     if comm.rank() == 0 {
//!         let s = Sample { id: 7, values: vec![1.0, 2.0] };
//!         comm.send_obj(&s, 1, 0).unwrap();
//!     } else {
//!         let (s, _) = comm.recv_obj::<Sample>(0, 0).unwrap();
//!         assert_eq!(s.id, 7);
//!     }
//! })
//! .unwrap();
//! ```

pub mod comm;
pub mod error;
pub mod managed;
pub mod pending;
pub mod wire;

mod communicator;

pub use comm::Comm;
pub use communicator::Communicator;
pub use error::{Error, Result};
pub use managed::{ArrayBuf, PendingArray};
pub use pending::{PendingRecv, PendingSend};

// Re-export the wire identities applications name directly.
pub use motor_mpc::{Coll, ReduceOp, Source, Status, Tag};

/// The derive macro: `#[derive(Transportable)]` on a struct of
/// primitives, `Vec<prim>`, `Option<Vec<prim>>`, and
/// `Option<Box<Transportable>>` fields generates the compile-time
/// serializer.  Fields carry `#[transportable]` to be shipped by
/// reference (mirroring the managed Transportable attribute), or
/// `#[transportable(skip)]` to stay local.
pub use motor_api_derive::Transportable;

/// A type with a compile-time split-representation serializer, generated
/// by `#[derive(Transportable)]`.  The generated entry and field walkers
/// are byte-identical to the reflective managed serializer over the
/// mirrored class — asserted by the round-trip tests.
pub trait Transportable: Sized + wire::Node {
    /// The managed class name this type mirrors.
    const TYPE_NAME: &'static str;

    /// Append the complete type-table entry for this class.
    fn type_entry(out: &mut Vec<u8>);

    /// Append field payloads in declaration order, discovering referenced
    /// records into the encoder.
    fn write_fields<'a>(&'a self, enc: &mut wire::Encoder<'a>);

    /// Rebuild a value from one class record's fields.
    fn read_fields(r: &mut wire::FieldReader<'_, '_>) -> Result<Self>;
}
