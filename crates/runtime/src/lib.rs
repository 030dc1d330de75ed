//! # motor-runtime — the Motor managed runtime
//!
//! This crate is the analog of the SSCLI ("Rotor") virtual runtime that the
//! Motor paper integrates MPI into: a managed, garbage-collected object
//! heap with the exact architectural features the paper's message-passing
//! integration depends on.
//!
//! ## What is reproduced from the SSCLI (paper §5)
//!
//! * **Runtime object/class model** (§5.3): every object carries a header
//!   referencing its [`types::MethodTable`]; each field of every class is
//!   described by a [`types::FieldDesc`], a compact structure with a bit
//!   field — including the **Transportable bit** Motor adds so the
//!   serializer never has to consult slow reflection metadata (§7.5).
//!   True multidimensional arrays (a reason the paper picked the CLI over
//!   Java, §3) are first-class.
//! * **Two-generation garbage collector** (§5.2): objects allocate in the
//!   young generation by bump allocation; survivors of a minor collection
//!   are copied (compacted) into the elder generation; elder objects are
//!   mark-swept but never moved. When pinned objects are present, *the
//!   entire young block is assigned to the elder generation* and a fresh
//!   young block is allocated — exactly the SSCLI behaviour the paper
//!   describes.
//! * **Pinning** (§4.3, §7.4): hard pins, plus Motor's *conditional pin
//!   requests*: a pin whose necessity is evaluated by the collector itself
//!   during the mark phase by asking the underlying transport request
//!   whether it is still in flight.
//! * **Safepoints / GC polling** (§5.1, §7.4): cooperative threads must
//!   periodically poll; a collection freezes every attached thread at a
//!   safepoint (or in a *native region*, the analog of pre-emptive mode
//!   where a thread promises not to touch the heap).
//! * **Handle protection** (§5.1): the runtime does not scan native stacks,
//!   so FCall-style code must protect object references in [`handles`]
//!   scopes — the analog of the SSCLI `GCPROTECT` macros. Protected
//!   handles are updated when the collector moves objects.
//!
//! ## Crate layout
//!
//! | module | contents |
//! |--------|----------|
//! | [`types`] | `MethodTable`, `FieldDesc`, element kinds, the type registry |
//! | [`layout`] | object header layout and size computation |
//! | [`heap`] | segments, the two generations, allocation, containment tests |
//! | [`gc`] | minor (copying) and full (mark-sweep) collection |
//! | [`pin`] | the pin table: hard pins and conditional pin requests |
//! | [`handles`] | GC-protected handle tables, one per thread (the root set) |
//! | [`safepoint`] | the stop-the-world coordination protocol |
//! | [`thread`] | attached mutator threads: lock-free handle and field access, native regions |
//! | [`object`] | safe typed accessors over managed objects |
//! | [`vm`] | the [`vm::Vm`] façade tying it all together |
//! | [`stats`] | collection/pinning counters used by tests and ablations |

pub mod gc;
pub mod handles;
pub mod heap;
pub mod layout;
pub mod object;
pub mod pin;
pub mod safepoint;
pub mod stats;
pub mod thread;
pub mod types;
pub mod verify;
pub mod vm;

pub use handles::Handle;
pub use object::ObjectRef;
pub use pin::{PinCondition, PinToken};
pub use thread::{MotorThread, Prim, TransportView};
pub use types::{ClassId, ElemKind, FieldDesc, FieldType, MethodTable, TypeKind, TypeRegistry};
pub use verify::{verify_heap, VerifyReport};
pub use vm::{Vm, VmConfig};
