//! # motor-core — Motor: a virtual machine for high performance computing
//!
//! The paper's contribution: a high-performance message passing library
//! integrated *inside* a managed runtime, rather than wrapped behind a
//! managed-to-native call interface. This crate ties the managed runtime
//! (`motor-runtime`) and the Message Passing Core (`motor-mpc`) together:
//!
//! * [`fcall`] — the trusted FCall boundary (entry/exit GC polls,
//!   parameter checks, object-model-integrity enforcement).
//! * [`mp`] — `System.MP`, the regular MPI bindings over managed objects
//!   (count and datatype parameters removed; array sub-range overloads;
//!   zero-copy transfer from object instance data).
//! * [`pinning`] — the Motor pinning policy: elder residents never pin,
//!   blocking operations pin only on entering the polling wait, and
//!   non-blocking operations register *conditional* pins the collector
//!   resolves during its mark phase.
//! * [`wire`] — the object wire format (type table + side-by-side object
//!   data, split representation): layout, writer, validating parser.
//! * [`serial`] — the custom serializer: the Transportable-bit graph walk
//!   (linear/hashed visited structures) and the heap materializer, over
//!   [`wire`].
//! * [`oomp`] — the extended object-oriented operations: `OSend`,
//!   `ORecv`, `OBcast`, `OScatter`, `OGather`.
//! * [`bufpool`] — the reusable native buffer stack trimmed at GC.
//! * [`cluster`] — the harness running one VM per rank.
//!
//! ```
//! use motor_core::cluster::run_cluster_default;
//! use motor_runtime::ElemKind;
//!
//! // Two Motor VMs ping-pong a managed array.
//! run_cluster_default(
//!     2,
//!     |_reg| {},
//!     |proc| {
//!         let mp = proc.mp();
//!         let t = proc.thread();
//!         let buf = t.alloc_prim_array(ElemKind::I32, 4);
//!         if mp.rank() == 0 {
//!             t.prim_write(buf, 0, &[1i32, 2, 3, 4]);
//!             mp.send(buf, 1, 0).unwrap();
//!         } else {
//!             mp.recv(buf, 0, 0).unwrap();
//!             let mut out = [0i32; 4];
//!             t.prim_read(buf, 0, &mut out);
//!             assert_eq!(out, [1, 2, 3, 4]);
//!         }
//!     },
//! )
//! .unwrap();
//! ```

pub mod bufpool;
pub mod cluster;
pub mod doctor;
pub mod error;
pub mod fcall;
pub mod mp;
pub mod oomp;
pub mod pinning;
pub mod serial;
pub mod telemetry;
pub mod wire;

pub use cluster::{
    run_cluster, run_cluster_default, ClusterConfig, ClusterConfigBuilder, ClusterMetrics,
    MotorProc,
};
pub use doctor::DoctorServer;
pub use error::{CoreError, CoreResult};
pub use fcall::MpIntrinsics;
pub use motor_mpc::Source;
pub use motor_mpc::Tag;
pub use mp::{Mp, MpRequest, MpStatus, ANY_TAG};
pub use oomp::Oomp;
pub use pinning::PinPolicy;
pub use serial::{AttrLookup, SerializeStats, Serializer, VisitedStrategy};
pub use telemetry::{
    start_monitor, Collector, MonitorHandle, RankTicket, TelemetryConfig, TelemetryServer,
};
