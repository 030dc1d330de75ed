//! # Motor — a virtual machine for high performance computing
//!
//! This is the facade crate of the Motor workspace, a from-scratch Rust
//! reproduction of *Motor: A Virtual Machine for High Performance
//! Computing* (Goscinski & Abramson, HPDC 2006). It re-exports the public
//! API of every layer:
//!
//! * [`pal`] — platform adaptation layer (transports, polling-wait, clocks).
//! * [`runtime`] — the managed runtime: object/class model, two-generation
//!   garbage collector, pinning, safepoints.
//! * [`interp`] — a small intermediate-language interpreter that runs
//!   "managed" code against the runtime, polling the GC like jitted code.
//! * [`mpc`] — the Message Passing Core, a layered MPI library (MPI /
//!   CH3-style device / shm+sock channels) usable natively.
//! * [`core`] — Motor proper: the runtime-integrated `System.MP` bindings,
//!   the GC-aware pinning policy, and the extended object-oriented
//!   operations with the split-capable serializer.
//! * [`api`] — the typed Rust front-end: `Communicator`, typed pending
//!   operations, `#[derive(Transportable)]` compile-time serializers.
//! * [`analyze`] — load-time static analysis: the typed IL verifier plus
//!   the transport-safety pass that lets the interpreter elide dynamic
//!   object-model checks on proved modules.
//! * [`baselines`] — the managed-wrapper comparison systems (Indiana-style
//!   P/Invoke bindings, mpiJava-style JNI bindings and serializers).
//! * [`obs`] — observability: the per-rank metrics registry, event-trace
//!   rings, and time-bucket and comm/compute-overlap accounting.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the architecture.

pub use motor_analyze as analyze;
pub use motor_api as api;
pub use motor_baselines as baselines;
pub use motor_core as core;
pub use motor_interp as interp;
pub use motor_mpc as mpc;
pub use motor_obs as obs;
pub use motor_pal as pal;
pub use motor_runtime as runtime;

/// Everything a typical Motor program needs, in one import.
///
/// ```
/// use motor::prelude::*;
///
/// let metrics = run_cluster_default(2, |_types| {}, |proc| {
///     let mp = proc.mp();
///     let buf = proc.thread().alloc_prim_array(ElemKind::U8, 8);
///     if mp.rank() == 0 {
///         mp.send(buf, 1, 0).unwrap();
///     } else {
///         mp.recv(buf, Source::Rank(0), 0).unwrap();
///     }
/// })
/// .unwrap();
/// assert!(metrics.aggregate().get(Metric::ChanFramesOut) > 0);
/// ```
pub mod prelude {
    pub use motor_api::{
        ArrayBuf, Communicator, PendingArray, PendingRecv, PendingSend, Transportable,
    };
    pub use motor_core::cluster::{
        run_cluster, run_cluster_default, spawn_motor_children, ClusterConfig,
        ClusterConfigBuilder, ClusterMetrics, MotorProc,
    };
    pub use motor_core::{DoctorServer, Mp, MpRequest, MpStatus, Oomp, PinPolicy, ANY_TAG};
    pub use motor_mpc::universe::ChannelKind;
    pub use motor_mpc::{ReduceOp, Source, Tag};
    pub use motor_obs::{
        check_prometheus_text, from_chrome_json, to_chrome_json, to_prometheus, Anomaly,
        AnomalyKind, ClusterTrace, DoctorConfig, EventKind, FlightRecord, Hist, InflightOp, Metric,
        MetricsSnapshot, SpanKind,
    };
    pub use motor_runtime::{ClassId, ElemKind, Handle};
}
