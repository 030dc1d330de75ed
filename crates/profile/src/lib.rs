//! # motor-profile — continuous profiling for the Motor VM
//!
//! The sampling half of continuous profiling. Three signals make up a
//! profile; the first two are accrued by the layers they describe and
//! this crate adds the third:
//!
//! * **IL position** — the shadow call stack and the current
//!   function/pc, published by the interpreter's `profile` feature in a
//!   [`motor_obs::IlHot`] table.
//! * **Time buckets** — per-rank wall-clock partition into
//!   compute / comm-wait / progress / GC / serialize, accrued online by
//!   the span layer ([`motor_obs::PhaseStats`]), read in-process through
//!   `MetricsRegistry::phase_snapshot` and exported as `prof_*` counters
//!   (the `motor_prof_*` families of the Prometheus export).
//! * **Sampled stacks** — a [`Sampler`] thread periodically snapshots
//!   each rank's interpreter state (current function, shadow call stack,
//!   current time bucket), stamps a `prof_sample` event into the trace
//!   ring, and accumulates inferno-compatible folded stack lines
//!   (`rank0;caller;leaf 12`) renderable as a flamegraph.
//!
//! Everything here is pull-based and allocation-light: the sampler reads
//! lock-free state published by the rank threads; nothing blocks or locks
//! on the hot path being profiled.

#![forbid(unsafe_code)]

mod folded;
mod sampler;

pub use folded::FoldedStacks;
pub use sampler::{ProfTarget, Sampler, SamplerCore};
