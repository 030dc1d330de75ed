//! # motor-profile — continuous profiling for the Motor VM
//!
//! Ties together the three profiling signals the observability layer
//! produces into rank-level profiles and human-readable reports:
//!
//! * **IL hotness** — per-function call/back-edge counters and a sampled
//!   opcode mix, maintained by the interpreter's `profile` feature in a
//!   [`motor_obs::IlHot`] table.
//! * **Time buckets** — per-rank wall-clock partition into
//!   compute / comm-wait / progress / GC / serialize, accrued online by
//!   the span layer ([`motor_obs::PhaseStats`]) and exported as `prof_*`
//!   counters.
//! * **Sampled stacks** — a [`Sampler`] thread periodically snapshots
//!   each rank's interpreter state (current function, shadow call stack,
//!   current time bucket), stamps a `prof_sample` event into the trace
//!   ring, and accumulates inferno-compatible folded stack lines
//!   (`rank0;caller;leaf 12`) renderable as a flamegraph.
//!
//! The pieces compose into a [`ProfileSection`] — the `profile` object
//! embedded in every `BENCH_<workload>.json` artifact — and the report
//! formatters behind `motor-trace profile`.
//!
//! Everything here is pull-based and allocation-light: the sampler reads
//! lock-free state published by the rank threads; nothing blocks or locks
//! on the hot path being profiled.

#![forbid(unsafe_code)]

mod folded;
mod report;
mod sampler;
mod section;

pub use folded::FoldedStacks;
pub use report::{report_opcode_mix, report_overlap, report_time_buckets, report_top_functions};
pub use sampler::{ProfTarget, Sampler, SamplerCore};
pub use section::{ProfileSection, RankProfile};
