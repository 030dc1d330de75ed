//! # motor-bench — the paper's evaluation, regenerated
//!
//! Everything needed to reproduce §8 of the paper:
//!
//! * [`protocol`] — the exact timing protocol: "Each experiment performed
//!   200 iterations, the last 100 of which were timed. ... Each buffer
//!   size was tested three times. The average time in microseconds per
//!   iteration was calculated for all three experiments."
//! * [`workloads`] — the Figure 9 buffer-size sweep (4 B … 256 KiB) and
//!   the Figure 10 linked-list generator (total payload 4096 B evenly
//!   distributed; total objects = 2 × list elements).
//! * [`series`] — one ping-pong runner per compared system: native C++
//!   (the Message Passing Core used directly), Motor, the Indiana bindings
//!   on both host profiles, and mpiJava.
//!
//! The `figures` binary drives these and prints the series the paper
//! plots; `benches/` holds Criterion microbenches for each figure and for
//! the design-choice ablations listed in DESIGN.md, among them the two
//! zero-cost ratios (typed API vs hand-written `Mp`, profiler on vs off).
//! The `motor-trace` and `motor-analyze` binaries are the trace and lint
//! tools. End-to-end numbers come from `benchmark/` at the repository
//! root, not from this crate.

pub mod ilcorpus;
pub mod protocol;
pub mod series;
pub mod workloads;

pub use protocol::{PingPongProtocol, DEFAULT_PROTOCOL};
pub use series::{fig10_object_pingpong_us, fig9_pingpong_us, Fig10Impl, Fig9Impl};
pub use workloads::{fig10_object_counts, fig9_buffer_sizes, LinkedListSpec};
