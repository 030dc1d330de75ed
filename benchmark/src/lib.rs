//! # motor-benchmark
//!
//! The instrument every later performance claim about the Motor stack is
//! measured with: five closed-loop workloads, six end-to-end metrics per
//! workload, and a per-layer ladder taken from outside the program.
//! See `README.md` for what each workload is for and how the metrics
//! interact.

pub mod compare;
pub mod harness;
pub mod inputs;
pub mod ladder;
pub mod micro;
pub mod report;
pub mod run;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
