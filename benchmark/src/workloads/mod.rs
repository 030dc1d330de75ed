//! The five workloads. Each builds its inputs from the seed before the
//! cluster exists, sets its buffers up inside its rank, and hands the
//! harness one closure per rank to iterate.

use motor_core::cluster::MotorProc;
use motor_runtime::TypeRegistry;

use crate::harness::RankRun;

mod cg_collectives;
mod match_burst;
pub mod object_list;
mod pingpong_small;
pub mod stream_large;

pub use cg_collectives::CgCollectives;
pub use match_burst::MatchBurst;
pub use object_list::ObjectList;
pub use pingpong_small::PingpongSmall;
pub use stream_large::StreamLarge;

/// Fixed sizes of a workload. Iteration counts per batch are constants
/// (not derived from the machine), so program counts per iteration repeat
/// from run to run; they are sized for a batch of 50 to 100 ms.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Iterations per batch at full scale.
    pub batch: u64,
    /// Smallest batch that still reaches a verification (smoke runs
    /// shrink batches down to this).
    pub min_batch: u64,
    /// Message size the per-layer ladder ping-pongs for this workload.
    pub ladder_bytes: usize,
    /// Bytes the two ranks hand to send-type calls per iteration.
    pub payload_bytes_per_iter: u64,
    /// `isend_array`/`irecv_array` calls of both ranks per iteration.
    pub nonblocking_per_iter: u64,
}

/// What the harness runs on each rank of a cluster.
pub trait RankProgram: Sync {
    /// Classes every rank's registry needs.
    fn define_types(&self, _reg: &mut TypeRegistry) {}

    /// One rank's program: set up, then `run.iterate(proc, ..)`.
    fn rank(&self, proc: &MotorProc, run: &RankRun<'_>);
}

pub trait Workload: RankProgram {
    fn spec(&self) -> Spec;

    /// Microseconds one iteration takes in the plain single-threaded
    /// reference the workload verifies against (0 when it has none).
    fn serial_iter_us(&self) -> f64 {
        0.0
    }
}

/// Workload names, in report order.
pub const NAMES: [&str; 5] = [
    "pingpong_small",
    "stream_large",
    "object_list",
    "cg_collectives",
    "match_burst",
];

/// Generate the named workload's inputs from `seed`.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "pingpong_small" => Box::new(PingpongSmall::new(seed)),
        "stream_large" => Box::new(StreamLarge::new(seed)),
        "object_list" => Box::new(ObjectList::new(seed)),
        "cg_collectives" => Box::new(CgCollectives::new(seed)),
        "match_burst" => Box::new(MatchBurst::new(seed)),
        _ => return None,
    })
}
