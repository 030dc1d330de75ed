//! End-to-end time-bucket accounting across a 4-rank cluster running an
//! interpreted CG-style kernel.
//!
//! Each rank builds the same two-function IL module — `cg_dot`, the hot
//! inner dot-product loop, and `cg_iterate`, the outer driver calling it
//! — and interleaves interpreted compute with an `allreduce` between
//! iterations (the CG convergence check shape). The test then asserts
//! that the time-bucket partition covers ≥95% of each rank's measured
//! wall clock with both compute and comm-wait time present.

use std::sync::{Arc, Mutex};

use motor_api::Communicator;
use motor_core::cluster::{run_cluster, ClusterConfig};
use motor_interp::il::{FnBuilder, Module, Op};
use motor_interp::interp::Interp;
use motor_interp::verify::VerifiedModule;
use motor_mpc::ReduceOp;
use motor_obs::TimeBucket;
use motor_pal::clock::Stopwatch;

const RANKS: usize = 4;
const OUTER_ITERS: usize = 24;
/// Inner-loop trip count: large enough that `cg_dot` dominates each
/// iteration.
const DOT_TRIPS: i64 = 2_000;

/// `cg_dot`: a `DOT_TRIPS`-iteration accumulate loop (the hot leaf), and
/// `cg_iterate`: calls it 4 times per invocation (one "CG iteration").
fn build_module() -> (Module, u16, u16) {
    let mut dot = FnBuilder::new("cg_dot", 0, 2, true);
    let top = dot.label();
    let done = dot.label();
    dot.op(Op::PushI(DOT_TRIPS)).op(Op::Store(0));
    dot.op(Op::PushI(0)).op(Op::Store(1));
    dot.bind(top);
    dot.op(Op::Load(0))
        .op(Op::PushI(0))
        .op(Op::CmpLe)
        .br_true(done);
    dot.op(Op::Load(1))
        .op(Op::Load(0))
        .op(Op::PushI(3))
        .op(Op::Mul)
        .op(Op::Add)
        .op(Op::Store(1));
    dot.op(Op::Load(0))
        .op(Op::PushI(1))
        .op(Op::Sub)
        .op(Op::Store(0));
    dot.br(top);
    dot.bind(done);
    dot.op(Op::Load(1)).op(Op::Ret);

    let mut m = Module::new();
    let dot_idx = m.add(dot.build());

    let mut iter = FnBuilder::new("cg_iterate", 0, 1, true);
    iter.op(Op::PushI(0)).op(Op::Store(0));
    for _ in 0..4 {
        iter.op(Op::Call(dot_idx))
            .op(Op::Load(0))
            .op(Op::Add)
            .op(Op::Store(0));
    }
    iter.op(Op::Load(0)).op(Op::Ret);
    let iter_idx = m.add(iter.build());
    (m, dot_idx, iter_idx)
}

/// What each rank reports back for assertion on the main thread.
struct RankReport {
    rank: usize,
    wall_nanos: u64,
    bucket_nanos: [u64; motor_obs::N_BUCKETS],
}

#[test]
fn four_rank_cg_kernel_bucket_coverage() {
    let sink: Arc<Mutex<Vec<RankReport>>> = Arc::new(Mutex::new(Vec::new()));
    let s = Arc::clone(&sink);

    run_cluster(
        ClusterConfig::builder().ranks(RANKS).build(),
        |_reg| {},
        move |proc| {
            let comm = Communicator::bind(proc.mp());
            let rank = comm.rank();
            let (m, _dot_idx, iter_idx) = build_module();
            let vmod =
                VerifiedModule::verify(m, &proc.vm().registry()).expect("CG module verifies");
            let interp = Interp::new(proc.thread(), &vmod);

            let registry = Arc::clone(proc.vm().metrics());
            let base = registry.phase_snapshot();

            let sw = Stopwatch::start();
            let mut residual = 0i64;
            for _ in 0..OUTER_ITERS {
                let ret = interp.call(iter_idx, &[]).expect("kernel runs");
                let Some(motor_interp::interp::Value::I(v)) = ret else {
                    panic!("kernel returns an integer, got {ret:?}");
                };
                residual += v;
                // The CG shape: a scalar allreduce after each iteration's
                // local compute (convergence check stand-in).
                let global = comm.allreduce(residual, ReduceOp::Sum).unwrap();
                assert_eq!(global, residual * RANKS as i64, "SPMD ranks agree");
            }
            let wall_nanos = sw.elapsed().as_nanos() as u64;
            let end = registry.phase_snapshot();
            let mut bucket_nanos = [0u64; motor_obs::N_BUCKETS];
            for (i, b) in bucket_nanos.iter_mut().enumerate() {
                *b = end.bucket_nanos[i].saturating_sub(base.bucket_nanos[i]);
            }

            s.lock().unwrap().push(RankReport {
                rank,
                wall_nanos,
                bucket_nanos,
            });
        },
    )
    .expect("cluster run succeeds");

    let mut reports = sink.lock().unwrap();
    reports.sort_by_key(|r| r.rank);
    assert_eq!(reports.len(), RANKS, "every rank reported");

    for r in reports.iter() {
        // Buckets partition the measured window: coverage ≥95%, with
        // real compute time and real comm-wait time (the allreduces).
        let accounted: u64 = r.bucket_nanos.iter().sum();
        assert!(
            accounted as f64 >= 0.95 * r.wall_nanos as f64,
            "rank {}: buckets cover {} of {} ns",
            r.rank,
            accounted,
            r.wall_nanos
        );
        assert!(
            r.bucket_nanos[TimeBucket::Compute as usize] > 0,
            "rank {}: interpreted kernel accrues compute",
            r.rank
        );
        assert!(
            r.bucket_nanos[TimeBucket::CommWait as usize] > 0,
            "rank {}: allreduces accrue comm_wait",
            r.rank
        );
    }
}
