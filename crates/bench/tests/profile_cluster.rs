//! End-to-end continuous profiling across a 4-rank cluster running an
//! interpreted CG-style kernel.
//!
//! Each rank builds the same two-function IL module — `cg_dot`, the hot
//! inner dot-product loop, and `cg_iterate`, the outer driver calling it
//! — attaches the IL position table, arms a sampler over its own
//! registry, and interleaves interpreted compute with an `allreduce`
//! between iterations (the CG convergence check shape). The test then
//! asserts the full profiling story: the folded stacks reach the hot
//! IL function, and the time-bucket partition covers ≥95% of each
//! rank's measured wall clock with both compute and comm-wait time
//! present.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use motor_api::Communicator;
use motor_core::cluster::{run_cluster, ClusterConfig};
use motor_interp::il::{FnBuilder, Module, Op};
use motor_interp::interp::Interp;
use motor_interp::verify::VerifiedModule;
use motor_mpc::ReduceOp;
use motor_obs::{IlHot, TimeBucket};
use motor_pal::clock::Stopwatch;
use motor_profile::{FoldedStacks, ProfTarget, Sampler};

const RANKS: usize = 4;
const OUTER_ITERS: usize = 24;
/// Inner-loop trip count: large enough that `cg_dot` dominates the
/// sampled stacks.
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
    folded: FoldedStacks,
    wall_nanos: u64,
    bucket_nanos: [u64; motor_obs::N_BUCKETS],
}

#[test]
fn four_rank_cg_kernel_hotness_and_coverage() {
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
            let names: Vec<String> = vmod
                .module()
                .functions
                .iter()
                .map(|f| f.name.clone())
                .collect();
            let hot = Arc::new(IlHot::new(names));
            let interp = Interp::new(proc.thread(), &vmod).with_profiler(Arc::clone(&hot));

            let registry = Arc::clone(proc.vm().metrics());
            let base = registry.phase_snapshot();
            let sampler = Sampler::spawn(
                vec![ProfTarget {
                    rank,
                    registry: Arc::clone(&registry),
                    hot: Some(Arc::clone(&hot)),
                }],
                Duration::from_micros(100),
            );

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
            let (folded, _rounds) = sampler.stop();
            let end = registry.phase_snapshot();
            let mut bucket_nanos = [0u64; motor_obs::N_BUCKETS];
            for (i, b) in bucket_nanos.iter_mut().enumerate() {
                *b = end.bucket_nanos[i].saturating_sub(base.bucket_nanos[i]);
            }

            s.lock().unwrap().push(RankReport {
                rank,
                folded,
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
        // (1) The folded stacks carry IL frames.
        let stacks = &r.folded;
        assert!(stacks.total() > 0, "rank {}: sampler sampled", r.rank);
        assert!(
            stacks.iter().any(|(k, _)| k.contains("cg_dot")),
            "rank {}: sampled stacks reach the hot IL function: {:?}",
            r.rank,
            stacks
                .iter()
                .map(|(k, _)| k.to_string())
                .collect::<Vec<_>>()
        );

        // (2) Buckets partition the measured window: coverage ≥95%, with
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
