//! Runtime-integration ablations (DESIGN.md):
//!
//! * **Pinning policy vs pin-always** — the paper's central performance
//!   claim (§7.4): the policy "minimises the performance overhead imposed
//!   by pinning unnecessarily for each operation."
//! * **Call transitions** — FCall vs P/Invoke vs JNI per-call cost (§5.1).
//! * **Conditional unpin at GC vs a checker pass** — the paper's §4.3
//!   rejected alternative ("test non-blocking transport operations and
//!   unpin buffers in a separate thread ... imposes an unnecessary
//!   overhead").
//! * **Eager vs rendezvous** — the protocol switchover inherited from
//!   MPICH2's CH3 design (§6).
//! * **The handle path** — per-call cost of the `MotorThread` handle and
//!   field API the runtime offers FCall-style code (§5.1): one thread's
//!   own handle table and method-table snapshot, no lock.
//! * **Pin-check elision** — what motor-lint's never-transported proof
//!   buys the minor collector (`tests/pin_elision.rs` pins the count of
//!   checks it skips).
//! * **Profiler on vs off** — the IL hotness hooks and a sampler thread
//!   against the bare interpreter.
//!
//! The last two are zero-cost claims: the second row of each group over
//! the first should read 1.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};
use motor_baselines::{HostProfile, JniEnv, TransitionState};
use motor_bench::protocol::PingPongProtocol;
use motor_core::cluster::{run_cluster, ClusterConfig};
use motor_core::fcall::Fcall;
use motor_core::PinPolicy;
use motor_interp::{FnBuilder, Interp, Module, Op, Value, VerifiedModule};
use motor_mpc::universe::{Universe, UniverseConfig};
use motor_mpc::DeviceConfig;
use motor_obs::{IlHot, MetricsRegistry};
use motor_profile::{ProfTarget, Sampler};
use motor_runtime::heap::HeapConfig;
use motor_runtime::{ElemKind, MotorThread, Vm, VmConfig};
use parking_lot::Mutex;

/// Managed ping-pong under an explicit pinning policy.
fn policy_pingpong_us(policy: PinPolicy, bytes: usize) -> f64 {
    let protocol = PingPongProtocol {
        warmup: 20,
        timed: 50,
        repeats: 1,
    };
    let result = Arc::new(Mutex::new(0.0f64));
    let r = Arc::clone(&result);
    run_cluster(
        ClusterConfig::builder().ranks(2).policy(policy).build(),
        |_| {},
        move |proc| {
            let mp = proc.mp();
            let t = proc.thread();
            let buf = t.alloc_prim_array(ElemKind::U8, bytes);
            if mp.rank() == 0 {
                let us = protocol.measure(|| {
                    mp.send(buf, 1, 0).unwrap();
                    mp.recv(buf, 1, 0).unwrap();
                });
                *r.lock() = us;
            } else {
                for _ in 0..protocol.total_iterations() {
                    mp.recv(buf, 0, 0).unwrap();
                    mp.send(buf, 0, 0).unwrap();
                }
            }
        },
    )
    .unwrap();
    let v = *result.lock();
    v
}

fn bench_pinning_policy(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_pinning");
    g.sample_size(10);
    for (name, policy) in [
        ("motor_policy", PinPolicy::Motor),
        ("pin_always", PinPolicy::Always),
    ] {
        g.bench_function(name, |b| {
            b.iter_custom(|iters| {
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    let us = policy_pingpong_us(policy, 1024);
                    total += Duration::from_nanos((us * 1000.0) as u64);
                }
                total
            });
        });
    }
    g.finish();
}

fn bench_call_transitions(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_calls");
    let vm = Vm::new(VmConfig::default());
    let thread = MotorThread::attach(vm);
    g.bench_function("fcall", |b| {
        b.iter(|| {
            let fc = Fcall::enter(&thread);
            criterion::black_box(&fc);
        });
    });
    let t = TransitionState::new();
    g.bench_function("pinvoke_net", |b| {
        b.iter(|| criterion::black_box(t.pinvoke(HostProfile::Net, &[1, 2, 3, 4])));
    });
    g.bench_function("pinvoke_sscli", |b| {
        b.iter(|| criterion::black_box(t.pinvoke(HostProfile::Sscli, &[1, 2, 3, 4])));
    });
    let env = JniEnv::new();
    g.bench_function("jni", |b| {
        b.iter(|| criterion::black_box(env.transition("mpi/Comm", "send", "([BIII)V", &[1, 2, 3])));
    });
    g.finish();
}

fn bench_conditional_unpin(c: &mut Criterion) {
    use motor_mpc::request::RequestState;
    let mut g = c.benchmark_group("ablation_unpin");
    g.sample_size(20);
    const N: usize = 64;

    // GC-integrated: N conditional pins on completed requests; the minor
    // collection both resolves and discards them.
    g.bench_function("gc_mark_phase_resolution", |b| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let vm = Vm::new(VmConfig::default());
                let t = MotorThread::attach(Arc::clone(&vm));
                let bufs: Vec<_> = (0..N)
                    .map(|_| t.alloc_prim_array(ElemKind::U8, 64))
                    .collect();
                let reqs: Vec<_> = (0..N).map(|i| RequestState::new(i as u64)).collect();
                for (buf, req) in bufs.iter().zip(&reqs) {
                    let r = Arc::clone(req);
                    t.pin_conditional(*buf, Arc::new(move || r.in_flight()));
                }
                for r in &reqs {
                    r.complete();
                }
                let start = std::time::Instant::now();
                t.collect_minor();
                total += start.elapsed();
            }
            total
        });
    });

    // Checker-pass alternative: hard pins released by an explicit test
    // loop over every request (the "separate thread" design), followed by
    // the same collection.
    g.bench_function("checker_pass_then_gc", |b| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let vm = Vm::new(VmConfig::default());
                let t = MotorThread::attach(Arc::clone(&vm));
                let bufs: Vec<_> = (0..N)
                    .map(|_| t.alloc_prim_array(ElemKind::U8, 64))
                    .collect();
                let reqs: Vec<_> = (0..N).map(|i| RequestState::new(i as u64)).collect();
                let tokens: Vec<_> = bufs.iter().map(|b| t.pin(*b)).collect();
                for r in &reqs {
                    r.complete();
                }
                let start = std::time::Instant::now();
                // The checker must poll each request and unpin.
                for (req, tok) in reqs.iter().zip(tokens) {
                    if req.is_complete() {
                        t.unpin(tok);
                    }
                }
                t.collect_minor();
                total += start.elapsed();
            }
            total
        });
    });
    g.finish();
}

fn native_pingpong_us(eager_threshold: usize, bytes: usize) -> f64 {
    let protocol = PingPongProtocol {
        warmup: 20,
        timed: 50,
        repeats: 1,
    };
    let result = Arc::new(Mutex::new(0.0f64));
    let r = Arc::clone(&result);
    let config = UniverseConfig {
        device: DeviceConfig {
            eager_threshold,
            ..DeviceConfig::default()
        },
        ..Default::default()
    };
    Universe::run_with(2, config, move |proc| {
        let world = proc.world();
        let mut buf = vec![0u8; bytes];
        if world.rank() == 0 {
            let us = protocol.measure(|| {
                world.send_bytes(&buf, 1, 0).unwrap();
                world.recv_bytes(&mut buf, 1, 0).unwrap();
            });
            *r.lock() = us;
        } else {
            for _ in 0..protocol.total_iterations() {
                world.recv_bytes(&mut buf, 0, 0).unwrap();
                world.send_bytes(&buf, 0, 0).unwrap();
            }
        }
    })
    .unwrap();
    let v = *result.lock();
    v
}

fn bench_eager_threshold(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_eager");
    g.sample_size(10);
    const BYTES: usize = 32 * 1024;
    for (name, threshold) in [("eager_path", 1 << 20), ("rendezvous_path", 1024)] {
        g.bench_function(name, |b| {
            b.iter_custom(|iters| {
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    let us = native_pingpong_us(threshold, BYTES);
                    total += Duration::from_nanos((us * 1000.0) as u64);
                }
                total
            });
        });
    }
    g.finish();
}

/// Per-call cost of the handle API: each reported iteration is the mean
/// of `CALLS` calls on one attached thread, so that every sample times a
/// million calls. The allocation rows include the minor collections the
/// churn provokes.
fn bench_handle_path(c: &mut Criterion) {
    const CALLS: u32 = 1_000_000;
    fn per_call(g: &mut BenchmarkGroup<'_>, name: &str, mut f: impl FnMut()) {
        g.bench_function(name, |b| {
            b.iter_custom(|iters| {
                let start = Instant::now();
                for _ in 0..iters * u64::from(CALLS) {
                    f();
                }
                start.elapsed() / CALLS
            })
        });
    }
    let mut g = c.benchmark_group("handle_path");
    let vm = Vm::new(VmConfig::default());
    let node = {
        let mut reg = vm.registry_mut();
        let arr = reg.prim_array(ElemKind::I32);
        reg.define_class("HandlePathNode")
            .prim("tag", ElemKind::I32)
            .transportable("array", arr)
            .build()
    };
    let t = MotorThread::attach(vm);
    let (tag, array) = (t.field_index(node, "tag"), t.field_index(node, "array"));
    let n = t.alloc_instance(node);
    let a = t.alloc_prim_array(ElemKind::I32, 8);
    t.set_ref(n, array, a);
    let mut ints = [0i32; 8];
    per_call(&mut g, "get_prim", || {
        criterion::black_box(t.get_prim::<i32>(criterion::black_box(n), tag));
    });
    per_call(&mut g, "set_prim", || {
        t.set_prim::<i32>(criterion::black_box(n), tag, criterion::black_box(7))
    });
    per_call(&mut g, "get_ref+release", || {
        t.release(t.get_ref(criterion::black_box(n), array))
    });
    per_call(&mut g, "prim_read_8xi32", || {
        t.prim_read(criterion::black_box(a), 0, criterion::black_box(&mut ints))
    });
    per_call(&mut g, "alloc_instance+release", || {
        t.release(t.alloc_instance(node))
    });
    per_call(&mut g, "alloc_prim_array+release", || {
        t.release(t.alloc_prim_array(ElemKind::I32, 8))
    });
    g.finish();
}

/// The same allocation-churn kernel through a 64 KiB young generation,
/// verified plainly (`checked`: the evacuator looks every object up in
/// the pinned set) and loaded through `motor_analyze::load` (`proved`:
/// the class is proved never transported, so the lookup is skipped).
fn bench_pin_elision(c: &mut Criterion) {
    const ALLOCS: i64 = 50_000;
    let mut g = c.benchmark_group("ablation_pins");
    g.sample_size(10);
    for (name, proved) in [("checked", false), ("proved", true)] {
        let vm = Vm::new(VmConfig {
            heap: HeapConfig {
                young_bytes: 64 * 1024,
                ..Default::default()
            },
        });
        let cls = vm
            .registry_mut()
            .define_class("Scratch")
            .prim("a", ElemKind::I64)
            .prim("b", ElemKind::F64)
            .build();
        // churn(n): allocate and drop n instances.
        let mut f = FnBuilder::new("churn", 1, 2, false);
        let (top, done) = (f.label(), f.label());
        f.op(Op::PushI(0)).op(Op::Store(1));
        f.bind(top);
        f.op(Op::Load(1))
            .op(Op::Load(0))
            .op(Op::CmpLt)
            .br_false(done);
        f.op(Op::New(cls)).op(Op::Pop);
        f.op(Op::Load(1))
            .op(Op::PushI(1))
            .op(Op::Add)
            .op(Op::Store(1));
        f.br(top);
        f.bind(done);
        f.op(Op::Ret);
        let mut m = Module::new();
        m.add(f.build());
        let vmod = if proved {
            motor_analyze::load(m, &vm.registry()).expect("churn analyzes")
        } else {
            VerifiedModule::verify(m, &vm.registry()).expect("churn verifies")
        };
        let t = MotorThread::attach(Arc::clone(&vm));
        let interp = Interp::new(&t, &vmod);
        g.bench_function(name, |b| {
            b.iter(|| interp.call(0, &[Value::I(ALLOCS)]).unwrap())
        });
    }
    g.finish();
}

/// The profiler's cost: one IL loop (about 14 dispatched ops a trip)
/// interpreted bare (`off`) and with the hotness hooks live while a
/// sampler thread reads them (`on`). With the interpreter's `profile`
/// feature compiled out the hooks do not exist at all; this measures the
/// enabled path.
fn bench_profiler(c: &mut Criterion) {
    let mut f = FnBuilder::new("kernel", 0, 2, true);
    let (top, done) = (f.label(), f.label());
    f.op(Op::PushI(10_000)).op(Op::Store(0));
    f.op(Op::PushI(0)).op(Op::Store(1));
    f.bind(top);
    f.op(Op::Load(0))
        .op(Op::PushI(0))
        .op(Op::CmpLe)
        .br_true(done);
    f.op(Op::Load(1))
        .op(Op::Load(0))
        .op(Op::PushI(3))
        .op(Op::Mul);
    f.op(Op::PushI(1)).op(Op::Sub).op(Op::Add).op(Op::Store(1));
    f.op(Op::Load(0))
        .op(Op::PushI(1))
        .op(Op::Sub)
        .op(Op::Store(0));
    f.br(top);
    f.bind(done);
    f.op(Op::Load(1)).op(Op::Ret);
    let mut m = Module::new();
    let kernel = m.add(f.build());
    let vm = Vm::new(VmConfig::default());
    let vmod = VerifiedModule::verify(m, &vm.registry()).expect("kernel verifies");
    let t = MotorThread::attach(vm);
    let names = vec!["kernel".to_string()];
    let hot = Arc::new(IlHot::new(names, motor_interp::il::PROFILE_NAMES.to_vec()));
    let registry = Arc::new(MetricsRegistry::new());
    registry.profile_start();
    let sampler = Sampler::spawn(
        vec![ProfTarget {
            rank: 0,
            registry,
            hot: Some(Arc::clone(&hot)),
        }],
        Duration::from_micros(250),
    );
    let mut g = c.benchmark_group("ablation_profile");
    g.sample_size(10);
    let off = Interp::new(&t, &vmod);
    let on = Interp::new(&t, &vmod).with_profiler(hot);
    g.bench_function("off", |b| b.iter(|| off.call(kernel, &[]).unwrap()));
    g.bench_function("on", |b| b.iter(|| on.call(kernel, &[]).unwrap()));
    g.finish();
    sampler.stop();
}

criterion_group!(
    benches,
    bench_pin_elision,
    bench_profiler,
    bench_handle_path,
    bench_pinning_policy,
    bench_call_transitions,
    bench_conditional_unpin,
    bench_eager_threshold
);
criterion_main!(benches);
