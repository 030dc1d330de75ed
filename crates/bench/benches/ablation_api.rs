//! Criterion bench for the typed-API ablation (DESIGN.md § typed API):
//! the binding-vs-raw criterion of KaMPIng (PAPERS.md). A managed-array
//! ping-pong through `Communicator::send_array`/`recv_array` against the
//! identical hand-written `Mp::send`/`Mp::recv` loop it monomorphizes to,
//! at three buffer sizes; the `typed_api` row over the `hand_mp` row of
//! one size is the ratio the zero-cost claim is about.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use motor_api::Communicator;
use motor_bench::protocol::PingPongProtocol;
use motor_core::cluster::{run_cluster, ClusterConfig};
use motor_runtime::ElemKind;
use parking_lot::Mutex;

/// One cluster times both loops in both orders, so the two see the same
/// conditions and warm-up favours neither. Returns the best `(hand_us,
/// api_us)` per round trip.
fn pingpong_us(bytes: usize) -> (f64, f64) {
    let protocol = PingPongProtocol {
        warmup: 10,
        timed: 30,
        repeats: 1,
    };
    let out = Arc::new(Mutex::new((0.0, 0.0)));
    let o = Arc::clone(&out);
    run_cluster(
        ClusterConfig::builder().ranks(2).build(),
        |_| {},
        move |proc| {
            let mp = proc.mp();
            let comm = Communicator::bind(proc.mp());
            let hand_buf = proc.thread().alloc_prim_array(ElemKind::U8, bytes);
            let api_buf = comm.alloc_array::<u8>(bytes);
            let (peer, first) = (1 - mp.rank(), mp.rank() == 0);
            let hand = || {
                protocol.measure(|| {
                    if first {
                        mp.send(hand_buf, peer, 0).unwrap();
                    }
                    mp.recv(hand_buf, peer, 0).unwrap();
                    if !first {
                        mp.send(hand_buf, peer, 0).unwrap();
                    }
                })
            };
            let api = || {
                protocol.measure(|| {
                    if first {
                        comm.send_array(&api_buf, peer, 0).unwrap();
                    }
                    comm.recv_array(&api_buf, peer, 0).unwrap();
                    if !first {
                        comm.send_array(&api_buf, peer, 0).unwrap();
                    }
                })
            };
            let (h1, a1) = (hand(), api());
            let (a2, h2) = (api(), hand());
            if first {
                *o.lock() = (h1.min(h2), a1.min(a2));
            }
        },
    )
    .unwrap();
    let v = *out.lock();
    v
}

fn bench_ablation_api(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_api");
    g.sample_size(10);
    for &bytes in &[1024usize, 16 * 1024, 128 * 1024] {
        for (name, pick) in [("hand_mp", 0), ("typed_api", 1)] {
            g.bench_with_input(BenchmarkId::new(name, bytes), &bytes, |b, &bytes| {
                b.iter_custom(|iters| {
                    let mut total = Duration::ZERO;
                    for _ in 0..iters {
                        let (hand, api) = pingpong_us(bytes);
                        let us = [hand, api][pick];
                        total += Duration::from_nanos((us * 1000.0) as u64);
                    }
                    total
                });
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_ablation_api);
criterion_main!(benches);
