//! Isolated single-thread calls: one public function of one layer timed in
//! a tight loop, with nothing beneath it moving.

use std::hint::black_box;
use std::time::Instant;

use motor_core::bufpool::BufPool;
use motor_core::pinning::{self, PinPolicy};
use motor_core::Serializer;
use motor_mpc::packet::{self, Envelope, FRAME_HEADER};
use motor_obs::{Metric, MetricsRegistry};
use motor_runtime::ElemKind;

use crate::harness::must;
use crate::stats::median;
use crate::workloads::object_list::NODES;
use crate::workloads::ObjectList;

/// Repetitions whose median is reported.
const REPS: usize = 9;

/// Median over [`REPS`] repetitions of the nanoseconds one call of `f`
/// takes when called `calls` times back to back.
fn per_call_ns(calls: u64, mut f: impl FnMut()) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&reps)
}

/// The isolated measurements, in the units their metric names carry.
pub struct Micro {
    pub packet_encode_ns: f64,
    pub packet_decode_ns: f64,
    pub ser_us_per_obj: f64,
    pub deser_us_per_obj: f64,
    pub pin_release_ns: f64,
    pub bufpool_get_put_ns: f64,
    pub heap_alloc_ns: f64,
    pub gc_minor_us: f64,
    pub counter_bump_ns: f64,
    pub timer_ns: f64,
}

/// Run every isolated measurement. `calls` is the loop length of the
/// cheapest call; dearer ones run proportionally fewer.
pub fn run(calls: u64, list: &ObjectList) -> Micro {
    let env = Envelope {
        src: 0,
        gsrc: 0,
        tag: 7,
        context: 0,
        len: 4,
        sreq: 1,
        flags: 0,
    };
    let frame = packet::encode_eager(&env, &[1, 2, 3, 4]);
    let packet_encode_ns = per_call_ns(calls, || {
        black_box(packet::encode_eager(
            black_box(&env),
            black_box(&[1, 2, 3, 4]),
        ));
    });
    let packet_decode_ns = per_call_ns(calls, || {
        black_box(must(
            "Envelope::decode",
            Envelope::decode(black_box(&frame[FRAME_HEADER..])),
        ));
    });

    let t = ObjectList::scratch_thread();
    let head = list.build(&t);
    let objects = (2 * NODES) as f64;
    let tree_calls = (calls / 2_000).max(3);
    let (wire, _) = must("serialize", Serializer::new(&t).serialize(head));
    let ser_us_per_obj = per_call_ns(tree_calls, || {
        black_box(must("serialize", Serializer::new(&t).serialize(head)));
    }) / 1e3
        / objects;
    let deser_us_per_obj = per_call_ns(tree_calls, || {
        let root = must("deserialize", Serializer::new(&t).deserialize(&wire));
        t.release(root);
    }) / 1e3
        / objects;

    // A minor collection with one whole list (256 objects) young and
    // live: the collection `object_list` provokes on every few receives.
    t.release(head);
    let gc_minor_us = median(
        &(0..REPS)
            .map(|_| {
                let young = list.build(&t);
                let start = Instant::now();
                t.collect_minor();
                let us = start.elapsed().as_nanos() as f64 / 1e3;
                t.release(young);
                us
            })
            .collect::<Vec<_>>(),
    );

    let heap_alloc_ns = per_call_ns(calls / 10, || {
        t.release(t.alloc_prim_array(ElemKind::U8, 32));
    });
    let young = t.alloc_prim_array(ElemKind::U8, 64);
    assert!(t.is_young(young), "a fresh array is young");
    let pin_release_ns = per_call_ns(calls / 10, || {
        let pin = pinning::pin_for_polling_wait(&t, PinPolicy::Motor, young);
        pinning::release(&t, pin);
    });
    t.release(young);

    let pool = BufPool::new();
    let bufpool_get_put_ns = per_call_ns(calls / 10, || {
        let buf = pool.get(4096, 0);
        pool.put(buf, 0);
    });
    let registry = MetricsRegistry::new();
    let counter_bump_ns = per_call_ns(calls, || registry.bump(Metric::ProgressPolls));
    let timer_ns = per_call_ns(calls, || {
        black_box(Instant::now());
    });

    Micro {
        packet_encode_ns,
        packet_decode_ns,
        ser_us_per_obj,
        deser_us_per_obj,
        pin_release_ns,
        bufpool_get_put_ns,
        heap_alloc_ns,
        gc_minor_us,
        counter_bump_ns,
        timer_ns,
    }
}
