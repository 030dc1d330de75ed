//! Multi-mutator stress on one VM: several attached threads allocating and
//! mutating concurrently while collections stop the world — the safepoint
//! protocol of paper §5.2 ("all threads must be frozen in a safe point")
//! under real contention.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use motor::runtime::heap::HeapConfig;
use motor::runtime::{verify_heap, ElemKind, MotorThread, Vm, VmConfig};

#[test]
fn concurrent_mutators_with_stop_the_world_collections() {
    let vm = Vm::new(VmConfig {
        heap: HeapConfig {
            young_bytes: 32 * 1024,
            ..Default::default()
        },
    });
    const THREADS: usize = 4;
    const PER_THREAD: usize = 400;
    let checksum = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let vm = Arc::clone(&vm);
            let checksum = Arc::clone(&checksum);
            s.spawn(move || {
                let t = MotorThread::attach(vm);
                // Each thread keeps a live window of arrays while churning
                // garbage, forcing frequent minor collections that must
                // freeze the other mutators.
                let mut window = Vec::new();
                for i in 0..PER_THREAD {
                    let h = t.alloc_prim_array(ElemKind::I64, 16);
                    let v = (tid * 1_000_000 + i) as i64;
                    t.prim_write(h, 0, &[v; 16]);
                    window.push((h, v));
                    if window.len() > 8 {
                        let (old, expect) = window.remove(0);
                        let mut got = [0i64; 16];
                        t.prim_read(old, 0, &mut got);
                        assert_eq!(got, [expect; 16], "thread {tid} iteration {i}");
                        checksum.fetch_add(expect as u64, Ordering::Relaxed);
                        t.release(old);
                    }
                    // Garbage churn between live allocations.
                    let g = t.alloc_prim_array(ElemKind::U8, 64);
                    t.release(g);
                }
                for (h, expect) in window {
                    let mut got = [0i64; 16];
                    t.prim_read(h, 0, &mut got);
                    assert_eq!(got, [expect; 16]);
                    checksum.fetch_add(expect as u64, Ordering::Relaxed);
                    t.release(h);
                }
            });
        }
    });

    // Every array was read back exactly once.
    let expect: u64 = (0..THREADS as u64)
        .map(|t| {
            (0..PER_THREAD as u64)
                .map(|i| t * 1_000_000 + i)
                .sum::<u64>()
        })
        .sum();
    assert_eq!(checksum.load(Ordering::Relaxed), expect);
    let snap = vm.stats_snapshot();
    assert!(snap.minor_collections > 0, "churn must have collected");
    verify_heap(&MotorThread::attach(Arc::clone(&vm))).unwrap();
}

#[test]
fn native_regions_overlap_with_collections() {
    // One thread sits in long native regions (as Motor's polling-wait
    // does); another churns allocations. Collections must proceed without
    // waiting for the native-mode thread, and its handles must still be
    // valid (and retargeted) when it returns.
    let vm = Vm::new(VmConfig {
        heap: HeapConfig {
            young_bytes: 16 * 1024,
            ..Default::default()
        },
    });
    std::thread::scope(|s| {
        let vm1 = Arc::clone(&vm);
        s.spawn(move || {
            let t = MotorThread::attach(vm1);
            let keep = t.alloc_prim_array(ElemKind::I32, 8);
            t.prim_write(keep, 0, &[7i32; 8]);
            for _ in 0..50 {
                t.native(|| {
                    // Heap untouched inside; peers may collect freely.
                    std::thread::sleep(std::time::Duration::from_micros(200));
                });
                let mut got = [0i32; 8];
                t.prim_read(keep, 0, &mut got);
                assert_eq!(got, [7i32; 8], "handle retargeted across peer GCs");
            }
        });
        let vm2 = Arc::clone(&vm);
        s.spawn(move || {
            let t = MotorThread::attach(vm2);
            for _ in 0..3_000 {
                let h = t.alloc_prim_array(ElemKind::U8, 128);
                t.release(h);
            }
        });
    });
    assert!(vm.stats_snapshot().minor_collections > 0);
    verify_heap(&MotorThread::attach(Arc::clone(&vm))).unwrap();
}
