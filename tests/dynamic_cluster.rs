//! Integration: MPI-2 dynamic process management at the Motor level —
//! parents spawn child VMs at runtime and exchange object trees over the
//! intercommunicator.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use motor::core::cluster::{run_cluster, run_cluster_default, spawn_motor_children, ClusterConfig};
use motor::mpc::{ProgressMode, Source};
use motor::runtime::ElemKind;

fn define_types(reg: &mut motor::runtime::TypeRegistry) {
    let arr = reg.prim_array(ElemKind::I32);
    reg.define_class("Packet")
        .prim("from_child", ElemKind::I32)
        .transportable("payload", arr)
        .build();
}

#[test]
fn spawned_children_have_worlds_and_parents() {
    let children_ran = Arc::new(AtomicUsize::new(0));
    let cr = Arc::clone(&children_ran);
    run_cluster_default(2, define_types, move |proc| {
        let cr = Arc::clone(&cr);
        let inter = spawn_motor_children(
            proc,
            2,
            ClusterConfig::default(),
            define_types,
            move |child| {
                // A complete Motor world of its own.
                assert_eq!(child.size(), 2);
                let parent = child.parent_comm().expect("parent intercomm");
                assert_eq!(parent.remote_size(), 2);
                // Barrier within the child world works.
                child.mp().barrier().unwrap();
                cr.fetch_add(1, Ordering::SeqCst);
                // Report to parent of the same index.
                let t = child.thread();
                let cls = child.vm().registry().by_name("Packet").unwrap();
                let (ff, fp) = (
                    t.field_index(cls, "from_child"),
                    t.field_index(cls, "payload"),
                );
                let pkt = t.alloc_instance(cls);
                t.set_prim::<i32>(pkt, ff, child.rank() as i32);
                let data = t.alloc_prim_array(ElemKind::I32, 4);
                t.prim_write(data, 0, &[child.rank() as i32; 4]);
                t.set_ref(pkt, fp, data);
                child.osend_inter(parent, pkt, child.rank(), 3).unwrap();
            },
        )
        .unwrap();
        // Each parent hears from the child with its own index.
        let t = proc.thread();
        let cls = proc.vm().registry().by_name("Packet").unwrap();
        let (ff, fp) = (
            t.field_index(cls, "from_child"),
            t.field_index(cls, "payload"),
        );
        let (pkt, from) = proc.orecv_inter(&inter, proc.rank(), 3).unwrap();
        assert_eq!(from, proc.rank());
        assert_eq!(t.get_prim::<i32>(pkt, ff) as usize, proc.rank());
        let data = t.get_ref(pkt, fp);
        let mut v = [0i32; 4];
        t.prim_read(data, 0, &mut v);
        assert_eq!(v, [proc.rank() as i32; 4]);
    })
    .unwrap();
    assert_eq!(children_ran.load(Ordering::SeqCst), 2);
}

#[test]
fn children_vms_are_isolated_heaps() {
    // Each spawned VM has its own collector and statistics; churn in a
    // child must not show up in the parent's counters.
    run_cluster_default(1, define_types, |proc| {
        let parent_minor_before = proc.vm().stats_snapshot().minor_collections;
        let inter =
            spawn_motor_children(proc, 1, ClusterConfig::default(), define_types, |child| {
                let t = child.thread();
                for _ in 0..2000 {
                    let h = t.alloc_prim_array(ElemKind::U8, 512);
                    t.release(h);
                }
                assert!(
                    child.vm().stats_snapshot().minor_collections > 0,
                    "child churn must collect in the child VM"
                );
                let parent = child.parent_comm().unwrap();
                parent.send_bytes(&[1u8], 0, 0).unwrap();
            })
            .unwrap();
        let mut done = [0u8; 1];
        inter.recv_bytes(&mut done, 0, 0).unwrap();
        assert_eq!(
            proc.vm().stats_snapshot().minor_collections,
            parent_minor_before,
            "parent VM unaffected by child allocations"
        );
    })
    .unwrap();
}

/// The intercommunicator leg of `hostile_size_header_is_a_typed_error`
/// (crates/api/tests/interop_cluster.rs): the size header is the child's
/// claim, and `u64::MAX` bytes is a `Serialization` error in the parent,
/// not a capacity-overflow panic. The parent then still hears the child's
/// honest message.
#[test]
fn hostile_size_header_from_a_child_is_a_typed_error() {
    use motor::core::CoreError;
    run_cluster_default(1, define_types, |proc| {
        let inter =
            spawn_motor_children(proc, 1, ClusterConfig::default(), define_types, |child| {
                let parent = child.parent_comm().expect("parent intercomm");
                parent.send_bytes(&u64::MAX.to_le_bytes(), 0, 9).unwrap();
                let data = child.thread().alloc_prim_array(ElemKind::I32, 4);
                child.osend_inter(parent, data, 0, 10).unwrap();
            })
            .unwrap();
        match proc.orecv_inter(&inter, 0, 9) {
            Err(CoreError::Serialization(why)) => assert!(why.contains("cannot allocate"), "{why}"),
            other => panic!(
                "expected a Serialization error, got {:?}",
                other.map(|(_, from)| from)
            ),
        }
        let (data, from) = proc.orecv_inter(&inter, 0, 10).unwrap();
        assert_eq!((proc.thread().array_len(data), from), (4, 0));
    })
    .unwrap();
}

fn define_batch(reg: &mut motor::runtime::TypeRegistry) {
    let arr = reg.prim_array(ElemKind::F64);
    reg.define_class("Batch")
        .prim("seq", ElemKind::I32)
        .transportable("data", arr)
        .build();
}

/// A child streams more objects to its parent than the link's ring holds
/// and returns: the frames still queued when its body ends must reach the
/// parent all the same. Both progress modes, under a watchdog so a hang
/// fails the test instead of stalling the suite.
#[test]
fn child_stream_queued_at_return_reaches_the_parent() {
    const BATCHES: usize = 32;
    const LEN: usize = 1024;
    for mode in [ProgressMode::Off, ProgressMode::Thread] {
        let start = Instant::now();
        let run = std::thread::spawn(move || {
            run_cluster(
                ClusterConfig::builder().ranks(1).progress(mode).build(),
                define_batch,
                |proc| {
                    let inter = spawn_motor_children(
                        proc,
                        1,
                        ClusterConfig::default(),
                        define_batch,
                        |child| {
                            let t = child.thread();
                            let cls = child.vm().registry().by_name("Batch").unwrap();
                            let (fseq, fdata) =
                                (t.field_index(cls, "seq"), t.field_index(cls, "data"));
                            let parent = child.parent_comm().unwrap();
                            for b in 0..BATCHES {
                                let batch = t.alloc_instance(cls);
                                t.set_prim::<i32>(batch, fseq, b as i32);
                                let data = t.alloc_prim_array(ElemKind::F64, LEN);
                                t.prim_write(data, 0, &[b as f64; LEN]);
                                t.set_ref(batch, fdata, data);
                                child.osend_inter(parent, batch, 0, 9).unwrap();
                                t.release(batch);
                                t.release(data);
                            }
                        },
                    )
                    .unwrap();
                    let t = proc.thread();
                    let cls = proc.vm().registry().by_name("Batch").unwrap();
                    let (fseq, fdata) = (t.field_index(cls, "seq"), t.field_index(cls, "data"));
                    let mut got = vec![0f64; LEN];
                    for b in 0..BATCHES {
                        let (batch, _) = proc.orecv_inter(&inter, Source::Any, 9).unwrap();
                        assert_eq!(t.get_prim::<i32>(batch, fseq), b as i32, "in order");
                        let data = t.get_ref(batch, fdata);
                        t.prim_read(data, 0, &mut got);
                        assert_eq!(got, vec![b as f64; LEN], "batch {b}");
                        t.release(data);
                        t.release(batch);
                    }
                },
            )
        });
        while !run.is_finished() {
            assert!(
                start.elapsed() < Duration::from_secs(60),
                "{mode:?}: the stream hung"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        match run.join() {
            Ok(result) => {
                result.unwrap();
            }
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
}
