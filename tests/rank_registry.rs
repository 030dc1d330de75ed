//! A rank has one metrics registry: its device creates it and its VM
//! records into the same one — for every world rank of `run_cluster` and
//! every child of `spawn_motor_children`, whatever order the builder's
//! calls come in.

use std::sync::{Arc, Mutex};

use motor::core::cluster::{run_cluster, spawn_motor_children, ClusterConfig, MotorProc};
use motor::mpc::ProgressMode;
use motor::obs::export::json;
use motor::runtime::heap::HeapConfig;
use motor::runtime::{ElemKind, TypeRegistry, VmConfig};

const RING: usize = 1 << 10;

/// The ring size first, the VM configuration after it: `.vm(..)` must not
/// reset the ring.
fn config() -> ClusterConfig {
    ClusterConfig::builder()
        .ranks(2)
        .event_capacity(RING)
        .vm(VmConfig {
            heap: HeapConfig {
                young_bytes: 64 * 1024,
                ..HeapConfig::default()
            },
        })
        .build()
}

fn define_types(reg: &mut TypeRegistry) {
    reg.prim_array(ElemKind::I32);
}

fn assert_one_registry(proc: &MotorProc) {
    let registry = proc.vm().metrics();
    assert!(
        Arc::ptr_eq(registry, proc.comm().device().metrics()),
        "the VM records into its device's registry"
    );
    assert_eq!(registry.event_capacity(), RING);
}

#[test]
fn every_rank_and_child_has_one_registry() {
    // `events_through` of each child's snapshot after one object transfer.
    let through = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&through);
    run_cluster(config(), define_types, move |proc| {
        assert_one_registry(proc);
        let sink = Arc::clone(&sink);
        spawn_motor_children(proc, 2, config(), define_types, move |child| {
            assert_one_registry(child);
            if child.rank() == 0 {
                let t = child.thread();
                let arr = t.alloc_prim_array(ElemKind::I32, 16);
                t.prim_write(arr, 0, &[7i32; 16]);
                child.oomp().osend(arr, 1, 5).expect("osend");
            } else {
                let (arr, _) = child.oomp().orecv(0, 5).expect("orecv");
                assert_eq!(child.thread().array_len(arr), 16);
            }
            let snap = json::parse(&child.metrics().to_json()).expect("snapshot JSON");
            let rings = snap.get("events_through").and_then(|v| v.as_array());
            let counts: Vec<u64> = rings
                .expect("events_through")
                .iter()
                .filter_map(|v| v.as_u64())
                .collect();
            sink.lock().expect("no child panicked").push(counts);
        })
        .expect("spawn");
    })
    .expect("cluster");
    let through = through.lock().expect("no child panicked");
    assert_eq!(through.len(), 2, "the two parents spawned two children");
    // The child's own thread owns the registry, and with no progress
    // engine nobody else writes it: its device's records and its VM's all
    // take the owner's ring.
    if ProgressMode::from_env() == ProgressMode::Off {
        for counts in through.iter() {
            assert!(counts[0] > 0, "the transfer recorded events: {counts:?}");
            assert_eq!(counts[1..], [0], "no record took the shared side");
        }
    }
}

/// Every rank accounts its time from its start, a spawned child as a world
/// rank: the time buckets of each one's own snapshot add up to more than
/// nothing.
#[test]
fn every_rank_and_child_accounts_its_time() {
    fn bucket_sum(proc: &MotorProc) -> u64 {
        proc.comm().barrier().expect("barrier");
        proc.metrics().bucket_nanos().iter().sum()
    }
    run_cluster(config(), define_types, |proc| {
        assert!(bucket_sum(proc) > 0, "world rank {}", proc.rank());
        spawn_motor_children(proc, 2, config(), define_types, |child| {
            assert!(bucket_sum(child) > 0, "child {}", child.rank());
        })
        .expect("spawn");
    })
    .expect("cluster");
}
