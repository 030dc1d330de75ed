//! Cross-crate integration: Motor ping-pong over both channels, the
//! pinning policy under live GC, and the failure injection that shows what
//! the policy prevents.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use motor::core::cluster::{run_cluster, run_cluster_default, ClusterConfig};
use motor::core::{CoreError, PinPolicy};
use motor::mpc::universe::{ChannelKind, UniverseConfig};
use motor::mpc::{Caller, Device, MpcError};
use motor::obs::Metric;
use motor::runtime::heap::HeapConfig;
use motor::runtime::{ElemKind, VmConfig};
use parking_lot::Mutex;

#[test]
fn motor_pingpong_over_shm() {
    run_cluster_default(
        2,
        |_| {},
        |proc| {
            let mp = proc.mp();
            let t = proc.thread();
            let buf = t.alloc_prim_array(ElemKind::I64, 256);
            for round in 0..20i64 {
                if mp.rank() == 0 {
                    let data: Vec<i64> = (0..256).map(|i| i * round).collect();
                    t.prim_write(buf, 0, &data);
                    mp.send(buf, 1, round as i32).unwrap();
                    mp.recv(buf, 1, round as i32).unwrap();
                    let mut back = vec![0i64; 256];
                    t.prim_read(buf, 0, &mut back);
                    assert!(back
                        .iter()
                        .enumerate()
                        .all(|(i, &v)| v == i as i64 * round + 1));
                } else {
                    mp.recv(buf, 0, round as i32).unwrap();
                    let mut data = vec![0i64; 256];
                    t.prim_read(buf, 0, &mut data);
                    for v in data.iter_mut() {
                        *v += 1;
                    }
                    t.prim_write(buf, 0, &data);
                    mp.send(buf, 0, round as i32).unwrap();
                }
            }
        },
    )
    .unwrap();
}

#[test]
fn motor_pingpong_over_tcp() {
    let config = ClusterConfig {
        ranks: 2,
        universe: UniverseConfig {
            channel: ChannelKind::Tcp,
            ..Default::default()
        },
        ..Default::default()
    };
    run_cluster(
        config,
        |_| {},
        |proc| {
            let mp = proc.mp();
            let t = proc.thread();
            // Bigger than the eager threshold: exercises rendezvous over a
            // real kernel socket with a managed (pinnable) buffer.
            let n = 100_000;
            let buf = t.alloc_prim_array(ElemKind::U8, n);
            if mp.rank() == 0 {
                let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
                t.prim_write(buf, 0, &data);
                mp.send(buf, 1, 0).unwrap();
            } else {
                let st = mp.recv(buf, 0, 0).unwrap();
                assert_eq!(st.bytes, n);
                let mut got = vec![0u8; n];
                t.prim_read(buf, 0, &mut got);
                assert!(got.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8));
            }
        },
    )
    .unwrap();
}

/// Which rendezvous conversation carries a large message is decided by
/// the link and by nothing else: ranks that share an address space (shm)
/// copy once, straight out of the sender's pinned array, and the payload
/// never enters the channel; over a socket it is streamed after a CTS.
#[test]
fn rendezvous_conversation_is_selected_by_the_channel() {
    const MSGS: u64 = 4;
    const LEN: usize = 128 * 1024;
    for channel in [ChannelKind::Shm, ChannelKind::Tcp] {
        let config = ClusterConfig::builder().ranks(2).transport(channel).build();
        let metrics = run_cluster(
            config,
            |_| {},
            |proc| {
                let mp = proc.mp();
                let t = proc.thread();
                let buf = t.alloc_prim_array(ElemKind::U8, LEN);
                for m in 0..MSGS {
                    let fill = |i: usize| (i as u64 * 31 + m) as u8;
                    if mp.rank() == 0 {
                        let data: Vec<u8> = (0..LEN).map(fill).collect();
                        t.prim_write(buf, 0, &data);
                        mp.send(buf, 1, m as i32).unwrap();
                    } else {
                        assert_eq!(mp.recv(buf, 0, m as i32).unwrap().bytes, LEN);
                        let mut got = vec![0u8; LEN];
                        t.prim_read(buf, 0, &mut got);
                        assert!(got.iter().enumerate().all(|(i, &b)| b == fill(i)));
                    }
                }
            },
        )
        .unwrap();
        let (tx, rx) = (&metrics.per_rank[0], &metrics.per_rank[1]);
        assert_eq!(tx.get(Metric::SendsRndv), MSGS, "{channel:?}");
        assert_eq!(rx.get(Metric::RndvRtsIn), MSGS, "{channel:?}");
        assert_eq!(rx.get(Metric::RndvDone), MSGS, "{channel:?}");
        let wire_bytes = tx.get(Metric::ChanBytesOut);
        match channel {
            ChannelKind::Shm => {
                assert_eq!(rx.get(Metric::RndvPulls), MSGS);
                assert_eq!(tx.get(Metric::RndvCtsIn), 0);
                assert!(wire_bytes < MSGS * 1024, "{wire_bytes} B on the wire");
            }
            ChannelKind::Tcp => {
                assert_eq!(rx.get(Metric::RndvPulls), 0);
                assert_eq!(tx.get(Metric::RndvCtsIn), MSGS);
                assert!(
                    wire_bytes >= MSGS * LEN as u64,
                    "{wire_bytes} B on the wire"
                );
            }
        }
    }
}

/// A rank body may return with a rendezvous send nobody waited for; its
/// window lies in the rank's heap, which drops with the body. The body
/// wrapper finalises the device first, so the receive that matches the
/// announcement afterwards is refused instead of copying from a heap
/// that is gone.
#[test]
fn unwaited_rendezvous_send_is_ended_before_the_heap_drops() {
    let sender: OnceLock<Arc<Device>> = OnceLock::new();
    run_cluster_default(
        2,
        |_| {},
        |proc| {
            let mp = proc.mp();
            let buf = proc.thread().alloc_prim_array(ElemKind::U8, 128 * 1024);
            if mp.rank() == 0 {
                drop(mp.isend(buf, 1, 9).unwrap());
                sender.set(Arc::clone(proc.comm().device())).ok().unwrap();
            } else {
                // The send is pending when the device is published, and
                // only finalisation (the receive is not posted yet) ends it.
                let dev0 = loop {
                    match sender.get() {
                        Some(d) => break d,
                        None => std::thread::yield_now(),
                    }
                };
                let deadline = Instant::now() + Duration::from_secs(30);
                while dev0.queue_depths().2 != 0 {
                    assert!(Instant::now() < deadline, "sender never finalised");
                    std::thread::yield_now();
                }
                let refused = mp.recv(buf, 0, 9).unwrap_err();
                assert!(
                    matches!(refused, CoreError::Mpc(MpcError::PeerClosed(0))),
                    "{refused}"
                );
            }
        },
    )
    .unwrap();
}

/// The receive-side twin: a rank body may return with a receive nobody
/// waited for; its window lies in the rank's heap too. Finalisation
/// forgets it, so the message that arrives afterwards lands in the
/// device's unexpected queue instead of being written into a heap that is
/// gone.
#[test]
fn unwaited_receive_is_ended_before_the_heap_drops() {
    let receiver: OnceLock<Arc<Device>> = OnceLock::new();
    run_cluster_default(
        2,
        |_| {},
        |proc| {
            let mp = proc.mp();
            let buf = proc.thread().alloc_prim_array(ElemKind::U8, 1024);
            if mp.rank() == 1 {
                drop(mp.irecv(buf, 0, 9).unwrap());
                let dev = proc.comm().device();
                assert_eq!(dev.queue_depths().0, 1, "posted when published");
                receiver.set(Arc::clone(dev)).ok().unwrap();
            } else {
                let dev1 = loop {
                    match receiver.get() {
                        Some(d) => break d,
                        None => std::thread::yield_now(),
                    }
                };
                // Only finalisation (nothing has been sent yet) ends it.
                let deadline = Instant::now() + Duration::from_secs(30);
                while dev1.queue_depths().0 != 0 {
                    assert!(Instant::now() < deadline, "receiver never finalised");
                    std::thread::yield_now();
                }
                mp.send(buf, 1, 9).unwrap();
                // Rank 1 is gone; this rank drives its device for it.
                while dev1.queue_depths().1 == 0 {
                    assert!(Instant::now() < deadline, "message never arrived");
                    dev1.pass(Caller::Rank);
                }
                assert_eq!(dev1.queue_depths(), (0, 1, 0, 0), "queued, not delivered");
            }
        },
    )
    .unwrap();
}

#[test]
fn nonblocking_transfer_survives_gc_via_conditional_pin() {
    // Rank 1 posts an irecv, then forces collections while the message is
    // still in flight. The conditional pin must keep the buffer alive and
    // unmoved until the data lands.
    let config = ClusterConfig {
        ranks: 2,
        vm: VmConfig {
            heap: HeapConfig {
                young_bytes: 16 * 1024,
                ..Default::default()
            },
        },
        ..Default::default()
    };
    run_cluster(
        config,
        |_| {},
        |proc| {
            let mp = proc.mp();
            let t = proc.thread();
            if mp.rank() == 0 {
                // Wait until rank 1 says it has posted and collected.
                let sync = t.alloc_prim_array(ElemKind::U8, 1);
                mp.recv(sync, 1, 9).unwrap();
                let data = t.alloc_prim_array(ElemKind::U8, 512);
                t.prim_write(data, 0, &[0xABu8; 512]);
                mp.send(data, 1, 0).unwrap();
            } else {
                let buf = t.alloc_prim_array(ElemKind::U8, 512);
                assert!(t.is_young(buf));
                let mut req = mp.irecv(buf, 0, 0).unwrap();
                // Collect while the receive is outstanding: the object is
                // young, so only the conditional pin protects it.
                let addr_before = proc.vm().handle_addr(buf);
                t.collect_minor();
                assert_eq!(
                    proc.vm().handle_addr(buf),
                    addr_before,
                    "conditional pin held the buffer in place"
                );
                // Tell rank 0 to fire.
                let sync = t.alloc_prim_array(ElemKind::U8, 1);
                mp.send(sync, 0, 9).unwrap();
                let st = mp.wait(&mut req).unwrap();
                assert_eq!(st.bytes, 512);
                let mut got = vec![0u8; 512];
                t.prim_read(buf, 0, &mut got);
                assert_eq!(got, vec![0xABu8; 512]);
                // After completion, the next collection releases the pin
                // and the (now unpinned) young object may move.
                t.collect_minor();
                let snap = proc.vm().stats_snapshot();
                assert!(snap.conditional_pins_held >= 1);
                assert!(snap.conditional_pins_released >= 1);
            }
        },
    )
    .unwrap();
}

#[test]
fn failure_injection_disabled_pinning_corrupts_unpinned_transfer() {
    // The §2.3 hazard demonstrated: with the pinning policy disabled, a
    // collection moves the posted buffer mid-operation and the transport
    // writes into the stale location. With the Motor policy the same
    // sequence delivers correctly. (The stale write lands in the recycled
    // young segment, which this rank leaves untouched — the corruption is
    // logical, not memory-unsafe, by construction of the test.)
    for policy in [PinPolicy::Motor, PinPolicy::Disabled] {
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = Arc::clone(&got);
        let config = ClusterConfig {
            ranks: 2,
            vm: VmConfig {
                heap: HeapConfig {
                    young_bytes: 16 * 1024,
                    ..Default::default()
                },
            },
            policy,
            ..Default::default()
        };
        run_cluster(
            config,
            |_| {},
            move |proc| {
                let mp = proc.mp();
                let t = proc.thread();
                if mp.rank() == 0 {
                    let sync = t.alloc_prim_array(ElemKind::U8, 1);
                    mp.recv(sync, 1, 9).unwrap();
                    let data = t.alloc_prim_array(ElemKind::U8, 256);
                    t.prim_write(data, 0, &[0x77u8; 256]);
                    mp.send(data, 1, 0).unwrap();
                } else {
                    let buf = t.alloc_prim_array(ElemKind::U8, 256);
                    assert!(t.is_young(buf));
                    let mut req = mp.irecv(buf, 0, 0).unwrap();
                    // GC while in flight.
                    t.collect_minor();
                    let sync = t.alloc_prim_array(ElemKind::U8, 1);
                    mp.send(sync, 0, 9).unwrap();
                    mp.wait(&mut req).unwrap();
                    let mut out = vec![0u8; 256];
                    t.prim_read(buf, 0, &mut out);
                    g.lock().push(out);
                }
            },
        )
        .unwrap();
        let results = got.lock();
        let out = &results[0];
        match policy {
            PinPolicy::Motor => {
                assert_eq!(out, &vec![0x77u8; 256], "policy protects the transfer");
            }
            PinPolicy::Disabled => {
                assert_ne!(
                    out,
                    &vec![0x77u8; 256],
                    "without pinning the moved buffer must miss the data"
                );
            }
            PinPolicy::Always => unreachable!("not exercised here"),
        }
    }
}

#[test]
fn isend_buffer_protected_while_in_flight() {
    // Sender-side: a rendezvous isend keeps its (young) buffer pinned via
    // the request-status condition even across collections.
    let config = ClusterConfig {
        ranks: 2,
        vm: VmConfig {
            heap: HeapConfig {
                // Big young generation so a 100 KiB buffer stays young
                // (below the large-object threshold).
                young_bytes: 512 * 1024,
                ..Default::default()
            },
        },
        ..Default::default()
    };
    run_cluster(
        config,
        |_| {},
        |proc| {
            let mp = proc.mp();
            let t = proc.thread();
            let n = 100_000; // > eager threshold: rendezvous
            if mp.rank() == 0 {
                let buf = t.alloc_prim_array(ElemKind::U8, n);
                assert!(t.is_young(buf), "buffer must be young for the test to bite");
                let data: Vec<u8> = (0..n).map(|i| (i % 127) as u8).collect();
                t.prim_write(buf, 0, &data);
                let mut req = mp.isend(buf, 1, 0).unwrap();
                // Collect while the rendezvous is pending (no CTS yet —
                // the receiver hasn't posted).
                t.collect_minor();
                // Now let the receiver post.
                let sync = t.alloc_prim_array(ElemKind::U8, 1);
                mp.send(sync, 1, 9).unwrap();
                mp.wait(&mut req).unwrap();
            } else {
                let sync = t.alloc_prim_array(ElemKind::U8, 1);
                mp.recv(sync, 0, 9).unwrap();
                let buf = t.alloc_prim_array(ElemKind::U8, n);
                mp.recv(buf, 0, 0).unwrap();
                let mut got = vec![0u8; n];
                t.prim_read(buf, 0, &mut got);
                assert!(got.iter().enumerate().all(|(i, &b)| b == (i % 127) as u8));
            }
        },
    )
    .unwrap();
}

#[test]
fn pinning_policy_skips_elder_buffers_entirely() {
    run_cluster_default(
        2,
        |_| {},
        |proc| {
            let mp = proc.mp();
            let t = proc.thread();
            let buf = t.alloc_prim_array(ElemKind::U8, 64);
            t.collect_minor(); // promote
            assert!(!t.is_young(buf));
            for _ in 0..10 {
                if mp.rank() == 0 {
                    mp.send(buf, 1, 0).unwrap();
                    mp.recv(buf, 1, 0).unwrap();
                } else {
                    mp.recv(buf, 0, 0).unwrap();
                    mp.send(buf, 0, 0).unwrap();
                }
            }
            let snap = proc.vm().stats_snapshot();
            assert_eq!(snap.pins, 0, "elder residents never pin (paper §7.4)");
        },
    )
    .unwrap();
}
