//! The one wait path under stack defaults: no progress thread —
//! `UniverseConfig::default()` — and a park quantum of an hour.
//!
//! Every blocking call in the stack waits the same way: pass, climb the
//! ladder, park on the device's waker. What ends the park is the thing
//! being waited for — the peer's pass that moved bytes on the link the
//! two share wakes this end, whether it wrote (input) or consumed (room).
//! With the quantum at an hour, a wait that still leans on its timer
//! hangs its test instead of passing a little slower; each test bounds
//! its own run so the hang is a failure, not a long pass.
//!
//! In every case one rank starts late. The delay decides nothing about
//! the outcome: it only gives the other rank the time to climb its ladder
//! and park, so the wake-up under test is the one that has to happen.

use std::time::{Duration, Instant};

use motor::core::cluster::{run_cluster, ClusterConfig};
use motor::mpc::universe::{ChannelKind, Universe, UniverseConfig};
use motor::mpc::{Comm, Source};
use motor::pal::BackoffConfig;
use motor::runtime::ElemKind;

/// Stack defaults, except that a park nothing cuts short lasts an hour.
fn hour_quantum() -> UniverseConfig {
    let mut cfg = UniverseConfig::default();
    cfg.device.wait_backoff = BackoffConfig {
        sleep: Some(Duration::from_secs(3600)),
        ..cfg.device.wait_backoff
    };
    cfg
}

/// Long enough for the rank that starts on time to be parked.
fn start_late() {
    std::thread::sleep(Duration::from_millis(50));
}

/// Run a 2-rank program and fail it if any wait sat out its quantum.
fn woken_not_timed_out(cfg: UniverseConfig, body: impl Fn(&Comm) + Send + Sync) {
    let start = Instant::now();
    Universe::run_with(2, cfg, |proc| body(proc.world())).unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "a parked waiter burned its quantum instead of being woken ({:?})",
        start.elapsed()
    );
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 13 % 251) as u8).collect()
}

/// Rank 1 blocks in a receive of `len` bytes and is parked by the time
/// rank 0 sends; then the roles swap for the reply.
fn late_sender_pingpong(cfg: UniverseConfig, len: usize) {
    let data = pattern(len);
    woken_not_timed_out(cfg, |world| {
        let mut buf = vec![0u8; len];
        if world.rank() == 0 {
            start_late();
            world.send_bytes(&data, 1, 1).unwrap();
            world.recv_bytes(&mut buf, 1, 2).unwrap();
        } else {
            world.recv_bytes(&mut buf, 0, 1).unwrap();
            start_late();
            world.send_bytes(&buf, 0, 2).unwrap();
        }
        assert_eq!(buf, data);
    });
}

#[test]
fn blocking_eager_4_bytes() {
    late_sender_pingpong(hour_quantum(), 4);
}

#[test]
fn blocking_eager_64_kib() {
    let cfg = hour_quantum();
    assert_eq!(cfg.device.eager_threshold, 64 * 1024, "still eager");
    late_sender_pingpong(cfg, 64 * 1024);
}

/// The sender announces and parks; what wakes it is the receiver's reply
/// — the FIN after the copy over shm, the CTS and then room over TCP.
fn late_receiver_rendezvous(cfg: UniverseConfig) {
    let data = pattern(256 * 1024);
    woken_not_timed_out(cfg, |world| {
        if world.rank() == 0 {
            world.send_bytes(&data, 1, 3).unwrap();
        } else {
            start_late();
            let mut buf = vec![0u8; data.len()];
            world.recv_bytes(&mut buf, 0, 3).unwrap();
            assert!(buf == data);
        }
    });
}

#[test]
fn rendezvous_over_shm() {
    late_receiver_rendezvous(hour_quantum());
}

#[test]
fn rendezvous_over_tcp() {
    late_receiver_rendezvous(UniverseConfig {
        channel: ChannelKind::Tcp,
        ..hour_quantum()
    });
}

/// A 64 KiB eager frame through a 4 KiB ring: the sender's queue drains
/// a ring's worth at a time, and between two of them it has nothing to do
/// but park. What wakes it is the receiver *consuming* bytes — room, not
/// input.
#[test]
fn streamed_message_larger_than_the_ring() {
    let cfg = UniverseConfig {
        ring_capacity: 4096,
        ..hour_quantum()
    };
    let data = pattern(64 * 1024);
    woken_not_timed_out(cfg, |world| {
        if world.rank() == 0 {
            // Buffered: returns with most of the frame still queued. The
            // wait for the acknowledgement is what pushes it out.
            world.send_bytes(&data, 1, 4).unwrap();
            world.recv_bytes(&mut [0u8; 1], 1, 5).unwrap();
        } else {
            start_late();
            let mut buf = vec![0u8; data.len()];
            world.recv_bytes(&mut buf, 0, 4).unwrap();
            assert!(buf == data);
            world.send_bytes(&[1u8], 0, 5).unwrap();
        }
    });
}

#[test]
fn waitany_is_woken_by_the_message() {
    woken_not_timed_out(hour_quantum(), |world| {
        if world.rank() == 0 {
            start_late();
            world.send_bytes(&[7u8; 16], 1, 2).unwrap();
            // The other one only once the waitany has returned.
            world.recv_bytes(&mut [0u8; 1], 1, 9).unwrap();
            world.send_bytes(&[6u8; 16], 1, 1).unwrap();
        } else {
            let (mut a, mut b) = ([0u8; 16], [0u8; 16]);
            // SAFETY: both buffers outlive the waits below.
            let reqs = unsafe {
                [
                    world.irecv_ptr(a.as_mut_ptr(), 16, 0, 1).unwrap(),
                    world.irecv_ptr(b.as_mut_ptr(), 16, 0, 2).unwrap(),
                ]
            };
            let (first, status) = world.waitany(&reqs).unwrap();
            assert_eq!((first, status.tag, b), (1, 2, [7u8; 16]));
            world.send_bytes(&[1u8], 0, 9).unwrap();
            world.wait(&reqs[0]).unwrap();
            assert_eq!(a, [6u8; 16]);
        }
    });
}

#[test]
fn comm_probe_is_woken_by_the_message() {
    woken_not_timed_out(hour_quantum(), |world| {
        if world.rank() == 0 {
            start_late();
            world.send_bytes(&[9u8; 77], 1, 3).unwrap();
        } else {
            let st = world.probe(Source::Any, 3).unwrap();
            assert_eq!((st.source, st.count), (0, 77));
            let mut buf = vec![0u8; st.count];
            world.recv_bytes(&mut buf, 0, 3).unwrap();
            assert_eq!(buf, vec![9u8; 77]);
        }
    });
}

#[test]
fn mp_probe_is_woken_by_the_message() {
    let start = Instant::now();
    run_cluster(
        ClusterConfig::builder()
            .ranks(2)
            .universe(hour_quantum())
            .build(),
        |_| {},
        |proc| {
            let mp = proc.mp();
            let buf = proc.thread().alloc_prim_array(ElemKind::U8, 40);
            if mp.rank() == 0 {
                start_late();
                mp.send(buf, 1, 8).unwrap();
            } else {
                let st = mp.probe(Source::Any, 8).unwrap();
                assert_eq!((st.source, st.bytes), (0, 40));
                mp.recv(buf, 0, 8).unwrap();
            }
        },
    )
    .unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "Mp::probe burned its quantum ({:?})",
        start.elapsed()
    );
}
