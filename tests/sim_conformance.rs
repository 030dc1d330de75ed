//! MPI-semantics conformance suite over the deterministic simulator.
//!
//! Every test here runs the real transport stack — device, channel state
//! machines, protocol handlers — over `motor-sim`'s fault-injecting links,
//! either on the single-threaded [`SimNet`] scheduler (fully
//! deterministic) or on real OS threads over a [`SimFabric`]. Each test
//! repeats across the seed matrix (`MOTOR_SIM_SEEDS` or the frozen
//! default), so a failure prints a one-line seed-replay command and dumps
//! a doctor flight record.
//!
//! Semantics covered, per MPICH2's sock-channel contract:
//! * non-overtaking delivery per (source, tag, context) with eager and
//!   rendezvous messages interleaved;
//! * `ANY_SOURCE` matching draining every sender, FIFO per sender;
//! * eager↔rendezvous protocol selection at exactly the threshold
//!   boundary, through both `ShmLink` and `SimLink`;
//! * collective results independent of schedule and fault timing;
//! * the Oomp object serializer round-tripping under a byte trickle;
//! * a peer closing its link mid-rendezvous surfacing a clean
//!   `MpcError::PeerClosed` (and a doctor `LinkDrop` anomaly), not a hang;
//! * a blocking probe on a dead peer doing the same, and every receive,
//!   probe and collective from a dead peer failing on a `dup` or a
//!   reordering `split` as on the world, naming the peer by global rank;
//! * a probe for a rank outside the communicator refused as `InvalidRank`;
//! * every collective, as a schedule stepped on the single-threaded
//!   fabric at 16 and 64 ranks, equal to a serial oracle.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use motor::mpc::device::DeviceConfig;
use motor::mpc::dtype::as_bytes;
use motor::mpc::schedule::{Coll, Schedule as Sched};
use motor::mpc::universe::{Proc, Universe, UniverseConfig};
use motor::mpc::{Comm, DType, MpcError, ReduceOp};
use motor::obs::{classify, DoctorConfig, EventKind, Metric, RankRecord, MSG_RNDV_FLAG};
use motor::pal::TickSource;
use motor::prelude::{run_cluster, AnomalyKind, ChannelKind, ClusterConfig};
use motor::runtime::ElemKind;
use motor_sim::{seed_matrix, FaultPlan, Schedule, SimConfig, SimFabric, SimNet, SimRng};

/// Threshold small enough that both protocols appear in mixed workloads.
const EAGER_T: usize = 64;

fn sim_config(ranks: usize, plan: FaultPlan, schedule: Schedule) -> SimConfig {
    SimConfig {
        ranks,
        device: DeviceConfig {
            eager_threshold: EAGER_T,
            ..DeviceConfig::default()
        },
        schedule,
        plan,
        ..SimConfig::new(ranks)
    }
}

/// Device-level isend on the fabric (test buffers outlive the drive loop).
fn send(net: &SimNet, from: usize, to: usize, tag: i32, data: &[u8]) -> motor::mpc::Request {
    // SAFETY: every caller keeps `data` alive until the request completes.
    unsafe {
        net.device(from)
            .isend_raw(
                to,
                SimNet::envelope(from, tag),
                data.as_ptr(),
                data.len(),
                false,
            )
            .unwrap()
    }
}

/// Device-level irecv on the fabric.
fn recv(net: &SimNet, at: usize, src: i32, tag: i32, buf: &mut [u8]) -> motor::mpc::Request {
    // SAFETY: as in `send`.
    unsafe {
        net.device(at)
            .irecv_raw(src, tag, 0, buf.as_mut_ptr(), buf.len())
            .unwrap()
    }
}

/// Non-overtaking: messages with identical (source, tag, context) are
/// received in send order even when eager and rendezvous messages
/// interleave and the wire delivers one byte at a time with latency.
#[test]
fn non_overtaking_per_source_tag_under_faults() {
    // Sizes straddle the threshold so both protocols interleave.
    let sizes = [16usize, 200, 8, 300, 1, EAGER_T, EAGER_T + 1, 500, 32, 100];
    for seed in seed_matrix() {
        let mut net = SimNet::new(
            seed,
            sim_config(2, FaultPlan::trickle(3).with_latency(1), Schedule::Random),
        );
        let payloads: Vec<Vec<u8>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &sz)| vec![i as u8 + 1; sz])
            .collect();
        let mut bufs: Vec<Vec<u8>> = sizes.iter().map(|&sz| vec![0u8; sz]).collect();
        let mut reqs = Vec::new();
        for p in &payloads {
            reqs.push(send(&net, 0, 1, 7, p));
        }
        // Alternate (by seed) between pre-posted receives — the posted
        // queue matches — and late-posted ones: the wire drains first, so
        // eager payloads and RTS frames must survive the unexpected queue.
        if seed % 2 == 1 {
            net.run_until(20_000, || false);
        }
        for b in &mut bufs {
            reqs.push(recv(&net, 1, 0, 7, b));
        }
        net.complete(
            &reqs,
            3_000_000,
            "non_overtaking_per_source_tag_under_faults",
        );
        for (i, (buf, want)) in bufs.iter().zip(&payloads).enumerate() {
            if buf != want {
                net.fail(
                    "non_overtaking_per_source_tag_under_faults",
                    &format!("message {i} overtaken or corrupted"),
                );
            }
        }
    }
}

/// `ANY_SOURCE` receives drain every sender, and stay FIFO per sender.
#[test]
fn any_source_matching_drains_all_senders() {
    const PER_SENDER: usize = 3;
    for seed in seed_matrix() {
        let mut net = SimNet::new(seed, sim_config(4, FaultPlan::trickle(2), Schedule::Random));
        // Sender r's j-th message carries the byte 10*r + j.
        let payloads: Vec<(usize, Vec<u8>)> = (1..4)
            .flat_map(|r| (0..PER_SENDER).map(move |j| (r, vec![(10 * r + j) as u8; 8])))
            .collect();
        let mut bufs = vec![[0u8; 8]; payloads.len()];
        let mut reqs = Vec::new();
        for (r, p) in &payloads {
            reqs.push(send(&net, *r, 0, 5, p));
        }
        // Late-post on odd seeds: the messages land in the unexpected
        // queue first and the wildcards must drain it in arrival order.
        if seed % 2 == 1 {
            net.run_until(20_000, || false);
        }
        for b in &mut bufs {
            reqs.push(recv(&net, 0, -1, 5, b));
        }
        net.complete(&reqs, 3_000_000, "any_source_matching_drains_all_senders");

        let got: Vec<u8> = bufs.iter().map(|b| b[0]).collect();
        let mut sorted = got.clone();
        sorted.sort_unstable();
        let mut want: Vec<u8> = payloads.iter().map(|(_, p)| p[0]).collect();
        want.sort_unstable();
        if sorted != want {
            net.fail(
                "any_source_matching_drains_all_senders",
                "wildcard receives did not drain the sent multiset",
            );
        }
        // FIFO per sender: each sender's bytes appear in increasing j.
        for r in 1..4u8 {
            let js: Vec<u8> = got
                .iter()
                .filter(|&&b| b / 10 == r)
                .map(|&b| b % 10)
                .collect();
            if !js.windows(2).all(|w| w[0] < w[1]) {
                net.fail(
                    "any_source_matching_drains_all_senders",
                    &format!("messages from rank {r} reordered: {js:?}"),
                );
            }
        }
    }
}

/// Protocol selection at the boundary, over `SimLink`: size ≤ threshold
/// goes eager, size > threshold rendezvous — asserted through the metrics
/// *and* the `MsgSend` trace event's rendezvous flag — and either way the
/// payload survives a 3-byte trickle.
#[test]
fn eager_rendezvous_boundary_over_simlink() {
    for seed in seed_matrix() {
        for size in [EAGER_T - 1, EAGER_T, EAGER_T + 1] {
            let mut net = SimNet::new(
                seed,
                sim_config(2, FaultPlan::trickle(3), Schedule::RoundRobin),
            );
            let expect_eager = size <= EAGER_T;
            let data = vec![0xC3u8; size];
            let mut buf = vec![0u8; size];
            let s = send(&net, 0, 1, 1, &data);
            let r = recv(&net, 1, 0, 1, &mut buf);
            net.complete(&[s, r], 1_000_000, "eager_rendezvous_boundary_over_simlink");
            assert_eq!(buf, data, "payload across the boundary (size {size})");

            let snap = net.device(0).metrics().snapshot();
            assert_eq!(
                (snap.get(Metric::SendsEager), snap.get(Metric::SendsRndv)),
                if expect_eager { (1, 0) } else { (0, 1) },
                "protocol selection at size {size} (threshold {EAGER_T})"
            );
            let ev = snap
                .events()
                .iter()
                .find(|e| e.kind == EventKind::MsgSend)
                .expect("send stamped a MsgSend event");
            assert_eq!(
                ev.c & MSG_RNDV_FLAG != 0,
                !expect_eager,
                "MsgSend rendezvous flag at size {size}"
            );
        }
    }
}

/// The same boundary through the real threaded stack over `ShmLink`:
/// identical payloads delivered, and the sender's metrics show exactly
/// two eager and one rendezvous send.
#[test]
fn eager_rendezvous_boundary_over_shmlink() {
    let cfg = UniverseConfig {
        channel: ChannelKind::Shm,
        device: DeviceConfig {
            eager_threshold: EAGER_T,
            ..DeviceConfig::default()
        },
        ..UniverseConfig::default()
    };
    Universe::run_with(2, cfg, |proc| {
        let world = proc.world();
        let sizes = [EAGER_T - 1, EAGER_T, EAGER_T + 1];
        if world.rank() == 0 {
            for (i, &size) in sizes.iter().enumerate() {
                world
                    .send_bytes(&vec![i as u8 + 1; size], 1, i as i32)
                    .unwrap();
            }
            let snap = proc.device().metrics().snapshot();
            assert_eq!(snap.get(Metric::SendsEager), 2, "T-1 and T eager");
            assert_eq!(snap.get(Metric::SendsRndv), 1, "T+1 rendezvous");
            // The trace events agree with the counters, message by message.
            let flags: Vec<bool> = snap
                .events()
                .iter()
                .filter(|e| e.kind == EventKind::MsgSend)
                .map(|e| e.c & MSG_RNDV_FLAG != 0)
                .collect();
            assert_eq!(flags, [false, false, true]);
        } else {
            for (i, &size) in sizes.iter().enumerate() {
                let mut buf = vec![0u8; size];
                world.recv_bytes(&mut buf, 0, i as i32).unwrap();
                assert_eq!(buf, vec![i as u8 + 1; size], "payload at size {size}");
            }
        }
    })
    .unwrap();
}

/// Collective results are a function of the inputs alone: across every
/// seed (different fault jitter, different thread interleavings) the
/// reductions and gathers produce the oracle answer.
#[test]
fn collective_results_independent_of_schedule() {
    for seed in seed_matrix() {
        let fabric = SimFabric::new(seed, FaultPlan::trickle(5).with_latency(1));
        let cfg = UniverseConfig {
            link_factory: Some(fabric.factory()),
            ..UniverseConfig::default()
        };
        Universe::run_with(3, cfg, |proc| {
            let world = proc.world();
            let r = world.rank() as i64;
            let mut sum = [0i64];
            world
                .allreduce_slice(&[r + 1], &mut sum, ReduceOp::Sum)
                .unwrap();
            assert_eq!(sum[0], 6, "allreduce oracle (seed {seed})");
            let mut mx = [0i64];
            world
                .allreduce_slice(&[10 * (r + 1)], &mut mx, ReduceOp::Max)
                .unwrap();
            assert_eq!(mx[0], 30, "allreduce max oracle (seed {seed})");
            let mine = [world.rank() as u8 + 1; 4];
            let mut all = vec![0u8; 4 * world.size()];
            world.allgather_bytes(&mine, &mut all).unwrap();
            for peer in 0..world.size() {
                assert_eq!(
                    &all[4 * peer..4 * peer + 4],
                    [peer as u8 + 1; 4],
                    "allgather slot {peer} (seed {seed})"
                );
            }
        })
        .unwrap_or_else(|e| panic!("collective run failed with seed {seed}: {e}"));
    }
}

/// The Oomp serializer round-trips an object graph over a byte-trickling
/// wire: the split-capable serializer must reassemble from arbitrary
/// partial reads (the full Motor stack, `run_cluster` on top).
#[test]
fn oomp_serializer_roundtrips_under_byte_trickle() {
    for seed in [seed_matrix()[0], *seed_matrix().last().unwrap()] {
        let fabric = SimFabric::new(seed, FaultPlan::trickle(7));
        let config = ClusterConfig::builder()
            .ranks(2)
            .eager_threshold(256)
            .link_factory(fabric.factory())
            .build();
        run_cluster(
            config,
            |reg| {
                let arr = reg.prim_array(ElemKind::I32);
                reg.define_class("Packet")
                    .prim("id", ElemKind::I32)
                    .transportable("data", arr)
                    .build();
            },
            move |proc| {
                let oomp = proc.oomp();
                let t = proc.thread();
                let cls = proc.vm().registry().by_name("Packet").unwrap();
                let (fid, fdata) = (t.field_index(cls, "id"), t.field_index(cls, "data"));
                if proc.rank() == 0 {
                    // 400 bytes of array data: rendezvous under the
                    // 256-byte threshold, trickled 7 bytes at a time.
                    let o = t.alloc_instance(cls);
                    t.set_prim::<i32>(o, fid, 7777);
                    let d = t.alloc_prim_array(ElemKind::I32, 100);
                    let vals: Vec<i32> = (0..100).map(|i| i * 3 - 50).collect();
                    t.prim_write(d, 0, &vals);
                    t.set_ref(o, fdata, d);
                    t.release(d);
                    oomp.osend(o, 1, 9).unwrap();
                } else {
                    let (got, st) = oomp.orecv(motor::mpc::Source::Rank(0), 9).unwrap();
                    assert_eq!(st.source, 0);
                    assert_eq!(t.get_prim::<i32>(got, fid), 7777, "seed {seed}");
                    let d = t.get_ref(got, fdata);
                    let mut vals = vec![0i32; 100];
                    t.prim_read(d, 0, &mut vals);
                    let want: Vec<i32> = (0..100).map(|i| i * 3 - 50).collect();
                    assert_eq!(vals, want, "array contents after trickle (seed {seed})");
                }
            },
        )
        .unwrap_or_else(|e| panic!("oomp run failed with seed {seed}: {e}"));
    }
}

/// A link dying mid-rendezvous (byte fuse blows partway into the payload)
/// fails the bound requests with `PeerClosed` within the step budget —
/// never a hang — and the doctor classifies the dropped link.
#[test]
fn mid_rendezvous_link_close_fails_cleanly() {
    for seed in seed_matrix() {
        let mut net = SimNet::new(
            seed,
            sim_config(
                2,
                // 5000-byte payload, wire dies after 700 bytes: well past
                // the RTS, well short of the data.
                FaultPlan::trickle(8).with_close_after(700),
                Schedule::Random,
            ),
        );
        let data = vec![0x5Au8; 5000];
        let mut buf = vec![0u8; 5000];
        let s = send(&net, 0, 1, 2, &data);
        let r = recv(&net, 1, 0, 2, &mut buf);
        let failed = net.run_until(1_000_000, || {
            s.failed_peer().is_some() || r.failed_peer().is_some()
        });
        if !failed {
            net.fail(
                "mid_rendezvous_link_close_fails_cleanly",
                "link fuse blew but no request failed within the budget",
            );
        }
        assert!(
            !s.is_complete() || !r.is_complete(),
            "transfer cannot finish"
        );
        // The waiter surfaces a clean error, not a hang.
        let who = if s.failed_peer().is_some() {
            (&s, 0)
        } else {
            (&r, 1)
        };
        match net.device(who.1).wait_with(who.0, || {}) {
            Err(MpcError::PeerClosed(_)) => {}
            other => panic!("expected PeerClosed, got {other:?} (seed {seed})"),
        }
        let dropped: u64 = (0..2)
            .map(|d| net.device(d).metrics().snapshot().get(Metric::LinksDropped))
            .sum();
        assert!(dropped >= 1, "LinksDropped accounted (seed {seed})");

        // The doctor sees the same story: a LinkDrop anomaly.
        let health: Vec<RankRecord> = (0..2)
            .map(|d| {
                let dev = net.device(d);
                RankRecord {
                    rank: d,
                    label: format!("rank {d}"),
                    queue_depths: dev.queue_depths(),
                    snapshot: dev.metrics().snapshot(),
                    ..RankRecord::default()
                }
            })
            .collect();
        let anomalies = classify(&health, &DoctorConfig::default());
        assert!(
            anomalies.iter().any(|a| a.kind == AnomalyKind::LinkDrop),
            "doctor reports the dropped link (seed {seed})"
        );
    }
}

/// The threaded stack surfaces the same failure as a clean error on both
/// sides — the regression this suite exists for is an infinite hang in
/// `recv_bytes` when the peer disappears mid-rendezvous.
#[test]
fn mid_rendezvous_close_threaded_returns_error() {
    let fabric = SimFabric::new(42, FaultPlan::trickle(8).with_close_after(700));
    let cfg = UniverseConfig {
        link_factory: Some(fabric.factory()),
        ..UniverseConfig::default()
    };
    let dropped = AtomicU64::new(0);
    Universe::run_with(2, cfg, |proc| {
        let world = proc.world();
        let result = if world.rank() == 0 {
            world.send_bytes(&[0x5Au8; 200_000], 1, 3)
        } else {
            let mut buf = vec![0u8; 200_000];
            world.recv_bytes(&mut buf, 0, 3).map(|_| ())
        };
        match result {
            Err(MpcError::PeerClosed(_)) => {}
            other => panic!("rank {} expected PeerClosed, got {other:?}", world.rank()),
        }
        dropped.fetch_add(
            proc.device().metrics().snapshot().get(Metric::LinksDropped),
            Ordering::Relaxed,
        );
    })
    .unwrap();
    assert!(dropped.load(Ordering::Relaxed) >= 1);
}

/// A blocking probe on a peer whose link is gone returns `PeerClosed`
/// instead of spinning on an `iprobe` that can only ever say "nothing
/// yet" — inside a poll budget the backoff ladder keeps small.
#[test]
fn probe_on_dead_peer_returns_peer_closed() {
    let fabric = SimFabric::new(7, FaultPlan::clean());
    let cfg = UniverseConfig {
        link_factory: Some(fabric.factory()),
        ..UniverseConfig::default()
    };
    let polls = AtomicU64::new(0);
    Universe::run_with(2, cfg, |proc| {
        let world = proc.world();
        if world.rank() == 0 {
            fabric.close_link(0, 1);
            match world.probe(1, 5) {
                Err(MpcError::PeerClosed(1)) => {}
                other => panic!("expected PeerClosed(1), got {other:?}"),
            }
            match world.iprobe(1, 5) {
                Err(MpcError::PeerClosed(1)) => {}
                other => panic!("iprobe: expected PeerClosed(1), got {other:?}"),
            }
            let snap = proc.device().metrics().snapshot();
            polls.store(snap.get(Metric::ProgressPolls), Ordering::Relaxed);
        }
    })
    .unwrap();
    assert!(
        polls.load(Ordering::Relaxed) < 10_000,
        "the dead link is noticed by the first pump, not after a spin"
    );
}

/// Run an `n`-rank universe over `fabric` on its own thread, failing if
/// it has not returned within 30 s: a receive that waits for ever on a
/// dead peer fails the test instead of stalling the suite.
fn run_watched(n: usize, fabric: &SimFabric, body: impl Fn(Proc) + Send + Sync + 'static) {
    let cfg = UniverseConfig {
        link_factory: Some(fabric.factory()),
        ..UniverseConfig::default()
    };
    let limit = Duration::from_secs(30);
    let start = Instant::now();
    let run = std::thread::spawn(move || Universe::run_with(n, cfg, body));
    while !run.is_finished() {
        assert!(
            start.elapsed() < limit,
            "the run hung (still running after {limit:?})"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    match run.join() {
        Ok(result) => result.unwrap(),
        Err(panic) => std::panic::resume_unwind(panic),
    }
}

/// A probe for a rank outside the communicator is refused like a receive
/// for one, blocking or not, instead of waiting for a message no rank can
/// send.
#[test]
fn probe_outside_the_group_is_invalid_rank() {
    let fabric = SimFabric::new(7, FaultPlan::clean());
    run_watched(2, &fabric, |proc| {
        let world = proc.world();
        let outside = world.size() + 5;
        match world.probe(outside, 5) {
            Err(MpcError::InvalidRank(r)) => assert_eq!(r as usize, outside),
            other => panic!("probe: expected InvalidRank({outside}), got {other:?}"),
        }
        match world.iprobe(outside, 5) {
            Err(MpcError::InvalidRank(r)) => assert_eq!(r as usize, outside),
            other => panic!("iprobe: expected InvalidRank({outside}), got {other:?}"),
        }
    });
}

/// On a `dup` of the world, whose context is not the world's, a probe, a
/// non-blocking probe and a receive from a peer whose link is gone each
/// return `PeerClosed`.
#[test]
fn dead_peer_fails_probes_and_receives_on_a_dup() {
    let fabric = Arc::new(SimFabric::new(11, FaultPlan::clean()));
    let (links, gate) = (Arc::clone(&fabric), Barrier::new(2));
    run_watched(2, &fabric, move |proc| {
        let dup = proc.world().dup().unwrap();
        // Both ranks hold the dup before the link goes.
        gate.wait();
        if dup.rank() == 0 {
            links.close_link(0, 1);
            match dup.probe(1, 5) {
                Err(MpcError::PeerClosed(1)) => {}
                other => panic!("probe: expected PeerClosed(1), got {other:?}"),
            }
            match dup.iprobe(1, 5) {
                Err(MpcError::PeerClosed(1)) => {}
                other => panic!("iprobe: expected PeerClosed(1), got {other:?}"),
            }
            match dup.recv_bytes(&mut [0u8; 4], 1, 5) {
                Err(MpcError::PeerClosed(1)) => {}
                other => panic!("recv: expected PeerClosed(1), got {other:?}"),
            }
        }
    });
}

/// On a 3-rank `split` whose key reverses the rank order, comm rank 0 is
/// global rank 2: a receive from it after its link dies fails with
/// `PeerClosed` naming the global rank.
#[test]
fn dead_peer_on_a_reordered_split_is_named_by_global_rank() {
    let fabric = Arc::new(SimFabric::new(13, FaultPlan::clean()));
    let (links, gate) = (Arc::clone(&fabric), Barrier::new(3));
    run_watched(3, &fabric, move |proc| {
        let world = proc.world();
        let rev = world.split(0, -(world.rank() as i32)).unwrap();
        assert_eq!(rev.rank(), 2 - world.rank());
        gate.wait();
        if world.rank() == 0 {
            links.close_link(0, 2);
            match rev.recv_bytes(&mut [0u8; 4], 0, 5) {
                Err(MpcError::PeerClosed(2)) => {}
                other => panic!("expected PeerClosed(2), got {other:?}"),
            }
        }
    });
}

/// A collective on a `dup` whose one link is already gone ends with
/// `PeerClosed` on both ranks: the schedule's receive from the dead peer
/// fails in the collective context.
#[test]
fn barrier_on_a_dup_over_a_dead_link_fails_on_both_ranks() {
    let fabric = Arc::new(SimFabric::new(17, FaultPlan::clean()));
    let (links, gate) = (Arc::clone(&fabric), Barrier::new(2));
    run_watched(2, &fabric, move |proc| {
        let dup = proc.world().dup().unwrap();
        gate.wait();
        if dup.rank() == 0 {
            links.close_link(0, 1);
        }
        gate.wait();
        let (me, peer) = (dup.rank(), 1 - dup.rank());
        match dup.barrier() {
            Err(MpcError::PeerClosed(p)) if p == peer => {}
            other => panic!("rank {me}: expected PeerClosed({peer}), got {other:?}"),
        }
    });
}

/// Identical seeds replay identical runs: schedule, virtual time and the
/// sender's full counter set all match between two executions.
#[test]
fn seed_replay_reproduces_runs_exactly() {
    let run = |seed: u64| {
        let mut net = SimNet::new(
            seed,
            sim_config(3, FaultPlan::trickle(4).with_latency(2), Schedule::Random),
        );
        let data = vec![0x11u8; 300];
        let mut buf = vec![0u8; 300];
        let s = send(&net, 0, 2, 1, &data);
        let r = recv(&net, 2, 0, 1, &mut buf);
        net.complete(&[s, r], 1_000_000, "seed_replay_reproduces_runs_exactly");
        let snap = net.device(0).metrics().snapshot();
        (
            net.steps(),
            net.clock().now_ticks(),
            snap.get(Metric::ProgressPolls),
            snap.get(Metric::ChanBytesOut),
        )
    };
    for seed in seed_matrix() {
        assert_eq!(run(seed), run(seed), "seed {seed} must replay exactly");
    }
    // And the PRNG itself is stable: same seed, same stream.
    let mut a = SimRng::new(99);
    let mut b = SimRng::new(99);
    assert!((0..64).all(|_| a.next_u64() == b.next_u64()));
}

/// Every rank's world communicator over the fabric's devices.
fn world_of(net: &SimNet) -> Vec<Comm> {
    let group = Arc::new((0..net.devices().len()).collect::<Vec<_>>());
    let ctx = Arc::new(AtomicU32::new(2));
    let assemble = |(r, d): (usize, &Arc<_>)| {
        Comm::assemble(Arc::clone(d), 0, Arc::clone(&group), r, Arc::clone(&ctx))
    };
    net.devices().iter().enumerate().map(assemble).collect()
}

/// One collective on every rank: rank r's schedule of `coll` over
/// `send[r]` and `recv[r]`, advanced between scheduler steps — no thread
/// per rank — until all are done. Returns each rank's (rounds, sends).
fn collective(
    (net, test): (&mut SimNet, &str),
    world: &[Comm],
    (send, recv): (&[Vec<u8>], &mut [Vec<u8>]),
    what: &str,
    coll: Coll,
) -> Vec<(usize, usize)> {
    let mut scheds = Vec::new();
    for (r, (s, v)) in send.iter().zip(recv.iter_mut()).enumerate() {
        // SAFETY: `send` and `recv` outlive the loop below, which runs
        // every schedule to its end or fails the test.
        match unsafe { Sched::new(&world[r], s, v, coll) } {
            Ok(s) => scheds.push(s),
            Err(e) => net.fail(test, &format!("{what}: rank {r} refused: {e}")),
        }
    }
    let counts = scheds.iter().map(|s| (s.rounds(), s.sends())).collect();
    let mut done = vec![false; scheds.len()];
    for _ in 0..5_000_000 {
        for (r, (s, done)) in scheds.iter_mut().zip(&mut done).enumerate() {
            match s.advance() {
                Ok(d) => *done = *done || d.is_some(),
                Err(e) => net.fail(test, &format!("{what}: rank {r}: {e}")),
            }
        }
        if done.iter().all(|&d| d) {
            return counts;
        }
        net.step();
    }
    net.fail(test, &format!("{what}: not done within the step budget"))
}

/// Every collective as a schedule on the single-threaded fabric, at 16
/// ranks, under a random schedule and a byte trickle: results equal a
/// serial oracle (`f64` sums bit for bit against the rank-ordered fold),
/// the barrier takes ⌈log₂ n⌉ rounds, ring allgather n − 1 and no rank of
/// a binomial broadcast sends more than ⌈log₂ n⌉ times.
#[test]
fn collectives_on_simnet_match_the_oracle() {
    collectives_on_simnet(16, "collectives_on_simnet_match_the_oracle");
}

/// The same at 64 ranks — in optimised builds only, where it takes a
/// quarter of the time; `check.sh` and the CI sim job run the suite with
/// `--release` for it.
#[test]
#[cfg_attr(debug_assertions, ignore = "64 ranks: run with --release")]
fn collectives_on_simnet_match_the_oracle_at_64_ranks() {
    collectives_on_simnet(64, "collectives_on_simnet_match_the_oracle_at_64_ranks");
}

fn collectives_on_simnet(n: usize, test: &str) {
    for seed in seed_matrix() {
        let mut net = SimNet::new(
            seed,
            sim_config(n, FaultPlan::trickle(16), Schedule::Random),
        );
        let world = world_of(&net);
        collectives_match_the_oracle((&mut net, test), &world);
    }
}

fn collectives_match_the_oracle((net, test): (&mut SimNet, &str), world: &[Comm]) {
    let n = world.len();
    let log2 = n.next_power_of_two().trailing_zeros() as usize;
    let data = |r: usize, len: usize| (0..len).map(|i| (r * 31 + i * 7) as u8).collect::<Vec<_>>();
    let empty = vec![Vec::new(); n];
    let check = |net: &SimNet, ok: bool, what: &str| {
        if !ok {
            net.fail(test, &format!("{what} differs from the oracle"));
        }
    };

    let counts = collective(
        (&mut *net, test),
        world,
        (&empty, &mut empty.clone()),
        "barrier",
        Coll::Barrier,
    );
    check(
        net,
        counts.iter().all(|&(rounds, _)| rounds == log2),
        "barrier rounds",
    );

    for root in [0, n / 2, n - 1] {
        // 100 bytes: rendezvous above the 64-byte threshold.
        let want = data(root, 100);
        let mut buf: Vec<_> = (0..n)
            .map(|r| {
                if r == root {
                    want.clone()
                } else {
                    vec![0; 100]
                }
            })
            .collect();
        let counts = collective(
            (&mut *net, test),
            world,
            (&empty, &mut buf),
            "bcast",
            Coll::Bcast(root),
        );
        check(net, buf.iter().all(|b| *b == want), "bcast");
        check(
            net,
            counts.iter().all(|&(_, sends)| sends <= log2),
            "bcast sends",
        );

        let at_root = |len: usize| -> Vec<Vec<u8>> {
            (0..n)
                .map(|r| if r == root { data(root, len) } else { vec![] })
                .collect()
        };
        let send = at_root(8 * n);
        let mut recv = vec![vec![0u8; 8]; n];
        collective(
            (&mut *net, test),
            world,
            (&send, &mut recv),
            "scatter",
            Coll::Scatter(root),
        );
        check(net, recv.concat() == send[root], "scatter");

        let send: Vec<_> = (0..n).map(|r| data(r, 8)).collect();
        let mut recv: Vec<_> = (0..n)
            .map(|r| vec![0u8; if r == root { 8 * n } else { 0 }])
            .collect();
        collective(
            (&mut *net, test),
            world,
            (&send, &mut recv),
            "gather",
            Coll::Gather(root),
        );
        check(net, recv[root] == send.concat(), "gather");

        // Ragged parts, some empty, some above the eager threshold.
        let counts: Vec<usize> = (0..n).map(|r| [0, 3, 70, 9][r % 4]).collect();
        let total = counts.iter().sum();
        let send = at_root(total);
        let mut recv: Vec<_> = counts.iter().map(|&c| vec![0u8; c]).collect();
        collective(
            (&mut *net, test),
            world,
            (&send, &mut recv),
            "scatterv",
            Coll::Scatterv(&counts, root),
        );
        check(net, recv.concat() == send[root], "scatterv");

        let send = recv;
        let mut recv: Vec<_> = (0..n)
            .map(|r| vec![0u8; if r == root { total } else { 0 }])
            .collect();
        collective(
            (&mut *net, test),
            world,
            (&send, &mut recv),
            "gatherv",
            Coll::Gatherv(&counts, root),
        );
        check(net, recv[root] == send.concat(), "gatherv");
    }

    let send: Vec<_> = (0..n).map(|r| data(r, 8)).collect();
    let mut recv = vec![vec![0u8; 8 * n]; n];
    let counts = collective(
        (net, test),
        world,
        (&send, &mut recv),
        "allgather",
        Coll::Allgather,
    );
    check(net, recv.iter().all(|v| *v == send.concat()), "allgather");
    check(
        net,
        counts.iter().all(|&(rounds, _)| rounds == n - 1),
        "allgather rounds",
    );

    // Sums of i64 and f64; the f64 oracle is the fold in rank order.
    let ints = |r: usize| [r as i64 * 3 - 7, (r * r) as i64];
    let send: Vec<_> = (0..n).map(|r| as_bytes(&ints(r)).to_vec()).collect();
    let mut recv = vec![vec![0u8; 16]; n];
    collective(
        (net, test),
        world,
        (&send, &mut recv),
        "allreduce i64",
        Coll::Allreduce(DType::I64, ReduceOp::Sum),
    );
    let sum = (0..n).fold([0i64; 2], |a, r| [a[0] + ints(r)[0], a[1] + ints(r)[1]]);
    check(
        net,
        recv.iter().all(|v| *v == as_bytes(&sum)),
        "allreduce i64",
    );

    let floats = |r: usize| {
        [
            0.1 * r as f64 + 1e-3 / (r + 1) as f64,
            1e16 / (r + 3) as f64,
        ]
    };
    let send: Vec<_> = (0..n).map(|r| as_bytes(&floats(r)).to_vec()).collect();
    let mut recv = vec![vec![0u8; 16]; n];
    collective(
        (net, test),
        world,
        (&send, &mut recv),
        "allreduce f64",
        Coll::Allreduce(DType::F64, ReduceOp::Sum),
    );
    let fold = (1..n).fold(floats(0), |a, r| [a[0] + floats(r)[0], a[1] + floats(r)[1]]);
    check(
        net,
        recv.iter().all(|v| *v == as_bytes(&fold)),
        "allreduce f64",
    );

    let ints_of = |r: usize| as_bytes(&ints(r)).to_vec();
    let send: Vec<_> = (0..n).map(ints_of).collect();
    let mut recv: Vec<_> = (0..n)
        .map(|r| vec![0u8; if r == n / 2 { 16 } else { 0 }])
        .collect();
    collective(
        (&mut *net, test),
        world,
        (&send, &mut recv),
        "reduce",
        Coll::Reduce(DType::I64, ReduceOp::Max, n / 2),
    );
    let max = (0..n).fold([i64::MIN; 2], |a, r| {
        [a[0].max(ints(r)[0]), a[1].max(ints(r)[1])]
    });
    check(net, recv[n / 2] == as_bytes(&max), "reduce");

    let mut recv = vec![vec![0u8; 16]; n];
    collective(
        (&mut *net, test),
        world,
        (&send, &mut recv),
        "scan",
        Coll::Scan(DType::I64, ReduceOp::Sum),
    );
    let mut prefix = [0i64; 2];
    for (r, got) in recv.iter().enumerate() {
        prefix = [prefix[0] + ints(r)[0], prefix[1] + ints(r)[1]];
        check(net, *got == as_bytes(&prefix), "scan");
    }

    let send: Vec<_> = (0..n).map(|r| data(r, 4 * n)).collect();
    let mut recv = vec![vec![0u8; 4 * n]; n];
    collective(
        (&mut *net, test),
        world,
        (&send, &mut recv),
        "alltoall",
        Coll::Alltoall(4),
    );
    for (r, got) in recv.iter().enumerate() {
        let want: Vec<u8> = (0..n)
            .flat_map(|src| send[src][4 * r..4 * r + 4].to_vec())
            .collect();
        check(net, *got == want, "alltoall");
    }
}
