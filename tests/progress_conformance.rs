//! Progress-conformance suite: the asynchronous progress engine must add
//! *progress*, never *semantics*.
//!
//! Three families of guarantees, per ISSUE 10:
//!
//! * **(a) Autonomy** — with a progress thread per device, Isend/Irecv
//!   pairs complete while the owning rank threads do nothing but watch
//!   the completion flag: no `wait`, no `test`, no progress call ever.
//! * **(b) Semantics under faults** — with the engine on (`thread` mode,
//!   emulated deterministically by `SimNet`), the MPI
//!   contracts still hold under trickle wires, stall windows and
//!   mid-message link death: non-overtaking per (source, tag, context),
//!   `ANY_SOURCE` FIFO per sender, clean `PeerClosed` instead of hangs.
//! * **(c) Determinism of the default** — across the frozen seed matrix,
//!   the default schedule is a function of the seed alone: a run with the
//!   default config, a run with progress explicitly `Off` and a replay
//!   produce identical fingerprints (steps, virtual clock, protocol
//!   counters), and no helper's counter moves.
//!
//! Plus the backoff-ladder fix pin: a waiter parked in the sleep tier is
//! woken by the engine's completion notification, not the sleep timer —
//! the test sets a quantum so large that regressing to timer wakeups
//! fails the run wholesale.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use motor::mpc::device::DeviceConfig;
use motor::mpc::universe::{Universe, UniverseConfig};
use motor::mpc::{MpcError, ProgressMode};
use motor::obs::Metric;
use motor::pal::TickSource;
use motor_sim::{seed_matrix, FaultPlan, Schedule, SimConfig, SimNet};

/// Threshold small enough that both protocols appear in mixed workloads.
const EAGER_T: usize = 64;

fn sim_config(
    ranks: usize,
    plan: FaultPlan,
    schedule: Schedule,
    progress: ProgressMode,
) -> SimConfig {
    SimConfig {
        ranks,
        device: DeviceConfig {
            eager_threshold: EAGER_T,
            ..DeviceConfig::default()
        },
        schedule,
        plan,
        progress,
    }
}

/// The engine mode under test, with its display name. `MOTOR_PROGRESS`,
/// read through the library's own parser, narrows the matrix so CI can
/// run (and attribute failures to) one mode per job: unset or `thread`
/// runs the engine, and `off` — the default-mode job — leaves the
/// per-mode tests nothing to replay (the default's own tests read no
/// variable).
fn engine_modes() -> Vec<(ProgressMode, &'static str)> {
    let all = vec![(ProgressMode::Thread, "thread")];
    if std::env::var("MOTOR_PROGRESS").is_ok_and(|v| !v.trim().is_empty()) {
        let picked = ProgressMode::from_env();
        return all.into_iter().filter(|(m, _)| *m == picked).collect();
    }
    all
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

// ----------------------------------------------------------------------
// (a) Autonomy: the engine completes operations the ranks never drive.
// ----------------------------------------------------------------------

/// 4-rank ring exchange over the real threaded stack with a progress
/// thread per device. After posting, each rank only *watches* its
/// requests — no wait, no test, no progress — so every byte that arrives
/// was moved by an engine thread.
#[test]
fn isend_irecv_complete_without_owner_entering_wait() {
    const N: usize = 4;
    const LEN: usize = 32 * 1024; // eager at the default threshold
    let cfg = UniverseConfig {
        progress: ProgressMode::Thread,
        ..UniverseConfig::default()
    };
    let engine_completions = AtomicU64::new(0);
    let posted = std::sync::Barrier::new(N);
    Universe::run_with(N, cfg, |proc| {
        let world = proc.world();
        let me = world.rank();
        let to = (me + 1) % N;
        let from = (me + N - 1) % N;
        let data = vec![me as u8 + 1; LEN];
        let mut buf = vec![0u8; LEN];
        // SAFETY: data/buf live to the end of this closure, past both
        // completion spins below.
        let r = unsafe { world.irecv_ptr(buf.as_mut_ptr(), buf.len(), from, 7) }.unwrap();
        // Posting a receive runs one inline progress pass on the owner
        // (not an engine poll; a plain eager send only flushes its own
        // link), so a receive whose data is already in the ring at post
        // time would be completed by the *rank* thread — on a loaded
        // single-core host that can very occasionally absorb every eager
        // receive and starve the `ProgressOpsCompleted` assertion below.
        // The barrier plus rank 0's delayed send pin the order: rank 1
        // finishes all of its posts before rank 0's payload can exist on
        // the wire, so rank 1's receive is completable only by an engine
        // poll, deterministically.
        posted.wait();
        if me == 0 {
            std::thread::sleep(Duration::from_millis(250));
        }
        let s = unsafe { world.isend_ptr(data.as_ptr(), data.len(), to, 7) }.unwrap();
        // The owning rank never enters wait: it sleeps and watches. Only
        // the progress threads can finish these.
        let deadline = Instant::now() + Duration::from_secs(30);
        while !(s.is_complete() && r.is_complete()) {
            assert!(
                Instant::now() < deadline,
                "rank {me}: progress threads did not complete the exchange"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(buf, vec![from as u8 + 1; LEN], "payload from rank {from}");
        engine_completions.fetch_add(
            proc.device()
                .metrics()
                .snapshot()
                .get(Metric::ProgressOpsCompleted),
            Ordering::Relaxed,
        );
    })
    .unwrap();
    assert!(
        engine_completions.load(Ordering::Relaxed) > 0,
        "engine polls completed requests (the ranks never drove progress)"
    );
}

/// Same autonomy through the rendezvous protocol: the engine must carry
/// the full RTS → CTS → data → done conversation on both ends.
#[test]
fn rendezvous_completes_without_owner_entering_wait() {
    let cfg = UniverseConfig {
        device: DeviceConfig {
            eager_threshold: EAGER_T,
            ..DeviceConfig::default()
        },
        progress: ProgressMode::Thread,
        ..UniverseConfig::default()
    };
    Universe::run_with(2, cfg, |proc| {
        let world = proc.world();
        let n = 100_000usize;
        if world.rank() == 0 {
            let data: Vec<u8> = (0..n).map(|i| (i % 239) as u8).collect();
            // SAFETY: data lives past the completion spin.
            let s = unsafe { world.isend_ptr(data.as_ptr(), n, 1, 3) }.unwrap();
            let deadline = Instant::now() + Duration::from_secs(30);
            while !s.is_complete() {
                assert!(Instant::now() < deadline, "rendezvous send starved");
                std::thread::sleep(Duration::from_millis(1));
            }
        } else {
            let mut buf = vec![0u8; n];
            // SAFETY: buf lives past the completion spin.
            let r = unsafe { world.irecv_ptr(buf.as_mut_ptr(), n, 0, 3) }.unwrap();
            let deadline = Instant::now() + Duration::from_secs(30);
            while !r.is_complete() {
                assert!(Instant::now() < deadline, "rendezvous recv starved");
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(buf.iter().enumerate().all(|(i, &b)| b == (i % 239) as u8));
        }
    })
    .unwrap();
}

// ----------------------------------------------------------------------
// (b) Semantics with the engine on, under fault plans.
// ----------------------------------------------------------------------

/// Non-overtaking per (source, tag, context) with eager and rendezvous
/// interleaved, under a trickle+latency wire with stall windows — in both
/// engine modes, across the seed matrix.
#[test]
fn non_overtaking_holds_with_engine_on() {
    let sizes = [16usize, 200, 8, 300, 1, EAGER_T, EAGER_T + 1, 500, 32, 100];
    for (progress, mode) in engine_modes() {
        for seed in seed_matrix() {
            let mut net = SimNet::new(
                seed,
                sim_config(
                    2,
                    FaultPlan::trickle(3).with_latency(1).with_stall(64),
                    Schedule::Random,
                    progress,
                ),
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
            // Alternate pre-posted and late-posted receives by seed.
            if seed % 2 == 1 {
                net.run_until(20_000, || false);
            }
            for b in &mut bufs {
                reqs.push(recv(&net, 1, 0, 7, b));
            }
            net.complete(&reqs, 3_000_000, "non_overtaking_holds_with_engine_on");
            for (i, (buf, want)) in bufs.iter().zip(&payloads).enumerate() {
                if buf != want {
                    net.fail(
                        "non_overtaking_holds_with_engine_on",
                        &format!("mode {mode}: message {i} overtaken or corrupted"),
                    );
                }
            }
        }
    }
}

/// `ANY_SOURCE` receives drain every sender and stay FIFO per sender with
/// the engine on, in both modes, across the seed matrix.
#[test]
fn any_source_fifo_holds_with_engine_on() {
    const PER_SENDER: usize = 3;
    for (progress, mode) in engine_modes() {
        for seed in seed_matrix() {
            let mut net = SimNet::new(
                seed,
                sim_config(4, FaultPlan::trickle(2), Schedule::Random, progress),
            );
            let payloads: Vec<(usize, Vec<u8>)> = (1..4)
                .flat_map(|r| (0..PER_SENDER).map(move |j| (r, vec![(10 * r + j) as u8; 8])))
                .collect();
            let mut bufs = vec![[0u8; 8]; payloads.len()];
            let mut reqs = Vec::new();
            for (r, p) in &payloads {
                reqs.push(send(&net, *r, 0, 5, p));
            }
            if seed % 2 == 1 {
                net.run_until(20_000, || false);
            }
            for b in &mut bufs {
                reqs.push(recv(&net, 0, -1, 5, b));
            }
            net.complete(&reqs, 3_000_000, "any_source_fifo_holds_with_engine_on");

            let got: Vec<u8> = bufs.iter().map(|b| b[0]).collect();
            let mut sorted = got.clone();
            sorted.sort_unstable();
            let mut want: Vec<u8> = payloads.iter().map(|(_, p)| p[0]).collect();
            want.sort_unstable();
            if sorted != want {
                net.fail(
                    "any_source_fifo_holds_with_engine_on",
                    &format!("mode {mode}: wildcards did not drain the sent multiset"),
                );
            }
            for r in 1..4u8 {
                let js: Vec<u8> = got
                    .iter()
                    .filter(|&&b| b / 10 == r)
                    .map(|&b| b % 10)
                    .collect();
                if !js.windows(2).all(|w| w[0] < w[1]) {
                    net.fail(
                        "any_source_fifo_holds_with_engine_on",
                        &format!("mode {mode}: messages from rank {r} reordered: {js:?}"),
                    );
                }
            }
        }
    }
}

/// Mid-message link death with the engine on still surfaces a clean
/// `PeerClosed` within the budget — the engine's extra pump passes must
/// not mask or mangle the failure path.
#[test]
fn mid_message_death_fails_cleanly_with_engine_on() {
    for (progress, mode) in engine_modes() {
        for seed in seed_matrix() {
            let mut net = SimNet::new(
                seed,
                sim_config(
                    2,
                    FaultPlan::trickle(8).with_close_after(700),
                    Schedule::Random,
                    progress,
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
                    "mid_message_death_fails_cleanly_with_engine_on",
                    &format!("mode {mode}: link fuse blew but no request failed"),
                );
            }
            let who = if s.failed_peer().is_some() {
                (&s, 0)
            } else {
                (&r, 1)
            };
            match net.device(who.1).wait_with(who.0, || {}) {
                Err(MpcError::PeerClosed(_)) => {}
                other => panic!("mode {mode}: expected PeerClosed, got {other:?} (seed {seed})"),
            }
            let dropped: u64 = (0..2)
                .map(|d| net.device(d).metrics().snapshot().get(Metric::LinksDropped))
                .sum();
            assert!(dropped >= 1, "mode {mode}: LinksDropped (seed {seed})");
        }
    }
}

// ----------------------------------------------------------------------
// (c) The default schedule is a deterministic function of the seed.
// ----------------------------------------------------------------------

/// Schedule fingerprint of one mixed eager/rendezvous workload with no
/// helper driving the devices.
fn default_fingerprint(seed: u64, progress: ProgressMode) -> (u64, u64, Vec<u64>) {
    assert_eq!(progress, ProgressMode::Off);
    let mut net = SimNet::new(
        seed,
        sim_config(
            3,
            FaultPlan::trickle(4).with_latency(2).with_stall(32),
            Schedule::Random,
            progress,
        ),
    );
    let small = vec![0x11u8; 32];
    let large = vec![0x22u8; 900];
    let mut b0 = vec![0u8; 32];
    let mut b1 = vec![0u8; 900];
    let mut b2 = vec![0u8; 32];
    let reqs = vec![
        send(&net, 0, 2, 1, &small),
        send(&net, 1, 2, 1, &large),
        send(&net, 2, 0, 4, &small),
        recv(&net, 2, 0, 1, &mut b0),
        recv(&net, 2, 1, 1, &mut b1),
        recv(&net, 0, 2, 4, &mut b2),
    ];
    net.complete(
        &reqs,
        3_000_000,
        "default_schedule_is_a_deterministic_function_of_the_seed",
    );
    let mut counters = Vec::new();
    for d in net.devices() {
        let snap = d.metrics().snapshot();
        for m in [
            Metric::ProgressPolls,
            Metric::MatchAttempts,
            Metric::SendsEager,
            Metric::SendsRndv,
            Metric::RndvCtsIn,
            Metric::RndvDone,
            Metric::ProgressOpsCompleted,
        ] {
            counters.push(snap.get(m));
        }
    }
    (net.steps(), net.clock().now_ticks(), counters)
}

/// The default — nobody but the ranks drives the devices — replays a seed
/// to the same step count, virtual-clock time and counter values: the
/// default config, an explicit `Off` and a repeat run agree, so the
/// fingerprint is a function of the seed alone. The helpers' counters
/// stay at zero: no helper means none.
#[test]
fn default_schedule_is_a_deterministic_function_of_the_seed() {
    for seed in seed_matrix() {
        let default_run = default_fingerprint(seed, ProgressMode::default());
        let explicit_off = default_fingerprint(seed, ProgressMode::Off);
        let replay = default_fingerprint(seed, ProgressMode::default());
        assert_eq!(
            default_run, explicit_off,
            "default vs explicit off diverged (seed {seed})"
        );
        assert_eq!(default_run, replay, "replay diverged (seed {seed})");
        let per_dev = 7;
        for (i, chunk) in default_run.2.chunks(per_dev).enumerate() {
            assert_eq!(chunk[6], 0, "rank {i}: ProgressOpsCompleted with no helper");
        }
    }
}

// ----------------------------------------------------------------------
// Backoff-ladder fix: completion notification beats the sleep timer.
// ----------------------------------------------------------------------

/// A rank blocked in `wait` whose backoff reached the sleep tier must be
/// woken by the progress engine's completion notification. The sleep
/// quantum is set to an hour: if the wait ever falls back to waiting out
/// the timer — the PR 5 latency bug this pins — the run blows the
/// 60-second bound instead of shipping a silently slow CTS.
#[test]
fn parked_sleep_tier_is_woken_by_completion_not_timer() {
    let cfg = UniverseConfig {
        device: DeviceConfig {
            eager_threshold: EAGER_T,
            wait_backoff: motor::pal::BackoffConfig {
                spin_limit: 2,
                yield_limit: 2,
                sleep: Some(Duration::from_secs(3600)),
            },
            ..DeviceConfig::default()
        },
        progress: ProgressMode::Thread,
        ..UniverseConfig::default()
    };
    let start = Instant::now();
    Universe::run_with(2, cfg, |proc| {
        let world = proc.world();
        let n = 50_000usize; // rendezvous: RTS → CTS → data → done
        if world.rank() == 0 {
            // Sender posts immediately and blocks; its ladder hits the
            // sleep tier while the receiver is still "computing".
            world.send_bytes(&vec![0xEEu8; n], 1, 9).unwrap();
        } else {
            std::thread::sleep(Duration::from_millis(100));
            let mut buf = vec![0u8; n];
            world.recv_bytes(&mut buf, 0, 9).unwrap();
            assert_eq!(buf, vec![0xEEu8; n]);
        }
    })
    .unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "a parked waiter burned its sleep quantum instead of being woken \
         (elapsed {:?})",
        start.elapsed()
    );
}
