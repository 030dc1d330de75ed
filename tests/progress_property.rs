//! Property test for the progress engine: seeded soups of mixed
//! eager/rendezvous point-to-point operations, across rank counts and both
//! progress modes, must all complete within a fixed step budget — no
//! matter which thread (rank or engine) ends up driving each transfer —
//! and the doctor must see a healthy cluster at the end: zero stall or
//! deadlock-suspect anomalies.
//!
//! The op soup is generated once per (seed, rank count) from a forked
//! `SimRng` stream and replayed identically under `off` and `thread`, so a
//! divergence between modes is attributable to the engine alone, never to
//! the workload.

use motor::mpc::device::DeviceConfig;
use motor::mpc::{ProgressMode, Request};
use motor::obs::{classify, AnomalyKind, DoctorConfig, RankRecord};
use motor_sim::{seed_matrix, FaultPlan, Schedule, SimConfig, SimNet, SimRng};
use std::collections::HashMap;

/// Small threshold so soups exercise both protocols heavily.
const EAGER_T: usize = 48;
/// Ops per soup — big enough to tangle channels, small enough to stay fast.
const OPS: usize = 40;
/// Virtual-step budget for one soup. A starved op busts this long before
/// wall-clock timeouts would.
const STEP_BUDGET: u64 = 5_000_000;

/// The progress modes each property replays. `MOTOR_PROGRESS`, read
/// through the library's own parser, narrows the matrix to that one mode
/// so CI can attribute a failure to it; unset replays both.
fn modes_under_test() -> Vec<(ProgressMode, &'static str)> {
    let all = vec![(ProgressMode::Off, "off"), (ProgressMode::Thread, "thread")];
    if std::env::var("MOTOR_PROGRESS").is_ok_and(|v| !v.trim().is_empty()) {
        let picked = ProgressMode::from_env();
        return all.into_iter().filter(|(m, _)| *m == picked).collect();
    }
    all
}

/// Per-channel late-post decisions, keyed by `(src, dst, tag)`.
type LateMap = HashMap<(usize, usize, i32), bool>;

/// A directed receive slot: `(recv rank, src, tag, buffer, expected)`.
type DirectedRecv = (usize, usize, i32, Vec<u8>, Vec<u8>);

/// One point-to-point transfer in the soup.
#[derive(Clone, Debug)]
struct Op {
    src: usize,
    dst: usize,
    tag: i32,
    payload: Vec<u8>,
}

/// Deterministic soup: random (src, dst, tag) channels with payload sizes
/// straddling the eager threshold, plus a per-channel decision whether the
/// receiver pre-posts or posts late. The decision is per *channel*, not
/// per op — posting part of a channel's receives late while earlier sends
/// already matched would still be FIFO, but sizing late buffers would need
/// lookahead; per-channel keeps the generator simple and the matching
/// exact.
fn gen_soup(rng: &mut SimRng, ranks: usize) -> (Vec<Op>, LateMap) {
    let mut ops = Vec::with_capacity(OPS);
    for i in 0..OPS {
        let src = rng.below(ranks as u64) as usize;
        let mut dst = rng.below(ranks as u64) as usize;
        if dst == src {
            dst = (dst + 1) % ranks;
        }
        let tag = rng.below(3) as i32;
        let len = if rng.chance(1, 2) {
            rng.range(1, EAGER_T as u64) as usize
        } else {
            rng.range(EAGER_T as u64 + 1, 600) as usize
        };
        ops.push(Op {
            src,
            dst,
            tag,
            payload: vec![(i % 251) as u8 + 1; len],
        });
    }
    let mut late = HashMap::new();
    for op in &ops {
        late.entry((op.src, op.dst, op.tag))
            .or_insert_with(|| rng.chance(1, 3));
    }
    (ops, late)
}

/// Run one soup under one progress mode; panics (via `net.fail` /
/// `net.complete`) on any starvation, mismatch, or doctor anomaly.
fn run_soup(seed: u64, ranks: usize, progress: ProgressMode, mode: &str) {
    let mut gen_rng = SimRng::new(seed ^ 0x50F7_BEEF).fork();
    let (ops, late) = gen_soup(&mut gen_rng, ranks);

    let mut net = SimNet::new(
        seed,
        SimConfig {
            ranks,
            device: DeviceConfig {
                eager_threshold: EAGER_T,
                ..DeviceConfig::default()
            },
            schedule: Schedule::Random,
            plan: FaultPlan::trickle(5).with_latency(1),
            progress,
        },
    );

    let mut reqs: Vec<Request> = Vec::new();
    // Wildcard receives can match any sender's message, so every buffer
    // takes the maximum payload size; actual lengths come from the status.
    let mut bufs: Vec<(usize, Vec<u8>)> = Vec::new(); // (recv rank, buf)
    let mut recv_reqs: Vec<Request> = Vec::new();

    // All sends, in program order per rank.
    for op in &ops {
        // SAFETY: payloads live in `ops` until after `net.complete`.
        let r = unsafe {
            net.device(op.src)
                .isend_raw(
                    op.dst,
                    SimNet::envelope(op.src, op.tag),
                    op.payload.as_ptr(),
                    op.payload.len(),
                    false,
                )
                .unwrap()
        };
        reqs.push(r);
    }

    // Pre-posted channels receive now; late channels after a warm-up run
    // that lets eager data land unexpected and rendezvous RTS queue up.
    // One max-size wildcard receive is posted per op destined to a rank.
    for round in 0..2 {
        if round == 1 {
            net.run_until(30_000, || false);
        }
        for op in &ops {
            if late[&(op.src, op.dst, op.tag)] != (round == 1) {
                continue;
            }
            bufs.push((op.dst, vec![0u8; 600]));
            let (rank, buf) = bufs.last_mut().unwrap();
            // SAFETY: `bufs` only grows (never reallocates element
            // payloads — each Vec<u8> heap block is stable) and lives
            // until after `net.complete`.
            let r = unsafe {
                net.device(*rank)
                    .irecv_raw(-1, -1, 0, buf.as_mut_ptr(), buf.len())
                    .unwrap()
            };
            recv_reqs.push(r.clone());
            reqs.push(r);
        }
    }

    net.complete(&reqs, STEP_BUDGET, "progress_property_soup");

    // Every byte landed somewhere: the received multiset equals the sent
    // multiset. (Wildcard receives make per-op equality too strong.)
    let mut sent: Vec<&[u8]> = ops.iter().map(|o| o.payload.as_slice()).collect();
    let mut got: Vec<&[u8]> = bufs
        .iter()
        .zip(&recv_reqs)
        .map(|((_, b), r)| &b[..r.status().count])
        .collect();
    sent.sort_unstable();
    got.sort_unstable();
    if sent != got {
        net.fail(
            "progress_property_soup",
            &format!(
                "mode {mode}: received multiset != sent multiset (seed {seed}, ranks {ranks})"
            ),
        );
    }

    // The doctor, fed real registry state, sees a healthy finished run.
    let health: Vec<RankRecord> = (0..ranks)
        .map(|d| {
            let dev = net.device(d);
            let m = dev.metrics();
            RankRecord {
                rank: d,
                label: format!("rank {d}"),
                done: true,
                now_nanos: m.now_nanos(),
                last_progress_nanos: m.last_progress_nanos(),
                inflight: m.inflight_ops(),
                queue_depths: dev.queue_depths(),
                ..RankRecord::default()
            }
        })
        .collect();
    let anomalies = classify(&health, &DoctorConfig::default());
    let bad: Vec<_> = anomalies
        .iter()
        .filter(|a| matches!(a.kind, AnomalyKind::Stall | AnomalyKind::DeadlockSuspect))
        .collect();
    assert!(
        bad.is_empty(),
        "mode {mode}: doctor anomalies after clean soup (seed {seed}, ranks {ranks}): {bad:?}"
    );
}

/// The property: for every frozen seed, rank count in {2, 3, 5}, and
/// progress mode, the same soup completes within the step budget with the
/// full payload multiset delivered and zero doctor stall anomalies.
#[test]
fn op_soups_complete_in_every_mode() {
    for seed in seed_matrix() {
        for ranks in [2usize, 3, 5] {
            for (progress, mode) in modes_under_test() {
                run_soup(seed, ranks, progress, mode);
            }
        }
    }
}

/// Wildcard-free variant pinning exact per-channel payload order: every
/// receive names its source and tag, so FIFO within a channel must map the
/// k-th send to the k-th receive byte-for-byte, in both modes.
#[test]
fn directed_soups_preserve_channel_fifo_in_every_mode() {
    for seed in seed_matrix() {
        let ranks = 4usize;
        for (progress, mode) in modes_under_test() {
            let mut gen_rng = SimRng::new(seed ^ 0xD1C7_ED50).fork();
            let (ops, late) = gen_soup(&mut gen_rng, ranks);
            let mut net = SimNet::new(
                seed,
                SimConfig {
                    ranks,
                    device: DeviceConfig {
                        eager_threshold: EAGER_T,
                        ..DeviceConfig::default()
                    },
                    schedule: Schedule::Random,
                    plan: FaultPlan::trickle(5).with_latency(1),
                    progress,
                },
            );
            let mut reqs: Vec<Request> = Vec::new();
            for op in &ops {
                // SAFETY: payloads live in `ops` past `net.complete`.
                let r = unsafe {
                    net.device(op.src)
                        .isend_raw(
                            op.dst,
                            SimNet::envelope(op.src, op.tag),
                            op.payload.as_ptr(),
                            op.payload.len(),
                            false,
                        )
                        .unwrap()
                };
                reqs.push(r);
            }
            let mut bufs: Vec<DirectedRecv> = Vec::new();
            for round in 0..2 {
                if round == 1 {
                    net.run_until(30_000, || false);
                }
                for op in &ops {
                    if late[&(op.src, op.dst, op.tag)] != (round == 1) {
                        continue;
                    }
                    bufs.push((
                        op.dst,
                        op.src,
                        op.tag,
                        vec![0u8; op.payload.len()],
                        op.payload.clone(),
                    ));
                }
            }
            for (rank, src, tag, buf, _) in bufs.iter_mut() {
                // SAFETY: `bufs` lives past `net.complete`.
                let r = unsafe {
                    net.device(*rank)
                        .irecv_raw(*src as i32, *tag, 0, buf.as_mut_ptr(), buf.len())
                        .unwrap()
                };
                reqs.push(r);
            }
            net.complete(&reqs, STEP_BUDGET, "progress_property_directed");
            for (i, (_, src, tag, buf, want)) in bufs.iter().enumerate() {
                if buf != want {
                    net.fail(
                        "progress_property_directed",
                        &format!(
                            "mode {mode}: channel ({src},{tag}) receive {i} mismatched \
                             (seed {seed})"
                        ),
                    );
                }
            }
        }
    }
}
