//! The per-layer ladder: the same two message patterns replayed at each
//! rung by calling that layer's public functions directly, over the real
//! layers beneath it.
//!
//! * **rtt** — a ping-pong of `bytes`-sized messages whose first four
//!   bytes carry the iteration (checked and complemented by the server).
//!   A rung's `self_us` is its median round trip minus that of the rung
//!   below, so the seven `self_us` values telescope to the top rung.
//! * **stream** — `stream_large`'s window: eight 256 KiB messages one
//!   way, released by a 4-byte token the other way.
//!
//! The five lower rungs run on two threads the harness starts itself; the
//! managed rungs (`core.mp`, `api.communicator`) run inside a cluster like
//! any workload.

use std::sync::atomic::AtomicU32;
use std::sync::Arc;
use std::time::Duration;

use motor_core::cluster::MotorProc;
use motor_mpc::channel::{LinkState, PacketSink, RndvDest};
use motor_mpc::packet::{self, Envelope};
use motor_mpc::{Comm, Device, Request};
use motor_pal::link::{read_exact, shm_pair, write_all, ShmLink};
use motor_pal::ring::{ring, RingConsumer, RingProducer};
use motor_runtime::{ElemKind, Handle};

use crate::harness::{
    client_phase, must, run_workload, server_phase, universe_config, Cx, Pace, Phase, Plan,
    RankRun, Timing,
};
use crate::stats::median;
use crate::sys;
use crate::workloads::stream_large::{MSG_BYTES, TOKEN_TAG, WINDOW};
use crate::workloads::{PingpongSmall, RankProgram};

/// Rungs of the round-trip ladder, bottom first.
pub const RTT_RUNGS: [&str; 7] = [
    "pal.ring",
    "pal.link",
    "mpc.channel",
    "mpc.device",
    "mpc.comm",
    "core.mp",
    "api.communicator",
];

/// Rungs of the streaming ladder, bottom first.
pub const STREAM_RUNGS: [&str; 5] = ["pal.ring", "pal.link", "mpc.device", "mpc.comm", "core.mp"];

/// How long and in what batches each rung runs.
#[derive(Debug, Clone, Copy)]
pub struct LadderPlan {
    pub batch: u64,
    pub min_batches: u64,
    /// Time per rung and round.
    pub budget: Duration,
    pub rounds: u64,
}

/// One rung's measurement.
pub struct Rung {
    pub name: &'static str,
    /// Median iteration time.
    pub p50_us: f64,
    /// Median batch rate.
    pub iters_per_s: f64,
    pub iters: u64,
    pub checks: u64,
    pub failed: u64,
}

impl Rung {
    fn new(name: &'static str, timing: &Timing, checks: u64, failed: u64) -> Rung {
        Rung {
            name,
            p50_us: timing.hist.quantile(0.5) / 1e3,
            iters_per_s: median(&timing.batch_rates),
            iters: timing.iters,
            checks,
            failed,
        }
    }
}

/// Climb the ladder `rounds` times and keep each rung's median over the
/// rounds. The machine's speed drifts over seconds; a rung measured in one
/// stretch and its neighbour in the next would put that drift into their
/// difference, and `self_us` is exactly that difference.
fn in_rounds(rounds: u64, mut climb: impl FnMut() -> Vec<Rung>) -> Vec<Rung> {
    let all: Vec<Vec<Rung>> = (0..rounds.max(1)).map(|_| climb()).collect();
    let over =
        |k: usize, f: fn(&Rung) -> f64| median(&all.iter().map(|r| f(&r[k])).collect::<Vec<_>>());
    let sum = |k: usize, f: fn(&Rung) -> u64| all.iter().map(|r| f(&r[k])).sum();
    (0..all[0].len())
        .map(|k| Rung {
            name: all[0][k].name,
            p50_us: over(k, |r| r.p50_us),
            iters_per_s: over(k, |r| r.iters_per_s),
            iters: sum(k, |r| r.iters),
            checks: sum(k, |r| r.checks),
            failed: sum(k, |r| r.failed),
        })
        .collect()
}

/// One side of a rung: the layer's calls behind blocking send/receive and
/// the window forms the stream pattern needs.
trait Endpoint: Send {
    fn send(&mut self, buf: &[u8], tag: i32);

    /// Receive exactly `buf.len()` bytes.
    fn recv(&mut self, buf: &mut Vec<u8>, tag: i32);

    /// Send a window of messages, tags `0..`.
    fn send_window(&mut self, msgs: &[Vec<u8>]) {
        for (k, m) in msgs.iter().enumerate() {
            self.send(m, k as i32);
        }
    }

    /// Receive a window; `release` runs once the receives are posted (for
    /// a byte stream, which has nothing to post, straight away).
    fn recv_window(&mut self, bufs: &mut [Vec<u8>], release: &mut dyn FnMut(&mut Self)) {
        release(self);
        for (k, b) in bufs.iter_mut().enumerate() {
            self.recv(b, k as i32);
        }
    }

    /// Flush whatever the layer still buffers before the thread ends.
    fn finish(&mut self) {}
}

// ---------------------------------------------------------------------
// pal.ring: two SPSC rings, try_write / try_read
// ---------------------------------------------------------------------

struct RingEnd {
    tx: RingProducer,
    rx: RingConsumer,
}

fn ring_pair(capacity: usize) -> (RingEnd, RingEnd) {
    let (tx_ab, rx_ab) = ring(capacity);
    let (tx_ba, rx_ba) = ring(capacity);
    (
        RingEnd {
            tx: tx_ab,
            rx: rx_ba,
        },
        RingEnd {
            tx: tx_ba,
            rx: rx_ab,
        },
    )
}

impl Endpoint for RingEnd {
    fn send(&mut self, mut buf: &[u8], _tag: i32) {
        while !buf.is_empty() {
            let n = must("ring try_write", self.tx.try_write(buf));
            buf = &buf[n..];
            if n == 0 {
                std::hint::spin_loop();
            }
        }
    }

    fn recv(&mut self, buf: &mut Vec<u8>, _tag: i32) {
        let mut off = 0;
        while off < buf.len() {
            let n = must("ring try_read", self.rx.try_read(&mut buf[off..]));
            off += n;
            if n == 0 {
                std::hint::spin_loop();
            }
        }
    }
}

// ---------------------------------------------------------------------
// pal.link: shm_pair behind the ByteLink object, write_all / read_exact
// ---------------------------------------------------------------------

struct LinkEnd(ShmLink);

fn link_pair(capacity: usize) -> (LinkEnd, LinkEnd) {
    let (a, b) = shm_pair(capacity);
    (LinkEnd(a), LinkEnd(b))
}

impl Endpoint for LinkEnd {
    fn send(&mut self, buf: &[u8], _tag: i32) {
        must("link write_all", write_all(&mut self.0, buf));
    }

    fn recv(&mut self, buf: &mut Vec<u8>, _tag: i32) {
        must("link read_exact", read_exact(&mut self.0, buf));
    }
}

// ---------------------------------------------------------------------
// mpc.channel: eager frames through LinkState queues and the parser
// ---------------------------------------------------------------------

fn envelope(rank: usize, tag: i32) -> Envelope {
    Envelope {
        src: rank as u32,
        gsrc: rank as u32,
        tag,
        context: 0,
        len: 0,
        sreq: 0,
        flags: 0,
    }
}

/// Keeps the body of the last eager frame; the ladder sends nothing else.
#[derive(Default)]
struct EagerSink {
    body: Vec<u8>,
    arrived: bool,
}

impl PacketSink for EagerSink {
    fn on_eager(&mut self, _env: Envelope, data: &[u8]) {
        self.body.clear();
        self.body.extend_from_slice(data);
        self.arrived = true;
    }
    fn on_rts(&mut self, _env: Envelope) {}
    fn on_cts(&mut self, _sreq: u64, _rreq: u64) {}
    fn on_sync_ack(&mut self, _sreq: u64) {}
    fn rndv_dest(&mut self, _rreq: u64, _total: usize) -> RndvDest {
        RndvDest::Discard
    }
    fn on_rndv_complete(&mut self, _rreq: u64, _total: usize) {}
}

struct ChannelEnd {
    rank: usize,
    link: LinkState,
    sink: EagerSink,
}

fn channel_pair(capacity: usize) -> (ChannelEnd, ChannelEnd) {
    let (a, b) = shm_pair(capacity);
    let end = |rank, link: ShmLink| ChannelEnd {
        rank,
        link: LinkState::new(Box::new(link)),
        sink: EagerSink::default(),
    };
    (end(0, a), end(1, b))
}

impl Endpoint for ChannelEnd {
    fn send(&mut self, buf: &[u8], tag: i32) {
        let mut env = envelope(self.rank, tag);
        env.len = buf.len() as u64;
        self.link.queue_bytes(packet::encode_eager(&env, buf));
        while self.link.has_pending_out() {
            must("pump_out", self.link.pump_out());
        }
    }

    fn recv(&mut self, buf: &mut Vec<u8>, _tag: i32) {
        self.sink.arrived = false;
        while !self.sink.arrived {
            must("pump_in", self.link.pump_in(&mut self.sink));
        }
        assert_eq!(self.sink.body.len(), buf.len(), "eager frame size");
        std::mem::swap(&mut self.sink.body, buf);
    }
}

// ---------------------------------------------------------------------
// mpc.device: isend_raw / irecv_raw / wait_with on a wired Device pair
// ---------------------------------------------------------------------

struct DeviceEnd {
    dev: Arc<Device>,
    peer: usize,
}

impl DeviceEnd {
    fn isend(&self, buf: &[u8], tag: i32) -> Request {
        let env = envelope(self.dev.rank(), tag);
        // SAFETY: every caller waits for the request while `buf` is still
        // borrowed, and a `Vec`'s storage does not move.
        must("isend_raw", unsafe {
            self.dev
                .isend_raw(self.peer, env, buf.as_ptr(), buf.len(), false)
        })
    }

    fn irecv(&self, buf: &mut [u8], tag: i32) -> Request {
        // SAFETY: as in `isend`.
        must("irecv_raw", unsafe {
            self.dev
                .irecv_raw(self.peer as i32, tag, 0, buf.as_mut_ptr(), buf.len())
        })
    }

    fn wait(&self, req: &Request) {
        must("wait_with", self.dev.wait_with(req, || {}));
    }
}

impl Endpoint for DeviceEnd {
    fn send(&mut self, buf: &[u8], tag: i32) {
        let req = self.isend(buf, tag);
        self.wait(&req);
    }

    fn recv(&mut self, buf: &mut Vec<u8>, tag: i32) {
        let req = self.irecv(buf, tag);
        self.wait(&req);
    }

    fn send_window(&mut self, msgs: &[Vec<u8>]) {
        let reqs: Vec<_> = msgs
            .iter()
            .enumerate()
            .map(|(k, m)| self.isend(m, k as i32))
            .collect();
        reqs.iter().for_each(|r| self.wait(r));
    }

    fn recv_window(&mut self, bufs: &mut [Vec<u8>], release: &mut dyn FnMut(&mut Self)) {
        let reqs: Vec<_> = bufs
            .iter_mut()
            .enumerate()
            .map(|(k, b)| self.irecv(b, k as i32))
            .collect();
        release(self);
        reqs.iter().for_each(|r| self.wait(r));
    }

    fn finish(&mut self) {
        must("drain", self.dev.drain());
    }
}

/// Two devices wired to each other exactly as the universe wires a
/// two-rank world: the harness's device tuning over one shm link.
fn wired_devices() -> (Arc<Device>, Arc<Device>) {
    let config = universe_config();
    let (a, b) = shm_pair(config.ring_capacity);
    let (d0, d1) = (
        Device::new(0, config.device.clone()),
        Device::new(1, config.device),
    );
    d0.set_link(1, LinkState::new(Box::new(a)));
    d1.set_link(0, LinkState::new(Box::new(b)));
    (d0, d1)
}

fn device_pair() -> (DeviceEnd, DeviceEnd) {
    let (d0, d1) = wired_devices();
    (
        DeviceEnd { dev: d0, peer: 1 },
        DeviceEnd { dev: d1, peer: 0 },
    )
}

// ---------------------------------------------------------------------
// mpc.comm: send_bytes / recv_bytes on a communicator over such a pair
// ---------------------------------------------------------------------

struct CommEnd {
    comm: Comm,
    peer: usize,
}

fn comm_pair() -> (CommEnd, CommEnd) {
    let (d0, d1) = wired_devices();
    let group = Arc::new(vec![0, 1]);
    let ctx = Arc::new(AtomicU32::new(2));
    let end = |dev, rank| CommEnd {
        comm: Comm::assemble(dev, 0, Arc::clone(&group), rank, Arc::clone(&ctx)),
        peer: 1 - rank,
    };
    (end(d0, 0), end(d1, 1))
}

impl Endpoint for CommEnd {
    fn send(&mut self, buf: &[u8], tag: i32) {
        must("send_bytes", self.comm.send_bytes(buf, self.peer, tag));
    }

    fn recv(&mut self, buf: &mut Vec<u8>, tag: i32) {
        must("recv_bytes", self.comm.recv_bytes(buf, self.peer, tag));
    }

    fn send_window(&mut self, msgs: &[Vec<u8>]) {
        let reqs: Vec<_> = msgs
            .iter()
            .enumerate()
            // SAFETY: waited for below, while `msgs` is still borrowed.
            .map(|(k, m)| {
                must("isend_ptr", unsafe {
                    self.comm
                        .isend_ptr(m.as_ptr(), m.len(), self.peer, k as i32)
                })
            })
            .collect();
        must("waitall", self.comm.waitall(&reqs));
    }

    fn recv_window(&mut self, bufs: &mut [Vec<u8>], release: &mut dyn FnMut(&mut Self)) {
        let reqs: Vec<_> = bufs
            .iter_mut()
            .enumerate()
            // SAFETY: waited for below, while `bufs` is still borrowed.
            .map(|(k, b)| {
                must("irecv_ptr", unsafe {
                    self.comm
                        .irecv_ptr(b.as_mut_ptr(), b.len(), self.peer, k as i32)
                })
            })
            .collect();
        release(self);
        must("waitall", self.comm.waitall(&reqs));
    }

    fn finish(&mut self) {
        must("drain", self.comm.device().drain());
    }
}

// ---------------------------------------------------------------------
// The two patterns over any endpoint pair
// ---------------------------------------------------------------------

/// Run `client` and `server` as the two ends of one phase, each on its
/// own thread (the calling thread only joins).
fn duel<E: Endpoint>(
    name: &'static str,
    plan: LadderPlan,
    mut client: impl FnMut(&mut Cx) + Send,
    mut served: E,
    mut server: impl FnMut(&mut E, &mut Cx) + Send,
) -> Rung {
    let pace = Pace::default();
    let pace = &pace;
    std::thread::scope(|s| {
        let serving = s.spawn(move || {
            sys::start_on_cpu(1);
            let mut cx = Cx::new(None);
            let mut serve = |cx: &mut Cx| server(&mut served, cx);
            server_phase(pace, plan.batch, &mut 0, 0, &mut cx, &mut serve);
            served.finish();
            pace.ack_phase();
            cx
        });
        let measuring = s.spawn(move || {
            sys::start_on_cpu(0);
            let mut cx = Cx::new(None);
            let timing = client_phase(
                pace,
                plan.batch,
                plan.min_batches,
                plan.budget,
                &mut cx,
                &mut client,
            );
            pace.end_phase();
            (timing, cx)
        });
        let served = serving.join().expect("ladder server thread");
        let (timing, cx) = measuring.join().expect("ladder client thread");
        Rung::new(
            name,
            &timing,
            cx.checks + served.checks,
            cx.failed + served.failed,
        )
    })
}

fn stamp_of(buf: &[u8]) -> u32 {
    u32::from_le_bytes(buf[..4].try_into().expect("four stamp bytes"))
}

fn rtt_duel<E: Endpoint>(
    name: &'static str,
    plan: LadderPlan,
    bytes: usize,
    base: u32,
    (mut a, b): (E, E),
) -> Rung {
    assert!(bytes >= 4, "ladder messages carry a four-byte stamp");
    let (mut ping, mut pong) = (vec![0u8; bytes], vec![0u8; bytes]);
    duel(
        name,
        plan,
        |cx| {
            let stamp = base.wrapping_add(cx.i as u32);
            ping[..4].copy_from_slice(&stamp.to_le_bytes());
            a.send(&ping, 0);
            a.recv(&mut ping, 0);
            cx.check(stamp_of(&ping) == !stamp);
        },
        b,
        |b, cx| {
            let stamp = base.wrapping_add(cx.i as u32);
            b.recv(&mut pong, 0);
            cx.check(stamp_of(&pong) == stamp);
            pong[..4].copy_from_slice(&(!stamp).to_le_bytes());
            b.send(&pong, 0);
        },
    )
}

fn stream_duel<E: Endpoint>(name: &'static str, plan: LadderPlan, (mut a, b): (E, E)) -> Rung {
    let mut msgs = vec![vec![0x5Au8; MSG_BYTES]; WINDOW];
    let mut bufs = vec![vec![0u8; MSG_BYTES]; WINDOW];
    let (mut tok_in, mut tok_out) = (vec![0u8; 4], [0u8; 4]);
    duel(
        name,
        plan,
        |cx| {
            a.recv(&mut tok_in, TOKEN_TAG);
            cx.check(stamp_of(&tok_in) == cx.i as u32);
            for m in msgs.iter_mut() {
                m[..4].copy_from_slice(&(cx.i as u32).to_le_bytes());
            }
            a.send_window(&msgs);
        },
        b,
        |b, cx| {
            tok_out = (cx.i as u32).to_le_bytes();
            b.recv_window(&mut bufs, &mut |b| b.send(&tok_out, TOKEN_TAG));
            cx.check(bufs.iter().all(|m| stamp_of(m) == cx.i as u32));
        },
    )
}

// ---------------------------------------------------------------------
// core.mp: the managed bindings, inside a cluster
// ---------------------------------------------------------------------

/// `Mp::send`/`Mp::recv` ping-pong of one elder managed array.
struct MpPingpong {
    bytes: usize,
    base: u32,
}

impl RankProgram for MpPingpong {
    fn rank(&self, proc: &MotorProc, run: &RankRun<'_>) {
        let mp = proc.mp();
        let t = proc.thread();
        let buf = t.alloc_prim_array(ElemKind::U8, self.bytes);
        t.collect_minor();
        let base = self.base;
        let mut got = [0u8; 4];
        if mp.rank() == 0 {
            run.iterate(proc, |cx| {
                let stamp = base.wrapping_add(cx.i as u32);
                t.prim_write(buf, 0, &stamp.to_le_bytes());
                must("Mp::send", mp.send(buf, 1, 0));
                must("Mp::recv", mp.recv(buf, 1, 0));
                t.prim_read(buf, 0, &mut got);
                cx.check(u32::from_le_bytes(got) == !stamp);
            });
        } else {
            run.iterate(proc, |cx| {
                let stamp = base.wrapping_add(cx.i as u32);
                must("Mp::recv", mp.recv(buf, 0, 0));
                t.prim_read(buf, 0, &mut got);
                cx.check(u32::from_le_bytes(got) == stamp);
                t.prim_write(buf, 0, &(!stamp).to_le_bytes());
                must("Mp::send", mp.send(buf, 0, 0));
            });
        }
        t.release(buf);
    }
}

/// `stream_large`'s window on `Mp::isend`/`irecv`/`wait`.
struct MpStream;

impl RankProgram for MpStream {
    fn rank(&self, proc: &MotorProc, run: &RankRun<'_>) {
        let mp = proc.mp();
        let t = proc.thread();
        let token = t.alloc_prim_array(ElemKind::U8, 4);
        let bufs: Vec<Handle> = (0..WINDOW)
            .map(|_| t.alloc_prim_array(ElemKind::U8, MSG_BYTES))
            .collect();
        let mut tok = [0u8; 4];
        if mp.rank() == 0 {
            run.iterate(proc, |cx| {
                must("Mp::recv", mp.recv(token, 1, TOKEN_TAG));
                t.prim_read(token, 0, &mut tok);
                cx.check(u32::from_le_bytes(tok) == cx.i as u32);
                for &b in &bufs {
                    t.prim_write(b, 0, &(cx.i as u32).to_le_bytes());
                }
                let mut reqs: Vec<_> = bufs
                    .iter()
                    .enumerate()
                    .map(|(k, &b)| must("Mp::isend", mp.isend(b, 1, k as i32)))
                    .collect();
                for r in reqs.iter_mut() {
                    must("Mp::wait", mp.wait(r));
                }
            });
        } else {
            run.iterate(proc, |cx| {
                let mut reqs: Vec<_> = bufs
                    .iter()
                    .enumerate()
                    .map(|(k, &b)| must("Mp::irecv", mp.irecv(b, 0, k as i32)))
                    .collect();
                t.prim_write(token, 0, &(cx.i as u32).to_le_bytes());
                must("Mp::send", mp.send(token, 0, TOKEN_TAG));
                for r in reqs.iter_mut() {
                    must("Mp::wait", mp.wait(r));
                }
                let stamped = bufs.iter().all(|&b| {
                    t.prim_read(b, 0, &mut tok);
                    u32::from_le_bytes(tok) == cx.i as u32
                });
                cx.check(stamped);
            });
        }
    }
}

/// Run a managed rung as a single untimed-warm-up, single-phase cluster.
fn managed_rung(name: &'static str, plan: LadderPlan, w: &dyn RankProgram) -> Rung {
    let out = run_workload(
        w,
        &Plan {
            setup_iters: 0,
            warmup_iters: plan.batch,
            batch: plan.batch,
            min_batches: plan.min_batches,
            phases: vec![Phase {
                budget: plan.budget,
                traced: false,
            }],
            flip: false,
            span_cap: 0,
        },
    );
    let timing = out.ranks[0].phases[0]
        .timing
        .as_ref()
        .expect("client timing");
    Rung::new(
        name,
        timing,
        out.ranks.iter().map(|r| r.checks).sum(),
        out.ranks.iter().map(|r| r.failed).sum(),
    )
}

/// Measure the round-trip ladder at `bytes`, bottom rung first.
pub fn rtt_ladder(plan: LadderPlan, bytes: usize, base: u32) -> Vec<Rung> {
    let cap = universe_config().ring_capacity;
    in_rounds(plan.rounds, || {
        vec![
            rtt_duel(RTT_RUNGS[0], plan, bytes, base, ring_pair(cap)),
            rtt_duel(RTT_RUNGS[1], plan, bytes, base, link_pair(cap)),
            rtt_duel(RTT_RUNGS[2], plan, bytes, base, channel_pair(cap)),
            rtt_duel(RTT_RUNGS[3], plan, bytes, base, device_pair()),
            rtt_duel(RTT_RUNGS[4], plan, bytes, base, comm_pair()),
            managed_rung(RTT_RUNGS[5], plan, &MpPingpong { bytes, base }),
            managed_rung(
                RTT_RUNGS[6],
                plan,
                &PingpongSmall::sized(u64::from(base), bytes),
            ),
        ]
    })
}

/// Measure the streaming ladder, bottom rung first.
pub fn stream_ladder(plan: LadderPlan) -> Vec<Rung> {
    let cap = universe_config().ring_capacity;
    in_rounds(plan.rounds, || {
        vec![
            stream_duel(STREAM_RUNGS[0], plan, ring_pair(cap)),
            stream_duel(STREAM_RUNGS[1], plan, link_pair(cap)),
            stream_duel(STREAM_RUNGS[2], plan, device_pair()),
            stream_duel(STREAM_RUNGS[3], plan, comm_pair()),
            managed_rung(STREAM_RUNGS[4], plan, &MpStream),
        ]
    })
}

/// Megabytes per second a stream rung moved.
pub fn stream_mb_s(rung: &Rung) -> f64 {
    rung.iters_per_s * (WINDOW * MSG_BYTES) as f64 / 1e6
}
