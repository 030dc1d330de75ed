//! `match_burst`: deep matching queues and many live requests on the same
//! device `pingpong_small` uses at depth one.
//!
//! Each iteration has two phases of 256 messages of 64 bytes, tags
//! 0..256, sent with `isend_array` in tag order:
//!
//! * **unexpected** — rank 0 sends the burst and then a token; rank 1
//!   receives the token first (so all 256 messages are waiting in the
//!   unexpected queue) and only then posts its 256 `irecv_array` in a
//!   seeded permutation of the tags;
//! * **posted** — rank 1 posts 256 `irecv_array` in another seeded
//!   permutation, then releases rank 0 with a token; the burst arrives
//!   into a posted queue 256 deep.
//!
//! A final token closes the loop. Both ranks allocate their arrays afresh
//! every iteration, so the buffers are young, every non-blocking call
//! registers a conditional pin, and the allocation drives the minor
//! collections that resolve them. A change to the match path or to
//! request allocation that helps depth 1 and hurts depth 256 (or the
//! reverse) shows as a difference between this workload and
//! `pingpong_small`.

use motor_api::{ArrayBuf, Communicator, PendingArray};
use motor_core::cluster::MotorProc;

use super::{RankProgram, Spec, Workload};
use crate::harness::{must, Cx, RankRun};
use crate::inputs::Rng;

pub const BURST: usize = 256;
pub const MSG_BYTES: usize = 64;
const SENT_TAG: i32 = 1_000;
const POSTED_TAG: i32 = 1_001;
const DONE_TAG: i32 = 1_002;

pub struct MatchBurst {
    /// Seeded message bodies, `MSG_BYTES` each.
    bodies: Vec<u8>,
    /// Order rank 1 posts its receives in, per phase.
    post_order: [Vec<usize>; 2],
}

impl MatchBurst {
    pub fn new(seed: u64) -> MatchBurst {
        let mut rng = Rng::new(seed, 41);
        MatchBurst {
            bodies: Rng::new(seed, 40).bytes(BURST * MSG_BYTES),
            post_order: [rng.permutation(BURST), rng.permutation(BURST)],
        }
    }

    /// Message `k` of iteration `i`: the seeded body with the iteration
    /// number in its first eight bytes.
    fn message(&self, i: u64, k: usize) -> [u8; MSG_BYTES] {
        let mut m = [0u8; MSG_BYTES];
        m.copy_from_slice(&self.bodies[k * MSG_BYTES..(k + 1) * MSG_BYTES]);
        m[..8].copy_from_slice(&i.to_le_bytes());
        m
    }
}

/// Issue one non-blocking call per index of `order`, under one
/// `core.mp.post` span.
fn post<'a, 't: 'a>(
    cx: &mut Cx,
    order: impl Iterator<Item = usize>,
    call: impl Fn(usize) -> PendingArray<'a, 't>,
) -> Vec<PendingArray<'a, 't>> {
    let s = cx.begin("core.mp.post");
    let reqs: Vec<_> = order.map(call).collect();
    cx.end(s);
    cx.ops += reqs.len() as u64;
    reqs
}

/// Complete every request, under one `core.mp.wait` span.
fn wait_all(cx: &mut Cx, reqs: Vec<PendingArray<'_, '_>>) {
    let s = cx.begin("core.mp.wait");
    cx.ops += reqs.len() as u64;
    for r in reqs {
        must("wait", r.wait());
    }
    cx.end(s);
}

impl Workload for MatchBurst {
    fn spec(&self) -> Spec {
        Spec {
            name: "match_burst",
            batch: 25,
            min_batch: 1,
            ladder_bytes: MSG_BYTES,
            payload_bytes_per_iter: (2 * BURST * MSG_BYTES + 3 * 4) as u64,
            nonblocking_per_iter: 4 * BURST as u64,
        }
    }
}

impl RankProgram for MatchBurst {
    fn rank(&self, proc: &MotorProc, run: &RankRun<'_>) {
        let comm = Communicator::bind(proc.mp());
        let token = comm.alloc_array::<u8>(4);
        let mut tok = [0u8; 4];
        let send_token = |cx: &mut Cx, to: usize, tag: i32| {
            token.write(0, &(cx.i as u32).to_le_bytes());
            must("send_array", comm.send_array(&token, to, tag));
            cx.ops += 1;
        };
        let mut recv_token = |cx: &mut Cx, from: usize, tag: i32| {
            must("recv_array", comm.recv_array(&token, from, tag));
            token.read(0, &mut tok);
            cx.ops += 1;
            cx.check(u32::from_le_bytes(tok) == cx.i as u32);
        };
        if comm.rank() == 0 {
            run.iterate(proc, |cx| {
                let i = cx.i;
                let s = cx.begin("app.alloc");
                let bufs: Vec<ArrayBuf<'_, u8>> = (0..BURST)
                    .map(|k| comm.array_from(&self.message(i, k)))
                    .collect();
                cx.end(s);
                let send = |k: usize| must("isend_array", comm.isend_array(&bufs[k], 1, k as i32));
                let reqs = post(cx, 0..BURST, send);
                send_token(cx, 1, SENT_TAG);
                wait_all(cx, reqs);
                recv_token(cx, 1, POSTED_TAG);
                let reqs = post(cx, 0..BURST, send);
                wait_all(cx, reqs);
                recv_token(cx, 1, DONE_TAG);
            });
        } else {
            let mut got = [0u8; MSG_BYTES];
            run.iterate(proc, |cx| {
                let i = cx.i;
                for (phase, order) in self.post_order.iter().enumerate() {
                    if phase == 0 {
                        recv_token(cx, 0, SENT_TAG);
                    }
                    let s = cx.begin("app.alloc");
                    let bufs: Vec<ArrayBuf<'_, u8>> =
                        (0..BURST).map(|_| comm.alloc_array(MSG_BYTES)).collect();
                    cx.end(s);
                    let recv =
                        |k: usize| must("irecv_array", comm.irecv_array(&bufs[k], 0, k as i32));
                    let reqs = post(cx, order.iter().copied(), recv);
                    if phase == 1 {
                        send_token(cx, 0, POSTED_TAG);
                    }
                    wait_all(cx, reqs);
                    for (k, b) in bufs.iter().enumerate() {
                        b.read(0, &mut got);
                        if cx.flip_now() && phase == 0 && k == 0 {
                            got[MSG_BYTES - 1] ^= 1;
                        }
                        cx.check(got == self.message(i, k));
                    }
                }
                send_token(cx, 0, DONE_TAG);
            });
        }
    }
}
