//! `stream_large`: rank 0 streams windows of eight 256 KiB managed arrays
//! with `isend_array` into eight `irecv_array` that rank 1 posted before
//! it released the window with a 4-byte token. One iteration is one such
//! window.
//!
//! One iteration moves 2 MiB, so bytes dominate: the rendezvous handshake,
//! the pipelining of each message through the ring, the copies on either
//! side. It drives the same layers as `pingpong_small` the other way round
//! (non-blocking and rendezvous instead of blocking and eager), so a
//! latency trick that costs bandwidth shows here. The token is both the
//! acknowledgement of the previous window and the promise that the next
//! window's receives are posted, which keeps the loop closed.
//!
//! Arrays of this size are allocated directly in the elder generation, so
//! the non-blocking pin policy takes its elder path.
//!
//! Verification: every message carries the iteration and its index in its
//! first and last eight bytes, checked on all eight; one message per
//! window (rotating through the eight) is compared byte for byte. Comparing
//! all eight would add a quarter to the iteration in harness time.

use motor_api::{ArrayBuf, Communicator};
use motor_core::cluster::MotorProc;

use super::{RankProgram, Spec, Workload};
use crate::harness::{must, RankRun};
use crate::inputs::Rng;

pub const WINDOW: usize = 8;
pub const MSG_BYTES: usize = 256 * 1024;
pub const TOKEN_TAG: i32 = 1_000;

pub struct StreamLarge {
    /// One seeded pattern per message of the window.
    patterns: Vec<Vec<u8>>,
}

impl StreamLarge {
    pub fn new(seed: u64) -> StreamLarge {
        StreamLarge {
            patterns: (0..WINDOW)
                .map(|k| Rng::new(seed, 10 + k as u64).bytes(MSG_BYTES))
                .collect(),
        }
    }
}

/// The eight bytes opening message `k` of window `w` (counted from the
/// start of the run); the closing eight are their complement.
fn stamp(w: u64, k: usize) -> [u8; 8] {
    (w.wrapping_mul(WINDOW as u64) + k as u64).to_le_bytes()
}

fn closing(w: u64, k: usize) -> [u8; 8] {
    stamp(w, k).map(|b| !b)
}

impl Workload for StreamLarge {
    fn spec(&self) -> Spec {
        Spec {
            name: "stream_large",
            batch: 160,
            min_batch: 1,
            ladder_bytes: 4,
            payload_bytes_per_iter: (WINDOW * MSG_BYTES + 4) as u64,
            nonblocking_per_iter: 2 * WINDOW as u64,
        }
    }
}

impl RankProgram for StreamLarge {
    fn rank(&self, proc: &MotorProc, run: &RankRun<'_>) {
        let comm = Communicator::bind(proc.mp());
        let token = comm.alloc_array::<u8>(4);
        let mut tok = [0u8; 4];
        if comm.rank() == 0 {
            let bufs: Vec<ArrayBuf<'_, u8>> =
                self.patterns.iter().map(|p| comm.array_from(p)).collect();
            run.iterate(proc, |cx| {
                let w = cx.i;
                must("recv_array", comm.recv_array(&token, 1, TOKEN_TAG));
                token.read(0, &mut tok);
                cx.check(u32::from_le_bytes(tok) == w as u32);
                for (k, b) in bufs.iter().enumerate() {
                    b.write(0, &stamp(w, k));
                    b.write(MSG_BYTES - 8, &closing(w, k));
                }
                let p = cx.begin("core.mp.post");
                let reqs: Vec<_> = bufs
                    .iter()
                    .enumerate()
                    .map(|(k, b)| must("isend_array", comm.isend_array(b, 1, k as i32)))
                    .collect();
                cx.end(p);
                let s = cx.begin("core.mp.wait");
                for r in reqs {
                    must("wait", r.wait());
                }
                cx.end(s);
                cx.ops += 1 + 2 * WINDOW as u64;
            });
        } else {
            let bufs: Vec<ArrayBuf<'_, u8>> =
                (0..WINDOW).map(|_| comm.alloc_array(MSG_BYTES)).collect();
            let mut whole = vec![0u8; MSG_BYTES];
            let mut edge = [0u8; 8];
            run.iterate(proc, |cx| {
                let w = cx.i;
                let p = cx.begin("core.mp.post");
                let reqs: Vec<_> = bufs
                    .iter()
                    .enumerate()
                    .map(|(k, b)| must("irecv_array", comm.irecv_array(b, 0, k as i32)))
                    .collect();
                cx.end(p);
                token.write(0, &(w as u32).to_le_bytes());
                must("send_array", comm.send_array(&token, 0, TOKEN_TAG));
                let s = cx.begin("core.mp.wait");
                for r in reqs {
                    let st = must("wait", r.wait());
                    cx.check(st.bytes == MSG_BYTES);
                }
                cx.end(s);
                for (k, b) in bufs.iter().enumerate() {
                    b.read(0, &mut edge);
                    let opened = edge == stamp(w, k);
                    b.read(MSG_BYTES - 8, &mut edge);
                    cx.check(opened && edge == closing(w, k));
                }
                let k = (w % WINDOW as u64) as usize;
                bufs[k].read(0, &mut whole);
                if cx.flip_now() {
                    whole[MSG_BYTES / 2] ^= 1;
                }
                cx.check(whole[8..MSG_BYTES - 8] == self.patterns[k][8..MSG_BYTES - 8]);
                cx.ops += 1 + 2 * WINDOW as u64;
            });
        }
    }
}
