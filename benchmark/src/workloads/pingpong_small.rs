//! `pingpong_small`: a 4-byte managed array bounced between two ranks
//! with blocking `send_array`/`recv_array` (the left edge of Figure 9).
//!
//! Nothing here moves bytes to speak of, so the iteration is per-message
//! software overhead end to end: ring hop, framing, matching, locks and
//! the FCall boundary. The buffer is promoted to the elder generation in
//! set-up, as any long-lived communication buffer is after its first
//! collection, so the pinning policy takes its no-pin path; pin traffic is
//! `match_burst`'s subject.

use motor_api::Communicator;
use motor_core::cluster::MotorProc;

use super::{RankProgram, Spec, Workload};
use crate::harness::{must, RankRun};
use crate::inputs::Rng;

pub struct PingpongSmall {
    /// Seeded base of the stamp in the first four bytes; iteration `i`
    /// carries `base + i` out and its complement back.
    base: u32,
    bytes: usize,
}

impl PingpongSmall {
    pub fn new(seed: u64) -> PingpongSmall {
        PingpongSmall::sized(seed, 4)
    }

    /// The same ping-pong at another message size: the top rung of the
    /// per-layer ladder, which must be this workload's own code.
    pub fn sized(seed: u64, bytes: usize) -> PingpongSmall {
        assert!(bytes >= 4, "the message carries a four-byte stamp");
        PingpongSmall {
            base: Rng::new(seed, 1).next_u64() as u32,
            bytes,
        }
    }
}

impl Workload for PingpongSmall {
    fn spec(&self) -> Spec {
        Spec {
            name: "pingpong_small",
            batch: 20_000,
            min_batch: 1,
            ladder_bytes: self.bytes,
            payload_bytes_per_iter: 2 * self.bytes as u64,
            nonblocking_per_iter: 0,
        }
    }
}

impl RankProgram for PingpongSmall {
    fn rank(&self, proc: &MotorProc, run: &RankRun<'_>) {
        let comm = Communicator::bind(proc.mp());
        let buf = comm.alloc_array::<u8>(self.bytes);
        proc.thread().collect_minor();
        let base = self.base;
        let mut got = [0u8; 4];
        if comm.rank() == 0 {
            run.iterate(proc, |cx| {
                let ping = base.wrapping_add(cx.i as u32);
                buf.write(0, &ping.to_le_bytes());
                let s = cx.begin("api.communicator.send_array");
                must("send_array", comm.send_array(&buf, 1, 0));
                cx.end(s);
                let r = cx.begin("api.communicator.recv_array");
                must("recv_array", comm.recv_array(&buf, 1, 0));
                cx.end(r);
                buf.read(0, &mut got);
                if cx.flip_now() {
                    got[0] ^= 1;
                }
                cx.ops += 2;
                cx.check(u32::from_le_bytes(got) == !ping);
            });
        } else {
            run.iterate(proc, |cx| {
                let ping = base.wrapping_add(cx.i as u32);
                let r = cx.begin("api.communicator.recv_array");
                must("recv_array", comm.recv_array(&buf, 0, 0));
                cx.end(r);
                buf.read(0, &mut got);
                cx.check(u32::from_le_bytes(got) == ping);
                buf.write(0, &(!ping).to_le_bytes());
                let s = cx.begin("api.communicator.send_array");
                must("send_array", comm.send_array(&buf, 0, 0));
                cx.end(s);
                cx.ops += 2;
            });
        }
    }
}
