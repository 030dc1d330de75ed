//! `SimLink` — a fault-injecting, virtually-clocked [`ByteLink`].
//!
//! Each direction of a simulated pair is a [`Wire`]: an ordered queue of
//! `(ready_tick, byte)` entries governed by a [`FaultPlan`] and a shared
//! [`VirtualClock`]. Chunk caps and jitter model partial I/O, per-byte
//! ready ticks model latency, alternating read windows model asymmetric
//! stalls, and a byte-count fuse models mid-message link closure. All
//! randomness comes from a forked [`SimRng`], so identical seeds replay
//! identical byte schedules.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use motor_pal::{ByteLink, PalError, PalResult, TickSource, VirtualClock, WakeCells};
use parking_lot::Mutex;

use crate::fault::FaultPlan;
use crate::rng::SimRng;

struct WireState {
    /// Bytes in flight: `(ready_tick, byte)`, ordered by write time.
    queue: VecDeque<(u64, u8)>,
    /// Total bytes ever accepted (drives `close_after`).
    written: u64,
    rng: SimRng,
}

/// One direction of a simulated link.
pub struct Wire {
    clock: Arc<VirtualClock>,
    plan: FaultPlan,
    state: Mutex<WireState>,
    closed: AtomicBool,
    /// Nudge the clock forward when a read finds nothing deliverable.
    /// Off in [`SimNet`](crate::net::SimNet) (the scheduler owns time);
    /// on under threaded fabrics, where nobody else advances it.
    advance_on_idle: bool,
}

impl Wire {
    fn new(
        clock: Arc<VirtualClock>,
        plan: FaultPlan,
        rng: SimRng,
        advance_on_idle: bool,
    ) -> Arc<Wire> {
        Arc::new(Wire {
            clock,
            plan,
            state: Mutex::new(WireState {
                queue: VecDeque::new(),
                written: 0,
                rng,
            }),
            closed: AtomicBool::new(false),
            advance_on_idle,
        })
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.state.lock().queue.clear();
    }

    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Whether reads are inside a stall window at `now`.
    fn stalled(&self, now: u64) -> bool {
        self.plan.stall_period > 0 && (now / self.plan.stall_period) % 2 == 1
    }

    fn chunk(cap: Option<usize>, jitter: bool, rng: &mut SimRng, want: usize) -> usize {
        match cap {
            None => want,
            Some(c) => {
                let c = if jitter && c > 1 {
                    rng.range(1, c as u64) as usize
                } else {
                    c
                };
                want.min(c.max(1))
            }
        }
    }

    fn write(&self, src: &[u8]) -> PalResult<usize> {
        if self.is_closed() {
            return Err(PalError::Disconnected);
        }
        if src.is_empty() {
            return Ok(0);
        }
        let mut st = self.state.lock();
        let mut n = Self::chunk(
            self.plan.write_chunk,
            self.plan.jitter,
            &mut st.rng,
            src.len(),
        );
        if let Some(fuse) = self.plan.close_after {
            let remaining = fuse.saturating_sub(st.written) as usize;
            if remaining == 0 {
                drop(st);
                self.close();
                return Err(PalError::Disconnected);
            }
            n = n.min(remaining);
        }
        let ready = self.clock.now_ticks() + self.plan.latency_ticks;
        for &b in &src[..n] {
            st.queue.push_back((ready, b));
        }
        st.written += n as u64;
        let blown = self.plan.close_after.is_some_and(|fuse| st.written >= fuse);
        drop(st);
        if blown {
            // The fuse byte count is reached: drop everything still queued
            // so the reader sees a mid-message disconnect, not a tidy EOF.
            self.close();
        }
        Ok(n)
    }

    fn read(&self, dst: &mut [u8]) -> PalResult<usize> {
        if self.is_closed() {
            return Err(PalError::Disconnected);
        }
        if dst.is_empty() {
            return Ok(0);
        }
        let now = self.clock.now_ticks();
        if self.stalled(now) {
            if self.advance_on_idle {
                self.clock.advance(1);
            }
            return Ok(0);
        }
        let mut st = self.state.lock();
        let n = Self::chunk(
            self.plan.read_chunk,
            self.plan.jitter,
            &mut st.rng,
            dst.len(),
        );
        let mut got = 0;
        while got < n {
            match st.queue.front() {
                Some(&(ready, b)) if ready <= now => {
                    dst[got] = b;
                    got += 1;
                    st.queue.pop_front();
                }
                _ => break,
            }
        }
        if got == 0 && self.advance_on_idle {
            self.clock.advance(1);
        }
        Ok(got)
    }
}

/// One endpoint of a simulated pair: transmits on one wire, receives on
/// the other.
pub struct SimLink {
    tx: Arc<Wire>,
    rx: Arc<Wire>,
    wake: WakeCells,
}

impl ByteLink for SimLink {
    fn try_write(&mut self, src: &[u8]) -> PalResult<usize> {
        self.tx.write(src)
    }

    fn try_read(&mut self, dst: &mut [u8]) -> PalResult<usize> {
        self.rx.read(dst)
    }

    fn is_closed(&self) -> bool {
        self.tx.is_closed() || self.rx.is_closed()
    }

    fn wake_cells(&self) -> Option<WakeCells> {
        Some(self.wake.clone())
    }
}

/// External control over a simulated pair: inject a link failure at a
/// chosen point in the schedule.
#[derive(Clone)]
pub struct LinkControl {
    ab: Arc<Wire>,
    ba: Arc<Wire>,
}

impl LinkControl {
    /// Sever both directions. Queued-but-undelivered bytes are dropped;
    /// the next I/O on either endpoint observes `PalError::Disconnected`.
    pub fn close(&self) {
        self.ab.close();
        self.ba.close();
    }

    /// Whether the pair has been severed (by this control or a fuse).
    pub fn is_closed(&self) -> bool {
        self.ab.is_closed() || self.ba.is_closed()
    }
}

/// A connected simulated pair over `clock`. `plan_ab` governs the first
/// endpoint's transmit direction, `plan_ba` the second's — differing plans
/// give asymmetric links. `advance_on_idle` lets reads nudge the clock
/// when no scheduler owns it (threaded fabrics).
pub fn sim_pair(
    clock: &Arc<VirtualClock>,
    plan_ab: FaultPlan,
    plan_ba: FaultPlan,
    rng: &mut SimRng,
    advance_on_idle: bool,
) -> (SimLink, SimLink, LinkControl) {
    let ab = Wire::new(Arc::clone(clock), plan_ab, rng.fork(), advance_on_idle);
    let ba = Wire::new(Arc::clone(clock), plan_ba, rng.fork(), advance_on_idle);
    let (a_wake, b_wake) = WakeCells::pair();
    (
        SimLink {
            tx: Arc::clone(&ab),
            rx: Arc::clone(&ba),
            wake: a_wake,
        },
        SimLink {
            tx: Arc::clone(&ba),
            rx: Arc::clone(&ab),
            wake: b_wake,
        },
        LinkControl { ab, ba },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(plan: FaultPlan) -> (SimLink, SimLink, LinkControl, Arc<VirtualClock>) {
        let clock = VirtualClock::new();
        let mut rng = SimRng::new(1);
        let (a, b, c) = sim_pair(&clock, plan.clone(), plan, &mut rng, false);
        (a, b, c, clock)
    }

    #[test]
    fn clean_pair_moves_bytes_both_ways() {
        let (mut a, mut b, _c, _clock) = pair(FaultPlan::clean());
        assert_eq!(a.try_write(b"hello").unwrap(), 5);
        let mut buf = [0u8; 8];
        assert_eq!(b.try_read(&mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"hello");
        assert_eq!(b.try_write(b"ok").unwrap(), 2);
        assert_eq!(a.try_read(&mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], b"ok");
    }

    #[test]
    fn one_byte_trickle_caps_every_call() {
        let (mut a, mut b, _c, _clock) = pair(FaultPlan::trickle(1));
        assert_eq!(a.try_write(b"abc").unwrap(), 1);
        assert_eq!(a.try_write(b"bc").unwrap(), 1);
        assert_eq!(a.try_write(b"c").unwrap(), 1);
        let mut buf = [0u8; 8];
        assert_eq!(b.try_read(&mut buf).unwrap(), 1);
        assert_eq!(buf[0], b'a');
        assert_eq!(b.try_read(&mut buf).unwrap(), 1);
        assert_eq!(buf[0], b'b');
    }

    #[test]
    fn latency_holds_bytes_until_clock_advances() {
        let (mut a, mut b, _c, clock) = pair(FaultPlan::clean().with_latency(5));
        a.try_write(b"x").unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(b.try_read(&mut buf).unwrap(), 0, "not ready at t=0");
        clock.advance(4);
        assert_eq!(b.try_read(&mut buf).unwrap(), 0, "not ready at t=4");
        clock.advance(1);
        assert_eq!(b.try_read(&mut buf).unwrap(), 1, "ready at t=5");
        assert_eq!(buf[0], b'x');
    }

    #[test]
    fn stall_windows_alternate() {
        let (mut a, mut b, _c, clock) = pair(FaultPlan::clean().with_stall(10));
        a.try_write(b"y").unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(b.try_read(&mut buf).unwrap(), 1, "window [0,10) is open");
        a.try_write(b"z").unwrap();
        clock.advance(10);
        assert_eq!(b.try_read(&mut buf).unwrap(), 0, "window [10,20) stalls");
        clock.advance(10);
        assert_eq!(b.try_read(&mut buf).unwrap(), 1, "window [20,30) is open");
    }

    #[test]
    fn fuse_drops_undelivered_bytes_and_disconnects() {
        let (mut a, mut b, _c, _clock) = pair(FaultPlan::clean().with_close_after(4));
        assert_eq!(a.try_write(b"abcdef").unwrap(), 4, "fuse caps the write");
        assert!(a.is_closed());
        let mut buf = [0u8; 8];
        assert!(matches!(b.try_read(&mut buf), Err(PalError::Disconnected)));
        assert!(matches!(a.try_write(b"more"), Err(PalError::Disconnected)));
    }

    #[test]
    fn control_severs_both_directions() {
        let (mut a, mut b, c, _clock) = pair(FaultPlan::clean());
        a.try_write(b"q").unwrap();
        c.close();
        assert!(c.is_closed());
        let mut buf = [0u8; 1];
        assert!(matches!(b.try_read(&mut buf), Err(PalError::Disconnected)));
        assert!(matches!(a.try_write(b"r"), Err(PalError::Disconnected)));
        assert!(a.is_closed() && b.is_closed());
    }

    #[test]
    fn same_seed_same_jitter_schedule() {
        let sizes = |seed: u64| {
            let clock = VirtualClock::new();
            let mut rng = SimRng::new(seed);
            let (mut a, _b, _c) = sim_pair(
                &clock,
                FaultPlan::trickle(7),
                FaultPlan::trickle(7),
                &mut rng,
                false,
            );
            let payload = [0u8; 64];
            (0..10)
                .map(|_| a.try_write(&payload).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(sizes(42), sizes(42));
        assert_ne!(sizes(42), sizes(43));
    }
}
