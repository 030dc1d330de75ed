//! The polling-wait primitives.
//!
//! Motor replaced MPICH2's blocking system calls with "a polling-wait,
//! which periodically releases and polls the garbage collector ... to
//! ensure that the thread performing the FCall does not block the entire
//! runtime when a garbage collection is required" (§7.1). The loop itself
//! lives where the thing polled lives (`motor_mpc::Device::wait_until`,
//! the only one in the stack) and is built from three pieces:
//!
//! * [`Backoff`] over a [`BackoffConfig`]: the ladder a wait that finds
//!   nothing to do climbs — spin, then yield the OS thread, then *park*.
//!   It never sleeps by itself: at the top it hands the caller a quantum
//!   ([`Backoff::park_quantum`]) to park on its waker for.
//! * [`Waker`]: the eventcount a wait parks on, notified by whoever makes
//!   something happen the waiter may be waiting for. The quantum only
//!   bounds a wake-up that never comes (a peer in another process, a
//!   simulated wire whose bytes ripen with the clock).
//! * [`WakeCells`]: how the notify crosses a link. The two ends of an
//!   in-process pair share two cells; each end's owner publishes its
//!   waker into its own, and whoever moves bytes through one end pokes
//!   the other's — written means input there, consumed means room. An
//!   owner that will never drive its end again marks it finished, which
//!   pokes the other end too: a wait for room there is over.
//!
//! # The wake-up protocol
//!
//! A waiter counts itself as parked *before its last look*:
//! [`Waker::prepare`] raises the parked count and takes the generation,
//! then the waiter looks at what it is waiting for, and only if there was
//! nothing does it [`park`](Parking::park) on that generation; otherwise
//! it drops the [`Parking`], which cancels. A notifier makes its change
//! visible, *then* calls [`Waker::notify`]: a `SeqCst` fence and a load
//! of the parked count. This is Dekker's argument — `prepare` fences
//! after raising the count, `notify` before reading it — so either the
//! waiter's look sees the change, or the notifier sees the count, bumps
//! the generation and signals, and the park sees the bump: no wake-up is
//! lost. While nobody is parked, `notify` writes nothing, so a message
//! moves no cache line of the waker between the two cores; spinning and
//! yielding waits never touch it.

use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// Tuning for the spin → yield → park wait ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffConfig {
    /// Laps spent spinning (lap `k` issues `2^k` `spin_loop` hints) before
    /// escalating to `thread::yield_now`.
    pub spin_limit: u32,
    /// Laps spent yielding before escalating to parking. Ignored when
    /// [`sleep`](Self::sleep) is `None`.
    pub yield_limit: u32,
    /// How long one park may last once the ladder is fully escalated —
    /// the bound on a wake-up that never comes, not the wake-up. `None`
    /// keeps yielding forever.
    pub sleep: Option<Duration>,
}

impl BackoffConfig {
    /// Spin/yield only — never park. For deterministic simulation, where
    /// a park would couple virtual time to the host scheduler.
    pub const fn no_sleep() -> Self {
        BackoffConfig {
            spin_limit: 6,
            yield_limit: u32::MAX,
            sleep: None,
        }
    }
}

impl Default for BackoffConfig {
    /// 6 spin laps, 64 yield laps, then parks of at most 100 µs. Parking
    /// only engages after a wait has already burned ~70 laps without
    /// progress, so fast-path latency is unaffected while long waits stop
    /// monopolising a core.
    fn default() -> Self {
        BackoffConfig {
            spin_limit: 6,
            yield_limit: 64,
            sleep: Some(Duration::from_micros(100)),
        }
    }
}

/// Exponential spin/yield backoff with a parking tier, reset on progress.
#[derive(Debug)]
pub struct Backoff {
    config: BackoffConfig,
    step: u32,
}

impl Backoff {
    /// A fresh backoff over `config`'s ladder.
    pub fn with_config(config: BackoffConfig) -> Self {
        Backoff { config, step: 0 }
    }

    /// Reset after the waited-for condition made progress.
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// Wait a little: spin with exponentially more `spin_loop` hints, then
    /// yield the OS thread. Climbs one rung per call until the parking
    /// tier, where the caller parks for [`park_quantum`](Self::park_quantum)
    /// instead of calling this.
    pub fn snooze(&mut self) {
        if self.step <= self.config.spin_limit {
            for _ in 0..(1u32 << self.step.min(16)) {
                std::hint::spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
        if self.park_quantum().is_none() {
            self.step = self.step.saturating_add(1);
        }
    }

    /// Once the ladder is fully escalated: how long the caller may park on
    /// its [`Waker`] before looking again.
    pub fn park_quantum(&self) -> Option<Duration> {
        let c = &self.config;
        c.sleep
            .filter(|_| self.step > c.spin_limit.saturating_add(c.yield_limit))
    }
}

/// An eventcount to park on: a waiter counts itself as parked
/// ([`prepare`](Waker::prepare)) before its last look, and
/// [`notify`](Waker::notify) writes nothing unless somebody is. See the
/// module docs for the protocol that makes a lost wake-up impossible.
#[derive(Default)]
pub struct Waker {
    /// Bumped by a notify that found somebody parked.
    gen: AtomicU64,
    /// Waiters holding a [`Parking`].
    parked: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Waker {
    /// Current generation: how many notifies have found somebody parked.
    pub fn generation(&self) -> u64 {
        self.gen.load(Ordering::SeqCst)
    }

    /// Something happened: if anybody is parked, advance the generation
    /// and wake them. Returns whether it had to — `false` is the path
    /// that writes nothing.
    pub fn notify(&self) -> bool {
        // The caller's change before the look at the count (module docs).
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::Relaxed) == 0 {
            return false;
        }
        self.gen.fetch_add(1, Ordering::SeqCst);
        // A parking waiter holds the lock from its re-check of the
        // generation until it is blocked on `cv`: taking it here orders
        // the signal after that.
        drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
        self.cv.notify_all();
        true
    }

    /// Count the caller as parked, before its last look at what it waits
    /// for. Park on the result if the look found nothing; drop it if the
    /// look found something.
    pub fn prepare(&self) -> Parking<'_> {
        self.parked.fetch_add(1, Ordering::SeqCst);
        // The count before the look (module docs).
        fence(Ordering::SeqCst);
        Parking {
            waker: self,
            seen: self.generation(),
        }
    }
}

/// A waiter counted as parked on a [`Waker`], from
/// [`Waker::prepare`] until it is parked or dropped: dropping it — after
/// a look that found something, or an error — cancels.
#[must_use = "while it lives every notify signals: park on it or drop it"]
pub struct Parking<'a> {
    waker: &'a Waker,
    seen: u64,
}

impl Parking<'_> {
    /// Block until a notify after [`Waker::prepare`] or until `timeout`
    /// elapses. Returns whether a notify came; a spurious or timed-out
    /// return is the caller's to notice — it looks again.
    pub fn park(self, timeout: Duration) -> bool {
        let w = self.waker;
        let guard = w.lock.lock().unwrap_or_else(PoisonError::into_inner);
        if w.generation() == self.seen {
            drop(w.cv.wait_timeout(guard, timeout));
        }
        w.generation() != self.seen
    }
}

impl Drop for Parking<'_> {
    fn drop(&mut self) {
        self.waker.parked.fetch_sub(1, Ordering::SeqCst);
    }
}

/// What one end's owner publishes when it wires the end.
struct Wired {
    waker: Arc<Waker>,
    /// Whether the end advertises the pair's window table.
    windows: bool,
}

/// What the two ends of a pair share, one of each per end.
#[derive(Default)]
struct Cells {
    wired: [OnceLock<Wired>; 2],
    /// Set once the end's owner will not drive it again.
    finished: [AtomicBool; 2],
}

/// One end's handle on the two wake cells an in-process link pair shares
/// (created by the pair constructor, the way the window table is). Cheap
/// to clone.
#[derive(Clone)]
pub struct WakeCells {
    cells: Arc<Cells>,
    /// Which cell is this end's own; the other is the peer's.
    side: usize,
}

impl WakeCells {
    /// The two handles of one link pair.
    pub fn pair() -> (WakeCells, WakeCells) {
        let cells = Arc::new(Cells::default());
        (
            WakeCells {
                cells: Arc::clone(&cells),
                side: 0,
            },
            WakeCells { cells, side: 1 },
        )
    }

    /// Name the waker whoever waits on this end parks on, and say whether
    /// this end advertises the pair's window table. An end is wired once;
    /// a second publish is ignored.
    pub fn publish(&self, waker: Arc<Waker>, windows: bool) {
        let _ = self.cells.wired[self.side].set(Wired { waker, windows });
    }

    /// Whether the other end advertises the window table, once its owner
    /// has wired it. The two ends must agree: a table seen from one end
    /// only is pulled from and never exposed into.
    pub fn peer_windows(&self) -> Option<bool> {
        self.cells.wired[1 - self.side].get().map(|w| w.windows)
    }

    /// Bytes moved through this end: wake whatever is parked on the other
    /// one, if its owner has published a waker.
    pub fn poke_peer(&self) {
        if let Some(wired) = self.cells.wired[1 - self.side].get() {
            wired.waker.notify();
        }
    }

    /// This end's owner will not drive it again: nothing written to it
    /// from now on is read. Marked before the poke, so a waiter at the
    /// other end that missed the mark is woken to see it.
    pub fn finish(&self) {
        self.cells.finished[self.side].store(true, Ordering::SeqCst);
        self.poke_peer();
    }

    /// Whether the other end's owner has [finished](Self::finish).
    pub fn peer_finished(&self) -> bool {
        self.cells.finished[1 - self.side].load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interleave::two_threads;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn ladder_reaches_the_parking_tier_and_stays() {
        let quantum = Duration::from_nanos(1);
        let mut b = Backoff::with_config(BackoffConfig {
            spin_limit: 2,
            yield_limit: 3,
            sleep: Some(quantum),
        });
        for _ in 0..6 {
            assert_eq!(b.park_quantum(), None);
            b.snooze();
        }
        assert_eq!(b.park_quantum(), Some(quantum));
        // Saturated: a further snooze does not climb past the top.
        b.snooze();
        assert_eq!(b.park_quantum(), Some(quantum));
        b.reset();
        assert_eq!(b.park_quantum(), None);
    }

    #[test]
    fn no_sleep_ladder_never_parks() {
        let mut b = Backoff::with_config(BackoffConfig::no_sleep());
        for _ in 0..100_000 {
            b.snooze();
        }
        assert_eq!(b.park_quantum(), None);
    }

    /// A park nothing must cut short: long enough that a lost wake-up
    /// hangs the test instead of passing slowly.
    const FOREVER: Duration = Duration::from_secs(3600);

    #[test]
    fn waker_generation_advances_and_wakes() {
        let w = Waker::default();
        let g0 = w.generation();
        let (woken, signalled) = two_threads(
            |turn| {
                let parking = w.prepare();
                turn.release();
                parking.park(FOREVER)
            },
            || w.notify(),
        );
        // Counted as parked before the notifier started: it had to signal,
        // and the park returned on the bump.
        assert!(woken && signalled);
        assert_eq!(w.generation(), g0 + 1);
    }

    #[test]
    fn waker_never_misses_a_pre_wait_notify() {
        let w = Waker::default();
        let flag = AtomicBool::new(false);
        let g0 = w.generation();
        flag.store(true, Ordering::SeqCst);
        assert!(!w.notify(), "nobody parked: no signal");
        assert_eq!(w.generation(), g0, "nobody parked: nothing written");
        // The change is seen by the look after `prepare`, not by the
        // generation: the waiter cancels instead of parking.
        let parking = w.prepare();
        assert!(flag.load(Ordering::SeqCst));
        drop(parking);
        assert!(!w.notify(), "a cancelled wait is not counted");
    }

    #[test]
    fn wake_cells_poke_the_other_end_only() {
        let (a, b) = WakeCells::pair();
        let (wa, wb) = (Arc::new(Waker::default()), Arc::new(Waker::default()));
        b.poke_peer(); // nothing published yet: a no-op
        assert_eq!(b.peer_windows(), None);
        a.publish(Arc::clone(&wa), true);
        b.publish(Arc::clone(&wb), false);
        assert_eq!(
            (a.peer_windows(), b.peer_windows()),
            (Some(false), Some(true))
        );
        // Nobody parked: a poke writes nothing.
        a.poke_peer();
        b.poke_peer();
        assert_eq!((wa.generation(), wb.generation()), (0, 0));
        // A waiter parked at each end in turn: only the other end's poke
        // reaches it.
        let parking = wb.prepare();
        b.poke_peer();
        a.poke_peer();
        drop(parking);
        assert_eq!((wa.generation(), wb.generation()), (0, 1));
        let parking = wa.prepare();
        a.poke_peer();
        b.poke_peer();
        drop(parking);
        assert_eq!((wa.generation(), wb.generation()), (1, 1));
        assert!(!a.peer_finished() && !b.peer_finished());
        let parking = wa.prepare();
        b.finish();
        drop(parking);
        assert!(a.peer_finished() && !b.peer_finished());
        assert_eq!((wa.generation(), wb.generation()), (2, 1), "finish pokes");
    }

    /// What the waiting thread does, in order: the wait protocol's three
    /// steps, and where the notifier gets its turn — `Gate` waits until
    /// the notify has returned, `Release` lets it race the steps that
    /// follow.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Step {
        Prepare,
        Look,
        /// Park if the look found nothing, cancel if it found the change.
        Park,
        Gate,
        Release,
    }

    /// Every placement of the notify in the wait protocol: before the
    /// prepare, between prepare and look, between look and park, and
    /// racing the park.
    fn schedules() -> [[Step; 4]; 4] {
        use Step::*;
        [
            [Gate, Prepare, Look, Park],
            [Prepare, Gate, Look, Park],
            [Prepare, Look, Gate, Park],
            [Prepare, Look, Release, Park],
        ]
    }

    /// Run one schedule on two real threads. The notifier follows the
    /// protocol (publish, then notify); the waiter parks `FOREVER`, so a
    /// lost wake-up never returns. Reports whether the waiter parked at
    /// all and whether the notify had to signal.
    fn run(steps: &[Step]) -> (bool, bool) {
        let w = Waker::default();
        let flag = AtomicBool::new(false);
        let out = two_threads(
            |turn| {
                let (mut parking, mut saw_flag, mut parked) = (None, false, false);
                for step in steps {
                    match step {
                        Step::Prepare => parking = Some(w.prepare()),
                        Step::Look => saw_flag = flag.load(Ordering::SeqCst),
                        // The cancel arm: the look saw the change.
                        Step::Park if saw_flag => drop(parking.take()),
                        Step::Park => {
                            parked = true;
                            assert!(parking.take().unwrap().park(FOREVER));
                            assert!(flag.load(Ordering::SeqCst), "woken before the change");
                        }
                        Step::Gate => turn.gate(),
                        Step::Release => turn.release(),
                    }
                }
                parked
            },
            || {
                flag.store(true, Ordering::SeqCst);
                w.notify()
            },
        );
        // Parked or cancelled, the waiter is no longer counted.
        assert!(!w.notify(), "{steps:?} left a waiter counted");
        out
    }

    /// No placement of the notify loses the wake-up (the run would hang),
    /// a notify before the prepare takes the path that writes nothing,
    /// and a cancel or a park leaves nobody counted.
    #[test]
    fn every_order_of_prepare_look_park_and_notify_wakes() {
        let rounds = if cfg!(miri) { 2 } else { 200 };
        for _ in 0..rounds {
            for (i, steps) in schedules().iter().enumerate() {
                let got = run(steps);
                let want = match i {
                    // Seen by the look: cancel, nobody to signal.
                    0 => (false, false),
                    // Counted, then seen by the look: signalled, cancelled.
                    1 => (false, true),
                    // Missed by the look, counted: signalled, and the park
                    // sees the bump.
                    _ => (true, true),
                };
                assert_eq!(got, want, "schedule {i}: {steps:?}");
            }
        }
    }
}
