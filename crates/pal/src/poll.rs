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
//! * [`Waker`]: the generation counter a wait parks on, bumped by whoever
//!   makes something happen the waiter may be waiting for. The quantum
//!   only bounds a wake-up that never comes (a peer in another process, a
//!   simulated wire whose bytes ripen with the clock).
//! * [`WakeCells`]: how the bump crosses a link. The two ends of an
//!   in-process pair share two cells; each end's owner publishes its
//!   waker into its own, and whoever moves bytes through one end pokes
//!   the other's — written means input there, consumed means room.
//!
//! # The wake-up protocol
//!
//! A waiter snapshots [`Waker::generation`], *then* looks at what it is
//! waiting for, and parks ([`Waker::wait_next`]) on the snapshot only if
//! there was nothing. A notifier makes its change visible, *then* calls
//! [`Waker::notify`]. So a change the waiter did not see is followed by a
//! bump its park does see: no wake-up is lost. `notify` is one atomic
//! increment and one load when nobody is parked; it takes the mutex and
//! signals — a system call — only when the parked count is non-zero. The
//! count is raised under the mutex, before the waiter re-checks the
//! generation, all `SeqCst`: either the notifier sees the count and
//! signals, or the waiter sees the bump and does not park.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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

/// A generation counter to park on: bumped by [`notify`](Waker::notify)
/// whenever something a waiter may be waiting for has happened. See the
/// module docs for the protocol that makes a lost wake-up impossible.
#[derive(Default)]
pub struct Waker {
    gen: AtomicU64,
    /// Threads inside [`wait_next`](Waker::wait_next) that may be blocked
    /// on `cv`. Raised under `lock`.
    parked: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Waker {
    /// Current generation; pass it to [`Waker::wait_next`].
    pub fn generation(&self) -> u64 {
        self.gen.load(Ordering::SeqCst)
    }

    /// Something happened: advance the generation and, if anybody is
    /// parked, wake them. Returns whether it had to signal — `false` is
    /// the path without a system call.
    pub fn notify(&self) -> bool {
        self.gen.fetch_add(1, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) == 0 {
            return false;
        }
        // A waiter that raised the count holds the lock until it is
        // blocked on `cv`: taking it here orders the signal after that.
        drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
        self.cv.notify_all();
        true
    }

    /// Park until the generation moves past `seen` or `timeout` elapses.
    /// A notify between reading `seen` and parking is never missed: the
    /// generation is re-checked after the parked count is raised. Returns
    /// the generation observed on wake-up.
    pub fn wait_next(&self, seen: u64, timeout: Duration) -> u64 {
        let guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.parked.fetch_add(1, Ordering::SeqCst);
        if self.generation() == seen {
            // A spurious or timed-out return is the caller's to notice:
            // it looks again and parks again.
            drop(self.cv.wait_timeout(guard, timeout));
        }
        self.parked.fetch_sub(1, Ordering::SeqCst);
        self.generation()
    }
}

/// What one end's owner publishes when it wires the end.
struct Wired {
    waker: Arc<Waker>,
    /// Whether the end advertises the pair's window table.
    windows: bool,
}

/// One end's handle on the two wake cells an in-process link pair shares
/// (created by the pair constructor, the way the window table is). Cheap
/// to clone.
#[derive(Clone)]
pub struct WakeCells {
    cells: Arc<[OnceLock<Wired>; 2]>,
    /// Which cell is this end's own; the other is the peer's.
    side: usize,
}

impl WakeCells {
    /// The two handles of one link pair.
    pub fn pair() -> (WakeCells, WakeCells) {
        let cells = Arc::new([OnceLock::new(), OnceLock::new()]);
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
        let _ = self.cells[self.side].set(Wired { waker, windows });
    }

    /// Whether the other end advertises the window table, once its owner
    /// has wired it. The two ends must agree: a table seen from one end
    /// only is pulled from and never exposed into.
    pub fn peer_windows(&self) -> Option<bool> {
        self.cells[1 - self.side].get().map(|w| w.windows)
    }

    /// Bytes moved through this end: wake whatever is parked on the other
    /// one, if its owner has published a waker.
    pub fn poke_peer(&self) {
        if let Some(wired) = self.cells[1 - self.side].get() {
            wired.waker.notify();
        }
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
        let (g1, signalled) = two_threads(
            |turn| {
                turn.release();
                w.wait_next(g0, FOREVER)
            },
            || w.notify(),
        );
        assert_eq!(g1, g0 + 1);
        // Whether the notify found the waiter parked is the race; that
        // the wait returned is the point.
        let _ = signalled;
    }

    #[test]
    fn waker_never_misses_a_pre_wait_notify() {
        let w = Waker::default();
        let g0 = w.generation();
        assert!(!w.notify(), "nobody parked: no signal");
        // Generation already moved: returns immediately, no timeout burn.
        assert!(w.wait_next(g0, FOREVER) > g0);
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
        a.poke_peer();
        assert_eq!((wa.generation(), wb.generation()), (0, 1));
        b.poke_peer();
        assert_eq!((wa.generation(), wb.generation()), (1, 1));
    }

    /// What the waiting thread does, in order: the wait protocol's three
    /// steps, and where the notifier gets its turn — `Gate` waits until
    /// the notify has returned, `Release` lets it race the steps that
    /// follow, `ReleaseOnceParked` makes it hold its notify until the
    /// waiter is counted as parked.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Step {
        Snapshot,
        Look,
        Park,
        Gate,
        Release,
        ReleaseOnceParked,
    }

    /// Every placement of the notify in the wait protocol: before the
    /// snapshot, between snapshot and look, between look and park, after
    /// the park, and racing the parked-count increment.
    fn schedules() -> [[Step; 4]; 5] {
        use Step::*;
        [
            [Gate, Snapshot, Look, Park],
            [Snapshot, Gate, Look, Park],
            [Snapshot, Look, Gate, Park],
            [Snapshot, Look, ReleaseOnceParked, Park],
            [Snapshot, Look, Release, Park],
        ]
    }

    /// Run one schedule on two real threads. The notifier follows the
    /// protocol (publish, then notify); the waiter parks `FOREVER`, so a
    /// lost wake-up never returns. Reports whether the waiter parked at
    /// all and whether the notify had to signal.
    fn run(steps: &[Step]) -> (bool, bool) {
        let w = Waker::default();
        let flag = AtomicBool::new(false);
        let hold = steps.contains(&Step::ReleaseOnceParked);
        two_threads(
            |turn| {
                let (mut seen, mut saw_flag, mut parked) = (0, false, false);
                for step in steps {
                    match step {
                        Step::Snapshot => seen = w.generation(),
                        Step::Look => saw_flag = flag.load(Ordering::SeqCst),
                        Step::Park if saw_flag => {}
                        Step::Park => {
                            parked = true;
                            assert!(w.wait_next(seen, FOREVER) > seen);
                            assert!(flag.load(Ordering::SeqCst), "woken before the change");
                        }
                        Step::Gate => turn.gate(),
                        Step::Release | Step::ReleaseOnceParked => turn.release(),
                    }
                }
                parked
            },
            || {
                while hold && w.parked.load(Ordering::SeqCst) == 0 {
                    std::thread::yield_now();
                }
                flag.store(true, Ordering::SeqCst);
                w.notify()
            },
        )
    }

    /// No placement of the notify loses the wake-up (the run would hang),
    /// and a notify that finds nobody parked takes the path without a
    /// system call.
    #[test]
    fn every_order_of_snapshot_look_park_and_notify_wakes() {
        let rounds = if cfg!(miri) { 2 } else { 200 };
        for _ in 0..rounds {
            for (i, steps) in schedules().iter().enumerate() {
                let (parked, signalled) = run(steps);
                match i {
                    // Seen by the look: no park, nobody to signal.
                    0 | 1 => assert_eq!((parked, signalled), (false, false), "schedule {i}"),
                    // Missed by the look, seen by the park's re-check.
                    2 => assert_eq!((parked, signalled), (true, false), "schedule {i}"),
                    // Counted as parked before the notify: signalled.
                    3 => assert_eq!((parked, signalled), (true, true), "schedule {i}"),
                    // Raced: either, and the waiter returned.
                    _ => assert!(parked, "schedule {i}"),
                }
            }
        }
    }
}
