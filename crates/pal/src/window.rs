//! Exposed send windows: the "registered memory" of an in-process link.
//!
//! Two link ends that share an address space can skip the byte stream for
//! bulk data: the sender *exposes* the window it would otherwise stream,
//! and the message is copied straight from it into the receiver's buffer.
//! No address ever travels through the link: the two [`Windows`] handles
//! of a pair share one table, and a window is named by an id the sender
//! chose (the device uses its send-request id, which the RTS frame carries
//! anyway).
//!
//! # A shared copy
//!
//! The receiver's [`Windows::pull`] is the RDMA read of *MPICH2 over
//! InfiniBand*'s zero-copy design; [`Windows::help`] adds its RDMA write,
//! the sender copying into the receiver's buffer. Both run on one copy: a
//! pull longer than one [`CHUNK`] *publishes* its destination
//! `(dst, min(len, cap))` in the window's entry and copies the window in
//! chunks claimed one at a time from a shared cursor, and the exposing end
//! claims and copies chunks of its own windows that have a published
//! destination. Whoever waits drives progress (*MPI Progress For All*): a
//! sender that would otherwise wait for the FIN copies half the message.
//! A sender that never helps costs nothing — the puller claims every
//! chunk itself, one `memcpy` as before.
//!
//! # Window lifetime
//!
//! A window is readable from [`Windows::expose`] until its [`Exposure`]
//! is dropped (*revoked*); a destination is writable until the pull that
//! published it returns. Four rules keep both, per window:
//!
//! 1. Every copier — the puller and each helper — holds the window's
//!    revoke lock *shared* across its copies; a revoke takes it
//!    *exclusive*. Once a revoke returns no copy reads the window any
//!    more and none starts.
//! 2. A helper takes that guard *before* it claims a chunk. A helper
//!    blocked on the guard (behind a revoke) holds no claim, so nobody
//!    waits for it.
//! 3. A pull copies every chunk nobody claimed, then waits for the
//!    claimed chunks still being copied (the *stragglers*), and only
//!    then withdraws the destination and returns. Nothing is written to
//!    the destination after the pull returns.
//! 4. A chunk is claimed by one compare-and-swap on a cursor that also
//!    numbers the pull, so a claim can never land in a pull that has
//!    ended.
//!
//! The table locks are held only to insert, look up or remove an entry,
//! never across a copy, so exposing the next window is not delayed by a
//! pull of the previous one, and an idle helper looks at one counter.

use std::collections::HashMap;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

/// The piece a shared copy is claimed in. A pull no longer than this is
/// copied by the puller alone, with nothing published.
pub const CHUNK: usize = 64 * 1024;

/// How long a pull spins on a straggler before it yields: about ten chunk
/// copies (one takes 3–5 µs on a 2-vCPU Sapphire Rapids guest).
const STRAGGLER_SPIN: Duration = Duration::from_micros(50);

/// One exposed window.
struct Window {
    ptr: *const u8,
    len: usize,
    /// Whether the window is revoked: held shared by every copier across
    /// its copies, exclusive by the revoke (rule 1).
    revoked: RwLock<bool>,
    /// The published destination and the bytes to copy into it. Written
    /// only by the pull under way, before it publishes the cursor.
    dst: AtomicPtr<u8>,
    n: AtomicUsize,
    /// The pull's number (high 32 bits) and its next unclaimed chunk (low
    /// 32 bits, enough for 256 TiB): a claim is one compare-and-swap on
    /// both (rule 4).
    cursor: AtomicU64,
    /// Chunks of the current pull copied so far.
    copied: AtomicUsize,
}

// SAFETY: `ptr` is only dereferenced under a shared `revoked` guard that
// found `false`; the exposer guarantees (contract of `Windows::expose`)
// that the window stays valid and unwritten until the revoke that sets it
// has returned, and the revoke waits for every shared guard. The
// published destination is written only through claims of the pull that
// published it, and that pull does not return (so its caller's guarantee
// for `dst` holds) until every claimed chunk has been copied. `len` is
// immutable.
unsafe impl Send for Window {}
// SAFETY: as above — shared access goes through `revoked` and atomics.
unsafe impl Sync for Window {}

/// Where the interleaving tests can stop a copier (`tests` below); no-ops
/// otherwise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Point {
    /// The puller has published its destination.
    Published,
    /// A copier has claimed a chunk and not yet copied it.
    Claimed,
    /// The puller found no chunk left to claim.
    LastChunk,
    /// The puller is waiting for a claimed chunk to be copied.
    Straggling,
    /// A helper holds the window's guard and has not claimed yet.
    Guarded,
}

impl Window {
    /// The copier's guard: shared, held across its copies (rule 1).
    fn guard(&self) -> RwLockReadGuard<'_, bool> {
        self.revoked.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publish `(dst, n)` as the destination of a new pull. The caller
    /// is the window's one pull and holds a shared guard.
    fn publish(&self, dst: *mut u8, n: usize) {
        self.dst.store(dst, Ordering::Relaxed);
        self.n.store(n, Ordering::Relaxed);
        self.copied.store(0, Ordering::Relaxed);
        let pull = (self.cursor.load(Ordering::Relaxed) >> 32) + 1;
        // Releases the three stores to every claim that reads this.
        self.cursor.store(pull << 32, Ordering::Release);
    }

    /// Whether the published pull has a chunk nobody has claimed.
    fn unclaimed(&self) -> bool {
        let next = self.cursor.load(Ordering::Relaxed) as u32 as usize;
        next * CHUNK < self.n.load(Ordering::Relaxed)
    }

    /// Claim the next chunk of the published pull and copy it; `false`
    /// if none is left. The caller holds a shared guard that found the
    /// window live.
    ///
    /// # Safety
    /// The caller's guard, as above.
    unsafe fn copy_chunk(&self) -> bool {
        let mut cur = self.cursor.load(Ordering::Acquire);
        loop {
            // Read before the claim; a successful claim proves they belong
            // to the pull `cur` names: that pull cannot end, and no later
            // one publish, until this chunk is counted copied.
            let (dst, n) = (
                self.dst.load(Ordering::Relaxed),
                self.n.load(Ordering::Relaxed),
            );
            let at = (cur as u32 as usize) * CHUNK;
            if at >= n {
                return false;
            }
            match self.cursor.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Acquire,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    pause(Point::Claimed);
                    // SAFETY: the guard covers the source (module rule 1);
                    // the pull that published `dst` waits for this chunk
                    // (rule 3); chunks are disjoint.
                    unsafe {
                        std::ptr::copy_nonoverlapping(
                            self.ptr.add(at),
                            dst.add(at),
                            CHUNK.min(n - at),
                        )
                    };
                    // Releases the copy to the puller's straggler wait.
                    self.copied.fetch_add(1, Ordering::Release);
                    return true;
                }
                Err(now) => cur = now,
            }
        }
    }

    /// Wait until all `chunks` of the published pull are copied (rule 3).
    fn await_stragglers(&self, chunks: usize) {
        let mut since = None;
        while self.copied.load(Ordering::Acquire) < chunks {
            let since = *since.get_or_insert_with(|| {
                pause(Point::Straggling);
                Instant::now()
            });
            // A straggler is mid-`memcpy` of at most one chunk: spin for
            // it. A yield would hand this processor to any other runnable
            // thread for a whole time slice, many chunks long, so yield
            // only once the straggler has plainly lost its own processor.
            if since.elapsed() < STRAGGLER_SPIN {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// One end's exposures.
#[derive(Default)]
struct Side {
    exposed: Mutex<HashMap<u64, Arc<Window>>>,
    /// How many of them have a destination published: all an idle helper
    /// looks at. A hint, so `Relaxed`: what a claim relies on is
    /// published by the window's cursor.
    published: AtomicUsize,
}

impl Side {
    /// An exposed window whose published pull has a chunk nobody has
    /// claimed. The table lock ends before the caller copies.
    fn unclaimed(&self) -> Option<Arc<Window>> {
        lock(&self.exposed)
            .values()
            .find(|w| w.unclaimed())
            .cloned()
    }
}

/// The table the two ends of one link share: one side per end.
#[derive(Default)]
struct Table {
    sides: [Side; 2],
}

/// One end's handle on a link's shared window table. Cheap to clone.
#[derive(Clone)]
pub struct Windows {
    table: Arc<Table>,
    /// Which of the two sides this end exposes into (it pulls from the
    /// other one).
    side: usize,
}

/// A live exposure. Dropping it revokes the window: the drop returns only
/// when no copier is reading the window and none can start.
pub struct Exposure {
    owner: Windows,
    id: u64,
    window: Arc<Window>,
}

/// A panic while a table or window lock was held leaves the data valid
/// (a map of `Arc`s, a flag), so a poisoned lock is simply taken.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Windows {
    /// The two handles of one link.
    pub fn pair() -> (Windows, Windows) {
        let table = Arc::new(Table::default());
        (
            Windows {
                table: Arc::clone(&table),
                side: 0,
            },
            Windows { table, side: 1 },
        )
    }

    fn own(&self) -> &Side {
        &self.table.sides[self.side]
    }

    fn peer(&self) -> &Side {
        &self.table.sides[1 - self.side]
    }

    /// Make `(ptr, len)` readable by the peer end under `id`, which must
    /// differ from the id of every other live exposure of this end.
    ///
    /// # Safety
    /// The window must stay valid, and nobody may write to it, until the
    /// returned [`Exposure`] has been dropped.
    pub unsafe fn expose(&self, id: u64, ptr: *const u8, len: usize) -> Exposure {
        let window = Arc::new(Window {
            ptr,
            len,
            revoked: RwLock::new(false),
            dst: AtomicPtr::new(std::ptr::null_mut()),
            n: AtomicUsize::new(0),
            cursor: AtomicU64::new(0),
            copied: AtomicUsize::new(0),
        });
        let old = lock(&self.own().exposed).insert(id, Arc::clone(&window));
        debug_assert!(old.is_none(), "window id {id} exposed twice");
        Exposure {
            owner: self.clone(),
            id,
            window,
        }
    }

    /// Copy the first `min(len, cap)` bytes of the window the peer end
    /// exposed under `id` to `dst` and return the window's full length,
    /// or `None` — nothing copied — if there is no such window (never
    /// exposed, or revoked). A copy longer than one [`CHUNK`] is offered
    /// to the exposing end's [`Windows::help`], and `wake_owner` is called
    /// once it is: the moment to wake that end. The pull returns when
    /// every byte is in `dst`, whoever copied it.
    ///
    /// # Safety
    /// `dst` must be valid for `cap` bytes of writes until this call
    /// returns and must not overlap the exposed window, and no other pull
    /// of the same window may run meanwhile.
    pub unsafe fn pull(
        &self,
        id: u64,
        dst: *mut u8,
        cap: usize,
        wake_owner: impl FnOnce(),
    ) -> Option<usize> {
        let window = lock(&self.peer().exposed).get(&id).cloned()?;
        let revoked = window.guard();
        if *revoked {
            return None;
        }
        let n = window.len.min(cap);
        if n > CHUNK {
            let side = self.peer();
            window.publish(dst, n);
            side.published.fetch_add(1, Ordering::Relaxed);
            wake_owner();
            pause(Point::Published);
            // SAFETY: the guard is held and found the window live; the
            // caller's guarantee covers `dst` until the straggler wait.
            while unsafe { window.copy_chunk() } {}
            pause(Point::LastChunk);
            window.await_stragglers(n.div_ceil(CHUNK));
            side.published.fetch_sub(1, Ordering::Relaxed);
        } else {
            // SAFETY: not revoked and the guard is held across the copy,
            // so the exposer's guarantee covers the source; the caller's
            // covers the destination.
            unsafe { std::ptr::copy_nonoverlapping(window.ptr, dst, n) };
        }
        Some(window.len)
    }

    /// Copy chunks of this end's exposed windows whose pull has published
    /// a destination, until none has a chunk left unclaimed. Returns
    /// whether it copied any. With nothing published it costs one relaxed
    /// load.
    pub fn help(&self) -> bool {
        let side = self.own();
        if side.published.load(Ordering::Relaxed) == 0 {
            return false;
        }
        let mut helped = false;
        while let Some(window) = side.unclaimed() {
            // The guard before the claim (module rule 2).
            let revoked = window.guard();
            pause(Point::Guarded);
            // SAFETY: the guard is held and found the window live.
            if *revoked || !unsafe { window.copy_chunk() } {
                break;
            }
            // SAFETY: as above.
            while unsafe { window.copy_chunk() } {}
            helped = true;
        }
        helped
    }
}

impl Drop for Exposure {
    fn drop(&mut self) {
        lock(&self.owner.own().exposed).remove(&self.id);
        // A copier that looked the window up before the removal holds or
        // is about to take this lock: wait for every one, then refuse them.
        *self
            .window
            .revoked
            .write()
            .unwrap_or_else(PoisonError::into_inner) = true;
    }
}

#[cfg(not(test))]
#[inline(always)]
fn pause(_at: Point) {}

#[cfg(test)]
use tests::pause;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interleave::two_threads;
    use proptest::prelude::*;

    const LIVE: u8 = 0x5A;
    const DEAD: u8 = 0xEE;

    #[test]
    fn pull_copies_min_of_len_and_cap_and_reports_len() {
        let (a, b) = Windows::pair();
        let src: Vec<u8> = (0..100u8).collect();
        // SAFETY: `src` outlives `_exp` and is not written.
        let _exp = unsafe { a.expose(7, src.as_ptr(), src.len()) };
        let mut dst = [0xFFu8; 64];
        // SAFETY: `dst` is 64 writable bytes.
        assert_eq!(unsafe { b.pull(7, dst.as_mut_ptr(), 40, || {}) }, Some(100));
        assert_eq!(&dst[..40], &src[..40]);
        assert!(dst[40..].iter().all(|&x| x == 0xFF), "beyond cap untouched");
        let mut big = vec![0u8; 200];
        // SAFETY: as above.
        let pulled = unsafe { b.pull(7, big.as_mut_ptr(), 200, || {}) };
        assert_eq!(pulled, Some(100));
        assert_eq!(&big[..100], &src[..]);
    }

    #[test]
    fn ends_are_separate_namespaces() {
        let (a, b) = Windows::pair();
        let (x, y) = ([1u8; 8], [2u8; 8]);
        // SAFETY: both arrays outlive their exposures.
        let (_ea, _eb) = unsafe { (a.expose(1, x.as_ptr(), 8), b.expose(1, y.as_ptr(), 8)) };
        let mut got = [0u8; 8];
        // SAFETY: `got` is 8 writable bytes.
        unsafe {
            assert_eq!(a.pull(1, got.as_mut_ptr(), 8, || {}), Some(8));
            assert_eq!(got, y, "a pulls what b exposed");
            assert_eq!(b.pull(1, got.as_mut_ptr(), 8, || {}), Some(8));
            assert_eq!(got, x);
            assert_eq!(a.pull(2, got.as_mut_ptr(), 8, || {}), None, "never exposed");
        }
    }

    #[test]
    fn revoked_window_is_refused_and_never_read() {
        let (a, b) = Windows::pair();
        let src = vec![LIVE; 32];
        // SAFETY: `src` is freed only after the exposure is dropped.
        let exp = unsafe { a.expose(3, src.as_ptr(), src.len()) };
        drop(exp);
        drop(src);
        let mut dst = [0u8; 32];
        // SAFETY: `dst` is 32 writable bytes.
        assert_eq!(unsafe { b.pull(3, dst.as_mut_ptr(), 32, || {}) }, None);
        assert_eq!(dst, [0u8; 32]);
    }

    /// What the owner thread does with one window, in order. The puller
    /// waits for its turn: `Gate` gives it and waits until the pull has
    /// returned, `Release` gives it and carries on, so the pull runs
    /// concurrently with the owner's remaining steps.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Step {
        Expose,
        Revoke,
        Gate,
        Release,
    }

    /// Every placement of the pull among expose and revoke — the first
    /// three forced, the last two raced.
    fn schedules() -> [[Step; 3]; 5] {
        use Step::*;
        [
            [Gate, Expose, Revoke],
            [Expose, Gate, Revoke],
            [Expose, Revoke, Gate],
            [Release, Expose, Revoke],
            [Expose, Release, Revoke],
        ]
    }

    /// Run one schedule on two real threads. The owner poisons the window
    /// the moment its revoke has returned, so a copy that ran (even
    /// partly) after that point delivers `DEAD` bytes.
    fn run(steps: &[Step], len: usize) -> Option<Vec<u8>> {
        let (a, b) = Windows::pair();
        let (_buf, pulled) = two_threads(
            |turn| {
                let mut buf = vec![LIVE; len];
                let mut exposure = None;
                for step in steps {
                    match step {
                        // SAFETY: `buf` is written only after the exposure
                        // is dropped (the `Revoke` arm) and freed after
                        // both threads have finished (it is returned).
                        Step::Expose => exposure = Some(unsafe { a.expose(1, buf.as_ptr(), len) }),
                        Step::Revoke => {
                            exposure = None;
                            buf.fill(DEAD);
                        }
                        Step::Gate => turn.gate(),
                        Step::Release => turn.release(),
                    }
                }
                drop(exposure);
                buf
            },
            move || {
                let mut dst = vec![0u8; len];
                // SAFETY: `dst` is `len` writable bytes.
                let got = unsafe { b.pull(1, dst.as_mut_ptr(), len, || {}) };
                got.map(|n| {
                    assert_eq!(n, len);
                    dst
                })
            },
        );
        pulled
    }

    proptest! {
        // Two threads per schedule: a handful is plenty for the interpreter.
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 24 }))]

        /// Every order of expose / pull / revoke on one window ends in
        /// "copied, then revoked" (all bytes live) or "revoked, pull
        /// refused" — never a copy that overlaps or follows the revoke.
        #[test]
        fn every_order_of_expose_pull_revoke_is_safe(len in 1usize..(64 * 1024)) {
            for (i, steps) in schedules().iter().enumerate() {
                let got = run(steps, len);
                if !steps.contains(&Step::Release) {
                    // Forced orders have exactly one legal outcome.
                    prop_assert_eq!(got.is_some(), i == 1, "schedule {}", i);
                }
                if let Some(bytes) = got {
                    prop_assert!(
                        bytes.iter().all(|&x| x == LIVE),
                        "schedule {}: copy overlapped the revoke", i
                    );
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Two copiers on one window: the puller and the exposing end's helper
    // ------------------------------------------------------------------

    use crate::interleave::{conduct, Baton, Conductor, Work};
    use Act::{Help, HelpIdle, HelpReturns, Recv, RecvReturns, Revoke, Revoked, Settle};
    use Point::*;

    /// The workers of the forced-order schedules: the puller, the
    /// exposing end's helper (two calls to `help`, an `Idle` stop
    /// between them) and the owner's revoke.
    const R: usize = 0;
    const H: usize = 1;
    const O: usize = 2;

    /// What the puller fills its destination with the moment its pull
    /// has returned: a byte that arrives later shows.
    const AFTER: u8 = 0xAF;

    /// Four chunks, the last one short.
    const LEN: usize = 3 * CHUNK + 100;

    /// Where a worker stops: a point of the code under test, or between
    /// the helper's two calls.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Stop {
        At(Point),
        Idle,
    }

    thread_local! {
        /// This thread's stops, if it is a worker of a schedule.
        static PAUSE: std::cell::RefCell<Option<(Baton<Stop>, &'static [Point])>> =
            const { std::cell::RefCell::new(None) };
    }

    /// Stop at `at` if this thread is a worker that stops there.
    pub(super) fn pause(at: Point) {
        PAUSE.with_borrow(|hook| match hook {
            Some((baton, points)) if points.contains(&at) => baton.stop(Stop::At(at)),
            _ => {}
        });
    }

    /// Stop between the helper's calls.
    fn idle() {
        PAUSE.with_borrow(|hook| hook.as_ref().unwrap().0.stop(Stop::Idle));
    }

    /// Makes this thread stop at `at` until it drops; dropping it drops
    /// the baton, which tells the conductor the worker has finished.
    struct Hook;

    fn hook(baton: Baton<Stop>, at: &'static [Point]) -> Hook {
        PAUSE.set(Some((baton, at)));
        Hook
    }

    impl Drop for Hook {
        fn drop(&mut self) {
            PAUSE.set(None);
        }
    }

    /// One step of a schedule.
    #[derive(Debug, Clone, Copy)]
    enum Act {
        /// Send the puller on; it must stop here next.
        Recv(Point),
        /// Send the helper on; it must stop here next.
        Help(Point),
        /// Send the helper on; it must stop between its calls next.
        HelpIdle,
        /// Send the puller on; its pull must return before any stop.
        RecvReturns,
        /// Send the helper on; it must finish (its second call copies
        /// nothing) before any stop.
        HelpReturns,
        /// Send the revoke on, without waiting: it may block.
        Revoke,
        /// Wait until the revoke has returned.
        Revoked,
        /// The puller is out of chunks while the helper holds one: it
        /// must wait for that chunk. If it waits, let the helper copy,
        /// then the puller return; if it returns at once, let the helper
        /// copy after that, where the checks see it.
        Settle,
    }

    /// What a schedule left behind.
    struct Outcome {
        pulled: Option<usize>,
        /// The destination the moment the pull returned.
        seen: Vec<u8>,
        /// The destination at the end.
        dst: Vec<u8>,
        /// Whether each of the helper's two calls copied anything.
        helped: [bool; 2],
    }

    fn run_schedule(acts: &[Act]) -> Outcome {
        let (a, b) = Windows::pair();
        let mut src = vec![LIVE; LEN];
        // SAFETY: `src` is written only after the exposure has been dropped
        // (the revoke worker) and freed after every worker has finished.
        let exposure = unsafe { a.expose(1, src.as_ptr(), LEN) };
        let mut dst = vec![0u8; LEN];
        let (mut pulled, mut seen, mut helped) = (None, Vec::new(), [false; 2]);
        let (a, b, src) = (&a, &b, &mut src);
        let (pulled_, seen_, dst_, helped_) = (&mut pulled, &mut seen, &mut dst, &mut helped);
        let workers: Vec<Work<'_, Stop>> = vec![
            Box::new(move |baton| {
                let _hook = hook(baton, &[Published, Claimed, LastChunk, Straggling]);
                // SAFETY: `dst` is `LEN` writable bytes.
                *pulled_ = unsafe { b.pull(1, dst_.as_mut_ptr(), LEN, || {}) };
                *seen_ = dst_.clone();
                dst_.fill(AFTER);
            }),
            Box::new(move |baton| {
                let _hook = hook(baton, &[Guarded, Claimed]);
                helped_[0] = a.help();
                idle();
                helped_[1] = a.help();
            }),
            Box::new(move |baton| {
                drop(exposure);
                src.fill(DEAD);
                drop(baton);
            }),
        ];
        conduct(workers, |c: &Conductor<Stop>| {
            for (i, &act) in acts.iter().enumerate() {
                let step = |w, want| assert_eq!(c.step(w), want, "step {i}: {act:?}");
                match act {
                    Act::Recv(p) => step(R, Some(Stop::At(p))),
                    Act::Help(p) => step(H, Some(Stop::At(p))),
                    Act::HelpIdle => step(H, Some(Stop::Idle)),
                    Act::RecvReturns => step(R, None),
                    Act::HelpReturns => step(H, None),
                    Act::Revoke => c.go(O),
                    Act::Revoked => assert_eq!(c.stopped(O), None),
                    Act::Settle => match c.step(R) {
                        Some(Stop::At(Straggling)) => {
                            assert!(matches!(c.step(H), Some(Stop::Idle) | None), "step {i}");
                            c.finish(R);
                        }
                        None => assert!(matches!(c.step(H), Some(Stop::Idle) | None), "step {i}"),
                        other => panic!("step {i}: the puller stopped at {other:?}"),
                    },
                }
            }
        });
        Outcome {
            pulled,
            seen,
            dst,
            helped,
        }
    }

    /// What every schedule in which the pull succeeds must show.
    fn assert_pulled_whole(o: &Outcome) {
        assert_eq!(o.pulled, Some(LEN));
        assert!(
            o.dst.iter().all(|&x| x == AFTER),
            "a byte was written to the destination after the pull returned"
        );
        assert!(
            o.seen.iter().all(|&x| x == LIVE),
            "the pull returned before every chunk was in, or a copy read the revoked window"
        );
    }

    /// A schedule in which the helper claims a chunk and is still copying
    /// it when the puller runs out of chunks: the puller's straggler wait
    /// is all that keeps the helper's bytes inside the pull.
    fn straggler_schedule(acts: &[Act]) {
        let o = run_schedule(acts);
        assert_pulled_whole(&o);
        assert!(o.helped[0] || o.helped[1], "the helper copied its chunk");
    }

    #[test]
    fn helper_claims_before_the_pullers_first_chunk() {
        straggler_schedule(&[
            Recv(Published),
            Help(Guarded),
            Help(Claimed),
            Recv(Claimed),
            Recv(Claimed),
            Recv(Claimed),
            Recv(LastChunk),
            Settle,
        ]);
    }

    #[test]
    fn helper_guards_and_claims_between_the_pullers_chunks() {
        straggler_schedule(&[
            Recv(Published),
            Recv(Claimed),
            Help(Guarded),
            Recv(Claimed),
            Help(Claimed),
            Recv(Claimed),
            Recv(LastChunk),
            Settle,
        ]);
    }

    #[test]
    fn helper_claims_the_last_chunk_during_the_pullers_last() {
        straggler_schedule(&[
            Recv(Published),
            Recv(Claimed),
            Recv(Claimed),
            Recv(Claimed),
            Help(Guarded),
            Help(Claimed),
            Recv(LastChunk),
            Settle,
        ]);
    }

    #[test]
    fn helper_that_came_before_the_publish_claims_on_its_next_call() {
        straggler_schedule(&[
            HelpIdle,
            Recv(Published),
            Help(Guarded),
            Help(Claimed),
            Recv(Claimed),
            Recv(Claimed),
            Recv(Claimed),
            Recv(LastChunk),
            Settle,
        ]);
    }

    #[test]
    fn revoke_waits_for_the_puller_and_its_straggler() {
        straggler_schedule(&[
            Recv(Published),
            Help(Guarded),
            Help(Claimed),
            Recv(Claimed),
            Recv(Claimed),
            Recv(Claimed),
            Recv(LastChunk),
            Revoke,
            Settle,
            Revoked,
            HelpReturns,
        ]);
    }

    /// Schedules in which the helper holds no claim when the puller runs
    /// out of chunks, so the puller returns without waiting: the helper
    /// must copy nothing, before or after.
    fn lone_puller_schedule(acts: &[Act]) -> Outcome {
        let o = run_schedule(acts);
        assert_eq!(
            o.helped,
            [false, false],
            "the helper found nothing to claim"
        );
        o
    }

    #[test]
    fn helper_guarded_while_the_puller_claims_every_chunk() {
        assert_pulled_whole(&lone_puller_schedule(&[
            Recv(Published),
            Help(Guarded),
            Recv(Claimed),
            Recv(Claimed),
            Recv(Claimed),
            Recv(Claimed),
            Recv(LastChunk),
            RecvReturns,
            HelpIdle,
        ]));
    }

    #[test]
    fn helper_behind_a_queued_revoke_holds_no_claim() {
        // The helper asks for the guard after a revoke has queued for it
        // exclusively: it blocks there, or (a lock that lets readers pass
        // a queued writer) takes it; either way it claims nothing before
        // the puller has taken every chunk.
        let o = run_schedule(&[
            Recv(Published),
            Revoke,
            Recv(Claimed),
            Recv(Claimed),
            Recv(Claimed),
            Recv(Claimed),
            Recv(LastChunk),
        ]);
        assert_pulled_whole(&o);
    }

    #[test]
    fn helper_after_the_pull_returned_or_the_revoke_copies_nothing() {
        assert_pulled_whole(&lone_puller_schedule(&[
            Recv(Published),
            Recv(Claimed),
            Recv(Claimed),
            Recv(Claimed),
            Recv(Claimed),
            Recv(LastChunk),
            RecvReturns,
            HelpIdle,
            Revoke,
            Revoked,
            HelpReturns,
        ]));
        let o = lone_puller_schedule(&[Revoke, Revoked, RecvReturns, HelpIdle]);
        assert_eq!(o.pulled, None, "a revoked window is refused");
        assert!(o.seen.iter().all(|&x| x == 0), "and nothing is copied");
    }

    /// Sizes around the chunk boundaries: 1 byte up to four chunks and two.
    fn around_chunks() -> impl Strategy<Value = usize> {
        (0usize..5, 0usize..5).prop_map(|(k, d)| (k * CHUNK + d).saturating_sub(2).max(1))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 32 }))]

        /// A pull raced by a helper that keeps calling `help`: the
        /// destination holds the window's first `min(len, cap)` bytes,
        /// whoever copied which chunk, and nothing past them.
        #[test]
        fn a_shared_copy_delivers_the_prefix_and_nothing_past_it(
            len in around_chunks(),
            cap in around_chunks(),
        ) {
            let (a, b) = Windows::pair();
            let src: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            // SAFETY: `src` outlives `_exp` and is not written.
            let _exp = unsafe { a.expose(1, src.as_ptr(), len) };
            let mut dst = vec![DEAD; cap + 64];
            let done = std::sync::atomic::AtomicBool::new(false);
            let got = std::thread::scope(|s| {
                s.spawn(|| {
                    while !done.load(Ordering::Acquire) {
                        if !a.help() {
                            std::thread::yield_now();
                        }
                    }
                });
                // SAFETY: `dst` is `cap` + 64 writable bytes.
                let got = unsafe { b.pull(1, dst.as_mut_ptr(), cap, || {}) };
                done.store(true, Ordering::Release);
                got
            });
            prop_assert_eq!(got, Some(len));
            let n = len.min(cap);
            prop_assert!(dst[..n] == src[..n], "prefix differs");
            prop_assert!(dst[n..].iter().all(|&x| x == DEAD), "a byte past the copy was written");
        }
    }
}
