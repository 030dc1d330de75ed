//! Continuous-profiling primitives: per-rank time-bucket accounting and
//! comm/compute overlap tracking.
//!
//! Everything here is lock-free and built for a **single writer** — the
//! rank thread — with any number of concurrent readers (`motor-doctor`,
//! snapshot collection). Writes are
//! relaxed atomics; a racing reader can observe a slightly stale value
//! but never a torn or corrupt one. The phase stack enforces its writer:
//! the thread that starts the clock owns it — the same [`Owner`] that
//! writes its registry's owner cells — and a span opened on any other
//! thread (a helper mutator's collection or safepoint stall) is recorded
//! on the timeline but does not enter a bucket — the buckets partition
//! the *rank thread's* wall clock.
//!
//! # Time buckets
//!
//! [`PhaseStats`] classifies a rank's wall clock into the five
//! [`TimeBucket`]s by piggybacking on the span layer: opening a span
//! whose [`SpanKind`](crate::SpanKind) classifies to a bucket pushes
//! that bucket onto a small phase stack; dropping the guard pops it.
//! Time accrues to whatever bucket is on top — [`TimeBucket::Compute`]
//! whenever nothing else is — so the buckets always partition the wall
//! clock exactly, from [`PhaseStats::start_at`] to the moment of
//! observation. Nesting attributes correctly: a GC pause inside an
//! `mp_wait` bills the pause to `gc`, not `comm_wait`.
//!
//! # Overlap
//!
//! The same flush points maintain two more accumulators: the union of
//! in-flight non-blocking op intervals (`inflight_nanos`, while
//! [`PhaseStats::async_begin_at`]..[`PhaseStats::async_end_at`] nesting
//! is non-zero) and the portion of that union spent in the `compute`
//! bucket (`overlap_nanos`). Their ratio is the comm/compute overlap
//! ratio — the headline metric for asynchronous-progress work.
//!
//! Every transition method takes an explicit `now` timestamp so the
//! whole machine runs unchanged under `motor-sim`'s virtual clock; the
//! [`MetricsRegistry`](crate::MetricsRegistry) wrappers feed it the
//! registry clock.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Number of [`TimeBucket`]s.
pub const N_BUCKETS: usize = TimeBucket::COUNT;

/// Maximum phase-nesting depth tracked exactly; deeper nesting keeps
/// billing the bucket at the cap (and still pops correctly).
const MAX_PHASE_DEPTH: usize = 32;

named_enum! {
    /// Where a slice of a rank's wall clock went.
    enum TimeBucket: usize {
        /// Application code between message-passing / runtime phases (the
        /// default: whatever is not claimed by another bucket).
        Compute => "compute",
        /// Blocking communication: point-to-point ops, waits, probes,
        /// collectives, rendezvous handshakes.
        CommWait => "comm_wait",
        /// Explicit non-blocking progress (`test`/`iprobe` polling).
        Progress => "progress",
        /// Garbage collection pauses and safepoint stalls.
        Gc => "gc",
        /// Object-graph (de)serialization passes.
        Serialize => "serialize",
    }
}

/// Observed totals of a [`PhaseStats`] at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseSnapshot {
    /// Nanoseconds accrued per [`TimeBucket`] (index order).
    pub bucket_nanos: [u64; N_BUCKETS],
    /// Union of in-flight non-blocking op intervals (nanoseconds).
    pub inflight_nanos: u64,
    /// Portion of `inflight_nanos` spent computing (nanoseconds).
    pub overlap_nanos: u64,
}

/// A cheap identity for the calling thread: the address of one of its
/// thread-locals (unique among live threads, one TLS read to get).
#[inline]
fn thread_tag() -> usize {
    thread_local!(static TAG: u8 = const { 0 });
    TAG.with(|t| t as *const u8 as usize)
}

/// The one thread that writes a registry's owner cells, its owner ring
/// and its phase machine (see [`MetricsRegistry::claim`]): the
/// [`thread_tag`] of the last claimant, none before the first claim.
///
/// [`MetricsRegistry::claim`]: crate::MetricsRegistry::claim
#[derive(Debug, Default)]
pub(crate) struct Owner(AtomicUsize);

impl Owner {
    /// Make the calling thread the owner.
    pub(crate) fn claim(&self) {
        self.0.store(thread_tag(), Ordering::Relaxed);
    }

    /// Whether the calling thread is the owner.
    #[inline]
    pub(crate) fn is_caller(&self) -> bool {
        self.0.load(Ordering::Relaxed) == thread_tag()
    }
}

/// Online per-rank time-bucket and overlap accounting (see module docs).
#[derive(Debug)]
pub struct PhaseStats {
    started: AtomicBool,
    /// The thread that called [`Self::start_at`], or claimed the
    /// registry this machine belongs to.
    pub(crate) owner: Owner,
    last_flush: AtomicU64,
    cur: AtomicUsize,
    depth: AtomicUsize,
    stack: [AtomicUsize; MAX_PHASE_DEPTH],
    bucket_nanos: [AtomicU64; N_BUCKETS],
    async_ops: AtomicU64,
    inflight_nanos: AtomicU64,
    overlap_nanos: AtomicU64,
}

impl Default for PhaseStats {
    fn default() -> Self {
        Self::new()
    }
}

impl PhaseStats {
    /// A fresh, not-yet-started accounting machine (all transitions are
    /// no-ops until [`Self::start_at`]).
    pub fn new() -> PhaseStats {
        PhaseStats {
            started: AtomicBool::new(false),
            owner: Owner::default(),
            last_flush: AtomicU64::new(0),
            cur: AtomicUsize::new(TimeBucket::Compute as usize),
            depth: AtomicUsize::new(0),
            stack: std::array::from_fn(|_| AtomicUsize::new(0)),
            bucket_nanos: std::array::from_fn(|_| AtomicU64::new(0)),
            async_ops: AtomicU64::new(0),
            inflight_nanos: AtomicU64::new(0),
            overlap_nanos: AtomicU64::new(0),
        }
    }

    /// Whether accounting has started.
    #[inline]
    pub fn started(&self) -> bool {
        self.started.load(Ordering::Relaxed)
    }

    /// Close the open segment `[last_flush, now)` into the accumulators.
    /// The owner is their one writer: plain increments, no RMW.
    #[inline]
    fn flush_to(&self, now: u64) {
        let last = self.last_flush.load(Ordering::Relaxed);
        let dt = now.saturating_sub(last);
        if dt > 0 {
            let grow = |c: &AtomicU64| c.store(c.load(Ordering::Relaxed) + dt, Ordering::Relaxed);
            let cur = self.cur.load(Ordering::Relaxed).min(N_BUCKETS - 1);
            grow(&self.bucket_nanos[cur]);
            if self.async_ops.load(Ordering::Relaxed) > 0 {
                grow(&self.inflight_nanos);
                if cur == TimeBucket::Compute as usize {
                    grow(&self.overlap_nanos);
                }
            }
        }
        self.last_flush.store(now, Ordering::Relaxed);
    }

    /// Start the accounting clock: everything from `now` on is
    /// classified. Idempotent (a second start is ignored).
    pub fn start_at(&self, now: u64) {
        if self.started.swap(true, Ordering::Relaxed) {
            return;
        }
        self.owner.claim();
        self.last_flush.store(now, Ordering::Relaxed);
        self.cur
            .store(TimeBucket::Compute as usize, Ordering::Relaxed);
        self.depth.store(0, Ordering::Relaxed);
    }

    /// Whether the calling thread is the one that started the clock — the
    /// single writer of the flush accumulators.
    #[inline]
    fn owned_by_caller(&self) -> bool {
        self.started() && self.owner.is_caller()
    }

    /// Enter `bucket` (e.g. a classified span opened). Returns whether
    /// the push was recorded — the caller must pop iff it was.
    #[inline]
    pub fn push_at(&self, bucket: TimeBucket, now: u64) -> bool {
        if !self.owned_by_caller() {
            return false;
        }
        self.flush_to(now);
        let d = self.depth.load(Ordering::Relaxed);
        if d < MAX_PHASE_DEPTH {
            self.stack[d].store(self.cur.load(Ordering::Relaxed), Ordering::Relaxed);
            self.cur.store(bucket as usize, Ordering::Relaxed);
        }
        self.depth.store(d + 1, Ordering::Relaxed);
        true
    }

    /// Leave the bucket entered by the matching [`Self::push_at`].
    #[inline]
    pub fn pop_at(&self, now: u64) {
        let d = self.depth.load(Ordering::Relaxed);
        if !self.started() || d == 0 {
            return;
        }
        self.flush_to(now);
        let d = d - 1;
        self.depth.store(d, Ordering::Relaxed);
        if d < MAX_PHASE_DEPTH {
            self.cur
                .store(self.stack[d].load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// A non-blocking operation went in flight. Only the owning thread
    /// closes the open segment first; any other thread (a request handed
    /// to a helper) just moves the gauge, and the segment it falls in is
    /// billed by the owner's next transition.
    #[inline]
    pub fn async_begin_at(&self, now: u64) {
        if self.owned_by_caller() {
            self.flush_to(now);
        }
        self.async_ops.fetch_add(1, Ordering::Relaxed);
    }

    /// A non-blocking operation completed (or was dropped). As in
    /// [`Self::async_begin_at`], only the owning thread flushes.
    #[inline]
    pub fn async_end_at(&self, now: u64) {
        if self.owned_by_caller() {
            self.flush_to(now);
        }
        // Saturating decrement: a stray end (e.g. double-completion in a
        // torn-down cluster) must not wrap the gauge to u64::MAX.
        let _ = self
            .async_ops
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
    }

    /// Totals as of `now`, including the still-open segment. Read-only:
    /// safe to call from any thread while the owner keeps transitioning
    /// (a racing reader sees totals at most one segment stale).
    pub fn read_at(&self, now: u64) -> PhaseSnapshot {
        let mut snap = PhaseSnapshot::default();
        if !self.started() {
            return snap;
        }
        for (i, b) in self.bucket_nanos.iter().enumerate() {
            snap.bucket_nanos[i] = b.load(Ordering::Relaxed);
        }
        snap.inflight_nanos = self.inflight_nanos.load(Ordering::Relaxed);
        snap.overlap_nanos = self.overlap_nanos.load(Ordering::Relaxed);
        let last = self.last_flush.load(Ordering::Relaxed);
        let dt = now.saturating_sub(last);
        if dt > 0 {
            let cur = self.cur.load(Ordering::Relaxed).min(N_BUCKETS - 1);
            snap.bucket_nanos[cur] += dt;
            if self.async_ops.load(Ordering::Relaxed) > 0 {
                snap.inflight_nanos += dt;
                if cur == TimeBucket::Compute as usize {
                    snap.overlap_nanos += dt;
                }
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_wall_clock() {
        let p = PhaseStats::new();
        p.start_at(100);
        assert!(p.push_at(TimeBucket::CommWait, 200)); // compute 100..200
        assert!(p.push_at(TimeBucket::Gc, 250)); // comm_wait 200..250
        p.pop_at(300); // gc 250..300
        p.pop_at(400); // comm_wait 300..400
        let s = p.read_at(450); // compute 400..450
        assert_eq!(s.bucket_nanos[TimeBucket::Compute as usize], 150);
        assert_eq!(s.bucket_nanos[TimeBucket::CommWait as usize], 150);
        assert_eq!(s.bucket_nanos[TimeBucket::Gc as usize], 50);
        assert_eq!(s.bucket_nanos.iter().sum::<u64>(), 350);
    }

    #[test]
    fn transitions_before_start_are_noops() {
        let p = PhaseStats::new();
        assert!(!p.push_at(TimeBucket::CommWait, 50));
        p.pop_at(60);
        assert_eq!(p.read_at(100), PhaseSnapshot::default());
        p.start_at(100);
        assert_eq!(p.read_at(150).bucket_nanos.iter().sum::<u64>(), 50);
    }

    #[test]
    fn only_the_starting_thread_enters_buckets() {
        let p = PhaseStats::new();
        p.start_at(0);
        std::thread::scope(|s| {
            s.spawn(|| assert!(!p.push_at(TimeBucket::Gc, 10)));
        });
        assert!(p.push_at(TimeBucket::Gc, 20));
        p.pop_at(30);
        let s = p.read_at(30);
        assert_eq!(s.bucket_nanos[TimeBucket::Gc as usize], 10);
        assert_eq!(s.bucket_nanos[TimeBucket::Compute as usize], 20);
    }

    #[test]
    fn overlap_counts_compute_while_in_flight() {
        let p = PhaseStats::new();
        p.start_at(0);
        p.async_begin_at(100); // compute+inflight from 100
        assert!(p.push_at(TimeBucket::CommWait, 300)); // overlap 100..300
        p.pop_at(400); // inflight-but-waiting 300..400
        p.async_end_at(600); // overlap 400..600
        let s = p.read_at(1000);
        assert_eq!(s.inflight_nanos, 500);
        assert_eq!(s.overlap_nanos, 400);
        assert_eq!(s.bucket_nanos.iter().sum::<u64>(), 1000);
    }

    /// A request dropped on a helper thread ends its interval there: the
    /// gauge moves, but the accumulators and the flush mark — which only
    /// the owner writes — do not, and the owner's next transition bills
    /// the whole segment.
    #[test]
    fn async_end_from_another_thread_moves_the_gauge_only() {
        let p = PhaseStats::new();
        p.start_at(0);
        p.async_begin_at(100);
        std::thread::scope(|s| {
            s.spawn(|| {
                p.async_begin_at(150);
                p.async_end_at(200);
                p.async_end_at(250);
            });
        });
        assert_eq!(p.last_flush.load(Ordering::Relaxed), 100, "not flushed");
        assert_eq!(p.async_ops.load(Ordering::Relaxed), 0, "gauge moved");
        assert_eq!(p.inflight_nanos.load(Ordering::Relaxed), 0);
        // Nothing is in flight any more when the owner next flushes, so
        // 100..400 is computation outside any in-flight interval.
        assert!(p.push_at(TimeBucket::CommWait, 400));
        let s = p.read_at(400);
        assert_eq!(s.bucket_nanos[TimeBucket::Compute as usize], 400);
        assert_eq!(s.inflight_nanos, 0);
        assert_eq!(s.bucket_nanos.iter().sum::<u64>(), 400);
    }

    #[test]
    fn deep_nesting_saturates_but_stays_paired() {
        let p = PhaseStats::new();
        p.start_at(0);
        for i in 0..(MAX_PHASE_DEPTH + 10) as u64 {
            assert!(p.push_at(TimeBucket::Serialize, i));
        }
        for i in 0..(MAX_PHASE_DEPTH + 10) as u64 {
            p.pop_at(100 + i);
        }
        // Serialize from 0 to the last pop at 141, compute after it.
        let s = p.read_at(200);
        assert_eq!(s.bucket_nanos[TimeBucket::Serialize as usize], 141);
        assert_eq!(s.bucket_nanos[TimeBucket::Compute as usize], 59);
    }

    #[test]
    fn async_end_never_underflows() {
        let p = PhaseStats::new();
        p.start_at(0);
        p.async_end_at(10);
        p.async_begin_at(20);
        p.async_end_at(30);
        let s = p.read_at(40);
        assert_eq!(s.inflight_nanos, 10);
    }

    /// Drive the phase machine through a seeded script of transitions on
    /// a virtual clock and return its totals at the end.
    fn seeded_run(seed: u64) -> PhaseSnapshot {
        use motor_pal::clock::{TickSource, VirtualClock};
        // splitmix64: a tiny deterministic RNG for the script.
        let mut state = seed;
        let mut below = |n: u64| {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            (z ^ (z >> 31)) % n
        };
        let clock = VirtualClock::new();
        let p = PhaseStats::new();
        p.start_at(clock.now_ticks());
        let mut pushed = 0u32;
        for _ in 0..4_000 {
            let now = clock.advance(1 + below(997));
            match below(10) {
                0 | 1 if p.push_at(TimeBucket::ALL[below(5) as usize], now) => pushed += 1,
                2 if pushed > 0 => {
                    p.pop_at(now);
                    pushed -= 1;
                }
                3 => p.async_begin_at(now),
                4 => p.async_end_at(now),
                _ => {} // compute: time passes, nothing transitions
            }
        }
        p.read_at(clock.now_ticks())
    }

    /// Every transition takes an explicit timestamp, so under a virtual
    /// clock the same script gives identical totals.
    #[test]
    fn same_seed_reproduces_bucket_totals_exactly() {
        let a = seeded_run(0xC0FFEE);
        assert_eq!(a, seeded_run(0xC0FFEE), "bucket totals must be identical");
        assert!(a.bucket_nanos.iter().sum::<u64>() > 0);
        assert!(a.bucket_nanos.iter().filter(|&&n| n > 0).count() >= 3);
        // A constant-output script would make the check above vacuous.
        assert_ne!(seeded_run(1), seeded_run(2));
    }
}
