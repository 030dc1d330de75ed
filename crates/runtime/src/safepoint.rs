//! Stop-the-world safepoint coordination.
//!
//! Paper §5.2: "To perform a garbage collection, all threads must be frozen
//! in a safe point. To facilitate this, the jitted code periodically polls
//! to yield itself to garbage collection, in case it is necessary." And
//! §5.1 on FCalls: "they must behave like managed code. This means they
//! must periodically yield to the garbage collector ... If yielding is not
//! performed and a garbage collection is required, the FCall would make all
//! other threads wait until it polls for collection."
//!
//! The protocol: every attached thread is either *cooperative* (may touch
//! the heap; must poll) or *native* (promises not to touch the heap; the
//! collector does not wait for it — the analog of the CLR's pre-emptive
//! mode, which Motor's polling-wait uses while the transport progresses).
//! A collector candidate raises the request flag and waits until every
//! other cooperative thread has parked at a poll; it then has exclusive
//! heap access.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use motor_obs::{Hist, Metric, MetricsRegistry, SpanKind};
use parking_lot::{Condvar, Mutex, MutexGuard};

#[derive(Debug, Default)]
struct SpInner {
    /// Attached threads.
    registered: usize,
    /// Threads currently inside native regions.
    native: usize,
    /// Threads parked at a safepoint.
    parked: usize,
    /// A collection is pending or in progress.
    collecting: bool,
    /// Completed collections (lets waiters detect completion).
    epoch: u64,
}

/// The safepoint coordinator of one VM.
#[derive(Debug, Default)]
pub struct Safepoint {
    gc_requested: AtomicBool,
    inner: Mutex<SpInner>,
    cvar: Condvar,
    /// Stall accounting sink; unattached safepoints go unmetered.
    metrics: OnceLock<Arc<MetricsRegistry>>,
}

impl Safepoint {
    /// Create a coordinator with no attached threads.
    pub fn new() -> Self {
        Self::default()
    }

    /// Report safepoint stalls into `registry` from now on (first attach
    /// wins).
    pub fn attach_metrics(&self, registry: Arc<MetricsRegistry>) {
        let _ = self.metrics.set(registry);
    }

    /// Park at the safepoint while a collection is pending or in progress;
    /// returns whether the thread had to. The wait is a `safepoint_stall`
    /// span on the attached registry, so it shows on the timeline, in the
    /// in-flight table while it lasts, and in the `gc` time bucket.
    fn park_while_collecting(&self, g: &mut MutexGuard<'_, SpInner>) -> bool {
        if !g.collecting {
            return false;
        }
        let stall = self
            .metrics
            .get()
            .map(|r| (r, r.span(SpanKind::SafepointStall, 0)));
        while g.collecting {
            g.parked += 1;
            self.cvar.notify_all();
            self.cvar.wait(g);
            g.parked -= 1;
        }
        if let Some((r, span)) = stall {
            r.bump(Metric::SafepointStalls);
            r.record(Hist::SafepointStallNanos, span.finish());
        }
        true
    }

    /// Attach the calling thread (cooperative).
    pub fn register(&self) {
        self.inner.lock().registered += 1;
    }

    /// Detach the calling thread. Must not be called from inside a native
    /// region or while parked.
    pub fn deregister(&self) {
        let mut g = self.inner.lock();
        debug_assert!(g.registered > 0);
        g.registered -= 1;
        // A waiting collector may now have all remaining threads parked.
        self.cvar.notify_all();
    }

    /// Fast-path safepoint poll: parks the thread for the duration of any
    /// pending collection. This is the call sites the paper requires on
    /// FCall entry/exit and inside every polling-wait lap.
    #[inline]
    pub fn poll(&self) {
        if self.gc_requested.load(Ordering::Acquire) {
            self.poll_slow();
        }
    }

    #[cold]
    fn poll_slow(&self) {
        self.park_while_collecting(&mut self.inner.lock());
    }

    /// Attempt to become the collector. Returns `true` if the calling
    /// thread now holds exclusive heap access (it must call [`end_gc`]
    /// afterwards); `false` if another thread's collection completed in the
    /// meantime (retry the failed allocation first).
    ///
    /// [`end_gc`]: Safepoint::end_gc
    pub fn try_begin_gc(&self) -> bool {
        let mut g = self.inner.lock();
        if self.park_while_collecting(&mut g) {
            // Someone else collected while this thread parked like a poll.
            return false;
        }
        g.collecting = true;
        self.gc_requested.store(true, Ordering::Release);
        // Wait until every other cooperative thread is parked or native.
        while g.parked + g.native + 1 < g.registered {
            self.cvar.wait(&mut g);
        }
        true
    }

    /// Finish a collection started with [`Safepoint::try_begin_gc`].
    pub fn end_gc(&self) {
        let mut g = self.inner.lock();
        debug_assert!(g.collecting);
        g.collecting = false;
        g.epoch += 1;
        self.gc_requested.store(false, Ordering::Release);
        self.cvar.notify_all();
    }

    /// Enter a native region: the collector will no longer wait for this
    /// thread. The caller promises not to touch the heap until
    /// [`Safepoint::exit_native`].
    pub fn enter_native(&self) {
        let mut g = self.inner.lock();
        g.native += 1;
        // A waiting collector can now proceed.
        self.cvar.notify_all();
    }

    /// Leave a native region; blocks while a collection is pending or in
    /// progress.
    pub fn exit_native(&self) {
        let mut g = self.inner.lock();
        while g.collecting {
            self.cvar.wait(&mut g);
        }
        debug_assert!(g.native > 0);
        g.native -= 1;
    }

    /// Number of completed collections.
    pub fn epoch(&self) -> u64 {
        self.inner.lock().epoch
    }

    /// Whether a collection is currently requested (fast, approximate).
    pub fn gc_pending(&self) -> bool {
        self.gc_requested.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn solo_thread_collects_immediately() {
        let sp = Safepoint::new();
        sp.register();
        assert!(sp.try_begin_gc());
        sp.end_gc();
        assert_eq!(sp.epoch(), 1);
        sp.deregister();
    }

    #[test]
    fn collector_waits_for_peer_to_poll() {
        let sp = Arc::new(Safepoint::new());
        sp.register(); // main
        let sp2 = Arc::clone(&sp);
        let order = Arc::new(AtomicUsize::new(0));
        let order2 = Arc::clone(&order);
        let peer = std::thread::spawn(move || {
            sp2.register();
            // Simulate work, then poll.
            std::thread::sleep(Duration::from_millis(10));
            order2.store(1, Ordering::SeqCst);
            sp2.poll(); // parks until collection done
            sp2.deregister();
        });
        // Give the peer time to register.
        std::thread::sleep(Duration::from_millis(2));
        assert!(sp.try_begin_gc());
        // By the time begin_gc returns, the peer must have polled.
        assert_eq!(order.load(Ordering::SeqCst), 1);
        sp.end_gc();
        peer.join().unwrap();
        sp.deregister();
    }

    #[test]
    fn native_region_does_not_block_collector() {
        let sp = Arc::new(Safepoint::new());
        sp.register();
        let sp2 = Arc::clone(&sp);
        let peer = std::thread::spawn(move || {
            sp2.register();
            sp2.enter_native();
            // Stay in native mode for a long time; the collector must not
            // wait for us.
            std::thread::sleep(Duration::from_millis(100));
            sp2.exit_native();
            sp2.deregister();
        });
        std::thread::sleep(Duration::from_millis(10));
        let t0 = std::time::Instant::now();
        assert!(sp.try_begin_gc());
        assert!(
            t0.elapsed() < Duration::from_millis(80),
            "collector should not wait for native thread"
        );
        sp.end_gc();
        peer.join().unwrap();
        sp.deregister();
    }

    #[test]
    fn exit_native_blocks_during_collection() {
        let sp = Arc::new(Safepoint::new());
        sp.register();
        let sp2 = Arc::clone(&sp);
        sp.enter_native();
        let main_in_native = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            sp2.exit_native();
            sp2.epoch()
        });
        // Another thread collects while main is native.
        let sp3 = Arc::clone(&sp);
        let collector = std::thread::spawn(move || {
            sp3.register();
            assert!(sp3.try_begin_gc());
            std::thread::sleep(Duration::from_millis(50));
            sp3.end_gc();
            sp3.deregister();
        });
        let epoch_after_exit = main_in_native.join().unwrap();
        collector.join().unwrap();
        assert_eq!(
            epoch_after_exit, 1,
            "exit_native returned only after the collection"
        );
        sp.deregister();
    }

    #[test]
    fn losing_racer_retries_instead_of_collecting() {
        let sp = Arc::new(Safepoint::new());
        sp.register();
        let sp2 = Arc::clone(&sp);
        let winner_done = Arc::new(AtomicBool::new(false));
        let wd = Arc::clone(&winner_done);
        let racer = std::thread::spawn(move || {
            sp2.register();
            let got = sp2.try_begin_gc();
            if got {
                std::thread::sleep(Duration::from_millis(10));
                wd.store(true, Ordering::SeqCst);
                sp2.end_gc();
            }
            sp2.deregister();
            got
        });
        std::thread::sleep(Duration::from_millis(2));
        let mine = sp.try_begin_gc();
        if mine {
            sp.end_gc();
        }
        let theirs = racer.join().unwrap();
        // Exactly one of the two racers performed the collection... or both
        // sequentially (if timing separated them). Never neither.
        assert!(mine || theirs);
        assert!(sp.epoch() >= 1);
        sp.deregister();
    }
}
