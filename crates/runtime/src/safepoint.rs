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
//!
//! The coordinator counts the attached threads by listing their handle
//! tables — the root set — so a table joins and leaves the list in the
//! same critical section as its thread joins and leaves the protocol, and
//! the collector scans exactly the tables of the threads it stopped.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use motor_obs::{Hist, Metric, MetricsRegistry, SpanKind};
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::handles::SharedTable;

#[derive(Debug, Default)]
struct SpInner {
    /// The attached threads' handle tables, one per thread.
    tables: Vec<Arc<SharedTable>>,
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

    /// Attach the calling thread (cooperative) with its handle table. A
    /// thread that attaches while a collection is pending or in progress
    /// parks at once, as at a poll: it counts as stopped, and it touches
    /// nothing before the collection ends.
    pub(crate) fn register(&self, table: &Arc<SharedTable>) {
        let mut g = self.inner.lock();
        g.tables.push(Arc::clone(table));
        self.park_while_collecting(&mut g);
    }

    /// Detach the calling thread and unlist its table; `native` says it
    /// leaves from inside a native region. Must not be called while parked.
    pub(crate) fn deregister(&self, table: &Arc<SharedTable>, native: bool) {
        let mut g = self.inner.lock();
        if native {
            debug_assert!(g.native > 0);
            g.native -= 1;
        }
        g.tables.retain(|t| !Arc::ptr_eq(t, table));
        // A waiting collector may now have all remaining threads parked.
        self.cvar.notify_all();
    }

    /// The attached threads' handle tables, for the collector (which
    /// scans them only while it holds the role, see `SharedTable`).
    pub(crate) fn tables(&self) -> Vec<Arc<SharedTable>> {
        self.inner.lock().tables.clone()
    }

    /// Run `f` while no collection runs and at most one attached thread —
    /// the caller, attached and cooperative — is neither parked nor
    /// native, holding the coordinator's mutex so that nobody attaches,
    /// detaches, leaves a native region or starts a collection meanwhile;
    /// `None` when the world is not stopped so.
    pub(crate) fn with_world_stopped<R>(
        &self,
        f: impl FnOnce(&[Arc<SharedTable>]) -> R,
    ) -> Option<R> {
        let g = self.inner.lock();
        let running = g.tables.len() - g.parked - g.native;
        (!g.collecting && running <= 1).then(|| f(&g.tables))
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
    pub(crate) fn try_begin_gc(&self) -> bool {
        let ours = self.request_gc();
        if ours {
            self.await_parked();
        }
        ours
    }

    /// The first step of [`Safepoint::try_begin_gc`]: raise the request,
    /// or park if another thread's collection is pending (`false`).
    pub(crate) fn request_gc(&self) -> bool {
        let mut g = self.inner.lock();
        if self.park_while_collecting(&mut g) {
            // Someone else collected while this thread parked like a poll.
            return false;
        }
        g.collecting = true;
        self.gc_requested.store(true, Ordering::Release);
        true
    }

    /// The second step: wait until every other cooperative thread is
    /// parked or native.
    pub(crate) fn await_parked(&self) {
        let mut g = self.inner.lock();
        while g.parked + g.native + 1 < g.tables.len() {
            self.cvar.wait(&mut g);
        }
    }

    /// Finish a collection started with [`Safepoint::try_begin_gc`].
    pub(crate) fn end_gc(&self) {
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
    pub(crate) fn enter_native(&self) {
        let mut g = self.inner.lock();
        g.native += 1;
        // A waiting collector can now proceed.
        self.cvar.notify_all();
    }

    /// Leave a native region; blocks while a collection is pending or in
    /// progress.
    pub(crate) fn exit_native(&self) {
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
impl Safepoint {
    /// Threads parked at a safepoint right now (schedule tests).
    pub(crate) fn parked(&self) -> usize {
        self.inner.lock().parked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::time::Duration;

    /// Attach the calling thread with an empty table of its own.
    fn attach(sp: &Safepoint) -> Arc<SharedTable> {
        let table = Arc::new(SharedTable::default());
        sp.register(&table);
        table
    }

    #[test]
    fn solo_thread_collects_immediately() {
        let sp = Safepoint::new();
        let main = attach(&sp);
        assert!(sp.try_begin_gc());
        sp.end_gc();
        assert_eq!(sp.epoch(), 1);
        sp.deregister(&main, false);
    }

    #[test]
    fn collector_waits_for_peer_to_poll() {
        let sp = Arc::new(Safepoint::new());
        let main = attach(&sp);
        let sp2 = Arc::clone(&sp);
        let order = Arc::new(AtomicUsize::new(0));
        let order2 = Arc::clone(&order);
        let (registered, peer_attached) = std::sync::mpsc::channel();
        let peer = std::thread::spawn(move || {
            let me = attach(&sp2);
            registered.send(()).unwrap();
            // Simulate work, then poll.
            std::thread::sleep(Duration::from_millis(10));
            order2.store(1, Ordering::SeqCst);
            sp2.poll(); // parks until collection done
            sp2.deregister(&me, false);
        });
        // A peer attaching during a collection would park at once.
        peer_attached.recv().unwrap();
        assert!(sp.try_begin_gc());
        // By the time begin_gc returns, the peer must have polled.
        assert_eq!(order.load(Ordering::SeqCst), 1);
        sp.end_gc();
        peer.join().unwrap();
        sp.deregister(&main, false);
    }

    #[test]
    fn native_region_does_not_block_collector() {
        let sp = Arc::new(Safepoint::new());
        let main = attach(&sp);
        let sp2 = Arc::clone(&sp);
        let peer = std::thread::spawn(move || {
            let me = attach(&sp2);
            sp2.enter_native();
            // Stay in native mode for a long time; the collector must not
            // wait for us.
            std::thread::sleep(Duration::from_millis(100));
            sp2.exit_native();
            sp2.deregister(&me, false);
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
        sp.deregister(&main, false);
    }

    #[test]
    fn exit_native_blocks_during_collection() {
        let sp = Arc::new(Safepoint::new());
        let main = attach(&sp);
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
            let me = attach(&sp3);
            assert!(sp3.try_begin_gc());
            std::thread::sleep(Duration::from_millis(50));
            sp3.end_gc();
            sp3.deregister(&me, false);
        });
        let epoch_after_exit = main_in_native.join().unwrap();
        collector.join().unwrap();
        assert_eq!(
            epoch_after_exit, 1,
            "exit_native returned only after the collection"
        );
        sp.deregister(&main, false);
    }

    #[test]
    fn losing_racer_retries_instead_of_collecting() {
        let sp = Arc::new(Safepoint::new());
        let main = attach(&sp);
        let sp2 = Arc::clone(&sp);
        let winner_done = Arc::new(AtomicBool::new(false));
        let wd = Arc::clone(&winner_done);
        let racer = std::thread::spawn(move || {
            let me = attach(&sp2);
            let got = sp2.try_begin_gc();
            if got {
                std::thread::sleep(Duration::from_millis(10));
                wd.store(true, Ordering::SeqCst);
                sp2.end_gc();
            }
            sp2.deregister(&me, false);
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
        sp.deregister(&main, false);
    }
}
