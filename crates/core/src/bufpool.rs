//! Reusable transport buffers for the object-oriented operations.
//!
//! Paper §7.5: "Motor provides buffers for object oriented message passing
//! operations, which are allocated from static runtime memory. They are
//! created on demand and stored in a stack for later use. At garbage
//! collection the stack is checked for buffers which are unused since the
//! last garbage collection and these are unallocated."
//!
//! The buffers live outside the managed heap ("static runtime memory"), so
//! the OO operations never need to pin (§7.4: "The Motor extended object
//! oriented operations do not need to pin memory because the Motor custom
//! serialization mechanism provides a static memory buffer").

use std::collections::TryReserveError;
use std::sync::{Arc, OnceLock};

use motor_obs::{Metric, MetricsRegistry};
use parking_lot::Mutex;

/// A pooled buffer; return it with [`BufPool::put`].
pub struct PoolBuf {
    buf: Vec<u8>,
}

impl PoolBuf {
    /// The buffer contents (mutably).
    pub fn buf_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// The buffer contents (read side).
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

impl AsMut<[u8]> for PoolBuf {
    fn as_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

struct Entry {
    buf: Vec<u8>,
    /// GC epoch at which this buffer was last used.
    last_used_epoch: u64,
}

/// The buffer stack.
#[derive(Default)]
pub struct BufPool {
    stack: Mutex<Vec<Entry>>,
    /// Hit-rate accounting sink; unattached pools go unmetered.
    metrics: OnceLock<Arc<MetricsRegistry>>,
}

impl BufPool {
    /// Create an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Report pool traffic into `registry` from now on (first attach wins).
    pub fn attach_metrics(&self, registry: Arc<MetricsRegistry>) {
        let _ = self.metrics.set(registry);
    }

    #[inline]
    fn meter(&self, m: Metric) {
        if let Some(r) = self.metrics.get() {
            r.bump(m);
        }
    }

    /// Acquire a buffer of at least `capacity` bytes, reusing the most
    /// recently returned buffer that fits (stack discipline, as in the
    /// paper). `epoch` is the VM's current collection epoch.
    pub fn get(&self, capacity: usize, epoch: u64) -> PoolBuf {
        self.try_get(capacity, epoch)
            .expect("transport buffer allocation")
    }

    /// [`BufPool::get`] for a `capacity` that is another rank's claim: one
    /// that cannot be allocated is an error, not a panic or an abort.
    pub fn try_get(&self, capacity: usize, _epoch: u64) -> Result<PoolBuf, TryReserveError> {
        self.meter(Metric::PoolGets);
        let mut stack = self.stack.lock();
        // Prefer the top of the stack (hot buffer).
        if let Some(pos) = stack.iter().rposition(|e| e.buf.capacity() >= capacity) {
            let mut e = stack.remove(pos);
            drop(stack);
            e.buf.clear();
            self.meter(Metric::PoolHits);
            return Ok(PoolBuf { buf: e.buf });
        }
        // Take any buffer and let it grow, or make a new one.
        let reused = stack.pop();
        drop(stack);
        let buf = match reused {
            Some(mut e) => {
                self.meter(Metric::PoolPartialHits);
                e.buf.clear();
                e.buf.try_reserve(capacity)?;
                e.buf
            }
            None => {
                self.meter(Metric::PoolMisses);
                let mut buf = Vec::new();
                buf.try_reserve_exact(capacity)?;
                buf
            }
        };
        Ok(PoolBuf { buf })
    }

    /// Return a buffer to the stack, stamping the epoch of its last use.
    pub fn put(&self, buf: PoolBuf, epoch: u64) {
        self.meter(Metric::PoolPuts);
        self.stack.lock().push(Entry {
            buf: buf.buf,
            last_used_epoch: epoch,
        });
    }

    /// The GC hook: unallocate buffers unused since the previous
    /// collection. Call with the *new* epoch after a collection completes;
    /// buffers whose last use predates the previous epoch are dropped.
    pub fn trim_at_gc(&self, current_epoch: u64) {
        let mut stack = self.stack.lock();
        let before = stack.len();
        stack.retain(|e| e.last_used_epoch + 1 >= current_epoch);
        let dropped = (before - stack.len()) as u64;
        drop(stack);
        if dropped > 0 {
            if let Some(r) = self.metrics.get() {
                r.add(Metric::PoolTrimmed, dropped);
            }
        }
    }

    /// Buffers currently pooled.
    pub fn len(&self) -> usize {
        self.stack.lock().len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.stack.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_reused_lifo() {
        let pool = BufPool::new();
        let mut a = pool.get(100, 0);
        a.buf_mut().extend_from_slice(&[1, 2, 3]);
        let cap = a.buf_mut().capacity();
        pool.put(a, 0);
        assert_eq!(pool.len(), 1);
        let b = pool.get(50, 0);
        assert_eq!(b.as_mut_capacity(), cap);
        assert!(b.as_slice().is_empty(), "reused buffers are cleared");
    }

    impl PoolBuf {
        fn as_mut_capacity(&self) -> usize {
            self.buf.capacity()
        }
    }

    #[test]
    fn small_buffers_grow_rather_than_allocate_new() {
        let pool = BufPool::new();
        let a = pool.get(16, 0);
        pool.put(a, 0);
        let b = pool.get(1 << 20, 0);
        assert!(b.as_mut_capacity() >= 1 << 20);
        assert_eq!(pool.len(), 0, "the small buffer was consumed and grown");
    }

    #[test]
    fn trim_drops_stale_buffers_only() {
        let pool = BufPool::new();
        // Hold both simultaneously so they are distinct buffers.
        let a = pool.get(10, 0);
        let b = pool.get(10, 0);
        pool.put(a, 0); // last used at epoch 0
        pool.put(b, 5); // last used at epoch 5
        assert_eq!(pool.len(), 2);
        // A collection at epoch 6: buffers unused since epoch 5 survive,
        // the epoch-0 buffer is unallocated.
        pool.trim_at_gc(6);
        assert_eq!(pool.len(), 1);
        // Another collection much later drops the rest.
        pool.trim_at_gc(100);
        assert!(pool.is_empty());
    }
}
