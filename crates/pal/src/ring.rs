//! Single-producer / single-consumer byte ring buffers.
//!
//! This is the shared-memory transport primitive underneath the in-process
//! "shm" links — the analog of the shared-memory segments used by MPICH2's
//! `shm` channel. One side owns the [`RingProducer`], the other the
//! [`RingConsumer`]; both are `Send` but each may live on only one thread at
//! a time, which is exactly the SPSC contract the atomics rely on.
//!
//! The implementation follows the classic lock-free SPSC design (see *Rust
//! Atomics and Locks*, ch. 5): monotonically increasing head/tail counters
//! and `Acquire`/`Release` pairs on the counter the peer publishes. Each
//! side caches the peer's counter (FastForward's and MCRingBuffer's
//! cached index): it only moves forward, so a stale copy understates the
//! room or input there is, and is re-read only when too short for a call.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::error::{PalError, PalResult};

/// A counter alone on its cache lines: the producer's and the consumer's
/// counters sit 128 bytes apart, so that neither side's stores (nor the
/// adjacent-line prefetch) invalidate the line the other side writes.
#[repr(align(128))]
struct Padded(AtomicUsize);

const _: () = assert!(std::mem::align_of::<Padded>() == 128);

/// Shared state of one ring.
struct Ring {
    buf: Box<[UnsafeCell<u8>]>,
    mask: usize,
    /// Read position (owned by the consumer, published to the producer).
    head: Padded,
    /// Write position (owned by the producer, published to the consumer).
    tail: Padded,
    closed: AtomicBool,
}

// SAFETY: the producer only writes slots in `[tail, head + capacity)` and the
// consumer only reads slots in `[head, tail)`; the head/tail handoff uses
// Release/Acquire so the byte writes happen-before the matching reads.
unsafe impl Sync for Ring {}
// SAFETY: all fields are plain bytes, atomics, or owned heap storage; nothing
// in `Ring` is tied to the thread that allocated it.
unsafe impl Send for Ring {}

impl Ring {
    fn capacity(&self) -> usize {
        self.buf.len()
    }
}

/// Writing half of an SPSC byte ring.
pub struct RingProducer {
    ring: Arc<Ring>,
    /// The ring's `tail`, which only this half writes.
    tail: usize,
    /// The consumer's `head` as last read.
    head: usize,
}

/// Reading half of an SPSC byte ring.
pub struct RingConsumer {
    ring: Arc<Ring>,
    /// The ring's `head`, which only this half writes.
    head: usize,
    /// The producer's `tail` as last read.
    tail: usize,
}

/// Create a ring with the given capacity (rounded up to a power of two,
/// minimum 64 bytes) and return its two halves.
pub fn ring(capacity: usize) -> (RingProducer, RingConsumer) {
    let cap = capacity.max(64).next_power_of_two();
    let buf: Box<[UnsafeCell<u8>]> = (0..cap).map(|_| UnsafeCell::new(0)).collect();
    let ring = Arc::new(Ring {
        buf,
        mask: cap - 1,
        head: Padded(AtomicUsize::new(0)),
        tail: Padded(AtomicUsize::new(0)),
        closed: AtomicBool::new(false),
    });
    (
        RingProducer {
            ring: Arc::clone(&ring),
            tail: 0,
            head: 0,
        },
        RingConsumer {
            ring,
            head: 0,
            tail: 0,
        },
    )
}

impl RingProducer {
    /// Capacity of the ring in bytes.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Bytes that can currently be written without blocking.
    pub fn free(&self) -> usize {
        let head = self.ring.head.0.load(Ordering::Acquire);
        self.ring.capacity() - self.tail.wrapping_sub(head)
    }

    /// Non-blocking write. Copies as many bytes of `src` as fit and returns
    /// the number written (possibly zero).
    pub fn try_write(&mut self, src: &[u8]) -> PalResult<usize> {
        if self.is_closed() {
            return Err(PalError::Disconnected);
        }
        let cap = self.ring.capacity();
        // The cached head understates the room: re-read only when short.
        if cap - self.tail.wrapping_sub(self.head) < src.len() {
            self.head = self.ring.head.0.load(Ordering::Acquire);
        }
        let n = (cap - self.tail.wrapping_sub(self.head)).min(src.len());
        if n == 0 {
            return Ok(0);
        }
        let start = self.tail & self.ring.mask;
        let first = n.min(cap - start);
        // SAFETY: the producer exclusively owns the free region; see Ring.
        unsafe {
            let base = self.ring.buf.as_ptr() as *mut u8;
            std::ptr::copy_nonoverlapping(src.as_ptr(), base.add(start), first);
            if n > first {
                std::ptr::copy_nonoverlapping(src.as_ptr().add(first), base, n - first);
            }
        }
        self.tail = self.tail.wrapping_add(n);
        self.ring.tail.0.store(self.tail, Ordering::Release);
        Ok(n)
    }

    /// Whether the consumer half has been dropped or the ring closed.
    pub fn is_closed(&self) -> bool {
        self.ring.closed.load(Ordering::Relaxed) || Arc::strong_count(&self.ring) == 1
    }

    /// Mark the ring closed; the consumer will observe it once drained.
    pub fn close(&self) {
        self.ring.closed.store(true, Ordering::Release);
    }
}

impl RingConsumer {
    /// Capacity of the ring in bytes.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Bytes currently available to read.
    pub fn available(&self) -> usize {
        let tail = self.ring.tail.0.load(Ordering::Acquire);
        tail.wrapping_sub(self.head)
    }

    /// Non-blocking read. Copies up to `dst.len()` bytes and returns the
    /// number read (possibly zero).
    pub fn try_read(&mut self, dst: &mut [u8]) -> PalResult<usize> {
        // The cached tail understates the input: re-read only when short.
        if self.tail.wrapping_sub(self.head) < dst.len() {
            self.tail = self.ring.tail.0.load(Ordering::Acquire);
        }
        let mut n = self.tail.wrapping_sub(self.head).min(dst.len());
        if n == 0 {
            // Only report disconnection once all buffered bytes are drained,
            // so the peer's final message is never lost. The close flag may
            // be observed before a tail store that preceded it on the
            // producer side, so re-load the tail after seeing the flag.
            if !self.is_closed() {
                return Ok(0);
            }
            self.tail = self.ring.tail.0.load(Ordering::Acquire);
            n = self.tail.wrapping_sub(self.head).min(dst.len());
            if n == 0 {
                return Err(PalError::Disconnected);
            }
        }
        let cap = self.ring.capacity();
        let start = self.head & self.ring.mask;
        let first = n.min(cap - start);
        // SAFETY: the consumer exclusively owns the readable region; see Ring.
        unsafe {
            let base = self.ring.buf.as_ptr() as *const u8;
            std::ptr::copy_nonoverlapping(base.add(start), dst.as_mut_ptr(), first);
            if n > first {
                std::ptr::copy_nonoverlapping(base, dst.as_mut_ptr().add(first), n - first);
            }
        }
        self.head = self.head.wrapping_add(n);
        self.ring.head.0.store(self.head, Ordering::Release);
        Ok(n)
    }

    /// Whether the producer half has been dropped or the ring closed.
    pub fn is_closed(&self) -> bool {
        self.ring.closed.load(Ordering::Relaxed) || Arc::strong_count(&self.ring) == 1
    }
}

impl Drop for RingProducer {
    fn drop(&mut self) {
        self.close();
    }
}

impl Drop for RingConsumer {
    fn drop(&mut self) {
        self.ring.closed.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interleave::two_threads;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[test]
    fn roundtrip_small() {
        let (mut tx, mut rx) = ring(64);
        assert_eq!(tx.try_write(b"hello").unwrap(), 5);
        let mut buf = [0u8; 8];
        assert_eq!(rx.try_read(&mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"hello");
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let (tx, _rx) = ring(100);
        assert_eq!(tx.capacity(), 128);
        let (tx, _rx) = ring(1);
        assert_eq!(tx.capacity(), 64);
    }

    #[test]
    fn write_respects_free_space() {
        let (mut tx, mut rx) = ring(64);
        let data = vec![0xAB; 200];
        let n = tx.try_write(&data).unwrap();
        assert_eq!(n, 64);
        assert_eq!(tx.free(), 0);
        assert_eq!(tx.try_write(&data).unwrap(), 0);
        let mut sink = vec![0u8; 32];
        assert_eq!(rx.try_read(&mut sink).unwrap(), 32);
        assert_eq!(tx.free(), 32);
        assert_eq!(tx.try_write(&data).unwrap(), 32);
    }

    #[test]
    fn wraparound_preserves_bytes() {
        let (mut tx, mut rx) = ring(64);
        let mut next: u8 = 0;
        let mut expect: u8 = 0;
        // Push/pull in mismatched chunk sizes so the indices wrap many times.
        for round in 0..100 {
            let wlen = (round % 13) + 1;
            let chunk: Vec<u8> = (0..wlen)
                .map(|_| {
                    let v = next;
                    next = next.wrapping_add(1);
                    v
                })
                .collect();
            let mut off = 0;
            while off < chunk.len() {
                off += tx.try_write(&chunk[off..]).unwrap();
                let mut buf = [0u8; 7];
                let n = rx.try_read(&mut buf).unwrap();
                for &b in &buf[..n] {
                    assert_eq!(b, expect);
                    expect = expect.wrapping_add(1);
                }
            }
        }
        // Drain what remains.
        let mut buf = [0u8; 64];
        loop {
            let n = rx.try_read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            for &b in &buf[..n] {
                assert_eq!(b, expect);
                expect = expect.wrapping_add(1);
            }
        }
        assert_eq!(expect, next);
    }

    #[test]
    fn dropped_consumer_disconnects_producer() {
        let (mut tx, rx) = ring(64);
        drop(rx);
        assert!(matches!(tx.try_write(b"x"), Err(PalError::Disconnected)));
    }

    #[test]
    fn consumer_drains_before_reporting_close() {
        let (mut tx, mut rx) = ring(64);
        tx.try_write(b"bye").unwrap();
        drop(tx);
        let mut buf = [0u8; 8];
        assert_eq!(rx.try_read(&mut buf).unwrap(), 3);
        assert!(matches!(rx.try_read(&mut buf), Err(PalError::Disconnected)));
    }

    #[test]
    fn cross_thread_stream_integrity() {
        let (mut tx, mut rx) = ring(256);
        const TOTAL: usize = 1 << 18;
        let producer = std::thread::spawn(move || {
            let mut sent = 0usize;
            let mut v: u8 = 0;
            let chunk: Vec<u8> = (0..311u32).map(|_| 0).collect();
            let mut chunk = chunk;
            while sent < TOTAL {
                let want = chunk.len().min(TOTAL - sent);
                for b in chunk[..want].iter_mut() {
                    *b = v;
                    v = v.wrapping_add(1);
                }
                let mut off = 0;
                while off < want {
                    let n = tx.try_write(&chunk[off..want]).unwrap();
                    off += n;
                    if n == 0 {
                        std::thread::yield_now();
                    }
                }
                sent += want;
            }
        });
        let mut got = 0usize;
        let mut expect: u8 = 0;
        let mut buf = [0u8; 173];
        while got < TOTAL {
            let n = rx.try_read(&mut buf).unwrap();
            for &b in &buf[..n] {
                assert_eq!(b, expect, "corruption at byte {got}");
                expect = expect.wrapping_add(1);
            }
            got += n;
        }
        producer.join().unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 64 }))]

        /// The cached indices change no outcome: on a 64-byte ring, every
        /// write and read of a random length — across the wrap, into a
        /// full ring, out of an empty one — moves exactly the bytes a
        /// `VecDeque` of capacity 64 says, and `free`/`available` agree.
        #[test]
        fn cached_indices_match_a_deque_model(
            ops in proptest::collection::vec((any::<bool>(), 0usize..80), 1..200)
        ) {
            let (mut tx, mut rx) = ring(64);
            let mut model = VecDeque::new();
            let mut next = 0u8;
            for (write, len) in ops {
                if write {
                    let chunk: Vec<u8> = (0..len as u8).map(|i| next.wrapping_add(i)).collect();
                    let n = tx.try_write(&chunk).unwrap();
                    prop_assert_eq!(n, len.min(64 - model.len()));
                    model.extend(&chunk[..n]);
                    next = next.wrapping_add(n as u8);
                } else {
                    let mut buf = vec![0u8; len];
                    let n = rx.try_read(&mut buf).unwrap();
                    prop_assert_eq!(n, len.min(model.len()));
                    let want: Vec<u8> = model.drain(..n).collect();
                    prop_assert_eq!(&buf[..n], &want[..]);
                }
                prop_assert_eq!(tx.free(), 64 - model.len());
                prop_assert_eq!(rx.available(), model.len());
            }
        }
    }

    /// Where the consumer's read lands among the producer's two writes:
    /// `Gate` runs it to completion there, `Release` lets it race the
    /// write that follows.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Step {
        Write,
        Gate,
        Release,
    }

    /// Two writes of 48 and 40 bytes into a 64-byte ring, and one read of
    /// up to 32 on a second thread: before both writes, between them —
    /// the first write leaves a cached room of 16, the read frees 32 more
    /// before the second write finds 16 short and re-reads the head —
    /// after both, and racing the second. Returns what each write took
    /// and the whole stream the consumer received.
    fn run(steps: &[Step]) -> (Vec<usize>, Vec<u8>) {
        let (mut tx, mut rx) = ring(64);
        let stream: Vec<u8> = (0..88u8).collect();
        let ((wrote, _tx), (mut rx, mut got)) = two_threads(
            |turn| {
                let (mut wrote, mut off) = (Vec::new(), 0);
                for step in steps {
                    match step {
                        Step::Write => {
                            let len = if off == 0 { 48 } else { 40 };
                            let n = tx.try_write(&stream[off..off + len]).unwrap();
                            off += n;
                            wrote.push(n);
                        }
                        Step::Gate => turn.gate(),
                        Step::Release => turn.release(),
                    }
                }
                (wrote, tx)
            },
            move || {
                let mut buf = [0u8; 32];
                let n = rx.try_read(&mut buf).unwrap();
                (rx, buf[..n].to_vec())
            },
        );
        let mut buf = [0u8; 64];
        let n = rx.try_read(&mut buf).unwrap();
        got.extend_from_slice(&buf[..n]);
        (wrote, got)
    }

    #[test]
    fn consumer_frees_room_between_the_cached_check_and_the_refresh() {
        use Step::*;
        let rounds = if cfg!(miri) { 2 } else { 200 };
        for _ in 0..rounds {
            for steps in [
                [Gate, Write, Write],
                [Write, Gate, Write],
                [Write, Write, Gate],
                [Write, Release, Write],
            ] {
                let (wrote, got) = run(&steps);
                let want = match steps {
                    // Read from an empty ring: the second write fills it.
                    [Gate, ..] => Some(vec![48, 16]),
                    // The refresh finds the 32 bytes freed since.
                    [Write, Gate, Write] => Some(vec![48, 40]),
                    // Full before the read.
                    [Write, Write, Gate] => Some(vec![48, 16]),
                    // Raced: 16 or 40, whichever the refresh saw.
                    _ => None,
                };
                if let Some(want) = want {
                    assert_eq!(wrote, want, "{steps:?}");
                }
                // Never an overwrite of unread bytes, never a lost one.
                let total: usize = wrote.iter().sum();
                assert_eq!(got, (0..total as u8).collect::<Vec<_>>(), "{steps:?}");
            }
        }
    }
}
