//! Exposed send windows: the "registered memory" of an in-process link.
//!
//! Two link ends that share an address space can skip the byte stream for
//! bulk data: the sender *exposes* the window it would otherwise stream,
//! the receiver *pulls* it with one `memcpy` — the RDMA read of
//! *MPICH2 over InfiniBand*'s zero-copy design, where the registered
//! buffer is simply memory both threads can address. No address ever
//! travels through the link: the two [`Windows`] handles of a pair share
//! one table, and a window is named by an id the sender chose (the device
//! uses its send-request id, which the RTS frame carries anyway).
//!
//! # Window lifetime
//!
//! A window is pullable from [`Windows::expose`] until its [`Exposure`]
//! is dropped (*revoked*). Pull and revoke exclude each other **per
//! window**: a pull holds the window's own lock across its copy, a revoke
//! takes that lock, so once a revoke returns no copy reads the window any
//! more and none starts. The table lock is held only to insert, look up
//! or remove an entry — never across a copy — so exposing the next window
//! is not delayed by a pull of the previous one.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// One exposed window.
struct Window {
    ptr: *const u8,
    len: usize,
    /// Held across a pull's copy.
    revoked: Mutex<bool>,
}

// SAFETY: `ptr` is only dereferenced by `Windows::pull`, under `revoked`
// and only while it is `false`; the exposer guarantees (contract of
// `Windows::expose`) that the window stays valid and unwritten until the
// revoke that sets it has returned. `len` is immutable.
unsafe impl Send for Window {}
// SAFETY: as above — shared access goes through the `revoked` mutex.
unsafe impl Sync for Window {}

/// The table the two ends of one link share: one map per end.
#[derive(Default)]
struct Table {
    sides: [Mutex<HashMap<u64, Arc<Window>>>; 2],
}

/// One end's handle on a link's shared window table. Cheap to clone.
#[derive(Clone)]
pub struct Windows {
    table: Arc<Table>,
    /// Which of the two maps this end exposes into (it pulls from the
    /// other one).
    side: usize,
}

/// A live exposure. Dropping it revokes the window: the drop returns only
/// when no pull is reading the window and none can start.
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

    /// Make `(ptr, len)` pullable by the peer end under `id`, which must
    /// differ from the id of every other live exposure of this end.
    ///
    /// # Safety
    /// The window must stay valid, and nobody may write to it, until the
    /// returned [`Exposure`] has been dropped.
    pub unsafe fn expose(&self, id: u64, ptr: *const u8, len: usize) -> Exposure {
        let window = Arc::new(Window {
            ptr,
            len,
            revoked: Mutex::new(false),
        });
        let old = lock(&self.table.sides[self.side]).insert(id, Arc::clone(&window));
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
    /// exposed, or revoked).
    ///
    /// # Safety
    /// `dst` must be valid for `cap` bytes of writes and must not overlap
    /// the exposed window.
    pub unsafe fn pull(&self, id: u64, dst: *mut u8, cap: usize) -> Option<usize> {
        let window = lock(&self.table.sides[1 - self.side]).get(&id).cloned()?;
        let revoked = lock(&window.revoked);
        if *revoked {
            return None;
        }
        // SAFETY: not revoked and the guard is held across the copy, so
        // the exposer's guarantee covers the source; the caller's covers
        // the destination.
        unsafe { std::ptr::copy_nonoverlapping(window.ptr, dst, window.len.min(cap)) };
        Some(window.len)
    }
}

impl Drop for Exposure {
    fn drop(&mut self) {
        lock(&self.owner.table.sides[self.owner.side]).remove(&self.id);
        // A pull that looked the window up before the removal holds or
        // is about to take this lock: wait for it, then refuse it.
        *lock(&self.window.revoked) = true;
    }
}

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
        assert_eq!(unsafe { b.pull(7, dst.as_mut_ptr(), 40) }, Some(100));
        assert_eq!(&dst[..40], &src[..40]);
        assert!(dst[40..].iter().all(|&x| x == 0xFF), "beyond cap untouched");
        let mut big = vec![0u8; 200];
        // SAFETY: as above.
        assert_eq!(unsafe { b.pull(7, big.as_mut_ptr(), 200) }, Some(100));
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
            assert_eq!(a.pull(1, got.as_mut_ptr(), 8), Some(8));
            assert_eq!(got, y, "a pulls what b exposed");
            assert_eq!(b.pull(1, got.as_mut_ptr(), 8), Some(8));
            assert_eq!(got, x);
            assert_eq!(a.pull(2, got.as_mut_ptr(), 8), None, "never exposed");
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
        assert_eq!(unsafe { b.pull(3, dst.as_mut_ptr(), 32) }, None);
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
                let got = unsafe { b.pull(1, dst.as_mut_ptr(), len) };
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
}
