//! Request objects for non-blocking operations.
//!
//! A [`Request`] is the handle returned by `isend`/`irecv`. Its completion
//! flag is the state Motor's conditional pin requests interrogate from the
//! collector's mark phase (paper §4.3): "the garbage collector checks the
//! status of the underlying non-blocking transport operations".

use std::sync::atomic::{AtomicBool, AtomicI32, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{MpcError, MpcResult};

/// Completion metadata of a finished receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Status {
    /// Communicator rank of the sender.
    pub source: u32,
    /// Message tag.
    pub tag: i32,
    /// Bytes actually received.
    pub count: usize,
    /// The message was longer than the posted buffer and was truncated
    /// (the MPI_ERR_TRUNCATE condition).
    pub truncated: bool,
}

/// Shared state of one in-flight operation.
#[derive(Debug)]
pub struct RequestState {
    id: u64,
    complete: AtomicBool,
    src: AtomicU32,
    tag: AtomicI32,
    count: AtomicU64,
    truncated: AtomicBool,
    /// Global rank of a peer whose link died while this op was in flight
    /// (-1 = none). A failed request never completes; `wait`/`test` turn
    /// this marker into `MpcError::PeerClosed` instead of spinning forever.
    failed_peer: AtomicI32,
}

impl RequestState {
    /// Create an incomplete request with the given device-unique id.
    pub fn new(id: u64) -> Arc<RequestState> {
        Arc::new(RequestState {
            id,
            complete: AtomicBool::new(false),
            src: AtomicU32::new(0),
            tag: AtomicI32::new(0),
            count: AtomicU64::new(0),
            truncated: AtomicBool::new(false),
            failed_peer: AtomicI32::new(-1),
        })
    }

    /// Device-unique request id (used in wire correlation).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether the operation has completed (buffer reusable).
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.complete.load(Ordering::Acquire)
    }

    /// Whether the transport is still using the buffer — the predicate a
    /// conditional pin evaluates.
    #[inline]
    pub fn in_flight(&self) -> bool {
        !self.is_complete()
    }

    /// Record receive metadata without completing: for a receive whose
    /// data has landed but whose completion must wait for a reply frame
    /// to reach the link (see `LinkState::queue_bytes_completing`).
    pub(crate) fn set_status(&self, source: u32, tag: i32, count: usize) {
        self.src.store(source, Ordering::Relaxed);
        self.tag.store(tag, Ordering::Relaxed);
        self.count.store(count as u64, Ordering::Relaxed);
    }

    /// Mark complete with receive metadata.
    pub fn complete_with(&self, source: u32, tag: i32, count: usize) {
        self.set_status(source, tag, count);
        self.complete.store(true, Ordering::Release);
    }

    /// Flag the MPI_ERR_TRUNCATE condition (message longer than buffer).
    pub fn mark_truncated(&self) {
        self.truncated.store(true, Ordering::Relaxed);
    }

    /// Mark complete (send side; no metadata).
    pub fn complete(&self) {
        self.complete.store(true, Ordering::Release);
    }

    /// Mark the operation as permanently failed because the link to
    /// `peer` (global rank) closed. Deliberately does NOT set `complete`:
    /// the buffer was never safely transferred, and `wait`/`test` report
    /// the failure as an error rather than a success.
    pub fn fail(&self, peer: usize) {
        self.failed_peer.store(peer as i32, Ordering::Release);
    }

    /// The peer whose link failure doomed this operation, if any.
    pub fn failed_peer(&self) -> Option<usize> {
        let p = self.failed_peer.load(Ordering::Acquire);
        (p >= 0).then_some(p as usize)
    }

    /// How the operation ended, if it has: its status, or `PeerClosed`
    /// for the peer whose link failure doomed it.
    pub fn outcome(&self) -> MpcResult<Option<Status>> {
        if self.is_complete() {
            Ok(Some(self.status()))
        } else if let Some(peer) = self.failed_peer() {
            Err(MpcError::PeerClosed(peer))
        } else {
            Ok(None)
        }
    }

    /// Completion status (valid once complete).
    pub fn status(&self) -> Status {
        Status {
            source: self.src.load(Ordering::Relaxed),
            tag: self.tag.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed) as usize,
            truncated: self.truncated.load(Ordering::Relaxed),
        }
    }
}

/// The request is its own conditional-pin oracle (paper §4.3): the
/// collector asks the transport's own handle, with nothing in between.
impl motor_pal::PinCondition for RequestState {
    fn in_flight(&self) -> bool {
        RequestState::in_flight(self)
    }
}

/// A non-blocking operation handle.
pub type Request = Arc<RequestState>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle() {
        let r = RequestState::new(7);
        assert_eq!(r.id(), 7);
        assert!(r.in_flight());
        assert!(!r.is_complete());
        r.complete_with(2, 9, 128);
        assert!(r.is_complete());
        assert!(!r.in_flight());
        let s = r.status();
        assert_eq!(
            s,
            Status {
                source: 2,
                tag: 9,
                count: 128,
                truncated: false
            }
        );
    }

    #[test]
    fn fail_marks_peer_without_completing() {
        let r = RequestState::new(3);
        assert_eq!(r.failed_peer(), None);
        r.fail(2);
        assert_eq!(r.failed_peer(), Some(2));
        assert!(!r.is_complete());
    }

    #[test]
    fn completion_visible_across_threads() {
        let r = RequestState::new(1);
        let r2 = Arc::clone(&r);
        let t = std::thread::spawn(move || {
            r2.complete();
        });
        t.join().unwrap();
        assert!(r.is_complete());
    }
}
