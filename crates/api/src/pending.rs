//! Typed in-flight operations with *linear* completion discipline.
//!
//! The static verifier (`motor-analyze`) enforces a linear type-state on
//! managed IL: every request issued must reach exactly one wait.  These
//! types carry the same rule into the Rust surface: `#[must_use]` makes
//! *ignoring* a pending operation a compiler warning, and the drop-bomb
//! turns *discarding* one into a panic — completing the operation is the
//! only way out (or an explicit, greppable [`PendingSend::forget`]).
//!
//! Borrow-wise, a pending operation holds `&'a`/`&'a mut` on its buffer
//! for its entire life, so the window-stability obligation of the raw
//! layer ("the buffer must stay valid until completion") becomes a borrow
//! the compiler checks.

use crate::comm::Comm;
use crate::error::{Error, Result};
use motor_core::fcall::Fcall;
use motor_mpc::Status;
use motor_obs::TimeBucket;
use motor_runtime::MotorThread;
use std::marker::PhantomData;

/// Open the profiler's in-flight window for an async op issued from a
/// managed rank; the matching [`async_done`] fires exactly once when the
/// request reaches its completion (wait, successful test, or forget).
fn async_issue(thread: Option<&MotorThread>) {
    if let Some(t) = thread {
        t.vm().metrics().async_op_begin();
    }
}

fn async_done(thread: Option<&MotorThread>) {
    if let Some(t) = thread {
        t.vm().metrics().async_op_end();
    }
}

/// The blocking completion of an in-flight operation: on a managed rank,
/// inside an FCall region and the `comm_wait` bucket, whose end is also
/// the end of the operation's in-flight interval — one clock reading for
/// both, failed or not.
fn wait_in_flight<R>(thread: Option<&MotorThread>, wait: impl FnOnce() -> Result<R>) -> Result<R> {
    let _fc = thread.map(Fcall::enter);
    let phase = thread.map(|t| t.vm().metrics().phase_scope(TimeBucket::CommWait));
    let res = wait();
    if let Some(phase) = phase {
        phase.finish_async();
    }
    res
}

/// An in-flight typed send.  Must be completed with [`PendingSend::wait`]
/// (or driven to completion with [`PendingSend::test`]); dropping an
/// incomplete send panics.
#[must_use = "a pending send must be completed with wait(); dropping it abandons the operation"]
pub struct PendingSend<'a, C: Comm> {
    comm: &'a C,
    /// Present when issued from a managed rank: blocking completion enters
    /// an FCall region so the collector never waits on this thread.
    thread: Option<&'a MotorThread>,
    req: Option<C::Request>,
    _buf: PhantomData<&'a [u8]>,
}

impl<'a, C: Comm> PendingSend<'a, C> {
    pub(crate) fn new(comm: &'a C, thread: Option<&'a MotorThread>, req: C::Request) -> Self {
        async_issue(thread);
        PendingSend {
            comm,
            thread,
            req: Some(req),
            _buf: PhantomData,
        }
    }

    /// Block until the send completes, releasing the buffer borrow.
    pub fn wait(mut self) -> Result<()> {
        let req = self.req.take().expect("pending send already completed");
        wait_in_flight(self.thread, || self.comm.wait(&req))?;
        Ok(())
    }

    /// Poll for completion; returns `true` once complete (after which the
    /// value is disarmed and may be dropped).
    pub fn test(&mut self) -> Result<bool> {
        let _phase = self
            .thread
            .map(|t| t.vm().metrics().phase_scope(TimeBucket::Progress));
        match &self.req {
            None => Ok(true),
            Some(req) => {
                if self.comm.test(req)?.is_some() {
                    self.req = None;
                    async_done(self.thread);
                    Ok(true)
                } else {
                    Ok(false)
                }
            }
        }
    }

    /// Explicitly abandon the operation without completing it.  The
    /// transport may still deliver the message; this only defuses the
    /// drop-bomb.  Deliberately loud in source — every use is greppable.
    pub fn forget(mut self) {
        if self.req.take().is_some() {
            async_done(self.thread);
        }
    }
}

impl<C: Comm> Drop for PendingSend<'_, C> {
    fn drop(&mut self) {
        if self.req.is_some() && !std::thread::panicking() {
            panic!(
                "PendingSend dropped without wait(): every issued request must reach \
                 exactly one completion (linear request discipline)"
            );
        }
    }
}

/// An in-flight typed receive holding `&mut` on its destination buffer.
#[must_use = "a pending receive must be completed with wait(); dropping it abandons the operation"]
pub struct PendingRecv<'a, C: Comm, T> {
    comm: &'a C,
    thread: Option<&'a MotorThread>,
    req: Option<C::Request>,
    buf_len: usize,
    _buf: PhantomData<&'a mut [T]>,
}

impl<'a, C: Comm, T> PendingRecv<'a, C, T> {
    pub(crate) fn new(
        comm: &'a C,
        thread: Option<&'a MotorThread>,
        req: C::Request,
        buf_len: usize,
    ) -> Self {
        async_issue(thread);
        PendingRecv {
            comm,
            thread,
            req: Some(req),
            buf_len,
            _buf: PhantomData,
        }
    }

    fn check(&self, st: Status) -> Result<usize> {
        if st.truncated {
            return Err(Error::Truncated {
                message: st.count,
                buffer: self.buf_len * std::mem::size_of::<T>(),
            });
        }
        Ok(st.count / std::mem::size_of::<T>().max(1))
    }

    /// Block until the message arrives; returns the number of **elements**
    /// received (count/datatype bookkeeping stays inside the API).
    pub fn wait(mut self) -> Result<usize> {
        let req = self.req.take().expect("pending receive already completed");
        let st = wait_in_flight(self.thread, || self.comm.wait(&req))?;
        self.check(st)
    }

    /// Poll for completion; `Some(elements)` once the message has landed.
    pub fn test(&mut self) -> Result<Option<usize>> {
        let _phase = self
            .thread
            .map(|t| t.vm().metrics().phase_scope(TimeBucket::Progress));
        match &self.req {
            None => Err(Error::Decode(
                "pending receive polled after completion".into(),
            )),
            Some(req) => match self.comm.test(req)? {
                None => Ok(None),
                Some(st) => {
                    self.req = None;
                    async_done(self.thread);
                    self.check(st).map(Some)
                }
            },
        }
    }

    /// Explicitly abandon the receive (see [`PendingSend::forget`]).
    pub fn forget(mut self) {
        if self.req.take().is_some() {
            async_done(self.thread);
        }
    }
}

impl<C: Comm, T> Drop for PendingRecv<'_, C, T> {
    fn drop(&mut self) {
        if self.req.is_some() && !std::thread::panicking() {
            panic!(
                "PendingRecv dropped without wait(): every issued request must reach \
                 exactly one completion (linear request discipline)"
            );
        }
    }
}
