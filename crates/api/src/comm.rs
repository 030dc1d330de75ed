//! The transport abstraction the typed front-end is generic over.
//!
//! [`Comm`] captures exactly the primitive surface the
//! [`Communicator`](crate::Communicator) needs: raw non-blocking
//! point-to-point windows, completion, probing, and one `collective`
//! that runs any [`Coll`] over byte buffers.  `motor_mpc::Comm` is the
//! production implementation; tests substitute instrumented fakes to
//! observe call shapes.

use crate::error::Result;
use motor_mpc::{Coll, Source, Status, Tag};

/// Minimal transport contract for the typed API.
pub trait Comm {
    /// Opaque in-flight operation handle.
    type Request;

    /// This rank within the communicator.
    fn rank(&self) -> usize;
    /// Number of ranks in the communicator.
    fn size(&self) -> usize;

    /// Begin a non-blocking send from a raw window.
    ///
    /// # Safety
    /// `(ptr, len)` must remain valid and stable until the returned
    /// request completes.
    unsafe fn isend_raw(
        &self,
        ptr: *const u8,
        len: usize,
        dest: usize,
        tag: Tag,
    ) -> Result<Self::Request>;

    /// Begin a non-blocking receive into a raw window.
    ///
    /// # Safety
    /// As [`Comm::isend_raw`], for the destination window.
    unsafe fn irecv_raw(
        &self,
        ptr: *mut u8,
        cap: usize,
        src: Source,
        tag: Tag,
    ) -> Result<Self::Request>;

    /// Block until `req` completes.
    fn wait(&self, req: &Self::Request) -> Result<Status>;
    /// Complete `req` if it is finished; never blocks.
    fn test(&self, req: &Self::Request) -> Result<Option<Status>>;
    /// Block until a matching message is available.
    fn probe(&self, src: Source, tag: Tag) -> Result<Status>;
    /// Check for a matching message; never blocks.
    fn iprobe(&self, src: Source, tag: Tag) -> Result<Option<Status>>;

    /// Run one collective over byte buffers (see
    /// `motor_mpc::Comm::collective`).
    fn collective(&self, send: &[u8], recv: &mut [u8], coll: Coll) -> Result<()>;
    /// Blocking standard-mode send of a byte buffer.
    fn send_bytes(&self, buf: &[u8], dest: usize, tag: Tag) -> Result<()>;
    /// Blocking receive of a byte buffer; errors on truncation.
    fn recv_bytes(&self, buf: &mut [u8], src: Source, tag: Tag) -> Result<Status>;
}

impl Comm for motor_mpc::Comm {
    type Request = motor_mpc::Request;

    fn rank(&self) -> usize {
        motor_mpc::Comm::rank(self)
    }
    fn size(&self) -> usize {
        motor_mpc::Comm::size(self)
    }
    unsafe fn isend_raw(
        &self,
        ptr: *const u8,
        len: usize,
        dest: usize,
        tag: Tag,
    ) -> Result<Self::Request> {
        // SAFETY: forwarded caller contract.
        Ok(unsafe { self.isend_ptr(ptr, len, dest, tag)? })
    }
    unsafe fn irecv_raw(
        &self,
        ptr: *mut u8,
        cap: usize,
        src: Source,
        tag: Tag,
    ) -> Result<Self::Request> {
        // SAFETY: forwarded caller contract.
        Ok(unsafe { self.irecv_ptr(ptr, cap, src, tag)? })
    }
    fn wait(&self, req: &Self::Request) -> Result<Status> {
        Ok(motor_mpc::Comm::wait(self, req)?)
    }
    fn test(&self, req: &Self::Request) -> Result<Option<Status>> {
        Ok(motor_mpc::Comm::test(self, req)?)
    }
    fn probe(&self, src: Source, tag: Tag) -> Result<Status> {
        Ok(motor_mpc::Comm::probe(self, src, tag)?)
    }
    fn iprobe(&self, src: Source, tag: Tag) -> Result<Option<Status>> {
        Ok(motor_mpc::Comm::iprobe(self, src, tag)?)
    }
    fn collective(&self, send: &[u8], recv: &mut [u8], coll: Coll) -> Result<()> {
        Ok(motor_mpc::Comm::collective(self, send, recv, coll)?)
    }
    fn send_bytes(&self, buf: &[u8], dest: usize, tag: Tag) -> Result<()> {
        Ok(motor_mpc::Comm::send_bytes(self, buf, dest, tag)?)
    }
    fn recv_bytes(&self, buf: &mut [u8], src: Source, tag: Tag) -> Result<Status> {
        Ok(motor_mpc::Comm::recv_bytes(self, buf, src, tag)?)
    }
}
