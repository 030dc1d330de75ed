//! The MPI layer: communicators, point-to-point operations, collectives.
//!
//! Mirrors the top layer of MPICH2 ("a platform and interconnect generic
//! MPI interface", paper §6) and the MPI-2 object model the Motor bindings
//! are based on. A [`Comm`] owns a *pair* of context ids — one for
//! point-to-point traffic and one for collectives, as MPICH2 allocates —
//! so user messages can never match internal collective traffic.
//!
//! # Collectives
//!
//! Over point-to-point: dissemination barrier, binomial-tree broadcast,
//! linear scatter(v)/gather(v), rank-ordered (so deterministic) reduction,
//! reduce-then-broadcast allreduce, ring allgather, pairwise alltoall and a
//! chain scan. A call builds one [`Schedule`], this rank's steps in rounds,
//! whole from a [`Coll`], checking its arguments before anything is posted.
//!
//! * **One entry.** [`Comm::collective`] runs any [`Coll`] over a send and
//!   a receive buffer: it counts the call and opens its span (one `match`
//!   on the kind), then runs the schedule. The `*_bytes`/`*_slice` methods
//!   are one-liners over it; a root-only buffer a rank does not give is
//!   empty, and at the root the builder's size checks refuse it.
//! * **Steps.** `Send`/`Recv` post a request; `Copy`/`ReduceInto` apply on
//!   the spot. Blocks are byte ranges of the call's send or receive buffer
//!   or of the schedule's one scratch buffer: nothing is allocated per step.
//! * **Rounds.** A round starts once every request of the last has an
//!   outcome, its steps in order; a failure ends the schedule once its
//!   round has settled, so no window is in use when the error comes back.
//! * **One executor.** [`Schedule::advance`] alone posts requests and
//!   touches windows, in the collective code's one `unsafe` block. A
//!   blocking collective is one trip through `Device::wait_until`;
//!   [`Schedule::new`] carries `isend_ptr`'s window contract for callers
//!   that step schedules themselves (`SimNet`, 64 ranks on one thread).
//! * **Dead peers.** A receive names its source to the device by global
//!   rank, so a receive from a peer whose link is gone fails with
//!   `PeerClosed(global rank)` in a collective and on any communicator.
//!   A rank that never touches the dead link still waits (no revoke yet).
//! * **Not yet:** engine-driven advance (only the caller advances a
//!   schedule), `i*` collectives, algorithm selection, a per-communicator
//!   collective tag sequence, reuse of the step and request `Vec`s.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use motor_obs::{Metric, SpanKind};

use crate::device::{Device, ANY_SOURCE};
use crate::dtype::{as_bytes, as_bytes_mut, DType, MpcPrim, ReduceOp};
use crate::error::{MpcError, MpcResult};
use crate::packet::Envelope;
use crate::request::{Request, Status};
use crate::schedule::{Coll, Schedule};
use crate::source::Source;
use crate::tag::Tag;

/// An intra-communicator.
#[derive(Clone)]
pub struct Comm {
    device: Arc<Device>,
    /// Point-to-point context id; `context + 1` is the collective context.
    context: u32,
    /// Communicator rank → global rank.
    group: Arc<Vec<usize>>,
    /// This process's rank within the communicator.
    rank: usize,
    /// Shared context-id allocator (two ids per allocation).
    ctx_alloc: Arc<AtomicU32>,
}

impl Comm {
    /// Assemble a communicator (used by the universe and by `dup`/`split`).
    pub fn assemble(
        device: Arc<Device>,
        context: u32,
        group: Arc<Vec<usize>>,
        rank: usize,
        ctx_alloc: Arc<AtomicU32>,
    ) -> Comm {
        Comm {
            device,
            context,
            group,
            rank,
            ctx_alloc,
        }
    }

    /// This process's rank within the communicator.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of processes in the communicator.
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// The communicator's point-to-point context id.
    pub fn context(&self) -> u32 {
        self.context
    }

    /// Communicator rank → global rank translation.
    pub fn global_rank(&self, comm_rank: usize) -> MpcResult<usize> {
        self.group
            .get(comm_rank)
            .copied()
            .ok_or(MpcError::InvalidRank(comm_rank as i32))
    }

    /// A receive's or probe's source as the device names it: the global
    /// rank of a communicator rank (`InvalidRank` outside the group), or
    /// the wildcard.
    fn device_source(&self, src: Source) -> MpcResult<i32> {
        match src {
            Source::Rank(r) => Ok(self.global_rank(r)? as i32),
            Source::Any => Ok(ANY_SOURCE),
        }
    }

    /// The underlying device (the FCall layer and baselines reach through
    /// this).
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    pub(crate) fn envelope(&self, tag: i32, collective: bool) -> Envelope {
        Envelope {
            src: self.rank as u32,
            gsrc: self.device.rank() as u32,
            tag,
            context: self.context + u32::from(collective),
            len: 0,
            sreq: 0,
            flags: 0,
        }
    }

    // ------------------------------------------------------------------
    // Point-to-point: raw (window-stability is the caller's obligation)
    // ------------------------------------------------------------------

    /// Begin a non-blocking send from a raw window.
    ///
    /// # Safety
    /// `(ptr, len)` must remain valid **and stable** (no GC movement, no
    /// free) until the returned request completes — the pinning obligation
    /// the paper discusses (§2.3).
    pub unsafe fn isend_ptr(
        &self,
        ptr: *const u8,
        len: usize,
        dest: usize,
        tag: impl Into<Tag>,
    ) -> MpcResult<Request> {
        let g = self.global_rank(dest)?;
        let tag = tag.into().to_device();
        // SAFETY: forwarded caller contract.
        unsafe {
            self.device
                .isend_raw(g, self.envelope(tag, false), ptr, len, false)
        }
    }

    /// Begin a non-blocking synchronous-mode send (completes only once the
    /// receiver has matched).
    ///
    /// # Safety
    /// As [`Comm::isend_ptr`].
    pub unsafe fn issend_ptr(
        &self,
        ptr: *const u8,
        len: usize,
        dest: usize,
        tag: impl Into<Tag>,
    ) -> MpcResult<Request> {
        let g = self.global_rank(dest)?;
        let tag = tag.into().to_device();
        // SAFETY: forwarded caller contract.
        unsafe {
            self.device
                .isend_raw(g, self.envelope(tag, false), ptr, len, true)
        }
    }

    /// Begin a non-blocking receive into a raw window.
    ///
    /// # Safety
    /// As [`Comm::isend_ptr`], for the destination window.
    pub unsafe fn irecv_ptr(
        &self,
        ptr: *mut u8,
        cap: usize,
        src: impl Into<Source>,
        tag: impl Into<Tag>,
    ) -> MpcResult<Request> {
        let (src, tag) = (self.device_source(src.into())?, tag.into().to_device());
        // SAFETY: forwarded caller contract.
        unsafe { self.device.irecv_raw(src, tag, self.context, ptr, cap) }
    }

    // ------------------------------------------------------------------
    // Point-to-point: safe blocking byte/slice operations
    // ------------------------------------------------------------------

    /// Blocking standard-mode send.
    pub fn send_bytes(&self, buf: &[u8], dest: usize, tag: impl Into<Tag>) -> MpcResult<()> {
        // SAFETY: the borrow of `buf` outlives the wait below.
        let req = unsafe { self.isend_ptr(buf.as_ptr(), buf.len(), dest, tag)? };
        self.wait(&req)?;
        Ok(())
    }

    /// Blocking synchronous-mode send.
    pub fn ssend_bytes(&self, buf: &[u8], dest: usize, tag: impl Into<Tag>) -> MpcResult<()> {
        // SAFETY: as above.
        let req = unsafe { self.issend_ptr(buf.as_ptr(), buf.len(), dest, tag)? };
        self.wait(&req)?;
        Ok(())
    }

    /// Blocking receive; returns the message status. `src` may be
    /// [`Source::Any`]; `tag` may be [`Tag::ANY`].
    pub fn recv_bytes(
        &self,
        buf: &mut [u8],
        src: impl Into<Source>,
        tag: impl Into<Tag>,
    ) -> MpcResult<Status> {
        // SAFETY: the borrow of `buf` outlives the wait below.
        let req = unsafe { self.irecv_ptr(buf.as_mut_ptr(), buf.len(), src, tag)? };
        let status = self.wait(&req)?;
        if status.truncated {
            return Err(MpcError::Truncation {
                message: status.count,
                buffer: buf.len(),
            });
        }
        Ok(status)
    }

    /// Blocking typed send.
    pub fn send_slice<T: MpcPrim>(
        &self,
        buf: &[T],
        dest: usize,
        tag: impl Into<Tag>,
    ) -> MpcResult<()> {
        self.send_bytes(as_bytes(buf), dest, tag)
    }

    /// Blocking typed synchronous send.
    pub fn ssend_slice<T: MpcPrim>(
        &self,
        buf: &[T],
        dest: usize,
        tag: impl Into<Tag>,
    ) -> MpcResult<()> {
        self.ssend_bytes(as_bytes(buf), dest, tag)
    }

    /// Blocking typed receive.
    pub fn recv_slice<T: MpcPrim>(
        &self,
        buf: &mut [T],
        src: impl Into<Source>,
        tag: impl Into<Tag>,
    ) -> MpcResult<Status> {
        self.recv_bytes(as_bytes_mut(buf), src, tag)
    }

    /// Combined send+receive (deadlock-free exchange).
    pub fn sendrecv_bytes(
        &self,
        send: &[u8],
        dest: usize,
        recv: &mut [u8],
        src: impl Into<Source>,
        tag: impl Into<Tag>,
    ) -> MpcResult<Status> {
        let tag = tag.into();
        // SAFETY: both borrows outlive the waits.
        let rreq = unsafe { self.irecv_ptr(recv.as_mut_ptr(), recv.len(), src, tag)? };
        // SAFETY: as above.
        let sreq = unsafe { self.isend_ptr(send.as_ptr(), send.len(), dest, tag)? };
        self.wait(&sreq)?;
        self.wait(&rreq)
    }

    // ------------------------------------------------------------------
    // Completion
    // ------------------------------------------------------------------

    /// Drive progress until the request completes.
    pub fn wait(&self, req: &Request) -> MpcResult<Status> {
        self.device.wait_with(req, || {})
    }

    /// Drive progress until the request completes, invoking `yield_poll`
    /// every lap (Motor's GC-yield hook).
    pub fn wait_with(&self, req: &Request, yield_poll: impl FnMut()) -> MpcResult<Status> {
        self.device.wait_with(req, yield_poll)
    }

    /// Wait for every request.
    pub fn waitall(&self, reqs: &[Request]) -> MpcResult<Vec<Status>> {
        reqs.iter().map(|r| self.wait(r)).collect()
    }

    /// Non-blocking completion test.
    pub fn test(&self, req: &Request) -> MpcResult<Option<Status>> {
        self.device.test(req)
    }

    /// Blocking probe: status of the next matching message without
    /// receiving it. Waits like a wait; fails with `PeerClosed` once the
    /// probed peer's link is gone.
    pub fn probe(&self, src: impl Into<Source>, tag: impl Into<Tag>) -> MpcResult<Status> {
        self.probe_with(src, tag, || {})
    }

    /// [`Comm::probe`], invoking `yield_poll` every lap (Motor's GC-yield
    /// hook).
    pub fn probe_with(
        &self,
        src: impl Into<Source>,
        tag: impl Into<Tag>,
        yield_poll: impl FnMut(),
    ) -> MpcResult<Status> {
        let (src, tag) = (self.device_source(src.into())?, tag.into().to_device());
        let peek = || self.device.peek(src, tag, self.context);
        self.device.wait_until(0, peek, yield_poll)
    }

    /// Non-blocking probe.
    pub fn iprobe(&self, src: impl Into<Source>, tag: impl Into<Tag>) -> MpcResult<Option<Status>> {
        let (src, tag) = (self.device_source(src.into())?, tag.into().to_device());
        self.device.iprobe(src, tag, self.context)
    }

    // ------------------------------------------------------------------
    // Collectives: one schedule each, waited out once (see module docs)
    // ------------------------------------------------------------------

    /// Run one collective: the one entry every binding reaches. Counts
    /// the call and opens its span, then builds the [`Schedule`] of
    /// `coll` over the two buffers and waits it out. A buffer a rank does
    /// not use (the root-only ones elsewhere) is ignored; one the root
    /// needs but lacks fails the builder's size checks as `Protocol`.
    pub fn collective(&self, send: &[u8], recv: &mut [u8], coll: Coll) -> MpcResult<()> {
        use Coll::*;
        let (metric, kind, root) = match coll {
            Barrier => (Metric::CollBarrier, SpanKind::Barrier, 0),
            Bcast(root) => (Metric::CollBcast, SpanKind::Bcast, root),
            Scatter(root) => (Metric::CollScatter, SpanKind::Scatter, root),
            Gather(root) => (Metric::CollGather, SpanKind::Gather, root),
            Scatterv(_, root) => (Metric::CollScatterv, SpanKind::Scatter, root),
            Gatherv(_, root) => (Metric::CollGatherv, SpanKind::Gather, root),
            Allgather => (Metric::CollAllgather, SpanKind::Allgather, 0),
            Reduce(.., root) => (Metric::CollReduce, SpanKind::Reduce, root),
            Allreduce(..) => (Metric::CollAllreduce, SpanKind::Allreduce, 0),
            Alltoall(_) => (Metric::CollAlltoall, SpanKind::Alltoall, 0),
            Scan(..) => (Metric::CollScan, SpanKind::Scan, 0),
        };
        self.device.metrics().bump(metric);
        let _span = self.device.metrics().span(kind, root as u64);
        Schedule::run(self, send, recv, coll)
    }

    /// Synchronize all ranks (dissemination algorithm, ⌈log₂ n⌉ rounds).
    pub fn barrier(&self) -> MpcResult<()> {
        self.collective(&[], &mut [], Coll::Barrier)
    }

    /// Broadcast `buf` from `root` to every rank (binomial tree).
    pub fn bcast_bytes(&self, buf: &mut [u8], root: usize) -> MpcResult<()> {
        self.collective(&[], buf, Coll::Bcast(root))
    }

    /// Typed broadcast.
    pub fn bcast_slice<T: MpcPrim>(&self, buf: &mut [T], root: usize) -> MpcResult<()> {
        self.bcast_bytes(as_bytes_mut(buf), root)
    }

    /// Scatter equal contiguous chunks of `send` (significant at `root`
    /// only) into every rank's `recv`.
    pub fn scatter_bytes(
        &self,
        send: Option<&[u8]>,
        recv: &mut [u8],
        root: usize,
    ) -> MpcResult<()> {
        self.collective(send.unwrap_or_default(), recv, Coll::Scatter(root))
    }

    /// Gather every rank's `send` into root's `recv` (rank-ordered chunks).
    pub fn gather_bytes(&self, send: &[u8], recv: Option<&mut [u8]>, root: usize) -> MpcResult<()> {
        self.collective(send, recv.unwrap_or_default(), Coll::Gather(root))
    }

    /// Allgather (ring algorithm): every rank ends with all chunks in rank
    /// order. `recv.len()` must be `send.len() * size`.
    pub fn allgather_bytes(&self, send: &[u8], recv: &mut [u8]) -> MpcResult<()> {
        self.collective(send, recv, Coll::Allgather)
    }

    /// Reduce raw element buffers of `dtype` to `root` (rank-ordered, and
    /// therefore deterministic for floating point). `recv` is significant
    /// at root only.
    pub fn reduce_bytes(
        &self,
        send: &[u8],
        recv: Option<&mut [u8]>,
        dtype: DType,
        op: ReduceOp,
        root: usize,
    ) -> MpcResult<()> {
        let recv = recv.unwrap_or_default();
        self.collective(send, recv, Coll::Reduce(dtype, op, root))
    }

    /// Typed reduction to `root`.
    pub fn reduce_slice<T: MpcPrim>(
        &self,
        send: &[T],
        recv: Option<&mut [T]>,
        op: ReduceOp,
        root: usize,
    ) -> MpcResult<()> {
        self.reduce_bytes(as_bytes(send), recv.map(as_bytes_mut), T::DTYPE, op, root)
    }

    /// Allreduce over raw element buffers: reduce to rank 0, then
    /// broadcast.
    pub fn allreduce_bytes(
        &self,
        send: &[u8],
        recv: &mut [u8],
        dtype: DType,
        op: ReduceOp,
    ) -> MpcResult<()> {
        self.collective(send, recv, Coll::Allreduce(dtype, op))
    }

    /// Typed allreduce.
    pub fn allreduce_slice<T: MpcPrim>(
        &self,
        send: &[T],
        recv: &mut [T],
        op: ReduceOp,
    ) -> MpcResult<()> {
        self.allreduce_bytes(as_bytes(send), as_bytes_mut(recv), T::DTYPE, op)
    }

    /// All-to-all personalized exchange of equal chunks. Both buffers hold
    /// `size` chunks of `chunk` bytes each.
    pub fn alltoall_bytes(&self, send: &[u8], recv: &mut [u8], chunk: usize) -> MpcResult<()> {
        self.collective(send, recv, Coll::Alltoall(chunk))
    }

    /// Inclusive prefix reduction (`MPI_Scan`): rank r receives the
    /// reduction of ranks `0..=r` in rank order.
    pub fn scan_bytes(
        &self,
        send: &[u8],
        recv: &mut [u8],
        dtype: DType,
        op: ReduceOp,
    ) -> MpcResult<()> {
        self.collective(send, recv, Coll::Scan(dtype, op))
    }

    /// Typed inclusive scan.
    pub fn scan_slice<T: MpcPrim>(
        &self,
        send: &[T],
        recv: &mut [T],
        op: ReduceOp,
    ) -> MpcResult<()> {
        self.scan_bytes(as_bytes(send), as_bytes_mut(recv), T::DTYPE, op)
    }

    /// Variable-count gather (`MPI_Gatherv`): rank r contributes
    /// `send.len()` bytes; the root supplies per-rank `counts` and receives
    /// the concatenation in rank order.
    pub fn gatherv_bytes(
        &self,
        send: &[u8],
        recv: Option<(&mut [u8], &[usize])>,
        root: usize,
    ) -> MpcResult<()> {
        let (recv, counts) = recv.unwrap_or_default();
        self.collective(send, recv, Coll::Gatherv(counts, root))
    }

    /// Variable-count scatter (`MPI_Scatterv`): the root supplies the
    /// buffer and per-rank `counts`; rank r receives its chunk into `recv`
    /// (whose length must equal its count).
    pub fn scatterv_bytes(
        &self,
        send: Option<(&[u8], &[usize])>,
        recv: &mut [u8],
        root: usize,
    ) -> MpcResult<()> {
        let (send, counts) = send.unwrap_or_default();
        self.collective(send, recv, Coll::Scatterv(counts, root))
    }

    /// Wait until *any* of the requests completes; returns its index and
    /// status (`MPI_Waitany`).
    pub fn waitany(&self, reqs: &[Request]) -> MpcResult<(usize, Status)> {
        assert!(!reqs.is_empty(), "waitany on an empty request list");
        let first_settled = || {
            for (i, r) in reqs.iter().enumerate() {
                if let Some(status) = r.outcome()? {
                    return Ok(Some((i, status)));
                }
            }
            Ok(None)
        };
        self.device.wait_until(0, first_settled, || {})
    }

    // ------------------------------------------------------------------
    // Communicator management
    // ------------------------------------------------------------------

    /// Duplicate the communicator with a fresh context (collective).
    pub fn dup(&self) -> MpcResult<Comm> {
        let mut ctx = [0u32; 1];
        if self.rank == 0 {
            ctx[0] = self.ctx_alloc.fetch_add(2, Ordering::Relaxed);
        }
        self.bcast_slice(&mut ctx, 0)?;
        Ok(Comm {
            device: Arc::clone(&self.device),
            context: ctx[0],
            group: Arc::clone(&self.group),
            rank: self.rank,
            ctx_alloc: Arc::clone(&self.ctx_alloc),
        })
    }

    /// Split into disjoint sub-communicators by `color`; ranks within each
    /// color are ordered by `key` (ties by old rank). Collective.
    pub fn split(&self, color: u32, key: i32) -> MpcResult<Comm> {
        let n = self.size();
        // Allgather (color, key) pairs.
        let mine = [color as i32, key];
        let mut all = vec![0i32; 2 * n];
        self.allgather_bytes(as_bytes(&mine), as_bytes_mut(&mut all[..]))?;
        // Deterministic group construction on every rank.
        let colors: Vec<u32> = all.chunks(2).map(|c| c[0] as u32).collect();
        let mut uniq = colors.clone();
        uniq.sort_unstable();
        uniq.dedup();
        let my_color_index = uniq.iter().position(|&c| c == color).unwrap();
        // Rank 0 allocates a contiguous block of context pairs.
        let mut base = [0u32; 1];
        if self.rank == 0 {
            base[0] = self
                .ctx_alloc
                .fetch_add(2 * uniq.len() as u32, Ordering::Relaxed);
        }
        self.bcast_slice(&mut base, 0)?;
        // Members of my color, sorted by (key, old rank).
        let mut members: Vec<(i32, usize)> = (0..n)
            .filter(|&r| colors[r] == color)
            .map(|r| (all[2 * r + 1], r))
            .collect();
        members.sort();
        let group: Vec<usize> = members.iter().map(|&(_, old)| self.group[old]).collect();
        let my_new_rank = members
            .iter()
            .position(|&(_, old)| old == self.rank)
            .unwrap();
        Ok(Comm {
            device: Arc::clone(&self.device),
            context: base[0] + 2 * my_color_index as u32,
            group: Arc::new(group),
            rank: my_new_rank,
            ctx_alloc: Arc::clone(&self.ctx_alloc),
        })
    }

    /// The shared context allocator (universe wiring / intercomms).
    pub fn ctx_alloc(&self) -> &Arc<AtomicU32> {
        &self.ctx_alloc
    }

    /// The communicator's group (comm rank → global rank).
    pub fn group(&self) -> &Arc<Vec<usize>> {
        &self.group
    }
}
