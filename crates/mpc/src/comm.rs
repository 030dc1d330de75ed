//! The MPI layer: communicators, point-to-point operations, collectives.
//!
//! Mirrors the top layer of MPICH2 ("a platform and interconnect generic
//! MPI interface", paper §6) and the MPI-2 object model the Motor bindings
//! are based on. A [`Comm`] owns a *pair* of context ids — one for
//! point-to-point traffic and one for collectives, as MPICH2 allocates —
//! so user messages can never match internal collective traffic.
//!
//! Collectives are implemented over point-to-point: dissemination barrier,
//! binomial-tree broadcast, linear scatter/gather, rank-ordered (and
//! therefore deterministic) reductions, ring allgather and pairwise
//! alltoall.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use motor_obs::{Metric, SpanKind};

use crate::device::Device;
use crate::dtype::{as_bytes, as_bytes_mut, reduce_in_place, DType, MpcPrim, ReduceOp};
use crate::error::{MpcError, MpcResult};
use crate::packet::Envelope;
use crate::request::{Request, Status};
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

    /// The underlying device (the FCall layer and baselines reach through
    /// this).
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    fn envelope(&self, tag: i32, collective: bool) -> Envelope {
        Envelope {
            src: self.rank as u32,
            gsrc: self.device.rank() as u32,
            tag,
            context: if collective {
                self.context + 1
            } else {
                self.context
            },
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
        let src = src.into();
        if let Some(r) = src.rank() {
            if r >= self.size() {
                return Err(MpcError::InvalidRank(r as i32));
            }
        }
        // SAFETY: forwarded caller contract.
        unsafe {
            self.device.irecv_raw(
                src.to_device(),
                tag.into().to_device(),
                self.context,
                ptr,
                cap,
            )
        }
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
        let (src, tag) = (src.into().to_device(), tag.into().to_device());
        let peek = || self.device.peek(src, tag, self.context);
        self.device.wait_until(0, peek, yield_poll)
    }

    /// Non-blocking probe.
    pub fn iprobe(&self, src: impl Into<Source>, tag: impl Into<Tag>) -> MpcResult<Option<Status>> {
        self.device
            .iprobe(src.into().to_device(), tag.into().to_device(), self.context)
    }

    // ------------------------------------------------------------------
    // Collectives (on the collective context)
    // ------------------------------------------------------------------

    fn coll_send(&self, buf: &[u8], dest: usize, tag: i32) -> MpcResult<()> {
        let g = self.global_rank(dest)?;
        // SAFETY: `buf` is borrowed across the wait below.
        let req = unsafe {
            self.device
                .isend_raw(g, self.envelope(tag, true), buf.as_ptr(), buf.len(), false)?
        };
        self.wait(&req)?;
        Ok(())
    }

    fn coll_recv(&self, buf: &mut [u8], src: usize, tag: i32) -> MpcResult<Status> {
        // SAFETY: `buf` is borrowed across the wait below.
        let req = unsafe {
            self.device.irecv_raw(
                src as i32,
                tag,
                self.context + 1,
                buf.as_mut_ptr(),
                buf.len(),
            )?
        };
        self.wait(&req)
    }

    /// Synchronize all ranks (dissemination algorithm, ⌈log₂ n⌉ rounds).
    pub fn barrier(&self) -> MpcResult<()> {
        self.device.metrics().bump(Metric::CollBarrier);
        let _span = self.device.metrics().span(SpanKind::Barrier, 0);
        let n = self.size();
        if n == 1 {
            return Ok(());
        }
        let mut dist = 1usize;
        let mut round = 0i32;
        while dist < n {
            let to = (self.rank + dist) % n;
            let from = (self.rank + n - dist) % n;
            let mut token = [0u8; 1];
            // Exchange zero-meaning tokens; tag encodes the round.
            // SAFETY: `token` lives to the end of the loop body.
            let rreq = unsafe {
                self.device.irecv_raw(
                    from as i32,
                    round,
                    self.context + 1,
                    token.as_mut_ptr(),
                    1,
                )?
            };
            self.coll_send(&[0u8], to, round)?;
            self.wait(&rreq)?;
            dist *= 2;
            round += 1;
        }
        Ok(())
    }

    /// Broadcast `buf` from `root` to every rank (binomial tree).
    pub fn bcast_bytes(&self, buf: &mut [u8], root: usize) -> MpcResult<()> {
        self.device.metrics().bump(Metric::CollBcast);
        let _span = self.device.metrics().span(SpanKind::Bcast, root as u64);
        let n = self.size();
        if n == 1 {
            return Ok(());
        }
        if root >= n {
            return Err(MpcError::InvalidRank(root as i32));
        }
        let vrank = (self.rank + n - root) % n; // virtual rank: root is 0
        let tag = 1_000;
        // Receive from parent (clear lowest set bit).
        if vrank != 0 {
            let parent_v = vrank & (vrank - 1);
            let parent = (parent_v + root) % n;
            self.coll_recv(buf, parent, tag)?;
        }
        // Forward to children (set bits above the lowest set bit).
        let mut mask = 1usize;
        while mask < n {
            if vrank & (mask - 1) == 0 && vrank & mask == 0 {
                let child_v = vrank | mask;
                if child_v < n {
                    let child = (child_v + root) % n;
                    self.coll_send(buf, child, tag)?;
                }
            }
            mask <<= 1;
        }
        Ok(())
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
        self.device.metrics().bump(Metric::CollScatter);
        let _span = self.device.metrics().span(SpanKind::Scatter, root as u64);
        let n = self.size();
        let chunk = recv.len();
        let tag = 1_001;
        if self.rank == root {
            let send = send.expect("root must supply the send buffer");
            if send.len() != chunk * n {
                return Err(MpcError::Protocol(format!(
                    "scatter send buffer is {} bytes, expected {}",
                    send.len(),
                    chunk * n
                )));
            }
            for r in 0..n {
                let part = &send[r * chunk..(r + 1) * chunk];
                if r == root {
                    recv.copy_from_slice(part);
                } else {
                    self.coll_send(part, r, tag)?;
                }
            }
            Ok(())
        } else {
            self.coll_recv(recv, root, tag)?;
            Ok(())
        }
    }

    /// Gather every rank's `send` into root's `recv` (rank-ordered chunks).
    pub fn gather_bytes(&self, send: &[u8], recv: Option<&mut [u8]>, root: usize) -> MpcResult<()> {
        self.device.metrics().bump(Metric::CollGather);
        let _span = self.device.metrics().span(SpanKind::Gather, root as u64);
        let n = self.size();
        let chunk = send.len();
        let tag = 1_002;
        if self.rank == root {
            let recv = recv.expect("root must supply the receive buffer");
            if recv.len() != chunk * n {
                return Err(MpcError::Protocol(format!(
                    "gather recv buffer is {} bytes, expected {}",
                    recv.len(),
                    chunk * n
                )));
            }
            for r in 0..n {
                if r == root {
                    recv[r * chunk..(r + 1) * chunk].copy_from_slice(send);
                } else {
                    self.coll_recv(&mut recv[r * chunk..(r + 1) * chunk], r, tag)?;
                }
            }
            Ok(())
        } else {
            self.coll_send(send, root, tag)
        }
    }

    /// Allgather (ring algorithm): every rank ends with all chunks in rank
    /// order. `recv.len()` must be `send.len() * size`.
    pub fn allgather_bytes(&self, send: &[u8], recv: &mut [u8]) -> MpcResult<()> {
        self.device.metrics().bump(Metric::CollAllgather);
        let _span = self.device.metrics().span(SpanKind::Allgather, 0);
        let n = self.size();
        let chunk = send.len();
        if recv.len() != chunk * n {
            return Err(MpcError::Protocol(format!(
                "allgather recv buffer is {} bytes, expected {}",
                recv.len(),
                chunk * n
            )));
        }
        recv[self.rank * chunk..(self.rank + 1) * chunk].copy_from_slice(send);
        if n == 1 {
            return Ok(());
        }
        let right = (self.rank + 1) % n;
        let left = (self.rank + n - 1) % n;
        let tag = 1_003;
        // In step s we forward the chunk that originated at rank - s.
        for s in 0..n - 1 {
            let send_block = (self.rank + n - s) % n;
            let recv_block = (self.rank + n - s - 1) % n;
            let out = recv[send_block * chunk..(send_block + 1) * chunk].to_vec();
            let mut inn = vec![0u8; chunk];
            // Post the receive first to avoid unexpected-queue churn.
            // SAFETY: `inn` lives until the wait below completes.
            let rreq = unsafe {
                self.device.irecv_raw(
                    left as i32,
                    tag + s as i32,
                    self.context + 1,
                    inn.as_mut_ptr(),
                    chunk,
                )?
            };
            self.coll_send(&out, right, tag + s as i32)?;
            self.wait(&rreq)?;
            recv[recv_block * chunk..(recv_block + 1) * chunk].copy_from_slice(&inn);
        }
        Ok(())
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
        self.device.metrics().bump(Metric::CollReduce);
        let _span = self.device.metrics().span(SpanKind::Reduce, root as u64);
        let n = self.size();
        let tag = 1_004;
        if self.rank == root {
            let recv = recv.expect("root must supply the receive buffer");
            assert_eq!(recv.len(), send.len(), "reduce buffer length mismatch");
            // Accumulate in rank order 0..n for determinism.
            let mut tmp = vec![0u8; send.len()];
            for r in 0..n {
                if r == root {
                    if r == 0 {
                        recv.copy_from_slice(send);
                    } else {
                        reduce_in_place(op, dtype, recv, send);
                    }
                } else {
                    self.coll_recv(&mut tmp, r, tag)?;
                    if r == 0 {
                        recv.copy_from_slice(&tmp);
                    } else {
                        reduce_in_place(op, dtype, recv, &tmp);
                    }
                }
            }
            Ok(())
        } else {
            self.coll_send(send, root, tag)
        }
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
        self.device.metrics().bump(Metric::CollAllreduce);
        let _span = self.device.metrics().span(SpanKind::Allreduce, 0);
        if self.rank == 0 {
            // Sidestep the aliasing of send/recv at root.
            let mut acc = send.to_vec();
            self.reduce_bytes(send, Some(&mut acc[..]), dtype, op, 0)?;
            recv.copy_from_slice(&acc);
        } else {
            self.reduce_bytes(send, None, dtype, op, 0)?;
        }
        self.bcast_bytes(recv, 0)
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
        self.device.metrics().bump(Metric::CollAlltoall);
        let _span = self.device.metrics().span(SpanKind::Alltoall, 0);
        let n = self.size();
        if send.len() != chunk * n || recv.len() != chunk * n {
            return Err(MpcError::Protocol("alltoall buffer size mismatch".into()));
        }
        let tag = 1_100;
        // Post all receives, then all sends, then wait.
        let mut rreqs = Vec::with_capacity(n);
        for r in 0..n {
            if r == self.rank {
                recv[r * chunk..(r + 1) * chunk].copy_from_slice(&send[r * chunk..(r + 1) * chunk]);
                continue;
            }
            let slot = &mut recv[r * chunk..(r + 1) * chunk];
            // SAFETY: `recv` is borrowed until every request below is waited.
            let req = unsafe {
                self.device
                    .irecv_raw(r as i32, tag, self.context + 1, slot.as_mut_ptr(), chunk)?
            };
            rreqs.push(req);
        }
        for r in 0..n {
            if r == self.rank {
                continue;
            }
            let g = self.global_rank(r)?;
            let part = &send[r * chunk..(r + 1) * chunk];
            // SAFETY: `send` is borrowed across the wait below.
            let req = unsafe {
                self.device.isend_raw(
                    g,
                    self.envelope(tag, true),
                    part.as_ptr(),
                    part.len(),
                    false,
                )?
            };
            self.wait(&req)?;
        }
        for r in &rreqs {
            self.wait(r)?;
        }
        Ok(())
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
        self.device.metrics().bump(Metric::CollScan);
        let _span = self.device.metrics().span(SpanKind::Scan, 0);
        assert_eq!(send.len(), recv.len(), "scan buffer length mismatch");
        let tag = 1_005;
        // Linear chain: receive the prefix from the left neighbour, fold in
        // our contribution, pass the running prefix right.
        if self.rank == 0 {
            recv.copy_from_slice(send);
        } else {
            self.coll_recv(recv, self.rank - 1, tag)?;
            reduce_in_place(op, dtype, recv, send);
        }
        if self.rank + 1 < self.size() {
            self.coll_send(recv, self.rank + 1, tag)?;
        }
        Ok(())
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
        self.device.metrics().bump(Metric::CollGatherv);
        let _span = self.device.metrics().span(SpanKind::Gather, root as u64);
        let tag = 1_006;
        if self.rank == root {
            let (recv, counts) = recv.expect("root must supply buffer and counts");
            if counts.len() != self.size() || counts.iter().sum::<usize>() != recv.len() {
                return Err(MpcError::Protocol("gatherv counts mismatch".into()));
            }
            let mut off = 0;
            for (r, &c) in counts.iter().enumerate() {
                if r == root {
                    if c != send.len() {
                        return Err(MpcError::Protocol("root count mismatch".into()));
                    }
                    recv[off..off + c].copy_from_slice(send);
                } else {
                    self.coll_recv(&mut recv[off..off + c], r, tag)?;
                }
                off += c;
            }
            Ok(())
        } else {
            self.coll_send(send, root, tag)
        }
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
        self.device.metrics().bump(Metric::CollScatterv);
        let _span = self.device.metrics().span(SpanKind::Scatter, root as u64);
        let tag = 1_007;
        if self.rank == root {
            let (send, counts) = send.expect("root must supply buffer and counts");
            if counts.len() != self.size() || counts.iter().sum::<usize>() != send.len() {
                return Err(MpcError::Protocol("scatterv counts mismatch".into()));
            }
            let mut off = 0;
            for (r, &c) in counts.iter().enumerate() {
                if r == root {
                    if c != recv.len() {
                        return Err(MpcError::Protocol("root count mismatch".into()));
                    }
                    recv.copy_from_slice(&send[off..off + c]);
                } else if c > 0 {
                    // Zero-length chunks involve no message (receivers
                    // skip their receive symmetrically).
                    self.coll_send(&send[off..off + c], r, tag)?;
                }
                off += c;
            }
            Ok(())
        } else {
            if recv.is_empty() {
                // Zero-length chunk: no message was sent.
                return Ok(());
            }
            self.coll_recv(recv, root, tag)?;
            Ok(())
        }
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
