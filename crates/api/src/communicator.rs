//! The typed communicator front-end.
//!
//! [`Communicator`] removes the count/datatype/raw-pointer surface of the
//! lower layers: element counts come from slice lengths, datatypes from
//! the element type, buffer stability from borrows.  It is generic over
//! the [`Comm`] transport and usable from two positions:
//!
//! * **Native** (`Communicator::native`) — a plain transport endpoint, no
//!   managed runtime involved.  All slice and object operations work on
//!   ordinary Rust buffers.
//! * **Managed-bound** (`Communicator::bind`) — constructed from an
//!   [`Mp`] inside a Motor rank.  The same operations apply, but blocking
//!   calls enter an FCall region (so the collector never waits on this
//!   thread), and the typed managed-array operations of
//!   [`crate::managed`] become available.
//!
//! Object operations speak the size-header + split-representation
//! protocol of `Oomp`, so a native `Communicator` interoperates with
//! managed ranks calling `osend`/`orecv`/`obcast`/`oscatter`/`ogather`
//! on mirrored class layouts.

use crate::comm::Comm;
use crate::error::{Error, Result};
use crate::pending::{PendingRecv, PendingSend};
use crate::wire;
use crate::Transportable;
use motor_core::fcall::Fcall;
use motor_core::oomp::{bcast_sized, gather_sized, recv_sized, scatter_sized, send_sized, zeroed};
use motor_core::{CoreError, Mp};
use motor_mpc::{Coll, MpcPrim, ReduceOp, Source, Status, Tag};
use motor_obs::{PhaseScope, TimeBucket};
use motor_runtime::MotorThread;

fn as_bytes<T: MpcPrim>(s: &[T]) -> &[u8] {
    // SAFETY: MpcPrim types are plain-old-data; any byte pattern is valid.
    unsafe { std::slice::from_raw_parts(s.as_ptr() as *const u8, std::mem::size_of_val(s)) }
}
fn as_bytes_mut<T: MpcPrim>(s: &mut [T]) -> &mut [u8] {
    // SAFETY: as above.
    unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr() as *mut u8, std::mem::size_of_val(s)) }
}

/// Typed, safe communicator over a [`Comm`] transport.
pub struct Communicator<'t, C: Comm = motor_mpc::Comm> {
    comm: C,
    mp: Option<Mp<'t>>,
}

impl<C: Comm> Communicator<'static, C> {
    /// Wrap a bare transport endpoint (no managed runtime).
    pub fn native(comm: C) -> Communicator<'static, C> {
        Communicator { comm, mp: None }
    }
}

impl<'t> Communicator<'t, motor_mpc::Comm> {
    /// Bind to a managed rank's message-passing endpoint.  Blocking
    /// operations will cooperate with the collector via FCall regions.
    pub fn bind(mp: Mp<'t>) -> Communicator<'t, motor_mpc::Comm> {
        let comm = mp.comm().clone();
        Communicator { comm, mp: Some(mp) }
    }

    /// The underlying managed endpoint, when bound.
    pub fn mp(&self) -> Option<&Mp<'t>> {
        self.mp.as_ref()
    }
}

impl<'t, C: Comm> Communicator<'t, C> {
    /// This rank.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// The underlying transport.
    pub fn comm(&self) -> &C {
        &self.comm
    }

    /// The managed thread, when bound to one.
    pub fn thread(&self) -> Option<&'t MotorThread> {
        self.mp.as_ref().map(|m| m.thread())
    }

    /// Enter an FCall region for a blocking native-side operation when
    /// bound to a managed thread (no-op otherwise).
    fn fcall(&self) -> Option<Fcall<'_>> {
        self.mp.as_ref().map(|m| Fcall::enter(m.thread()))
    }

    /// Account a blocking communication call to the profiler's comm-wait
    /// bucket when bound to a managed rank (no-op otherwise): a blocking
    /// post opens no span, so without this the rank's wall-clock
    /// partition would file it as compute.
    fn comm_scope(&self) -> Option<PhaseScope<'_>> {
        self.mp
            .as_ref()
            .map(|m| m.phase_scope(TimeBucket::CommWait))
    }

    /// As [`comm_scope`](Self::comm_scope), for progress polls (probe).
    fn progress_scope(&self) -> Option<PhaseScope<'_>> {
        self.mp
            .as_ref()
            .map(|m| m.phase_scope(TimeBucket::Progress))
    }

    // ------------------------------------------------------------------
    // typed point-to-point
    // ------------------------------------------------------------------

    /// Blocking typed send.  Sub-ranges are plain slicing:
    /// `comm.send_slice(&buf[a..b], dest, tag)` — no count or datatype
    /// parameters exist to get wrong.
    pub fn send_slice<T: MpcPrim>(
        &self,
        buf: &[T],
        dest: usize,
        tag: impl Into<Tag>,
    ) -> Result<()> {
        let _phase = self.comm_scope();
        let _fc = self.fcall();
        self.comm.send_bytes(as_bytes(buf), dest, tag.into())
    }

    /// Blocking typed receive; returns the number of elements received.
    pub fn recv_into<T: MpcPrim>(
        &self,
        buf: &mut [T],
        src: impl Into<Source>,
        tag: impl Into<Tag>,
    ) -> Result<usize> {
        let _phase = self.comm_scope();
        let _fc = self.fcall();
        let st = self
            .comm
            .recv_bytes(as_bytes_mut(buf), src.into(), tag.into())?;
        Ok(st.count / std::mem::size_of::<T>().max(1))
    }

    /// Non-blocking typed send.  The returned [`PendingSend`] borrows
    /// `buf` until completion and panics if dropped incomplete.
    pub fn isend_slice<'a, T: MpcPrim>(
        &'a self,
        buf: &'a [T],
        dest: usize,
        tag: impl Into<Tag>,
    ) -> Result<PendingSend<'a, C>>
    where
        't: 'a,
    {
        let bytes = as_bytes(buf);
        // SAFETY: the PendingSend borrows `buf` for its whole life, so the
        // window outlives the request.
        let req = unsafe {
            self.comm
                .isend_raw(bytes.as_ptr(), bytes.len(), dest, tag.into())?
        };
        Ok(PendingSend::new(&self.comm, self.thread(), req))
    }

    /// Non-blocking typed receive.  The returned [`PendingRecv`] holds the
    /// `&mut` borrow of `buf` until completion.
    pub fn irecv_slice<'a, T: MpcPrim>(
        &'a self,
        buf: &'a mut [T],
        src: impl Into<Source>,
        tag: impl Into<Tag>,
    ) -> Result<PendingRecv<'a, C, T>>
    where
        't: 'a,
    {
        let len = buf.len();
        let bytes = as_bytes_mut(buf);
        // SAFETY: the PendingRecv holds the unique borrow of `buf` for its
        // whole life, so the window outlives the request.
        let req = unsafe {
            self.comm
                .irecv_raw(bytes.as_mut_ptr(), bytes.len(), src.into(), tag.into())?
        };
        Ok(PendingRecv::new(&self.comm, self.thread(), req, len))
    }

    /// Combined typed send+receive (deadlock-free neighbor exchange).
    pub fn sendrecv_slice<T: MpcPrim>(
        &self,
        send: &[T],
        dest: usize,
        recv: &mut [T],
        src: impl Into<Source>,
        tag: impl Into<Tag>,
    ) -> Result<usize> {
        let _phase = self.comm_scope();
        let _fc = self.fcall();
        let tag = tag.into();
        let rbytes = as_bytes_mut(recv);
        // SAFETY: both borrows outlive the waits below.
        let rreq = unsafe {
            self.comm
                .irecv_raw(rbytes.as_mut_ptr(), rbytes.len(), src.into(), tag)?
        };
        let sbytes = as_bytes(send);
        // SAFETY: as above.
        let sreq = unsafe {
            self.comm
                .isend_raw(sbytes.as_ptr(), sbytes.len(), dest, tag)?
        };
        self.comm.wait(&sreq)?;
        let st = self.comm.wait(&rreq)?;
        if st.truncated {
            return Err(Error::Truncated {
                message: st.count,
                buffer: rbytes.len(),
            });
        }
        Ok(st.count / std::mem::size_of::<T>().max(1))
    }

    /// Blocking probe for a matching message.
    pub fn probe(&self, src: impl Into<Source>, tag: impl Into<Tag>) -> Result<Status> {
        let _phase = self.progress_scope();
        let _fc = self.fcall();
        self.comm.probe(src.into(), tag.into())
    }

    /// Non-blocking probe.
    pub fn iprobe(&self, src: impl Into<Source>, tag: impl Into<Tag>) -> Result<Option<Status>> {
        let _phase = self.progress_scope();
        self.comm.iprobe(src.into(), tag.into())
    }

    // ------------------------------------------------------------------
    // typed collectives
    // ------------------------------------------------------------------

    /// Run one collective over byte views, inside an FCall when bound: the
    /// one path of every typed collective. The collective's own span bills
    /// the comm-wait bucket.
    fn collective(&self, send: &[u8], recv: &mut [u8], coll: Coll) -> Result<()> {
        let _fc = self.fcall();
        self.comm.collective(send, recv, coll)
    }

    /// Synchronize all ranks.
    pub fn barrier(&self) -> Result<()> {
        self.collective(&[], &mut [], Coll::Barrier)
    }

    /// Broadcast `buf` from `root` into every rank's `buf`.
    pub fn bcast_slice<T: MpcPrim>(&self, buf: &mut [T], root: usize) -> Result<()> {
        self.collective(&[], as_bytes_mut(buf), Coll::Bcast(root))
    }

    /// Scatter equal chunks of `send` (significant at root, length
    /// `recv.len() * size()`) into every rank's `recv`.
    pub fn scatter_slice<T: MpcPrim>(
        &self,
        send: Option<&[T]>,
        recv: &mut [T],
        root: usize,
    ) -> Result<()> {
        let send = send.map_or(&[][..], as_bytes);
        self.collective(send, as_bytes_mut(recv), Coll::Scatter(root))
    }

    /// Gather every rank's `send` into root's `recv` in rank order.
    pub fn gather_slice<T: MpcPrim>(
        &self,
        send: &[T],
        recv: Option<&mut [T]>,
        root: usize,
    ) -> Result<()> {
        let recv = recv.map_or(&mut [][..], as_bytes_mut);
        self.collective(as_bytes(send), recv, Coll::Gather(root))
    }

    /// Gather every rank's `send` into every rank's `recv`.
    pub fn allgather_slice<T: MpcPrim>(&self, send: &[T], recv: &mut [T]) -> Result<()> {
        self.collective(as_bytes(send), as_bytes_mut(recv), Coll::Allgather)
    }

    /// Element-wise reduction, result visible at every rank.
    pub fn allreduce_slice<T: MpcPrim>(
        &self,
        send: &[T],
        recv: &mut [T],
        op: ReduceOp,
    ) -> Result<()> {
        let coll = Coll::Allreduce(T::DTYPE, op);
        self.collective(as_bytes(send), as_bytes_mut(recv), coll)
    }

    /// Scalar allreduce convenience (dot products, norms, counters).
    pub fn allreduce<T: MpcPrim + Default>(&self, value: T, op: ReduceOp) -> Result<T> {
        let mut out = [T::default()];
        self.allreduce_slice(&[value], &mut out, op)?;
        Ok(out[0])
    }

    // ------------------------------------------------------------------
    // object transport (Oomp wire protocol)
    // ------------------------------------------------------------------

    /// [`recv_sized`] over this transport: the `Oomp` framing.
    fn recv_framed(&self, src: Source, tag: Tag) -> Result<(Vec<u8>, Status)> {
        recv_sized(
            src,
            tag,
            |b, src, tag| self.comm.recv_bytes(b, src, tag),
            zeroed,
        )
    }

    /// Send one transportable object graph — wire-compatible with a
    /// managed receiver calling `Oomp::orecv` on the mirrored class.
    pub fn send_obj<T: Transportable>(
        &self,
        obj: &T,
        dest: usize,
        tag: impl Into<Tag>,
    ) -> Result<()> {
        let _phase = self.comm_scope();
        let _fc = self.fcall();
        let bytes = wire::encode(obj);
        let tag = tag.into();
        send_sized(&bytes, |b| self.comm.send_bytes(b, dest, tag))
    }

    /// Receive one transportable object graph — wire-compatible with a
    /// managed sender calling `Oomp::osend`.
    pub fn recv_obj<T: Transportable>(
        &self,
        src: impl Into<Source>,
        tag: impl Into<Tag>,
    ) -> Result<(T, Status)> {
        let _phase = self.comm_scope();
        let _fc = self.fcall();
        let (bytes, st) = self.recv_framed(src.into(), tag.into())?;
        Ok((wire::decode(&bytes)?, st))
    }

    /// Broadcast an object graph from `root`.  The root passes
    /// `Some(obj)` and receives `None` back (it already owns the value);
    /// every other rank receives `Some(copy)`.
    pub fn bcast_obj<T: Transportable>(&self, obj: Option<&T>, root: usize) -> Result<Option<T>> {
        let _phase = self.comm_scope();
        let _fc = self.fcall();
        let is_root = self.comm.rank() == root;
        let own = is_root
            .then(|| obj.map(wire::encode).ok_or(CoreError::NullBuffer))
            .transpose()?;
        let bcast = |b: &mut [u8]| self.comm.collective(&[], b, Coll::Bcast(root));
        let data = bcast_sized(own, bcast, zeroed)?;
        (!is_root).then(|| wire::decode(&data)).transpose()
    }

    /// Scatter a slice of objects from `root`: every rank receives its
    /// `len / size()` contiguous elements as one split representation —
    /// interoperable with managed ranks in the same `Oomp::oscatter`.
    pub fn scatter_objs<T: Transportable>(
        &self,
        send: Option<&[T]>,
        root: usize,
    ) -> Result<Vec<T>> {
        let _phase = self.comm_scope();
        let _fc = self.fcall();
        let n = self.comm.size();
        let parts = if self.comm.rank() == root {
            let send = send.ok_or(Error::Runtime(CoreError::NullBuffer))?;
            if send.len() % n != 0 {
                return Err(Error::Decode(format!(
                    "scatter of {} elements over {n} ranks is not even",
                    send.len()
                )));
            }
            let (chunk, mut all, mut lens) = (send.len() / n, Vec::new(), Vec::with_capacity(n));
            for r in 0..n {
                let at = all.len();
                all = wire::encode_slice_into(&send[r * chunk..(r + 1) * chunk], all);
                lens.push(all.len() - at);
            }
            Some((all, lens))
        } else {
            None
        };
        let whole = parts.as_ref().map(|(all, lens)| (&all[..], &lens[..]));
        let coll = |s: &[u8], r: &mut [u8], c: Coll<'_>| self.comm.collective(s, r, c);
        // Every rank, the root too, decodes its own part.
        wire::decode_vec(&scatter_sized(root, whole, coll, zeroed)?)
    }

    /// Gather each rank's objects into rank order at `root`; returns
    /// `Some(all)` at root, `None` elsewhere.  Interoperable with managed
    /// ranks in the same `Oomp::ogather`.
    pub fn gather_objs<T: Transportable>(&self, send: &[T], root: usize) -> Result<Option<Vec<T>>> {
        let _phase = self.comm_scope();
        let _fc = self.fcall();
        let ranks = (self.comm.rank() == root).then_some(self.comm.size());
        let coll = |s: &[u8], r: &mut [u8], c: Coll<'_>| self.comm.collective(s, r, c);
        let own = wire::encode_slice(send);
        let Some((bytes, lens)) = gather_sized(&own, root, ranks, coll, zeroed)? else {
            return Ok(None);
        };
        let (mut all, mut at) = (Vec::with_capacity(send.len() * lens.len()), 0);
        for len in lens {
            all.extend(wire::decode_vec::<T>(&bytes[at..at + len])?);
            at += len;
        }
        Ok(Some(all))
    }
}
