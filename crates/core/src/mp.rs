//! `System.MP` — Motor's regular MPI bindings over managed objects.
//!
//! These are the operations of paper §4.2.1, "based on the official C++
//! MPI bindings ... simplified to protect the integrity of the underlying
//! object model":
//!
//! * The buffer is a single managed object (ref-free class instance,
//!   primitive array, or true multidimensional array). The `count`
//!   parameter is gone — the object *is* the message.
//! * The `MPI_Datatype` parameter is gone — the runtime knows the type.
//! * Objects containing references are refused (use the extended
//!   object-oriented operations of [`crate::oomp`]).
//! * Sub-ranges are supported **for arrays only**, via overloads carrying
//!   an element offset and count ("transporting portions of an array is
//!   supported").
//!
//! Every operation is an FCall: it polls the collector on entry and exit,
//! transfers zero-copy out of / into the object's instance data, and
//! applies the Motor pinning policy of [`crate::pinning`].

use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

use motor_mpc::{Coll, Comm, DType, ReduceOp, Request, Source, Tag};
use motor_obs::{span_arg_peer_tag, MetricsRegistry, SpanKind, TimeBucket, INFLIGHT_NONE};
use motor_runtime::{ElemKind, Handle, MotorThread};

use crate::error::{CoreError, CoreResult};
use crate::fcall::Fcall;
use crate::pinning::{self, PinPolicy};

/// Re-export of the wildcard tag.
pub const ANY_TAG: i32 = motor_mpc::ANY_TAG;

/// Resolve a `RangeBounds` over an array of `len` elements into an
/// `(offset, count)` pair, rejecting inverted or overflowing bounds
/// (out-of-bounds against the actual array length is still checked by
/// the window resolution).
pub(crate) fn resolve_bounds(
    range: impl RangeBounds<usize>,
    len: usize,
) -> CoreResult<(usize, usize)> {
    let start = match range.start_bound() {
        Bound::Included(&s) => s,
        Bound::Excluded(&s) => s.checked_add(1).ok_or(CoreError::RangeOutOfBounds {
            offset: s,
            count: 0,
            len,
        })?,
        Bound::Unbounded => 0,
    };
    let end = match range.end_bound() {
        Bound::Included(&e) => e.checked_add(1).ok_or(CoreError::RangeOutOfBounds {
            offset: start,
            count: e,
            len,
        })?,
        Bound::Excluded(&e) => e,
        Bound::Unbounded => len,
    };
    if start > end || end > len {
        return Err(CoreError::RangeOutOfBounds {
            offset: start,
            count: end.saturating_sub(start),
            len,
        });
    }
    Ok((start, end - start))
}

/// Whether a buffer's transportability must be checked at the call
/// ([`Proof::Checked`], what every public operation does) or was proved when
/// the module was loaded ([`Proof::Proved`]): the `motor-analyze` transport
/// pass established that every value reaching the site has a
/// reference-free, transportable class, so the refusal is elided — a
/// buffer without a raw window under a proof is a broken proof, and
/// panics. Nullness stays a runtime property and is checked either way.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Proof {
    Checked,
    Proved,
}

/// A resolved transport buffer: the object, its zero-copy window and
/// whether it sits in the young generation, the one fact the pinning
/// policy decides on.
struct Window {
    obj: Handle,
    ptr: *mut u8,
    bytes: usize,
    young: bool,
}

/// Completion status of a Motor receive (the `MPI::Status` analog).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MpStatus {
    /// Communicator rank of the sender.
    pub source: usize,
    /// Message tag.
    pub tag: i32,
    /// Bytes received.
    pub bytes: usize,
}

impl From<motor_mpc::Status> for MpStatus {
    fn from(s: motor_mpc::Status) -> Self {
        MpStatus {
            source: s.source as usize,
            tag: s.tag,
            bytes: s.count,
        }
    }
}

/// A Motor non-blocking request (the `MPI::Request` analog). Holds the
/// buffer handle alive for the duration; under the wrapper (`Always`)
/// policy it also carries the hard pin to release at completion.
///
/// An outstanding request also stays registered in the rank registry's
/// live in-flight table (as `mp_isend`/`mp_irecv`) until it completes or
/// is dropped, so the `motor-doctor` watchdog can see non-blocking
/// operations that were initiated but never waited on.
pub struct MpRequest {
    inner: Request,
    buf: Handle,
    hard_pin: Option<motor_runtime::PinToken>,
    registry: Arc<MetricsRegistry>,
    inflight: usize,
    /// Whether this request still holds an open interval in the
    /// profiler's in-flight overlap clock (`async_op_begin` was called
    /// and the matching `async_op_end` has not run yet). Tracked
    /// separately from `inflight` because the doctor's in-flight table
    /// can be full (`INFLIGHT_NONE`) while overlap accounting still
    /// wants to see the operation.
    async_live: bool,
}

impl MpRequest {
    /// Whether the operation has completed.
    pub fn is_complete(&self) -> bool {
        self.inner.is_complete()
    }

    /// The buffer object this request transports.
    pub fn buffer(&self) -> Handle {
        self.buf
    }

    /// The underlying transport request (tests / pin conditions).
    pub fn inner(&self) -> &Request {
        &self.inner
    }

    /// Deregister from the in-flight table (idempotent; the slot must not
    /// be released twice or a later op's registration could be clobbered).
    /// Returns whether the request's interval in the overlap clock is still
    /// open — the caller closes it, with a clock reading it shares with
    /// whatever else ends at the same instant.
    #[must_use]
    fn finish_inflight(&mut self) -> bool {
        self.registry
            .op_end(std::mem::replace(&mut self.inflight, INFLIGHT_NONE));
        std::mem::take(&mut self.async_live)
    }
}

impl Drop for MpRequest {
    fn drop(&mut self) {
        if self.finish_inflight() {
            self.registry.async_op_end();
        }
    }
}

/// The `System.MP` interface bound to one rank: a managed thread plus a
/// communicator into the runtime-internal Message Passing Core.
pub struct Mp<'t> {
    thread: &'t MotorThread,
    comm: Comm,
    policy: PinPolicy,
}

impl Mp<'_> {
    /// Enter a profiling time bucket on this rank's registry — the one
    /// whose phase machine `run_cluster` arms. Layers that talk to the
    /// transport directly (the typed `motor-api` front-end) use this to
    /// classify the time of a call no span covers whole: a blocking post,
    /// a probe, an object transfer's framing and codec.
    #[inline]
    pub fn phase_scope(&self, bucket: TimeBucket) -> motor_obs::PhaseScope<'_> {
        self.thread.vm().metrics().phase_scope(bucket)
    }
}

/// Map a managed element kind to a wire datatype.
pub fn dtype_of(kind: ElemKind) -> DType {
    match kind {
        ElemKind::Bool | ElemKind::U8 => DType::U8,
        ElemKind::I8 => DType::I8,
        ElemKind::I16 => DType::I16,
        ElemKind::U16 | ElemKind::Char => DType::U16,
        ElemKind::I32 => DType::I32,
        ElemKind::U32 => DType::U32,
        ElemKind::I64 => DType::I64,
        ElemKind::U64 => DType::U64,
        ElemKind::F32 => DType::F32,
        ElemKind::F64 => DType::F64,
    }
}

impl<'t> Mp<'t> {
    /// Bind the interface to a thread and communicator with the default
    /// (Motor) pinning policy.
    pub fn new(thread: &'t MotorThread, comm: Comm) -> Mp<'t> {
        Self::with_policy(thread, comm, PinPolicy::Motor)
    }

    /// Bind with an explicit pinning policy (ablations and baselines).
    pub fn with_policy(thread: &'t MotorThread, comm: Comm, policy: PinPolicy) -> Mp<'t> {
        Mp {
            thread,
            comm,
            policy,
        }
    }

    /// This rank within the communicator.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Communicator size.
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// The bound communicator.
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// The bound thread.
    pub fn thread(&self) -> &'t MotorThread {
        self.thread
    }

    // ------------------------------------------------------------------
    // Window resolution
    // ------------------------------------------------------------------

    /// Validate `obj` as a transport buffer and resolve its zero-copy
    /// window: the whole object, or the `(offset, count)` elements of an
    /// array ("transporting portions of an array is supported", §4.2.1).
    /// One VM round trip resolves it all, the generation the pinning
    /// policy decides on included.
    fn window(
        &self,
        fc: &Fcall<'_>,
        obj: Handle,
        sub: Option<(usize, usize)>,
        proof: Proof,
    ) -> CoreResult<Window> {
        let view = match proof {
            Proof::Checked => fc.transport_view(obj)?,
            Proof::Proved => self
                .thread
                .transport_view(obj)
                .ok_or(CoreError::NullBuffer)?,
        };
        let (ptr, bytes) = view
            .window
            .expect("raw window refused: a proved buffer's type contains references");
        let young = view.young;
        let Some((offset, count)) = sub else {
            return Ok(Window {
                obj,
                ptr,
                bytes,
                young,
            });
        };
        let (kind, len) = view
            .elems
            .ok_or_else(|| CoreError::Serialization("range transport requires an array".into()))?;
        if offset.checked_add(count).is_none_or(|end| end > len) {
            return Err(CoreError::RangeOutOfBounds { offset, count, len });
        }
        let es = kind.size();
        Ok(Window {
            obj,
            // SAFETY: offset bounds-checked against the array length.
            ptr: unsafe { ptr.add(offset * es) },
            bytes: count * es,
            young,
        })
    }

    /// Open the span of a point-to-point operation. From here the call
    /// runs straight into the transport, so the opening is the edge what
    /// the transport records first — the send stamp, the device's wait —
    /// shares its clock reading with.
    fn span(&self, kind: SpanKind, arg: u64) -> motor_obs::SpanGuard<'_> {
        let span = self.thread.vm().metrics().span(kind, arg);
        span.set_edge();
        span
    }

    fn p2p_span(&self, kind: SpanKind, peer: usize, tag: Tag) -> motor_obs::SpanGuard<'_> {
        self.span(kind, span_arg_peer_tag(peer, tag.to_device()))
    }

    // ------------------------------------------------------------------
    // Blocking point-to-point
    // ------------------------------------------------------------------

    /// Complete a started blocking operation with the paper's deferred
    /// pinning: fast-path test first; pin only if we must enter the
    /// polling wait.
    fn finish_blocking(&self, w: &Window, req: Request) -> CoreResult<MpStatus> {
        if let Some(st) = self.comm.test(&req)? {
            pinning::note_fast_blocking_completion(self.thread, self.policy, w.young);
            return Ok(st.into());
        }
        let pin = pinning::pin_resident_for_polling_wait(self.thread, self.policy, w.obj, w.young);
        let st = self.comm.wait_with(&req, || self.thread.poll());
        pinning::release(self.thread, pin);
        Ok(st?.into())
    }

    /// Blocking standard-mode send of a whole object.
    pub fn send(&self, obj: Handle, dest: usize, tag: impl Into<Tag>) -> CoreResult<()> {
        self.send_with(obj, None, dest, tag.into(), Proof::Checked)
    }

    /// Blocking send of an array sub-range given as a Rust range, e.g.
    /// `mp.send_sub(buf, 128..384, dest, tag)`.
    pub fn send_sub(
        &self,
        obj: Handle,
        range: impl RangeBounds<usize>,
        dest: usize,
        tag: impl Into<Tag>,
    ) -> CoreResult<()> {
        let sub = resolve_bounds(range, self.thread.array_len(obj))?;
        self.send_with(obj, Some(sub), dest, tag.into(), Proof::Checked)
    }

    pub(crate) fn send_with(
        &self,
        obj: Handle,
        sub: Option<(usize, usize)>,
        dest: usize,
        tag: Tag,
        proof: Proof,
    ) -> CoreResult<()> {
        let _span = self.p2p_span(SpanKind::MpSend, dest, tag);
        let fc = Fcall::enter(self.thread);
        let w = self.window(&fc, obj, sub, proof)?;
        // SAFETY: window stability is maintained by the pinning policy
        // inside `finish_blocking` (no poll happens before the pin).
        let req = unsafe { self.comm.isend_ptr(w.ptr, w.bytes, dest, tag)? };
        self.finish_blocking(&w, req)?;
        Ok(())
    }

    /// Blocking synchronous-mode send (completes only when matched).
    pub fn ssend(&self, obj: Handle, dest: usize, tag: impl Into<Tag>) -> CoreResult<()> {
        let tag = tag.into();
        let _span = self.p2p_span(SpanKind::MpSsend, dest, tag);
        let fc = Fcall::enter(self.thread);
        let w = self.window(&fc, obj, None, Proof::Checked)?;
        // SAFETY: as in `send`.
        let req = unsafe { self.comm.issend_ptr(w.ptr, w.bytes, dest, tag)? };
        self.finish_blocking(&w, req)?;
        Ok(())
    }

    /// Blocking receive into a whole object. `src` may be
    /// [`Source::Any`].
    pub fn recv(
        &self,
        obj: Handle,
        src: impl Into<Source>,
        tag: impl Into<Tag>,
    ) -> CoreResult<MpStatus> {
        self.recv_with(obj, None, src.into(), tag.into(), Proof::Checked)
    }

    /// Blocking receive into an array sub-range given as a Rust range,
    /// e.g. `mp.recv_sub(buf, ..256, src, tag)`.
    pub fn recv_sub(
        &self,
        obj: Handle,
        range: impl RangeBounds<usize>,
        src: impl Into<Source>,
        tag: impl Into<Tag>,
    ) -> CoreResult<MpStatus> {
        let sub = resolve_bounds(range, self.thread.array_len(obj))?;
        self.recv_with(obj, Some(sub), src.into(), tag.into(), Proof::Checked)
    }

    pub(crate) fn recv_with(
        &self,
        obj: Handle,
        sub: Option<(usize, usize)>,
        src: Source,
        tag: Tag,
        proof: Proof,
    ) -> CoreResult<MpStatus> {
        let _span = self.p2p_span(SpanKind::MpRecv, src.peer_word(), tag);
        let fc = Fcall::enter(self.thread);
        let w = self.window(&fc, obj, sub, proof)?;
        // SAFETY: as in `send`.
        let req = unsafe { self.comm.irecv_ptr(w.ptr, w.bytes, src, tag)? };
        self.finish_blocking(&w, req)
    }

    // ------------------------------------------------------------------
    // Non-blocking (immediate) point-to-point
    // ------------------------------------------------------------------

    /// Wrap a started transport in an [`MpRequest`]: protect the buffer
    /// (a conditional pin the collector releases once the transport
    /// finishes, paper §4.3) and register the operation as in flight,
    /// under the kind and argument of `span`, the initiating call's own —
    /// all three as of the instant it opened.
    fn track(&self, span: &motor_obs::SpanGuard<'_>, w: &Window, req: Request) -> MpRequest {
        span.set_edge();
        let hard_pin = pinning::pin_for_nonblocking(self.thread, self.policy, w.obj, w.young, &req);
        let registry = Arc::clone(self.thread.vm().metrics());
        let inflight = registry.op_begin(span.kind(), span.arg());
        registry.async_op_begin();
        MpRequest {
            inner: req,
            buf: w.obj,
            hard_pin,
            registry,
            inflight,
            async_live: true,
        }
    }

    /// Immediate send. The buffer is protected by a conditional pin that
    /// the collector releases once the transport finishes (paper §4.3).
    pub fn isend(&self, obj: Handle, dest: usize, tag: impl Into<Tag>) -> CoreResult<MpRequest> {
        self.isend_with(obj, dest, tag.into(), Proof::Checked)
    }

    pub(crate) fn isend_with(
        &self,
        obj: Handle,
        dest: usize,
        tag: Tag,
        proof: Proof,
    ) -> CoreResult<MpRequest> {
        let span = self.p2p_span(SpanKind::MpIsend, dest, tag);
        let fc = Fcall::enter(self.thread);
        let w = self.window(&fc, obj, None, proof)?;
        // SAFETY: the conditional pin `track` registers keeps the window
        // stable for the transport's lifetime; no poll intervenes.
        let req = unsafe { self.comm.isend_ptr(w.ptr, w.bytes, dest, tag)? };
        Ok(self.track(&span, &w, req))
    }

    /// Immediate receive.
    pub fn irecv(
        &self,
        obj: Handle,
        src: impl Into<Source>,
        tag: impl Into<Tag>,
    ) -> CoreResult<MpRequest> {
        self.irecv_with(obj, src.into(), tag.into(), Proof::Checked)
    }

    pub(crate) fn irecv_with(
        &self,
        obj: Handle,
        src: Source,
        tag: Tag,
        proof: Proof,
    ) -> CoreResult<MpRequest> {
        let peer = src.peer_word();
        let span = self.p2p_span(SpanKind::MpIrecv, peer, tag);
        let fc = Fcall::enter(self.thread);
        let w = self.window(&fc, obj, None, proof)?;
        // SAFETY: as in `isend`.
        let req = unsafe { self.comm.irecv_ptr(w.ptr, w.bytes, src, tag)? };
        Ok(self.track(&span, &w, req))
    }

    /// Wait for an immediate operation, polling the collector while
    /// waiting (the `MPI_Wait` analog).
    pub fn wait(&self, req: &mut MpRequest) -> CoreResult<MpStatus> {
        let span = self.span(SpanKind::MpWait, req.inner.id());
        let _fc = Fcall::enter(self.thread);
        let st = self.comm.wait_with(&req.inner, || self.thread.poll())?;
        if let Some(tok) = req.hard_pin.take() {
            self.thread.unpin(tok);
        }
        // The wait and the request's in-flight interval end together.
        if req.finish_inflight() {
            span.finish_async();
        }
        Ok(st.into())
    }

    /// Test an immediate operation (the `MPI_Test` analog).
    pub fn test(&self, req: &mut MpRequest) -> CoreResult<Option<MpStatus>> {
        let phase = self.thread.vm().metrics().phase_scope(TimeBucket::Progress);
        let _fc = Fcall::enter(self.thread);
        match self.comm.test(&req.inner)? {
            Some(st) => {
                if let Some(tok) = req.hard_pin.take() {
                    self.thread.unpin(tok);
                }
                if req.finish_inflight() {
                    phase.finish_async();
                }
                Ok(Some(st.into()))
            }
            None => Ok(None),
        }
    }

    /// Blocking probe.
    pub fn probe(&self, src: impl Into<Source>, tag: impl Into<Tag>) -> CoreResult<MpStatus> {
        let fc = Fcall::enter(self.thread);
        let src = src.into();
        let tag = tag.into();
        let _span = self.p2p_span(SpanKind::MpProbe, src.peer_word(), tag);
        Ok(self.comm.probe_with(src, tag, || fc.poll())?.into())
    }

    /// Non-blocking probe.
    pub fn iprobe(
        &self,
        src: impl Into<Source>,
        tag: impl Into<Tag>,
    ) -> CoreResult<Option<MpStatus>> {
        let _phase = self.thread.vm().metrics().phase_scope(TimeBucket::Progress);
        let _fc = Fcall::enter(self.thread);
        Ok(self.comm.iprobe(src, tag)?.map(Into::into))
    }

    // ------------------------------------------------------------------
    // Collectives on managed objects
    // ------------------------------------------------------------------

    /// The one shape of every collective binding: enter an FCall, name the
    /// collective in it (`coll`), resolve the windows of its send and
    /// receive objects (`None` where a rank has none), pin them if the
    /// policy says so — collectives always wait, so the deferred fast path
    /// does not apply — run the collective over them, release. The
    /// collective's own span bills the comm-wait bucket.
    fn pinned(
        &self,
        proof: Proof,
        (send, recv): (Option<Handle>, Option<Handle>),
        coll: impl FnOnce(&Fcall<'_>) -> CoreResult<Coll<'static>>,
    ) -> CoreResult<()> {
        let fc = Fcall::enter(self.thread);
        let coll = coll(&fc)?;
        let sw = send.map(|h| self.window(&fc, h, None, proof)).transpose()?;
        let rw = recv.map(|h| self.window(&fc, h, None, proof)).transpose()?;
        let pin = |w: &Window| {
            pinning::pin_resident_for_polling_wait(self.thread, self.policy, w.obj, w.young)
        };
        let pins = [sw.as_ref().map(pin), rw.as_ref().map(pin)];
        // SAFETY: each window stays pinned (or is elder, hence stable) until
        // the release below.
        let (sbuf, rbuf) = unsafe {
            (
                sw.map_or(&[][..], |w| std::slice::from_raw_parts(w.ptr, w.bytes)),
                rw.map_or(&mut [][..], |w| {
                    std::slice::from_raw_parts_mut(w.ptr, w.bytes)
                }),
            )
        };
        let r = self.comm.collective(sbuf, rbuf, coll);
        for pin in pins.into_iter().flatten() {
            pinning::release(self.thread, pin);
        }
        Ok(r?)
    }

    /// Barrier across the communicator.
    pub fn barrier(&self) -> CoreResult<()> {
        self.pinned(Proof::Checked, (None, None), |_| Ok(Coll::Barrier))
    }

    /// Broadcast a whole object from `root`.
    pub fn bcast(&self, obj: Handle, root: usize) -> CoreResult<()> {
        self.bcast_with(obj, root, Proof::Checked)
    }

    pub(crate) fn bcast_with(&self, obj: Handle, root: usize, proof: Proof) -> CoreResult<()> {
        self.pinned(proof, (None, Some(obj)), |_| Ok(Coll::Bcast(root)))
    }

    /// Scatter equal chunks of root's array into every rank's array.
    /// `send` is significant at root only; `recv.len * size == send.len`.
    pub fn scatter(&self, send: Option<Handle>, recv: Handle, root: usize) -> CoreResult<()> {
        // Only root's object is significant: no window or pin elsewhere.
        let send = send.filter(|_| self.comm.rank() == root);
        self.pinned(Proof::Checked, (send, Some(recv)), |_| {
            Ok(Coll::Scatter(root))
        })
    }

    /// Gather every rank's array into root's array (rank-ordered chunks).
    pub fn gather(&self, send: Handle, recv: Option<Handle>, root: usize) -> CoreResult<()> {
        let recv = recv.filter(|_| self.comm.rank() == root);
        self.pinned(Proof::Checked, (Some(send), recv), |_| {
            Ok(Coll::Gather(root))
        })
    }

    /// Elementwise allreduce over primitive arrays (datatype inferred from
    /// the managed element kind — no `MPI_Datatype` parameter, §4.2.1).
    pub fn allreduce(&self, send: Handle, recv: Handle, op: ReduceOp) -> CoreResult<()> {
        self.pinned(Proof::Checked, (Some(send), Some(recv)), |fc| {
            let arrays = || CoreError::Serialization("allreduce requires arrays".into());
            Ok(Coll::Allreduce(
                dtype_of(fc.elem_kind(send).ok_or_else(arrays)?),
                op,
            ))
        })
    }
}
