//! The extended object-oriented operations (paper §4.2.2, §7.5).
//!
//! `OSend` / `ORecv` / `OBcast` / `OScatter` / `OGather` transport whole
//! objects, arrays of objects and trees of objects by serializing with the
//! custom mechanism of [`crate::serial`] — "functionality not possible
//! with other Java and .Net implementations of MPI, namely the ability to
//! scatter / gather arrays of objects" (§1).
//!
//! Wire protocol: "Before sending the serialized buffer, Motor sends the
//! size of the buffer. This ensures the receiver can prepare a sufficient
//! buffer" (§7.5). Point to point, both messages travel on the user's tag;
//! MPI non-overtaking keeps each size/data pair matched per sender.
//! `OBcast` broadcasts the size, then the bytes. `OScatter` scatters one
//! size per rank, then the split-representation parts by a
//! variable-count scatter; `OGather` gathers the sizes, then the parts by
//! a variable-count gather — collectives on the collective context, no
//! tags of their own. The framing is written once — [`send_sized`],
//! [`recv_sized`], [`bcast_sized`], [`scatter_sized`], [`gather_sized`],
//! [`announced_buf`] — over whatever moves the bytes: [`Oomp`], the
//! intercommunicator transport of [`MotorProc`](crate::cluster::MotorProc)
//! and `motor_api::Communicator`.
//!
//! The serialized bytes live in pooled native buffers ([`crate::bufpool`]),
//! so these operations never pin managed memory (§7.4).

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use std::ops::RangeBounds;

use motor_mpc::{Coll, Comm, Source, Status, Tag};
use motor_obs::{span_arg_peer_tag, Hist, Metric, MetricsRegistry, SpanKind};
use motor_runtime::{Handle, MotorThread};

use crate::bufpool::{BufPool, PoolBuf};
use crate::error::{CoreError, CoreResult};
use crate::fcall::Fcall;
use crate::mp::MpStatus;
use crate::serial::{Serializer, VisitedStrategy, WalkScratch};

/// Send the size header, then the data buffer, through `send`.
pub fn send_sized<E>(bytes: &[u8], mut send: impl FnMut(&[u8]) -> Result<(), E>) -> Result<(), E> {
    send(&(bytes.len() as u64).to_le_bytes())?;
    send(bytes)
}

/// A zeroed buffer of the length a size header announces, from `alloc`
/// (`None` = cannot). The header is the peer's claim: a length this
/// process cannot allocate is an error, not a capacity-overflow panic.
pub fn announced_buf<B>(size: [u8; 8], alloc: impl FnOnce(usize) -> Option<B>) -> CoreResult<B> {
    let len = u64::from_le_bytes(size);
    usize::try_from(len).ok().and_then(alloc).ok_or_else(|| {
        CoreError::Serialization(format!(
            "size header announces {len} bytes: cannot allocate"
        ))
    })
}

/// [`announced_buf`]'s plain allocator: `len` zero bytes, if there is room.
pub fn zeroed(len: usize) -> Option<Vec<u8>> {
    let mut buf = Vec::new();
    buf.try_reserve_exact(len).ok()?;
    buf.resize(len, 0);
    Some(buf)
}

/// Receive a size header through `recv`, then the data into a buffer from
/// `alloc` — from the *same* source and tag, which keeps a wildcard
/// receive's size/data streams aligned. Returns the buffer and the status
/// of the header (whose source and tag are the message's).
pub fn recv_sized<B: AsMut<[u8]>, E: From<CoreError>>(
    src: Source,
    tag: Tag,
    mut recv: impl FnMut(&mut [u8], Source, Tag) -> Result<Status, E>,
    alloc: impl FnOnce(usize) -> Option<B>,
) -> Result<(B, Status), E> {
    let mut size = [0u8; 8];
    let st = recv(&mut size, src, tag)?;
    let mut buf = announced_buf(size, alloc)?;
    let body = buf.as_mut();
    let st2 = recv(body, Source::Rank(st.source as usize), Tag::new(st.tag))?;
    debug_assert_eq!(st2.count, body.len());
    Ok((buf, st))
}

/// Broadcast the size header, then the data through `bcast`: the root
/// passes `Some(bytes)` and gets them back, the others pass `None` and get
/// the announced bytes in a buffer from `alloc`.
pub fn bcast_sized<B: AsMut<[u8]>, E: From<CoreError>>(
    mut own: Option<B>,
    mut bcast: impl FnMut(&mut [u8]) -> Result<(), E>,
    alloc: impl FnOnce(usize) -> Option<B>,
) -> Result<B, E> {
    let mut size = (own.as_mut().map_or(0, |b| b.as_mut().len()) as u64).to_le_bytes();
    bcast(&mut size)?;
    let mut buf = own.map_or_else(|| announced_buf(size, alloc), Ok)?;
    bcast(buf.as_mut())?;
    Ok(buf)
}

/// Scatter one sized part to every rank from `root` through `coll`: the
/// lengths by a scatter of one size header per rank, then the parts by a
/// variable-count scatter. The root passes `Some` of its parts back to
/// back and each rank's length; every rank, the root too, gets its own
/// part in a buffer from `alloc`.
pub fn scatter_sized<B: AsMut<[u8]>, E: From<CoreError>>(
    root: usize,
    parts: Option<(&[u8], &[usize])>,
    mut coll: impl FnMut(&[u8], &mut [u8], Coll) -> Result<(), E>,
    alloc: impl FnOnce(usize) -> Option<B>,
) -> Result<B, E> {
    let (whole, lens) = parts.unwrap_or_default();
    let sizes = Vec::from_iter(lens.iter().flat_map(|&l| (l as u64).to_le_bytes()));
    let mut size = [0u8; 8];
    coll(&sizes, &mut size, Coll::Scatter(root))?;
    let mut buf = announced_buf(size, alloc)?;
    coll(whole, buf.as_mut(), Coll::Scatterv(lens, root))?;
    Ok(buf)
}

/// Gather every rank's `own` bytes at `root` through `coll`: the lengths
/// by a gather of one size header per rank, then the bytes by a
/// variable-count gather into one buffer from `alloc`. The root passes
/// `Some` of the communicator's size and gets the buffer and each rank's
/// length, in rank order; the others get `None`. The lengths are the
/// senders' claim: a sum that overflows or cannot be allocated is an
/// error.
pub fn gather_sized<B: AsMut<[u8]>, E: From<CoreError>>(
    own: &[u8],
    root: usize,
    ranks: Option<usize>,
    mut coll: impl FnMut(&[u8], &mut [u8], Coll) -> Result<(), E>,
    alloc: impl FnOnce(usize) -> Option<B>,
) -> Result<Option<(B, Vec<usize>)>, E> {
    let mut sizes = vec![0u8; 8 * ranks.unwrap_or(0)];
    let size = (own.len() as u64).to_le_bytes();
    coll(&size, &mut sizes, Coll::Gather(root))?;
    if ranks.is_none() {
        return coll(own, &mut [], Coll::Gatherv(&[], root)).map(|()| None);
    }
    let mut total = Some(0u64);
    let lens = Vec::from_iter(sizes.chunks_exact(8).map(|h| {
        let len = u64::from_le_bytes(h.try_into().expect("chunks of 8 bytes"));
        total = total.and_then(|t| t.checked_add(len));
        // At most the total, which the allocation below proves fits.
        len as usize
    }));
    let overflow = || CoreError::Serialization("gathered sizes add up past 2^64 bytes".into());
    let mut buf = announced_buf(total.ok_or_else(overflow)?.to_le_bytes(), alloc)?;
    coll(own, buf.as_mut(), Coll::Gatherv(&lens, root))?;
    Ok(Some((buf, lens)))
}

/// The extended object-oriented interface bound to one rank.
pub struct Oomp<'t> {
    thread: &'t MotorThread,
    comm: Comm,
    pool: Arc<BufPool>,
    scratch: &'t RefCell<WalkScratch>,
    strategy: VisitedStrategy,
    last_epoch: Cell<u64>,
}

impl<'t> Oomp<'t> {
    /// Bind the OO operations to a thread, a communicator and the rank's
    /// reusable buffers: the transport buffer pool and the serializer's
    /// walk scratch.
    pub fn new(
        thread: &'t MotorThread,
        comm: Comm,
        pool: Arc<BufPool>,
        scratch: &'t RefCell<WalkScratch>,
    ) -> Oomp<'t> {
        Oomp {
            thread,
            comm,
            pool,
            scratch,
            strategy: VisitedStrategy::default(),
            last_epoch: Cell::new(0),
        }
    }

    /// Override the serializer's visited-structure strategy (ablation).
    pub fn with_strategy(mut self, s: VisitedStrategy) -> Self {
        self.strategy = s;
        self
    }

    fn serializer(&self) -> Serializer<'t> {
        Serializer::new(self.thread)
            .with_strategy(self.strategy)
            .with_scratch(self.scratch)
    }

    /// Serialize `obj`, or the `(offset, count)` sub-range of the array it
    /// is, into a pooled buffer.
    fn serialize_pooled(&self, obj: Handle, sub: Option<(usize, usize)>) -> CoreResult<PoolBuf> {
        let mut buf = self.pool.get(0, self.current_epoch());
        let ser = self.serializer();
        match sub {
            None => ser.serialize_into(obj, buf.buf_mut())?,
            Some((offset, count)) => {
                ser.serialize_array_range_into(obj, offset, count, buf.buf_mut())?
            }
        };
        Ok(buf)
    }

    fn metrics(&self) -> &MetricsRegistry {
        self.thread.vm().metrics()
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Communicator size.
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// The paper's GC hook on the buffer stack: when a collection has
    /// happened since the last operation, unallocate stale buffers and
    /// what the walk scratch holds beyond its last pass's needs.
    fn maintain_pool(&self) {
        let epoch = self.thread.vm().safepoint().epoch();
        if epoch != self.last_epoch.get() {
            self.pool.trim_at_gc(epoch);
            self.scratch.borrow_mut().trim();
            self.last_epoch.set(epoch);
        }
    }

    fn current_epoch(&self) -> u64 {
        self.thread.vm().safepoint().epoch()
    }

    /// A zeroed pooled buffer of `len` bytes, if there is room for one.
    fn pooled(&self, len: usize) -> Option<PoolBuf> {
        let mut buf = self.pool.try_get(len, self.current_epoch()).ok()?;
        buf.buf_mut().resize(len, 0);
        Some(buf)
    }

    /// One collective over this rank's communicator.
    fn collective(&self, send: &[u8], recv: &mut [u8], coll: Coll) -> CoreResult<()> {
        Ok(self.comm.collective(send, recv, coll)?)
    }

    /// [`recv_sized`] over this rank's communicator into a pooled buffer.
    fn recv_pooled(&self, src: Source, tag: Tag) -> CoreResult<(PoolBuf, MpStatus)> {
        let recv = |b: &mut [u8], src: Source, tag: Tag| {
            self.comm.recv_bytes(b, src, tag).map_err(CoreError::from)
        };
        let (buf, st) = recv_sized(src, tag, recv, |n| self.pooled(n))?;
        Ok((buf, st.into()))
    }

    // ------------------------------------------------------------------
    // Point-to-point object transport
    // ------------------------------------------------------------------

    /// Transport an object (tree) to `dest` — the `OSend` of Figure 4.
    pub fn osend(&self, obj: Handle, dest: usize, tag: impl Into<Tag>) -> CoreResult<()> {
        self.osend_with(obj, None, dest, tag.into())
    }

    /// Transport a sub-range of an array given as a Rust range, e.g.
    /// `oomp.osend_sub(arr, 1..3, dest, tag)` — `OSend` with offset and
    /// numcomponents (Figure 4).
    pub fn osend_sub(
        &self,
        obj: Handle,
        range: impl RangeBounds<usize>,
        dest: usize,
        tag: impl Into<Tag>,
    ) -> CoreResult<()> {
        let sub = crate::mp::resolve_bounds(range, self.thread.array_len(obj))?;
        self.osend_with(obj, Some(sub), dest, tag.into())
    }

    fn osend_with(
        &self,
        obj: Handle,
        sub: Option<(usize, usize)>,
        dest: usize,
        tag: Tag,
    ) -> CoreResult<()> {
        let _span = self
            .metrics()
            .span(SpanKind::Osend, span_arg_peer_tag(dest, tag.to_device()));
        let _fc = Fcall::enter(self.thread);
        self.maintain_pool();
        self.metrics().bump(Metric::OompOsends);
        let buf = self.serialize_pooled(obj, sub)?;
        self.metrics()
            .record(Hist::SerializedGraphBytes, buf.as_slice().len() as u64);
        send_sized(buf.as_slice(), |b| self.comm.send_bytes(b, dest, tag))?;
        self.pool.put(buf, self.current_epoch());
        Ok(())
    }

    /// Receive an object (tree) — the `ORecv` of Figure 4. Returns the
    /// reconstructed root and the message status.
    pub fn orecv(
        &self,
        src: impl Into<Source>,
        tag: impl Into<Tag>,
    ) -> CoreResult<(Handle, MpStatus)> {
        let src = src.into();
        let tag = tag.into();
        let peer = span_arg_peer_tag(src.peer_word(), tag.to_device());
        let _span = self.metrics().span(SpanKind::Orecv, peer);
        let _fc = Fcall::enter(self.thread);
        self.maintain_pool();
        self.metrics().bump(Metric::OompOrecvs);
        let (buf, st) = self.recv_pooled(src, tag)?;
        let root = self.serializer().deserialize(buf.as_slice())?;
        self.pool.put(buf, self.current_epoch());
        Ok((root, st))
    }

    // ------------------------------------------------------------------
    // Collective object transport
    // ------------------------------------------------------------------

    /// Broadcast an object tree from `root`. The root passes `Some(obj)`
    /// and gets its own handle back; other ranks receive the copy.
    pub fn obcast(&self, obj: Option<Handle>, root: usize) -> CoreResult<Handle> {
        let _span = self.metrics().span(SpanKind::Obcast, root as u64);
        let _fc = Fcall::enter(self.thread);
        self.maintain_pool();
        self.metrics().bump(Metric::OompCollectives);
        let root_obj = (self.comm.rank() == root)
            .then(|| obj.ok_or(CoreError::NullBuffer))
            .transpose()?;
        let own = root_obj
            .map(|o| self.serialize_pooled(o, None))
            .transpose()?;
        let bcast = |b: &mut [u8]| self.collective(&[], b, Coll::Bcast(root));
        let buf = bcast_sized(own, bcast, |n| self.pooled(n))?;
        let got = root_obj.map_or_else(|| self.serializer().deserialize(buf.as_slice()), Ok);
        self.pool.put(buf, self.current_epoch());
        got
    }

    /// Scatter an array of objects from `root`: each rank receives a
    /// sub-array of `len / size` elements (the split representation in
    /// action, §7.5). The root passes `Some(array)`.
    pub fn oscatter(&self, arr: Option<Handle>, root: usize) -> CoreResult<Handle> {
        let _span = self.metrics().span(SpanKind::Oscatter, root as u64);
        let _fc = Fcall::enter(self.thread);
        self.maintain_pool();
        self.metrics().bump(Metric::OompCollectives);
        let n = self.comm.size();
        let parts = if self.comm.rank() == root {
            let arr = arr.ok_or(CoreError::NullBuffer)?;
            let len = self.thread.array_len(arr);
            if !len.is_multiple_of(n) {
                return Err(CoreError::Serialization(format!(
                    "scatter of {len} elements over {n} ranks is not even"
                )));
            }
            // "For scatter operations the serialization mechanism
            // automatically splits the array and flattens referenced
            // objects" — one independently deserializable part per rank,
            // back to back in one buffer.
            let (chunk, ser) = (len / n, self.serializer());
            let mut all = self.pool.get(0, self.current_epoch());
            let mut lens = Vec::with_capacity(n);
            for r in 0..n {
                let part = ser.serialize_array_range_into(arr, r * chunk, chunk, all.buf_mut())?;
                lens.push(part.bytes);
            }
            Some((all, lens))
        } else {
            None
        };
        let whole = parts
            .as_ref()
            .map(|(all, lens)| (all.as_slice(), &lens[..]));
        let coll = |s: &[u8], r: &mut [u8], c: Coll<'_>| self.collective(s, r, c);
        let mine = scatter_sized(root, whole, coll, |n| self.pooled(n));
        if let Some((all, _)) = parts {
            self.pool.put(all, self.current_epoch());
        }
        let mine = mine?;
        let h = self.serializer().deserialize(mine.as_slice())?;
        self.pool.put(mine, self.current_epoch());
        Ok(h)
    }

    /// Gather each rank's array of objects into one array at `root` (rank
    /// order). Returns `Some(full)` at root, `None` elsewhere.
    pub fn ogather(&self, sub: Handle, root: usize) -> CoreResult<Option<Handle>> {
        let _span = self.metrics().span(SpanKind::Ogather, root as u64);
        let _fc = Fcall::enter(self.thread);
        self.maintain_pool();
        self.metrics().bump(Metric::OompCollectives);
        let own = self.serialize_pooled(sub, Some((0, self.thread.array_len(sub))))?;
        let ranks = (self.comm.rank() == root).then_some(self.comm.size());
        let coll = |s: &[u8], r: &mut [u8], c: Coll<'_>| self.collective(s, r, c);
        let gathered = gather_sized(own.as_slice(), root, ranks, coll, |n| self.pooled(n));
        self.pool.put(own, self.current_epoch());
        let Some((all, lens)) = gathered? else {
            return Ok(None);
        };
        // "For gather operations the deserialization mechanism takes
        // many split representations and reconstructs them into a
        // single array."
        let (ser, mut at) = (self.serializer(), 0);
        let mut parts: Vec<Handle> = Vec::with_capacity(lens.len());
        for len in lens {
            parts.push(ser.deserialize(&all.as_slice()[at..at + len])?);
            at += len;
        }
        self.pool.put(all, self.current_epoch());
        // Concatenate the parts.
        let total: usize = parts.iter().map(|&p| self.thread.array_len(p)).sum();
        let elem_class = {
            let cls = self.thread.class_of(parts[0]);
            let vm = self.thread.vm();
            let reg = vm.registry();
            match reg.table(cls).kind {
                motor_runtime::TypeKind::ObjArray(e) => e,
                _ => {
                    return Err(CoreError::Serialization(
                        "ogather requires arrays of objects".into(),
                    ))
                }
            }
        };
        let full = self.thread.alloc_obj_array(elem_class, total);
        let mut at = 0usize;
        for p in parts {
            let plen = self.thread.array_len(p);
            for i in 0..plen {
                let e = self.thread.obj_array_get(p, i);
                self.thread.obj_array_set(full, at, e);
                self.thread.release(e);
                at += 1;
            }
            self.thread.release(p);
        }
        Ok(Some(full))
    }
}
