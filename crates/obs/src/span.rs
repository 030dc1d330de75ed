//! Begin/end span pairs over the event ring — the one way a timed region
//! is recorded.
//!
//! A [`SpanGuard`] stamps a [`SpanBegin`](crate::EventKind::SpanBegin)
//! event when created and the matching
//! [`SpanEnd`](crate::EventKind::SpanEnd) when dropped, both carrying a
//! process-unique span id; while it lives the operation sits in the
//! registry's in-flight table and, if its kind maps to a
//! [`TimeBucket`](crate::profile::TimeBucket), on the phase stack. Every
//! `System.MP` / `System.MP.OO` operation, device wait, serializer pass,
//! collection and safepoint stall is such a guard, opened by the code
//! that runs the region. The post-mortem [`trace`](crate::trace) module
//! pairs the two events back into one slice on the cluster timeline.
//!
//! Each edge costs one ring write and never takes a lock, so guards are
//! cheap enough for the hot paths the paper measures. On the thread that
//! owns the registry (see [`MetricsRegistry::claim`]) the write is a
//! handful of relaxed stores and no RMW; anywhere else it adds one
//! `fetch_add` and one swap (the shared ring's claim).
//!
//! # One clock reading per edge
//!
//! Starting an operation is several records that all mean "the operation
//! started now", made by layers that do not know each other: the
//! `System.MP` span, the device's `MsgSend` stamp and `DeviceWait` span,
//! the conditional pin, the in-flight and overlap registrations of the
//! request. They share one reading. The layer that opens the operation's
//! own span names that opening the *edge* its thread is at
//! ([`SpanGuard::set_edge`], a thread-local); until the edge is over,
//! whatever this thread records that belongs to the same instant takes
//! its reading in place of a new one ([`MetricsRegistry::edge_nanos`]:
//! the opening of a nested span or phase scope,
//! [`MetricsRegistry::event_at_edge`], [`MetricsRegistry::op_begin`],
//! [`MetricsRegistry::async_op_begin`]).
//! The edge is over as soon as time may have passed: when any span or
//! phase scope closes (with a reading of its own) and when a progress
//! pass starts ([`expire_edge`]) — so what a pass delivers, and a wait
//! opened after one, are stamped afresh. Only code that runs straight from
//! the opening into the transport sets an edge; a span whose body computes
//! (a serializer pass, a collection, a collective) does not, and what
//! opens inside it reads the clock.
//!
//! [`PhaseScope`]: crate::PhaseScope

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::{EventKind, MetricsRegistry};

/// Span ids handed to a thread at a time.
const SPAN_ID_BLOCK: u64 = 1024;

/// Process-wide allocator of span id blocks (ids are 1-based). Ids must
/// be unique across every registry whose event streams are merged, so
/// they come from one shared counter — drawn a block at a time, or two
/// rank threads opening spans would bounce its cache line on every
/// operation.
static NEXT_SPAN_BLOCK: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's block of span ids: `(next, end)`.
    static SPAN_IDS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// The clock reading of the edge this thread is at (module docs).
    static EDGE: Cell<Option<Instant>> = const { Cell::new(None) };
    /// Clock readings this thread has taken through this crate.
    #[cfg(debug_assertions)]
    static CLOCK_READS: Cell<u64> = const { Cell::new(0) };
}

fn next_span_id() -> u64 {
    SPAN_IDS.with(|ids| {
        let (mut next, mut end) = ids.get();
        if next == end {
            next = NEXT_SPAN_BLOCK.fetch_add(SPAN_ID_BLOCK, Ordering::Relaxed);
            end = next + SPAN_ID_BLOCK;
        }
        ids.set((next + 1, end));
        next
    })
}

/// The one place this crate reads the clock.
#[inline]
pub(crate) fn read_clock() -> Instant {
    #[cfg(debug_assertions)]
    CLOCK_READS.with(|n| n.set(n.get() + 1));
    Instant::now()
}

/// How many times this thread has read the clock through this crate.
/// Debug builds only: it is how tests count — rather than time — the
/// readings an operation costs.
#[cfg(debug_assertions)]
#[doc(hidden)]
pub fn clock_reads() -> u64 {
    CLOCK_READS.with(Cell::get)
}

/// The reading of the edge this thread is at, if it is at one.
#[inline]
pub(crate) fn edge() -> Option<Instant> {
    EDGE.with(Cell::get)
}

/// Time may pass from here on: the edge this thread was at, if any, is
/// over (module docs). Called by every closing guard and by the start of
/// a progress pass.
#[inline]
pub fn expire_edge() {
    EDGE.with(|e| e.set(None));
}

/// A new reading for a closing edge; whatever edge was open is over.
#[inline]
pub(crate) fn close_edge() -> Instant {
    expire_edge();
    read_clock()
}

named_enum! {
    /// What a span covers. The discriminant travels as the `b` word of
    /// the begin/end events.
    enum SpanKind: u64 {
    // ---- System.MP point-to-point ----
    /// Blocking standard-mode send.
    MpSend => "mp_send",
    /// Blocking synchronous-mode send.
    MpSsend => "mp_ssend",
    /// Blocking receive.
    MpRecv => "mp_recv",
    /// Non-blocking send initiation.
    MpIsend => "mp_isend",
    /// Non-blocking receive initiation.
    MpIrecv => "mp_irecv",
    /// Wait on a non-blocking request. Takes no in-flight slot: the
    /// transport's `DeviceWait` under it registers the same request id,
    /// and heartbeats.
    MpWait => "mp_wait",
    /// Blocking probe.
    MpProbe => "mp_probe",

    // ---- collectives ----
    /// Barrier.
    Barrier => "barrier",
    /// Broadcast.
    Bcast => "bcast",
    /// Scatter (incl. scatterv).
    Scatter => "scatter",
    /// Gather (incl. gatherv).
    Gather => "gather",
    /// Allgather.
    Allgather => "allgather",
    /// Reduce.
    Reduce => "reduce",
    /// Allreduce.
    Allreduce => "allreduce",
    /// Scan.
    Scan => "scan",
    /// All-to-all.
    Alltoall => "alltoall",

    // ---- System.MP.OO ----
    /// Object-tree send.
    Osend => "osend",
    /// Object-tree receive.
    Orecv => "orecv",
    /// Object-tree broadcast.
    Obcast => "obcast",
    /// Object-array scatter.
    Oscatter => "oscatter",
    /// Object-array gather.
    Ogather => "ogather",

    // ---- runtime phases ----
    /// Serializer pass (argument: wire bytes produced).
    Serialize => "serialize",
    /// Deserializer pass (argument: wire bytes consumed).
    Deserialize => "deserialize",
    /// Transport-level blocking wait (argument: device request id).
    DeviceWait => "device_wait",
    /// Rendezvous handshake on the sender (RTS out → transfer done).
    /// Not lexical: derived by [`crate::trace`] from `RndvRts`/`RndvDone`.
    RndvHandshake => "rndv_handshake",
    /// Garbage collection pause (argument: 0 minor / 1 full).
    Gc => "gc",
    /// Mutator stalled at a safepoint.
    SafepointStall => "safepoint_stall",
    /// Pin lifetime. Not lexical: derived by [`crate::trace`] from
    /// `PinAcquire`/`PinRelease`.
    PinHeld => "pin_held",
    }
}

impl SpanKind {
    /// Kinds that count as *waiting on the cluster* (vs doing local work)
    /// in the per-rank wait-time breakdown.
    pub fn is_wait(self) -> bool {
        matches!(
            self,
            SpanKind::MpWait
                | SpanKind::MpProbe
                | SpanKind::DeviceWait
                | SpanKind::Gc
                | SpanKind::SafepointStall
        )
    }

    /// Which time bucket this span's duration is attributed to in the
    /// per-rank phase accounting (see [`crate::profile`]). `None` means
    /// the span is informational only (e.g. pin lifetimes overlap other
    /// work and must not steal compute time).
    pub fn bucket(self) -> Option<crate::profile::TimeBucket> {
        use crate::profile::TimeBucket;
        match self {
            SpanKind::MpSend
            | SpanKind::MpSsend
            | SpanKind::MpRecv
            | SpanKind::MpIsend
            | SpanKind::MpIrecv
            | SpanKind::MpWait
            | SpanKind::Barrier
            | SpanKind::Bcast
            | SpanKind::Scatter
            | SpanKind::Gather
            | SpanKind::Allgather
            | SpanKind::Reduce
            | SpanKind::Allreduce
            | SpanKind::Scan
            | SpanKind::Alltoall
            | SpanKind::Osend
            | SpanKind::Orecv
            | SpanKind::Obcast
            | SpanKind::Oscatter
            | SpanKind::Ogather
            | SpanKind::DeviceWait
            | SpanKind::RndvHandshake => Some(TimeBucket::CommWait),
            SpanKind::MpProbe => Some(TimeBucket::Progress),
            SpanKind::Serialize | SpanKind::Deserialize => Some(TimeBucket::Serialize),
            SpanKind::Gc | SpanKind::SafepointStall => Some(TimeBucket::Gc),
            SpanKind::PinHeld => None,
        }
    }
}

/// Pack a peer rank and a tag into one span argument word
/// (`peer << 32 | tag as u32`).
pub fn span_arg_peer_tag(peer: usize, tag: i32) -> u64 {
    ((peer as u64) << 32) | (tag as u32 as u64)
}

/// Unpack [`span_arg_peer_tag`].
pub fn span_arg_unpack(arg: u64) -> (usize, i32) {
    ((arg >> 32) as usize, arg as u32 as i32)
}

/// An open span; dropping it stamps the end event.
///
/// Opening a span also registers the operation in the registry's live
/// in-flight table (see [`crate::doctor`]), so every spanned operation is
/// visible to the `motor-doctor` watchdog while it runs — an `mp_wait`
/// through the `device_wait` under it; dropping the guard deregisters it.
pub struct SpanGuard<'r> {
    registry: &'r MetricsRegistry,
    id: u64,
    kind: SpanKind,
    arg: u64,
    t_begin: u64,
    inflight: usize,
    phase_pushed: bool,
}

impl SpanGuard<'_> {
    /// This span's process-unique id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// What this span covers.
    pub fn kind(&self) -> SpanKind {
        self.kind
    }

    /// The argument word (as opened, or as last [`set`](Self::set_arg)).
    pub fn arg(&self) -> u64 {
        self.arg
    }

    /// Replace the argument word carried by the end event (e.g. with a
    /// byte count known only at completion).
    pub fn set_arg(&mut self, arg: u64) {
        self.arg = arg;
    }

    /// Report a sign of life to the in-flight table: the operation is
    /// still advancing (call from polling loops so a long-but-live wait
    /// is not mistaken for a stall). Counted, not timed: whoever watches
    /// the table dates it (see [`MetricsRegistry::last_progress_nanos`]).
    pub fn heartbeat(&self) {
        self.registry.inflight.beat(self.inflight);
    }

    /// Name this span's opening the edge its thread is at (module docs):
    /// what the operation records next — the send stamp and the wait span
    /// on the transport's side, and, named again once the transport has
    /// been started, its conditional pin and its in-flight and overlap
    /// entries — is stamped with the instant the operation started, not
    /// with one reading each. Over, as every edge, when this or any other
    /// guard closes or a progress pass starts.
    pub fn set_edge(&self) {
        EDGE.with(|e| {
            e.set(Some(
                self.registry.epoch + Duration::from_nanos(self.t_begin),
            ))
        });
    }

    /// Close the span now and return how long it was open (nanoseconds),
    /// measured by the same clock reading that stamps the end event.
    pub fn finish(mut self) -> u64 {
        let dur = self.close(false);
        std::mem::forget(self);
        dur
    }

    /// Close the span and, at the same instant, the in-flight interval of
    /// the non-blocking operation it completed (see
    /// [`MetricsRegistry::async_op_end`]).
    pub fn finish_async(mut self) {
        self.close(true);
        std::mem::forget(self);
    }

    fn close(&mut self, async_done: bool) -> u64 {
        let r = self.registry;
        let now = r.nanos_at(close_edge());
        if async_done {
            r.phases.async_end_at(now);
        }
        if self.phase_pushed {
            r.phases.pop_at(now);
        }
        r.inflight.end(self.inflight);
        r.event_at(now, EventKind::SpanEnd, self.id, self.kind as u64, self.arg);
        now.saturating_sub(self.t_begin)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.close(false);
    }
}

impl MetricsRegistry {
    /// Open a span; the returned guard closes it on drop.
    ///
    /// When phase accounting is live on this registry
    /// ([`profile_start`](MetricsRegistry::profile_start)) and the kind
    /// maps to a time bucket, the span's lifetime is also attributed to
    /// that bucket.
    pub fn span(&self, kind: SpanKind, arg: u64) -> SpanGuard<'_> {
        let id = next_span_id();
        let now = self.edge_nanos();
        self.event_at(now, EventKind::SpanBegin, id, kind as u64, arg);
        SpanGuard {
            registry: self,
            id,
            kind,
            arg,
            t_begin: now,
            inflight: if kind == SpanKind::MpWait {
                crate::INFLIGHT_NONE
            } else {
                self.inflight.begin(kind, arg, now)
            },
            phase_pushed: kind.bucket().is_some_and(|b| self.phases.push_at(b, now)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventKind;

    #[test]
    fn span_guard_emits_matched_pair() {
        let r = MetricsRegistry::new();
        let arg = span_arg_peer_tag(3, 17);
        {
            let _g = r.span(SpanKind::MpSend, arg);
        }
        let s = r.snapshot();
        let ev = s.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].kind, EventKind::SpanBegin);
        assert_eq!(ev[1].kind, EventKind::SpanEnd);
        assert_eq!(ev[0].a, ev[1].a, "same span id");
        assert_eq!(ev[0].b, SpanKind::MpSend as u64);
        assert_eq!(span_arg_unpack(ev[0].c), (3, 17));
        assert!(ev[1].t_nanos >= ev[0].t_nanos);
    }

    /// Clock readings `f` costs this thread.
    #[cfg(debug_assertions)]
    fn readings(f: impl FnOnce()) -> u64 {
        let before = clock_reads();
        f();
        clock_reads() - before
    }

    /// One reading per edge: what opens at the same instant shares it,
    /// across registries; every close, and whatever follows a pass, reads
    /// its own.
    #[cfg(debug_assertions)]
    #[test]
    fn an_edge_is_one_clock_reading() {
        // Two registries, on one epoch as in a cluster.
        let epoch = Instant::now();
        let (vm, dev) = (
            MetricsRegistry::with_epoch(epoch, 64),
            MetricsRegistry::with_epoch(epoch, 64),
        );
        vm.profile_start();
        let mut guards = Vec::new();
        // An operation starts: its span, the send stamp and the wait span
        // on the device side, the request's registrations.
        assert_eq!(
            readings(|| {
                guards.push(vm.span(SpanKind::MpWait, 7));
                guards[0].set_edge();
                dev.event_at_edge(EventKind::MsgSend, 1, 2, 3);
                guards.push(dev.span(SpanKind::DeviceWait, 7));
                vm.op_end(vm.op_begin(SpanKind::MpIsend, 0));
                vm.async_op_begin();
            }),
            1
        );
        let stamps: Vec<u64> = [&vm, &dev]
            .iter()
            .flat_map(|r| {
                r.snapshot()
                    .events()
                    .iter()
                    .map(|e| e.t_nanos)
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(stamps.len(), 3);
        assert!(stamps.iter().all(|&t| t == stamps[0]), "{stamps:?}");
        // The inner wait ends, then the outer one and the in-flight
        // interval with it: a reading each.
        let (outer, inner) = (guards.remove(0), guards.remove(0));
        assert_eq!(
            readings(|| {
                inner.finish();
            }),
            1
        );
        assert_eq!(readings(|| outer.finish_async()), 1);
        // Nothing is left of the edge: the next stamp reads the clock.
        assert_eq!(
            readings(|| dev.event_at_edge(EventKind::MsgSend, 1, 2, 3)),
            1
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_pass_ends_the_edge_and_a_guard_can_set_it_again() {
        let r = MetricsRegistry::new();
        // A span whose body computes sets no edge: what opens inside it
        // later must not be dated with its opening.
        let gc = r.span(SpanKind::Gc, 0);
        assert_eq!(readings(|| drop(r.span(SpanKind::SafepointStall, 0))), 2);
        drop(gc);
        let g = r.span(SpanKind::MpIsend, 0);
        g.set_edge();
        expire_edge(); // the transport's progress pass
        assert_eq!(readings(|| r.event_at_edge(EventKind::MsgRecv, 0, 0, 0)), 1);
        g.set_edge();
        assert_eq!(
            readings(|| {
                r.event_at_edge(EventKind::PinAcquire, 0, 1, 0);
                r.op_end(r.op_begin(SpanKind::MpIsend, 0));
            }),
            0
        );
        let s = r.snapshot();
        let ev = &s.events()[4..];
        assert_eq!(ev[2].kind, EventKind::PinAcquire);
        assert_eq!(
            ev[2].t_nanos, ev[0].t_nanos,
            "stamped with the span's opening"
        );
        assert!(ev[1].t_nanos >= ev[0].t_nanos);
        assert_eq!(readings(|| drop(g)), 1);
        assert_eq!(
            readings(|| drop(r.phase_scope(crate::TimeBucket::Progress))),
            1
        );
    }

    #[test]
    fn span_ids_come_in_per_thread_blocks() {
        let r = MetricsRegistry::new();
        let here = r.span(SpanKind::Barrier, 0).id();
        assert_eq!(r.span(SpanKind::Barrier, 0).id(), here + 1);
        let there = std::thread::scope(|s| {
            s.spawn(|| r.span(SpanKind::Barrier, 0).id())
                .join()
                .unwrap()
        });
        assert!(
            there.abs_diff(here) >= SPAN_ID_BLOCK - 1,
            "{here} vs {there}"
        );
    }

    #[test]
    fn span_ids_unique_across_registries() {
        let r1 = MetricsRegistry::new();
        let r2 = MetricsRegistry::new();
        let a = r1.span(SpanKind::Barrier, 0).id();
        let b = r2.span(SpanKind::Barrier, 0).id();
        assert_ne!(a, b);
    }

    #[test]
    fn span_arg_roundtrip_negative_tag() {
        let arg = span_arg_peer_tag(7, -1);
        assert_eq!(span_arg_unpack(arg), (7, -1));
    }

    #[test]
    fn kind_name_roundtrip() {
        for k in SpanKind::ALL {
            assert_eq!(SpanKind::from_name(k.name()), Some(k));
            assert_eq!(SpanKind::from_u64(k as u64), Some(k));
        }
    }
}
