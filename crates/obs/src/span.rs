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
//! Each edge reads the clock once and costs one ring write (a
//! `fetch_add` plus a handful of relaxed stores) and never takes a lock,
//! so guards are cheap enough for the hot paths the paper measures.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::{EventKind, MetricsRegistry};

/// Process-wide span id allocator (1-based). Ids must be unique across
/// every registry of a rank (each rank carries a transport-side *and* a
/// VM-side registry whose event streams are merged), so they come from
/// one shared counter rather than per-registry state.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

macro_rules! define_span_kinds {
    ($( $(#[$doc:meta])* $variant:ident => $name:literal ),+ $(,)?) => {
        /// What a span covers. The discriminant travels as the `b` word of
        /// the begin/end events.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u64)]
        pub enum SpanKind {
            $( $(#[$doc])* $variant ),+
        }

        impl SpanKind {
            /// Every kind, in declaration order.
            pub const ALL: [SpanKind; [$(SpanKind::$variant),+].len()] =
                [$(SpanKind::$variant),+];

            /// Stable export name (Perfetto slice name).
            pub fn name(self) -> &'static str {
                match self {
                    $( SpanKind::$variant => $name ),+
                }
            }

            /// Inverse of `as u64` (unknown values map to `None`).
            pub fn from_u64(v: u64) -> Option<SpanKind> {
                SpanKind::ALL.get(v as usize).copied()
            }

            /// Inverse of [`SpanKind::name`].
            pub fn from_name(name: &str) -> Option<SpanKind> {
                SpanKind::ALL.iter().copied().find(|k| k.name() == name)
            }
        }
    };
}

define_span_kinds! {
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
    /// Wait on a non-blocking request.
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
/// visible to the `motor-doctor` watchdog while it runs; dropping the
/// guard deregisters it.
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

    /// Replace the argument word carried by the end event (e.g. with a
    /// byte count known only at completion).
    pub fn set_arg(&mut self, arg: u64) {
        self.arg = arg;
    }

    /// Report a sign of life to the in-flight table: the operation is
    /// still advancing (call from polling loops so a long-but-live wait
    /// is not mistaken for a stall).
    pub fn heartbeat(&self) {
        let r = self.registry;
        r.inflight.beat(self.inflight, r.now_nanos());
    }

    /// Close the span now and return how long it was open (nanoseconds),
    /// measured by the same clock reading that stamps the end event.
    pub fn finish(mut self) -> u64 {
        let dur = self.close();
        std::mem::forget(self);
        dur
    }

    fn close(&mut self) -> u64 {
        let r = self.registry;
        let now = r.now_nanos();
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
        self.close();
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
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let now = self.now_nanos();
        self.event_at(now, EventKind::SpanBegin, id, kind as u64, arg);
        SpanGuard {
            registry: self,
            id,
            kind,
            arg,
            t_begin: now,
            inflight: self.inflight.begin(kind, arg, now),
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
