//! Observability for the Motor stack: a per-rank metrics registry plus
//! fixed-capacity event-trace rings.
//!
//! The paper's argument is a *measured* cost structure — FCall vs
//! P/Invoke/JNI transitions, pin-avoidance, eager vs rendezvous — so every
//! layer (channel, device, comm, pinning, serializer, buffer pool, GC)
//! reports into one [`MetricsRegistry`]. The registry's owner — the rank
//! thread that [claims](MetricsRegistry::claim) it — takes no lock and pays
//! no atomic RMW; every other writer pays one relaxed RMW per counter bump
//! and takes one lock per event; readers take none:
//!
//! * **Counters** ([`Metric`]) are monotonic `AtomicU64`s, except a few
//!   high-water marks (`*_peak`) that only rise and are merged across
//!   ranks by `max` rather than `+`.
//! * **Histograms** ([`Hist`]) are 64 log2 buckets of `AtomicU64` — a
//!   value `v ≥ 1` lands in bucket `max(1, ceil(log2 v))`, so bucket 0 is
//!   exactly 0, bucket 1 holds 1 and 2, and bucket k ≥ 2 covers
//!   `(2^(k-1), 2^k]`.
//! * **Events** go to fixed-capacity rings stamped by a per-ring
//!   monotonically increasing sequence and published seqlock-style; old
//!   entries are overwritten. Each ring has one writer at a time, and
//!   both are appended alike, with plain stores: the owner writes a ring
//!   of its own, everyone else a shared one under the registry's writer
//!   lock.
//!
//! [`MetricsRegistry::snapshot`] is wait-free for writers; snapshots can be
//! [`diff`](MetricsSnapshot::diff)-ed (what happened between two points),
//! [`merge`](MetricsSnapshot::merge)-d (across ranks), and exported as CSV
//! or JSON. A rank has one registry, which its device and its VM both
//! record into.

#![forbid(unsafe_code)]

use std::fmt;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// A field-less enum whose variants carry a stable export name: the one
/// shape of [`Metric`], [`Hist`], [`EventKind`], [`SpanKind`],
/// [`TimeBucket`], [`EdgeKind`] and [`AnomalyKind`]. The discriminant is
/// the position in the declaration, which is also the export order.
macro_rules! named_enum {
    (
        $(#[$outer:meta])*
        enum $ty:ident: $repr:ident {
            $( $(#[$doc:meta])* $variant:ident => $name:literal ),+ $(,)?
        }
    ) => {
        $(#[$outer])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr($repr)]
        pub enum $ty {
            $( $(#[$doc])* $variant ),+
        }

        impl $ty {
            /// Number of variants.
            pub const COUNT: usize = [$($ty::$variant),+].len();
            /// Every variant, in declaration (= discriminant = export) order.
            pub const ALL: [$ty; Self::COUNT] = [$($ty::$variant),+];

            /// Stable export name (CSV column, JSON key, Perfetto slice).
            pub fn name(self) -> &'static str {
                match self {
                    $( $ty::$variant => $name ),+
                }
            }

            /// Inverse of the discriminant cast (unknown values: `None`).
            pub fn from_u64(v: u64) -> Option<$ty> {
                Self::ALL.get(v as usize).copied()
            }

            /// Inverse of [`Self::name`].
            pub fn from_name(name: &str) -> Option<$ty> {
                Self::ALL.into_iter().find(|k| k.name() == name)
            }
        }
    };
}

pub mod doctor;
pub mod export;
pub mod profile;
pub mod prom;
pub mod span;
pub mod spec;
pub mod telemetry;
pub mod trace;

pub use doctor::{
    classify, Anomaly, AnomalyKind, DoctorConfig, FlightRecord, InflightOp, INFLIGHT_NONE,
};
pub use export::{from_chrome_json, to_chrome_json};
pub use profile::{PhaseSnapshot, PhaseStats, TimeBucket, N_BUCKETS};
pub use prom::{check_prometheus_text, to_prometheus, to_prometheus_multi};
#[cfg(debug_assertions)]
pub use span::clock_reads;
pub use span::{expire_edge, span_arg_peer_tag, span_arg_unpack, SpanGuard, SpanKind};
pub use telemetry::{
    frame_prometheus, frames_from_json, frames_to_json, FrameRing, RankRecord, TelemetryFrame,
    DEFAULT_FRAME_CAPACITY,
};
pub use trace::{
    build_cluster_trace, ClusterTrace, EdgeKind, MessageEdge, TraceSpan, MSG_RNDV_FLAG,
};

/// Number of log2 buckets per histogram (covers the full u64 range).
pub const HIST_BUCKETS: usize = 64;

/// Default capacity of the event-trace ring.
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

named_enum! {
    /// Monotonic counter identifiers. `*Peak` entries are high-water marks
    /// (merged by `max`, bumped with [`MetricsRegistry::record_max`]).
    enum Metric: usize {
    // ---- channel layer (frames on the wire) ----
    /// Frames written to the link by `pump_out`.
    ChanFramesOut => "chan_frames_out",
    /// Payload bytes written to the link.
    ChanBytesOut => "chan_bytes_out",
    /// Frames fully received by `pump_in`.
    ChanFramesIn => "chan_frames_in",
    /// Payload bytes received from the link.
    ChanBytesIn => "chan_bytes_in",

    // ---- device layer (CH3-style protocol engine) ----
    /// Sends that took the eager path (payload rides the first frame).
    SendsEager => "sends_eager",
    /// Sends that took the rendezvous path (RTS/CTS handshake).
    SendsRndv => "sends_rndv",
    /// Synchronous-mode sends (eager-sync with explicit ack).
    SendsSync => "sends_sync",
    /// Loopback sends delivered without touching a link.
    SendsSelf => "sends_self",
    /// Receives that had to be queued on the posted queue.
    RecvsPosted => "recvs_posted",
    /// Receives satisfied from the unexpected queue.
    RecvsUnexpected => "recvs_unexpected",
    /// Envelope comparisons while matching posted/unexpected queues.
    MatchAttempts => "match_attempts",
    /// Rendezvous ready-to-send control packets received.
    RndvRtsIn => "rndv_rts_in",
    /// Rendezvous clear-to-send control packets received.
    RndvCtsIn => "rndv_cts_in",
    /// Rendezvous transfers fully completed.
    RndvDone => "rndv_done",
    /// Rendezvous transfers delivered by a single copy: the receiver
    /// pulled straight from the sender's exposed window (in-process
    /// links), so the payload never entered the link.
    RndvPulls => "rndv_pulls",
    /// High-water mark of the posted-receive queue.
    PostedQueuePeak => "posted_queue_peak",
    /// High-water mark of the unexpected-message queue.
    UnexpectedQueuePeak => "unexpected_queue_peak",
    /// Progress-engine pump invocations.
    ProgressPolls => "progress_polls",
    /// Requests completed by progress passes (eager matches, rendezvous
    /// completions, sync-acks) — the asynchronous progress engine's
    /// throughput gauge.
    ProgressOpsCompleted => "progress_ops_completed",
    /// Nanoseconds a dedicated progress-engine thread spent pumping this
    /// device — communication work done off the rank thread, i.e. the
    /// off-thread share of the `progress` time bucket.
    ProgressEngineNanos => "progress_engine_nanos",
    /// Links dropped after a transport failure (peer closed mid-stream);
    /// each drop fails every in-flight operation bound to that peer.
    LinksDropped => "links_dropped",

    // ---- comm layer (per-collective call counts) ----
    /// `barrier` calls.
    CollBarrier => "coll_barrier",
    /// `bcast` calls.
    CollBcast => "coll_bcast",
    /// `scatter` calls.
    CollScatter => "coll_scatter",
    /// `scatterv` calls.
    CollScatterv => "coll_scatterv",
    /// `gather` calls.
    CollGather => "coll_gather",
    /// `gatherv` calls.
    CollGatherv => "coll_gatherv",
    /// `allgather` calls.
    CollAllgather => "coll_allgather",
    /// `reduce` calls.
    CollReduce => "coll_reduce",
    /// `allreduce` calls.
    CollAllreduce => "coll_allreduce",
    /// `scan` calls.
    CollScan => "coll_scan",
    /// `alltoall` calls.
    CollAlltoall => "coll_alltoall",

    // ---- System.MP.OO (object-passing operations) ----
    /// `osend`/`osend_sub` calls.
    OompOsends => "oomp_osends",
    /// `orecv` calls.
    OompOrecvs => "oomp_orecvs",
    /// Object-graph collective calls (`obcast`/`oscatter`/`ogather`).
    OompCollectives => "oomp_collectives",

    // ---- serializer ----
    /// Object graphs serialized.
    SerOps => "ser_ops",
    /// Objects walked while serializing.
    SerObjects => "ser_objects",
    /// Wire bytes produced by the serializer.
    SerBytes => "ser_bytes",
    /// Visited-structure probes while serializing.
    SerVisitedProbes => "ser_visited_probes",
    /// Object graphs deserialized.
    DeserOps => "deser_ops",
    /// Wire bytes consumed by the deserializer.
    DeserBytes => "deser_bytes",

    // ---- transfer buffer pool ----
    /// Pool lookups.
    PoolGets => "pool_gets",
    /// Lookups satisfied by a buffer that already fit.
    PoolHits => "pool_hits",
    /// Lookups that reused a buffer but had to grow it.
    PoolPartialHits => "pool_partial_hits",
    /// Lookups that allocated fresh.
    PoolMisses => "pool_misses",
    /// Buffers returned to the pool.
    PoolPuts => "pool_puts",
    /// Buffers discarded by the GC-epoch trim.
    PoolTrimmed => "pool_trimmed",

    // ---- safepoint ----
    /// Safepoint polls that found a GC pending (the slow path).
    SafepointStalls => "safepoint_stalls",

    // ---- observability self-monitoring ----
    /// Trace-ring events overwritten before they could be snapshotted
    /// (computed at snapshot time from the ring cursor, so a truncated
    /// timeline is never mistaken for a complete one).
    TraceEventsDropped => "trace_events_dropped",
    /// In-flight op registrations dropped because the table was full.
    InflightOverflows => "inflight_overflows",

    // ---- continuous profiling (time buckets / overlap; synthesized
    // ---- from PhaseStats at snapshot time, see profile.rs) ----
    /// Wall clock spent computing (the default bucket).
    ProfComputeNanos => "prof_compute_nanos",
    /// Wall clock spent in blocking communication (ops, waits, probes,
    /// collectives, rendezvous).
    ProfCommWaitNanos => "prof_comm_wait_nanos",
    /// Wall clock spent driving explicit non-blocking progress
    /// (`test`/`iprobe`).
    ProfProgressNanos => "prof_progress_nanos",
    /// Wall clock spent in GC pauses and safepoint stalls.
    ProfGcNanos => "prof_gc_nanos",
    /// Wall clock spent (de)serializing object graphs.
    ProfSerializeNanos => "prof_serialize_nanos",
    /// Union of in-flight non-blocking op intervals.
    ProfInflightNanos => "prof_inflight_nanos",
    /// Portion of `prof_inflight_nanos` that overlapped computation.
    ProfOverlapNanos => "prof_overlap_nanos",

    // ---- static analysis (motor-analyze lint) ----
    /// Definite communication errors reported by the lint passes.
    LintDefinite => "lint_definite",
    /// Possible (imprecision-qualified) lint diagnostics reported.
    LintPossible => "lint_possible",

    // ---- GC and pinning (bumped by the collector, `MotorThread::pin*`
    // ---- and the pin policy) ----
    /// Minor collections.
    GcMinorCollections => "gc_minor_collections",
    /// Full collections.
    GcFullCollections => "gc_full_collections",
    /// Objects promoted young -> elder.
    GcObjectsPromoted => "gc_objects_promoted",
    /// Bytes promoted young -> elder.
    GcBytesPromoted => "gc_bytes_promoted",
    /// Pinned blocks promoted in place.
    GcPinnedBlockPromotions => "gc_pinned_block_promotions",
    /// Hard pins taken.
    GcPins => "gc_pins",
    /// Hard pins released.
    GcUnpins => "gc_unpins",
    /// Conditional pins registered (non-blocking ops).
    GcCondPinsRegistered => "gc_cond_pins_registered",
    /// Conditional pins still in flight when a GC resolved them.
    GcCondPinsHeld => "gc_cond_pins_held",
    /// Conditional pins found complete and discarded at mark.
    GcCondPinsReleased => "gc_cond_pins_released",
    /// Pins avoided because the buffer was elder.
    GcPinsAvoidedElder => "gc_pins_avoided_elder",
    /// Pins avoided by the fast-blocking-completion path.
    GcPinsAvoidedFastBlocking => "gc_pins_avoided_fast_blocking",
    /// Objects swept.
    GcObjectsSwept => "gc_objects_swept",
    /// Bytes swept.
    GcBytesSwept => "gc_bytes_swept",
    /// Pinned-set membership checks elided via never-transported proofs.
    GcPinChecksElided => "gc_pin_checks_elided",
    }
}

impl Metric {
    /// High-water marks merge by `max` instead of `+` and survive `diff`.
    pub fn is_peak(self) -> bool {
        matches!(self, Metric::PostedQueuePeak | Metric::UnexpectedQueuePeak)
    }

    /// The synthesized phase counter for each [`profile::TimeBucket`],
    /// in bucket order (see [`MetricsSnapshot::bucket_nanos`]).
    pub const BUCKET_METRICS: [Metric; profile::N_BUCKETS] = [
        Metric::ProfComputeNanos,
        Metric::ProfCommWaitNanos,
        Metric::ProfProgressNanos,
        Metric::ProfGcNanos,
        Metric::ProfSerializeNanos,
    ];
}

named_enum! {
    /// Log2-bucket histogram identifiers.
    enum Hist: usize {
    /// Payload size of eager-path sends (bytes).
    EagerSendBytes => "eager_send_bytes",
    /// Payload size of rendezvous-path sends (bytes).
    RndvSendBytes => "rndv_send_bytes",
    /// Blocking-wait latency at the device (nanoseconds).
    WaitNanos => "wait_nanos",
    /// Time a mutator stalled at a safepoint for GC (nanoseconds).
    SafepointStallNanos => "safepoint_stall_nanos",
    /// Serialized object-graph sizes (wire bytes per osend).
    SerializedGraphBytes => "serialized_graph_bytes",
    /// Requests completed per batched progress-engine poll (completion
    /// batching: CTS windows and eager frames drained together).
    ProgressBatch => "progress_batch",
    }
}

/// Bucket index for a value: 0 holds exactly 0, bucket 1 holds 1 and 2,
/// and bucket k ≥ 2 covers `(2^(k-1), 2^k]`.
pub fn log2_bucket(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - (value - 1).leading_zeros()) as usize).clamp(1, HIST_BUCKETS - 1)
    }
}

named_enum! {
    /// Kinds of entries in the event-trace ring. Every timed region is a
    /// [`span`] (one begin/end pair carrying its [`SpanKind`]); the other
    /// kinds are point events.
    enum EventKind: u64 {
        /// A [`span`] opened (`a` = span id, `b` = [`SpanKind`] as u64,
        /// `c` = kind-specific argument, usually [`span_arg_peer_tag`]).
        SpanBegin => "span_begin",
        /// A [`span`] closed (payload mirrors [`EventKind::SpanBegin`]; `c`
        /// is the argument as of the close, see [`SpanGuard::set_arg`]).
        SpanEnd => "span_end",
        /// Rendezvous RTS observed (`a` = send id, `b` = payload bytes,
        /// `c` = [`trace::rndv_ctl`]).
        RndvRts => "rndv_rts",
        /// Rendezvous CTS observed (payload as [`EventKind::RndvRts`]).
        RndvCts => "rndv_cts",
        /// Rendezvous transfer completed (payload as [`EventKind::RndvRts`]).
        RndvDone => "rndv_done",
        /// A point-to-point payload left this rank (`a` = destination global
        /// rank, `b` = tag as i64, `c` = payload bytes). Stamped when the send
        /// is initiated; the cross-rank trace matches it FIFO against the
        /// peer's [`EventKind::MsgRecv`] with the same `(src, dst, tag)`.
        MsgSend => "msg_send",
        /// A point-to-point receive completed (`a` = source global rank,
        /// `b` = tag as i64, `c` = bytes delivered).
        MsgRecv => "msg_recv",
        /// A buffer was pinned (`a` = object address, `b` = 1 if the pin is
        /// conditional — released by the collector when the transport
        /// finishes — 0 for a hard pin).
        PinAcquire => "pin_acquire",
        /// A hard pin was released (`a` = object address).
        PinRelease => "pin_release",
    }
}

/// One recorded trace entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Sequence number, unique per registry: 1-based and monotonic within
    /// the ring that held the event, with that ring in the low bit (0 the
    /// owner's, 1 the shared one; see [`MetricsRegistry`]).
    pub seq: u64,
    /// Nanoseconds since the registry's epoch (see
    /// [`MetricsRegistry::with_epoch`] for sharing epochs across ranks).
    pub t_nanos: u64,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific payload.
    pub a: u64,
    /// Kind-specific payload.
    pub b: u64,
    /// Kind-specific payload (third word; 0 for two-word events).
    pub c: u64,
}

/// Slot state while its writer writes the payload: readers skip it.
const SLOT_WRITING: u64 = u64::MAX;

/// One seqlock cell with one writer at a time: a slot of an event ring,
/// and of the in-flight table ([`doctor`]), which publishes a token where
/// a ring publishes a sequence number.
struct EventSlot {
    // 0 = empty, SLOT_WRITING = being written; otherwise the 1-based
    // sequence number within the ring, published last with Release so
    // readers that Acquire it see the payload stores.
    seq: AtomicU64,
    /// `t_nanos`, `kind`, `a`, `b`, `c`.
    words: [AtomicU64; 5],
}

impl EventSlot {
    fn empty() -> Self {
        EventSlot {
            seq: AtomicU64::new(0),
            words: Default::default(),
        }
    }

    /// Writer, step 1: invalidate the slot. The slot's one writer is the
    /// caller, so a store does; the fence orders it before the payload
    /// stores for a reader (the seqlock write side).
    fn invalidate(&self) {
        self.seq.store(SLOT_WRITING, Ordering::Relaxed);
        fence(Ordering::Release);
    }

    /// Writer, step 2: the payload.
    fn fill(&self, words: [u64; 5]) {
        for (slot, w) in self.words.iter().zip(words) {
            slot.store(w, Ordering::Relaxed);
        }
    }

    /// Writer, step 3: publish.
    fn publish(&self, seq: u64) {
        self.seq.store(seq, Ordering::Release);
    }

    /// Reader, step 1: the published sequence, if there is one.
    fn published(&self) -> Option<u64> {
        let seq = self.seq.load(Ordering::Acquire);
        (seq != 0 && seq != SLOT_WRITING).then_some(seq)
    }

    /// Reader, step 2: the payload as it stands.
    fn payload(&self) -> [u64; 5] {
        std::array::from_fn(|i| self.words[i].load(Ordering::Relaxed))
    }

    /// Reader, step 3: the acquire fence orders the payload loads before
    /// this re-check, so an unchanged sequence proves that no writer
    /// invalidated the slot while they ran.
    fn still(&self, seq: u64) -> bool {
        fence(Ordering::Acquire);
        self.seq.load(Ordering::Relaxed) == seq
    }

    /// The three reader steps: the slot's sequence and payload, unless it
    /// is empty, being written, or was overwritten while being read.
    fn read_words(&self) -> Option<(u64, [u64; 5])> {
        let seq = self.published()?;
        let words = self.payload();
        self.still(seq).then_some((seq, words))
    }

    /// The slot's event (sequence within its ring as stored).
    fn read(&self) -> Option<Event> {
        let (seq, [t_nanos, kind, a, b, c]) = self.read_words()?;
        Some(Event {
            seq,
            t_nanos,
            kind: EventKind::from_u64(kind)?,
            a,
            b,
            c,
        })
    }

    /// Empty the slot again, as its one writer (the in-flight table's
    /// release); the payload stays for that writer's successor.
    fn clear(&self) {
        self.seq.store(0, Ordering::Relaxed);
    }
}

/// The side of a registry a write goes to: the owner's cells and ring, or
/// everyone else's. Also the low bit of an [`Event::seq`].
const OWNER: usize = 0;
const SHARED: usize = 1;

/// An event's sequence number: `n`, 1-based within its ring, with the
/// ring in the low bit.
fn tagged_seq(n: u64, ring: usize) -> u64 {
    (n << 1) | ring as u64
}

/// Inverse of [`tagged_seq`]: `(n, ring)`.
fn untag_seq(seq: u64) -> (u64, usize) {
    (seq >> 1, (seq & 1) as usize)
}

/// One fixed-capacity event ring, overwritten on wrap, with one writer at
/// a time: the registry's owner, or the holder of its writer lock.
struct Ring {
    slots: Box<[EventSlot]>,
    /// Sequence numbers handed out: the events written to this ring.
    written: AtomicU64,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            slots: (0..capacity).map(|_| EventSlot::empty()).collect(),
            written: AtomicU64::new(0),
        }
    }

    fn slot(&self, seq: u64) -> &EventSlot {
        &self.slots[(seq - 1) as usize % self.slots.len()]
    }

    /// The next sequence number and its slot, for the ring's one writer of
    /// the moment, the caller: a plain load and store.
    fn next_owned_slot(&self) -> (u64, &EventSlot) {
        let seq = self.written.load(Ordering::Relaxed) + 1;
        self.written.store(seq, Ordering::Relaxed);
        (seq, self.slot(seq))
    }

    /// Append, as the ring's one writer of the moment: the sequence by a
    /// plain store, then invalidate, fill, publish (see
    /// [`MetricsRegistry::event3`]).
    fn append(&self, words: [u64; 5]) {
        let (seq, slot) = self.next_owned_slot();
        slot.invalidate();
        slot.fill(words);
        slot.publish(seq);
    }

    /// Every event the ring holds, oldest first, tagged with `ring`.
    fn events(&self, ring: usize) -> Vec<Event> {
        let mut events: Vec<Event> = self.slots.iter().filter_map(EventSlot::read).collect();
        events.sort_by_key(|e| e.seq);
        for e in &mut events {
            e.seq = tagged_seq(e.seq, ring);
        }
        events
    }
}

/// One side's counter and histogram cells.
struct Cells {
    counters: Box<[AtomicU64]>,
    hists: Box<[AtomicU64]>, // Hist::COUNT * HIST_BUCKETS, row-major
}

impl Cells {
    fn new() -> Cells {
        let zeroes = |n| (0..n).map(|_| AtomicU64::new(0)).collect();
        Cells {
            counters: zeroes(Metric::COUNT),
            hists: zeroes(Hist::COUNT * HIST_BUCKETS),
        }
    }
}

/// Add `n` to a cell: a plain load and store where the caller is its one
/// writer, a relaxed RMW where it is not.
#[inline]
fn add_to(cell: &AtomicU64, n: u64, owned: bool) {
    if owned {
        cell.store(cell.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    } else {
        cell.fetch_add(n, Ordering::Relaxed);
    }
}

/// Per-rank metrics: counters, histograms, event rings, and the live
/// in-flight op table scanned by `motor-doctor`.
///
/// # One owner, everyone else
///
/// A registry is written mostly by one thread, its rank's, and read by
/// others. That thread [claims](Self::claim) it and from then on writes
/// its own side without a lock: counters and histogram buckets by a plain
/// load and store, peaks by load/compare/store, events into an owner ring
/// by plain stores. Every other thread — a progress engine, a second
/// mutator, the simulator's driver, a test —
/// writes the shared side, exactly as an unclaimed registry is written:
/// counters and buckets by a relaxed RMW, peaks by a CAS loop, and events
/// into the shared ring under the registry's writer lock, appended as the
/// owner appends to its own. Readers take no lock: they add the two
/// sides' counters and buckets, take the larger of their peaks and merge
/// the two rings by time, so nothing a reader sees depends on which side
/// a write went to.
///
/// The in-flight table ([`Self::op_begin`]) has no sides: a registration
/// may end on another thread than the one that began it, so any thread
/// claims and releases a slot, by one bit each, and the slot's claimant
/// is its one writer (see [`doctor`]).
pub struct MetricsRegistry {
    /// `[OWNER, SHARED]`.
    cells: [Cells; 2],
    /// `[OWNER, SHARED]`, each allocated by its first event.
    rings: [OnceLock<Ring>; 2],
    /// Held by every writer of the shared ring around its append, so that
    /// ring too has one writer at a time. Neither the owner nor a reader
    /// takes it.
    shared_writer: Mutex<()>,
    ring_capacity: usize,
    epoch: Instant,
    /// What this rank is doing right now (see `doctor::InflightTable`).
    inflight: doctor::InflightTable,
    /// Time-bucket and overlap accounting (see [`profile::PhaseStats`]).
    /// Dormant (all transitions no-ops) until [`Self::profile_start`]. Its
    /// owner is this registry's.
    phases: profile::PhaseStats,
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("events_seen", &self.events_through().iter().sum::<u64>())
            .finish_non_exhaustive()
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Registry with the default event-ring capacity.
    pub fn new() -> Self {
        Self::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// Registry with an explicit event-ring capacity (rounded up to 1),
    /// per ring: the owner's and the shared one each hold `capacity`.
    ///
    /// A ring **overwrites on wrap**: once `capacity` events have been
    /// recorded in it, each new event replaces the oldest one. Snapshots
    /// return each ring's youngest `<= capacity` events, merged oldest
    /// first; counters and histograms are unaffected by the wrap.
    pub fn with_event_capacity(capacity: usize) -> Self {
        Self::with_epoch(Instant::now(), capacity)
    }

    /// Registry with an explicit time epoch and event-ring capacity.
    ///
    /// Every event timestamp is nanoseconds since `epoch`. Registries of
    /// ranks that share an address space should share one epoch so their
    /// event streams are directly comparable.
    pub fn with_epoch(epoch: Instant, capacity: usize) -> Self {
        MetricsRegistry {
            cells: [Cells::new(), Cells::new()],
            rings: [OnceLock::new(), OnceLock::new()],
            shared_writer: Mutex::new(()),
            ring_capacity: capacity.max(1),
            epoch,
            inflight: doctor::InflightTable::new(doctor::DEFAULT_INFLIGHT_CAPACITY),
            phases: profile::PhaseStats::new(),
        }
    }

    /// Make the calling thread this registry's owner (type docs): from
    /// now on its writes take the owner's side. Call it on the thread that
    /// does nearly all the writing — a rank's own — before that writing
    /// starts; a previous owner must be done writing by then, and writes
    /// the shared side from here on. [`Self::profile_start`] claims too.
    pub fn claim(&self) {
        self.phases.owner.claim();
    }

    /// The side the calling thread writes.
    #[inline]
    fn side(&self) -> usize {
        if self.phases.owner.is_caller() {
            OWNER
        } else {
            SHARED
        }
    }

    fn ring(&self, side: usize) -> &Ring {
        self.rings[side].get_or_init(|| Ring::new(self.ring_capacity))
    }

    /// Start this registry's time-bucket accounting: from now on every
    /// classified span open/close transitions the rank's phase, and
    /// [`Self::snapshot`] carries `prof_*` counters that partition the
    /// wall clock since this call. Call once per rank, on the rank's own
    /// thread, before the body runs (`run_cluster` and
    /// `spawn_motor_children` do, for every rank they start): it also
    /// [claims](Self::claim) the registry for that thread. Idempotent.
    pub fn profile_start(&self) {
        self.phases.start_at(self.now_nanos());
    }

    /// Enter a time bucket outside the span layer (e.g. collective
    /// wrappers, progress polls). The guard pops on drop; no ring events
    /// are written, so this is cheap enough for per-`test` polling.
    #[inline]
    pub fn phase_scope(&self, bucket: profile::TimeBucket) -> PhaseScope<'_> {
        PhaseScope {
            registry: self,
            pushed: self.phases.push_at(bucket, self.edge_nanos()),
        }
    }

    /// A non-blocking operation went in flight (overlap accounting), at
    /// the edge this thread is at or, failing one, now.
    #[inline]
    pub fn async_op_begin(&self) {
        self.phases.async_begin_at(self.edge_nanos());
    }

    /// A non-blocking operation completed (overlap accounting). A wait
    /// that closes a guard at the same instant uses the guard's
    /// `finish_async` instead and saves the reading.
    #[inline]
    pub fn async_op_end(&self) {
        self.phases.async_end_at(self.now_nanos());
    }

    /// Live time-bucket totals as of now (zeroes before
    /// [`Self::profile_start`]).
    pub fn phase_snapshot(&self) -> profile::PhaseSnapshot {
        self.phases.read_at(self.now_nanos())
    }

    /// Register an in-flight op in this registry's live table, entered at
    /// the edge this thread is at or, failing one, now; pair with
    /// [`Self::op_end`]. Spans do this themselves — the one direct caller
    /// is the registration that outlives a stack frame, an outstanding
    /// `Isend`/`Irecv` request.
    #[inline]
    pub fn op_begin(&self, kind: SpanKind, arg: u64) -> usize {
        self.inflight.begin(kind, arg, self.edge_nanos())
    }

    /// Deregister an in-flight op.
    #[inline]
    pub fn op_end(&self, slot: usize) {
        self.inflight.end(slot);
    }

    /// Record rank-wide progress without a specific op (the device's
    /// progress engine moved bytes). Counted, not timed.
    #[inline]
    pub fn note_progress(&self) {
        self.inflight.note_progress();
    }

    /// Wait-free copy of the live in-flight op table.
    pub fn inflight_ops(&self) -> Vec<doctor::InflightOp> {
        self.inflight.snapshot(self.now_nanos())
    }

    /// Registry clock at which a sign of life on this registry's table was
    /// last *observed* — by this call or an earlier one (0 if never). The
    /// writers only count: an observer that finds the count moved since
    /// the last observation dates it with its own reading, late by at most
    /// its interval, so a rank only ever looks more alive.
    pub fn last_progress_nanos(&self) -> u64 {
        self.inflight.last_beat_nanos(self.now_nanos())
    }

    /// Capacity of each event ring (events kept before overwrite-on-wrap).
    pub fn event_capacity(&self) -> usize {
        self.ring_capacity
    }

    /// Add 1 to a counter. No locks; on the owner's side no RMW either.
    #[inline]
    pub fn bump(&self, m: Metric) {
        self.add(m, 1);
    }

    /// Add `n` to a counter.
    #[inline]
    pub fn add(&self, m: Metric, n: u64) {
        let side = self.side();
        add_to(&self.cells[side].counters[m as usize], n, side == OWNER);
    }

    /// Raise a high-water mark to at least `v`: load/compare/store on the
    /// owner's side, a CAS max-loop on the shared one.
    #[inline]
    pub fn record_max(&self, m: Metric, v: u64) {
        let side = self.side();
        let c = &self.cells[side].counters[m as usize];
        let mut cur = c.load(Ordering::Relaxed);
        if side == OWNER {
            if cur < v {
                c.store(v, Ordering::Relaxed);
            }
            return;
        }
        while cur < v {
            match c.compare_exchange_weak(cur, v, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value of a counter: both sides added, or for a peak the
    /// larger of the two.
    #[inline]
    pub fn get(&self, m: Metric) -> u64 {
        let [o, s] = self
            .cells
            .each_ref()
            .map(|c| c.counters[m as usize].load(Ordering::Relaxed));
        if m.is_peak() {
            o.max(s)
        } else {
            o + s
        }
    }

    /// Record `value` into a histogram's log2 bucket.
    #[inline]
    pub fn record(&self, h: Hist, value: u64) {
        let side = self.side();
        let idx = (h as usize) * HIST_BUCKETS + log2_bucket(value);
        add_to(&self.cells[side].hists[idx], 1, side == OWNER);
    }

    /// Nanoseconds since this registry was created (event clock): a new
    /// clock reading.
    #[inline]
    pub fn now_nanos(&self) -> u64 {
        self.nanos_at(span::read_clock())
    }

    /// `at` on this registry's clock.
    #[inline]
    pub(crate) fn nanos_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// The reading of the span edge this thread is at (see [`span`]) on
    /// this registry's clock, or a new reading if it is at none.
    #[inline]
    pub fn edge_nanos(&self) -> u64 {
        self.nanos_at(span::edge().unwrap_or_else(span::read_clock))
    }

    /// [`Self::event3`] for an event that belongs to the instant its
    /// operation started (a send's initiation stamp, a conditional pin):
    /// stamped with [`Self::edge_nanos`].
    pub fn event_at_edge(&self, kind: EventKind, a: u64, b: u64, c: u64) {
        self.event_at(self.edge_nanos(), kind, a, b, c);
    }

    /// Append a two-word event to the trace ring (see [`Self::event3`]).
    #[inline]
    pub fn event(&self, kind: EventKind, a: u64, b: u64) {
        self.event3(kind, a, b, 0);
    }

    /// Append an event to the caller's ring; the oldest entry in the slot
    /// is overwritten (overwrite-on-wrap).
    ///
    /// Each ring has one writer at a time, and both are appended alike:
    /// the next sequence number by a plain store, then the seqlock write
    /// side — invalidate the slot, write the payload, publish the sequence
    /// with a release store. A reader that observes a stable published
    /// sequence around its payload loads (with an acquire fence in
    /// between) is guaranteed an untorn event.
    ///
    /// The owner's ring has one writer by construction, and the owner
    /// takes no lock. The shared ring gets one by the registry's writer
    /// lock, which every other writer holds around its append and no
    /// reader takes. Each ring therefore holds exactly its youngest
    /// `capacity` events, and `trace_events_dropped` (events written minus
    /// events held, per ring) counts what the wrap overwrote.
    pub fn event3(&self, kind: EventKind, a: u64, b: u64, c: u64) {
        self.event_at(self.now_nanos(), kind, a, b, c);
    }

    /// [`Self::event3`] stamped with a clock reading the caller already
    /// took ([`Self::now_nanos`]): a span edge shares one reading between
    /// the ring, the phase machine and the in-flight table, and a streamed
    /// sender stamps its `RndvDone` with the reading from before the write
    /// that completed it.
    pub fn event_at(&self, t_nanos: u64, kind: EventKind, a: u64, b: u64, c: u64) {
        let words = [t_nanos, kind as u64, a, b, c];
        let side = self.side();
        // The shared ring's writers take turns. Nothing panics while the
        // lock is held, so a poisoned one guards the ring all the same.
        let _turn = (side == SHARED)
            .then(|| (self.shared_writer.lock()).unwrap_or_else(PoisonError::into_inner));
        self.ring(side).append(words);
    }

    /// Events written to each ring so far, `[OWNER, SHARED]`.
    fn events_through(&self) -> [u64; 2] {
        std::array::from_fn(|side| {
            self.rings[side]
                .get()
                .map_or(0, |r| r.written.load(Ordering::Relaxed))
        })
    }

    /// Consistent-enough copy of everything. Wait-free for writers; events
    /// caught mid-write are skipped.
    pub fn snapshot(&self) -> MetricsSnapshot {
        // The rings first: `events_through` then covers every event drained.
        let [owned, shared] = std::array::from_fn(|side| {
            self.rings[side]
                .get()
                .map_or_else(Vec::new, |r| r.events(side))
        });
        MetricsSnapshot {
            events: merge_by_time(owned, shared),
            ..self.snapshot_counters()
        }
    }

    /// [`Self::snapshot`] without the event ring: counters and histograms
    /// only. What a collection tick takes — the ring is drained when a
    /// flight record is cut or the run exits.
    pub fn snapshot_counters(&self) -> MetricsSnapshot {
        let mut counters: Vec<u64> = Metric::ALL.iter().map(|&m| self.get(m)).collect();
        let [o, s] = &self.cells;
        let hists: Vec<u64> = (o.hists.iter().zip(s.hists.iter()))
            .map(|(o, s)| o.load(Ordering::Relaxed) + s.load(Ordering::Relaxed))
            .collect();
        let events_through = self.events_through();
        // Self-monitoring: events the wrap already overwrote, per ring, and
        // in-flight registrations the table had to drop. Derived here
        // rather than bumped on the hot path.
        counters[Metric::TraceEventsDropped as usize] = events_through
            .iter()
            .map(|n| n.saturating_sub(self.ring_capacity as u64))
            .sum();
        counters[Metric::InflightOverflows as usize] = self.inflight.overflows();
        // Time-bucket / overlap attribution: materialized from the phase
        // machine here (including the still-open segment) rather than
        // bumped on the hot path, so the buckets partition the wall clock
        // exactly up to this snapshot.
        let prof = self.phases.read_at(self.now_nanos());
        for (bucket, metric) in profile::TimeBucket::ALL.iter().zip(Metric::BUCKET_METRICS) {
            counters[metric as usize] = prof.bucket_nanos[*bucket as usize];
        }
        counters[Metric::ProfInflightNanos as usize] = prof.inflight_nanos;
        counters[Metric::ProfOverlapNanos as usize] = prof.overlap_nanos;
        MetricsSnapshot {
            counters,
            hists,
            events: Vec::new(),
            events_through,
        }
    }
}

/// Two rings' events, each oldest first, as one stream by time: each
/// ring's own order is kept, and of two events at the same instant the
/// owner's comes first.
fn merge_by_time(owned: Vec<Event>, shared: Vec<Event>) -> Vec<Event> {
    if shared.is_empty() {
        return owned;
    }
    let mut out = Vec::with_capacity(owned.len() + shared.len());
    let (mut o, mut s) = (owned.into_iter().peekable(), shared.into_iter().peekable());
    while let (Some(a), Some(b)) = (o.peek(), s.peek()) {
        out.extend(if a.t_nanos <= b.t_nanos {
            o.next()
        } else {
            s.next()
        });
    }
    out.extend(o.chain(s));
    out
}

/// An entered time bucket (see [`MetricsRegistry::phase_scope`]);
/// dropping it returns the rank to the enclosing bucket.
pub struct PhaseScope<'r> {
    registry: &'r MetricsRegistry,
    pushed: bool,
}

impl PhaseScope<'_> {
    /// Leave the bucket and, at the same instant, close the in-flight
    /// interval of the non-blocking operation completed inside it (see
    /// [`MetricsRegistry::async_op_end`]).
    pub fn finish_async(mut self) {
        self.close(true);
    }

    fn close(&mut self, async_done: bool) {
        if !self.pushed && !async_done {
            span::expire_edge();
            return;
        }
        let r = self.registry;
        let now = r.nanos_at(span::close_edge());
        if async_done {
            r.phases.async_end_at(now);
        }
        if std::mem::take(&mut self.pushed) {
            r.phases.pop_at(now);
        }
    }
}

impl Drop for PhaseScope<'_> {
    fn drop(&mut self) {
        self.close(false);
    }
}

/// Per-bucket view of one histogram inside a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// `buckets[k]` counts values in `(2^(k-1), 2^k]` for k ≥ 2; bucket 1
    /// counts 1 and 2, bucket 0 exactly 0.
    pub buckets: [u64; HIST_BUCKETS],
}

impl HistSnapshot {
    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Upper bound of the highest non-empty bucket (0 if empty).
    pub fn max_bound(&self) -> u64 {
        match self.buckets.iter().rposition(|&c| c > 0) {
            Some(0) | None => 0,
            Some(k) => 1u64 << k,
        }
    }

    /// Estimated p-quantile (`p` in `[0, 1]`) by linear interpolation
    /// inside the log2 bucket holding the quantile rank. Bucket 0 is
    /// exactly 0, bucket 1 spans `[1, 2]` and bucket k ≥ 2 spans
    /// `(2^(k-1), 2^k]`, so the estimate is within a factor of 2 of the
    /// true order statistic. Returns 0 on an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((p.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let before = cumulative;
            cumulative += c;
            if cumulative >= target {
                if k == 0 {
                    return 0;
                }
                let lo = if k == 1 { 1 } else { (1u64 << (k - 1)) + 1 };
                let hi = 1u64 << k;
                // Midpoint convention: the j-th of c values sits at
                // (j - 0.5) / c of the bucket span, so a lone value
                // estimates the bucket's middle, not its upper bound.
                let frac = ((target - before) as f64 - 0.5) / c as f64;
                return lo + ((hi - lo) as f64 * frac) as u64;
            }
        }
        self.max_bound()
    }

    /// Estimated sum of every recorded value (bucket-midpoint estimate,
    /// the same convention the Prometheus exporter uses for `_sum`).
    pub fn estimated_sum(&self) -> f64 {
        let mut sum = 0.0;
        for (k, &c) in self.buckets.iter().enumerate() {
            if c > 0 && k > 0 {
                let hi = (1u64 << k) as f64;
                sum += c as f64 * (hi / 2.0 + hi) / 2.0;
            }
        }
        sum
    }

    /// Median estimate (see [`Self::percentile`]).
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 99th-percentile estimate (see [`Self::percentile`]).
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }
}

/// Point-in-time copy of a [`MetricsRegistry`]; also the unit of
/// aggregation across ranks and layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: Vec<u64>,
    hists: Vec<u64>,
    events: Vec<Event>,
    /// Events written to each ring, `[OWNER, SHARED]`, as of the snapshot.
    events_through: [u64; 2],
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl MetricsSnapshot {
    /// An all-zero snapshot (identity for [`merge`](Self::merge)).
    pub fn empty() -> Self {
        MetricsSnapshot {
            counters: vec![0; Metric::COUNT],
            hists: vec![0; Hist::COUNT * HIST_BUCKETS],
            events: Vec::new(),
            events_through: [0; 2],
        }
    }

    /// Value of one counter.
    pub fn get(&self, m: Metric) -> u64 {
        self.counters.get(m as usize).copied().unwrap_or(0)
    }

    /// Per-bucket phase nanos carried by this snapshot, in
    /// [`profile::TimeBucket::ALL`] order. Zeroes unless the registry had
    /// [`MetricsRegistry::profile_start`] called.
    pub fn bucket_nanos(&self) -> [u64; profile::N_BUCKETS] {
        let mut out = [0u64; profile::N_BUCKETS];
        for (slot, m) in out.iter_mut().zip(Metric::BUCKET_METRICS) {
            *slot = self.get(m);
        }
        out
    }

    /// Comm/compute overlap ratio: the fraction of in-flight
    /// non-blocking-op time that coincided with computation. `None` when
    /// nothing was ever in flight.
    pub fn overlap_ratio(&self) -> Option<f64> {
        let inflight = self.get(Metric::ProfInflightNanos);
        if inflight == 0 {
            return None;
        }
        Some(self.get(Metric::ProfOverlapNanos) as f64 / inflight as f64)
    }

    /// Estimated p-quantile of one histogram (see
    /// [`HistSnapshot::percentile`]).
    pub fn percentile(&self, h: Hist, p: f64) -> u64 {
        self.hist(h).percentile(p)
    }

    /// View of one histogram.
    pub fn hist(&self, h: Hist) -> HistSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        let base = (h as usize) * HIST_BUCKETS;
        for (k, b) in buckets.iter_mut().enumerate() {
            *b = self.hists.get(base + k).copied().unwrap_or(0);
        }
        HistSnapshot { buckets }
    }

    /// Recorded trace events, oldest first.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// What happened between `earlier` and `self`: counters and histogram
    /// buckets subtract (saturating), peaks keep the later high-water mark,
    /// and only events newer than `earlier` survive.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = Self::empty();
        for m in Metric::ALL {
            let i = m as usize;
            out.counters[i] = if m.is_peak() {
                self.counters[i]
            } else {
                self.counters[i].saturating_sub(earlier.counters.get(i).copied().unwrap_or(0))
            };
        }
        for (i, slot) in out.hists.iter_mut().enumerate() {
            *slot = self.hists[i].saturating_sub(earlier.hists.get(i).copied().unwrap_or(0));
        }
        out.events = self
            .events
            .iter()
            .filter(|e| {
                let (n, ring) = untag_seq(e.seq);
                n > earlier.events_through[ring]
            })
            .copied()
            .collect();
        out.events_through = self.events_through;
        out
    }

    /// Fold `other` into `self`: counters and buckets add, peaks take the
    /// max, event streams concatenate (kept in per-source order).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for m in Metric::ALL {
            let i = m as usize;
            let o = other.counters.get(i).copied().unwrap_or(0);
            if m.is_peak() {
                self.counters[i] = self.counters[i].max(o);
            } else {
                self.counters[i] += o;
            }
        }
        for (i, slot) in self.hists.iter_mut().enumerate() {
            *slot += other.hists.get(i).copied().unwrap_or(0);
        }
        self.events.extend_from_slice(&other.events);
        for (mine, theirs) in self.events_through.iter_mut().zip(other.events_through) {
            *mine = (*mine).max(theirs);
        }
    }

    /// Header for [`csv_row`](Self::csv_row): `label`, every counter name,
    /// and `<hist>_count`/`<hist>_p50`/`<hist>_p99`/`<hist>_max` per
    /// histogram.
    pub fn csv_header() -> String {
        let mut cols = vec!["label".to_string()];
        cols.extend(Metric::ALL.iter().map(|m| m.name().to_string()));
        for h in Hist::ALL {
            cols.push(format!("{}_count", h.name()));
            cols.push(format!("{}_p50", h.name()));
            cols.push(format!("{}_p99", h.name()));
            cols.push(format!("{}_max", h.name()));
        }
        cols.join(",")
    }

    /// One wide CSV row under [`csv_header`](Self::csv_header).
    pub fn csv_row(&self, label: &str) -> String {
        let mut cols = vec![label.to_string()];
        cols.extend(Metric::ALL.iter().map(|m| self.get(*m).to_string()));
        for h in Hist::ALL {
            let hs = self.hist(h);
            cols.push(hs.count().to_string());
            cols.push(hs.p50().to_string());
            cols.push(hs.p99().to_string());
            cols.push(hs.max_bound().to_string());
        }
        cols.join(",")
    }

    /// The whole snapshot as a JSON object (counters, histogram buckets,
    /// events). Hand-rolled: values are all integers or names.
    pub fn to_json(&self) -> String {
        self.json(true)
    }

    /// [`Self::to_json`] without zero counters, empty histograms and
    /// events: what a delta frame carries. [`Self::from_json`] reads the
    /// zeroes back, so only the events are lost.
    pub fn to_json_sparse(&self) -> String {
        self.json(false)
    }

    fn json(&self, full: bool) -> String {
        let counters: Vec<String> = Metric::ALL
            .iter()
            .filter(|m| full || self.get(**m) > 0)
            .map(|m| format!("\"{}\":{}", m.name(), self.get(*m)))
            .collect();
        let hists: Vec<String> = Hist::ALL
            .iter()
            .map(|h| (h, self.hist(*h)))
            .filter(|(_, hs)| full || hs.count() > 0)
            .map(|(h, hs)| {
                let last = hs.buckets.iter().rposition(|&c| c > 0).map_or(0, |k| k + 1);
                let buckets: Vec<String> =
                    hs.buckets[..last].iter().map(|c| c.to_string()).collect();
                format!(
                    "\"{}\":{{\"buckets\":[{}],\"count\":{},\"p50\":{},\"p99\":{},\"max\":{}}}",
                    h.name(),
                    buckets.join(","),
                    hs.count(),
                    hs.p50(),
                    hs.p99(),
                    hs.max_bound()
                )
            })
            .collect();
        let events: &[Event] = if full { &self.events } else { &[] };
        let events: Vec<String> = events
            .iter()
            .map(|e| {
                format!(
                    "{{\"seq\":{},\"t_nanos\":{},\"kind\":\"{}\",\"a\":{},\"b\":{},\"c\":{}}}",
                    e.seq,
                    e.t_nanos,
                    e.kind.name(),
                    e.a,
                    e.b,
                    e.c
                )
            })
            .collect();
        format!(
            "{{\"counters\":{{{}}},\"hists\":{{{}}},\"events_through\":[{},{}],\"events\":[{}]}}",
            counters.join(","),
            hists.join(","),
            self.events_through[OWNER],
            self.events_through[SHARED],
            events.join(",")
        )
    }

    /// Read back either JSON form. Absent counters and histograms are
    /// zero; a name this build does not know is an error, so a writer and
    /// a reader that disagree are found out. Numbers pass through `f64`:
    /// exact below 2^53, which covers every count and nanosecond stamp.
    pub fn from_json(v: &export::json::Value) -> Result<MetricsSnapshot, String> {
        use export::json::Value;
        let members = |key: &str| match v.get(key) {
            Some(Value::Obj(m)) => Ok(m),
            _ => Err(format!("metrics: no {key:?} object")),
        };
        let mut out = Self::empty();
        for (name, x) in members("counters")? {
            let m = Metric::from_name(name);
            let m = m.ok_or_else(|| format!("metrics: unknown counter {name:?}"))?;
            out.counters[m as usize] = x.as_u64().ok_or_else(|| format!("bad {name:?}"))?;
        }
        for (name, x) in members("hists")? {
            let h = Hist::from_name(name);
            let h = h.ok_or_else(|| format!("metrics: unknown histogram {name:?}"))?;
            let buckets = x.get("buckets").and_then(Value::as_array);
            let buckets = buckets.ok_or_else(|| format!("{name:?}: no buckets"))?;
            let row = &mut out.hists[h as usize * HIST_BUCKETS..][..HIST_BUCKETS];
            for (slot, b) in row.iter_mut().zip(buckets) {
                *slot = b.as_u64().ok_or_else(|| format!("{name:?}: bad bucket"))?;
            }
        }
        let through = v.get("events_through").and_then(Value::as_array);
        let through = through.ok_or("metrics: no events_through array")?;
        let through: Option<Vec<u64>> = through.iter().map(Value::as_u64).collect();
        out.events_through = through
            .and_then(|t| t.try_into().ok())
            .ok_or("metrics: events_through is not two counts")?;
        let events = v.get("events").and_then(Value::as_array);
        for e in events.ok_or("metrics: no events array")? {
            let kind = e.get("kind").and_then(Value::as_str).unwrap_or("");
            out.events.push(Event {
                seq: e.u64_at("seq")?,
                t_nanos: e.u64_at("t_nanos")?,
                kind: EventKind::from_name(kind)
                    .ok_or_else(|| format!("metrics: unknown event kind {kind:?}"))?,
                a: e.u64_at("a")?,
                b: e.u64_at("b")?,
                c: e.u64_at("c")?,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn log2_bucket_boundaries() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 1);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 2);
        assert_eq!(log2_bucket(5), 3);
        assert_eq!(log2_bucket(1024), 10);
        assert_eq!(log2_bucket(1025), 11);
        assert_eq!(log2_bucket(u64::MAX), 63);
    }

    #[test]
    fn counters_and_peaks() {
        let r = MetricsRegistry::new();
        r.bump(Metric::SendsEager);
        r.add(Metric::SendsEager, 4);
        r.record_max(Metric::PostedQueuePeak, 3);
        r.record_max(Metric::PostedQueuePeak, 2);
        let s = r.snapshot();
        assert_eq!(s.get(Metric::SendsEager), 5);
        assert_eq!(s.get(Metric::PostedQueuePeak), 3);
    }

    #[test]
    fn diff_subtracts_counters_but_keeps_peaks() {
        let r = MetricsRegistry::new();
        r.add(Metric::ChanBytesOut, 100);
        r.record_max(Metric::UnexpectedQueuePeak, 7);
        let a = r.snapshot();
        r.add(Metric::ChanBytesOut, 50);
        r.event(EventKind::RndvRts, 1, 2);
        let b = r.snapshot();
        let d = b.diff(&a);
        assert_eq!(d.get(Metric::ChanBytesOut), 50);
        assert_eq!(d.get(Metric::UnexpectedQueuePeak), 7);
        assert_eq!(d.events().len(), 1);
        assert_eq!(d.events()[0].kind, EventKind::RndvRts);
    }

    #[test]
    fn merge_adds_and_maxes() {
        let r1 = MetricsRegistry::new();
        let r2 = MetricsRegistry::new();
        r1.add(Metric::SendsRndv, 2);
        r1.record_max(Metric::PostedQueuePeak, 4);
        r2.add(Metric::SendsRndv, 3);
        r2.record_max(Metric::PostedQueuePeak, 9);
        r1.record(Hist::EagerSendBytes, 100);
        r2.record(Hist::EagerSendBytes, 100);
        let mut m = r1.snapshot();
        m.merge(&r2.snapshot());
        assert_eq!(m.get(Metric::SendsRndv), 5);
        assert_eq!(m.get(Metric::PostedQueuePeak), 9);
        assert_eq!(m.hist(Hist::EagerSendBytes).count(), 2);
    }

    #[test]
    fn event_ring_overwrites_oldest() {
        let r = MetricsRegistry::with_event_capacity(4);
        for i in 0..10u64 {
            r.event(EventKind::MsgSend, i, 0);
        }
        let s = r.snapshot();
        let seqs: Vec<(u64, usize)> = s.events().iter().map(|e| untag_seq(e.seq)).collect();
        assert_eq!(seqs, [7, 8, 9, 10].map(|n| (n, SHARED)));
        assert!(s.events().iter().all(|e| e.kind == EventKind::MsgSend));
        // Payloads are the newest four writes, oldest first.
        let payloads: Vec<u64> = s.events().iter().map(|e| e.a).collect();
        assert_eq!(payloads, vec![6, 7, 8, 9]);
    }

    #[test]
    fn wrapped_ring_events_stay_ordered_and_capacity_bounded() {
        let r = MetricsRegistry::with_event_capacity(8);
        for i in 0..1000u64 {
            r.event3(EventKind::MsgSend, i, i * 2, i * 3);
        }
        let s = r.snapshot();
        assert_eq!(s.events().len(), r.event_capacity());
        // Seqs strictly increase (oldest-first) and timestamps never run
        // backwards: the snapshot is a coherent suffix of the stream.
        for w in s.events().windows(2) {
            assert_eq!(untag_seq(w[1].seq).0, untag_seq(w[0].seq).0 + 1);
            assert!(w[1].t_nanos >= w[0].t_nanos);
        }
        for e in s.events() {
            assert_eq!(e.b, e.a * 2);
            assert_eq!(e.c, e.a * 3);
        }
    }

    #[test]
    fn concurrent_event_writers_never_tear() {
        // Writers stamp each event with `b = !a` and `c = a ^ SALT`; any
        // snapshot mixing words from two different writes would break the
        // invariants. Readers run concurrently against the wrapping ring,
        // which is exactly when the seqlock has to reject in-flight slots.
        const SALT: u64 = 0x9e37_79b9_7f4a_7c15;
        let r = Arc::new(MetricsRegistry::with_event_capacity(16));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..4u64)
            .map(|w| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..20_000u64 {
                        let a = (w << 32) | i;
                        r.event3(EventKind::MsgSend, a, !a, a ^ SALT);
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let r = Arc::clone(&r);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut seen = 0usize;
                    // Check `stop` after the pass, so a reader first
                    // scheduled once the writers are done still reads.
                    loop {
                        let done = stop.load(Ordering::Relaxed);
                        let s = r.snapshot();
                        for e in s.events() {
                            assert_eq!(e.kind, EventKind::MsgSend);
                            assert_eq!(e.b, !e.a, "torn event payload");
                            assert_eq!(e.c, e.a ^ SALT, "torn event payload");
                            seen += 1;
                        }
                        // Seqs must be strictly increasing within one
                        // snapshot even while writers race the cursor.
                        for w in s.events().windows(2) {
                            assert!(w[1].seq > w[0].seq);
                        }
                        if done {
                            return seen;
                        }
                    }
                })
            })
            .collect();
        for t in writers {
            t.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for t in readers {
            assert!(t.join().unwrap() > 0);
        }
        // After the dust settles the ring holds the stream's last slots.
        assert_eq!(r.snapshot().events().len(), r.event_capacity());
    }

    const SALT: u64 = 0x9e37_79b9_7f4a_7c15;

    /// An event whose words all follow from `a`: a mix of two writes shows.
    fn stamped(r: &MetricsRegistry, a: u64) {
        r.event_at(a, EventKind::MsgSend, a, !a, a ^ SALT);
    }

    fn assert_untorn(e: &Event) {
        assert_eq!(e.kind, EventKind::MsgSend);
        assert_eq!(
            (e.t_nanos, e.b, e.c),
            (e.a, !e.a, e.a ^ SALT),
            "torn: {e:?}"
        );
    }

    /// Once every writer is done: every slot holds one untorn event, no
    /// sequence number twice, and every event written to the shared ring
    /// is either held or counted as dropped, overwritten by the wrap.
    fn assert_ring_accounts_for_every_event(r: &MetricsRegistry, written: u64) {
        assert_rings_account_for_every_event(r, [0, written]);
    }

    /// [`assert_ring_accounts_for_every_event`] for both rings, `written`
    /// being `[OWNER, SHARED]`: each ring holds its youngest events in
    /// order, and the drop count is exact for each.
    fn assert_rings_account_for_every_event(r: &MetricsRegistry, written: [u64; 2]) {
        let s = r.snapshot();
        s.events().iter().for_each(assert_untorn);
        let cap = r.event_capacity() as u64;
        for (ring, written) in written.into_iter().enumerate() {
            let seqs: Vec<u64> = (s.events().iter().map(|e| untag_seq(e.seq)))
                .filter_map(|(n, of)| (of == ring).then_some(n))
                .collect();
            assert!(
                seqs.windows(2).all(|w| w[0] < w[1]),
                "ring {ring}: {seqs:?}"
            );
            assert_eq!(seqs.len() as u64, written.min(cap), "ring {ring}");
        }
        let held = s.events().len() as u64;
        let dropped: u64 = written.iter().map(|w| w.saturating_sub(cap)).sum();
        assert_eq!(s.get(Metric::TraceEventsDropped), dropped);
        assert_eq!(dropped + held, written.iter().sum::<u64>());
    }

    /// Where the second thread gets its turn among the first one's steps:
    /// run to completion there, or start there and race what follows.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub(crate) enum Cut {
        Gate,
        Race,
    }

    fn turn_at(turn: &motor_pal::interleave::Turn, cut: Cut) {
        match cut {
            Cut::Gate => turn.gate(),
            Cut::Race => turn.release(),
        }
    }

    /// A shared-ring append cut into its steps — take the writer lock and
    /// the sequence number, invalidate the slot, write the payload, publish
    /// and unlock — with a second non-owner thread arriving before each
    /// step: it reads, then wraps the ring onto the first writer's slot. At
    /// steps 1 to 3 the first writer holds the lock and, once the reader
    /// has looked, gives the second writer a moment in which it would
    /// finish if nothing held it back. In every order the ring ends holding
    /// exactly its youngest events, each over its own writer's payload.
    #[test]
    fn a_second_writer_arriving_mid_append_waits_and_the_ring_keeps_the_youngest() {
        use motor_pal::interleave::two_threads;
        use std::sync::mpsc;
        use std::time::Duration;
        const CAP: u64 = 2;
        const WRITTEN: u64 = 2 * CAP + 1;
        let rounds = if cfg!(miri) { 2 } else { 100 };
        for (at, cut) in (0..=4)
            .flat_map(|at| [(at, Cut::Gate), (at, Cut::Race)])
            .cycle()
            .take(10 * rounds)
        {
            let r = MetricsRegistry::with_event_capacity(CAP as usize);
            (0..CAP).for_each(|a| stamped(&r, a));
            let (looked, has_looked) = mpsc::channel();
            let (finished, has_finished) = mpsc::channel();
            let r = &r;
            let (first_seq, seen) = two_threads(
                |turn| {
                    let mut step = 0..;
                    let mut here = || {
                        if step.next() == Some(at) {
                            turn.release();
                            if cut == Cut::Gate {
                                has_looked.recv().unwrap();
                                let _ = has_finished.recv_timeout(Duration::from_millis(2));
                            }
                        }
                    };
                    here();
                    let one_writer = r.shared_writer.lock().unwrap();
                    let (seq, slot) = r.ring(SHARED).next_owned_slot();
                    here();
                    slot.invalidate();
                    here();
                    let a = 1000 + seq;
                    slot.fill([a, EventKind::MsgSend as u64, a, !a, a ^ SALT]);
                    here();
                    slot.publish(seq);
                    drop(one_writer);
                    here();
                    seq
                },
                move || {
                    let seen = r.snapshot();
                    looked.send(()).unwrap();
                    (0..CAP).for_each(|a| stamped(r, 500 + a));
                    let _ = finished.send(());
                    seen
                },
            );
            assert_ring_accounts_for_every_event(r, WRITTEN);
            let held: Vec<u64> = (r.snapshot().events().iter())
                .map(|e| untag_seq(e.seq).0)
                .collect();
            let youngest: Vec<u64> = (WRITTEN - CAP + 1..=WRITTEN).collect();
            assert_eq!(held, youngest, "turn at step {at}, {cut:?}");
            // A sequence number is published over its own writer's payload.
            for e in seen.events().iter().chain(r.snapshot().events()) {
                assert_untorn(e);
                assert_eq!(untag_seq(e.seq).0 == first_seq, e.a >= 1000, "{e:?}");
            }
            if cut == Cut::Gate {
                // Forced orders have one outcome. Turn before the lock: the
                // second writer wrote first. Turn between invalidation and
                // publication: the reader skipped the slot being written.
                let expected = if at == 0 { WRITTEN } else { CAP + 1 };
                assert_eq!(first_seq, expected, "turn at step {at}");
                let mid_write = (2..=3).contains(&at);
                assert_eq!(seen.events().len() as u64, CAP - u64::from(mid_write));
            }
        }
    }

    /// A reader cut into its three steps — see a published sequence, load
    /// the payload, re-check — against a writer that overwrites the slot,
    /// placed before each step. What the reader accepts is one writer's
    /// event; an overwrite between the first and the last step is refused.
    #[test]
    fn a_reader_never_accepts_a_slot_overwritten_under_it() {
        use motor_pal::interleave::two_threads;
        const CAP: u64 = 2;
        let rounds = if cfg!(miri) { 2 } else { 100 };
        for (at, cut) in (0..=3)
            .flat_map(|at| [(at, Cut::Gate), (at, Cut::Race)])
            .cycle()
            .take(8 * rounds)
        {
            let r = MetricsRegistry::with_event_capacity(CAP as usize);
            (0..CAP).for_each(|a| stamped(&r, a));
            let (accepted, ()) = two_threads(
                |turn| {
                    let mut step = 0..;
                    let mut here = || {
                        if step.next() == Some(at) {
                            turn_at(turn, cut);
                        }
                    };
                    let slot = &r.ring(SHARED).slots[0];
                    here();
                    let seq = slot.published().expect("the ring is full");
                    here();
                    let [t_nanos, _, a, b, c] = slot.payload();
                    here();
                    let accepted = slot.still(seq);
                    here();
                    accepted.then_some((seq, [t_nanos, a, b, c]))
                },
                || (0..CAP).for_each(|a| stamped(&r, 500 + a)),
            );
            if let Some((seq, [t_nanos, a, b, c])) = accepted {
                assert_eq!((t_nanos, b, c), (a, !a, a ^ SALT), "torn");
                assert_eq!(
                    a,
                    if seq == 1 { 0 } else { 500 },
                    "payload of another write"
                );
            }
            if cut == Cut::Gate {
                assert_eq!(accepted.is_some(), at == 0 || at == 3, "turn at step {at}");
            }
            assert_ring_accounts_for_every_event(&r, 2 * CAP);
        }
    }

    /// The owner's plain increment cut into its two steps — load, store —
    /// against a second thread's increments of the same counter, placed
    /// before, between and after them: the shape in which one cell would
    /// lose an increment. The two sides' cells add up to every increment.
    #[test]
    fn owner_increments_and_a_second_writers_rmw_lose_nothing() {
        use motor_pal::interleave::two_threads;
        const M: Metric = Metric::MatchAttempts;
        let rounds = if cfg!(miri) { 2 } else { 100 };
        for (at, cut) in (0..=2)
            .flat_map(|at| [(at, Cut::Gate), (at, Cut::Race)])
            .cycle()
            .take(6 * rounds)
        {
            let r = MetricsRegistry::new();
            r.claim();
            r.bump(M);
            two_threads(
                |turn| {
                    let mut step = 0..;
                    let mut here = || {
                        if step.next() == Some(at) {
                            turn_at(turn, cut);
                        }
                    };
                    here();
                    let cell = &r.cells[OWNER].counters[M as usize];
                    let v = cell.load(Ordering::Relaxed);
                    here();
                    cell.store(v + 2, Ordering::Relaxed);
                    here();
                    r.add(M, 3);
                },
                || {
                    r.bump(M);
                    r.add(M, 10);
                },
            );
            assert_eq!(r.get(M), 1 + 2 + 3 + 11, "turn at step {at}, {cut:?}");
            assert_eq!(r.snapshot().get(M), 17);
            assert_eq!(
                r.cells[SHARED].counters[M as usize].load(Ordering::Relaxed),
                11
            );
        }
    }

    /// The owner's load/compare/store of a peak cut into its steps against
    /// a second thread's CAS raise of the same peak (and a histogram bucket
    /// on both sides): a peak snapshots as the larger of the two sides,
    /// never their sum; buckets add.
    #[test]
    fn a_peak_raised_on_both_sides_snapshots_as_the_max() {
        use motor_pal::interleave::two_threads;
        const M: Metric = Metric::UnexpectedQueuePeak;
        let rounds = if cfg!(miri) { 2 } else { 100 };
        for (at, cut) in (0..=2)
            .flat_map(|at| [(at, Cut::Gate), (at, Cut::Race)])
            .cycle()
            .take(6 * rounds)
        {
            let r = MetricsRegistry::new();
            r.claim();
            let ((), there) = two_threads(
                |turn| {
                    let mut step = 0..;
                    let mut here = || {
                        if step.next() == Some(at) {
                            turn_at(turn, cut);
                        }
                    };
                    here();
                    let cell = &r.cells[OWNER].counters[M as usize];
                    let cur = cell.load(Ordering::Relaxed);
                    here();
                    if cur < 5 {
                        cell.store(5, Ordering::Relaxed);
                    }
                    here();
                    r.record(Hist::WaitNanos, 100);
                },
                || {
                    r.record_max(M, 7);
                    r.record(Hist::WaitNanos, 100);
                    r.snapshot().get(M)
                },
            );
            assert!(there == 7, "turn at step {at}, {cut:?}: {there}");
            let s = r.snapshot();
            assert_eq!(s.get(M), 7, "max, not sum");
            assert_eq!(s.hist(Hist::WaitNanos).count(), 2);
            r.record_max(M, 9);
            r.record_max(M, 4);
            assert_eq!((r.get(M), r.snapshot().get(M)), (9, 9));
        }
    }

    /// The owner's ring write cut into its four steps — take the sequence,
    /// invalidate the slot, write the payload, publish — against a second
    /// thread that writes the shared ring and then reads both, placed
    /// before each step. The reader takes only whole events (the slot being
    /// overwritten is skipped, never torn), and once both are done each
    /// ring holds its youngest events and the drop count is exact per ring.
    #[test]
    fn a_reader_racing_the_owner_ring_never_sees_a_torn_event() {
        use motor_pal::interleave::two_threads;
        const CAP: u64 = 2;
        let rounds = if cfg!(miri) { 2 } else { 100 };
        for (at, cut) in (0..=4)
            .flat_map(|at| [(at, Cut::Gate), (at, Cut::Race)])
            .cycle()
            .take(10 * rounds)
        {
            let r = MetricsRegistry::with_event_capacity(CAP as usize);
            r.claim();
            (0..CAP).for_each(|a| stamped(&r, a));
            let ((), seen) = two_threads(
                |turn| {
                    let mut step = 0..;
                    let mut here = || {
                        if step.next() == Some(at) {
                            turn_at(turn, cut);
                        }
                    };
                    let ring = r.ring(OWNER);
                    here();
                    let (seq, slot) = ring.next_owned_slot();
                    here();
                    slot.invalidate();
                    here();
                    let a = 1000 + seq;
                    slot.fill([a, EventKind::MsgSend as u64, a, !a, a ^ SALT]);
                    here();
                    slot.publish(seq);
                    here();
                },
                || {
                    (0..3).for_each(|a| stamped(&r, 500 + a));
                    r.snapshot()
                },
            );
            for e in seen.events() {
                assert_untorn(e);
            }
            if cut == Cut::Gate {
                // Between invalidation and publication the slot is skipped;
                // otherwise it holds the old event or the new one, whole.
                let owned = seen.events().iter().filter(|e| e.a < 500 || e.a >= 1000);
                let mid_write = (2..=3).contains(&at);
                assert_eq!(
                    owned.count() as u64,
                    CAP - u64::from(mid_write),
                    "step {at}"
                );
            }
            assert_rings_account_for_every_event(&r, [CAP + 1, 3]);
        }
    }

    #[test]
    fn histogram_summary() {
        let r = MetricsRegistry::new();
        for v in [0u64, 1, 100, 70_000] {
            r.record(Hist::RndvSendBytes, v);
        }
        let h = r.snapshot().hist(Hist::RndvSendBytes);
        assert_eq!(h.count(), 4);
        assert_eq!(h.max_bound(), 131_072);
    }

    #[test]
    fn concurrent_bumps_are_not_lost() {
        let r = Arc::new(MetricsRegistry::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        r.bump(Metric::MatchAttempts);
                        if i % 64 == 0 {
                            r.event(EventKind::MsgRecv, i, 0);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.snapshot().get(Metric::MatchAttempts), 40_000);
    }

    #[test]
    fn csv_and_json_are_well_formed() {
        let r = MetricsRegistry::new();
        r.bump(Metric::CollBarrier);
        r.record(Hist::WaitNanos, 1500);
        r.event(EventKind::PinAcquire, 12, 0);
        let s = r.snapshot();
        let header = MetricsSnapshot::csv_header();
        let row = s.csv_row("rank0");
        assert_eq!(header.split(',').count(), row.split(',').count());
        assert!(header.starts_with("label,"));
        assert!(row.starts_with("rank0,"));
        let json = s.to_json();
        assert!(json.contains("\"coll_barrier\":1"));
        assert!(json.contains("\"kind\":\"pin_acquire\""));
    }

    #[test]
    fn event_kinds_decode_by_discriminant() {
        for (i, k) in EventKind::ALL.into_iter().enumerate() {
            assert_eq!(k as usize, i, "{} out of order in ALL", k.name());
            assert_eq!(EventKind::from_u64(i as u64), Some(k));
        }
        assert_eq!(EventKind::from_u64(EventKind::ALL.len() as u64), None);
    }

    #[test]
    fn diff_underflow_on_restarted_registry_saturates() {
        // A "later" snapshot from a restarted (fresh) registry reads lower
        // than the earlier one; diff must clamp at zero, not wrap.
        let old = MetricsRegistry::new();
        old.add(Metric::ChanBytesOut, 500);
        old.record(Hist::EagerSendBytes, 64);
        let earlier = old.snapshot();
        let restarted = MetricsRegistry::new();
        restarted.add(Metric::ChanBytesOut, 20);
        let d = restarted.snapshot().diff(&earlier);
        assert_eq!(d.get(Metric::ChanBytesOut), 0);
        assert_eq!(d.hist(Hist::EagerSendBytes).count(), 0);
    }

    #[test]
    fn merge_device_and_vm_side_registries() {
        // Two registries: one carries queue peaks, the other safepoint
        // data. The merge must add counters, max the peaks, and preserve
        // both event streams.
        let device = MetricsRegistry::new();
        device.add(Metric::SendsEager, 3);
        device.record_max(Metric::PostedQueuePeak, 5);
        device.event(EventKind::MsgSend, 1, 0);
        let vm = MetricsRegistry::new();
        vm.add(Metric::SafepointStalls, 2);
        vm.record_max(Metric::PostedQueuePeak, 1);
        vm.event(EventKind::PinAcquire, 9, 0);
        let mut merged = device.snapshot();
        merged.merge(&vm.snapshot());
        assert_eq!(merged.get(Metric::SendsEager), 3);
        assert_eq!(merged.get(Metric::SafepointStalls), 2);
        assert_eq!(merged.get(Metric::PostedQueuePeak), 5, "peaks max, not add");
        assert_eq!(merged.events().len(), 2);
    }

    #[test]
    fn merge_peaks_by_max_survives_diff_and_empty_identity() {
        let r1 = MetricsRegistry::new();
        r1.record_max(Metric::UnexpectedQueuePeak, 9);
        let r2 = MetricsRegistry::new();
        r2.record_max(Metric::UnexpectedQueuePeak, 4);
        let mut m = MetricsSnapshot::empty();
        m.merge(&r1.snapshot());
        m.merge(&r2.snapshot());
        assert_eq!(m.get(Metric::UnexpectedQueuePeak), 9);
        // diff against a snapshot with a *higher* earlier peak still keeps
        // the later high-water mark (peaks are levels, not rates).
        let d = r2.snapshot().diff(&r1.snapshot());
        assert_eq!(d.get(Metric::UnexpectedQueuePeak), 4);
    }

    #[test]
    fn dropped_ring_events_are_counted() {
        let r = MetricsRegistry::with_event_capacity(4);
        for i in 0..10u64 {
            r.event(EventKind::MsgSend, i, 0);
        }
        let s = r.snapshot();
        assert_eq!(s.get(Metric::TraceEventsDropped), 6);
        assert_eq!(s.events().len(), 4);
        // A ring that never wrapped reports zero.
        let quiet = MetricsRegistry::with_event_capacity(64);
        quiet.event(EventKind::MsgSend, 1, 0);
        assert_eq!(quiet.snapshot().get(Metric::TraceEventsDropped), 0);
    }

    #[test]
    fn percentile_interpolates_log2_buckets() {
        let r = MetricsRegistry::new();
        for _ in 0..50 {
            r.record(Hist::WaitNanos, 100); // bucket 7: (64, 128]
        }
        for _ in 0..50 {
            r.record(Hist::WaitNanos, 1000); // bucket 10: (512, 1024]
        }
        let h = r.snapshot().hist(Hist::WaitNanos);
        let p50 = h.p50();
        assert!((65..=128).contains(&p50), "p50 = {p50}");
        let p99 = h.p99();
        assert!((513..=1024).contains(&p99), "p99 = {p99}");
        assert!(h.percentile(0.25) <= p50);
        // Degenerate cases.
        assert_eq!(
            HistSnapshot {
                buckets: [0; HIST_BUCKETS]
            }
            .p50(),
            0
        );
        let zeros = MetricsRegistry::new();
        zeros.record(Hist::WaitNanos, 0);
        assert_eq!(zeros.snapshot().hist(Hist::WaitNanos).p99(), 0);
        let ones = MetricsRegistry::new();
        ones.record(Hist::WaitNanos, 1);
        assert_eq!(ones.snapshot().percentile(Hist::WaitNanos, 0.5), 1);
    }

    #[test]
    fn percentile_edge_cases() {
        // Empty histogram: every quantile is 0, including the extremes
        // and out-of-range p values (clamped, not panicking).
        let empty = HistSnapshot {
            buckets: [0; HIST_BUCKETS],
        };
        for p in [0.0, 0.5, 1.0, -3.0, 42.0] {
            assert_eq!(empty.percentile(p), 0, "empty hist, p = {p}");
        }
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.max_bound(), 0);

        // Single occupied bucket: every quantile lands inside that
        // bucket's span, and p=0/p=1 don't escape it.
        let r = MetricsRegistry::new();
        for _ in 0..7 {
            r.record(Hist::WaitNanos, 100); // bucket 7: (64, 128]
        }
        let h = r.snapshot().hist(Hist::WaitNanos);
        for p in [0.0, 0.01, 0.5, 0.99, 1.0] {
            let v = h.percentile(p);
            assert!((65..=128).contains(&v), "single bucket, p = {p}, v = {v}");
        }
        assert_eq!(h.max_bound(), 128);

        // Saturated top bucket: values beyond 2^(HIST_BUCKETS-1) clamp
        // into the last bucket; the interpolation must not overflow and
        // the estimate stays within the bucket's (huge) span.
        assert_eq!(log2_bucket(u64::MAX), HIST_BUCKETS - 1);
        let r = MetricsRegistry::new();
        r.record(Hist::WaitNanos, u64::MAX);
        r.record(Hist::WaitNanos, u64::MAX - 1);
        let h = r.snapshot().hist(Hist::WaitNanos);
        let top_lo = (1u64 << (HIST_BUCKETS - 2)) + 1;
        let top_hi = 1u64 << (HIST_BUCKETS - 1);
        for p in [0.5, 0.99, 1.0] {
            let v = h.percentile(p);
            assert!(
                (top_lo..=top_hi).contains(&v),
                "saturated bucket, p = {p}, v = {v}"
            );
        }
        assert_eq!(h.max_bound(), top_hi);

        // Mixed: a zero plus a saturated value — p0 pins to bucket 0,
        // p100 to the top bucket.
        let r = MetricsRegistry::new();
        r.record(Hist::WaitNanos, 0);
        r.record(Hist::WaitNanos, u64::MAX);
        let h = r.snapshot().hist(Hist::WaitNanos);
        assert_eq!(h.percentile(0.0), 0);
        assert!(h.percentile(1.0) >= top_lo);
    }

    #[test]
    fn csv_and_json_carry_percentiles() {
        let r = MetricsRegistry::new();
        for _ in 0..10 {
            r.record(Hist::WaitNanos, 100);
        }
        let header = MetricsSnapshot::csv_header();
        assert!(header.contains("wait_nanos_p50"));
        assert!(header.contains("wait_nanos_p99"));
        let s = r.snapshot();
        assert_eq!(header.split(',').count(), s.csv_row("x").split(',').count());
        let json = s.to_json();
        assert!(json.contains("\"p50\":"));
        assert!(json.contains("\"p99\":"));
        export::json::parse(&json).expect("snapshot JSON parses");
    }

    #[test]
    fn spans_register_in_the_inflight_table() {
        let r = MetricsRegistry::new();
        assert!(r.inflight_ops().is_empty());
        {
            let g = r.span(span::SpanKind::MpRecv, span::span_arg_peer_tag(3, 7));
            let ops = r.inflight_ops();
            assert_eq!(ops.len(), 1);
            assert_eq!(ops[0].kind, span::SpanKind::MpRecv);
            assert_eq!(ops[0].peer_tag(), (3, 7));
            assert_eq!(r.last_progress_nanos(), 0);
            g.heartbeat();
            assert_eq!(r.inflight_ops()[0].beats, 1);
            assert!(r.last_progress_nanos() > 0);
        }
        assert!(r.inflight_ops().is_empty());
    }
}
