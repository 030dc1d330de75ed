//! Live health: the per-rank **in-flight op table**, anomaly
//! classification, and the **flight record**.
//!
//! The metrics registry and trace ring are passive — they answer "what
//! happened" after a run ends. A rank stuck in a blocking `Wait` with no
//! matching sender, a pin leaked past its transfer, or GC pressure
//! starving progress is invisible until then (or forever, if the run
//! never ends). This module is the active half:
//!
//! * The in-flight table ([`crate::MetricsRegistry::inflight_ops`]) — a
//!   lock-free slot table where every blocking
//!   `System.MP`/`System.MP.OO` operation, collective, and outstanding
//!   `Isend`/`Irecv` registers entry, heartbeats, and exit, so at any
//!   instant a rank can report *what am I doing, since when, waiting on
//!   whom*. A slot is claimed and released, from any thread, by one bit
//!   of an occupancy bitmap, and is one of the event ring's seqlock cells.
//! * [`classify`] — the watchdog's pure decision procedure: given one
//!   [`RankRecord`] per rank (a frame's: each the tick's observation
//!   since the previous one) it reports [`Anomaly`]s — *stall*, *deadlock
//!   suspect*, *pin leak*, *GC pressure*, *link drop*.
//! * [`FlightRecord`] — the crash-dump analog: anomalies + one
//!   [`RankRecord`] per rank with the event rings drained into their
//!   snapshots, serialized to JSON ([`FlightRecord::to_json`]) with a
//!   one-screen human diagnosis ([`FlightRecord::diagnosis`]).
//!
//! The classification is deliberately conservative: a *stall* requires
//! both the op and the whole rank to have made no observable progress
//! past the deadline, and a *deadlock suspect* additionally requires the
//! blamed peer to show no matching activity (or a wait-for cycle).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::span::{span_arg_unpack, SpanKind};
use crate::telemetry::RankRecord;
use crate::{spec, EventSlot, Hist, Metric};

/// Number of slots in a registry's in-flight table, and the most any
/// table holds.
pub(crate) const DEFAULT_INFLIGHT_CAPACITY: usize = 128;

/// Sentinel slot index meaning "not registered" (table was full, or the
/// op chose not to register). All table operations ignore it.
pub const INFLIGHT_NONE: usize = usize::MAX;

// Payload words of a slot that the table reads or writes alone.
const BEATS: usize = 3;
const TOKEN: usize = 4;

/// One published entry of the in-flight table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InflightOp {
    /// Generation token (unique per registration within one table).
    pub token: u64,
    /// What the op is.
    pub kind: SpanKind,
    /// Kind-specific argument — [`crate::span_arg_peer_tag`] for
    /// point-to-point ops, the root rank for rooted collectives.
    pub arg: u64,
    /// Registry clock when the op entered (nanoseconds since epoch).
    pub since_nanos: u64,
    /// Registry clock at which the table's last sign of life was observed,
    /// if the op has heartbeat at all (= `since_nanos` if it has not).
    pub beat_nanos: u64,
    /// Number of heartbeats recorded.
    pub beats: u64,
}

impl InflightOp {
    /// The `(peer, tag)` pair packed in `arg` (meaningful for
    /// point-to-point kinds; see [`crate::span_arg_peer_tag`]).
    pub fn peer_tag(&self) -> (usize, i32) {
        span_arg_unpack(self.arg)
    }

    /// Nanoseconds since the op entered, as of `now_nanos`.
    pub fn age_nanos(&self, now_nanos: u64) -> u64 {
        now_nanos.saturating_sub(self.since_nanos)
    }

    /// Nanoseconds since the op last showed a sign of life.
    pub fn idle_nanos(&self, now_nanos: u64) -> u64 {
        now_nanos.saturating_sub(self.beat_nanos.max(self.since_nanos))
    }

    /// Whether this kind blocks the rank until a peer acts (the stall /
    /// deadlock candidates). Outstanding `Isend`/`Irecv` registrations
    /// are *not* blocking — the rank is free to compute past them.
    pub fn is_blocking(&self) -> bool {
        !matches!(self.kind, SpanKind::MpIsend | SpanKind::MpIrecv)
    }
}

/// Where the forced-order tests can stop a writer or an observer
/// (`tests` below); no-ops otherwise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Point {
    /// `begin` has invalidated its slot and not yet filled it.
    Invalidated,
    /// `begin` has filled its slot and not yet published it.
    Filled,
    /// An observer has seen the progress count move and not yet dated it.
    Moved,
}

/// Lock-free in-flight op table: fixed seqlock slots, claimed by one bit
/// each.
///
/// Writers ([`begin`](Self::begin) / [`beat`](Self::beat) /
/// [`end`](Self::end)) never block. A claim sets the first clear bit of
/// `taken` with one `fetch_or`, and tries the next clear bit if that one
/// was set meanwhile; a full table costs one load per word, and
/// the registration is dropped and counted ([`overflows`](Self::overflows)).
/// A release, on any thread, clears the slot and then its bit with one
/// `fetch_and`. A bit is set at most once between two clears, so a slot
/// has one writer at a time, its claimant, and nothing can suffer ABA.
/// The token a slot publishes starts at `idx + 1` and steps by the
/// capacity. Readers ([`snapshot`](Self::snapshot)) are wait-free and
/// skip entries caught mid-publish.
///
/// **Signs of life are counted by the writers and dated by the reader.**
/// A heartbeat or a moved progress pass bumps a counter and reads no
/// clock; whoever watches the table ([`last_beat_nanos`]
/// (Self::last_beat_nanos), [`snapshot`](Self::snapshot)) compares the
/// count with the one it saw last and, if it moved, dates the progress
/// with its own reading. The date is late by at most the watcher's
/// interval, which only ever makes a rank look more alive.
pub(crate) struct InflightTable {
    /// Bit `i % 64` of word `i / 64` is set while slot `i` is claimed;
    /// the bits past the capacity are set from the start. Inline rather
    /// than a 16-byte allocation of its own, which would share a cache
    /// line with whatever the allocator puts beside it.
    taken: [AtomicU64; DEFAULT_INFLIGHT_CAPACITY.div_ceil(64)],
    /// Payload `[since, kind, arg, beats, token]`, published under the
    /// token.
    slots: Box<[EventSlot]>,
    overflows: AtomicU64,
    /// Signs of life anywhere in this table — the rank-wide progress the
    /// watchdog compares against.
    progress: AtomicU64,
    /// The `progress` the observers have dated, and the date: stored
    /// first, so an observer that sees a count also sees its date.
    seen_progress: AtomicU64,
    seen_at_nanos: AtomicU64,
}

impl InflightTable {
    /// Table with `capacity` slots, clamped to
    /// `1..=DEFAULT_INFLIGHT_CAPACITY`.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.clamp(1, DEFAULT_INFLIGHT_CAPACITY);
        InflightTable {
            taken: std::array::from_fn(|w| {
                AtomicU64::new(u64::MAX.unbounded_shl(capacity.saturating_sub(64 * w) as u32))
            }),
            slots: (0..capacity).map(|_| EventSlot::empty()).collect(),
            overflows: AtomicU64::new(0),
            progress: AtomicU64::new(0),
            seen_progress: AtomicU64::new(0),
            seen_at_nanos: AtomicU64::new(0),
        }
    }

    /// Set the first clear bit of `taken`: the claimed slot, or `None`
    /// when every slot is taken.
    fn claim(&self) -> Option<usize> {
        for (w, word) in self.taken.iter().enumerate() {
            let mut seen = word.load(Ordering::Relaxed);
            while seen != u64::MAX {
                let bit = (!seen).trailing_zeros();
                // Acquire: the release that cleared the bit, and the last
                // claimant's writes before it, come first. Only the one
                // bit is tested, so this is a single `lock bts` on x86.
                if word.fetch_or(1 << bit, Ordering::Acquire) & (1 << bit) == 0 {
                    return Some(64 * w + bit as usize);
                }
                seen |= 1 << bit;
            }
        }
        None
    }

    /// Register an op. Returns the claimed slot index, or
    /// [`INFLIGHT_NONE`] if the table is full (the drop is counted).
    pub fn begin(&self, kind: SpanKind, arg: u64, now_nanos: u64) -> usize {
        let Some(idx) = self.claim() else {
            self.overflows.fetch_add(1, Ordering::Relaxed);
            return INFLIGHT_NONE;
        };
        let slot = &self.slots[idx];
        // The slot's last token stays in its payload across the release.
        let token = match slot.words[TOKEN].load(Ordering::Relaxed) {
            0 => idx as u64 + 1,
            last => last + self.slots.len() as u64,
        };
        slot.invalidate();
        pause(Point::Invalidated);
        slot.fill([now_nanos, kind as u64, arg, 0, token]);
        pause(Point::Filled);
        slot.publish(token);
        idx
    }

    /// Record a sign of life on a registered op (and on the whole table).
    /// Only the op's own thread heartbeats it.
    pub fn beat(&self, idx: usize) {
        self.note_progress();
        if let Some(slot) = self.slots.get(idx) {
            let beats = &slot.words[BEATS];
            beats.store(beats.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        }
    }

    /// Record table-wide progress without a specific op (e.g. the device
    /// progress engine moved bytes while polling).
    pub fn note_progress(&self) {
        self.progress.fetch_add(1, Ordering::Relaxed);
    }

    /// Deregister an op, from any thread (idempotent on [`INFLIGHT_NONE`],
    /// and on a registration already ended).
    pub fn end(&self, idx: usize) {
        let Some(slot) = self.slots.get(idx) else {
            return;
        };
        if slot.published().is_none() {
            return;
        }
        slot.clear();
        self.taken[idx / 64].fetch_and(!(1 << (idx % 64)), Ordering::Release);
    }

    /// Registrations dropped because the table was full.
    pub fn overflows(&self) -> u64 {
        self.overflows.load(Ordering::Relaxed)
    }

    /// Observe the table's signs of life at `now_nanos`: if any were
    /// recorded since the observers last dated them, the progress is dated
    /// `now_nanos`. Returns the date of the last progress so observed (0
    /// if none ever was).
    ///
    /// The date is stored before the count it dates is published, so an
    /// observer that finds the count unchanged returns that date or a
    /// later one, however the observers interleave.
    pub fn last_beat_nanos(&self, now_nanos: u64) -> u64 {
        let progress = self.progress.load(Ordering::Relaxed);
        if self.seen_progress.load(Ordering::Acquire) < progress {
            pause(Point::Moved);
            self.seen_at_nanos.fetch_max(now_nanos, Ordering::Relaxed);
            self.seen_progress.fetch_max(progress, Ordering::Release);
        }
        self.seen_at_nanos.load(Ordering::Relaxed)
    }

    /// Wait-free copy of every published entry, oldest first, observed at
    /// `now_nanos` (see [`last_beat_nanos`](Self::last_beat_nanos)).
    /// Entries caught mid-claim or recycled while being read are skipped
    /// (seqlock validation).
    pub fn snapshot(&self, now_nanos: u64) -> Vec<InflightOp> {
        let last_beat = self.last_beat_nanos(now_nanos);
        let mut out: Vec<InflightOp> = (self.slots.iter())
            .filter_map(|slot| {
                let (token, [since, kind, arg, beats, _]) = slot.read_words()?;
                Some(InflightOp {
                    token,
                    kind: SpanKind::from_u64(kind)?,
                    arg,
                    since_nanos: since,
                    // Every heartbeat is also table-wide progress, so the
                    // table's date is the op's, or later.
                    beat_nanos: if beats > 0 {
                        last_beat.max(since)
                    } else {
                        since
                    },
                    beats,
                })
            })
            .collect();
        out.sort_by_key(|op| (op.since_nanos, op.token));
        out
    }
}

/// Watchdog tuning and flight-record policy. Build one directly, or parse
/// the `MOTOR_DOCTOR` environment variable with
/// [`DoctorConfig::from_env`].
#[derive(Debug, Clone)]
pub struct DoctorConfig {
    /// How often the watchdog scans every rank's table.
    pub scan_interval: Duration,
    /// No observable progress for this long while blocked → *stall*.
    pub stall_deadline: Duration,
    /// A hard pin older than this with no transport op in flight →
    /// *pin leak*.
    pub pin_leak_deadline: Duration,
    /// Fraction of wall time stalled at safepoints → *GC pressure*.
    pub gc_stall_ratio: f64,
    /// Where to write the flight-record JSON (on anomaly, and at shutdown
    /// when [`record_on_exit`](Self::record_on_exit) is set).
    pub record_path: Option<String>,
    /// Terminate the process with this code after the first anomaly's
    /// flight record is written (CI liveness gates); `None` keeps running.
    pub exit_code: Option<i32>,
    /// Also emit a flight record when the cluster shuts down cleanly.
    pub record_on_exit: bool,
}

impl Default for DoctorConfig {
    fn default() -> Self {
        DoctorConfig {
            scan_interval: Duration::from_millis(50),
            stall_deadline: Duration::from_secs(2),
            pin_leak_deadline: Duration::from_secs(2),
            gc_stall_ratio: 0.5,
            record_path: None,
            exit_code: None,
            record_on_exit: false,
        }
    }
}

impl DoctorConfig {
    /// Parse a `MOTOR_DOCTOR` value (grammar: [`crate::spec`]). `1`/`on`
    /// yield the defaults; the keys are `deadline_ms` (stall and pin-leak
    /// deadline), `interval_ms`, `pin_ms`, `gc_ratio`, `record=<path>`,
    /// `abort=<exit code>`, `record_on_exit=0|1`. Any other key or bare
    /// token, and a value that does not parse, is an error.
    pub fn parse(spec: &str) -> Result<DoctorConfig, String> {
        let mut cfg = DoctorConfig::default();
        let millis = |key, v| spec::value(key, v).map(Duration::from_millis);
        for (key, v) in spec::pairs(spec) {
            match key {
                "1" | "on" if v.is_none() => {}
                "deadline_ms" => {
                    cfg.stall_deadline = millis(key, v)?;
                    cfg.pin_leak_deadline = cfg.stall_deadline;
                }
                "interval_ms" => cfg.scan_interval = millis(key, v)?,
                "pin_ms" => cfg.pin_leak_deadline = millis(key, v)?,
                "gc_ratio" => cfg.gc_stall_ratio = spec::value(key, v)?,
                "record" => cfg.record_path = Some(spec::value(key, v)?),
                "abort" => cfg.exit_code = Some(spec::value(key, v)?),
                "record_on_exit" => cfg.record_on_exit = spec::value::<u8>(key, v)? != 0,
                _ => return Err(format!(
                    "unknown key {key:?} (use deadline_ms|interval_ms|pin_ms|gc_ratio|record|abort|record_on_exit)"
                )),
            }
        }
        Ok(cfg)
    }

    /// The configuration the `MOTOR_DOCTOR` environment variable asks for
    /// (see [`spec::from_env`]: `None` when off, a panic when malformed).
    pub fn from_env() -> Option<DoctorConfig> {
        spec::from_env("MOTOR_DOCTOR", Self::parse)
    }
}

named_enum! {
    /// What kind of trouble the watchdog diagnosed.
    enum AnomalyKind: u64 {
        /// A blocking op made no observable progress past the deadline.
        Stall => "stall",
        /// A stall whose blamed peer shows no matching activity, or a
        /// wait-for cycle among stalled ranks.
        DeadlockSuspect => "deadlock_suspect",
        /// A hard pin outlived every transport operation on its rank.
        PinLeak => "pin_leak",
        /// Safepoint stalls consumed more than the configured fraction of
        /// wall time.
        GcPressure => "gc_pressure",
        /// A transport link died and was dropped; operations bound to that
        /// peer were failed with `PeerClosed`.
        LinkDrop => "link_drop",
    }
}

/// One diagnosed problem, blaming a rank (and op, when there is one).
#[derive(Debug, Clone)]
pub struct Anomaly {
    /// Classification.
    pub kind: AnomalyKind,
    /// The blamed rank.
    pub rank: usize,
    /// The blamed rank's label.
    pub label: String,
    /// The stuck op, for stall/deadlock anomalies.
    pub op: Option<InflightOp>,
    /// Peer the op waits on, when the op kind carries one.
    pub peer: Option<usize>,
    /// Nanoseconds the condition has persisted.
    pub age_nanos: u64,
    /// One-line human explanation.
    pub detail: String,
}

impl Anomaly {
    /// Stable dedup key: one report per (kind, rank, op token).
    pub fn key(&self) -> (AnomalyKind, usize, u64) {
        (
            self.kind,
            self.rank,
            self.op.as_ref().map_or(0, |o| o.token),
        )
    }

    /// This anomaly as a JSON object (shared by the flight record and the
    /// telemetry plane's `/healthz` endpoint).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"kind\":\"{}\",\"rank\":{},\"label\":\"{}\",\"op\":{},\
             \"peer\":{},\"age_nanos\":{},\"detail\":\"{}\"}}",
            self.kind.name(),
            self.rank,
            esc(&self.label),
            self.op
                .as_ref()
                .map_or("null".into(), |o| format!("\"{}\"", o.kind.name())),
            self.peer.map_or("null".into(), |p| p.to_string()),
            self.age_nanos,
            esc(&self.detail)
        )
    }
}

/// Point-to-point kinds whose `arg` names the peer being waited on.
fn waits_on_peer(kind: SpanKind) -> bool {
    matches!(
        kind,
        SpanKind::MpSend
            | SpanKind::MpSsend
            | SpanKind::MpRecv
            | SpanKind::MpProbe
            | SpanKind::Osend
            | SpanKind::Orecv
    )
}

/// Collective kinds (every live rank must enter them).
fn is_collective(kind: SpanKind) -> bool {
    matches!(
        kind,
        SpanKind::Barrier
            | SpanKind::Bcast
            | SpanKind::Scatter
            | SpanKind::Gather
            | SpanKind::Allgather
            | SpanKind::Reduce
            | SpanKind::Allreduce
            | SpanKind::Scan
            | SpanKind::Alltoall
            | SpanKind::Obcast
            | SpanKind::Oscatter
            | SpanKind::Ogather
    )
}

/// The oldest blocking op a rank is stuck in past the deadline, if the
/// rank as a whole has also shown no progress for that long.
fn stalled_op(h: &RankRecord, deadline_nanos: u64) -> Option<&InflightOp> {
    if h.done {
        return None;
    }
    let rank_idle = h.now_nanos.saturating_sub(h.last_progress_nanos);
    if h.last_progress_nanos != 0 && rank_idle <= deadline_nanos {
        return None;
    }
    h.inflight
        .iter()
        .filter(|op| op.is_blocking() && op.idle_nanos(h.now_nanos) > deadline_nanos)
        .max_by_key(|op| op.age_nanos(h.now_nanos))
}

/// Kinds that ship data to the peer (can complete the peer's receive).
fn is_send_kind(kind: SpanKind) -> bool {
    matches!(
        kind,
        SpanKind::MpSend | SpanKind::MpSsend | SpanKind::MpIsend | SpanKind::Osend
    )
}

/// Kinds that consume data from the peer (can complete the peer's send).
fn is_recv_kind(kind: SpanKind) -> bool {
    matches!(
        kind,
        SpanKind::MpRecv | SpanKind::MpIrecv | SpanKind::MpProbe | SpanKind::Orecv
    )
}

/// Whether `peer`'s record shows activity that could still complete
/// `rank`'s wait of kind `our_kind`: an in-flight op of the *opposite
/// direction* addressed to `rank` (a send satisfies our recv and vice
/// versa), or transport frames still queued for delivery.
fn peer_matches(peer: &RankRecord, rank: usize, our_kind: SpanKind) -> bool {
    if peer.queue_depths.2 > 0 {
        return true; // pending sends may still be addressed to the waiter
    }
    peer.inflight.iter().any(|op| {
        op.peer_tag().0 == rank
            && if is_recv_kind(our_kind) {
                is_send_kind(op.kind)
            } else {
                is_recv_kind(op.kind)
            }
    })
}

/// The watchdog's decision procedure: one pass over one tick's records
/// (a frame's), returning every anomaly found (empty when healthy). Pure —
/// all timing comes from the records — so it is directly unit-testable
/// with synthetic [`RankRecord`] values.
///
/// Ranks are judged within their spawn group, the only scope in which the
/// peer ranks in op arguments mean something; a group caught
/// mid-registration (rank indices not yet contiguous) is skipped. What is
/// windowed is read from the record's window: the safepoint-stall share is
/// the `SafepointStallNanos` histogram of `snapshot` over `window_nanos`,
/// a dropped link is reported in the tick that saw it drop.
pub fn classify(records: &[RankRecord], cfg: &DoctorConfig) -> Vec<Anomaly> {
    let mut groups: Vec<usize> = records.iter().map(|r| r.group).collect();
    groups.sort_unstable();
    groups.dedup();
    let mut out = Vec::new();
    for g in groups {
        let mut world: Vec<&RankRecord> = records.iter().filter(|r| r.group == g).collect();
        world.sort_by_key(|r| r.rank);
        if world.iter().enumerate().all(|(i, r)| r.rank == i) {
            classify_world(&world, cfg, &mut out);
        }
    }
    out
}

/// [`classify`] for the ranks of one world, indexed by rank.
fn classify_world(health: &[&RankRecord], cfg: &DoctorConfig, out: &mut Vec<Anomaly>) {
    let deadline = cfg.stall_deadline.as_nanos() as u64;
    let pin_deadline = cfg.pin_leak_deadline.as_nanos() as u64;
    let first = out.len();

    // Wait-for edges rank -> peer for cycle detection among stalled ranks.
    let mut waits_for: Vec<Option<usize>> = vec![None; health.len()];
    let any_done = health.iter().any(|h| h.done);

    for (i, h) in health.iter().enumerate() {
        if let Some(op) = stalled_op(h, deadline) {
            let age = op.idle_nanos(h.now_nanos);
            let (peer, _tag) = op.peer_tag();
            let peer = (waits_on_peer(op.kind) && peer < health.len()).then_some(peer);
            if let Some(p) = peer {
                // Wait-for edge only when the peer is *not* already acting
                // toward us — a matched pair is slow, not deadlocked.
                if !peer_matches(health[p], h.rank, op.kind) {
                    waits_for[i] = Some(p);
                }
            }
            let (kind, detail) = match peer {
                // Peer exited, or is itself stuck with nothing addressed
                // to us: nobody can complete this wait.
                Some(p) if health[p].done && !peer_matches(health[p], h.rank, op.kind) => (
                    AnomalyKind::DeadlockSuspect,
                    format!(
                        "{} waits on {} which exited with no matching activity",
                        op.kind.name(),
                        health[p].label
                    ),
                ),
                Some(p)
                    if stalled_op(health[p], deadline).is_some()
                        && !peer_matches(health[p], h.rank, op.kind) =>
                {
                    (
                        AnomalyKind::DeadlockSuspect,
                        format!(
                            "{} waits on {} which is itself stuck with no matching activity",
                            op.kind.name(),
                            health[p].label
                        ),
                    )
                }
                // A collective some ranks already exited past can never
                // complete for the ranks still inside it.
                None if is_collective(op.kind) && any_done => (
                    AnomalyKind::DeadlockSuspect,
                    format!(
                        "stuck in collective {} while other ranks already exited",
                        op.kind.name()
                    ),
                ),
                _ => (
                    AnomalyKind::Stall,
                    format!("no progress in {} past the deadline", op.kind.name()),
                ),
            };
            out.push(Anomaly {
                kind,
                rank: h.rank,
                label: h.label.clone(),
                op: Some(op.clone()),
                peer,
                age_nanos: age,
                detail,
            });
        }

        // Rank-wide conditions: no op to blame.
        let mut rank_wide = |kind, age_nanos, detail| {
            out.push(Anomaly {
                kind,
                rank: h.rank,
                label: h.label.clone(),
                op: None,
                peer: None,
                age_nanos,
                detail,
            })
        };
        if !h.done && h.hard_pins > 0 && h.oldest_pin_nanos > pin_deadline && h.inflight.is_empty()
        {
            let pins = h.hard_pins;
            rank_wide(
                AnomalyKind::PinLeak,
                h.oldest_pin_nanos,
                format!("{pins} hard pin(s) held with no transport op in flight"),
            );
        }
        let links = h.snapshot.get(Metric::LinksDropped);
        if links > 0 {
            rank_wide(
                AnomalyKind::LinkDrop,
                0,
                format!(
                    "{links} transport link(s) dropped; bound operations failed with PeerClosed"
                ),
            );
        }
        let stalled = h.gc_stalls().estimated_sum();
        if h.window_nanos > 0 && stalled / h.window_nanos as f64 > cfg.gc_stall_ratio {
            rank_wide(
                AnomalyKind::GcPressure,
                stalled as u64,
                format!(
                    "{:.0}% of the last {} ms stalled at safepoints",
                    stalled * 100.0 / h.window_nanos as f64,
                    h.window_nanos / 1_000_000
                ),
            );
        }
    }

    // Upgrade wait-for cycles to deadlock suspects: r0 -> r1 -> ... -> r0
    // can never resolve regardless of queue contents.
    let mut on_cycle = vec![false; waits_for.len()];
    for (start, cycle_flag) in on_cycle.iter_mut().enumerate() {
        let mut cur = start;
        for _ in 0..=waits_for.len() {
            match waits_for[cur] {
                Some(next) if next == start => {
                    *cycle_flag = true;
                    break;
                }
                Some(next) => cur = next,
                None => break,
            }
        }
    }
    for (i, h) in health.iter().enumerate() {
        if !on_cycle[i] {
            continue;
        }
        for a in out[first..]
            .iter_mut()
            .filter(|a| a.kind == AnomalyKind::Stall && a.rank == h.rank)
        {
            a.kind = AnomalyKind::DeadlockSuspect;
            a.detail = format!("wait-for cycle: {}", a.detail);
        }
    }
}

/// Everything needed to diagnose a run after the fact: anomalies, and
/// every rank's record with its event rings drained into the snapshot.
#[derive(Debug, Clone)]
pub struct FlightRecord {
    /// Shared-epoch clock when the record was cut (nanoseconds).
    pub t_nanos: u64,
    /// Diagnosed anomalies (empty for an on-demand record of a healthy
    /// cluster).
    pub anomalies: Vec<Anomaly>,
    /// Per-rank state, in rank order.
    pub ranks: Vec<RankRecord>,
}

pub(crate) fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl FlightRecord {
    /// The record as one JSON object (hand-rolled like every exporter in
    /// this crate; see `DESIGN.md` "Offline builds"), ranks in the full
    /// form of [`RankRecord::to_json`].
    pub fn to_json(&self) -> String {
        let anomalies: Vec<String> = self.anomalies.iter().map(Anomaly::to_json).collect();
        let ranks: Vec<String> = self.ranks.iter().map(|r| r.to_json(true)).collect();
        format!(
            "{{\"motor_flight_record\":1,\"t_nanos\":{},\"anomalies\":[{}],\"ranks\":[{}]}}",
            self.t_nanos,
            anomalies.join(","),
            ranks.join(",")
        )
    }

    /// A one-screen human diagnosis naming the blamed ranks and ops.
    pub fn diagnosis(&self) -> String {
        let mut s = format!(
            "motor-doctor: {} anomal{} across {} rank(s) at t={:.3}s\n",
            self.anomalies.len(),
            if self.anomalies.len() == 1 {
                "y"
            } else {
                "ies"
            },
            self.ranks.len(),
            self.t_nanos as f64 / 1e9
        );
        for a in &self.anomalies {
            let op = a.op.as_ref().map_or(String::new(), |o| {
                let (peer, tag) = o.peer_tag();
                format!(" in {}(peer={peer}, tag={tag})", o.kind.name())
            });
            s.push_str(&format!(
                "  [{}] {}{}: {} ({} ms)\n",
                a.kind.name(),
                a.label,
                op,
                a.detail,
                a.age_nanos / 1_000_000
            ));
        }
        for r in &self.ranks {
            let doing = if r.done {
                "done".to_string()
            } else if r.inflight.is_empty() {
                "computing (no op in flight)".to_string()
            } else {
                r.inflight
                    .iter()
                    .map(|op| {
                        let (peer, tag) = op.peer_tag();
                        if waits_on_peer(op.kind) {
                            format!("{}(peer={peer}, tag={tag})", op.kind.name())
                        } else {
                            op.kind.name().to_string()
                        }
                    })
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let (p, u, ps, ar) = r.queue_depths;
            let wait = r.snapshot.hist(Hist::WaitNanos);
            s.push_str(&format!(
                "  {}: {} | queues p/u/s/r={p}/{u}/{ps}/{ar} | waits={} p50={}ns p99={}ns | events dropped={}\n",
                r.label,
                doing,
                wait.count(),
                wait.percentile(0.50),
                wait.percentile(0.99),
                r.snapshot.get(Metric::TraceEventsDropped),
            ));
        }
        s
    }
}

#[cfg(not(test))]
#[inline(always)]
fn pause(_at: Point) {}

#[cfg(test)]
use tests::pause;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span_arg_peer_tag;
    use crate::tests::Cut;
    use motor_pal::interleave::{conduct, Baton, Conductor, Work};

    fn op(kind: SpanKind, peer: usize, tag: i32, since: u64, beat: u64) -> InflightOp {
        InflightOp {
            token: 2,
            kind,
            arg: span_arg_peer_tag(peer, tag),
            since_nanos: since,
            beat_nanos: beat,
            beats: 0,
        }
    }

    fn healthy(rank: usize, now: u64) -> RankRecord {
        RankRecord {
            rank,
            label: format!("rank {rank}"),
            now_nanos: now,
            last_progress_nanos: now,
            window_nanos: 1_000_000_000,
            ..RankRecord::default()
        }
    }

    /// A snapshot of a registry after `fill` ran on it.
    fn snapshot_of(fill: impl FnOnce(&crate::MetricsRegistry)) -> crate::MetricsSnapshot {
        let r = crate::MetricsRegistry::new();
        fill(&r);
        r.snapshot()
    }

    fn cfg_ms(deadline_ms: u64) -> DoctorConfig {
        DoctorConfig {
            stall_deadline: Duration::from_millis(deadline_ms),
            pin_leak_deadline: Duration::from_millis(deadline_ms),
            ..DoctorConfig::default()
        }
    }

    #[test]
    fn table_begin_beat_end_roundtrip() {
        let t = InflightTable::new(4);
        let idx = t.begin(SpanKind::MpRecv, span_arg_peer_tag(1, 9), 100);
        assert_ne!(idx, INFLIGHT_NONE);
        assert_eq!(t.last_beat_nanos(200), 0, "no sign of life yet");
        t.beat(idx);
        let snap = t.snapshot(250);
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].kind, SpanKind::MpRecv);
        assert_eq!(snap[0].peer_tag(), (1, 9));
        assert_eq!(snap[0].since_nanos, 100);
        assert_eq!(snap[0].beat_nanos, 250, "dated by the observation");
        assert_eq!(snap[0].beats, 1);
        // No further sign of life: the date stands.
        assert_eq!(t.last_beat_nanos(900), 250);
        assert_eq!(t.snapshot(950)[0].idle_nanos(950), 700);
        t.note_progress();
        assert_eq!(t.last_beat_nanos(1000), 1000);
        t.end(idx);
        assert!(t.snapshot(1100).is_empty());
    }

    #[test]
    fn table_overflow_is_counted_not_fatal() {
        let t = InflightTable::new(2);
        let a = t.begin(SpanKind::Barrier, 0, 1);
        let b = t.begin(SpanKind::Barrier, 0, 2);
        let c = t.begin(SpanKind::Barrier, 0, 3);
        assert_ne!(a, INFLIGHT_NONE);
        assert_ne!(b, INFLIGHT_NONE);
        assert_eq!(c, INFLIGHT_NONE);
        assert_eq!(t.overflows(), 1);
        t.beat(c); // ignored, no panic
        t.end(c);
        t.end(a);
        t.end(a); // a second end does not free the slot twice
        assert_ne!(t.begin(SpanKind::Barrier, 0, 4), INFLIGHT_NONE);
        assert_eq!(t.begin(SpanKind::Barrier, 0, 5), INFLIGHT_NONE);
    }

    /// A full table claims nothing, at any number of attempts, and a
    /// freed slot comes back with a token it has not published before.
    #[test]
    fn a_full_table_claims_nothing_and_a_freed_slot_comes_back_with_a_new_token() {
        const CAP: usize = DEFAULT_INFLIGHT_CAPACITY;
        let t = InflightTable::new(CAP);
        let held: Vec<usize> = (0..CAP as u64)
            .map(|i| t.begin(SpanKind::MpIrecv, 0, i))
            .collect();
        assert_eq!(held, (0..CAP).collect::<Vec<_>>());
        assert_eq!(t.claim(), None);
        for i in 0..1000 {
            assert_eq!(t.begin(SpanKind::MpIrecv, 0, i), INFLIGHT_NONE);
        }
        assert_eq!(t.overflows(), 1000);
        let tokens: Vec<u64> = t.snapshot(0).iter().map(|op| op.token).collect();
        assert_eq!(tokens, (1..=CAP as u64).collect::<Vec<_>>());
        t.end(held[77]);
        assert_eq!(t.begin(SpanKind::MpIrecv, 0, 5000), held[77]);
        let back = t.snapshot(0).pop().unwrap();
        assert_eq!((back.token, back.since_nanos), (78 + CAP as u64, 5000));
        assert_eq!(t.claim(), None);
    }

    /// Registrations begun on one thread and ended on another give their
    /// slots back: afterwards every slot can be claimed again, once.
    #[test]
    fn a_registration_ended_on_another_thread_gives_its_slot_back() {
        const CAP: usize = DEFAULT_INFLIGHT_CAPACITY;
        let t = InflightTable::new(CAP);
        let held: Vec<usize> = (0..CAP as u64)
            .map(|i| t.begin(SpanKind::MpIsend, span_arg_peer_tag(1, 7), i))
            .collect();
        std::thread::scope(|s| {
            s.spawn(|| held.iter().for_each(|&idx| t.end(idx)));
        });
        assert!(t.snapshot(0).is_empty());
        let mut again: Vec<usize> = (0..CAP).map(|_| t.begin(SpanKind::MpSend, 0, 0)).collect();
        again.sort_unstable();
        assert_eq!(again, (0..CAP).collect::<Vec<_>>(), "a slot claimed twice");
        assert_eq!(t.begin(SpanKind::MpSend, 0, 0), INFLIGHT_NONE);
    }

    #[test]
    fn table_concurrent_register_and_snapshot() {
        use std::sync::Arc;
        let t = Arc::new(InflightTable::new(8));
        let stop = Arc::new(AtomicU64::new(0));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        let idx = t.begin(SpanKind::MpSend, span_arg_peer_tag(w, 7), i);
                        t.beat(idx);
                        t.end(idx);
                    }
                })
            })
            .collect();
        let reader = {
            let (t, stop) = (Arc::clone(&t), Arc::clone(&stop));
            std::thread::spawn(move || {
                while stop.load(Ordering::Relaxed) == 0 {
                    for opn in t.snapshot(1) {
                        // Entries are never torn: kind/arg always pair up.
                        assert_eq!(opn.kind, SpanKind::MpSend);
                        assert_eq!(opn.peer_tag().1, 7);
                    }
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        stop.store(1, Ordering::Relaxed);
        reader.join().unwrap();
        assert!(t.snapshot(2).is_empty());
        assert_eq!(
            t.overflows(),
            0,
            "four writers never need more than four slots"
        );
        // Every slot was given back, once.
        let all: Vec<usize> = (0..8).map(|i| t.begin(SpanKind::MpSend, 0, i)).collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
    }

    /// One thread's claims, releases and snapshots, with the places where
    /// a second thread gets its turn.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Step {
        /// Second thread runs to completion here.
        Gate,
        /// Second thread starts here and races what follows.
        Release,
        Begin,
        End,
        Snapshot,
    }

    /// What the second thread does with its turn: a whole claim/release
    /// cycle on the slot the first thread is about to claim, or claims
    /// that take the slots the first thread is about to.
    #[derive(Debug, Clone, Copy)]
    enum Other {
        CycleOne,
        TwoThenFreeFirst,
        KeepOne,
    }

    fn run_schedule(steps: &[Step], other: Other) {
        use motor_pal::interleave::two_threads;
        // Two registrations at most per thread at any time.
        const SLOTS: usize = 4;
        let t = InflightTable::new(SLOTS);
        let arg = |who: usize| span_arg_peer_tag(who, 7);
        let (mine, theirs) = two_threads(
            |turn| {
                let mut held = Vec::new();
                for step in steps {
                    match step {
                        Step::Gate => turn.gate(),
                        Step::Release => turn.release(),
                        Step::Begin => held.push(t.begin(SpanKind::MpRecv, arg(0), 1)),
                        Step::End => t.end(held.remove(0)),
                        Step::Snapshot => {
                            for op in t.snapshot(5) {
                                let (who, tag) = op.peer_tag();
                                assert_eq!(tag, 7, "torn entry");
                                let kind = [SpanKind::MpRecv, SpanKind::MpSend][who];
                                assert_eq!(op.kind, kind, "torn entry");
                            }
                        }
                    }
                }
                held
            },
            || match other {
                Other::CycleOne => {
                    let a = t.begin(SpanKind::MpSend, arg(1), 2);
                    t.end(a);
                    vec![]
                }
                Other::TwoThenFreeFirst => {
                    let a = t.begin(SpanKind::MpSend, arg(1), 2);
                    let b = t.begin(SpanKind::MpSend, arg(1), 3);
                    t.end(a);
                    vec![b]
                }
                Other::KeepOne => vec![t.begin(SpanKind::MpSend, arg(1), 2)],
            },
        );
        // Whatever the order: nobody shares a slot, the table shows
        // exactly the registrations still held, and the rest can be
        // claimed.
        let mut held: Vec<usize> = mine.iter().chain(&theirs).copied().collect();
        assert!(
            held.iter().all(|&i| i != INFLIGHT_NONE),
            "four slots suffice"
        );
        held.sort_unstable();
        held.dedup();
        assert_eq!(
            held.len(),
            mine.len() + theirs.len(),
            "a slot claimed twice"
        );
        let snap = t.snapshot(9);
        assert_eq!(snap.len(), held.len());
        let mine_shown = snap.iter().filter(|op| op.peer_tag().0 == 0).count();
        assert_eq!(mine_shown, mine.len());
        let rest: Vec<usize> = (held.len()..SLOTS)
            .map(|_| t.begin(SpanKind::Barrier, 0, 0))
            .collect();
        assert!(rest
            .iter()
            .all(|i| *i != INFLIGHT_NONE && !held.contains(i)));
        assert_eq!(t.begin(SpanKind::Barrier, 0, 0), INFLIGHT_NONE);
    }

    /// Every placement of a second thread's claims and releases around a
    /// first thread's claim, release and snapshot — before, between and
    /// racing — on two real threads in a forced order.
    #[test]
    fn every_order_of_claim_release_and_snapshot_keeps_one_claimant_per_slot() {
        use Step::*;
        let schedules: [&[Step]; 7] = [
            &[Gate, Begin, Snapshot, End],
            &[Begin, Gate, Snapshot, End],
            &[Begin, Snapshot, Gate, End, Snapshot],
            &[Release, Begin, Snapshot, End],
            &[Begin, Release, End, Snapshot],
            &[Begin, Begin, Release, End, Begin, End, Snapshot],
            &[Begin, End, Release, Begin, Snapshot],
        ];
        let rounds = if cfg!(miri) { 2 } else { 100 };
        for _ in 0..rounds {
            for steps in schedules {
                for other in [Other::CycleOne, Other::TwoThenFreeFirst, Other::KeepOne] {
                    run_schedule(steps, other);
                }
            }
        }
    }

    thread_local! {
        /// The point this thread stops at, if it is the first worker of
        /// a forced-order test.
        static PAUSE: std::cell::RefCell<Option<(Baton<Point>, Point)>> =
            const { std::cell::RefCell::new(None) };
    }

    /// Stop at `at` if this thread is a worker that stops there.
    pub(super) fn pause(at: Point) {
        PAUSE.with_borrow(|hook| match hook {
            Some((baton, stop)) if *stop == at => baton.stop(at),
            _ => {}
        });
    }

    /// Run `first` on a thread that stops at `at`, and `second` on another
    /// while it is stopped there: to its end before `first` goes on
    /// (`Gate`), or alongside the rest of `first` (`Race`). Without `at`,
    /// `second` starts before `first` does. Returns what both produced.
    fn cut<A: Send, B: Send>(
        at: Option<Point>,
        how: Cut,
        first: impl FnOnce() -> A + Send,
        second: impl FnOnce() -> B + Send,
    ) -> (A, B) {
        let (mut a, mut b) = (None, None);
        let (a_, b_) = (&mut a, &mut b);
        let workers: Vec<Work<'_, Point>> = vec![
            Box::new(move |baton| {
                PAUSE.set(at.map(|at| (baton, at)));
                *a_ = Some(first());
                PAUSE.set(None);
            }),
            Box::new(move |_| *b_ = Some(second())),
        ];
        conduct(workers, |c: &Conductor<Point>| {
            if at.is_some() {
                assert_eq!(c.step(0), at, "the first worker never got there");
            }
            match how {
                Cut::Gate => c.finish(1),
                Cut::Race => c.go(1),
            }
            c.finish(0);
            c.finish(1);
        });
        (a.unwrap(), b.unwrap())
    }

    /// A reader placed before `begin`, between its invalidation, its fill
    /// and its publication, or racing them, on a slot whose last
    /// registration has ended: it shows nothing, or the new entry whole —
    /// never the old payload under the new token.
    #[test]
    fn a_reader_between_the_steps_of_a_claim_sees_no_entry_or_the_whole_new_one() {
        let rounds = if cfg!(miri) { 2 } else { 100 };
        let points = [None, Some(Point::Invalidated), Some(Point::Filled)];
        for (at, how) in (points.into_iter())
            .flat_map(|at| [(at, Cut::Gate), (at, Cut::Race)])
            .cycle()
            .take(6 * rounds)
        {
            let t = InflightTable::new(1);
            t.end(t.begin(SpanKind::MpSend, span_arg_peer_tag(1, 5), 10));
            let (idx, seen) = cut(
                at,
                how,
                || t.begin(SpanKind::MpRecv, span_arg_peer_tag(2, 9), 20),
                || t.snapshot(30),
            );
            let whole = InflightOp {
                token: 2,
                kind: SpanKind::MpRecv,
                arg: span_arg_peer_tag(2, 9),
                since_nanos: 20,
                beat_nanos: 20,
                beats: 0,
            };
            assert_eq!(idx, 0);
            for op in &seen {
                assert_eq!(op, &whole, "at {at:?}, {how:?}");
            }
            if how == Cut::Gate {
                assert!(
                    seen.is_empty(),
                    "at {at:?}: an entry before its publication"
                );
            }
            assert_eq!(t.snapshot(40), [whole]);
        }
    }

    /// Two observers dating the same progress — the collector's tick and a
    /// scrape: the first stopped between seeing the count move and dating
    /// it, the second run to its end there, or alongside. Neither returns a
    /// date older than the first one's reading, and once both are done the
    /// count stands dated by the later of the dates they returned.
    #[test]
    fn an_observer_never_dates_progress_before_a_racing_observer_saw_it() {
        let rounds = if cfg!(miri) { 2 } else { 100 };
        for how in [Cut::Gate, Cut::Race].into_iter().cycle().take(2 * rounds) {
            let t = InflightTable::new(1);
            t.note_progress();
            let (first, second) = cut(
                Some(Point::Moved),
                how,
                || t.last_beat_nanos(100),
                || t.last_beat_nanos(200),
            );
            assert!(first >= 100 && second >= 100, "{how:?}: {first}, {second}");
            assert_eq!(t.last_beat_nanos(300), first.max(second), "{how:?}");
            if how == Cut::Gate {
                assert_eq!(second, 200);
            }
        }
    }

    #[test]
    fn healthy_cluster_has_no_anomalies() {
        let now = 10_000_000_000;
        let mut hs: Vec<RankRecord> = (0..4).map(|r| healthy(r, now)).collect();
        // A recv that is old but recently heartbeat-ed is not stalled.
        hs[1]
            .inflight
            .push(op(SpanKind::MpRecv, 0, 5, 1_000, now - 1_000_000));
        assert!(classify(&hs, &cfg_ms(500)).is_empty());
    }

    #[test]
    fn unmatched_recv_with_exited_peer_is_deadlock_suspect() {
        let now = 10_000_000_000;
        let mut hs: Vec<RankRecord> = (0..4).map(|r| healthy(r, now)).collect();
        hs[2]
            .inflight
            .push(op(SpanKind::MpRecv, 1, 99, 1_000, 1_000));
        hs[2].last_progress_nanos = 1_000;
        for r in [0, 1, 3] {
            hs[r].done = true;
        }
        let anomalies = classify(&hs, &cfg_ms(500));
        assert_eq!(anomalies.len(), 1);
        let a = &anomalies[0];
        assert_eq!(a.kind, AnomalyKind::DeadlockSuspect);
        assert_eq!(a.rank, 2);
        assert_eq!(a.peer, Some(1));
        assert_eq!(a.op.as_ref().unwrap().kind, SpanKind::MpRecv);
    }

    #[test]
    fn stalled_recv_with_matching_peer_send_stays_stall() {
        let now = 10_000_000_000;
        let mut hs: Vec<RankRecord> = (0..2).map(|r| healthy(r, now)).collect();
        hs[0].inflight.push(op(SpanKind::MpRecv, 1, 3, 0, 0));
        hs[0].last_progress_nanos = 0;
        // Peer is stuck too, but *is* addressing us — slow, not deadlocked
        // beyond doubt: stays a stall, not a suspect. (peer 1 sends to 0.)
        hs[1].inflight.push(op(SpanKind::MpSend, 0, 3, 0, 0));
        hs[1].last_progress_nanos = 0;
        let anomalies = classify(&hs, &cfg_ms(500));
        assert_eq!(anomalies.len(), 2);
        assert!(anomalies.iter().all(|a| a.kind == AnomalyKind::Stall));
    }

    #[test]
    fn wait_for_cycle_is_deadlock_suspect() {
        let now = 10_000_000_000;
        let mut hs: Vec<RankRecord> = (0..2).map(|r| healthy(r, now)).collect();
        // 0 recvs from 1 on tag 1, 1 recvs from 0 on tag 2: a cycle with
        // no pending data anywhere.
        hs[0].inflight.push(op(SpanKind::MpRecv, 1, 1, 0, 0));
        hs[0].last_progress_nanos = 0;
        hs[1].inflight.push(op(SpanKind::MpRecv, 0, 2, 0, 0));
        hs[1].last_progress_nanos = 0;
        let anomalies = classify(&hs, &cfg_ms(500));
        assert_eq!(anomalies.len(), 2);
        assert!(anomalies
            .iter()
            .all(|a| a.kind == AnomalyKind::DeadlockSuspect));
    }

    #[test]
    fn collective_mismatch_is_deadlock_suspect() {
        let now = 10_000_000_000;
        let mut hs: Vec<RankRecord> = (0..3).map(|r| healthy(r, now)).collect();
        hs[0].inflight.push(op(SpanKind::Barrier, 0, 0, 0, 0));
        hs[0].last_progress_nanos = 0;
        hs[1].done = true;
        hs[2].done = true;
        let anomalies = classify(&hs, &cfg_ms(500));
        assert_eq!(anomalies.len(), 1);
        assert_eq!(anomalies[0].kind, AnomalyKind::DeadlockSuspect);
        assert_eq!(anomalies[0].rank, 0);
    }

    #[test]
    fn pin_leak_and_gc_pressure() {
        let now = 10_000_000_000;
        let mut hs = vec![healthy(0, now)];
        hs[0].hard_pins = 2;
        hs[0].oldest_pin_nanos = 3_000_000_000;
        // One stall in (2^29, 2^30] ns: ~0.8 s of the 1 s window.
        hs[0].snapshot = snapshot_of(|r| r.record(Hist::SafepointStallNanos, 900_000_000));
        let anomalies = classify(&hs, &cfg_ms(500));
        assert_eq!(anomalies.len(), 2);
        assert!(anomalies.iter().any(|a| a.kind == AnomalyKind::PinLeak));
        assert!(anomalies.iter().any(|a| a.kind == AnomalyKind::GcPressure));
        // A pin guarded by an in-flight op is not a leak.
        hs[0].inflight.push(op(SpanKind::MpIsend, 1, 0, 0, now));
        let anomalies = classify(&hs, &cfg_ms(500));
        assert!(anomalies.iter().all(|a| a.kind != AnomalyKind::PinLeak));
    }

    #[test]
    fn link_drop_is_reported() {
        let now = 10_000_000_000;
        let mut hs = vec![healthy(0, now), healthy(1, now)];
        hs[1].snapshot = snapshot_of(|r| r.bump(Metric::LinksDropped));
        let anomalies = classify(&hs, &cfg_ms(500));
        assert_eq!(anomalies.len(), 1);
        assert_eq!(anomalies[0].kind, AnomalyKind::LinkDrop);
        assert_eq!(anomalies[0].rank, 1);
        assert_eq!(anomalies[0].kind.name(), "link_drop");
        assert!(anomalies[0].detail.contains("PeerClosed"));
    }

    #[test]
    fn outstanding_irecv_alone_never_stalls() {
        let now = 10_000_000_000;
        let mut hs = vec![healthy(0, now), healthy(1, now)];
        // Rank computes forever with a posted irecv; not a stall — the
        // rank is not blocked (but it also reports no heartbeats).
        hs[0].inflight.push(op(SpanKind::MpIrecv, 1, 4, 0, 0));
        hs[0].last_progress_nanos = 0;
        assert!(classify(&hs, &cfg_ms(500)).is_empty());
    }

    #[test]
    fn flight_record_json_and_diagnosis() {
        let now = 5_000_000_000;
        let anomalies = vec![Anomaly {
            kind: AnomalyKind::DeadlockSuspect,
            rank: 2,
            label: "rank 2".into(),
            op: Some(op(SpanKind::MpRecv, 1, 99, 0, 0)),
            peer: Some(1),
            age_nanos: 700_000_000,
            detail: "mp_recv waits on rank 1 which exited with no matching activity".into(),
        }];
        let rec = FlightRecord {
            t_nanos: now,
            anomalies,
            ranks: vec![RankRecord {
                rank: 2,
                label: "rank 2".into(),
                inflight: vec![op(SpanKind::MpRecv, 1, 99, 0, 0)],
                queue_depths: (1, 0, 0, 0),
                ..RankRecord::default()
            }],
        };
        let json = rec.to_json();
        crate::export::json::parse(&json).expect("flight record is valid JSON");
        assert!(json.contains("\"kind\":\"deadlock_suspect\""));
        assert!(json.contains("\"rank\":2"));
        assert!(json.contains("\"op\":\"mp_recv\""));
        let diag = rec.diagnosis();
        assert!(diag.contains("deadlock_suspect"));
        assert!(diag.contains("rank 2"));
        assert!(diag.contains("mp_recv(peer=1, tag=99)"));
    }

    /// Ranks are judged within their spawn group: a child world's rank 0
    /// waiting on *its* rank 1 is not confused with the parents' rank 1,
    /// and a group caught mid-registration is left for the next tick.
    #[test]
    fn groups_are_classified_apart() {
        let now = 10_000_000_000;
        let mut rs: Vec<RankRecord> = (0..2).map(|r| healthy(r, now)).collect();
        rs[1].done = true;
        let mut child: Vec<RankRecord> = (0..2).map(|r| healthy(r, now)).collect();
        for c in &mut child {
            c.group = 1;
        }
        child[0].inflight.push(op(SpanKind::MpRecv, 1, 3, 0, 0));
        child[0].last_progress_nanos = 0;
        child[1].inflight.push(op(SpanKind::MpSend, 0, 3, 0, now));
        // In arrival order, not rank order.
        let all = vec![
            child[1].clone(),
            rs[1].clone(),
            child[0].clone(),
            rs[0].clone(),
        ];
        let found = classify(&all, &cfg_ms(500));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].kind, AnomalyKind::Stall, "{found:?}");
        // Without child 1 the group is not contiguous from 0: skipped.
        let partial = vec![rs[0].clone(), rs[1].clone(), child[1].clone()];
        assert!(classify(&partial, &cfg_ms(500)).is_empty());
    }

    #[test]
    fn doctor_config_parse() {
        let cfg = DoctorConfig::parse("deadline_ms=250,interval_ms=10,record=/tmp/x.json,abort=86")
            .unwrap();
        assert_eq!(cfg.stall_deadline, Duration::from_millis(250));
        assert_eq!(cfg.pin_leak_deadline, Duration::from_millis(250));
        assert_eq!(cfg.scan_interval, Duration::from_millis(10));
        assert_eq!(cfg.record_path.as_deref(), Some("/tmp/x.json"));
        assert_eq!(cfg.exit_code, Some(86));
        let on = DoctorConfig::parse("1").unwrap();
        assert_eq!(on.stall_deadline, DoctorConfig::default().stall_deadline);
        let rest = DoctorConfig::parse("pin_ms=7, gc_ratio=0.9, record_on_exit=1").unwrap();
        assert_eq!(rest.pin_leak_deadline, Duration::from_millis(7));
        assert_eq!(rest.gc_stall_ratio, 0.9);
        assert!(rest.record_on_exit);
    }

    /// A spec the parser does not understand must not run the defaults
    /// without a word — that switches a CI liveness gate off: it is an
    /// error that names the offender.
    #[test]
    fn doctor_config_rejects_what_it_does_not_know() {
        for (spec, needle) in [
            ("abort86", "abort86"),
            ("deadline=500", "deadline"),
            ("bogus=1", "bogus"),
            ("deadline_ms=soon", "deadline_ms"),
            ("abort", "abort"),
            ("on=1", "on"),
        ] {
            let err = DoctorConfig::parse(spec).expect_err(spec);
            assert!(err.contains(needle), "{spec}: {err}");
        }
    }
}
