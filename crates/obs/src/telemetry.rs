//! The telemetry plane's data model: one **record** per rank, and the
//! timestamped **delta frames** made of them.
//!
//! A [`RankRecord`] is one rank observed once: who it is, the clock, what
//! it has in flight, its queue depths, the gauges that have no delta, and
//! one [`MetricsSnapshot`]. Every other per-rank shape is a function of
//! it: [`RankRecord::since`] is the windowing (a frame holds `since` of the
//! previous tick, so every counter in it is a windowed delta and a rate is
//! [`RankRecord::per_sec`]), [`classify`](crate::classify) reads a frame's
//! records, a [`FlightRecord`](crate::FlightRecord) holds records whose
//! snapshots carry the event rings, and [`RankRecord::to_json`] /
//! [`RankRecord::from_json`] are the one writer and the one reader behind
//! `/frames`, `/flight`, the flight-record file, the simulator's failure
//! dump and `motor-top`.
//!
//! Frames go into a [`FrameRing`] that keeps the most recent `capacity`
//! ticks, so a late-attaching client can reconstruct a time series without
//! having polled from the start. The loop that observes ranks lives in
//! `motor-core` (`telemetry::Collector`) next to the rank hooks; this
//! module is the transport-free half.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::doctor::{esc, InflightOp};
use crate::export::json::{self, Value};
use crate::span::{span_arg_peer_tag, SpanKind};
use crate::{Hist, Metric, MetricsSnapshot};

/// Default number of frames a [`FrameRing`] retains.
pub const DEFAULT_FRAME_CAPACITY: usize = 240;

/// One rank, observed once.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankRecord {
    /// Spawn group (0 for the initial world). Peer ranks in op arguments
    /// mean something within a group only.
    pub group: usize,
    /// Rank within its group.
    pub rank: usize,
    /// Human label (`"rank 2"`, `"child 1.0"`, ...).
    pub label: String,
    /// Whether the rank's body has returned.
    pub done: bool,
    /// Registry clock at the observation (nanoseconds since the shared
    /// epoch).
    pub now_nanos: u64,
    /// Nanoseconds `snapshot` covers: 0 for an observation, whose
    /// snapshot is cumulative; the distance to the earlier record for a
    /// [`since`](Self::since).
    pub window_nanos: u64,
    /// Registry clock of the rank's last observable progress (0 if none
    /// yet).
    pub last_progress_nanos: u64,
    /// In-flight ops of the rank's table.
    pub inflight: Vec<InflightOp>,
    /// Device queue depths `(posted, unexpected, pending_sends,
    /// active_recvs)`.
    pub queue_depths: (usize, usize, usize, usize),
    /// Hard pins currently held.
    pub hard_pins: usize,
    /// Conditional pin requests currently registered.
    pub cond_pins: usize,
    /// Age of the oldest hard pin in nanoseconds (0 when none).
    pub oldest_pin_nanos: u64,
    /// Live heap bytes in use (young + elder), 0 if unavailable.
    pub heap_used_bytes: u64,
    /// Live heap capacity in bytes, 0 if unavailable.
    pub heap_capacity_bytes: u64,
    /// The rank's metrics (transport + VM registries merged): cumulative
    /// in an observation, windowed in a [`since`](Self::since).
    pub snapshot: MetricsSnapshot,
}

impl RankRecord {
    /// What happened between `prev` and `self`: the snapshot is
    /// [`MetricsSnapshot::diff`], the window is the distance between the
    /// two clocks; identity, in-flight table and gauges are `self`'s.
    pub fn since(&self, prev: &RankRecord) -> RankRecord {
        RankRecord {
            window_nanos: self.now_nanos.saturating_sub(prev.now_nanos),
            snapshot: self.snapshot.diff(&prev.snapshot),
            label: self.label.clone(),
            inflight: self.inflight.clone(),
            ..*self
        }
    }

    /// Messages sent (all four send paths).
    pub fn msgs_out(&self) -> u64 {
        let s = &self.snapshot;
        s.get(Metric::SendsEager)
            + s.get(Metric::SendsRndv)
            + s.get(Metric::SendsSync)
            + s.get(Metric::SendsSelf)
    }

    /// Messages received (matched).
    pub fn msgs_in(&self) -> u64 {
        self.snapshot.get(Metric::RecvsPosted) + self.snapshot.get(Metric::RecvsUnexpected)
    }

    /// Per-second rate of a count over this record's window (0 when the
    /// window is empty).
    pub fn per_sec(&self, count: u64) -> f64 {
        if self.window_nanos == 0 {
            0.0
        } else {
            count as f64 * 1e9 / self.window_nanos as f64
        }
    }

    /// Safepoint stalls recorded in this record's window.
    pub fn gc_stalls(&self) -> crate::HistSnapshot {
        self.snapshot.hist(Hist::SafepointStallNanos)
    }

    /// The record as one JSON object. `full` is the flight form: every
    /// counter, every histogram, the event ring. Otherwise the frame form,
    /// which leaves out zero counters, empty histograms and events (see
    /// [`MetricsSnapshot::to_json_sparse`]) to keep a ring of frames small.
    /// Both forms have the same keys.
    pub fn to_json(&self, full: bool) -> String {
        let (p, u, s, a) = self.queue_depths;
        let inflight: Vec<String> = self
            .inflight
            .iter()
            .map(|op| {
                let (peer, tag) = op.peer_tag();
                format!(
                    "{{\"token\":{},\"kind\":\"{}\",\"arg\":{},\"peer\":{peer},\"tag\":{tag},\
                     \"since_nanos\":{},\"beat_nanos\":{},\"beats\":{}}}",
                    op.token,
                    op.kind.name(),
                    op.arg,
                    op.since_nanos,
                    op.beat_nanos,
                    op.beats
                )
            })
            .collect();
        format!(
            "{{\"group\":{},\"rank\":{},\"label\":\"{}\",\"done\":{},\
             \"now_nanos\":{},\"window_nanos\":{},\"last_progress_nanos\":{},\
             \"queues\":{{\"posted\":{p},\"unexpected\":{u},\
             \"pending_sends\":{s},\"active_recvs\":{a}}},\
             \"hard_pins\":{},\"cond_pins\":{},\"oldest_pin_nanos\":{},\
             \"heap_used_bytes\":{},\"heap_capacity_bytes\":{},\
             \"inflight\":[{}],\"metrics\":{}}}",
            self.group,
            self.rank,
            esc(&self.label),
            self.done,
            self.now_nanos,
            self.window_nanos,
            self.last_progress_nanos,
            self.hard_pins,
            self.cond_pins,
            self.oldest_pin_nanos,
            self.heap_used_bytes,
            self.heap_capacity_bytes,
            inflight.join(","),
            if full {
                self.snapshot.to_json()
            } else {
                self.snapshot.to_json_sparse()
            }
        )
    }

    /// Read back what [`to_json`](Self::to_json) wrote, in either form. A
    /// missing key is an error. An op's `arg` is rebuilt from its `peer`
    /// and `tag`, which are exact where the packed word exceeds what a
    /// JSON number holds.
    pub fn from_json(v: &Value) -> Result<RankRecord, String> {
        let size = |v: &Value, key: &str| v.u64_at(key).map(|n| n as usize);
        let queues = v.get("queues").ok_or("rank record: no queues")?;
        let ops = v.get("inflight").and_then(Value::as_array);
        let inflight = ops
            .ok_or("rank record: no inflight array")?
            .iter()
            .map(|op| {
                let kind = op.get("kind").and_then(Value::as_str).unwrap_or("");
                let tag = op.get("tag").and_then(Value::as_i64).ok_or("op: no tag")?;
                Ok(InflightOp {
                    token: op.u64_at("token")?,
                    kind: SpanKind::from_name(kind)
                        .ok_or_else(|| format!("unknown op kind {kind:?}"))?,
                    arg: span_arg_peer_tag(size(op, "peer")?, tag as i32),
                    since_nanos: op.u64_at("since_nanos")?,
                    beat_nanos: op.u64_at("beat_nanos")?,
                    beats: op.u64_at("beats")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(RankRecord {
            group: size(v, "group")?,
            rank: size(v, "rank")?,
            label: v
                .get("label")
                .and_then(Value::as_str)
                .ok_or("rank record: no label")?
                .to_string(),
            done: match v.get("done") {
                Some(Value::Bool(done)) => *done,
                _ => return Err("rank record: no done".into()),
            },
            now_nanos: v.u64_at("now_nanos")?,
            window_nanos: v.u64_at("window_nanos")?,
            last_progress_nanos: v.u64_at("last_progress_nanos")?,
            inflight,
            queue_depths: (
                size(queues, "posted")?,
                size(queues, "unexpected")?,
                size(queues, "pending_sends")?,
                size(queues, "active_recvs")?,
            ),
            hard_pins: size(v, "hard_pins")?,
            cond_pins: size(v, "cond_pins")?,
            oldest_pin_nanos: v.u64_at("oldest_pin_nanos")?,
            heap_used_bytes: v.u64_at("heap_used_bytes")?,
            heap_capacity_bytes: v.u64_at("heap_capacity_bytes")?,
            snapshot: MetricsSnapshot::from_json(
                v.get("metrics").ok_or("rank record: no metrics")?,
            )?,
        })
    }

    /// The records under a document's `"ranks"` key (a frame, a flight
    /// record).
    pub fn all_from_json(doc: &Value) -> Result<Vec<RankRecord>, String> {
        let ranks = doc.get("ranks").and_then(Value::as_array);
        ranks
            .ok_or("no ranks array")?
            .iter()
            .map(RankRecord::from_json)
            .collect()
    }
}

/// One collection tick across every registered rank.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryFrame {
    /// Monotonic frame number (1-based within one ring).
    pub seq: u64,
    /// Shared-epoch clock at the tick (nanoseconds).
    pub t_nanos: u64,
    /// Per rank, in (group, rank) order: the tick's observation
    /// [`since`](RankRecord::since) the previous tick's. On a rank's first
    /// tick the record is the observation itself: window 0, counters
    /// covering the run so far.
    pub ranks: Vec<RankRecord>,
}

/// Bounded ring of the most recent frames. Push-side is the collection
/// loop; readers (`/frames`, `/metrics` rate gauges, `/healthz`) take
/// cheap `Arc` copies.
pub struct FrameRing {
    /// The retained frames, oldest first, and how many were ever pushed.
    frames: Mutex<(VecDeque<Arc<TelemetryFrame>>, u64)>,
    capacity: usize,
}

impl FrameRing {
    /// Ring retaining the most recent `capacity` frames (min 1).
    pub fn new(capacity: usize) -> FrameRing {
        FrameRing {
            frames: Mutex::default(),
            capacity: capacity.max(1),
        }
    }

    /// Number of frames retained before overwrite.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append the frame of a tick at `t_nanos` under the next sequence
    /// number (1-based), evicting the oldest past capacity.
    pub fn push(&self, t_nanos: u64, ranks: Vec<RankRecord>) -> Arc<TelemetryFrame> {
        let mut guard = self.frames.lock().unwrap();
        let (q, seen) = &mut *guard;
        *seen += 1;
        let frame = Arc::new(TelemetryFrame {
            seq: *seen,
            t_nanos,
            ranks,
        });
        if q.len() == self.capacity {
            q.pop_front();
        }
        q.push_back(Arc::clone(&frame));
        frame
    }

    /// Every retained frame, oldest first.
    pub fn frames(&self) -> Vec<Arc<TelemetryFrame>> {
        self.frames.lock().unwrap().0.iter().cloned().collect()
    }

    /// The newest frame, if any tick has happened.
    pub fn latest(&self) -> Option<Arc<TelemetryFrame>> {
        self.frames.lock().unwrap().0.back().cloned()
    }

    /// Total frames ever pushed (not capped by capacity).
    pub fn frames_seen(&self) -> u64 {
        self.frames.lock().unwrap().1
    }
}

/// The whole ring as one JSON document (the `/frames` endpoint body),
/// records in the frame form.
pub fn frames_to_json(frames: &[Arc<TelemetryFrame>], capacity: usize) -> String {
    let items: Vec<String> = frames
        .iter()
        .map(|f| {
            let ranks: Vec<String> = f.ranks.iter().map(|r| r.to_json(false)).collect();
            format!(
                "{{\"seq\":{},\"t_nanos\":{},\"ranks\":[{}]}}",
                f.seq,
                f.t_nanos,
                ranks.join(",")
            )
        })
        .collect();
    format!(
        "{{\"motor_frames\":1,\"capacity\":{capacity},\"frames\":[{}]}}",
        items.join(",")
    )
}

/// Read back a [`frames_to_json`] document, oldest frame first.
pub fn frames_from_json(text: &str) -> Result<Vec<TelemetryFrame>, String> {
    let doc = json::parse(text)?;
    if doc.get("motor_frames").and_then(Value::as_u64) != Some(1) {
        return Err("not a motor /frames document".to_string());
    }
    let frames = doc.get("frames").and_then(Value::as_array);
    frames
        .ok_or("no frames array")?
        .iter()
        .map(|f| {
            Ok(TelemetryFrame {
                seq: f.u64_at("seq")?,
                t_nanos: f.u64_at("t_nanos")?,
                ranks: RankRecord::all_from_json(f)?,
            })
        })
        .collect()
}

/// The state gauges of the newest frame, rendered in Prometheus text
/// exposition (appended to `/metrics` after the cumulative families):
/// heap occupancy and in-flight operations, which no counter carries.
/// Rates and window percentiles are not exported here; a scraper derives
/// them from the cumulative families with `rate()` and
/// `histogram_quantile()`.
pub fn frame_prometheus(f: &TelemetryFrame) -> String {
    type Gauge = fn(&RankRecord) -> u64;
    let families: [(&str, Gauge); 3] = [
        ("motor_heap_used_bytes", |r| r.heap_used_bytes),
        ("motor_heap_capacity_bytes", |r| r.heap_capacity_bytes),
        ("motor_inflight_ops", |r| r.inflight.len() as u64),
    ];
    let mut out = String::new();
    for (family, value) in families {
        out.push_str(&format!("# TYPE {family} gauge\n"));
        for r in &f.ranks {
            out.push_str(&format!(
                "{family}{{group=\"{}\",rank=\"{}\"}} {}\n",
                r.group,
                r.rank,
                value(r)
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_prometheus_text, EventKind, MetricsRegistry};

    /// A registry with a little of everything: counters, a peak, two
    /// histograms, ring events.
    fn busy_registry() -> MetricsRegistry {
        let r = MetricsRegistry::new();
        r.add(Metric::SendsEager, 10);
        r.add(Metric::ChanBytesOut, 4096);
        r.record_max(Metric::PostedQueuePeak, 3);
        r.record(Hist::SafepointStallNanos, 1500);
        r.record(Hist::WaitNanos, 90_000);
        r.event3(EventKind::MsgSend, 1, 7, 64);
        r
    }

    fn record(rank: usize, snapshot: MetricsSnapshot) -> RankRecord {
        RankRecord {
            group: 1,
            rank,
            label: format!("child 1.{rank} \"quoted\""),
            done: rank == 1,
            now_nanos: 5_000_000,
            window_nanos: 1_000_000,
            last_progress_nanos: 4_900_000,
            inflight: vec![
                InflightOp {
                    token: 9,
                    kind: SpanKind::MpRecv,
                    // A wildcard source: the packed word is past 2^53.
                    arg: span_arg_peer_tag(u32::MAX as usize, -1),
                    since_nanos: 4_000_000,
                    beat_nanos: 4_500_000,
                    beats: 3,
                },
                InflightOp {
                    token: 11,
                    kind: SpanKind::Bcast,
                    arg: 2,
                    since_nanos: 4_800_000,
                    beat_nanos: 4_800_000,
                    beats: 0,
                },
            ],
            queue_depths: (1, 0, 2, 0),
            hard_pins: 2,
            cond_pins: 5,
            oldest_pin_nanos: 77,
            heap_used_bytes: 1 << 20,
            heap_capacity_bytes: 1 << 24,
            snapshot,
        }
    }

    fn frame(seq: u64) -> TelemetryFrame {
        let snap = busy_registry().snapshot_counters();
        TelemetryFrame {
            seq,
            t_nanos: seq * 1_000_000,
            ranks: vec![record(0, snap.clone()), record(1, snap)],
        }
    }

    #[test]
    fn ring_is_bounded_and_ordered() {
        let ring = FrameRing::new(4);
        for _ in 0..10 {
            ring.push(0, Vec::new());
        }
        let frames = ring.frames();
        assert_eq!(frames.len(), 4);
        let seqs: Vec<u64> = frames.iter().map(|f| f.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10]);
        assert_eq!(ring.latest().unwrap().seq, 10);
        assert_eq!(ring.frames_seen(), 10);
    }

    /// Writer then reader is the identity: in the flight form outright, in
    /// the frame form up to the one thing it omits, the events.
    #[test]
    fn record_json_round_trips_in_both_forms() {
        let full = record(0, busy_registry().snapshot());
        assert_eq!(full.snapshot.events().len(), 1);
        let back = |r: &RankRecord, form| {
            RankRecord::from_json(&json::parse(&r.to_json(form)).expect("valid JSON"))
                .expect("reader accepts the writer")
        };
        assert_eq!(back(&full, true), full);
        let eventless = record(0, busy_registry().snapshot_counters());
        assert_eq!(back(&full, false), eventless);
        assert_eq!(back(&eventless, false), eventless);
        // An all-default record too (no ops, empty snapshot).
        assert_eq!(back(&RankRecord::default(), true), RankRecord::default());
        assert_eq!(back(&RankRecord::default(), false), RankRecord::default());
    }

    #[test]
    fn the_reader_rejects_what_the_writer_would_not_write() {
        let good = record(0, MetricsSnapshot::empty()).to_json(false);
        for (from, to) in [
            ("\"now_nanos\"", "\"now\""),
            ("\"mp_recv\"", "\"mp_rcv\""),
            ("\"counters\":{", "\"counters\":{\"sends_eagre\":1"),
            ("\"done\":false", "\"done\":0"),
        ] {
            assert!(good.contains(from), "{from} in {good}");
            let bad = json::parse(&good.replacen(from, to, 1)).unwrap();
            assert!(RankRecord::from_json(&bad).is_err(), "{to} accepted");
        }
    }

    #[test]
    fn frame_json_is_sparse_and_reads_back() {
        let f = frame(3);
        let text = frames_to_json(&[Arc::new(f.clone())], 240);
        let v = json::parse(&text).expect("frames JSON parses");
        assert_eq!(v.get("motor_frames").and_then(|x| x.as_u64()), Some(1));
        let frames = v.get("frames").and_then(|x| x.as_array()).unwrap();
        let ranks = frames[0].get("ranks").and_then(|x| x.as_array()).unwrap();
        assert_eq!(ranks.len(), 2);
        let metrics = ranks[0].get("metrics").unwrap();
        let counters = metrics.get("counters").unwrap();
        assert_eq!(
            counters.get("sends_eager").and_then(|x| x.as_u64()),
            Some(10)
        );
        // Zero deltas and empty histograms are omitted from the wire format.
        assert!(counters.get("sends_rndv").is_none());
        let hists = metrics.get("hists").unwrap();
        assert!(hists.get("safepoint_stall_nanos").is_some());
        assert!(hists.get("rndv_send_bytes").is_none());
        assert_eq!(frames_from_json(&text).expect("reads back"), vec![f]);
        assert!(frames_from_json("{\"frames\":[]}").is_err(), "no marker");
    }

    /// `since` is the only windowing: against itself a record is all-zero
    /// except peaks and gauges, and the delta plus the earlier record
    /// reproduces the later one's counters and buckets.
    #[test]
    fn since_windows_counters_and_keeps_gauges() {
        let reg = busy_registry();
        let a = record(0, reg.snapshot_counters());
        reg.add(Metric::SendsEager, 5);
        reg.record_max(Metric::PostedQueuePeak, 9);
        reg.record(Hist::WaitNanos, 100);
        let mut b = record(0, reg.snapshot_counters());
        b.now_nanos = a.now_nanos + 250;
        b.heap_used_bytes = 123;
        b.inflight.pop();

        let zero = a.since(&a);
        assert_eq!(zero.window_nanos, 0);
        for m in Metric::ALL {
            let want = if m.is_peak() { a.snapshot.get(m) } else { 0 };
            assert_eq!(zero.snapshot.get(m), want, "{}", m.name());
        }
        assert!(Hist::ALL
            .iter()
            .all(|h| zero.snapshot.hist(*h).count() == 0));
        assert_eq!(
            (zero.hard_pins, zero.heap_used_bytes, &zero.inflight),
            (a.hard_pins, a.heap_used_bytes, &a.inflight)
        );

        let d = b.since(&a);
        assert_eq!(d.window_nanos, 250);
        assert_eq!(d.snapshot.get(Metric::SendsEager), 5);
        assert_eq!(d.msgs_out(), 5);
        assert_eq!(d.per_sec(5), 5.0 * 1e9 / 250.0);
        assert_eq!((d.heap_used_bytes, d.inflight.len()), (123, 1));
        let mut sum = a.snapshot.clone();
        sum.merge(&d.snapshot);
        for m in Metric::ALL {
            assert_eq!(sum.get(m), b.snapshot.get(m), "{}", m.name());
        }
        for h in Hist::ALL {
            assert_eq!(sum.hist(h), b.snapshot.hist(h), "{}", h.name());
        }
    }

    #[test]
    fn rate_math() {
        let d = record(0, busy_registry().snapshot_counters());
        assert_eq!(d.msgs_out(), 10);
        // 10 msgs over 1 ms = 10k msg/s.
        assert!((d.per_sec(d.msgs_out()) - 10_000.0).abs() < 1e-6);
        assert_eq!(RankRecord::default().per_sec(5), 0.0);
    }

    #[test]
    fn frame_gauges_pass_exposition_check() {
        let text = frame_prometheus(&frame(1));
        check_prometheus_text(&text).expect("valid exposition format");
        assert!(text.contains("motor_heap_used_bytes{group=\"1\",rank=\"0\"} 1048576"));
    }
}
