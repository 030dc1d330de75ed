//! Post-mortem cluster timeline: merge per-rank event rings, match
//! cross-rank message pairs into edges, and analyze waits and the
//! critical path.
//!
//! Input is one [`MetricsSnapshot`] per rank (of the one registry its
//! device and its VM record into, as `MotorProc::metrics()` returns it);
//! the rank is the slice index. Every rank of a cluster stamps its events
//! against the one epoch the cluster shares, so times from different ranks
//! are comparable as they stand.
//!
//! Three artifacts come out:
//!
//! * [`TraceSpan`]s — the [`SpanBegin`]/[`SpanEnd`] pairs every timed
//!   region records (see [`crate::span`]), plus the two intervals that
//!   are not lexical scopes and so cannot be a guard: a pin's lifetime
//!   (`PinAcquire` → `PinRelease`, possibly on another call path) and the
//!   sender-side rendezvous handshake: `RndvRts` out → the sender's
//!   `RndvDone`, which the progress engine stamps when the send completes
//!   — streamed (a CTS came back): when the last byte leaves, a Done the
//!   sender *sent*; single copy (no CTS): when the receiver's FIN arrives,
//!   a Done the sender *observed*.
//! * [`MessageEdge`]s — the k-th [`MsgSend`] from `src` to `dst` with tag
//!   `t` matched FIFO against the k-th [`MsgRecv`] on `dst` from `src`
//!   with tag `t` (sound because the device layer is non-overtaking per
//!   peer/tag, like MPI), plus RTS/CTS/Done control-packet edges matched
//!   exactly by `(src, dst, send-request id)`.
//! * Analyses — [`ClusterTrace::wait_breakdown`] and
//!   [`ClusterTrace::critical_path`].
//!
//! [`SpanBegin`]: EventKind::SpanBegin
//! [`SpanEnd`]: EventKind::SpanEnd
//! [`MsgSend`]: EventKind::MsgSend
//! [`MsgRecv`]: EventKind::MsgRecv

use std::collections::{HashMap, HashSet, VecDeque};

use crate::{Event, EventKind, MetricsSnapshot, SpanKind};

/// High bit of the `c` word of [`EventKind::MsgSend`]/[`MsgRecv`]
/// events: set when the payload took the rendezvous path.
///
/// [`MsgRecv`]: EventKind::MsgRecv
pub const MSG_RNDV_FLAG: u64 = 1 << 63;

/// Pack the `c` word of a rendezvous control event ([`RndvRts`]/
/// [`RndvCts`]/[`RndvDone`]): the peer's global rank plus a low bit that
/// is 1 on the rank that *sent* the packet and 0 on the rank that observed
/// it. Done travels with the data's last byte on a streamed rendezvous
/// (sender → receiver) and is the receiver's FIN on a single-copy one
/// (receiver → sender).
///
/// [`RndvRts`]: EventKind::RndvRts
/// [`RndvCts`]: EventKind::RndvCts
/// [`RndvDone`]: EventKind::RndvDone
pub fn rndv_ctl(peer: usize, sent: bool) -> u64 {
    ((peer as u64) << 1) | sent as u64
}

fn rndv_ctl_unpack(c: u64) -> (usize, bool) {
    ((c >> 1) as usize, c & 1 == 1)
}

/// One interval on the cluster timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpan {
    /// Process-unique id (the guard's own for recorded spans; freshly
    /// assigned for pin and rendezvous-handshake intervals).
    pub id: u64,
    /// Which rank the interval belongs to.
    pub rank: usize,
    /// What the interval covers.
    pub kind: SpanKind,
    /// Begin time (nanoseconds on the cluster clock).
    pub t_begin: i64,
    /// End time.
    pub t_end: i64,
    /// Kind-specific argument (usually [`crate::span_arg_peer_tag`]).
    pub arg: u64,
}

impl TraceSpan {
    /// Interval length in nanoseconds (0 if the clock ran backwards).
    pub fn dur_nanos(&self) -> u64 {
        (self.t_end - self.t_begin).max(0) as u64
    }
}

named_enum! {
    /// What a [`MessageEdge`] connects.
    enum EdgeKind: u64 {
        /// Payload delivery: `MsgSend` initiation to `MsgRecv` completion.
        Payload => "payload",
        /// Rendezvous ready-to-send control packet.
        Rts => "rts",
        /// Rendezvous clear-to-send control packet.
        Cts => "cts",
        /// Rendezvous completion: sender's payload flush to the receiver's
        /// transfer-complete.
        Done => "done",
    }
}

/// A matched cross-rank message pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageEdge {
    /// What this edge represents.
    pub kind: EdgeKind,
    /// Originating rank.
    pub src_rank: usize,
    /// Receiving rank.
    pub dst_rank: usize,
    /// Message tag (payload edges; 0 for control edges).
    pub tag: i64,
    /// Payload bytes.
    pub bytes: u64,
    /// Whether the payload took the rendezvous path.
    pub rndv: bool,
    /// Initiation time on the source rank.
    pub t_send: i64,
    /// Completion time on the destination rank.
    pub t_recv: i64,
    /// Id of the op span containing the send, when one does.
    pub src_span: Option<u64>,
    /// Id of the op span containing the receive, when one does.
    pub dst_span: Option<u64>,
}

impl MessageEdge {
    /// One-way latency on the cluster clock.
    pub fn latency_nanos(&self) -> i64 {
        self.t_recv - self.t_send
    }
}

/// Per-rank wait accounting (see [`ClusterTrace::wait_breakdown`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitBreakdown {
    /// The rank.
    pub rank: usize,
    /// Wall-clock window spanned by this rank's spans (first begin to
    /// last end).
    pub window_nanos: u64,
    /// Total nanoseconds in wait-kind spans. Nested waits (a device wait
    /// inside an `mp_recv`) are counted once per kind, so the per-kind
    /// rows can sum to more than the window.
    pub total_wait_nanos: u64,
    /// Nanoseconds per wait kind, non-zero entries only.
    pub by_kind: Vec<(SpanKind, u64)>,
}

/// The longest weighted dependency chain through the span graph.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CriticalPath {
    /// Span ids along the path, earliest first.
    pub span_ids: Vec<u64>,
    /// Sum of span durations along the path.
    pub total_nanos: u64,
}

/// The merged timeline of one cluster run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterTrace {
    /// Number of ranks merged.
    pub ranks: usize,
    /// All intervals, no particular order.
    pub spans: Vec<TraceSpan>,
    /// All matched message pairs.
    pub edges: Vec<MessageEdge>,
    /// Per-rank count of ring events overwritten before the snapshot was
    /// taken ([`crate::Metric::TraceEventsDropped`]). Nonzero entries mean
    /// the timeline is a *suffix* of the run, not the whole of it.
    pub dropped_events: Vec<u64>,
    /// Per-rank count of span ends whose begin was already overwritten by
    /// ring wraparound. Each one is an interval silently missing from
    /// [`ClusterTrace::spans`], so any nonzero entry means the wait
    /// breakdown *under-reports* that rank.
    pub orphaned_ends: Vec<u64>,
}

impl SpanKind {
    /// Operation-level spans: nodes of the critical-path graph. Runtime
    /// phases (GC, stalls, serializer passes, device waits, pins) carry
    /// the *why* of a wait and feed the breakdown instead.
    pub fn is_op(self) -> bool {
        !matches!(
            self,
            SpanKind::Serialize
                | SpanKind::Deserialize
                | SpanKind::DeviceWait
                | SpanKind::RndvHandshake
                | SpanKind::Gc
                | SpanKind::SafepointStall
                | SpanKind::PinHeld
        )
    }
}

/// Build the cluster timeline from one snapshot per rank (rank =
/// slice index). See the module docs for what gets paired and matched.
pub fn build_cluster_trace(snaps: &[MetricsSnapshot]) -> ClusterTrace {
    let mut trace = ClusterTrace {
        ranks: snaps.len(),
        spans: Vec::new(),
        edges: Vec::new(),
        dropped_events: snaps
            .iter()
            .map(|s| s.get(crate::Metric::TraceEventsDropped))
            .collect(),
        orphaned_ends: vec![0; snaps.len()],
    };

    // Synthetic span ids must not collide with real ones.
    let mut next_syn = 1 + snaps
        .iter()
        .flat_map(|s| s.events())
        .filter_map(|e| match e.kind {
            EventKind::SpanBegin | EventKind::SpanEnd => Some(e.a),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let mut syn_id = || {
        let id = next_syn;
        next_syn += 1;
        id
    };

    // FIFO queues for payload matching: (src, dst, tag) -> events.
    type PayloadQ = HashMap<(usize, usize, i64), VecDeque<(i64, u64)>>;
    let mut sends: PayloadQ = HashMap::new();
    let mut recvs: PayloadQ = HashMap::new();
    // Exact-key maps for control-packet matching:
    // (kind, src, dst, sreq) -> (t, bytes), per direction.
    type CtlMap = HashMap<(EventKind, usize, usize, u64), (i64, u64)>;
    let mut ctl_sent: CtlMap = HashMap::new();
    let mut ctl_rcvd: CtlMap = HashMap::new();

    for (rank, snap) in snaps.iter().enumerate() {
        let mut evs: Vec<Event> = snap.events().to_vec();
        evs.sort_by_key(|e| e.t_nanos);

        // Open-interval state, keyed as each pairing rule requires.
        let mut open_spans: HashMap<u64, (SpanKind, i64, u64)> = HashMap::new();
        let mut open_pins: HashMap<u64, Vec<i64>> = HashMap::new();
        // sreq → (RTS time, bytes, whether a CTS came back).
        let mut open_rndv: HashMap<u64, (i64, u64, bool)> = HashMap::new();

        for e in &evs {
            let t = e.t_nanos as i64;
            match e.kind {
                EventKind::SpanBegin => {
                    if let Some(kind) = SpanKind::from_u64(e.b) {
                        open_spans.insert(e.a, (kind, t, e.c));
                    }
                }
                EventKind::SpanEnd => {
                    if let Some((kind, t0, _)) = open_spans.remove(&e.a) {
                        trace.spans.push(TraceSpan {
                            id: e.a,
                            rank,
                            kind,
                            t_begin: t0,
                            t_end: t,
                            arg: e.c,
                        });
                    } else {
                        trace.orphaned_ends[rank] += 1;
                    }
                }
                EventKind::PinAcquire => {
                    open_pins.entry(e.a).or_default().push(t);
                }
                EventKind::PinRelease => {
                    if let Some(t0) = open_pins.get_mut(&e.a).and_then(|v| v.pop()) {
                        trace.spans.push(TraceSpan {
                            id: syn_id(),
                            rank,
                            kind: SpanKind::PinHeld,
                            t_begin: t0,
                            t_end: t,
                            arg: e.a,
                        });
                    }
                }
                EventKind::MsgSend => {
                    let dst = e.a as usize;
                    sends
                        .entry((rank, dst, e.b as i64))
                        .or_default()
                        .push_back((t, e.c));
                }
                EventKind::MsgRecv => {
                    let src = e.a as usize;
                    recvs
                        .entry((src, rank, e.b as i64))
                        .or_default()
                        .push_back((t, e.c));
                }
                EventKind::RndvRts | EventKind::RndvCts | EventKind::RndvDone => {
                    let (peer, sent) = rndv_ctl_unpack(e.c);
                    // Normalize the key to (packet source, packet dest).
                    let (key, map) = if sent {
                        ((e.kind, rank, peer, e.a), &mut ctl_sent)
                    } else {
                        ((e.kind, peer, rank, e.a), &mut ctl_rcvd)
                    };
                    map.insert(key, (t, e.b));
                    // Sender-side RTS opens the handshake span covering
                    // the whole rendezvous; this rank's own Done closes it.
                    // Request ids are per rank, so the peer's transfer in
                    // the other direction may carry the same `sreq`: ours
                    // is the Done we sent if we streamed (a CTS came
                    // back), the Done we observed (the FIN) if not.
                    match (e.kind, sent) {
                        (EventKind::RndvRts, true) => {
                            open_rndv.insert(e.a, (t, e.b, false));
                        }
                        (EventKind::RndvCts, false) => {
                            if let Some(open) = open_rndv.get_mut(&e.a) {
                                open.2 = true;
                            }
                        }
                        (EventKind::RndvDone, _)
                            if open_rndv.get(&e.a).is_some_and(|o| o.2 == sent) =>
                        {
                            let (t0, bytes, _) = open_rndv.remove(&e.a).expect("just seen");
                            trace.spans.push(TraceSpan {
                                id: syn_id(),
                                rank,
                                kind: SpanKind::RndvHandshake,
                                t_begin: t0,
                                t_end: t,
                                arg: bytes,
                            });
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    // Payload edges: FIFO zip per (src, dst, tag).
    for (&(src, dst, tag), sq) in &mut sends {
        let Some(rq) = recvs.get_mut(&(src, dst, tag)) else {
            continue;
        };
        while let (Some(&(ts, cs)), Some(&(tr, cr))) = (sq.front(), rq.front()) {
            sq.pop_front();
            rq.pop_front();
            trace.edges.push(MessageEdge {
                kind: EdgeKind::Payload,
                src_rank: src,
                dst_rank: dst,
                tag,
                bytes: cr & !MSG_RNDV_FLAG,
                rndv: (cs | cr) & MSG_RNDV_FLAG != 0,
                t_send: ts,
                t_recv: tr,
                src_span: None,
                dst_span: None,
            });
        }
    }

    // Control edges: exact match on (kind, src, dst, sreq).
    for (&(kind, src, dst, _sreq), &(ts, bytes)) in &ctl_sent {
        let Some(&(tr, _)) = ctl_rcvd.get(&(kind, src, dst, _sreq)) else {
            continue;
        };
        let ek = match kind {
            EventKind::RndvRts => EdgeKind::Rts,
            EventKind::RndvCts => EdgeKind::Cts,
            _ => EdgeKind::Done,
        };
        trace.edges.push(MessageEdge {
            kind: ek,
            src_rank: src,
            dst_rank: dst,
            tag: 0,
            bytes,
            rndv: true,
            t_send: ts,
            t_recv: tr,
            src_span: None,
            dst_span: None,
        });
    }

    // Attach the smallest containing op span to each payload endpoint.
    let mut by_rank: HashMap<usize, Vec<&TraceSpan>> = HashMap::new();
    for s in trace.spans.iter().filter(|s| s.kind.is_op()) {
        by_rank.entry(s.rank).or_default().push(s);
    }
    let containing = |rank: usize, t: i64| -> Option<u64> {
        by_rank
            .get(&rank)?
            .iter()
            .filter(|s| s.t_begin <= t && t <= s.t_end)
            .min_by_key(|s| s.dur_nanos())
            .map(|s| s.id)
    };
    let located: Vec<(Option<u64>, Option<u64>)> = trace
        .edges
        .iter()
        .map(|e| {
            (
                containing(e.src_rank, e.t_send),
                containing(e.dst_rank, e.t_recv),
            )
        })
        .collect();
    for (e, (s, d)) in trace.edges.iter_mut().zip(located) {
        e.src_span = s;
        e.dst_span = d;
    }

    // Deterministic output order.
    trace.spans.sort_by_key(|s| (s.rank, s.t_begin, s.id));
    trace
        .edges
        .sort_by_key(|e| (e.t_send, e.src_rank, e.dst_rank, e.tag));
    trace
}

impl ClusterTrace {
    /// Every span id present in the trace.
    pub fn span_ids(&self) -> HashSet<u64> {
        self.spans.iter().map(|s| s.id).collect()
    }

    /// Ranks whose span coverage has gaps — ring wraparound dropped
    /// events ([`Self::dropped_events`]) or ate the begin of a recorded
    /// end ([`Self::orphaned_ends`]) — as `(rank, dropped, orphaned)`
    /// rows. Consumers (e.g. `motor-trace summary`) should warn on any
    /// row: wait breakdowns computed from this trace are lower bounds.
    pub fn coverage_gaps(&self) -> Vec<(usize, u64, u64)> {
        (0..self.ranks)
            .filter_map(|r| {
                let dropped = self.dropped_events.get(r).copied().unwrap_or(0);
                let orphaned = self.orphaned_ends.get(r).copied().unwrap_or(0);
                (dropped > 0 || orphaned > 0).then_some((r, dropped, orphaned))
            })
            .collect()
    }

    /// Per-rank wait accounting: how much of each rank's window went to
    /// waiting on the cluster (device waits, explicit waits/probes, GC
    /// pauses, safepoint stalls), by kind.
    pub fn wait_breakdown(&self) -> Vec<WaitBreakdown> {
        (0..self.ranks)
            .map(|rank| {
                let spans: Vec<&TraceSpan> = self.spans.iter().filter(|s| s.rank == rank).collect();
                let window = match (
                    spans.iter().map(|s| s.t_begin).min(),
                    spans.iter().map(|s| s.t_end).max(),
                ) {
                    (Some(lo), Some(hi)) => (hi - lo).max(0) as u64,
                    _ => 0,
                };
                let mut by_kind: Vec<(SpanKind, u64)> = Vec::new();
                for k in SpanKind::ALL {
                    if !k.is_wait() {
                        continue;
                    }
                    let total: u64 = spans
                        .iter()
                        .filter(|s| s.kind == k)
                        .map(|s| s.dur_nanos())
                        .sum();
                    if total > 0 {
                        by_kind.push((k, total));
                    }
                }
                WaitBreakdown {
                    rank,
                    window_nanos: window,
                    total_wait_nanos: by_kind.iter().map(|&(_, n)| n).sum(),
                    by_kind,
                }
            })
            .collect()
    }

    /// The longest weighted dependency chain through the op-span graph.
    ///
    /// Dependencies: program order within a rank (a span depends on every
    /// same-rank op span that ended before it began) and message edges
    /// (the receiving span depends on the sending span). The weight of a
    /// path is the sum of its spans' durations; computed by a forward DP
    /// over spans in end-time order (an edge whose source ends after the
    /// sink is dropped, which also rules out cycles from symmetric
    /// exchanges).
    pub fn critical_path(&self) -> CriticalPath {
        let ops: Vec<&TraceSpan> = self.spans.iter().filter(|s| s.kind.is_op()).collect();
        if ops.is_empty() {
            return CriticalPath::default();
        }
        let idx_of: HashMap<u64, usize> = ops.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        // Message preds per sink index.
        let mut msg_preds: HashMap<usize, Vec<usize>> = HashMap::new();
        for e in &self.edges {
            if let (Some(s), Some(d)) = (e.src_span, e.dst_span) {
                if let (Some(&si), Some(&di)) = (idx_of.get(&s), idx_of.get(&d)) {
                    if si != di {
                        msg_preds.entry(di).or_default().push(si);
                    }
                }
            }
        }
        let mut order: Vec<usize> = (0..ops.len()).collect();
        order.sort_by_key(|&i| (ops[i].t_end, ops[i].id));
        let mut dist: Vec<u64> = vec![0; ops.len()];
        let mut pred: Vec<Option<usize>> = vec![None; ops.len()];
        for &i in &order {
            let b = ops[i];
            let mut best: Option<(u64, usize)> = None;
            let mut consider = |j: usize| {
                if j != i && ops[j].t_end <= b.t_end && best.is_none_or(|(d, _)| dist[j] > d) {
                    best = Some((dist[j], j));
                }
            };
            for (j, p) in ops.iter().enumerate() {
                if p.rank == b.rank && p.t_end <= b.t_begin {
                    consider(j);
                }
            }
            for &j in msg_preds.get(&i).into_iter().flatten() {
                consider(j);
            }
            dist[i] = b.dur_nanos() + best.map_or(0, |(d, _)| d);
            pred[i] = best.map(|(_, j)| j);
        }
        let mut at = (0..ops.len()).max_by_key(|&i| dist[i]).unwrap();
        let total = dist[at];
        let mut ids = vec![ops[at].id];
        while let Some(p) = pred[at] {
            ids.push(ops[p].id);
            at = p;
        }
        ids.reverse();
        CriticalPath {
            span_ids: ids,
            total_nanos: total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MetricsRegistry, SpanKind};
    use std::time::Instant;

    #[test]
    fn rndv_ctl_roundtrip() {
        for peer in [0usize, 3, 1 << 20] {
            for sent in [false, true] {
                assert_eq!(rndv_ctl_unpack(rndv_ctl(peer, sent)), (peer, sent));
            }
        }
    }

    fn two_rank_snaps() -> Vec<crate::MetricsSnapshot> {
        let epoch = Instant::now();
        let r0 = MetricsRegistry::with_epoch(epoch, 64);
        let r1 = MetricsRegistry::with_epoch(epoch, 64);
        // Rank 0 sends 16 bytes, tag 7, inside an mp_send span.
        {
            let _g = r0.span(SpanKind::MpSend, crate::span_arg_peer_tag(1, 7));
            r0.event3(EventKind::MsgSend, 1, 7, 16);
        }
        // Rank 1 receives it inside an mp_recv span.
        {
            let _g = r1.span(SpanKind::MpRecv, crate::span_arg_peer_tag(0, 7));
            r1.event3(EventKind::MsgRecv, 0, 7, 16);
        }
        vec![r0.snapshot(), r1.snapshot()]
    }

    #[test]
    fn payload_edge_matched_with_containing_spans() {
        let t = build_cluster_trace(&two_rank_snaps());
        assert_eq!(t.ranks, 2);
        assert_eq!(t.edges.len(), 1);
        let e = &t.edges[0];
        assert_eq!(e.kind, EdgeKind::Payload);
        assert_eq!((e.src_rank, e.dst_rank, e.tag, e.bytes), (0, 1, 7, 16));
        assert!(!e.rndv);
        assert!(e.src_span.is_some() && e.dst_span.is_some());
        let ids = t.span_ids();
        assert!(ids.contains(&e.src_span.unwrap()));
        assert!(ids.contains(&e.dst_span.unwrap()));
    }

    #[test]
    fn fifo_matching_pairs_in_order() {
        let epoch = Instant::now();
        let r0 = MetricsRegistry::with_epoch(epoch, 64);
        let r1 = MetricsRegistry::with_epoch(epoch, 64);
        r0.event3(EventKind::MsgSend, 1, 5, 100);
        r0.event3(EventKind::MsgSend, 1, 5, 200);
        r1.event3(EventKind::MsgRecv, 0, 5, 100);
        r1.event3(EventKind::MsgRecv, 0, 5, 200);
        let t = build_cluster_trace(&[r0.snapshot(), r1.snapshot()]);
        assert_eq!(t.edges.len(), 2);
        assert_eq!(t.edges[0].bytes, 100);
        assert_eq!(t.edges[1].bytes, 200);
        assert!(t.edges.iter().all(|e| e.latency_nanos() >= 0));
    }

    #[test]
    fn rndv_control_edges_and_handshake_span() {
        let epoch = Instant::now();
        let r0 = MetricsRegistry::with_epoch(epoch, 64);
        let r1 = MetricsRegistry::with_epoch(epoch, 64);
        let sreq = 42;
        // Sender (rank 0) RTS out, receiver sees it, CTS back, payload
        // flush, receiver completion.
        r0.event3(EventKind::RndvRts, sreq, 1 << 20, rndv_ctl(1, true));
        r1.event3(EventKind::RndvRts, sreq, 1 << 20, rndv_ctl(0, false));
        r1.event3(EventKind::RndvCts, sreq, 1 << 20, rndv_ctl(0, true));
        r0.event3(EventKind::RndvCts, sreq, 1 << 20, rndv_ctl(1, false));
        r0.event3(EventKind::MsgSend, 1, 9, (1 << 20) | MSG_RNDV_FLAG);
        r0.event3(EventKind::RndvDone, sreq, 1 << 20, rndv_ctl(1, true));
        r1.event3(EventKind::MsgRecv, 0, 9, (1 << 20) | MSG_RNDV_FLAG);
        r1.event3(EventKind::RndvDone, sreq, 1 << 20, rndv_ctl(0, false));
        let t = build_cluster_trace(&[r0.snapshot(), r1.snapshot()]);
        let kinds: Vec<EdgeKind> = t.edges.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EdgeKind::Rts));
        assert!(kinds.contains(&EdgeKind::Cts));
        assert!(kinds.contains(&EdgeKind::Done));
        let payload = t
            .edges
            .iter()
            .find(|e| e.kind == EdgeKind::Payload)
            .unwrap();
        assert!(payload.rndv);
        assert_eq!(payload.bytes, 1 << 20);
        // CTS flows receiver -> sender.
        let cts = t.edges.iter().find(|e| e.kind == EdgeKind::Cts).unwrap();
        assert_eq!((cts.src_rank, cts.dst_rank), (1, 0));
        assert!(t
            .spans
            .iter()
            .any(|s| s.kind == SpanKind::RndvHandshake && s.rank == 0));
    }

    #[test]
    fn wait_breakdown_and_critical_path() {
        let t = build_cluster_trace(&two_rank_snaps());
        let wb = t.wait_breakdown();
        assert_eq!(wb.len(), 2);
        assert!(wb
            .iter()
            .all(|w| w.window_nanos > 0 || w.by_kind.is_empty()));
        let cp = t.critical_path();
        assert!(!cp.span_ids.is_empty());
        let ids = t.span_ids();
        assert!(cp.span_ids.iter().all(|id| ids.contains(id)));
        // The send happens-before the recv, so the path should cross the
        // message edge and end in the receive span.
        let e = &t.edges[0];
        assert_eq!(cp.span_ids.last(), Some(&e.dst_span.unwrap()));
        assert!(cp.span_ids.contains(&e.src_span.unwrap()));
    }

    #[test]
    fn coverage_gaps_flag_orphaned_ends_and_drops() {
        // A tiny ring plus a long-lived span: the inner spans wrap the
        // ring and overwrite the outer begin, so the outer end arrives
        // with its begin already gone.
        let r = MetricsRegistry::with_epoch(Instant::now(), 8);
        let outer = r.span(SpanKind::Barrier, 0);
        for _ in 0..16 {
            let _g = r.span(SpanKind::Bcast, 0);
        }
        drop(outer);
        let t = build_cluster_trace(&[r.snapshot()]);
        let gaps = t.coverage_gaps();
        assert_eq!(gaps.len(), 1, "wraparound must be reported as a gap");
        let (rank, dropped, orphaned) = gaps[0];
        assert_eq!(rank, 0);
        assert!(dropped > 0);
        assert!(orphaned > 0, "ends without begins must be counted");

        // A clean trace reports no gaps.
        assert!(build_cluster_trace(&two_rank_snaps())
            .coverage_gaps()
            .is_empty());
    }

    #[test]
    fn synthesized_spans_from_runtime_events() {
        // The two intervals no guard can cover: a pin released on another
        // call path, and a rendezvous the progress engine completes.
        let r = MetricsRegistry::new();
        let recorded = r.span(SpanKind::Gc, 1).id();
        r.event3(EventKind::PinAcquire, 0xdead, 0, 0);
        r.event3(EventKind::PinAcquire, 0xbeef, 1, 0); // conditional: never released
        r.event3(EventKind::PinRelease, 0xdead, 0, 0);
        r.event3(EventKind::RndvRts, 7, 4096, rndv_ctl(1, true));
        r.event3(EventKind::RndvCts, 7, 4096, rndv_ctl(1, false));
        r.event3(EventKind::RndvDone, 7, 4096, rndv_ctl(1, true));
        // Inbound: no handshake.
        r.event3(EventKind::RndvRts, 8, 64, rndv_ctl(1, false));
        // Single copy: no CTS, and the Done that closes is the FIN this
        // rank observes — not the FIN it sends for the peer's transfer
        // that happens to carry the same request id.
        r.event3(EventKind::RndvRts, 9, 512, rndv_ctl(1, true));
        r.event3(EventKind::RndvRts, 9, 64, rndv_ctl(1, false));
        r.event3(EventKind::RndvDone, 9, 64, rndv_ctl(1, true));
        let fin_due = r.now_nanos() as i64;
        r.event3(EventKind::RndvDone, 9, 512, rndv_ctl(1, false));
        let t = build_cluster_trace(&[r.snapshot()]);
        let of = |k| t.spans.iter().filter(|s| s.kind == k).collect::<Vec<_>>();
        assert_eq!(of(SpanKind::Gc)[0].id, recorded);
        let pins = of(SpanKind::PinHeld);
        assert_eq!(pins.len(), 1, "only the released hard pin is an interval");
        assert_eq!(pins[0].arg, 0xdead);
        let rndv = of(SpanKind::RndvHandshake);
        assert_eq!(rndv.len(), 2, "only the sender side opens a handshake");
        assert_eq!((rndv[0].arg, rndv[1].arg), (4096, 512));
        assert!(rndv[1].t_end >= fin_due, "closed by the FIN it observed");
        // Ids are unique across recorded and synthesized spans.
        assert_eq!(t.span_ids().len(), t.spans.len());
        assert_eq!(t.orphaned_ends, vec![0]);
    }
}
