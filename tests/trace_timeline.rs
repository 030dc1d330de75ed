//! Acceptance test for the cluster trace timeline: a 4-rank run whose
//! merged trace matches every completed point-to-point operation into a
//! send→recv edge with non-negative calibrated latency, round-trips
//! through the Chrome-trace-event export, and yields a critical path made
//! only of spans that exist in the trace.

use motor::core::cluster::{run_cluster, ClusterConfig};
use motor::mpc::universe::ChannelKind;
use motor::obs::{from_chrome_json, to_chrome_json, EdgeKind, EventKind, SpanKind};
use motor::runtime::ElemKind;

const RANKS: usize = 4;

/// Eager ring + rendezvous pair + barrier: a little of every transport
/// path, deterministic message counts.
fn body(proc: &motor::core::MotorProc) {
    let mp = proc.mp();
    let t = proc.thread();
    let (rank, size) = (mp.rank(), mp.size());

    // Each rank sends one small (eager) message to its right neighbour.
    let small = t.alloc_prim_array(ElemKind::I64, 32);
    let right = (rank + 1) % size;
    let left = (rank + size - 1) % size;
    if rank % 2 == 0 {
        mp.send(small, right, 3).unwrap();
        mp.recv(small, left, 3).unwrap();
    } else {
        let tmp = t.alloc_prim_array(ElemKind::I64, 32);
        mp.recv(tmp, left, 3).unwrap();
        mp.send(small, right, 3).unwrap();
        t.release(tmp);
    }

    // One rendezvous-sized transfer, rank 0 → rank 1.
    let big_n = 1 << 17;
    if rank == 0 {
        let big = t.alloc_prim_array(ElemKind::U8, big_n);
        mp.send(big, 1, 5).unwrap();
        t.release(big);
    } else if rank == 1 {
        let big = t.alloc_prim_array(ElemKind::U8, big_n);
        let st = mp.recv(big, 0, 5).unwrap();
        assert_eq!(st.bytes, big_n);
        t.release(big);
    }

    mp.barrier().unwrap();
    t.release(small);
}

/// Over shm the rendezvous leg is a single copy (RTS, the receiver's
/// copy, FIN); over TCP it is streamed (RTS, CTS, data). Everything else
/// the timeline promises is the same.
#[test]
fn four_rank_trace_matches_every_p2p_op_over_shm() {
    four_rank_trace_matches_every_p2p_op(ChannelKind::Shm);
}

#[test]
fn four_rank_trace_matches_every_p2p_op_over_tcp() {
    four_rank_trace_matches_every_p2p_op(ChannelKind::Tcp);
}

fn four_rank_trace_matches_every_p2p_op(channel: ChannelKind) {
    let config = ClusterConfig::builder()
        .ranks(RANKS)
        .transport(channel)
        .event_capacity(1 << 14)
        .build();
    let metrics = run_cluster(config, |_| {}, body).unwrap();

    let trace = metrics.trace();
    assert_eq!(trace.ranks, RANKS);

    // Every recorded message-completion event is matched into an edge:
    // the k-th send from (src, dst, tag) pairs with the k-th receive, so
    // with no ring overwrite the edge count equals the send count equals
    // the receive count (this includes the startup clock-sync traffic and
    // any point-to-point legs of the barrier).
    let sends: usize = metrics
        .per_rank
        .iter()
        .map(|s| {
            s.events()
                .iter()
                .filter(|e| e.kind == EventKind::MsgSend)
                .count()
        })
        .sum();
    let recvs: usize = metrics
        .per_rank
        .iter()
        .map(|s| {
            s.events()
                .iter()
                .filter(|e| e.kind == EventKind::MsgRecv)
                .count()
        })
        .sum();
    let payload_edges = trace
        .edges
        .iter()
        .filter(|e| e.kind == EdgeKind::Payload)
        .count();
    assert_eq!(sends, recvs, "every send completed with a matching recv");
    assert_eq!(payload_edges, sends, "every completed p2p op has an edge");
    assert!(payload_edges > RANKS, "ring + rendezvous at minimum");

    // The rendezvous transfer contributes its control edges too: a CTS
    // exactly where the payload is streamed.
    let control = |kind| trace.edges.iter().filter(move |e| e.kind == kind && e.rndv);
    for kind in [EdgeKind::Rts, EdgeKind::Done] {
        assert_eq!(control(kind).count(), 1, "rendezvous edge {kind:?}");
    }
    let streamed = matches!(channel, ChannelKind::Tcp);
    assert_eq!(control(EdgeKind::Cts).count(), streamed as usize);
    // Done follows the data: with the stream's last byte, or back to the
    // sender as the FIN of the receiver's copy.
    let done = control(EdgeKind::Done).next().unwrap();
    let (from, to) = if streamed { (0, 1) } else { (1, 0) };
    assert_eq!((done.src_rank, done.dst_rank), (from, to));
    // One handshake span on the sender, RTS out → its send completes.
    let handshakes: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::RndvHandshake)
        .collect();
    assert_eq!(handshakes.len(), 1);
    assert_eq!((handshakes[0].rank, handshakes[0].arg), (0, 1 << 17));
    assert!(handshakes[0].t_end > handshakes[0].t_begin);
    assert_eq!(trace.orphaned_ends, vec![0; RANKS]);

    // Calibrated latencies are non-negative on every edge, and the
    // rendezvous payload edge carries the right byte count.
    for e in &trace.edges {
        assert!(
            e.latency_nanos() >= 0,
            "negative latency on {:?} edge {} -> {}",
            e.kind,
            e.src_rank,
            e.dst_rank
        );
    }
    let rndv = trace
        .edges
        .iter()
        .find(|e| e.kind == EdgeKind::Payload && e.rndv)
        .expect("rendezvous payload edge");
    assert_eq!((rndv.src_rank, rndv.dst_rank), (0, 1));
    assert_eq!(rndv.bytes, 1 << 17);

    // Explicit operation spans made it into the timeline.
    for kind in [SpanKind::MpSend, SpanKind::MpRecv, SpanKind::Barrier] {
        assert!(
            trace.spans.iter().any(|s| s.kind == kind),
            "missing {:?} span",
            kind
        );
    }

    // The critical path references only spans that exist, and does work.
    let ids = trace.span_ids();
    let cp = trace.critical_path();
    assert!(!cp.span_ids.is_empty());
    assert!(cp.total_nanos > 0);
    for id in &cp.span_ids {
        assert!(ids.contains(id), "critical-path span {id} not in trace");
    }

    // Wait accounting covers every rank that waited on the device.
    let wb = trace.wait_breakdown();
    assert_eq!(wb.len(), RANKS);
    assert!(wb.iter().any(|w| w.total_wait_nanos > 0));

    // Perfetto export round-trips losslessly and keeps the edges.
    let json = to_chrome_json(&trace);
    let back = from_chrome_json(&json).unwrap();
    assert_eq!(back, trace);
    assert!(!back.edges.is_empty());
}

/// The runtime's timed regions are spans like any other: bouncing a
/// Figure-10 linked list through a young generation small enough to force
/// minor collections must accrue `serialize` and `gc` wall clock in the
/// rank's merged metrics (both buckets were structurally zero while those
/// regions were hand-rolled event pairs the phase machine never saw), keep
/// the five buckets a partition of the window, and still put serializer,
/// collector and device-wait slices on the merged timeline.
#[test]
fn serializer_and_gc_spans_accrue_their_time_buckets() {
    use motor::obs::Metric;
    use motor::runtime::heap::HeapConfig;
    use motor::runtime::{ClassId, VmConfig};

    const NODES: usize = 64;
    const BOUNCES: usize = 40;
    let config = ClusterConfig::builder()
        .ranks(2)
        .event_capacity(1 << 16)
        .vm(VmConfig {
            heap: HeapConfig {
                young_bytes: 16 * 1024,
                ..HeapConfig::default()
            },
        })
        .build();
    let define = |reg: &mut motor::runtime::TypeRegistry| {
        let arr = reg.prim_array(ElemKind::I32);
        let next = ClassId(reg.len() as u32);
        reg.define_class("LinkedArray")
            .transportable("array", arr)
            .transportable("next", next)
            .build();
    };
    let metrics = run_cluster(config, define, |proc| {
        let window = std::time::Instant::now();
        let (t, oomp) = (proc.thread(), proc.oomp());
        let node = proc.vm().registry().by_name("LinkedArray").unwrap();
        let (farr, fnext) = (t.field_index(node, "array"), t.field_index(node, "next"));
        let mut list = t.null_handle();
        if proc.rank() == 0 {
            for i in 0..NODES as i32 {
                let (h, a) = (
                    t.alloc_instance(node),
                    t.alloc_prim_array(ElemKind::I32, 16),
                );
                t.prim_write(a, 0, &[i; 16]);
                t.set_ref(h, farr, a);
                t.set_ref(h, fnext, list);
                t.release(a);
                t.release(list);
                list = h;
            }
        }
        let peer = 1 - proc.rank();
        for _ in 0..BOUNCES {
            if proc.rank() == 0 {
                oomp.osend(list, peer, 10).unwrap();
            }
            t.release(list);
            list = oomp.orecv(peer, 10).unwrap().0;
            if proc.rank() == 1 {
                oomp.osend(list, peer, 10).unwrap();
            }
        }

        let wall = window.elapsed().as_nanos() as u64;
        let m = proc.metrics();
        let rank = proc.rank();
        assert!(m.get(Metric::GcMinorCollections) > 0, "rank {rank}: no GC");
        assert!(m.get(Metric::ProfSerializeNanos) > 0, "rank {rank}");
        assert!(m.get(Metric::ProfGcNanos) > 0, "rank {rank}");
        let accounted: u64 = m.bucket_nanos().iter().sum();
        assert!(
            accounted as f64 >= 0.95 * wall as f64,
            "rank {rank}: buckets cover {accounted} of {wall} ns"
        );
    })
    .unwrap();

    let trace = metrics.trace();
    assert_eq!(trace.orphaned_ends, vec![0, 0]);
    assert_eq!(trace.dropped_events, vec![0, 0]);
    for rank in 0..2 {
        for kind in [
            SpanKind::Serialize,
            SpanKind::Deserialize,
            SpanKind::Gc,
            SpanKind::DeviceWait,
        ] {
            assert!(
                trace.spans.iter().any(|s| s.rank == rank && s.kind == kind),
                "rank {rank}: no {kind:?} span on the merged timeline"
            );
        }
    }
}
