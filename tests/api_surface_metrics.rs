//! The whole public `System.MP` surface, driven through the prelude on a
//! four-rank cluster, with the `motor-obs` metrics asserted consistent at
//! the end: eager and rendezvous sends both observed, the `gc_*` counters
//! of the merged snapshot equal to the VM's own `stats_snapshot()` view,
//! and the serializer/buffer-pool counters accounting for every object
//! shipped.

use motor::prelude::*;

const RANKS: usize = 4;
/// Small enough that the 8 KiB transfers below take the rendezvous path
/// while the 256-byte ring stays eager.
const EAGER_THRESHOLD: usize = 1024;

#[test]
fn api_surface_metrics_consistency() {
    let config = ClusterConfig::builder()
        .ranks(RANKS)
        .transport(ChannelKind::Shm)
        .eager_threshold(EAGER_THRESHOLD)
        .build();
    let metrics = run_cluster(
        config,
        |reg| {
            let arr = reg.prim_array(ElemKind::I32);
            reg.define_class("Packet")
                .prim("id", ElemKind::I32)
                .transportable("data", arr)
                .build();
        },
        |proc| {
            let mp = proc.mp();
            let oomp = proc.oomp();
            let t = proc.thread();
            let rank = mp.rank();
            let n = mp.size();
            assert_eq!(n, RANKS);
            let right = (rank + 1) % n;
            let left = (rank + n - 1) % n;

            // --- non-blocking ring: isend / irecv / test / wait ---
            let tx = t.alloc_prim_array(ElemKind::U8, 256);
            let rx = t.alloc_prim_array(ElemKind::U8, 256);
            let mut rreq = mp.irecv(rx, Source::Rank(left), 1).unwrap();
            let mut sreq = mp.isend(tx, right, 1).unwrap();
            let mut st = None;
            while st.is_none() {
                st = mp.test(&mut rreq).unwrap();
            }
            assert_eq!(st.unwrap().source, left);
            mp.wait(&mut sreq).unwrap();

            // --- blocking eager send / ssend / recv (concrete and Any) ---
            if rank == 0 {
                mp.send(tx, 1, 2).unwrap();
                mp.ssend(tx, 1, 3).unwrap();
            } else if rank == 1 {
                let st = mp.recv(rx, Source::Rank(0), 2).unwrap();
                assert_eq!((st.source, st.bytes), (0, 256));
                mp.recv(rx, Source::Any, 3).unwrap();
            }

            // --- sub-range transfers, twice over ---
            if rank == 2 {
                let big = t.alloc_prim_array(ElemKind::U8, 512);
                mp.send_sub(big, 128..384, 3, 4).unwrap();
                mp.send_sub(big, 128..384, 3, 4).unwrap();
            } else if rank == 3 {
                let big = t.alloc_prim_array(ElemKind::U8, 512);
                let st = mp.recv_sub(big, ..256, Source::Rank(2), 4).unwrap();
                assert_eq!(st.bytes, 256);
                let st = mp.recv_sub(big, 0..256, Source::Rank(2), 4).unwrap();
                assert_eq!(st.bytes, 256);
            }

            // --- rendezvous path with probe / iprobe first ---
            if rank == 0 {
                let big = t.alloc_prim_array(ElemKind::U8, 8 * EAGER_THRESHOLD);
                mp.send(big, 1, 5).unwrap();
            } else if rank == 1 {
                let big = t.alloc_prim_array(ElemKind::U8, 8 * EAGER_THRESHOLD);
                loop {
                    if let Some(st) = mp.iprobe(Source::Any, 5).unwrap() {
                        assert_eq!(st.source, 0);
                        break;
                    }
                }
                let st = mp.probe(Source::Rank(0), 5).unwrap();
                assert_eq!(st.bytes, 8 * EAGER_THRESHOLD);
                mp.recv(big, st.source, 5).unwrap();
            }
            mp.barrier().unwrap();

            // --- collectives ---
            let b = t.alloc_prim_array(ElemKind::I32, 4);
            if rank == 0 {
                t.prim_write(b, 0, &[9i32, 8, 7, 6]);
            }
            mp.bcast(b, 0).unwrap();
            let mut got = [0i32; 4];
            t.prim_read(b, 0, &mut got);
            assert_eq!(got, [9, 8, 7, 6]);

            let recv1 = t.alloc_prim_array(ElemKind::I32, 1);
            let send_all = if rank == 0 {
                let s = t.alloc_prim_array(ElemKind::I32, n);
                t.prim_write(s, 0, &[10i32, 11, 12, 13]);
                Some(s)
            } else {
                None
            };
            mp.scatter(send_all, recv1, 0).unwrap();
            let mut mine = [0i32];
            t.prim_read(recv1, 0, &mut mine);
            assert_eq!(mine[0], 10 + rank as i32);

            let gat = if rank == 0 {
                Some(t.alloc_prim_array(ElemKind::I32, n))
            } else {
                None
            };
            mp.gather(recv1, gat, 0).unwrap();
            if rank == 0 {
                let mut all = [0i32; RANKS];
                t.prim_read(gat.unwrap(), 0, &mut all);
                assert_eq!(all, [10, 11, 12, 13]);
            }

            let rin = t.alloc_prim_array(ElemKind::I64, 1);
            let rout = t.alloc_prim_array(ElemKind::I64, 1);
            t.prim_write(rin, 0, &[1i64 << rank]);
            mp.allreduce(rin, rout, ReduceOp::Sum).unwrap();
            let mut mask = [0i64];
            t.prim_read(rout, 0, &mut mask);
            assert_eq!(mask[0], 0b1111);

            // --- object operations ---
            let cls = proc.vm().registry().by_name("Packet").unwrap();
            let (fid, fdata) = (t.field_index(cls, "id"), t.field_index(cls, "data"));
            let mk = |id: i32, len: usize| {
                let o = t.alloc_instance(cls);
                t.set_prim::<i32>(o, fid, id);
                let d = t.alloc_prim_array(ElemKind::I32, len);
                t.set_ref(o, fdata, d);
                t.release(d);
                o
            };

            // osend / orecv around the ring, wildcard receive.
            let out = mk(rank as i32, 8);
            oomp.osend(out, right, 6).unwrap();
            let (got_o, st) = oomp.orecv(Source::Any, 6).unwrap();
            assert_eq!(st.source, left);
            assert_eq!(t.get_prim::<i32>(got_o, fid), left as i32);

            // osend_sub: ship the middle two of a four-element array, twice.
            if rank == 1 {
                let arr = t.alloc_obj_array(cls, 4);
                for i in 0..4 {
                    let e = mk(100 + i as i32, 2);
                    t.obj_array_set(arr, i, e);
                    t.release(e);
                }
                oomp.osend_sub(arr, 1..3, 2, 7).unwrap();
                oomp.osend_sub(arr, 1..=2, 2, 7).unwrap();
            } else if rank == 2 {
                for _ in 0..2 {
                    let (sub, _) = oomp.orecv(Source::Rank(1), 7).unwrap();
                    assert_eq!(t.array_len(sub), 2);
                    let e = t.obj_array_get(sub, 0);
                    assert_eq!(t.get_prim::<i32>(e, fid), 101);
                    t.release(e);
                }
            }

            // obcast / oscatter / ogather.
            let root_obj = if rank == 0 { Some(mk(42, 4)) } else { None };
            let copy = oomp.obcast(root_obj, 0).unwrap();
            assert_eq!(t.get_prim::<i32>(copy, fid), 42);

            let input = if rank == 0 {
                let arr = t.alloc_obj_array(cls, n);
                for i in 0..n {
                    let e = mk(i as i32, 2);
                    t.obj_array_set(arr, i, e);
                    t.release(e);
                }
                Some(arr)
            } else {
                None
            };
            let chunk = oomp.oscatter(input, 0).unwrap();
            assert_eq!(t.array_len(chunk), 1);
            let e = t.obj_array_get(chunk, 0);
            assert_eq!(t.get_prim::<i32>(e, fid), rank as i32);
            t.release(e);
            let full = oomp.ogather(chunk, 0).unwrap();
            if rank == 0 {
                assert_eq!(t.array_len(full.unwrap()), n);
            }
            mp.barrier().unwrap();

            // --- per-rank: the merged snapshot's GC counters must agree
            // with the VM's own view of them, counter for counter. ---
            let m = proc.metrics();
            let gc = proc.vm().stats_snapshot();
            assert_eq!(m.get(Metric::GcPins), gc.pins);
            assert_eq!(m.get(Metric::GcUnpins), gc.unpins);
            assert_eq!(m.get(Metric::GcPinsAvoidedElder), gc.pins_avoided_elder);
            assert_eq!(
                m.get(Metric::GcPinsAvoidedFastBlocking),
                gc.pins_avoided_fast_blocking
            );
            assert_eq!(
                m.get(Metric::GcCondPinsRegistered),
                gc.conditional_pins_registered
            );
            assert_eq!(m.get(Metric::GcMinorCollections), gc.minor_collections);
            // The non-blocking ring ops above protect their buffers with
            // conditional pins; the pinning policy must have engaged.
            assert!(m.get(Metric::GcCondPinsRegistered) >= 2);
            assert!(
                gc.pins
                    + gc.conditional_pins_registered
                    + gc.pins_avoided_elder
                    + gc.pins_avoided_fast_blocking
                    > 0
            );
        },
    )
    .unwrap();

    assert_eq!(metrics.per_rank.len(), RANKS);
    let agg = metrics.aggregate();
    let r = RANKS as u64;

    // Both protocol paths taken, with matching histogram populations.
    assert!(agg.get(Metric::SendsEager) > 0, "eager sends observed");
    assert!(agg.get(Metric::SendsRndv) > 0, "rendezvous sends observed");
    assert!(agg.get(Metric::SendsSync) > 0, "ssend observed");
    assert!(agg.hist(Hist::EagerSendBytes).count() > 0);
    assert!(agg.hist(Hist::RndvSendBytes).count() > 0);
    assert!(agg.get(Metric::RndvDone) > 0);

    // Traffic flowed through the channel layer in both directions.
    assert!(agg.get(Metric::ChanFramesOut) > 0);
    assert!(agg.get(Metric::ChanFramesIn) > 0);
    assert!(agg.get(Metric::ChanBytesOut) > 0);
    assert!(agg.get(Metric::ChanBytesIn) > 0);
    assert!(agg.get(Metric::MatchAttempts) > 0);

    // Every collective was counted on every rank, exactly once per call.
    // An object collective books the byte collectives it runs on: obcast
    // a size bcast and a body bcast, oscatter a size scatter and a body
    // scatterv, ogather a size gather and a body gatherv.
    assert_eq!(agg.get(Metric::CollBarrier), 2 * r);
    assert_eq!(agg.get(Metric::CollBcast), r + 2 * r);
    assert_eq!(agg.get(Metric::CollScatter), r + r);
    assert_eq!(agg.get(Metric::CollScatterv), r);
    assert_eq!(agg.get(Metric::CollGather), r + r);
    assert_eq!(agg.get(Metric::CollGatherv), r);
    assert_eq!(agg.get(Metric::CollAllreduce), r);

    // Object transport: 4 ring osends + the two range sends; orecv
    // likewise; obcast + oscatter + ogather on every rank.
    assert_eq!(agg.get(Metric::OompOsends), r + 2);
    assert_eq!(agg.get(Metric::OompOrecvs), r + 2);
    assert_eq!(agg.get(Metric::OompCollectives), 3 * r);

    // Serializer accounting: every osend serialized a graph, every graph
    // at least a Packet and its data array; every wire byte produced was
    // consumed by a deserializer somewhere.
    assert!(agg.get(Metric::SerOps) >= agg.get(Metric::OompOsends));
    assert!(agg.get(Metric::SerObjects) >= 2 * agg.get(Metric::OompOsends));
    assert!(agg.get(Metric::SerBytes) > 0);
    assert!(agg.get(Metric::DeserOps) > 0);
    assert!(agg.get(Metric::DeserBytes) > 0);
    assert!(agg.hist(Hist::SerializedGraphBytes).count() >= agg.get(Metric::OompOsends));

    // Buffer pool books balance.
    assert!(agg.get(Metric::PoolGets) > 0);
    assert_eq!(
        agg.get(Metric::PoolGets),
        agg.get(Metric::PoolHits) + agg.get(Metric::PoolPartialHits) + agg.get(Metric::PoolMisses)
    );

    // Queue peaks are maxima, not sums: bounded by what one rank can see.
    assert!(agg.get(Metric::PostedQueuePeak) >= 1);
}

#[test]
fn metrics_snapshot_diff_and_export_through_prelude() {
    let metrics = run_cluster(
        ClusterConfig::builder().ranks(2).build(),
        |_| {},
        |proc| {
            let mp = proc.mp();
            let t = proc.thread();
            let before = proc.metrics();
            let buf = t.alloc_prim_array(ElemKind::U8, 128);
            for _ in 0..4 {
                if mp.rank() == 0 {
                    mp.send(buf, 1, 0).unwrap();
                    mp.recv(buf, 1, 0).unwrap();
                } else {
                    mp.recv(buf, 0, 0).unwrap();
                    mp.send(buf, 0, 0).unwrap();
                }
            }
            let after = proc.metrics();
            let delta = after.diff(&before);
            assert_eq!(delta.get(Metric::SendsEager), 4);
            assert!(delta.get(Metric::ChanBytesOut) >= 4 * 128);
        },
    )
    .unwrap();

    let agg = metrics.aggregate();
    // CSV row and JSON export round out the surface.
    let header = MetricsSnapshot::csv_header();
    let row = agg.csv_row("smoke");
    assert_eq!(header.split(',').count(), row.split(',').count());
    assert!(row.starts_with("smoke,"));
    let json = agg.to_json();
    assert!(json.contains("\"sends_eager\""));
}
