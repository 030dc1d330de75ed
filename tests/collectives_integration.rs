//! Cross-crate integration: Motor collectives on managed buffers across
//! rank counts, and the OO collectives over the split representation.

use motor::core::cluster::run_cluster_default;
use motor::mpc::ReduceOp;
use motor::runtime::{ClassId, ElemKind};

#[test]
fn managed_bcast_and_allreduce_across_rank_counts() {
    for n in [2usize, 3, 5, 8] {
        run_cluster_default(
            n,
            |_| {},
            move |proc| {
                let mp = proc.mp();
                let t = proc.thread();
                // bcast
                let buf = t.alloc_prim_array(ElemKind::I32, 4);
                if mp.rank() == 2 % n {
                    t.prim_write(buf, 0, &[10i32, 20, 30, 40]);
                }
                mp.bcast(buf, 2 % n).unwrap();
                let mut got = [0i32; 4];
                t.prim_read(buf, 0, &mut got);
                assert_eq!(got, [10, 20, 30, 40]);
                // allreduce (sum of ranks)
                let send = t.alloc_prim_array(ElemKind::I64, 2);
                let recv = t.alloc_prim_array(ElemKind::I64, 2);
                t.prim_write(send, 0, &[mp.rank() as i64, 1i64]);
                mp.allreduce(send, recv, ReduceOp::Sum).unwrap();
                let mut out = [0i64; 2];
                t.prim_read(recv, 0, &mut out);
                let expect: i64 = (0..n as i64).sum();
                assert_eq!(out, [expect, n as i64]);
            },
        )
        .unwrap();
    }
}

#[test]
fn managed_scatter_gather_roundtrip() {
    const N: usize = 4;
    run_cluster_default(
        N,
        |_| {},
        |proc| {
            let mp = proc.mp();
            let t = proc.thread();
            let part = t.alloc_prim_array(ElemKind::F64, 3);
            let root = 1;
            let send = if mp.rank() == root {
                let s = t.alloc_prim_array(ElemKind::F64, 3 * N);
                let data: Vec<f64> = (0..3 * N).map(|i| i as f64).collect();
                t.prim_write(s, 0, &data);
                Some(s)
            } else {
                None
            };
            mp.scatter(send, part, root).unwrap();
            let mut mine = [0f64; 3];
            t.prim_read(part, 0, &mut mine);
            for (i, v) in mine.iter().enumerate() {
                assert_eq!(*v, (mp.rank() * 3 + i) as f64);
            }
            // Double and gather back.
            let doubled: Vec<f64> = mine.iter().map(|v| v * 2.0).collect();
            t.prim_write(part, 0, &doubled);
            let recv = if mp.rank() == root {
                Some(t.alloc_prim_array(ElemKind::F64, 3 * N))
            } else {
                None
            };
            mp.gather(part, recv, root).unwrap();
            if mp.rank() == root {
                let mut all = vec![0f64; 3 * N];
                t.prim_read(recv.unwrap(), 0, &mut all);
                for (i, v) in all.iter().enumerate() {
                    assert_eq!(*v, 2.0 * i as f64);
                }
            }
        },
    )
    .unwrap();
}

#[test]
fn md_array_transport_preserves_shape_and_content() {
    run_cluster_default(
        2,
        |_| {},
        |proc| {
            let mp = proc.mp();
            let t = proc.thread();
            // True multidimensional arrays are first-class transport
            // buffers — the feature the paper cites for preferring the CLI
            // over Java (§3).
            let md = t.alloc_md_array(ElemKind::F64, &[8, 8]);
            if mp.rank() == 0 {
                for i in 0..8u32 {
                    for j in 0..8u32 {
                        t.md_set::<f64>(md, &[i, j], (i * 8 + j) as f64);
                    }
                }
                mp.send(md, 1, 0).unwrap();
            } else {
                mp.recv(md, 0, 0).unwrap();
                assert_eq!(t.md_dims(md), vec![8, 8]);
                for i in 0..8u32 {
                    for j in 0..8u32 {
                        assert_eq!(t.md_get::<f64>(md, &[i, j]), (i * 8 + j) as f64);
                    }
                }
            }
        },
    )
    .unwrap();
}

fn define_linked(reg: &mut motor::runtime::TypeRegistry) {
    let arr = reg.prim_array(ElemKind::I32);
    let next_id = ClassId(reg.len() as u32);
    reg.define_class("LinkedArray")
        .prim("tag", ElemKind::I32)
        .transportable("array", arr)
        .transportable("next", next_id)
        .reference("next2", next_id)
        .build();
}

#[test]
fn obcast_distributes_object_trees() {
    run_cluster_default(3, define_linked, |proc| {
        let oomp = proc.oomp();
        let t = proc.thread();
        let node = proc.vm().registry().by_name("LinkedArray").unwrap();
        let (ftag, fnext) = (t.field_index(node, "tag"), t.field_index(node, "next"));
        let input = if oomp.rank() == 0 {
            let a = t.alloc_instance(node);
            let b = t.alloc_instance(node);
            t.set_prim::<i32>(a, ftag, 1);
            t.set_prim::<i32>(b, ftag, 2);
            t.set_ref(a, fnext, b);
            Some(a)
        } else {
            None
        };
        let tree = oomp.obcast(input, 0).unwrap();
        assert_eq!(t.get_prim::<i32>(tree, ftag), 1);
        let next = t.get_ref(tree, fnext);
        assert_eq!(t.get_prim::<i32>(next, ftag), 2);
    })
    .unwrap();
}

#[test]
fn oscatter_ogather_roundtrip_across_ranks() {
    const N: usize = 4;
    const TOTAL: usize = 12;
    run_cluster_default(N, define_linked, |proc| {
        let oomp = proc.oomp();
        let t = proc.thread();
        let node = proc.vm().registry().by_name("LinkedArray").unwrap();
        let ftag = t.field_index(node, "tag");
        // At root N − 1 the root's own part is the last of the buffers,
        // not the first.
        for root in [0, N - 1] {
            let input = if oomp.rank() == root {
                let arr = t.alloc_obj_array(node, TOTAL);
                for i in 0..TOTAL {
                    let e = t.alloc_instance(node);
                    t.set_prim::<i32>(e, ftag, i as i32);
                    t.obj_array_set(arr, i, e);
                    t.release(e);
                }
                Some(arr)
            } else {
                None
            };
            let mine = oomp.oscatter(input, root).unwrap();
            assert_eq!(t.array_len(mine), TOTAL / N);
            for i in 0..TOTAL / N {
                let e = t.obj_array_get(mine, i);
                let tag = t.get_prim::<i32>(e, ftag);
                assert_eq!(tag as usize, oomp.rank() * (TOTAL / N) + i);
                t.set_prim::<i32>(e, ftag, tag + 100);
                t.release(e);
            }
            let full = oomp.ogather(mine, root).unwrap();
            if oomp.rank() == root {
                let full = full.unwrap();
                assert_eq!(t.array_len(full), TOTAL);
                for i in 0..TOTAL {
                    let e = t.obj_array_get(full, i);
                    assert_eq!(t.get_prim::<i32>(e, ftag), i as i32 + 100);
                    t.release(e);
                }
            } else {
                assert!(full.is_none());
            }
        }
    })
    .unwrap();
}

#[test]
fn osend_any_source_pairs_size_and_data() {
    // Two senders interleave OSends to one receiver with ANY_SOURCE: the
    // size/data pairing must never mix senders.
    run_cluster_default(3, define_linked, |proc| {
        let oomp = proc.oomp();
        let t = proc.thread();
        let node = proc.vm().registry().by_name("LinkedArray").unwrap();
        let (ftag, farr) = (t.field_index(node, "tag"), t.field_index(node, "array"));
        if oomp.rank() == 0 {
            let mut seen = [0usize; 3];
            for _ in 0..10 {
                let (h, st) = oomp.orecv(motor::core::Source::Any, 5).unwrap();
                let tag = t.get_prim::<i32>(h, ftag) as usize;
                assert_eq!(tag, st.source, "payload identifies its sender");
                // The array length also encodes the sender.
                let arr = t.get_ref(h, farr);
                assert_eq!(t.array_len(arr), st.source * 10);
                seen[st.source] += 1;
                t.release(arr);
                t.release(h);
            }
            assert_eq!(seen, [0, 5, 5]);
        } else {
            for _ in 0..5 {
                let e = t.alloc_instance(node);
                t.set_prim::<i32>(e, ftag, oomp.rank() as i32);
                let a = t.alloc_prim_array(ElemKind::I32, oomp.rank() * 10);
                t.set_ref(e, farr, a);
                oomp.osend(e, 0, 5).unwrap();
                t.release(e);
                t.release(a);
            }
        }
    })
    .unwrap();
}
