//! Cross-rank interoperability: typed `Communicator` object operations
//! against managed ranks speaking `Oomp`.
//!
//! The wire contract under test: `send_obj`/`recv_obj`/`bcast_obj`/
//! `scatter_objs`/`gather_objs` frame and serialize exactly like
//! `osend`/`orecv`/`obcast`/`oscatter`/`ogather`, so a cluster can mix
//! ranks holding plain Rust values with ranks holding managed object
//! graphs — in both directions.

use motor_api::{Communicator, Transportable};
use motor_core::cluster::run_cluster_default;
use motor_runtime::{ClassId, ElemKind, Handle, MotorThread, TypeRegistry};

/// Rust mirror of the managed `Packet` class.
#[derive(Transportable, Debug, Default, PartialEq)]
struct Packet {
    id: i32,
    #[transportable]
    data: Vec<f64>,
}

fn define_packet(reg: &mut TypeRegistry) {
    let arr = reg.prim_array(ElemKind::F64);
    reg.define_class("Packet")
        .prim("id", ElemKind::I32)
        .transportable("data", arr)
        .build();
}

fn build_packet(t: &MotorThread, cls: ClassId, id: i32, data: &[f64]) -> Handle {
    let (fid, fdata) = (t.field_index(cls, "id"), t.field_index(cls, "data"));
    let h = t.alloc_instance(cls);
    t.set_prim::<i32>(h, fid, id);
    let a = t.alloc_prim_array(ElemKind::F64, data.len());
    t.prim_write(a, 0, data);
    t.set_ref(h, fdata, a);
    t.release(a);
    h
}

fn read_packet(t: &MotorThread, cls: ClassId, h: Handle) -> (i32, Vec<f64>) {
    let (fid, fdata) = (t.field_index(cls, "id"), t.field_index(cls, "data"));
    let id = t.get_prim::<i32>(h, fid);
    let a = t.get_ref(h, fdata);
    let mut v = vec![0f64; t.array_len(a)];
    t.prim_read(a, 0, &mut v);
    t.release(a);
    (id, v)
}

#[test]
fn osend_to_native_and_back() {
    run_cluster_default(2, define_packet, |proc| {
        let cls = proc.vm().registry().by_name("Packet").unwrap();
        let t = proc.thread();
        if proc.mp().rank() == 0 {
            // Managed rank: OSend a packet, ORecv the (transformed) reply.
            let oomp = proc.oomp();
            let h = build_packet(t, cls, 7, &[1.5, 2.5]);
            oomp.osend(h, 1, 3).unwrap();
            t.release(h);
            let (reply, st) = oomp.orecv(1, 4).unwrap();
            assert_eq!(st.source, 1);
            let (id, data) = read_packet(t, cls, reply);
            assert_eq!((id, data), (-7, vec![15.0, 25.0]));
            t.release(reply);
        } else {
            // Typed rank: plain Rust values in, plain Rust values out.
            let comm = Communicator::bind(proc.mp());
            let (p, st) = comm.recv_obj::<Packet>(0, 3).unwrap();
            assert_eq!(st.source, 0);
            assert_eq!(
                p,
                Packet {
                    id: 7,
                    data: vec![1.5, 2.5]
                }
            );
            let reply = Packet {
                id: -p.id,
                data: p.data.iter().map(|x| x * 10.0).collect(),
            };
            comm.send_obj(&reply, 0, 4).unwrap();
        }
    })
    .unwrap();
}

#[test]
fn obcast_reaches_native_ranks() {
    run_cluster_default(3, define_packet, |proc| {
        let cls = proc.vm().registry().by_name("Packet").unwrap();
        let t = proc.thread();
        if proc.mp().rank() == 0 {
            let oomp = proc.oomp();
            let h = build_packet(t, cls, 42, &[0.25; 4]);
            let back = oomp.obcast(Some(h), 0).unwrap();
            t.release(h);
            t.release(back);
        } else {
            let comm = Communicator::bind(proc.mp());
            let p = comm
                .bcast_obj::<Packet>(None, 0)
                .unwrap()
                .expect("non-root copy");
            assert_eq!(
                p,
                Packet {
                    id: 42,
                    data: vec![0.25; 4]
                }
            );
        }
    })
    .unwrap();
}

#[test]
fn managed_root_scatters_natives_transform_root_gathers() {
    const RANKS: usize = 4;
    const PER: usize = 2;
    run_cluster_default(RANKS, define_packet, |proc| {
        let cls = proc.vm().registry().by_name("Packet").unwrap();
        let t = proc.thread();
        let rank = proc.mp().rank();
        if rank == 0 {
            // Managed root: build the full object array, scatter, gather.
            let oomp = proc.oomp();
            let arr = t.alloc_obj_array(cls, RANKS * PER);
            for i in 0..RANKS * PER {
                let h = build_packet(t, cls, i as i32, &[i as f64, i as f64 + 0.5]);
                t.obj_array_set(arr, i, h);
                t.release(h);
            }
            let own = oomp.oscatter(Some(arr), 0).unwrap();
            t.release(arr);

            // Root transforms its own chunk like everyone else.
            let part = t.alloc_obj_array(cls, PER);
            for i in 0..PER {
                let h = t.obj_array_get(own, i);
                let (id, data) = read_packet(t, cls, h);
                t.release(h);
                let neg = build_packet(
                    t,
                    cls,
                    -id,
                    &data.iter().map(|x| x * 2.0).collect::<Vec<_>>(),
                );
                t.obj_array_set(part, i, neg);
                t.release(neg);
            }
            t.release(own);

            let full = oomp.ogather(part, 0).unwrap().expect("root result");
            t.release(part);
            assert_eq!(t.array_len(full), RANKS * PER);
            for i in 0..RANKS * PER {
                let h = t.obj_array_get(full, i);
                let (id, data) = read_packet(t, cls, h);
                t.release(h);
                assert_eq!(id, -(i as i32));
                assert_eq!(data, vec![i as f64 * 2.0, (i as f64 + 0.5) * 2.0]);
            }
            t.release(full);
        } else {
            // Typed ranks: receive Rust values, transform, send back.
            let comm = Communicator::bind(proc.mp());
            let mine: Vec<Packet> = comm.scatter_objs(None, 0).unwrap();
            assert_eq!(mine.len(), PER);
            for (i, p) in mine.iter().enumerate() {
                assert_eq!(p.id as usize, rank * PER + i, "rank-ordered chunks");
            }
            let out: Vec<Packet> = mine
                .into_iter()
                .map(|p| Packet {
                    id: -p.id,
                    data: p.data.iter().map(|x| x * 2.0).collect(),
                })
                .collect();
            let none = comm.gather_objs(&out, 0).unwrap();
            assert!(none.is_none(), "only the root assembles the gather");
        }
    })
    .unwrap();
}

#[test]
fn native_root_scatters_managed_leaves() {
    const RANKS: usize = 3;
    const PER: usize = 2;
    run_cluster_default(RANKS, define_packet, |proc| {
        let cls = proc.vm().registry().by_name("Packet").unwrap();
        let t = proc.thread();
        let rank = proc.mp().rank();
        if rank == 0 {
            // Typed root scatters plain Rust values...
            let comm = Communicator::bind(proc.mp());
            let all: Vec<Packet> = (0..RANKS * PER)
                .map(|i| Packet {
                    id: 100 + i as i32,
                    data: vec![i as f64; 3],
                })
                .collect();
            let own = comm.scatter_objs(Some(&all), 0).unwrap();
            assert_eq!(own.len(), PER);
            assert_eq!(own[0].id, 100);
        } else {
            // ...managed leaves receive them as object graphs.
            let oomp = proc.oomp();
            let part = oomp.oscatter(None, 0).unwrap();
            assert_eq!(t.array_len(part), PER);
            for i in 0..PER {
                let h = t.obj_array_get(part, i);
                let (id, data) = read_packet(t, cls, h);
                t.release(h);
                let g = rank * PER + i;
                assert_eq!(id as usize, 100 + g);
                assert_eq!(data, vec![g as f64; 3]);
            }
            t.release(part);
        }
    })
    .unwrap();
}

/// The size header is the sender's claim. A raw 8-byte header of
/// `u64::MAX` on the tag, down the broadcast tree, into the sizes of an
/// object gather (where the root's checked sum overflows) or out of the
/// sizes of an object scatter must come back from every receive side as a
/// typed error, not a capacity-overflow panic or an allocation abort.
#[test]
fn hostile_size_header_is_a_typed_error() {
    use motor_api::Error;
    use motor_core::CoreError;
    const HEADER: [u8; 8] = u64::MAX.to_le_bytes();
    run_cluster_default(2, define_packet, |proc| {
        let mp = proc.mp();
        if mp.rank() == 0 {
            mp.comm().send_bytes(&HEADER, 1, 9).unwrap();
            mp.comm().send_bytes(&HEADER, 1, 10).unwrap();
            mp.comm().bcast_bytes(&mut { HEADER }, 0).unwrap();
            mp.comm().bcast_bytes(&mut { HEADER }, 0).unwrap();
            for _ in 0..2 {
                mp.comm().gather_bytes(&HEADER, None, 1).unwrap();
            }
            for _ in 0..2 {
                let sizes = [HEADER, HEADER].concat();
                mp.comm()
                    .scatter_bytes(Some(&sizes), &mut [0; 8], 0)
                    .unwrap();
            }
        } else {
            let (oomp, comm) = (proc.oomp(), Communicator::bind(proc.mp()));
            assert!(matches!(oomp.orecv(0, 9), Err(CoreError::Serialization(_))));
            assert!(matches!(
                comm.recv_obj::<Packet>(0, 10),
                Err(Error::Decode(_))
            ));
            assert!(matches!(
                oomp.obcast(None, 0),
                Err(CoreError::Serialization(_))
            ));
            assert!(matches!(
                comm.bcast_obj::<Packet>(None, 0),
                Err(Error::Decode(_))
            ));
            let cls = proc.vm().registry().by_name("Packet").unwrap();
            let none = proc.thread().alloc_obj_array(cls, 0);
            assert!(matches!(
                oomp.ogather(none, 1),
                Err(CoreError::Serialization(_))
            ));
            assert!(matches!(
                comm.gather_objs::<Packet>(&[], 1),
                Err(Error::Decode(_))
            ));
            assert!(matches!(
                oomp.oscatter(None, 0),
                Err(CoreError::Serialization(_))
            ));
            assert!(matches!(
                comm.scatter_objs::<Packet>(None, 0),
                Err(Error::Decode(_))
            ));
        }
    })
    .unwrap();
}
