//! Integration tests for the extended MPI surface: Scan, Gatherv/Scatterv
//! and Waitany, plus a multi-rank random-traffic stress and the
//! collectives' typed argument errors.

use motor::mpc::universe::Universe;
use motor::mpc::{Comm, DType, MpcError, MpcResult, ReduceOp};

#[test]
fn inclusive_scan_matches_prefix_sums() {
    Universe::run(5, |proc| {
        let world = proc.world();
        let mine = [world.rank() as i64 + 1, 10 * (world.rank() as i64 + 1)];
        let mut out = [0i64; 2];
        world.scan_slice(&mine, &mut out, ReduceOp::Sum).unwrap();
        let expect: i64 = (0..=world.rank() as i64).map(|r| r + 1).sum();
        assert_eq!(out, [expect, 10 * expect]);
    })
    .unwrap();
}

#[test]
fn gatherv_concatenates_ragged_contributions() {
    Universe::run(4, |proc| {
        let world = proc.world();
        let r = world.rank();
        // Rank r contributes r+1 bytes of value r.
        let mine = vec![r as u8; r + 1];
        let counts: Vec<usize> = (0..world.size()).map(|x| x + 1).collect();
        let total: usize = counts.iter().sum();
        if r == 2 {
            let mut all = vec![0u8; total];
            world
                .gatherv_bytes(&mine, Some((&mut all, &counts)), 2)
                .unwrap();
            let mut off = 0;
            for (src, &c) in counts.iter().enumerate() {
                assert_eq!(&all[off..off + c], vec![src as u8; c].as_slice());
                off += c;
            }
        } else {
            world.gatherv_bytes(&mine, None, 2).unwrap();
        }
    })
    .unwrap();
}

#[test]
fn scatterv_distributes_ragged_chunks_including_empty() {
    Universe::run(4, |proc| {
        let world = proc.world();
        let r = world.rank();
        // Counts 3, 0, 5, 1 — rank 1 receives nothing.
        let counts = [3usize, 0, 5, 1];
        let mut mine = vec![0u8; counts[r]];
        if r == 0 {
            let total: usize = counts.iter().sum();
            let mut flat = Vec::with_capacity(total);
            for (dst, &c) in counts.iter().enumerate() {
                flat.extend(std::iter::repeat_n(dst as u8 + 40, c));
            }
            world
                .scatterv_bytes(Some((&flat, &counts)), &mut mine, 0)
                .unwrap();
        } else {
            world.scatterv_bytes(None, &mut mine, 0).unwrap();
        }
        assert_eq!(mine, vec![r as u8 + 40; counts[r]]);
        world.barrier().unwrap();
    })
    .unwrap();
}

#[test]
fn waitany_returns_first_completion() {
    Universe::run(3, |proc| {
        let world = proc.world();
        if world.rank() == 0 {
            // Post receives from both peers; rank 2 sends immediately,
            // rank 1 only after rank 0 acknowledges the first completion.
            let mut b1 = vec![0u8; 8];
            let mut b2 = vec![0u8; 8];
            // SAFETY: buffers outlive the waits below.
            let r1 = unsafe { world.irecv_ptr(b1.as_mut_ptr(), 8, 1, 5).unwrap() };
            let r2 = unsafe { world.irecv_ptr(b2.as_mut_ptr(), 8, 2, 5).unwrap() };
            let (idx, st) = world.waitany(&[r1.clone(), r2]).unwrap();
            assert_eq!(idx, 1, "rank 2's message must land first");
            assert_eq!(st.source, 2);
            assert_eq!(b2, vec![2u8; 8]);
            world.send_bytes(&[1u8], 1, 6).unwrap(); // release rank 1
            let st1 = world.wait(&r1).unwrap();
            assert_eq!(st1.source, 1);
            assert_eq!(b1, vec![1u8; 8]);
        } else if world.rank() == 2 {
            world.send_bytes(&[2u8; 8], 0, 5).unwrap();
        } else {
            let mut go = [0u8; 1];
            world.recv_bytes(&mut go, 0, 6).unwrap();
            world.send_bytes(&[1u8; 8], 0, 5).unwrap();
        }
    })
    .unwrap();
}

#[test]
fn random_traffic_stress_across_ranks() {
    // Deterministic pseudo-random all-pairs traffic; every byte accounted.
    const RANKS: usize = 4;
    const MSGS_PER_PAIR: usize = 25;
    Universe::run(RANKS, |proc| {
        let world = proc.world();
        let me = world.rank();
        // Interleave sends and receives; sizes vary eager↔rendezvous.
        let size_of =
            |from: usize, to: usize, k: usize| 1 + ((from * 7919 + to * 104729 + k * 31) % 90_000);
        std::thread::scope(|s| {
            let w2 = world.clone();
            let sender = s.spawn(move || {
                for to in 0..RANKS {
                    if to == me {
                        continue;
                    }
                    for k in 0..MSGS_PER_PAIR {
                        let sz = size_of(me, to, k);
                        let data = vec![(k % 251) as u8; sz];
                        w2.send_bytes(&data, to, k as i32).unwrap();
                    }
                }
            });
            for from in 0..RANKS {
                if from == me {
                    continue;
                }
                for k in 0..MSGS_PER_PAIR {
                    let sz = size_of(from, me, k);
                    let mut buf = vec![0u8; sz];
                    let st = world.recv_bytes(&mut buf, from, k as i32).unwrap();
                    assert_eq!(st.count, sz);
                    assert!(buf.iter().all(|&b| b == (k % 251) as u8));
                }
            }
            sender.join().unwrap();
        });
        world.barrier().unwrap();
    })
    .unwrap();
}

/// A collective's argument errors are typed errors, returned before
/// anything is posted: only the erroneous rank calls, the other rank never
/// takes part, and the call still returns.
#[test]
fn collective_argument_errors_are_typed_errors() {
    type Case = fn(&Comm) -> MpcResult<()>;
    fn sum(w: &Comm, send: &[u8], recv: Option<&mut [u8]>) -> MpcResult<()> {
        w.reduce_bytes(send, recv, DType::I64, ReduceOp::Sum, 0)
    }
    let cases: [(&str, Case); 7] = [
        ("scatter without root's send buffer", |w| {
            w.scatter_bytes(None, &mut [0; 4], 0)
        }),
        ("gather without root's receive buffer", |w| {
            w.gather_bytes(&[0; 4], None, 0)
        }),
        ("reduce without root's receive buffer", |w| {
            sum(w, &[0; 8], None)
        }),
        ("reduce over buffers of two lengths", |w| {
            sum(w, &[0; 8], Some(&mut [0; 16]))
        }),
        ("scan over buffers of two lengths", |w| {
            w.scan_bytes(&[0; 8], &mut [0; 16], DType::I64, ReduceOp::Sum)
        }),
        ("gatherv without root's buffer and counts", |w| {
            w.gatherv_bytes(&[0; 4], None, 0)
        }),
        ("scatterv without root's buffer and counts", |w| {
            w.scatterv_bytes(None, &mut [0; 4], 0)
        }),
    ];
    for (what, case) in cases {
        Universe::run(2, move |proc| {
            let world = proc.world();
            if world.rank() == 0 {
                match case(world) {
                    Err(MpcError::Protocol(_)) => {}
                    other => panic!("{what}: expected a protocol error, got {other:?}"),
                }
            }
        })
        .unwrap();
    }
}
