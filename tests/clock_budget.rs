//! What an operation costs in clock readings, counted rather than timed:
//! `motor-obs` counts every reading a thread takes through it in debug
//! builds. A non-blocking `System.MP` call is two — its span's two edges;
//! the send stamp, the conditional pin and the request's registrations
//! share the opening one. A wait on a request that is already finished is
//! two as well, its span's edges: the device opens no wait for it. A wait
//! that really waits is three of its own — the wait span and the device's
//! wait span open on one reading and close on one each — plus the stamp
//! of the delivery it waited for, made by the pass that delivers.
#![cfg(debug_assertions)]

use motor::core::cluster::{run_cluster, ClusterConfig};
use motor::obs::clock_reads;
use motor::prelude::*;

fn readings<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = clock_reads();
    let out = f();
    (out, clock_reads() - before)
}

#[test]
fn nonblocking_calls_read_the_clock_twice_and_a_wait_three_times() {
    const DATA: i32 = 5;
    const FENCE: i32 = 6;
    const NEVER_SENT: i32 = 7;
    const LATE: i32 = 8;
    run_cluster(
        ClusterConfig::builder().ranks(2).build(),
        |_| {},
        |proc| {
            let mp = proc.mp();
            let t = proc.thread();
            // Young buffers: the conditional pin is on the path.
            let bufs: Vec<Handle> = (0..3)
                .map(|_| t.alloc_prim_array(ElemKind::U8, 64))
                .collect();
            let fence = t.alloc_prim_array(ElemKind::U8, 4);
            if mp.rank() == 0 {
                for &b in &bufs[..2] {
                    let (mut req, n) = readings(|| mp.isend(b, 1, DATA).unwrap());
                    assert_eq!(n, 2, "isend");
                    let (_, n) = readings(|| mp.wait(&mut req).unwrap());
                    assert_eq!(n, 2, "wait on a completed send");
                }
                mp.send(fence, 1, FENCE).unwrap();
                mp.recv(fence, 1, FENCE).unwrap();
                mp.send(bufs[2], 1, LATE).unwrap();
            } else {
                let (posted, n) = readings(|| mp.irecv(bufs[2], 0, NEVER_SENT).unwrap());
                assert_eq!(n, 2, "irecv, posted");
                let late_buf = t.alloc_prim_array(ElemKind::U8, 64);
                let mut late = mp.irecv(late_buf, 0, LATE).unwrap();
                // Behind the fence both messages sit in the unexpected
                // queue; each receive finds its message buffered.
                mp.recv(fence, 0, FENCE).unwrap();
                for &b in &bufs[..2] {
                    let (mut req, n) = readings(|| mp.irecv(b, 0, DATA).unwrap());
                    assert_eq!(n, 2, "irecv, found buffered");
                    let (st, n) = readings(|| mp.wait(&mut req).unwrap());
                    assert_eq!((st.bytes, n), (64, 2), "wait on a completed receive");
                }
                // Rank 0 sends the late message only once this fence is
                // out, and sending it runs no pass here: the wait below
                // finds its receive unfinished and waits.
                mp.send(fence, 0, FENCE).unwrap();
                assert!(!late.is_complete());
                let (st, n) = readings(|| mp.wait(&mut late).unwrap());
                assert_eq!(
                    (st.bytes, n),
                    (64, 3 + 1),
                    "wait that waits, and the delivery"
                );
                drop(posted);
            }
        },
    )
    .unwrap();
}
