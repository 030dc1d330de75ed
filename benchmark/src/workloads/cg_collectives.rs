//! `cg_collectives`: conjugate gradient on a seeded sparse SPD matrix
//! (n = 2048, about 13 non-zeros per row) through the typed API. One
//! iteration is one solve of 64 steps from `x = 0`; each step is one
//! `allgather_slice` of the direction vector (8 KiB per rank), the local
//! SpMV, and two scalar `allreduce`. The issue's n = 4096 left the
//! collectives 30 % of the wall time once waits stopped sleeping; it asked
//! for at least a third, and for a smaller n otherwise.
//!
//! This is the application check: the collectives in `mpc::comm` under the
//! `api` layer carry it. A point-to-point micro-win that does not reach an
//! application does not show here; a change to the collectives or to how
//! they progress does. The iteration is the whole solve rather than one
//! step: the solve is what the application waits for, and the residual it
//! is verified by exists only at its end.
//!
//! Verification: set-up runs the same 64 steps single-threaded, with each
//! dot product summed as two half-vector partial sums (the order a
//! two-rank allreduce produces), and the squared residual after every
//! solve must equal the reference's to 1e-9 relative.

use std::time::Instant;

use motor_api::{Communicator, ReduceOp};
use motor_core::cluster::MotorProc;

use super::{RankProgram, Spec, Workload};
use crate::harness::{must, RankRun};
use crate::inputs::{Rng, SparseSpd};
use crate::stats::median;

pub const N: usize = 2048;
pub const LINKS: usize = 6;
pub const STEPS: u64 = 64;
/// Diagonal dominance margin: small enough that 64 steps do not reach
/// machine precision, so the residual checked is still a number.
const MARGIN: f64 = 0.02;
pub const TOLERANCE: f64 = 1e-9;

pub struct CgCollectives {
    a: SparseSpd,
    b: Vec<f64>,
    /// `b . b`, the squared residual every solve starts from.
    rho0: f64,
    /// Squared residual after `STEPS` steps of the reference solve.
    rho_ref: f64,
    serial_iter_us: f64,
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// The reference: one solve of plain CG on one thread. Dot products are
/// the sum of the two half-vector dots, as the two ranks compute them.
fn reference_cycle(a: &SparseSpd, b: &[f64]) -> f64 {
    let h = a.n / 2;
    let dot2 = |u: &[f64], v: &[f64]| dot(&u[..h], &v[..h]) + dot(&u[h..], &v[h..]);
    let mut x = vec![0.0; a.n];
    let mut r = b.to_vec();
    let mut p = b.to_vec();
    let mut q = vec![0.0; a.n];
    let mut rho = dot2(&r, &r);
    for _ in 0..STEPS {
        a.spmv_rows(0, &p, &mut q);
        let alpha = rho / dot2(&p, &q);
        for i in 0..a.n {
            x[i] += alpha * p[i];
            r[i] -= alpha * q[i];
        }
        let rho_new = dot2(&r, &r);
        let beta = rho_new / rho;
        rho = rho_new;
        for i in 0..a.n {
            p[i] = r[i] + beta * p[i];
        }
    }
    std::hint::black_box(&x);
    rho
}

impl CgCollectives {
    pub fn new(seed: u64) -> CgCollectives {
        let a = SparseSpd::generate(&mut Rng::new(seed, 30), N, LINKS, MARGIN);
        let mut rng = Rng::new(seed, 31);
        let b: Vec<f64> = (0..N).map(|_| 0.5 + rng.unit()).collect();
        let h = N / 2;
        let rho0 = dot(&b[..h], &b[..h]) + dot(&b[h..], &b[h..]);
        let mut rho_ref = 0.0;
        let cycle_us: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                rho_ref = reference_cycle(&a, &b);
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        assert!(
            rho_ref.is_finite() && rho_ref > 0.0 && rho_ref < rho0 * 1e-3,
            "reference CG must converge without reaching zero: {rho_ref} from {rho0}"
        );
        CgCollectives {
            a,
            b,
            rho0,
            rho_ref,
            serial_iter_us: median(&cycle_us),
        }
    }
}

impl Workload for CgCollectives {
    fn spec(&self) -> Spec {
        let rows = (N / 2) as u64;
        Spec {
            name: "cg_collectives",
            batch: 32,
            min_batch: 1,
            ladder_bytes: N / 2 * 8,
            payload_bytes_per_iter: STEPS * 2 * (rows * 8 + 2 * 8),
            nonblocking_per_iter: 0,
        }
    }

    fn serial_iter_us(&self) -> f64 {
        self.serial_iter_us
    }
}

impl RankProgram for CgCollectives {
    fn rank(&self, proc: &MotorProc, run: &RankRun<'_>) {
        let comm = Communicator::bind(proc.mp());
        let rows = N / comm.size();
        let row0 = comm.rank() * rows;
        let peer0 = (1 - comm.rank()) * rows;
        let b = &self.b[row0..row0 + rows];
        let mut x = vec![0.0; rows];
        let mut r = b.to_vec();
        let mut p = b.to_vec();
        let mut q = vec![0.0; rows];
        let mut p_all = vec![0.0; N];
        run.iterate(proc, |cx| {
            x.fill(0.0);
            r.copy_from_slice(b);
            p.copy_from_slice(b);
            let mut rho = self.rho0;
            for step in 0..STEPS {
                let s = cx.begin("api.communicator.allgather");
                must("allgather_slice", comm.allgather_slice(&p, &mut p_all));
                cx.end(s);
                if step == 0 && cx.flip_now() {
                    p_all[peer0] = f64::from_bits(p_all[peer0].to_bits() ^ (1 << 52));
                }
                let s = cx.begin("app.compute");
                self.a.spmv_rows(row0, &p_all, &mut q);
                let pq_local = dot(&p, &q);
                cx.end(s);
                let s = cx.begin("api.communicator.allreduce");
                let pq = must("allreduce", comm.allreduce(pq_local, ReduceOp::Sum));
                cx.end(s);
                let s = cx.begin("app.compute");
                let alpha = rho / pq;
                for i in 0..rows {
                    x[i] += alpha * p[i];
                    r[i] -= alpha * q[i];
                }
                let rr_local = dot(&r, &r);
                cx.end(s);
                let s = cx.begin("api.communicator.allreduce");
                let rho_new = must("allreduce", comm.allreduce(rr_local, ReduceOp::Sum));
                cx.end(s);
                let s = cx.begin("app.compute");
                let beta = rho_new / rho;
                rho = rho_new;
                for i in 0..rows {
                    p[i] = r[i] + beta * p[i];
                }
                cx.end(s);
            }
            cx.ops += 3 * STEPS;
            cx.check((rho - self.rho_ref).abs() <= TOLERANCE * self.rho_ref);
        });
        std::hint::black_box(&x);
    }
}
