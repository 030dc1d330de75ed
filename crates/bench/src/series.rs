//! Per-system ping-pong runners for the two figures.
//!
//! "A single node was used because we are only interested in the
//! performance of the MPI implementation, rather than the underlying
//! transport" (§8) — here: two ranks over the in-process shm channel, so
//! the measured differences isolate the binding architecture.

use std::sync::Arc;

use parking_lot::Mutex;

use motor_baselines::{HostProfile, Indiana, JavaSerializer, MpiJava};
use motor_core::cluster::{run_cluster, ClusterConfig};
use motor_core::VisitedStrategy;
use motor_mpc::Universe;
use motor_obs::MetricsSnapshot;
use motor_runtime::ElemKind;

use crate::protocol::PingPongProtocol;
use crate::workloads::{build_linked_list, define_linked_array, LinkedListSpec};

/// The five systems of Figure 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig9Impl {
    /// Native use of the Message Passing Core (the "C++ / MPICH2" line).
    Cpp,
    /// Motor: runtime-internal bindings with the pinning policy.
    Motor,
    /// Indiana C# bindings hosted on the SSCLI profile.
    IndianaSscli,
    /// Indiana C# bindings hosted on the .NET profile.
    IndianaNet,
    /// mpiJava (JNI wrapper).
    MpiJava,
}

impl Fig9Impl {
    /// All systems in the paper's legend order.
    pub const ALL: [Fig9Impl; 5] = [
        Fig9Impl::MpiJava,
        Fig9Impl::IndianaSscli,
        Fig9Impl::IndianaNet,
        Fig9Impl::Motor,
        Fig9Impl::Cpp,
    ];

    /// Series label as in the paper's legend.
    pub fn label(self) -> &'static str {
        match self {
            Fig9Impl::Cpp => "C++",
            Fig9Impl::Motor => "Motor",
            Fig9Impl::IndianaSscli => "Indiana SSCLI",
            Fig9Impl::IndianaNet => "Indiana .NET",
            Fig9Impl::MpiJava => "Java",
        }
    }
}

/// The four systems of Figure 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig10Impl {
    /// Motor's extended OO operations as published: the linear visited
    /// list, selected explicitly.
    Motor,
    /// Motor with the hashed visited table — the paper's future work, and
    /// what the stack ships as its default.
    MotorHashed,
    /// Indiana bindings + CLI binary serialization, SSCLI host.
    IndianaSscli,
    /// Indiana bindings + CLI binary serialization, .NET host.
    IndianaNet,
    /// mpiJava with the `MPI.OBJECT` datatype (Java serialization).
    MpiJava,
}

impl Fig10Impl {
    /// The paper's four series (the hashed variant is the extra column).
    pub const PAPER: [Fig10Impl; 4] = [
        Fig10Impl::Motor,
        Fig10Impl::MpiJava,
        Fig10Impl::IndianaNet,
        Fig10Impl::IndianaSscli,
    ];

    /// Series label as in the paper's legend.
    pub fn label(self) -> &'static str {
        match self {
            Fig10Impl::Motor => "Motor",
            Fig10Impl::MotorHashed => "Motor (hashed visited)",
            Fig10Impl::IndianaSscli => "Indiana (SSCLI)",
            Fig10Impl::IndianaNet => "Indiana (.NET)",
            Fig10Impl::MpiJava => "mpiJava",
        }
    }
}

/// Figure 9: mean microseconds per ping-pong iteration for `bytes`-sized
/// buffers under the given system, plus the cluster-aggregated metrics
/// snapshot of the run.
pub fn fig9_pingpong(
    sys: Fig9Impl,
    bytes: usize,
    protocol: PingPongProtocol,
) -> (f64, MetricsSnapshot) {
    match sys {
        Fig9Impl::Cpp => cpp_pingpong(bytes, protocol),
        Fig9Impl::Motor => motor_pingpong(bytes, protocol),
        Fig9Impl::IndianaSscli => indiana_pingpong(bytes, protocol, HostProfile::Sscli),
        Fig9Impl::IndianaNet => indiana_pingpong(bytes, protocol, HostProfile::Net),
        Fig9Impl::MpiJava => mpijava_pingpong(bytes, protocol),
    }
}

/// Figure 9 timing only.
pub fn fig9_pingpong_us(sys: Fig9Impl, bytes: usize, protocol: PingPongProtocol) -> f64 {
    fig9_pingpong(sys, bytes, protocol).0
}

/// Figure 10: mean microseconds per object-tree ping-pong iteration for
/// `total_objects` with the run's aggregated metrics, or `None` where the
/// system fails (mpiJava's stack overflow past 1024 objects).
pub fn fig10_object_pingpong(
    sys: Fig10Impl,
    total_objects: usize,
    protocol: PingPongProtocol,
) -> Option<(f64, MetricsSnapshot)> {
    let spec = LinkedListSpec::paper(total_objects);
    match sys {
        Fig10Impl::Motor => Some(motor_object_pingpong(
            spec,
            protocol,
            VisitedStrategy::Linear,
        )),
        Fig10Impl::MotorHashed => Some(motor_object_pingpong(
            spec,
            protocol,
            VisitedStrategy::Hashed,
        )),
        Fig10Impl::IndianaSscli => {
            Some(indiana_object_pingpong(spec, protocol, HostProfile::Sscli))
        }
        Fig10Impl::IndianaNet => Some(indiana_object_pingpong(spec, protocol, HostProfile::Net)),
        Fig10Impl::MpiJava => mpijava_object_pingpong(spec, protocol),
    }
}

/// Figure 10 timing only.
pub fn fig10_object_pingpong_us(
    sys: Fig10Impl,
    total_objects: usize,
    protocol: PingPongProtocol,
) -> Option<f64> {
    fig10_object_pingpong(sys, total_objects, protocol).map(|(us, _)| us)
}

fn cpp_pingpong(bytes: usize, protocol: PingPongProtocol) -> (f64, MetricsSnapshot) {
    let result = Arc::new(Mutex::new(0.0f64));
    let metrics = Arc::new(Mutex::new(MetricsSnapshot::empty()));
    let (r, m) = (Arc::clone(&result), Arc::clone(&metrics));
    Universe::run(2, move |proc| {
        let world = proc.world();
        let mut buf = vec![0u8; bytes];
        if world.rank() == 0 {
            let us = protocol.measure(|| {
                world.send_bytes(&buf, 1, 0).unwrap();
                world.recv_bytes(&mut buf, 1, 0).unwrap();
            });
            *r.lock() = us;
        } else {
            for _ in 0..protocol.total_iterations() {
                world.recv_bytes(&mut buf, 0, 0).unwrap();
                world.send_bytes(&buf, 0, 0).unwrap();
            }
        }
        m.lock().merge(&world.device().metrics().snapshot());
    })
    .unwrap();
    let v = *result.lock();
    let snap = metrics.lock().clone();
    (v, snap)
}

fn motor_pingpong(bytes: usize, protocol: PingPongProtocol) -> (f64, MetricsSnapshot) {
    let result = Arc::new(Mutex::new(0.0f64));
    let r = Arc::clone(&result);
    let cm = run_cluster(
        ClusterConfig::builder().ranks(2).build(),
        |_reg| {},
        move |proc| {
            let mp = proc.mp();
            let t = proc.thread();
            let buf = t.alloc_prim_array(ElemKind::U8, bytes);
            if mp.rank() == 0 {
                let us = protocol.measure(|| {
                    mp.send(buf, 1, 0).unwrap();
                    mp.recv(buf, 1, 0).unwrap();
                });
                *r.lock() = us;
            } else {
                for _ in 0..protocol.total_iterations() {
                    mp.recv(buf, 0, 0).unwrap();
                    mp.send(buf, 0, 0).unwrap();
                }
            }
        },
    )
    .unwrap();
    let v = *result.lock();
    (v, cm.aggregate())
}

fn indiana_pingpong(
    bytes: usize,
    protocol: PingPongProtocol,
    host: HostProfile,
) -> (f64, MetricsSnapshot) {
    let result = Arc::new(Mutex::new(0.0f64));
    let r = Arc::clone(&result);
    let cm = run_cluster(
        ClusterConfig::builder().ranks(2).build(),
        |_reg| {},
        move |proc| {
            let b = Indiana::new(proc.thread(), proc.comm().clone(), host);
            let t = proc.thread();
            let buf = t.alloc_prim_array(ElemKind::U8, bytes);
            if b.rank() == 0 {
                let us = protocol.measure(|| {
                    b.send(buf, 1, 0).unwrap();
                    b.recv(buf, 1, 0).unwrap();
                });
                *r.lock() = us;
            } else {
                for _ in 0..protocol.total_iterations() {
                    b.recv(buf, 0, 0).unwrap();
                    b.send(buf, 0, 0).unwrap();
                }
            }
        },
    )
    .unwrap();
    let v = *result.lock();
    (v, cm.aggregate())
}

fn mpijava_pingpong(bytes: usize, protocol: PingPongProtocol) -> (f64, MetricsSnapshot) {
    let result = Arc::new(Mutex::new(0.0f64));
    let r = Arc::clone(&result);
    let cm = run_cluster(
        ClusterConfig::builder().ranks(2).build(),
        |_reg| {},
        move |proc| {
            let j = MpiJava::new(proc.thread(), proc.comm().clone());
            let t = proc.thread();
            let buf = t.alloc_prim_array(ElemKind::U8, bytes);
            if j.rank() == 0 {
                let us = protocol.measure(|| {
                    j.send(buf, 1, 0).unwrap();
                    j.recv(buf, 1, 0).unwrap();
                });
                *r.lock() = us;
            } else {
                for _ in 0..protocol.total_iterations() {
                    j.recv(buf, 0, 0).unwrap();
                    j.send(buf, 0, 0).unwrap();
                }
            }
        },
    )
    .unwrap();
    let v = *result.lock();
    (v, cm.aggregate())
}

fn motor_object_pingpong(
    spec: LinkedListSpec,
    protocol: PingPongProtocol,
    strategy: VisitedStrategy,
) -> (f64, MetricsSnapshot) {
    let result = Arc::new(Mutex::new(0.0f64));
    let r = Arc::clone(&result);
    let cm = run_cluster(
        ClusterConfig::builder().ranks(2).build(),
        |reg| {
            define_linked_array(reg);
        },
        move |proc| {
            let oomp = proc.oomp().with_strategy(strategy);
            let t = proc.thread();
            if oomp.rank() == 0 {
                let head = build_linked_list(proc, spec);
                let us = protocol.measure(|| {
                    oomp.osend(head, 1, 0).unwrap();
                    let (back, _) = oomp.orecv(1, 0).unwrap();
                    t.release(back);
                });
                *r.lock() = us;
            } else {
                for _ in 0..protocol.total_iterations() {
                    let (h, _) = oomp.orecv(0, 0).unwrap();
                    oomp.osend(h, 0, 0).unwrap();
                    t.release(h);
                }
            }
        },
    )
    .unwrap();
    let v = *result.lock();
    (v, cm.aggregate())
}

fn indiana_object_pingpong(
    spec: LinkedListSpec,
    protocol: PingPongProtocol,
    host: HostProfile,
) -> (f64, MetricsSnapshot) {
    let result = Arc::new(Mutex::new(0.0f64));
    let r = Arc::clone(&result);
    let cm = run_cluster(
        ClusterConfig::builder().ranks(2).build(),
        |reg| {
            define_linked_array(reg);
        },
        move |proc| {
            let b = Indiana::new(proc.thread(), proc.comm().clone(), host);
            let t = proc.thread();
            if b.rank() == 0 {
                let head = build_linked_list(proc, spec);
                let us = protocol.measure(|| {
                    b.send_object(head, 1, 0).unwrap();
                    let back = b.recv_object(1, 0).unwrap();
                    t.release(back);
                });
                *r.lock() = us;
            } else {
                for _ in 0..protocol.total_iterations() {
                    let h = b.recv_object(0, 0).unwrap();
                    b.send_object(h, 0, 0).unwrap();
                    t.release(h);
                }
            }
        },
    )
    .unwrap();
    let v = *result.lock();
    (v, cm.aggregate())
}

fn mpijava_object_pingpong(
    spec: LinkedListSpec,
    protocol: PingPongProtocol,
) -> Option<(f64, MetricsSnapshot)> {
    // Deterministic pre-check: the recursive Java serializer overflows on
    // long lists before anything is sent; both ranks detect it locally, so
    // no message is ever in flight when the run aborts.
    let overflow = Arc::new(Mutex::new(false));
    let result = Arc::new(Mutex::new(0.0f64));
    let (o, r) = (Arc::clone(&overflow), Arc::clone(&result));
    let cm = run_cluster(
        ClusterConfig::builder().ranks(2).build(),
        |reg| {
            define_linked_array(reg);
        },
        move |proc| {
            let j = MpiJava::new(proc.thread(), proc.comm().clone());
            let t = proc.thread();
            let head = build_linked_list(proc, spec);
            // Local feasibility probe (same on both ranks).
            if JavaSerializer::new(t).serialize(head).is_err() {
                if j.rank() == 0 {
                    *o.lock() = true;
                }
                return;
            }
            if j.rank() == 0 {
                let us = protocol.measure(|| {
                    j.send_object(head, 1, 0).unwrap();
                    let back = j.recv_object(1, 0).unwrap();
                    t.release(back);
                });
                *r.lock() = us;
            } else {
                for _ in 0..protocol.total_iterations() {
                    let h = j.recv_object(0, 0).unwrap();
                    j.send_object(h, 0, 0).unwrap();
                    t.release(h);
                }
            }
        },
    )
    .unwrap();
    if *overflow.lock() {
        None
    } else {
        let v = *result.lock();
        Some((v, cm.aggregate()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::QUICK_PROTOCOL;

    #[test]
    fn fig9_all_systems_produce_positive_times() {
        for sys in Fig9Impl::ALL {
            let us = fig9_pingpong_us(sys, 1024, QUICK_PROTOCOL);
            assert!(us > 0.0, "{sys:?} returned {us}");
        }
    }

    #[test]
    fn fig10_motor_and_indiana_produce_times_java_overflows() {
        for sys in [Fig10Impl::Motor, Fig10Impl::IndianaNet] {
            let us = fig10_object_pingpong_us(sys, 32, QUICK_PROTOCOL);
            assert!(us.unwrap() > 0.0);
        }
        // Past 1024 objects, mpiJava dies with a stack overflow (Figure 10).
        assert!(fig10_object_pingpong_us(Fig10Impl::MpiJava, 512, QUICK_PROTOCOL).is_some());
        assert!(fig10_object_pingpong_us(Fig10Impl::MpiJava, 2048, QUICK_PROTOCOL).is_none());
    }
}
