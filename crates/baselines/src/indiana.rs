//! The Indiana University C# bindings analog (managed-wrapper MPI).
//!
//! Paper §2.1: "The Indiana bindings use the CLI P/Invoke (Platform
//! Invoke) interface to invoke the underlying MPI library ... impose a
//! slight overhead over the native MPICH, but suffer due to the overhead
//! of object pinning." And §8: "Pinning is performed for each MPI
//! operation."
//!
//! Architecture (Figure 1, left): the wrapper calls the message-passing
//! library through a managed-to-native interface; the library cannot see
//! runtime services, so every operation must (a) pay the P/Invoke
//! transition and (b) pin the buffer unconditionally — the library cannot
//! ask the collector whether pinning is necessary.

use motor_core::{CoreError, CoreResult, MpStatus};
use motor_mpc::Comm;
use motor_runtime::{Handle, MotorThread, TypeKind};

use crate::callconv::{HostProfile, TransitionState};
use crate::cliser::CliFormatter;

/// The Indiana C# bindings bound to a thread, communicator and host.
pub struct Indiana<'t> {
    thread: &'t MotorThread,
    comm: Comm,
    host: HostProfile,
    transition: TransitionState,
    /// Checksum sink keeping the transition work observable.
    pub checksum: std::cell::Cell<u64>,
}

impl<'t> Indiana<'t> {
    /// Bind the wrapper.
    pub fn new(thread: &'t MotorThread, comm: Comm, host: HostProfile) -> Indiana<'t> {
        Indiana {
            thread,
            comm,
            host,
            transition: TransitionState::new(),
            checksum: std::cell::Cell::new(0),
        }
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Communicator size.
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// The host profile.
    pub fn host(&self) -> HostProfile {
        self.host
    }

    fn pinvoke(&self, args: &[u64]) {
        let c = self.transition.pinvoke(self.host, args);
        self.checksum.set(self.checksum.get() ^ c);
    }

    fn window(&self, obj: Handle) -> CoreResult<(*mut u8, usize)> {
        if self.thread.is_null(obj) {
            return Err(CoreError::NullBuffer);
        }
        // The C# bindings do NOT enforce object-model integrity (paper
        // §2.4: "Neither the C# MPI bindings presented in [7], mpiJava nor
        // the MPJ API consider object-model integrity") — but our runtime
        // window API refuses ref-bearing objects outright, so the wrapper
        // can only be driven with primitive buffers, as the benchmark does.
        let vm = self.thread.vm();
        let reg = vm.registry();
        let class = self.thread.class_of(obj);
        match reg.table(class).kind {
            TypeKind::PrimArray(_) | TypeKind::MdArray { .. } => {}
            _ => {
                return Err(CoreError::ObjectModelIntegrity(
                    reg.table(class).name.clone(),
                ))
            }
        }
        drop(reg);
        Ok(self.thread.raw_data_window(obj))
    }

    /// Blocking send: P/Invoke transition, unconditional pin, native call,
    /// unpin.
    pub fn send(&self, obj: Handle, dest: usize, tag: i32) -> CoreResult<()> {
        let (ptr, len) = self.window(obj)?;
        self.pinvoke(&[ptr as u64, len as u64, dest as u64, tag as u64]);
        // "Pinning is performed for each MPI operation."
        let pin = self.thread.pin(obj);
        // SAFETY: pinned for the duration of the operation.
        let res = (|| -> CoreResult<()> {
            let req = unsafe { self.comm.isend_ptr(ptr, len, dest, tag)? };
            self.comm.wait_with(&req, || self.thread.poll())?;
            Ok(())
        })();
        self.thread.unpin(pin);
        res
    }

    /// Blocking receive.
    pub fn recv(
        &self,
        obj: Handle,
        src: impl Into<motor_mpc::Source>,
        tag: i32,
    ) -> CoreResult<MpStatus> {
        let src = src.into();
        let (ptr, len) = self.window(obj)?;
        self.pinvoke(&[ptr as u64, len as u64, src.peer_word() as u64, tag as u64]);
        let pin = self.thread.pin(obj);
        let res = (|| -> CoreResult<MpStatus> {
            // SAFETY: pinned for the duration.
            let req = unsafe { self.comm.irecv_ptr(ptr, len, src, tag)? };
            let st = self.comm.wait_with(&req, || self.thread.poll())?;
            Ok(MpStatus {
                source: st.source as usize,
                tag: st.tag,
                bytes: st.count,
            })
        })();
        self.thread.unpin(pin);
        res
    }

    /// Object transport: serialize with the standard CLI binary formatter
    /// and ship the blob with regular MPI routines (paper §8, Figure 10
    /// methodology).
    pub fn send_object(&self, obj: Handle, dest: usize, tag: i32) -> CoreResult<()> {
        let blob = CliFormatter::new(self.thread, self.host).serialize(obj)?;
        self.pinvoke(&[blob.len() as u64, dest as u64, tag as u64]);
        let size = (blob.len() as u64).to_le_bytes();
        self.comm.send_bytes(&size, dest, tag)?;
        self.pinvoke(&[blob.len() as u64, dest as u64, tag as u64]);
        self.comm.send_bytes(&blob, dest, tag)?;
        Ok(())
    }

    /// Receive an object shipped by [`Indiana::send_object`].
    pub fn recv_object(&self, src: impl Into<motor_mpc::Source>, tag: i32) -> CoreResult<Handle> {
        let src = src.into();
        let mut size = [0u8; 8];
        self.pinvoke(&[src.peer_word() as u64, tag as u64]);
        let st = self.comm.recv_bytes(&mut size, src, tag)?;
        let len = u64::from_le_bytes(size) as usize;
        let mut blob = vec![0u8; len];
        self.pinvoke(&[len as u64, st.source as u64, st.tag as u64]);
        self.comm
            .recv_bytes(&mut blob, st.source as usize, st.tag)?;
        CliFormatter::new(self.thread, self.host).deserialize(&blob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use motor_runtime::ElemKind;

    fn pingpong_pair(host: HostProfile, f: impl Fn(&Indiana<'_>, &MotorThread) + Send + Sync) {
        motor_core::cluster::run_cluster_default(
            2,
            |_reg| {},
            move |proc| {
                let b = Indiana::new(proc.thread(), proc.comm().clone(), host);
                f(&b, proc.thread());
            },
        )
        .unwrap();
    }

    #[test]
    fn wrapper_pingpong_roundtrip() {
        pingpong_pair(HostProfile::Net, |b, t| {
            let buf = t.alloc_prim_array(ElemKind::U8, 64);
            if b.rank() == 0 {
                t.prim_write(buf, 0, &[0x5Au8; 64]);
                b.send(buf, 1, 0).unwrap();
            } else {
                b.recv(buf, 0, 0).unwrap();
                let mut out = vec![0u8; 64];
                t.prim_read(buf, 0, &mut out);
                assert_eq!(out, vec![0x5Au8; 64]);
            }
        });
    }

    #[test]
    fn wrapper_pins_every_operation() {
        motor_core::cluster::run_cluster_default(
            2,
            |_reg| {},
            |proc| {
                let b = Indiana::new(proc.thread(), proc.comm().clone(), HostProfile::Sscli);
                let t = proc.thread();
                let buf = t.alloc_prim_array(ElemKind::U8, 16);
                // Promote: Motor's policy would stop pinning now, but the
                // wrapper cannot know that.
                t.collect_minor();
                assert!(!t.is_young(buf));
                let iters = 5;
                for _ in 0..iters {
                    if b.rank() == 0 {
                        b.send(buf, 1, 0).unwrap();
                        b.recv(buf, 1, 0).unwrap();
                    } else {
                        b.recv(buf, 0, 0).unwrap();
                        b.send(buf, 0, 0).unwrap();
                    }
                }
                let snap = proc.vm().stats_snapshot();
                assert_eq!(snap.pins, 2 * iters, "one pin per operation");
                assert_eq!(snap.unpins, 2 * iters);
            },
        )
        .unwrap();
    }

    #[test]
    fn wrapper_refuses_ref_bearing_objects() {
        motor_core::cluster::run_cluster_default(
            1,
            |reg| {
                let arr = reg.prim_array(ElemKind::I32);
                reg.define_class("Holder").transportable("a", arr).build();
            },
            |proc| {
                let b = Indiana::new(proc.thread(), proc.comm().clone(), HostProfile::Net);
                let t = proc.thread();
                let cls = {
                    let vm = t.vm();
                    let id = vm.registry().by_name("Holder").unwrap();
                    id
                };
                let h = t.alloc_instance(cls);
                assert!(matches!(
                    b.send(h, 0, 0),
                    Err(CoreError::ObjectModelIntegrity(_))
                ));
            },
        )
        .unwrap();
    }

    #[test]
    fn object_transport_roundtrips_on_both_hosts() {
        for host in [HostProfile::Sscli, HostProfile::Net] {
            motor_core::cluster::run_cluster_default(
                2,
                |reg| {
                    let arr = reg.prim_array(ElemKind::I32);
                    let next = motor_runtime::ClassId(reg.len() as u32);
                    reg.define_class("LinkedArray")
                        .prim("tag", ElemKind::I32)
                        .transportable("array", arr)
                        .transportable("next", next)
                        .reference("next2", next)
                        .build();
                },
                move |proc| {
                    let b = Indiana::new(proc.thread(), proc.comm().clone(), host);
                    let t = proc.thread();
                    let node = t.vm().registry().by_name("LinkedArray").unwrap();
                    let ftag = t.field_index(node, "tag");
                    if b.rank() == 0 {
                        let h = t.alloc_instance(node);
                        t.set_prim::<i32>(h, ftag, 321);
                        b.send_object(h, 1, 7).unwrap();
                    } else {
                        let h = b.recv_object(0, 7).unwrap();
                        assert_eq!(t.get_prim::<i32>(h, ftag), 321);
                    }
                },
            )
            .unwrap();
        }
    }
}
