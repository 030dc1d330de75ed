//! The mpiJava bindings analog (JNI-wrapped MPI for Java).
//!
//! Paper §2.1: "mpiJava is a Java wrapper to an underlying native MPI
//! implementation ... Both mpiJava and JavaMPI use the Java Native
//! Interface (JNI), which provides a Java mechanism to call native code."
//! §2.3: "The JNI interface automatically pins and unpins objects."
//!
//! Each operation pays: the JNI call transition (method-ID resolution +
//! marshalling + mode flip), automatic pin/unpin, and **copy-based array
//! access** (`Get/Set<Type>ArrayRegion` staging copies — the conservative
//! JNI path a JVM falls back to when it cannot hand out a direct pointer).
//! Object transport uses the Java serialization analog, whose recursive
//! walk overflows on long lists (Figure 10).

use motor_core::{CoreError, CoreResult, MpStatus};
use motor_mpc::Comm;
use motor_runtime::{Handle, MotorThread, TypeKind};
use parking_lot::Mutex;

use crate::callconv::JniEnv;
use crate::javaser::{JavaSerError, JavaSerializer};

/// The mpiJava wrapper bound to a thread and communicator.
pub struct MpiJava<'t> {
    thread: &'t MotorThread,
    comm: Comm,
    env: JniEnv,
    staging: Mutex<Vec<u8>>,
    /// Checksum sink keeping the transition work observable.
    pub checksum: std::cell::Cell<u64>,
}

impl<'t> MpiJava<'t> {
    /// Bind the wrapper.
    pub fn new(thread: &'t MotorThread, comm: Comm) -> MpiJava<'t> {
        MpiJava {
            thread,
            comm,
            env: JniEnv::new(),
            staging: Mutex::new(Vec::new()),
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

    fn jni(&self, name: &str, sig: &str, args: &[u64]) {
        let c = self.env.transition("mpi/Comm", name, sig, args);
        self.checksum.set(self.checksum.get() ^ c);
    }

    fn window(&self, obj: Handle) -> CoreResult<(*mut u8, usize)> {
        if self.thread.is_null(obj) {
            return Err(CoreError::NullBuffer);
        }
        let vm = self.thread.vm();
        let reg = vm.registry();
        let class = self.thread.class_of(obj);
        match reg.table(class).kind {
            TypeKind::PrimArray(_) => {}
            _ => {
                // Java has neither structs nor true md arrays to pass here.
                return Err(CoreError::ObjectModelIntegrity(
                    reg.table(class).name.clone(),
                ));
            }
        }
        drop(reg);
        Ok(self.thread.raw_data_window(obj))
    }

    /// Blocking send: JNI transition, automatic pin, staged copy out of
    /// the managed array, native send from the staging buffer, unpin.
    pub fn send(&self, obj: Handle, dest: usize, tag: i32) -> CoreResult<()> {
        let (ptr, len) = self.window(obj)?;
        self.jni(
            "send",
            "(Ljava/lang/Object;IIII)V",
            &[len as u64, dest as u64, tag as u64],
        );
        let pin = self.thread.pin(obj);
        let res = (|| -> CoreResult<()> {
            let mut staging = self.staging.lock();
            // SAFETY: pinned; GetArrayRegion copy.
            let src = unsafe { std::slice::from_raw_parts(ptr, len) };
            self.env.get_array_region(src, &mut staging);
            // The native MPI sends from the staging buffer.
            self.comm.send_bytes(&staging, dest, tag)?;
            Ok(())
        })();
        self.thread.unpin(pin);
        res
    }

    /// Blocking receive: native receive into staging, then copy into the
    /// managed array.
    pub fn recv(
        &self,
        obj: Handle,
        src: impl Into<motor_mpc::Source>,
        tag: i32,
    ) -> CoreResult<MpStatus> {
        let src = src.into();
        let (ptr, len) = self.window(obj)?;
        self.jni(
            "recv",
            "(Ljava/lang/Object;IIII)Lmpi/Status;",
            &[len as u64, src.peer_word() as u64],
        );
        let pin = self.thread.pin(obj);
        let res = (|| -> CoreResult<MpStatus> {
            let mut staging = self.staging.lock();
            staging.resize(len, 0);
            let st = self.comm.recv_bytes(&mut staging, src, tag)?;
            // SAFETY: pinned; SetArrayRegion copy.
            let dst = unsafe { std::slice::from_raw_parts_mut(ptr, st.count) };
            self.env.set_array_region(&staging[..st.count], dst);
            Ok(MpStatus {
                source: st.source as usize,
                tag: st.tag,
                bytes: st.count,
            })
        })();
        self.thread.unpin(pin);
        res
    }

    /// Object transport with the `MPI.OBJECT` datatype: Java-serialize,
    /// send length then stream (mpiJava sends the size first, as Motor
    /// does — paper §7.5 cites this).
    pub fn send_object(&self, obj: Handle, dest: usize, tag: i32) -> CoreResult<()> {
        let stream = JavaSerializer::new(self.thread)
            .serialize(obj)
            .map_err(|e| match e {
                JavaSerError::StackOverflow { depth } => CoreError::Serialization(format!(
                    "java.lang.StackOverflowError (depth {depth})"
                )),
                JavaSerError::Stream(s) => CoreError::Serialization(s),
            })?;
        self.jni(
            "send",
            "(Ljava/lang/Object;IIII)V",
            &[stream.len() as u64, dest as u64],
        );
        let size = (stream.len() as u64).to_le_bytes();
        self.comm.send_bytes(&size, dest, tag)?;
        self.comm.send_bytes(&stream, dest, tag)?;
        Ok(())
    }

    /// Receive an object shipped by [`MpiJava::send_object`].
    pub fn recv_object(&self, src: impl Into<motor_mpc::Source>, tag: i32) -> CoreResult<Handle> {
        let src = src.into();
        self.jni(
            "recv",
            "(Ljava/lang/Object;IIII)Lmpi/Status;",
            &[src.peer_word() as u64, tag as u64],
        );
        let mut size = [0u8; 8];
        let st = self.comm.recv_bytes(&mut size, src, tag)?;
        let len = u64::from_le_bytes(size) as usize;
        let mut stream = vec![0u8; len];
        self.comm
            .recv_bytes(&mut stream, st.source as usize, st.tag)?;
        JavaSerializer::new(self.thread).deserialize(&stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use motor_runtime::ElemKind;

    #[test]
    fn jni_pingpong_roundtrip() {
        motor_core::cluster::run_cluster_default(
            2,
            |_reg| {},
            |proc| {
                let j = MpiJava::new(proc.thread(), proc.comm().clone());
                let t = proc.thread();
                let buf = t.alloc_prim_array(ElemKind::U8, 128);
                if j.rank() == 0 {
                    t.prim_write(buf, 0, &[0xC3u8; 128]);
                    j.send(buf, 1, 0).unwrap();
                    j.recv(buf, 1, 0).unwrap();
                    let mut out = vec![0u8; 128];
                    t.prim_read(buf, 0, &mut out);
                    assert_eq!(out, vec![0xC4u8; 128]);
                } else {
                    j.recv(buf, 0, 0).unwrap();
                    let mut data = vec![0u8; 128];
                    t.prim_read(buf, 0, &mut data);
                    for b in data.iter_mut() {
                        *b = b.wrapping_add(1);
                    }
                    t.prim_write(buf, 0, &data);
                    j.send(buf, 0, 0).unwrap();
                }
            },
        )
        .unwrap();
    }

    #[test]
    fn jni_object_transport_roundtrip() {
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
            |proc| {
                let j = MpiJava::new(proc.thread(), proc.comm().clone());
                let t = proc.thread();
                let node = t.vm().registry().by_name("LinkedArray").unwrap();
                let (ftag, fnext) = (t.field_index(node, "tag"), t.field_index(node, "next"));
                if j.rank() == 0 {
                    // Three-element list.
                    let mut head = t.null_handle();
                    for i in (0..3).rev() {
                        let n = t.alloc_instance(node);
                        t.set_prim::<i32>(n, ftag, i);
                        t.set_ref(n, fnext, head);
                        t.release(head);
                        head = n;
                    }
                    j.send_object(head, 1, 5).unwrap();
                } else {
                    let h = j.recv_object(0, 5).unwrap();
                    let mut cur = t.clone_handle(h);
                    for i in 0..3 {
                        assert_eq!(t.get_prim::<i32>(cur, ftag), i);
                        let nx = t.get_ref(cur, fnext);
                        t.release(cur);
                        cur = nx;
                    }
                    assert!(t.is_null(cur));
                }
            },
        )
        .unwrap();
    }

    #[test]
    fn long_object_graphs_fail_like_java() {
        motor_core::cluster::run_cluster_default(
            1,
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
            |proc| {
                let j = MpiJava::new(proc.thread(), proc.comm().clone());
                let t = proc.thread();
                let node = t.vm().registry().by_name("LinkedArray").unwrap();
                let fnext = t.field_index(node, "next");
                let mut head = t.null_handle();
                for _ in 0..1500 {
                    let n = t.alloc_instance(node);
                    t.set_ref(n, fnext, head);
                    t.release(head);
                    head = n;
                }
                let err = j.send_object(head, 0, 0).unwrap_err();
                assert!(err.to_string().contains("StackOverflowError"));
            },
        )
        .unwrap();
    }
}
