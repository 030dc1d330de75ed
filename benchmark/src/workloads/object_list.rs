//! `object_list`: Figure 10's linked list at 256 objects (128 nodes, each
//! referencing a 32-byte `i32` array; 4096 payload bytes), bounced with
//! `osend`/`orecv`. Every receive materialises a fresh tree.
//!
//! The serializer, its visited list, the buffer pool, allocation and the
//! minor collections it provokes do the work; the two messages per
//! direction (size header, then data) are a few microseconds of it.
//! Transport changes must leave this workload flat.

use std::sync::Arc;

use motor_core::cluster::MotorProc;
use motor_core::Serializer;
use motor_runtime::{ClassId, ElemKind, Handle, MotorThread, TypeRegistry, Vm, VmConfig};

use super::{RankProgram, Spec, Workload};
use crate::harness::{must, RankRun};
use crate::inputs::Rng;

pub const NODES: usize = 128;
pub const INTS_PER_NODE: usize = 8;
const CLASS: &str = "LinkedArray";

pub struct ObjectList {
    /// Seeded contents of the node arrays, node after node.
    data: Vec<i32>,
    /// Bytes the serializer produces for the list.
    wire_bytes: usize,
}

/// The paper's `LinkedArray` (Figure 5): a transportable `i32[]`, a
/// transportable `next`, and a `next2` the serializer must not follow.
fn define_linked_array(reg: &mut TypeRegistry) {
    let arr = reg.prim_array(ElemKind::I32);
    let this = ClassId(reg.len() as u32);
    reg.define_class(CLASS)
        .prim("tag", ElemKind::I32)
        .transportable("array", arr)
        .transportable("next", this)
        .reference("next2", this)
        .build();
}

/// Field indices of `LinkedArray`.
#[derive(Clone, Copy)]
struct Fields {
    tag: usize,
    array: usize,
    next: usize,
}

impl Fields {
    fn of(t: &MotorThread) -> Fields {
        let node = t
            .vm()
            .registry()
            .by_name(CLASS)
            .expect("LinkedArray is defined on every rank");
        Fields {
            tag: t.field_index(node, "tag"),
            array: t.field_index(node, "array"),
            next: t.field_index(node, "next"),
        }
    }
}

fn build_list(t: &MotorThread, f: Fields, data: &[i32]) -> Handle {
    let node = t.vm().registry().by_name(CLASS).expect("class defined");
    let mut head = t.null_handle();
    for i in (0..NODES).rev() {
        let n = t.alloc_instance(node);
        t.set_prim::<i32>(n, f.tag, i as i32);
        let a = t.alloc_prim_array(ElemKind::I32, INTS_PER_NODE);
        t.prim_write(a, 0, &data[i * INTS_PER_NODE..(i + 1) * INTS_PER_NODE]);
        t.set_ref(n, f.array, a);
        t.set_ref(n, f.next, head);
        t.release(a);
        t.release(head);
        head = n;
    }
    head
}

/// Walk a received list: `NODES` nodes, node `i` tagged `i` (the head
/// tagged `head_tag`), each array equal to its slice of `data`.
fn list_matches(t: &MotorThread, f: Fields, head: Handle, head_tag: i32, data: &[i32]) -> bool {
    let mut ok = true;
    let mut ints = [0i32; INTS_PER_NODE];
    let mut cur = t.clone_handle(head);
    let mut i = 0;
    while !t.is_null(cur) && i < NODES {
        let want_tag = if i == 0 { head_tag } else { i as i32 };
        ok &= t.get_prim::<i32>(cur, f.tag) == want_tag;
        let a = t.get_ref(cur, f.array);
        ok &= !t.is_null(a) && t.array_len(a) == INTS_PER_NODE;
        if ok {
            t.prim_read(a, 0, &mut ints);
            ok &= ints[..] == data[i * INTS_PER_NODE..(i + 1) * INTS_PER_NODE];
        }
        t.release(a);
        let next = t.get_ref(cur, f.next);
        t.release(cur);
        cur = next;
        i += 1;
    }
    ok &= t.is_null(cur) && i == NODES;
    t.release(cur);
    ok
}

impl ObjectList {
    pub fn new(seed: u64) -> ObjectList {
        let mut rng = Rng::new(seed, 20);
        let data: Vec<i32> = (0..NODES * INTS_PER_NODE)
            .map(|_| rng.next_u64() as i32)
            .collect();
        // Serialize once in a scratch VM to learn the wire size the
        // per-layer ladder should ping-pong.
        let mut list = ObjectList {
            data,
            wire_bytes: 0,
        };
        let t = ObjectList::scratch_thread();
        let head = list.build(&t);
        let (bytes, _) = must("serialize", Serializer::new(&t).serialize(head));
        list.wire_bytes = bytes.len();
        list
    }

    /// A thread attached to a fresh default VM that knows `LinkedArray`,
    /// outside any cluster (set-up, and the isolated serializer and
    /// collector measurements).
    pub fn scratch_thread() -> MotorThread {
        let vm = Vm::new(VmConfig::default());
        define_linked_array(&mut vm.registry_mut());
        MotorThread::attach(Arc::clone(&vm))
    }

    /// Allocate this workload's list on `t`'s heap; returns the head.
    pub fn build(&self, t: &MotorThread) -> Handle {
        build_list(t, Fields::of(t), &self.data)
    }
}

impl Workload for ObjectList {
    fn spec(&self) -> Spec {
        Spec {
            name: "object_list",
            batch: 200,
            min_batch: 1,
            ladder_bytes: self.wire_bytes,
            payload_bytes_per_iter: 2 * (8 + self.wire_bytes as u64),
            nonblocking_per_iter: 0,
        }
    }
}

impl RankProgram for ObjectList {
    fn define_types(&self, reg: &mut TypeRegistry) {
        define_linked_array(reg);
    }

    fn rank(&self, proc: &MotorProc, run: &RankRun<'_>) {
        let oomp = proc.oomp();
        let t = proc.thread();
        let f = Fields::of(t);
        if oomp.rank() == 0 {
            let head = build_list(t, f, &self.data);
            run.iterate(proc, |cx| {
                let stamp = cx.i as i32;
                t.set_prim::<i32>(head, f.tag, stamp);
                let s = cx.begin("core.oomp.osend");
                must("osend", oomp.osend(head, 1, 0));
                cx.end(s);
                let r = cx.begin("core.oomp.orecv");
                let (back, _) = must("orecv", oomp.orecv(1, 0));
                cx.end(r);
                cx.ops += 2;
                if cx.flip_now() {
                    t.set_prim::<i32>(back, f.tag, stamp ^ 1);
                }
                cx.check(list_matches(t, f, back, stamp, &self.data));
                t.release(back);
            });
            t.release(head);
        } else {
            run.iterate(proc, |cx| {
                let r = cx.begin("core.oomp.orecv");
                let (list, _) = must("orecv", oomp.orecv(0, 0));
                cx.end(r);
                cx.check(t.get_prim::<i32>(list, f.tag) == cx.i as i32);
                let s = cx.begin("core.oomp.osend");
                must("osend", oomp.osend(list, 0, 0));
                cx.end(s);
                cx.ops += 2;
                t.release(list);
            });
        }
    }
}
