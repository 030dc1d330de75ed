//! Heap integrity verification (debug/test infrastructure).
//!
//! Walks every segment and checks the invariants the collector and the
//! zero-copy transport rely on — the "object model integrity" the paper's
//! bindings are designed to protect (§2.4). Used by tests after stressful
//! GC schedules; a production build never calls it.

use std::collections::HashSet;

use crate::layout::{obj_flags, ALIGN, HEADER_SIZE};
use crate::object::{for_each_ref_slot, ObjectRef};
use crate::types::ClassId;
use crate::vm::Vm;

/// Summary of a successful heap verification.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Live objects seen (young + elder).
    pub objects: usize,
    /// Free blocks seen in the elder generation.
    pub free_blocks: usize,
    /// Reference slots checked.
    pub refs_checked: usize,
    /// Handle-table roots checked.
    pub handles_checked: usize,
}

/// Verify every reachable heap invariant; returns a report or a
/// description of the first violation found.
///
/// Checked invariants:
/// 1. every segment parses as a sequence of aligned, in-bounds allocations;
/// 2. every live header names a registered type;
/// 3. no live object carries a stale `MARK` or `FORWARDED` flag between
///    collections;
/// 4. every reference slot is null or points at the start of a live
///    object;
/// 5. every handle-table root points at the start of a live object.
pub fn verify_heap(vm: &Vm) -> Result<VerifyReport, String> {
    let st = vm.state();
    let reg = vm.registry();
    let type_count = reg.len() as u32;
    let mut report = VerifyReport::default();

    // Pass 1: collect valid object starts.
    let mut starts: HashSet<usize> = HashSet::new();
    let mut live: Vec<usize> = Vec::new();
    {
        let mut walk_segment = |seg: &crate::heap::Segment| -> Result<(), String> {
            let mut addr = seg.base();
            let end = seg.base() + seg.used();
            while addr < end {
                if !addr.is_multiple_of(ALIGN) {
                    return Err(format!("misaligned object at {addr:#x}"));
                }
                // SAFETY: walking an owned segment under the VM lock.
                let h = unsafe { ObjectRef(addr).header() };
                let size = h.size as usize;
                if size < HEADER_SIZE || !size.is_multiple_of(ALIGN) || addr + size > end {
                    return Err(format!(
                        "bad size {size} at {addr:#x} (segment end {end:#x})"
                    ));
                }
                if h.flags & obj_flags::FREE != 0 {
                    report.free_blocks += 1;
                } else {
                    if h.mt >= type_count {
                        return Err(format!("unknown type id {} at {addr:#x}", h.mt));
                    }
                    if h.flags & obj_flags::MARK != 0 {
                        return Err(format!("stale MARK flag at {addr:#x}"));
                    }
                    if h.flags & obj_flags::FORWARDED != 0 {
                        return Err(format!("live FORWARDED husk at {addr:#x}"));
                    }
                    starts.insert(addr);
                    live.push(addr);
                    report.objects += 1;
                }
                addr += size;
            }
            Ok(())
        };
        walk_segment(st.heap.young())?;
        for seg in st.heap.old_segments() {
            walk_segment(seg)?;
        }
    }

    // Pass 2: every reference slot points at a live object start.
    for &addr in &live {
        let obj = ObjectRef(addr);
        // SAFETY: validated in pass 1.
        let mt = unsafe { reg.table(ClassId(obj.header().mt)) };
        let mut bad: Option<usize> = None;
        // SAFETY: slot ranges come from the validated method table.
        unsafe {
            for_each_ref_slot(obj, mt, |slot| {
                let v = *slot;
                report.refs_checked += 1;
                if v != 0 && !starts.contains(&v) && bad.is_none() {
                    bad = Some(v);
                }
            });
        }
        if let Some(v) = bad {
            return Err(format!(
                "dangling reference {v:#x} in object {addr:#x} of type {}",
                mt.name
            ));
        }
    }

    // Pass 3: handle roots.
    for root in st.handles.roots() {
        report.handles_checked += 1;
        if !starts.contains(&root) {
            return Err(format!("handle points at non-object {root:#x}"));
        }
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HeapConfig;
    use crate::thread::MotorThread;
    use crate::types::ElemKind;
    use crate::vm::VmConfig;
    use std::sync::Arc;

    fn vm_small() -> Arc<Vm> {
        Vm::new(VmConfig {
            heap: HeapConfig {
                young_bytes: 8 * 1024,
                ..Default::default()
            },
        })
    }

    #[test]
    fn fresh_heap_verifies() {
        let vm = vm_small();
        let r = verify_heap(&vm).unwrap();
        assert_eq!(r.objects, 0);
    }

    #[test]
    fn verifies_across_collections_with_graphs() {
        let vm = vm_small();
        let node = {
            let mut reg = vm.registry_mut();
            let arr = reg.prim_array(ElemKind::I32);
            let next_id = crate::types::ClassId(reg.len() as u32);
            reg.define_class("VNode")
                .prim("tag", ElemKind::I32)
                .transportable("array", arr)
                .transportable("next", next_id)
                .build()
        };
        let t = MotorThread::attach(Arc::clone(&vm));
        let (farr, fnext) = (t.field_index(node, "array"), t.field_index(node, "next"));
        // Build a chain with empty arrays (the zero-payload regression):
        let mut head = t.null_handle();
        for i in 0..200 {
            let n = t.alloc_instance(node);
            let a = t.alloc_prim_array(ElemKind::I32, i % 3); // incl. len 0
            t.set_ref(n, farr, a);
            t.set_ref(n, fnext, head);
            t.release(a);
            t.release(head);
            head = n;
        }
        verify_heap(&vm).unwrap();
        t.collect_minor();
        let r = verify_heap(&vm).unwrap();
        assert!(r.objects >= 400, "chain and arrays survive");
        assert!(r.refs_checked >= 400);
        t.collect_full();
        verify_heap(&vm).unwrap();
        // Drop everything and collect: the heap must still verify.
        t.release(head);
        t.collect_full();
        let r = verify_heap(&vm).unwrap();
        assert!(r.free_blocks >= 1, "sweep produced free blocks");
    }

    #[test]
    fn detects_seeded_corruption() {
        let vm = vm_small();
        let node = {
            let mut reg = vm.registry_mut();
            let arr = reg.prim_array(ElemKind::I32);
            reg.define_class("VBad").transportable("array", arr).build()
        };
        let t = MotorThread::attach(Arc::clone(&vm));
        let h = t.alloc_instance(node);
        verify_heap(&vm).unwrap();
        // Corrupt the ref slot with a non-object value, bypassing the API.
        let addr = vm.handle_addr(h);
        // SAFETY: test-only deliberate corruption.
        unsafe {
            crate::object::ObjectRef(addr).write_ref_at(0, crate::object::ObjectRef(0xDEAD_BEE8));
        }
        let err = verify_heap(&vm).unwrap_err();
        assert!(err.contains("dangling reference"), "{err}");
        // SAFETY: writes back a null reference to the slot corrupted
        // above; repairs the heap so drop paths stay sane.
        unsafe {
            crate::object::ObjectRef(addr).write_ref_at(0, crate::object::ObjectRef(0));
        }
    }
}
