//! Garbage collection: minor (copying) and full (mark-sweep) collections.
//!
//! Implements the SSCLI collector behaviour described in paper §5.2,
//! including the two Motor-specific interactions from §4.3/§7.4:
//!
//! * **Conditional pin requests** are resolved at the start of the mark
//!   phase: "the garbage collector checks the status of the underlying
//!   non-blocking transport operations. If the operation is ongoing, the
//!   object is marked as pinned and therefore remains untouched during the
//!   impending sweep phase. Otherwise, the pinning request is no longer
//!   necessary and is disregarded."
//! * **Pinned-block promotion**: "The garbage collector maintains a list of
//!   objects which require pinning and these objects are not moved. Rather,
//!   the entire block of younger generational memory is assigned to the
//!   elder generation thereby promoting pinned objects. A new younger
//!   generation is allocated. Non-pinned objects are copied and compacted
//!   as before."
//!
//! Roots are the slots of every attached thread's handle table (the
//! `GCPROTECT` analog), remembered-set slots (elder objects holding young
//! references), and active pins — a pinned buffer is being read or written
//! by the transport, so it must stay live regardless of mutator references.

use std::collections::HashSet;

use motor_obs::{Metric, MetricsRegistry};

use crate::handles::HandleTable;
use crate::heap::{FreeBlock, Heap};
use crate::layout::{obj_flags, HEADER_SIZE};
use crate::object::{for_each_ref_slot, ObjectRef};
use crate::pin::PinTable;
use crate::types::{ClassId, TypeRegistry};

/// Borrowed view of everything a collection touches.
pub struct CollectCtx<'a> {
    /// The heap being collected.
    pub heap: &'a mut Heap,
    /// Every attached thread's handle table (the root set, rewritten in
    /// place).
    pub handles: Vec<&'a mut HandleTable>,
    /// Pin table (hard pins and conditional requests).
    pub pins: &'a mut PinTable,
    /// Remembered set: addresses of elder-generation reference slots that
    /// may hold young references.
    pub remset: &'a mut HashSet<usize>,
    /// Type registry (for ref-slot scanning).
    pub registry: &'a TypeRegistry,
    /// Where the `Metric::Gc*` counters are bumped.
    pub metrics: &'a MetricsRegistry,
    /// Per-class never-transported proof bits (indexed by `ClassId`),
    /// when the static-analysis escape pass installed one. A proven
    /// class's instances can never be transport buffers, so the minor
    /// collector skips the pinned-set membership check for them.
    pub never_transported: Option<&'a [bool]>,
}

/// Copy-evacuation machinery for a minor collection.
struct Evacuator<'a> {
    heap: &'a mut Heap,
    pinned_young: &'a HashSet<usize>,
    /// Objects whose reference slots still need scanning (new elder copies
    /// and in-place pinned young objects).
    scan: Vec<usize>,
    metrics: &'a MetricsRegistry,
    /// Never-transported proof bits (see [`CollectCtx::never_transported`]).
    never_transported: Option<&'a [bool]>,
}

impl Evacuator<'_> {
    /// Forward one reference: returns the post-collection address.
    fn forward(&mut self, addr: usize) -> usize {
        if addr == 0 || !self.heap.is_young(addr) {
            return addr;
        }
        let obj = ObjectRef(addr);
        // SAFETY: collector has exclusive heap access.
        unsafe {
            if let Some(f) = obj.forwarded() {
                return f.0;
            }
            // Escape-proof fast path: a never-transported class's
            // instances can never be pinned, so the membership probe is
            // skipped outright (counted, so the ablation can measure the
            // proof's coverage).
            let proven_unpinned = self
                .never_transported
                .and_then(|bits| bits.get(obj.header().mt as usize).copied())
                .unwrap_or(false);
            if proven_unpinned {
                self.metrics.bump(Metric::GcPinChecksElided);
                debug_assert!(
                    !self.pinned_young.contains(&addr),
                    "object of a never-transported class found in the pinned set"
                );
            } else if self.pinned_young.contains(&addr) {
                // Pinned: stays in place; the block promotion keeps the
                // address valid. Mark to dedupe the scan.
                let h = obj.header_mut();
                if h.flags & obj_flags::MARK == 0 {
                    h.flags |= obj_flags::MARK;
                    self.scan.push(addr);
                }
                return addr;
            }
            // Copy to the elder generation ("promoted ... with compaction").
            let h = obj.header();
            let size = h.size as usize;
            let new_addr = self
                .heap
                .alloc_old_unchecked(size, h)
                .expect("elder generation growth during collection");
            std::ptr::copy_nonoverlapping(
                (addr + HEADER_SIZE) as *const u8,
                (new_addr + HEADER_SIZE) as *mut u8,
                size - HEADER_SIZE,
            );
            // The copy keeps the original header but becomes elder-resident.
            let nh = ObjectRef(new_addr).header_mut();
            nh.flags = (h.flags | obj_flags::IN_OLD) & !(obj_flags::MARK | obj_flags::FORWARDED);
            obj.forward_to(ObjectRef(new_addr));
            self.metrics.bump(Metric::GcObjectsPromoted);
            self.metrics.add(Metric::GcBytesPromoted, size as u64);
            self.scan.push(new_addr);
            new_addr
        }
    }
}

/// Perform a minor (young-generation) collection.
pub fn minor(ctx: &mut CollectCtx<'_>) {
    ctx.metrics.bump(Metric::GcMinorCollections);

    // Mark-phase resolution of conditional pin requests (paper §7.4).
    let (held, released) = ctx.pins.resolve_conditionals();
    ctx.metrics.add(Metric::GcCondPinsHeld, held.len() as u64);
    ctx.metrics.add(Metric::GcCondPinsReleased, released);

    // The set of young objects that must not move.
    let mut pinned_young: HashSet<usize> = HashSet::new();
    for addr in ctx.pins.hard_pinned_addrs() {
        if ctx.heap.is_young(addr) {
            pinned_young.insert(addr);
        }
    }
    for addr in held {
        if ctx.heap.is_young(addr) {
            pinned_young.insert(addr);
        }
    }

    let mut ev = Evacuator {
        heap: &mut *ctx.heap,
        pinned_young: &pinned_young,
        scan: Vec::new(),
        metrics: ctx.metrics,
        never_transported: ctx.never_transported,
    };

    // Roots 1: pins themselves (the transport is using these buffers).
    let pin_roots: Vec<usize> = pinned_young.iter().copied().collect();
    for addr in pin_roots {
        ev.forward(addr);
    }
    // Roots 2: handle slots, every thread's.
    for table in ctx.handles.iter_mut() {
        table.for_each_slot_mut(|slot| {
            *slot = ev.forward(*slot);
        });
    }
    // Roots 3: remembered-set slots (elder objects that store young refs).
    for &slot_addr in ctx.remset.iter() {
        // SAFETY: barrier-recorded slots live inside elder objects, which
        // never move; entries are cleared every collection so none is stale.
        unsafe {
            let slot = slot_addr as *mut usize;
            *slot = ev.forward(*slot);
        }
    }

    // Transitive scan.
    while let Some(addr) = ev.scan.pop() {
        let obj = ObjectRef(addr);
        // SAFETY: addr is a live object (new elder copy or pinned young).
        let mt_id = unsafe { obj.header().mt };
        let mt = ctx.registry.table(ClassId(mt_id));
        // SAFETY: exclusive access; slots are valid for this type.
        unsafe {
            for_each_ref_slot(obj, mt, |slot| {
                let v = *slot;
                let n = ev.forward(v);
                *slot = n;
            });
        }
    }

    if pinned_young.is_empty() {
        // Whole young generation evacuated; recycle the block.
        ctx.heap.young_mut().reset();
    } else {
        // Pinned objects present: free the non-pinned remains in place,
        // then assign the entire young block to the elder generation.
        ctx.metrics.bump(Metric::GcPinnedBlockPromotions);
        let mut free_blocks: Vec<FreeBlock> = Vec::new();
        let mut run_start: Option<usize> = None;
        let mut run_len = 0usize;
        let addrs: Vec<(usize, usize, bool)> = ctx
            .heap
            .young()
            .walk()
            .map(|a| {
                // SAFETY: walking our own segment.
                let h = unsafe { ObjectRef(a).header() };
                (a, h.size as usize, pinned_young.contains(&a))
            })
            .collect();
        for (addr, size, is_pinned) in addrs {
            if is_pinned {
                // Close any open free run.
                if let Some(start) = run_start.take() {
                    Heap::stamp_free(start, run_len);
                    free_blocks.push(FreeBlock {
                        addr: start,
                        size: run_len,
                    });
                    run_len = 0;
                }
                // Clear the scan-dedup mark.
                ctx.heap.update_flags(addr, 0, obj_flags::MARK);
            } else {
                if run_start.is_none() {
                    run_start = Some(addr);
                }
                run_len += size;
            }
        }
        if let Some(start) = run_start {
            Heap::stamp_free(start, run_len);
            free_blocks.push(FreeBlock {
                addr: start,
                size: run_len,
            });
        }
        let freed: usize = free_blocks.iter().map(|b| b.size).sum();
        ctx.heap.promote_young_block();
        ctx.heap.add_free_blocks(free_blocks, freed);
    }

    // The young generation is empty either way; every barrier entry is
    // consumed.
    ctx.remset.clear();
}

/// Perform a full collection: minor first (emptying the young generation),
/// then a mark-sweep of the elder generation. Elder objects never move
/// (paper §5.2), so no reference rewriting is needed.
pub fn full(ctx: &mut CollectCtx<'_>) {
    minor(ctx);
    ctx.metrics.bump(Metric::GcFullCollections);

    // Mark.
    let mut stack: Vec<usize> = Vec::new();
    for table in &ctx.handles {
        stack.extend(table.roots());
    }
    for addr in ctx.pins.hard_pinned_addrs() {
        stack.push(addr);
    }
    // Conditional pins still in flight (resolved during the minor phase)
    // are roots too: the transport is reading/writing those buffers.
    let (held, released) = ctx.pins.resolve_conditionals();
    ctx.metrics.add(Metric::GcCondPinsHeld, held.len() as u64);
    ctx.metrics.add(Metric::GcCondPinsReleased, released);
    stack.extend(held);

    while let Some(addr) = stack.pop() {
        if addr == 0 {
            continue;
        }
        let obj = ObjectRef(addr);
        // SAFETY: exclusive access during collection.
        unsafe {
            let h = obj.header_mut();
            if h.flags & (obj_flags::MARK | obj_flags::FREE) != 0 {
                continue;
            }
            h.flags |= obj_flags::MARK;
            let mt = ctx.registry.table(ClassId(h.mt));
            for_each_ref_slot(obj, mt, |slot| {
                let v = *slot;
                if v != 0 {
                    stack.push(v);
                }
            });
        }
    }

    // Sweep every elder segment, coalescing dead and already-free space.
    let mut free_blocks: Vec<FreeBlock> = Vec::new();
    let mut newly_freed = 0usize;
    let mut swept_objects = 0u64;
    let seg_count = ctx.heap.old_segments().len();
    for si in 0..seg_count {
        let entries: Vec<(usize, usize, u32)> = ctx.heap.old_segments()[si]
            .walk()
            .map(|a| {
                // SAFETY: walking a segment we own exclusively.
                let h = unsafe { ObjectRef(a).header() };
                (a, h.size as usize, h.flags)
            })
            .collect();
        let mut run_start: Option<usize> = None;
        let mut run_len = 0usize;
        for (addr, size, flags) in entries {
            let live = flags & obj_flags::MARK != 0;
            if live {
                ctx.heap.update_flags(addr, 0, obj_flags::MARK);
                if let Some(start) = run_start.take() {
                    Heap::stamp_free(start, run_len);
                    free_blocks.push(FreeBlock {
                        addr: start,
                        size: run_len,
                    });
                    run_len = 0;
                }
            } else {
                if flags & obj_flags::FREE == 0 {
                    // Newly dead (includes forwarding husks left by pinned
                    // block promotion).
                    newly_freed += size;
                    swept_objects += 1;
                }
                if run_start.is_none() {
                    run_start = Some(addr);
                }
                run_len += size;
            }
        }
        if let Some(start) = run_start {
            Heap::stamp_free(start, run_len);
            free_blocks.push(FreeBlock {
                addr: start,
                size: run_len,
            });
        }
    }
    ctx.metrics.add(Metric::GcObjectsSwept, swept_objects);
    ctx.metrics.add(Metric::GcBytesSwept, newly_freed as u64);
    ctx.heap.set_free_list(free_blocks, newly_freed);
}
