//! Attached mutator threads — the safe, handle-based runtime API.
//!
//! A [`MotorThread`] is the runtime's view of one mutator: it registers
//! with the safepoint coordinator on attach, must poll regularly (the
//! analog of JIT-inserted GC polls), and may enter *native regions* (the
//! analog of pre-emptive mode) in which the collector will not wait for it.
//!
//! All object access goes through [`crate::handles::Handle`]s so that the
//! moving collector can rewrite every reference it relocates — the
//! discipline the paper's FCalls follow with the `GCPROTECT` macros (§5.1).
//!
//! Lock ordering: the VM state mutex may be held while taking the type
//! registry read lock, never the reverse. No method of this type holds the
//! registry lock while acquiring the state lock.

use std::cell::Cell;
use std::sync::Arc;

use motor_obs::{EventKind, Metric};

use crate::handles::Handle;
use crate::heap::{AllocPressure, Extent};
use crate::layout::{self, ObjHeader};
use crate::object::ObjectRef;
use crate::pin::{PinCondition, PinToken};
use crate::types::{ClassId, ElemKind, FieldType, TypeKind};
use crate::vm::{Vm, VmState};

/// Marker trait tying Rust primitive types to managed element kinds.
pub trait Prim: Copy + 'static {
    /// The managed element kind this Rust type maps to.
    const KIND: ElemKind;
}

macro_rules! impl_prim {
    ($($t:ty => $k:ident),* $(,)?) => {
        $(impl Prim for $t { const KIND: ElemKind = ElemKind::$k; })*
    };
}

impl_prim! {
    u8 => U8, i8 => I8, i16 => I16, u16 => U16,
    i32 => I32, u32 => U32, i64 => I64, u64 => U64,
    f32 => F32, f64 => F64,
}

/// What the transport layer needs of a buffer object, resolved at once
/// (see [`MotorThread::transport_view`]).
#[derive(Debug, Clone, Copy)]
pub struct TransportView {
    /// The object's class.
    pub class: ClassId,
    /// The zero-copy data window `(pointer, byte length)`, as
    /// [`MotorThread::raw_data_window`] resolves it; `None` for a type whose
    /// instance data holds references (a class with reference fields, an
    /// object array), which no raw transport may touch.
    pub window: Option<(*mut u8, usize)>,
    /// Element kind and length of a primitive or multidimensional array.
    pub elems: Option<(ElemKind, usize)>,
    /// Whether the object sits in the young generation (see
    /// [`MotorThread::is_young`]).
    pub young: bool,
}

/// A mutator thread attached to a VM.
pub struct MotorThread {
    vm: Arc<Vm>,
    native_depth: Cell<u32>,
}

impl MotorThread {
    /// Attach the calling thread to a VM.
    pub fn attach(vm: Arc<Vm>) -> MotorThread {
        vm.safepoint().register();
        MotorThread {
            vm,
            native_depth: Cell::new(0),
        }
    }

    /// The VM this thread is attached to.
    pub fn vm(&self) -> &Arc<Vm> {
        &self.vm
    }

    /// Safepoint poll: parks for the duration of any pending collection.
    #[inline]
    pub fn poll(&self) {
        self.vm.safepoint().poll();
    }

    /// Run `f` in a native region: the collector will not wait for this
    /// thread while inside, and `f` must not touch the heap.
    pub fn native<R>(&self, f: impl FnOnce() -> R) -> R {
        self.enter_native();
        let r = f();
        self.exit_native();
        r
    }

    /// Enter a native region (nestable).
    pub fn enter_native(&self) {
        if self.native_depth.get() == 0 {
            self.vm.safepoint().enter_native();
        }
        self.native_depth.set(self.native_depth.get() + 1);
    }

    /// Leave a native region; blocks while a collection is in progress.
    pub fn exit_native(&self) {
        let d = self.native_depth.get();
        debug_assert!(d > 0, "exit_native without enter_native");
        if d == 1 {
            self.vm.safepoint().exit_native();
        }
        self.native_depth.set(d - 1);
    }

    // ------------------------------------------------------------------
    // Collection control
    // ------------------------------------------------------------------

    /// Whether this thread ran the collection; otherwise another thread's
    /// completed while we waited. Either way the caller retries its
    /// allocation.
    fn run_collection(&self, kind: AllocPressure) -> bool {
        let ours = self.vm.safepoint().try_begin_gc();
        if ours {
            self.vm.collect_exclusive(kind);
            self.vm.safepoint().end_gc();
        }
        ours
    }

    /// Force a minor collection.
    pub fn collect_minor(&self) {
        self.run_collection(AllocPressure::NeedsMinor);
    }

    /// Force a full collection.
    pub fn collect_full(&self) {
        self.run_collection(AllocPressure::NeedsFull);
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Allocate one object: poll, try, and under pressure collect outside
    /// the state lock and try again. An object that a full collection of
    /// this thread's could not bring under the elder generation's soft
    /// limit is placed past it, as a promotion would be: the limit paces
    /// collections, it does not refuse live data.
    fn alloc_with_retry(&self, size: usize, header: ObjHeader) -> usize {
        let mut full_failed = false;
        loop {
            self.poll();
            let pressure = {
                let mut st = self.vm.state();
                let placed = if full_failed {
                    st.heap
                        .alloc_old_unchecked(size, header)
                        .ok_or(AllocPressure::NeedsFull)
                } else {
                    st.heap.alloc(size, header)
                };
                match placed {
                    Ok(addr) => return addr,
                    Err(p) => p,
                }
            };
            full_failed = self.run_collection(pressure) && pressure == AllocPressure::NeedsFull;
        }
    }

    /// Allocate a class instance (fields zeroed / null).
    pub fn alloc_instance(&self, class: ClassId) -> Handle {
        let size = {
            let reg = self.vm.registry();
            let mt = reg.table(class);
            assert!(
                matches!(mt.kind, TypeKind::Class),
                "alloc_instance requires a class type"
            );
            layout::class_alloc_size(mt)
        };
        let addr = self.alloc_with_retry(
            size,
            ObjHeader {
                mt: class.0,
                flags: 0,
                size: 0,
                extra: 0,
            },
        );
        self.vm.state().handles.create(addr)
    }

    /// Allocate a primitive array of `len` zeroed elements.
    pub fn alloc_prim_array(&self, kind: ElemKind, len: usize) -> Handle {
        let class = self.array_class(kind);
        let size = layout::prim_array_alloc_size(kind, len);
        let addr = self.alloc_with_retry(
            size,
            ObjHeader {
                mt: class.0,
                flags: 0,
                size: 0,
                extra: len as u32,
            },
        );
        self.vm.state().handles.create(addr)
    }

    /// Canonical primitive-array class id.
    pub fn array_class(&self, kind: ElemKind) -> ClassId {
        // Fast path under the read lock; create under the write lock.
        if let Some(id) = self.vm.registry().prim_array_id(kind) {
            return id;
        }
        self.vm.registry_mut().prim_array(kind)
    }

    /// Canonical object-array class id.
    pub fn obj_array_class(&self, elem: ClassId) -> ClassId {
        if let Some(id) = self.vm.registry().obj_array_id(elem) {
            return id;
        }
        self.vm.registry_mut().obj_array(elem)
    }

    /// Canonical multidimensional-array class id.
    pub fn md_array_class(&self, kind: ElemKind, rank: u8) -> ClassId {
        // NB: the read guard goes in its own statement — an `if let`
        // scrutinee temporary would still hold it inside an `else` branch
        // that needs the write lock.
        let existing = self.vm.registry().md_array_id(kind, rank);
        match existing {
            Some(id) => id,
            None => self.vm.registry_mut().md_array(kind, rank),
        }
    }

    /// Allocate an array of object references (all null).
    pub fn alloc_obj_array(&self, elem: ClassId, len: usize) -> Handle {
        let class = self.obj_array_class(elem);
        let size = layout::obj_array_alloc_size(len);
        let addr = self.alloc_with_retry(
            size,
            ObjHeader {
                mt: class.0,
                flags: 0,
                size: 0,
                extra: len as u32,
            },
        );
        self.vm.state().handles.create(addr)
    }

    /// Allocate a true multidimensional array (row-major, zeroed) — the
    /// CLI feature the paper contrasts with Java's arrays-of-arrays (§3).
    pub fn alloc_md_array(&self, kind: ElemKind, dims: &[u32]) -> Handle {
        assert!(dims.len() >= 2, "md arrays have rank >= 2");
        let class = self.md_array_class(kind, dims.len() as u8);
        let count: usize = dims.iter().map(|&d| d as usize).product();
        let size = layout::md_array_alloc_size(kind, dims);
        let addr = self.alloc_with_retry(
            size,
            ObjHeader {
                mt: class.0,
                flags: 0,
                size: 0,
                extra: count as u32,
            },
        );
        // Write the dimension header.
        let obj = ObjectRef(addr);
        // SAFETY: freshly allocated; we are cooperative and not polling.
        unsafe {
            let p = obj.payload_ptr() as *mut u32;
            for (i, &d) in dims.iter().enumerate() {
                std::ptr::write(p.add(i), d);
            }
        }
        self.vm.state().handles.create(addr)
    }

    /// Allocate a whole object graph in one step (trusted integration
    /// layer: the serializer's materializer). One contiguous extent of
    /// `total` bytes is reserved by the rule of a single allocation — poll,
    /// lock the state once, collect and retry under pressure — and `fill`
    /// carves it into objects, the root first; the root gets the only
    /// handle. As for one object, a graph that a full collection of this
    /// thread's could not bring under the elder generation's soft limit is
    /// placed past it.
    ///
    /// `fill` runs under the state lock, so it must not call back into
    /// this thread. It must carve all of the extent (checked) and leave
    /// every reference slot null or holding the address of an object it
    /// carved.
    pub fn alloc_graph(&self, total: usize, fill: impl FnOnce(&mut Extent<'_>)) -> Handle {
        let mut full_failed = false;
        loop {
            self.poll();
            let pressure = {
                let mut st = self.vm.state();
                let VmState { heap, handles, .. } = &mut *st;
                let reserved = if full_failed {
                    Ok(heap.alloc_extent_unchecked(total))
                } else {
                    heap.alloc_extent(total)
                };
                match reserved {
                    Ok(mut extent) => {
                        let root = extent.next();
                        fill(&mut extent);
                        // Else the handle would name a filler block.
                        assert_eq!(extent.remaining(), 0, "extent carved in full");
                        return handles.create(root);
                    }
                    Err(p) => p,
                }
            };
            full_failed = self.run_collection(pressure) && pressure == AllocPressure::NeedsFull;
        }
    }

    // ------------------------------------------------------------------
    // Handles
    // ------------------------------------------------------------------

    /// A fresh handle holding null.
    pub fn null_handle(&self) -> Handle {
        self.vm.state().handles.create(0)
    }

    /// Duplicate a handle (both must be released).
    pub fn clone_handle(&self, h: Handle) -> Handle {
        let mut st = self.vm.state();
        let addr = st.handles.get(h);
        st.handles.create(addr)
    }

    /// Release a handle slot.
    pub fn release(&self, h: Handle) {
        self.vm.state().handles.release(h);
    }

    /// Whether the handle currently holds null.
    pub fn is_null(&self, h: Handle) -> bool {
        self.vm.handle_addr(h) == 0
    }

    /// Whether two handles reference the same object.
    pub fn same_object(&self, a: Handle, b: Handle) -> bool {
        let st = self.vm.state();
        st.handles.get(a) == st.handles.get(b)
    }

    /// Class of the referenced object.
    pub fn class_of(&self, h: Handle) -> ClassId {
        let addr = self.vm.handle_addr(h);
        assert!(addr != 0, "class_of on null handle");
        // SAFETY: live object; GC excluded while we are cooperative.
        ClassId(unsafe { ObjectRef(addr).header().mt })
    }

    /// Whether the object currently resides in the young generation — the
    /// address check at the core of the Motor pinning policy (paper §7.4).
    pub fn is_young(&self, h: Handle) -> bool {
        let st = self.vm.state();
        let addr = st.handles.get(h);
        addr != 0 && st.heap.is_young(addr)
    }

    // ------------------------------------------------------------------
    // Pinning
    // ------------------------------------------------------------------

    /// Hard-pin the object (it will not move until unpinned).
    pub fn pin(&self, h: Handle) -> PinToken {
        let mut st = self.vm.state();
        let addr = st.handles.get(h);
        assert!(addr != 0, "pin on null handle");
        let reg = self.vm.metrics();
        reg.bump(Metric::GcPins);
        reg.event(EventKind::PinAcquire, addr as u64, 0);
        st.pins.pin(addr)
    }

    /// Release a hard pin.
    pub fn unpin(&self, token: PinToken) {
        let mut st = self.vm.state();
        let reg = self.vm.metrics();
        reg.bump(Metric::GcUnpins);
        reg.event(EventKind::PinRelease, token.addr() as u64, 0);
        st.pins.unpin(token);
    }

    /// Register a conditional pin: the collector keeps the object pinned
    /// only while `cond.in_flight()` (paper §4.3) and discards the request
    /// once the operation completes. There is no matching release event —
    /// the collector drops the pin when the transport reports completion.
    /// The acquire event is stamped with the instant the operation started
    /// if its span says so ([`motor_obs::SpanGuard::set_edge`]).
    pub fn pin_conditional(&self, h: Handle, cond: Arc<dyn PinCondition>) {
        let mut st = self.vm.state();
        let addr = st.handles.get(h);
        assert!(addr != 0, "pin_conditional on null handle");
        let reg = self.vm.metrics();
        reg.bump(Metric::GcCondPinsRegistered);
        reg.event_at_edge(EventKind::PinAcquire, addr as u64, 1, 0);
        st.pins.pin_conditional(addr, cond);
    }

    // ------------------------------------------------------------------
    // Field access
    // ------------------------------------------------------------------

    /// Index of a named field (slow metadata path; cache the result).
    pub fn field_index(&self, class: ClassId, name: &str) -> usize {
        let reg = self.vm.registry();
        reg.table(class)
            .field_by_name(name)
            .unwrap_or_else(|| panic!("no field `{name}` on {}", reg.table(class).name))
            .0
    }

    fn field_offset_checked(
        &self,
        h: Handle,
        field: usize,
        want: Option<ElemKind>,
    ) -> (usize, usize) {
        let addr = self.vm.handle_addr(h);
        assert!(addr != 0, "field access on null handle");
        let reg = self.vm.registry();
        // SAFETY: live object.
        let mt = reg.table(ClassId(unsafe { ObjectRef(addr).header().mt }));
        let fd = &mt.fields[field];
        match (want, fd.ty) {
            (Some(k), FieldType::Prim(fk)) => {
                assert!(k == fk, "field `{}` is {fk:?}, accessed as {k:?}", fd.name)
            }
            (None, FieldType::Ref(_)) => {}
            (Some(_), FieldType::Ref(_)) => panic!("field `{}` is a reference", fd.name),
            (None, FieldType::Prim(_)) => panic!("field `{}` is a primitive", fd.name),
        }
        (addr, fd.offset as usize)
    }

    /// Read a primitive field.
    pub fn get_prim<T: Prim>(&self, h: Handle, field: usize) -> T {
        let (addr, off) = self.field_offset_checked(h, field, Some(T::KIND));
        // SAFETY: offset validated against the method table.
        unsafe { ObjectRef(addr).read_prim::<T>(off) }
    }

    /// Write a primitive field.
    pub fn set_prim<T: Prim>(&self, h: Handle, field: usize, v: T) {
        let (addr, off) = self.field_offset_checked(h, field, Some(T::KIND));
        // SAFETY: as above.
        unsafe { ObjectRef(addr).write_prim::<T>(off, v) }
    }

    /// Read a reference field into a fresh handle (null allowed).
    pub fn get_ref(&self, h: Handle, field: usize) -> Handle {
        let (addr, off) = self.field_offset_checked(h, field, None);
        // SAFETY: validated reference slot.
        let v = unsafe { ObjectRef(addr).read_ref_at(off) };
        self.vm.state().handles.create(v.0)
    }

    /// Write a reference field, applying the generational write barrier.
    pub fn set_ref(&self, h: Handle, field: usize, v: Handle) {
        let (addr, off) = self.field_offset_checked(h, field, None);
        let mut st = self.vm.state();
        let vaddr = st.handles.get(v);
        let obj = ObjectRef(addr);
        // SAFETY: validated reference slot; state lock excludes races on
        // the remembered set.
        unsafe {
            obj.write_ref_at(off, ObjectRef(vaddr));
            if vaddr != 0 && !st.heap.is_young(addr) && st.heap.is_young(vaddr) {
                st.remset.insert(obj.ref_slot_addr(off));
            }
        }
    }

    // ------------------------------------------------------------------
    // Arrays
    // ------------------------------------------------------------------

    /// Length (element count) of any array object.
    pub fn array_len(&self, h: Handle) -> usize {
        let addr = self.vm.handle_addr(h);
        assert!(addr != 0, "array_len on null handle");
        // SAFETY: live object.
        unsafe { ObjectRef(addr).array_len() }
    }

    fn prim_array_checked(&self, h: Handle, kind: ElemKind) -> usize {
        let addr = self.vm.handle_addr(h);
        assert!(addr != 0, "array access on null handle");
        let reg = self.vm.registry();
        // SAFETY: live object.
        let mt = reg.table(ClassId(unsafe { ObjectRef(addr).header().mt }));
        match mt.kind {
            TypeKind::PrimArray(k) if k == kind => addr,
            TypeKind::MdArray { elem, .. } if elem == kind => addr,
            _ => panic!("object is not a {kind:?} array"),
        }
    }

    fn prim_data_window(&self, addr: usize, kind: ElemKind) -> (*mut u8, usize) {
        let obj = ObjectRef(addr);
        // SAFETY: caller validated type.
        unsafe {
            let reg = self.vm.registry();
            let mt = reg.table(ClassId(obj.header().mt));
            match mt.kind {
                TypeKind::PrimArray(_) => obj.prim_array_data(kind.size()),
                TypeKind::MdArray { rank, .. } => obj.md_data(rank, kind.size()),
                _ => unreachable!("validated above"),
            }
        }
    }

    /// Copy elements out of a primitive (or multidimensional) array,
    /// starting at element `start`.
    pub fn prim_read<T: Prim>(&self, h: Handle, start: usize, dst: &mut [T]) {
        let addr = self.prim_array_checked(h, T::KIND);
        let (p, bytes) = self.prim_data_window(addr, T::KIND);
        let len = bytes / T::KIND.size();
        assert!(start + dst.len() <= len, "array read out of bounds");
        // SAFETY: bounds checked; element type checked.
        unsafe {
            std::ptr::copy_nonoverlapping((p as *const T).add(start), dst.as_mut_ptr(), dst.len());
        }
    }

    /// Copy elements into a primitive (or multidimensional) array.
    pub fn prim_write<T: Prim>(&self, h: Handle, start: usize, src: &[T]) {
        let addr = self.prim_array_checked(h, T::KIND);
        let (p, bytes) = self.prim_data_window(addr, T::KIND);
        let len = bytes / T::KIND.size();
        assert!(start + src.len() <= len, "array write out of bounds");
        // SAFETY: bounds checked; element type checked.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), (p as *mut T).add(start), src.len());
        }
    }

    /// Element read from an object array (fresh handle; may be null).
    pub fn obj_array_get(&self, h: Handle, idx: usize) -> Handle {
        let addr = self.vm.handle_addr(h);
        assert!(addr != 0, "array access on null handle");
        let obj = ObjectRef(addr);
        // SAFETY: live object; bounds checked below.
        unsafe {
            assert!(idx < obj.array_len(), "object array index out of bounds");
            let v = *obj.obj_array_slot(idx);
            self.vm.state().handles.create(v)
        }
    }

    /// Element write into an object array, with the write barrier.
    pub fn obj_array_set(&self, h: Handle, idx: usize, v: Handle) {
        let mut st = self.vm.state();
        let addr = st.handles.get(h);
        assert!(addr != 0, "array access on null handle");
        let vaddr = st.handles.get(v);
        let obj = ObjectRef(addr);
        // SAFETY: live object; bounds checked.
        unsafe {
            assert!(idx < obj.array_len(), "object array index out of bounds");
            *obj.obj_array_slot(idx) = vaddr;
            if vaddr != 0 && !st.heap.is_young(addr) && st.heap.is_young(vaddr) {
                st.remset.insert(obj.obj_array_slot(idx) as usize);
            }
        }
    }

    /// Dimensions of a multidimensional array.
    pub fn md_dims(&self, h: Handle) -> Vec<u32> {
        let addr = self.vm.handle_addr(h);
        assert!(addr != 0, "md_dims on null handle");
        let reg = self.vm.registry();
        // SAFETY: live object.
        unsafe {
            let obj = ObjectRef(addr);
            match reg.table(ClassId(obj.header().mt)).kind {
                TypeKind::MdArray { rank, .. } => obj.md_dims(rank),
                _ => panic!("object is not a multidimensional array"),
            }
        }
    }

    /// Row-major flat index of md-array indices.
    pub fn md_flat_index(&self, h: Handle, indices: &[u32]) -> usize {
        let dims = self.md_dims(h);
        assert_eq!(indices.len(), dims.len(), "index rank mismatch");
        let mut flat = 0usize;
        for (i, (&ix, &d)) in indices.iter().zip(dims.iter()).enumerate() {
            assert!(
                ix < d,
                "md index {ix} out of bounds for dim {i} of size {d}"
            );
            flat = flat * d as usize + ix as usize;
        }
        flat
    }

    /// Read one element of a multidimensional array.
    pub fn md_get<T: Prim>(&self, h: Handle, indices: &[u32]) -> T {
        let flat = self.md_flat_index(h, indices);
        // SAFETY: `Prim` types are plain integer/float scalars, for which
        // the all-zero bit pattern is a valid value.
        let mut out = [unsafe { std::mem::zeroed::<T>() }];
        self.prim_read(h, flat, &mut out);
        out[0]
    }

    /// Write one element of a multidimensional array.
    pub fn md_set<T: Prim>(&self, h: Handle, indices: &[u32], v: T) {
        let flat = self.md_flat_index(h, indices);
        self.prim_write(h, flat, &[v]);
    }

    // ------------------------------------------------------------------
    // Raw windows (trusted integration layer)
    // ------------------------------------------------------------------

    /// Everything a transport asks of the buffer `h` — is it null, its
    /// class, whether a raw transport may touch it, its data window and
    /// element layout, its generation — in one VM lock round trip and one
    /// type-registry read; `None` for null. The same caveat as
    /// [`Self::raw_data_window`] holds for using the window.
    pub fn transport_view(&self, h: Handle) -> Option<TransportView> {
        let (addr, young) = {
            let st = self.vm.state();
            let addr = st.handles.get(h);
            (addr, addr != 0 && st.heap.is_young(addr))
        };
        if addr == 0 {
            return None;
        }
        let reg = self.vm.registry();
        let obj = ObjectRef(addr);
        // SAFETY: live object (the caller is cooperative, so it cannot
        // move before it polls); type dispatch below.
        unsafe {
            let class = ClassId(obj.header().mt);
            let mt = reg.table(class);
            let (window, elems) = match mt.kind {
                TypeKind::PrimArray(k) => (Some(obj.prim_array_data(k.size())), Some(k)),
                TypeKind::MdArray { elem, rank } => {
                    (Some(obj.md_data(rank, elem.size())), Some(elem))
                }
                TypeKind::Class if !mt.has_refs => {
                    (Some((obj.payload_ptr(), mt.instance_size as usize)), None)
                }
                TypeKind::Class | TypeKind::ObjArray(_) => (None, None),
            };
            Some(TransportView {
                class,
                window,
                elems: elems.map(|k| (k, obj.array_len())),
                young,
            })
        }
    }

    /// The zero-copy data window of a primitive or multidimensional array:
    /// `(pointer, byte length)`. Obtaining the window is safe; *using* it
    /// is only sound while the object cannot move (pinned, elder-resident,
    /// or GC excluded) — the invariant the Motor pinning policy maintains.
    pub fn raw_data_window(&self, h: Handle) -> (*mut u8, usize) {
        let view = self.transport_view(h).expect("raw window on null handle");
        view.window.unwrap_or_else(|| {
            let reg = self.vm.registry();
            panic!(
                "raw window refused: type {} contains references (object-model integrity)",
                reg.table(view.class).name
            )
        })
    }
}

impl Drop for MotorThread {
    fn drop(&mut self) {
        debug_assert_eq!(self.native_depth.get(), 0, "dropped while in native region");
        self.vm.safepoint().deregister();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HeapConfig;
    use crate::vm::VmConfig;

    fn small_vm() -> Arc<Vm> {
        Vm::new(VmConfig {
            heap: HeapConfig {
                young_bytes: 4096,
                old_segment_bytes: 64 * 1024,
                old_soft_limit: 4 * 1024 * 1024,
            },
        })
    }

    fn point_class(vm: &Arc<Vm>) -> ClassId {
        vm.registry_mut()
            .define_class("Point")
            .prim("x", ElemKind::F64)
            .prim("y", ElemKind::F64)
            .prim("id", ElemKind::I32)
            .build()
    }

    #[test]
    fn alloc_and_field_roundtrip() {
        let vm = small_vm();
        let cls = point_class(&vm);
        let t = MotorThread::attach(vm);
        let h = t.alloc_instance(cls);
        let (fx, fy, fid) = (
            t.field_index(cls, "x"),
            t.field_index(cls, "y"),
            t.field_index(cls, "id"),
        );
        t.set_prim::<f64>(h, fx, 1.5);
        t.set_prim::<f64>(h, fy, -2.5);
        t.set_prim::<i32>(h, fid, 42);
        assert_eq!(t.get_prim::<f64>(h, fx), 1.5);
        assert_eq!(t.get_prim::<f64>(h, fy), -2.5);
        assert_eq!(t.get_prim::<i32>(h, fid), 42);
    }

    #[test]
    #[should_panic(expected = "accessed as")]
    fn field_type_mismatch_is_refused() {
        let vm = small_vm();
        let cls = point_class(&vm);
        let t = MotorThread::attach(vm);
        let h = t.alloc_instance(cls);
        let fx = t.field_index(cls, "x");
        let _ = t.get_prim::<i32>(h, fx);
    }

    #[test]
    fn prim_array_roundtrip_and_bounds() {
        let vm = small_vm();
        let t = MotorThread::attach(vm);
        let h = t.alloc_prim_array(ElemKind::I32, 16);
        assert_eq!(t.array_len(h), 16);
        let src: Vec<i32> = (0..16).collect();
        t.prim_write(h, 0, &src);
        let mut dst = vec![0i32; 8];
        t.prim_read(h, 4, &mut dst);
        assert_eq!(dst, (4..12).collect::<Vec<i32>>());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn prim_array_bounds_enforced() {
        let vm = small_vm();
        let t = MotorThread::attach(vm);
        let h = t.alloc_prim_array(ElemKind::I32, 4);
        t.prim_write(h, 2, &[1i32, 2, 3]);
    }

    #[test]
    fn md_array_row_major_semantics() {
        let vm = small_vm();
        let t = MotorThread::attach(vm);
        let h = t.alloc_md_array(ElemKind::F64, &[3, 4]);
        assert_eq!(t.md_dims(h), vec![3, 4]);
        assert_eq!(t.array_len(h), 12);
        t.md_set::<f64>(h, &[2, 3], 9.75);
        assert_eq!(t.md_get::<f64>(h, &[2, 3]), 9.75);
        // Row-major: [2,3] is flat index 2*4+3 = 11.
        let mut all = vec![0f64; 12];
        t.prim_read(h, 0, &mut all);
        assert_eq!(all[11], 9.75);
        assert!(all[..11].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn minor_gc_moves_survivors_and_updates_handles() {
        let vm = small_vm();
        let cls = point_class(&vm);
        let t = MotorThread::attach(Arc::clone(&vm));
        let keep = t.alloc_instance(cls);
        let fid = t.field_index(cls, "id");
        t.set_prim::<i32>(keep, fid, 1234);
        let addr_before = vm.handle_addr(keep);
        assert!(t.is_young(keep));
        t.collect_minor();
        let addr_after = vm.handle_addr(keep);
        assert_ne!(
            addr_before, addr_after,
            "survivor was copied to the elder generation"
        );
        assert!(!t.is_young(keep), "survivor promoted");
        assert_eq!(
            t.get_prim::<i32>(keep, fid),
            1234,
            "contents preserved across the move"
        );
        assert_eq!(vm.stats_snapshot().minor_collections, 1);
        assert!(vm.stats_snapshot().objects_promoted >= 1);
    }

    #[test]
    fn unreferenced_objects_are_collected() {
        let vm = small_vm();
        let cls = point_class(&vm);
        let t = MotorThread::attach(Arc::clone(&vm));
        let dead = t.alloc_instance(cls);
        t.release(dead);
        let live = t.alloc_instance(cls);
        t.collect_minor();
        let snap = vm.stats_snapshot();
        assert_eq!(snap.objects_promoted, 1, "only the live object survives");
        assert!(!t.is_null(live));
    }

    #[test]
    fn allocation_pressure_triggers_automatic_minor_gc() {
        let vm = small_vm();
        let t = MotorThread::attach(Arc::clone(&vm));
        // Churn far more than the 4 KiB young generation without keeping
        // references; the runtime must collect automatically.
        for _ in 0..100 {
            let h = t.alloc_prim_array(ElemKind::U8, 256);
            t.release(h);
        }
        assert!(vm.stats_snapshot().minor_collections >= 1);
    }

    #[test]
    fn object_graph_survives_collection() {
        let vm = small_vm();
        let mut reg = vm.registry_mut();
        let arr = reg.prim_array(ElemKind::I32);
        let node = reg
            .define_class("Node")
            .prim("tag", ElemKind::I32)
            .transportable("data", arr)
            .build();
        let oa = reg.obj_array(node);
        drop(reg);
        let t = MotorThread::attach(Arc::clone(&vm));
        let list = t.alloc_obj_array(node, 3);
        for i in 0..3 {
            let n = t.alloc_instance(node);
            let ftag = t.field_index(node, "tag");
            let fdata = t.field_index(node, "data");
            t.set_prim::<i32>(n, ftag, i as i32);
            let d = t.alloc_prim_array(ElemKind::I32, 4);
            t.prim_write(d, 0, &[i as i32; 4]);
            t.set_ref(n, fdata, d);
            t.obj_array_set(list, i, n);
            t.release(n);
            t.release(d);
        }
        let _ = oa;
        t.collect_minor();
        t.collect_full();
        for i in 0..3 {
            let n = t.obj_array_get(list, i);
            let ftag = t.field_index(node, "tag");
            let fdata = t.field_index(node, "data");
            assert_eq!(t.get_prim::<i32>(n, ftag), i as i32);
            let d = t.get_ref(n, fdata);
            let mut buf = vec![0i32; 4];
            t.prim_read(d, 0, &mut buf);
            assert_eq!(buf, vec![i as i32; 4]);
            t.release(n);
            t.release(d);
        }
    }

    #[test]
    fn write_barrier_keeps_young_object_alive_via_elder_parent() {
        let vm = small_vm();
        let mut reg = vm.registry_mut();
        let arr = reg.prim_array(ElemKind::I32);
        let holder = reg
            .define_class("Holder")
            .transportable("data", arr)
            .build();
        drop(reg);
        let t = MotorThread::attach(Arc::clone(&vm));
        let hold = t.alloc_instance(holder);
        // Promote the holder to the elder generation.
        t.collect_minor();
        assert!(!t.is_young(hold));
        // Store a *young* array into the elder object, then drop our only
        // handle to the array. Without the remembered set the next minor GC
        // would collect (or fail to retarget) it.
        let young = t.alloc_prim_array(ElemKind::I32, 8);
        t.prim_write(young, 0, &[7i32; 8]);
        let fdata = t.field_index(holder, "data");
        t.set_ref(hold, fdata, young);
        t.release(young);
        t.collect_minor();
        let back = t.get_ref(hold, fdata);
        assert!(!t.is_null(back), "barrier kept the young object reachable");
        let mut buf = vec![0i32; 8];
        t.prim_read(back, 0, &mut buf);
        assert_eq!(buf, vec![7i32; 8]);
        t.release(back);
    }

    #[test]
    fn pinned_object_does_not_move_and_block_is_promoted() {
        let vm = small_vm();
        let t = MotorThread::attach(Arc::clone(&vm));
        let h = t.alloc_prim_array(ElemKind::U8, 64);
        t.prim_write(h, 0, &[0xEEu8; 64]);
        let addr_before = vm.handle_addr(h);
        assert!(t.is_young(h));
        let tok = t.pin(h);
        t.collect_minor();
        let addr_after = vm.handle_addr(h);
        assert_eq!(addr_before, addr_after, "pinned object must not move");
        assert!(
            !t.is_young(h),
            "whole young block was assigned to the elder generation"
        );
        let snap = vm.stats_snapshot();
        assert_eq!(snap.pinned_block_promotions, 1);
        t.unpin(tok);
        // The view and the registry are one store, and the pause is a span.
        let m = vm.metrics().snapshot();
        assert_eq!(m.get(Metric::GcPins), vm.stats_snapshot().pins);
        assert_eq!((m.get(Metric::GcPins), m.get(Metric::GcUnpins)), (1, 1));
        let pauses = m
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::SpanEnd && e.b == motor_obs::SpanKind::Gc as u64);
        assert_eq!(pauses.count(), 1);
        let mut buf = vec![0u8; 64];
        t.prim_read(h, 0, &mut buf);
        assert_eq!(buf, vec![0xEEu8; 64]);
    }

    #[test]
    fn conditional_pin_held_then_released_by_collector() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let vm = small_vm();
        let t = MotorThread::attach(Arc::clone(&vm));
        let h = t.alloc_prim_array(ElemKind::U8, 32);
        let in_flight = Arc::new(AtomicBool::new(true));
        let f = Arc::clone(&in_flight);
        t.pin_conditional(h, Arc::new(move || f.load(Ordering::Relaxed)));
        let addr_before = vm.handle_addr(h);
        t.collect_minor();
        // Operation still in flight: the collector held the pin.
        assert_eq!(vm.handle_addr(h), addr_before);
        let snap = vm.stats_snapshot();
        assert_eq!(snap.conditional_pins_held, 1);
        assert_eq!(snap.conditional_pins_released, 0);
        // Operation completes; the next collection discards the request.
        in_flight.store(false, Ordering::Relaxed);
        t.collect_minor();
        let snap = vm.stats_snapshot();
        assert!(snap.conditional_pins_released >= 1);
        assert_eq!(vm.state().pins.conditional_len(), 0);
    }

    #[test]
    fn conditional_pin_roots_buffer_even_without_handles() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let vm = small_vm();
        let t = MotorThread::attach(Arc::clone(&vm));
        let h = t.alloc_prim_array(ElemKind::U8, 32);
        t.prim_write(h, 0, &[0x55u8; 32]);
        let addr = vm.handle_addr(h);
        let in_flight = Arc::new(AtomicBool::new(true));
        let f = Arc::clone(&in_flight);
        t.pin_conditional(h, Arc::new(move || f.load(Ordering::Relaxed)));
        // Drop the only mutator reference: the transport still owns it.
        t.release(h);
        t.collect_minor();
        // The buffer must still be intact at the same address.
        // SAFETY: object kept alive and unmoved by the held pin.
        let data = unsafe {
            std::slice::from_raw_parts((addr + crate::layout::HEADER_SIZE) as *const u8, 32)
        };
        assert_eq!(data, &[0x55u8; 32]);
        in_flight.store(false, Ordering::Relaxed);
        t.collect_full();
    }

    #[test]
    fn full_gc_reclaims_elder_garbage() {
        let vm = small_vm();
        let t = MotorThread::attach(Arc::clone(&vm));
        // Promote a batch of objects, then drop them.
        let mut hs = Vec::new();
        for _ in 0..10 {
            hs.push(t.alloc_prim_array(ElemKind::U8, 128));
        }
        t.collect_minor(); // all promoted
        for h in hs {
            t.release(h);
        }
        t.collect_full();
        let snap = vm.stats_snapshot();
        assert!(
            snap.objects_swept >= 10,
            "swept {} objects",
            snap.objects_swept
        );
        assert!(snap.bytes_swept > 0);
    }

    #[test]
    fn elder_space_is_reused_after_sweep() {
        let vm = small_vm();
        let t = MotorThread::attach(Arc::clone(&vm));
        let h = t.alloc_prim_array(ElemKind::U8, 200);
        t.collect_minor();
        let dead_addr = vm.handle_addr(h);
        t.release(h);
        t.collect_full();
        // An allocation of the same size should be able to land in the hole
        // (first-fit may also bump; accept either, but the free list must
        // have been populated).
        assert!(
            vm.state()
                .heap
                .free_list()
                .iter()
                .any(|b| b.addr <= dead_addr && dead_addr < b.addr + b.size),
            "swept object's space is on the free list"
        );
    }

    #[test]
    fn large_objects_allocate_in_elder_and_need_no_pin() {
        let vm = small_vm(); // young = 4096, threshold = 2048
        let t = MotorThread::attach(Arc::clone(&vm));
        let h = t.alloc_prim_array(ElemKind::U8, 3000);
        assert!(
            !t.is_young(h),
            "large object allocated directly in elder generation"
        );
        let addr_before = vm.handle_addr(h);
        t.collect_minor();
        assert_eq!(vm.handle_addr(h), addr_before, "elder objects never move");
    }

    #[test]
    fn live_large_objects_past_the_soft_limit_cost_one_full_collection_each() {
        let vm = Vm::new(VmConfig {
            heap: HeapConfig {
                young_bytes: 4096,
                old_segment_bytes: 64 * 1024,
                old_soft_limit: 8192,
            },
        });
        let t = MotorThread::attach(Arc::clone(&vm));
        // The third live array crosses the limit; a full collection frees
        // nothing, and the retry places it past the limit.
        let live: Vec<Handle> = (0..5)
            .map(|_| t.alloc_prim_array(ElemKind::U8, 3000))
            .collect();
        assert_eq!(vm.stats_snapshot().full_collections, 3);
        assert!(vm.state().heap.old_bytes_used() > 8192);
        assert!(live.iter().all(|&h| !t.is_young(h)));
        crate::verify_heap(&vm).expect("past the limit");
    }

    #[test]
    fn raw_window_refuses_ref_bearing_types() {
        let vm = small_vm();
        let mut reg = vm.registry_mut();
        let arr = reg.prim_array(ElemKind::I32);
        let cls = reg
            .define_class("HasRef")
            .transportable("data", arr)
            .build();
        drop(reg);
        let t = MotorThread::attach(vm);
        let h = t.alloc_instance(cls);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.raw_data_window(h)));
        assert!(
            r.is_err(),
            "object-model integrity: refs must not be exposed raw"
        );
    }

    #[test]
    fn native_region_allows_peer_collection() {
        let vm = small_vm();
        let t = MotorThread::attach(Arc::clone(&vm));
        let vm2 = Arc::clone(&vm);
        let peer = std::thread::spawn(move || {
            let t2 = MotorThread::attach(vm2);
            t2.collect_minor();
        });
        // Main thread sits in a native region (as Motor's polling-wait
        // does); the peer's collection must complete without us polling.
        t.native(|| {
            peer.join().unwrap();
        });
        assert_eq!(vm.stats_snapshot().minor_collections, 1);
    }

    #[test]
    fn clone_and_same_object() {
        let vm = small_vm();
        let cls = point_class(&vm);
        let t = MotorThread::attach(vm);
        let a = t.alloc_instance(cls);
        let b = t.clone_handle(a);
        let c = t.alloc_instance(cls);
        assert!(t.same_object(a, b));
        assert!(!t.same_object(a, c));
        assert_eq!(t.class_of(a), cls);
    }
}
