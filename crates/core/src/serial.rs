//! The Motor custom serialization mechanism (paper §7.5): the graph walk
//! that turns managed objects into the representation of [`crate::wire`],
//! and the materializer that allocates them back. The byte layout lives in
//! that module; this one holds what is specific to the managed heap.
//!
//! Traversal follows the opt-in `[Transportable]` attribute: class fields
//! are propagated only when their `FieldDesc` carries the Transportable
//! bit; object-array elements are always propagated; unmarked references
//! are nulled (paper §4.2.2).
//!
//! Two details the paper calls out are reproduced faithfully:
//!
//! * **The visited-object structure is linear** by default — "at the time
//!   of writing we employ a linear structure to record objects visited
//!   during serialization. This causes excessive search times with large
//!   numbers of objects" — which is exactly what produces Motor's fall-off
//!   beyond ~2048 objects in Figure 10. The promised fix (a hashed
//!   structure) is implemented as [`VisitedStrategy::Hashed`] and compared
//!   in the `ablation_visited` benchmark.
//! * **The Transportable query** uses the fast FieldDesc bit by default;
//!   the slow metadata/reflection path ([`AttrLookup::Reflection`]) is kept
//!   for the ablation the paper implies ("introspecting type fields ...
//!   using the reflection library ... is a relatively slow operation").
//!
//! The **split representation** required by scatter/gather is provided by
//! [`Serializer::serialize_array_range`] — "a single split representation
//! is constructed of many regular representations ... each individually
//! deserialisable at the receiving end."

use std::collections::HashMap;

use motor_obs::{Metric, SpanKind};
use motor_runtime::object::ObjectRef;
use motor_runtime::{
    ClassId, ElemKind, FieldType, Handle, MethodTable, MotorThread, TypeKind, TypeRegistry,
};

use crate::error::{CoreError, CoreResult};
use crate::wire::{self, ClassEntry, Doc, Record, TypeEntry, Writer};

/// How visited objects are recorded during the graph walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VisitedStrategy {
    /// Linear list with O(n) lookup — the paper's implementation.
    #[default]
    Linear,
    /// Hash table — the paper's announced future improvement.
    Hashed,
}

/// How the Transportable attribute is queried per field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AttrLookup {
    /// The Transportable bit on the FieldDesc (Motor's fast path, §7.5).
    #[default]
    FieldDescBit,
    /// Name-keyed metadata lookup (the slow reflection path).
    Reflection,
}

/// Serialization statistics (tests and ablations).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SerializeStats {
    /// Objects in the representation.
    pub objects: usize,
    /// Total visited-structure probe comparisons performed.
    pub visited_probes: u64,
    /// Bytes produced.
    pub bytes: usize,
}

/// The Motor serializer bound to a managed thread.
pub struct Serializer<'t> {
    thread: &'t MotorThread,
    strategy: VisitedStrategy,
    attrs: AttrLookup,
}

/// Write the type entry of a class.
fn class_entry(e: &mut Vec<u8>, mt: &MethodTable) {
    wire::class_entry_header(e, &mt.name, mt.fields.len() as u16);
    for f in &mt.fields {
        match f.ty {
            FieldType::Prim(k) => wire::prim_field(e, k, &f.name),
            FieldType::Ref(_) => wire::ref_field(e, &f.name, f.is_transportable()),
        }
    }
}

/// Type-table index of the method table `mt_id`, writing its entry (and,
/// for an object array, its element type's) on first use.
fn intern_type(w: &mut Writer<u32>, reg: &TypeRegistry, mt_id: u32) -> u32 {
    w.intern(mt_id, |w, e| {
        let mt = reg.table(ClassId(mt_id));
        match &mt.kind {
            TypeKind::Class => class_entry(e, mt),
            TypeKind::PrimArray(k) => wire::prim_array_entry(e, *k),
            TypeKind::ObjArray(elem) => {
                let elem_type = intern_type(w, reg, elem.0);
                wire::obj_array_entry(e, elem_type);
            }
            TypeKind::MdArray { elem, rank } => wire::md_array_entry(e, *elem, *rank),
        }
    })
}

/// One serialization pass: the graph walk's state over a [`Writer`] keyed
/// by the sender's class ids.
struct Walk<'r> {
    reg: &'r TypeRegistry,
    /// Object addresses in discovery order; the position is the object
    /// index. Scanned per lookup, it is also the paper's "linear structure
    /// to record objects visited during serialization".
    objects: Vec<usize>,
    /// Address → object index, under [`VisitedStrategy::Hashed`].
    index: Option<HashMap<usize, u32>>,
    probes: u64,
    w: Writer<u32>,
}

impl Walk<'_> {
    /// Assign an object index, discovering the object if new.
    fn discover(&mut self, addr: usize) -> u32 {
        let known = match &self.index {
            None => {
                let pos = self.objects.iter().position(|&a| a == addr);
                self.probes += pos.map_or(self.objects.len(), |i| i + 1) as u64;
                pos.map(|i| i as u32)
            }
            Some(index) => {
                self.probes += 1;
                index.get(&addr).copied()
            }
        };
        known.unwrap_or_else(|| {
            let idx = self.objects.len() as u32;
            if let Some(index) = &mut self.index {
                index.insert(addr, idx);
            }
            self.objects.push(addr);
            idx
        })
    }

    /// Write a reference slot, discovering the target unless it is null.
    fn put_ref(&mut self, addr: usize) {
        let target = (addr != 0).then(|| self.discover(addr));
        self.w.put_ref(target);
    }

    /// Append `len` bytes of instance data.
    ///
    /// # Safety
    /// `p..p + len` lies inside a live object and no safepoint poll
    /// happens during the walk (cooperative FCall context).
    unsafe fn put_raw(&mut self, p: *const u8, len: usize) {
        // SAFETY: the caller's contract.
        let raw = unsafe { std::slice::from_raw_parts(p, len) };
        self.w.payload().extend_from_slice(raw);
    }

    /// Emit records in discovery order; the list grows as references
    /// discover further objects.
    fn emit(&mut self, ser: &Serializer<'_>) {
        let reg = self.reg;
        let mut next = 0usize;
        while next < self.objects.len() {
            let obj = ObjectRef(self.objects[next]);
            next += 1;
            // SAFETY: cooperative, non-polling FCall context.
            let (mt_id, extra) = unsafe {
                let h = obj.header();
                (h.mt, h.extra as usize)
            };
            let ty = intern_type(&mut self.w, reg, mt_id);
            self.w.begin_record(ty);
            let mt = reg.table(ClassId(mt_id));
            match &mt.kind {
                TypeKind::Class => {
                    for (fi, f) in mt.fields.iter().enumerate() {
                        match f.ty {
                            // SAFETY: method-table offsets.
                            FieldType::Prim(k) => unsafe {
                                self.put_raw(obj.payload_ptr().add(f.offset as usize), k.size());
                            },
                            FieldType::Ref(_) => {
                                // SAFETY: as above.
                                let v = unsafe { obj.read_ref_at(f.offset as usize) };
                                // "References are replaced with null"
                                // unless marked Transportable (§4.2.2).
                                let follow = !v.is_null() && ser.is_transportable(mt, fi);
                                self.put_ref(if follow { v.0 } else { 0 });
                            }
                        }
                    }
                }
                TypeKind::PrimArray(k) => {
                    self.w.put_u32(extra as u32);
                    // SAFETY: array data window.
                    unsafe {
                        let (p, bytes) = obj.prim_array_data(k.size());
                        self.put_raw(p, bytes);
                    }
                }
                TypeKind::ObjArray(_) => {
                    self.w.put_u32(extra as u32);
                    for i in 0..extra {
                        // SAFETY: i < length.
                        self.put_ref(unsafe { *obj.obj_array_slot(i) });
                    }
                }
                TypeKind::MdArray { elem, rank } => {
                    self.w.payload().push(*rank);
                    // SAFETY: md accessors.
                    unsafe {
                        for d in obj.md_dims(*rank) {
                            self.w.put_u32(d);
                        }
                        let (p, bytes) = obj.md_data(*rank, elem.size());
                        self.put_raw(p, bytes);
                    }
                }
            }
        }
    }
}

impl<'t> Serializer<'t> {
    /// Create a serializer with Motor's defaults (linear visited list,
    /// FieldDesc-bit attribute lookup).
    pub fn new(thread: &'t MotorThread) -> Serializer<'t> {
        Serializer {
            thread,
            strategy: VisitedStrategy::Linear,
            attrs: AttrLookup::FieldDescBit,
        }
    }

    /// Override the visited-structure strategy.
    pub fn with_strategy(mut self, strategy: VisitedStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Override the attribute-lookup path.
    pub fn with_attr_lookup(mut self, attrs: AttrLookup) -> Self {
        self.attrs = attrs;
        self
    }

    fn is_transportable(&self, mt: &MethodTable, field_idx: usize) -> bool {
        match self.attrs {
            AttrLookup::FieldDescBit => mt.fields[field_idx].is_transportable(),
            AttrLookup::Reflection => {
                // The metadata path: find the field by name (string-compare
                // scan, as reflection over type metadata would).
                let name = mt.fields[field_idx].name.clone();
                mt.field_by_name(&name)
                    .map(|(_, f)| f.is_transportable())
                    .unwrap_or(false)
            }
        }
    }

    /// Serialize the object graph rooted at `root`.
    pub fn serialize(&self, root: Handle) -> CoreResult<(Vec<u8>, SerializeStats)> {
        if self.thread.is_null(root) {
            return Err(CoreError::NullBuffer);
        }
        let addr = self.thread.vm().handle_addr(root);
        Ok(self.run(|walk| {
            walk.discover(addr);
        }))
    }

    /// Serialize a sub-range of an array as an independently
    /// deserializable representation — one part of the split
    /// representation used by the scatter/gather operations (§7.5).
    pub fn serialize_array_range(
        &self,
        arr: Handle,
        offset: usize,
        count: usize,
    ) -> CoreResult<(Vec<u8>, SerializeStats)> {
        if self.thread.is_null(arr) {
            return Err(CoreError::NullBuffer);
        }
        let len = self.thread.array_len(arr);
        if offset.checked_add(count).is_none_or(|end| end > len) {
            return Err(CoreError::RangeOutOfBounds { offset, count, len });
        }
        let vm = self.thread.vm();
        let obj = ObjectRef(vm.handle_addr(arr));
        // SAFETY: cooperative, non-polling FCall context: stable address.
        let mt_id = unsafe { obj.header().mt };
        // The registry guard must go before `run` takes its own.
        let kind = vm.registry().table(ClassId(mt_id)).kind.clone();
        match kind {
            TypeKind::ObjArray(elem) => Ok(self.run(|walk| {
                let elem_type = intern_type(&mut walk.w, walk.reg, elem.0);
                walk.w
                    .split_root(count, |e| wire::obj_array_entry(e, elem_type));
                for i in offset..offset + count {
                    // SAFETY: bounds checked above.
                    walk.put_ref(unsafe { *obj.obj_array_slot(i) });
                }
            })),
            TypeKind::PrimArray(k) => Ok(self.run(|walk| {
                walk.w.split_root(count, |e| wire::prim_array_entry(e, k));
                // SAFETY: bounds checked above; cooperative context.
                unsafe {
                    let (p, _) = obj.prim_array_data(k.size());
                    walk.put_raw(p.add(offset * k.size()), count * k.size());
                }
            })),
            _ => Err(CoreError::Serialization(
                "range serialization requires an array".into(),
            )),
        }
    }

    /// One pass: `roots` discovers the root object, or writes a synthetic
    /// split root (record 0) and discovers its elements; the walk then
    /// emits everything reachable.
    fn run(&self, roots: impl FnOnce(&mut Walk<'_>)) -> (Vec<u8>, SerializeStats) {
        let vm = self.thread.vm();
        // The whole pass is one span; its end carries the output size.
        let mut pass = vm.metrics().span(SpanKind::Serialize, 0);
        let reg = vm.registry();
        let mut walk = Walk {
            reg: &reg,
            objects: Vec::new(),
            index: (self.strategy == VisitedStrategy::Hashed).then(HashMap::new),
            probes: 0,
            w: Writer::default(),
        };
        roots(&mut walk);
        walk.emit(self);
        let objects = walk.w.record_count() as usize;
        let out = walk.w.finish();
        let stats = SerializeStats {
            objects,
            visited_probes: walk.probes,
            bytes: out.len(),
        };
        let reg = vm.metrics();
        reg.bump(Metric::SerOps);
        reg.add(Metric::SerObjects, stats.objects as u64);
        reg.add(Metric::SerBytes, stats.bytes as u64);
        reg.add(Metric::SerVisitedProbes, stats.visited_probes);
        pass.set_arg(stats.bytes as u64);
        (out, stats)
    }

    /// The local class of each wire type an instance or an object array
    /// is allocated from: a known class whose layout matches the sender's,
    /// or a primitive array. Everything that can make this VM refuse a
    /// representation is found here, before anything is allocated.
    fn resolve_types(&self, doc: &Doc<'_>) -> CoreResult<Vec<Option<ClassId>>> {
        let resolve = |ty: &TypeEntry<'_>| match ty {
            TypeEntry::Class(class) => self.resolve_class(class).map(Some),
            TypeEntry::PrimArray(k) => Ok(Some(self.thread.array_class(*k))),
            TypeEntry::MdArray(..) => Ok(None),
            TypeEntry::ObjArray(elem_type) => match doc.types()[*elem_type as usize] {
                TypeEntry::Class(_) | TypeEntry::PrimArray(_) => Ok(None),
                _ => Err(CoreError::Serialization(
                    "object arrays of object or md arrays are not supported".into(),
                )),
            },
        };
        doc.types().iter().map(resolve).collect()
    }

    /// Find the sender's class by name and verify its layout against ours.
    fn resolve_class(&self, wire: &ClassEntry<'_>) -> CoreResult<ClassId> {
        let reg = self.thread.vm().registry();
        let class = reg
            .by_name(wire.name)
            .filter(|&c| matches!(reg.table(c).kind, TypeKind::Class))
            .ok_or_else(|| CoreError::UnknownType(wire.name.into()))?;
        let mut local = Vec::new();
        class_entry(&mut local, reg.table(class));
        wire.check_layout(&ClassEntry::parse(&local)?)?;
        Ok(class)
    }

    /// Reconstruct the object graph; returns a handle to the root object
    /// (record 0). Every intermediate handle is released.
    pub fn deserialize(&self, data: &[u8]) -> CoreResult<Handle> {
        let t = self.thread;
        let reg = t.vm().metrics();
        reg.bump(Metric::DeserOps);
        reg.add(Metric::DeserBytes, data.len() as u64);
        let _pass = reg.span(SpanKind::Deserialize, data.len() as u64);
        let doc = Doc::parse(data)?;
        let classes = self.resolve_types(&doc)?;
        let class_of =
            |ty: u32| classes[ty as usize].expect("resolve_types checked every type in use");

        // Allocate every object and fill its primitive content. Nothing
        // below can fail, so no handle is left behind.
        let handles: Vec<Handle> = doc
            .records()
            .iter()
            .map(|rec| match rec {
                Record::Class { ty, values } => {
                    let h = t.alloc_instance(class_of(*ty));
                    for (fi, f) in doc.class(*ty).fields.iter().enumerate() {
                        if let Some(k) = f.prim {
                            write_prim_field(t, h, fi, k, f.bytes(values));
                        }
                    }
                    h
                }
                Record::PrimArray { elem, data } => {
                    let h = t.alloc_prim_array(*elem, data.len() / elem.size());
                    write_array_bytes(t, h, data);
                    h
                }
                Record::ObjArray { elem_type, elems } => {
                    t.alloc_obj_array(class_of(*elem_type), elems.iter().len())
                }
                Record::MdArray { elem, dims, data } => {
                    let h = t.alloc_md_array(*elem, dims);
                    write_array_bytes(t, h, data);
                    h
                }
            })
            .collect();

        // Patch references, now that every target exists.
        for (rec, &h) in doc.records().iter().zip(&handles) {
            match rec {
                Record::Class { ty, values } => {
                    for (fi, f) in doc.class(*ty).fields.iter().enumerate() {
                        if let Some(target) = f.target(values) {
                            t.set_ref(h, fi, handles[target as usize]);
                        }
                    }
                }
                Record::ObjArray { elems, .. } => {
                    for (ei, target) in elems.iter().enumerate() {
                        if let Some(target) = target {
                            t.obj_array_set(h, ei, handles[target as usize]);
                        }
                    }
                }
                Record::PrimArray { .. } | Record::MdArray { .. } => {}
            }
        }

        // Keep the root; release the rest.
        let root = handles[0];
        for &h in &handles[1..] {
            t.release(h);
        }
        Ok(root)
    }
}

fn write_prim_field(t: &MotorThread, h: Handle, fi: usize, k: ElemKind, raw: &[u8]) {
    macro_rules! w {
        ($ty:ty) => {{
            let v = <$ty>::from_le_bytes(raw.try_into().unwrap());
            t.set_prim::<$ty>(h, fi, v);
        }};
    }
    match k {
        ElemKind::Bool | ElemKind::U8 => w!(u8),
        ElemKind::I8 => w!(i8),
        ElemKind::I16 => w!(i16),
        ElemKind::U16 | ElemKind::Char => w!(u16),
        ElemKind::I32 => w!(i32),
        ElemKind::U32 => w!(u32),
        ElemKind::I64 => w!(i64),
        ElemKind::U64 => w!(u64),
        ElemKind::F32 => w!(f32),
        ElemKind::F64 => w!(f64),
    }
}

/// Bulk-fill a freshly allocated primitive/md array from raw bytes.
fn write_array_bytes(t: &MotorThread, h: Handle, raw: &[u8]) {
    let (p, len) = t.raw_data_window(h);
    assert_eq!(len, raw.len(), "array byte-length mismatch");
    // SAFETY: freshly allocated array; cooperative non-polling context
    // (no safepoint between the window resolution and this write).
    unsafe {
        std::ptr::copy_nonoverlapping(raw.as_ptr(), p, raw.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use motor_runtime::{Vm, VmConfig};
    use std::sync::Arc;

    struct Fixture {
        vm: Arc<Vm>,
        node: ClassId,
        arr_i32: ClassId,
    }

    /// The paper's `LinkedArray` shape (Figure 5): a transportable i32
    /// array, a transportable `next`, and a *non*-transportable `next2`.
    fn fixture() -> Fixture {
        let vm = Vm::new(VmConfig::default());
        let (node, arr_i32) = {
            let mut reg = vm.registry_mut();
            let arr = reg.prim_array(ElemKind::I32);
            // Self-reference: register a placeholder first is unnecessary —
            // the builder accepts any ClassId, and `LinkedArray`'s id is
            // deterministic (next id in sequence).
            let next_id = ClassId(reg.len() as u32);
            let node = reg
                .define_class("LinkedArray")
                .prim("tag", ElemKind::I32)
                .transportable("array", arr)
                .transportable("next", next_id)
                .reference("next2", next_id)
                .build();
            assert_eq!(node, next_id, "self-referential id prediction");
            (node, arr)
        };
        Fixture { vm, node, arr_i32 }
    }

    fn build_list(t: &MotorThread, f: &Fixture, n: usize, payload_per_node: usize) -> Handle {
        let (ftag, farr, fnext) = (
            t.field_index(f.node, "tag"),
            t.field_index(f.node, "array"),
            t.field_index(f.node, "next"),
        );
        let mut head = t.null_handle();
        for i in (0..n).rev() {
            let node = t.alloc_instance(f.node);
            t.set_prim::<i32>(node, ftag, i as i32);
            let arr = t.alloc_prim_array(ElemKind::I32, payload_per_node);
            let data: Vec<i32> = (0..payload_per_node)
                .map(|j| (i * 1000 + j) as i32)
                .collect();
            t.prim_write(arr, 0, &data);
            t.set_ref(node, farr, arr);
            t.set_ref(node, fnext, head);
            t.release(arr);
            t.release(head);
            head = node;
        }
        head
    }

    fn check_list(t: &MotorThread, f: &Fixture, head: Handle, n: usize, payload: usize) {
        let (ftag, farr, fnext) = (
            t.field_index(f.node, "tag"),
            t.field_index(f.node, "array"),
            t.field_index(f.node, "next"),
        );
        let mut cur = t.clone_handle(head);
        for i in 0..n {
            assert!(!t.is_null(cur), "list too short at {i}");
            assert_eq!(t.get_prim::<i32>(cur, ftag), i as i32);
            let arr = t.get_ref(cur, farr);
            let mut buf = vec![0i32; payload];
            t.prim_read(arr, 0, &mut buf);
            for (j, &v) in buf.iter().enumerate() {
                assert_eq!(v, (i * 1000 + j) as i32);
            }
            t.release(arr);
            let next = t.get_ref(cur, fnext);
            t.release(cur);
            cur = next;
        }
        assert!(t.is_null(cur), "list too long");
        t.release(cur);
    }

    #[test]
    fn linked_list_roundtrip() {
        let f = fixture();
        let t = MotorThread::attach(Arc::clone(&f.vm));
        let head = build_list(&t, &f, 10, 8);
        let ser = Serializer::new(&t);
        let (buf, stats) = ser.serialize(head).unwrap();
        // 10 nodes + 10 arrays.
        assert_eq!(stats.objects, 20);
        let copy = ser.deserialize(&buf).unwrap();
        check_list(&t, &f, copy, 10, 8);
    }

    #[test]
    fn non_transportable_refs_become_null() {
        let f = fixture();
        let t = MotorThread::attach(Arc::clone(&f.vm));
        let (fnext2, ftag) = (t.field_index(f.node, "next2"), t.field_index(f.node, "tag"));
        let a = t.alloc_instance(f.node);
        let b = t.alloc_instance(f.node);
        t.set_prim::<i32>(a, ftag, 1);
        t.set_ref(a, fnext2, b); // NOT transportable
        let ser = Serializer::new(&t);
        let (buf, stats) = ser.serialize(a).unwrap();
        assert_eq!(stats.objects, 1, "next2 must not be propagated");
        let copy = ser.deserialize(&buf).unwrap();
        let n2 = t.get_ref(copy, fnext2);
        assert!(t.is_null(n2), "non-transportable reference arrives as null");
    }

    #[test]
    fn shared_references_are_preserved() {
        let f = fixture();
        let t = MotorThread::attach(Arc::clone(&f.vm));
        let (farr, fnext) = (
            t.field_index(f.node, "array"),
            t.field_index(f.node, "next"),
        );
        // Two nodes sharing one array.
        let shared = t.alloc_prim_array(ElemKind::I32, 4);
        t.prim_write(shared, 0, &[9i32, 8, 7, 6]);
        let a = t.alloc_instance(f.node);
        let b = t.alloc_instance(f.node);
        t.set_ref(a, farr, shared);
        t.set_ref(b, farr, shared);
        t.set_ref(a, fnext, b);
        let ser = Serializer::new(&t);
        let (buf, stats) = ser.serialize(a).unwrap();
        assert_eq!(stats.objects, 3, "shared array serialized once");
        let copy = ser.deserialize(&buf).unwrap();
        let ca = t.get_ref(copy, farr);
        let cb_node = t.get_ref(copy, fnext);
        let cb = t.get_ref(cb_node, farr);
        assert!(t.same_object(ca, cb), "sharing preserved on the receiver");
    }

    #[test]
    fn cycles_terminate_and_roundtrip() {
        let f = fixture();
        let t = MotorThread::attach(Arc::clone(&f.vm));
        let fnext = t.field_index(f.node, "next");
        let a = t.alloc_instance(f.node);
        let b = t.alloc_instance(f.node);
        t.set_ref(a, fnext, b);
        t.set_ref(b, fnext, a); // cycle
        let ser = Serializer::new(&t);
        let (buf, stats) = ser.serialize(a).unwrap();
        assert_eq!(stats.objects, 2);
        let copy = ser.deserialize(&buf).unwrap();
        let cb = t.get_ref(copy, fnext);
        let back = t.get_ref(cb, fnext);
        assert!(t.same_object(copy, back), "cycle reconstructed");
    }

    #[test]
    fn object_array_roundtrip_with_null_slots() {
        let f = fixture();
        let t = MotorThread::attach(Arc::clone(&f.vm));
        let ftag = t.field_index(f.node, "tag");
        let arr = t.alloc_obj_array(f.node, 4);
        for i in [0usize, 2] {
            let n = t.alloc_instance(f.node);
            t.set_prim::<i32>(n, ftag, i as i32 * 11);
            t.obj_array_set(arr, i, n);
            t.release(n);
        }
        let ser = Serializer::new(&t);
        let (buf, _) = ser.serialize(arr).unwrap();
        let copy = ser.deserialize(&buf).unwrap();
        assert_eq!(t.array_len(copy), 4);
        for i in 0..4usize {
            let e = t.obj_array_get(copy, i);
            if i % 2 == 0 {
                assert_eq!(t.get_prim::<i32>(e, ftag), i as i32 * 11);
            } else {
                assert!(t.is_null(e));
            }
            t.release(e);
        }
    }

    #[test]
    fn md_array_roundtrip() {
        let f = fixture();
        let t = MotorThread::attach(Arc::clone(&f.vm));
        let md = t.alloc_md_array(ElemKind::F64, &[3, 4]);
        t.md_set::<f64>(md, &[2, 1], 6.5);
        t.md_set::<f64>(md, &[0, 3], -1.25);
        let ser = Serializer::new(&t);
        let (buf, _) = ser.serialize(md).unwrap();
        let copy = ser.deserialize(&buf).unwrap();
        assert_eq!(t.md_dims(copy), vec![3, 4]);
        assert_eq!(t.md_get::<f64>(copy, &[2, 1]), 6.5);
        assert_eq!(t.md_get::<f64>(copy, &[0, 3]), -1.25);
        assert_eq!(t.md_get::<f64>(copy, &[1, 1]), 0.0);
    }

    #[test]
    fn split_representation_scatters_object_arrays() {
        let f = fixture();
        let t = MotorThread::attach(Arc::clone(&f.vm));
        let ftag = t.field_index(f.node, "tag");
        let arr = t.alloc_obj_array(f.node, 6);
        for i in 0..6usize {
            let n = t.alloc_instance(f.node);
            t.set_prim::<i32>(n, ftag, i as i32);
            t.obj_array_set(arr, i, n);
            t.release(n);
        }
        let ser = Serializer::new(&t);
        // Split into 3 independently deserializable parts of 2.
        for part in 0..3usize {
            let (buf, stats) = ser.serialize_array_range(arr, part * 2, 2).unwrap();
            assert_eq!(stats.objects, 3, "synthetic root + 2 elements");
            let sub = ser.deserialize(&buf).unwrap();
            assert_eq!(t.array_len(sub), 2);
            for j in 0..2usize {
                let e = t.obj_array_get(sub, j);
                assert_eq!(t.get_prim::<i32>(e, ftag), (part * 2 + j) as i32);
                t.release(e);
            }
            t.release(sub);
        }
    }

    #[test]
    fn split_representation_on_prim_arrays() {
        let f = fixture();
        let t = MotorThread::attach(Arc::clone(&f.vm));
        let arr = t.alloc_prim_array(ElemKind::I32, 10);
        let data: Vec<i32> = (0..10).collect();
        t.prim_write(arr, 0, &data);
        let ser = Serializer::new(&t);
        let (buf, _) = ser.serialize_array_range(arr, 4, 3).unwrap();
        let sub = ser.deserialize(&buf).unwrap();
        assert_eq!(t.array_len(sub), 3);
        let mut got = vec![0i32; 3];
        t.prim_read(sub, 0, &mut got);
        assert_eq!(got, vec![4, 5, 6]);
    }

    #[test]
    fn linear_visited_probes_quadratically_vs_hashed() {
        let f = fixture();
        let t = MotorThread::attach(Arc::clone(&f.vm));
        let head = build_list(&t, &f, 200, 2);
        let lin = Serializer::new(&t).with_strategy(VisitedStrategy::Linear);
        let hash = Serializer::new(&t).with_strategy(VisitedStrategy::Hashed);
        let (_, s_lin) = lin.serialize(head).unwrap();
        let (_, s_hash) = hash.serialize(head).unwrap();
        assert_eq!(s_lin.objects, s_hash.objects);
        assert!(
            s_lin.visited_probes > 20 * s_hash.visited_probes,
            "linear {} vs hashed {}",
            s_lin.visited_probes,
            s_hash.visited_probes
        );
    }

    #[test]
    fn reflection_attr_lookup_is_equivalent_but_slow_path() {
        let f = fixture();
        let t = MotorThread::attach(Arc::clone(&f.vm));
        let head = build_list(&t, &f, 10, 4);
        let fast = Serializer::new(&t);
        let slow = Serializer::new(&t).with_attr_lookup(AttrLookup::Reflection);
        let (a, _) = fast.serialize(head).unwrap();
        let (b, _) = slow.serialize(head).unwrap();
        assert_eq!(a, b, "both lookup paths produce identical bytes");
    }

    #[test]
    fn unknown_type_is_reported() {
        let f = fixture();
        let t = MotorThread::attach(Arc::clone(&f.vm));
        let head = build_list(&t, &f, 1, 1);
        let (buf, _) = Serializer::new(&t).serialize(head).unwrap();
        // A VM that never registered LinkedArray cannot deserialize.
        let other = Vm::new(VmConfig::default());
        let t2 = MotorThread::attach(other);
        let ser2 = Serializer::new(&t2);
        assert!(
            matches!(ser2.deserialize(&buf), Err(CoreError::UnknownType(n)) if n == "LinkedArray")
        );
    }

    #[test]
    fn a_class_entry_cannot_name_an_array_type() {
        // Array types are registered by name too ("I32[]"); a class entry
        // claiming that name must not reach `alloc_instance`.
        let f = fixture();
        let t = MotorThread::attach(Arc::clone(&f.vm));
        let name = f.vm.registry().table(f.arr_i32).name.clone();
        let mut w = Writer::<u32>::default();
        let ty = w.intern(0, |_, e| wire::class_entry_header(e, &name, 0));
        w.begin_record(ty);
        assert!(matches!(
            Serializer::new(&t).deserialize(&w.finish()),
            Err(CoreError::UnknownType(n)) if n == name
        ));
    }

    #[test]
    fn truncated_buffers_are_rejected() {
        let f = fixture();
        let t = MotorThread::attach(Arc::clone(&f.vm));
        let head = build_list(&t, &f, 3, 4);
        let (buf, stats) = Serializer::new(&t).serialize(head).unwrap();
        let ser = Serializer::new(&t);
        for cut in [1usize, buf.len() / 2, buf.len() - 1] {
            assert!(
                ser.deserialize(&buf[..cut]).is_err(),
                "cut at {cut} must not deserialize"
            );
        }
        // Length-field inflation: a count the bytes cannot back is a typed
        // error, not a reservation. First a type_count of u32::MAX, then a
        // record_count of u32::MAX behind an empty and behind a valid type
        // table (the record count is the first u32 equal to it).
        let count = (stats.objects as u32).to_le_bytes();
        let at = buf.windows(4).position(|w| w == count).unwrap();
        let mut inflated = buf.clone();
        inflated[at..at + 4].fill(0xff);
        for hostile in [
            &[0xff; 4][..],
            &[0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff],
            &inflated,
        ] {
            assert!(matches!(
                ser.deserialize(hostile),
                Err(CoreError::Serialization(_))
            ));
        }
    }

    #[test]
    fn deserialization_survives_gc_pressure() {
        // Small young generation so deserialization itself triggers GC.
        let vm = Vm::new(VmConfig {
            heap: motor_runtime::heap::HeapConfig {
                young_bytes: 4096,
                ..Default::default()
            },
            ..Default::default()
        });
        let (node, _arr) = {
            let mut reg = vm.registry_mut();
            let arr = reg.prim_array(ElemKind::I32);
            let next_id = ClassId(reg.len() as u32);
            let node = reg
                .define_class("LinkedArray")
                .prim("tag", ElemKind::I32)
                .transportable("array", arr)
                .transportable("next", next_id)
                .reference("next2", next_id)
                .build();
            (node, arr)
        };
        let f = Fixture {
            vm: Arc::clone(&vm),
            node,
            arr_i32: ClassId(0),
        };
        let t = MotorThread::attach(Arc::clone(&vm));
        let head = build_list(&t, &f, 100, 16);
        let ser = Serializer::new(&t);
        let (buf, _) = ser.serialize(head).unwrap();
        let before = vm.stats_snapshot().minor_collections;
        let copy = ser.deserialize(&buf).unwrap();
        let after = vm.stats_snapshot().minor_collections;
        assert!(after > before, "GC ran during deserialization");
        check_list(&t, &f, copy, 100, 16);
        let _ = f.arr_i32;
    }
}
