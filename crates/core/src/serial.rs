//! The Motor custom serialization mechanism (paper §7.5): the graph walk
//! that turns managed objects into the representation of [`crate::wire`],
//! and the materializer that allocates them back. The byte layout lives in
//! that module; this one holds what is specific to the managed heap. Both
//! halves live inside the runtime and touch object memory directly, under
//! the FCall discipline: cooperative, no safepoint poll between reading an
//! address and using it.
//!
//! Traversal follows the opt-in `[Transportable]` attribute: class fields
//! are propagated only when their `FieldDesc` carries the Transportable
//! bit; object-array elements are always propagated; unmarked references
//! are nulled (paper §4.2.2).
//!
//! * **The visited-object structure** is the hashed one the paper announced
//!   ("at the time of writing we employ a linear structure to record
//!   objects visited during serialization. This causes excessive search
//!   times with large numbers of objects"): an open-addressed table keyed
//!   by object address beside the discovery list. The paper's own linear
//!   structure is kept as [`VisitedStrategy::Linear`], selected explicitly
//!   by the Figure 10 "Motor" series, whose fall-off beyond ~2048 objects
//!   it produces.
//! * **The Transportable query** uses the fast FieldDesc bit by default;
//!   the slow metadata/reflection path ([`AttrLookup::Reflection`]) is kept
//!   for the ablation the paper implies ("introspecting type fields ...
//!   using the reflection library ... is a relatively slow operation").
//! * **The walk's scratch** ([`WalkScratch`]: discovery list, table, the
//!   writer's buffers) can be kept between passes, as each rank does
//!   beside its buffer pool, so a pass clears instead of reallocating; like
//!   the pool it is trimmed after a collection, to its last pass's needs.
//!
//! The **split representation** required by scatter/gather is provided by
//! [`Serializer::serialize_array_range`] — "a single split representation
//! is constructed of many regular representations ... each individually
//! deserialisable at the receiving end."
//!
//! # The materializer
//!
//! [`Serializer::deserialize`] refuses everything refusable first — the
//! parse, the type resolution and the check of every reference against the
//! type its slot declares allocate nothing — then sizes every record and
//! makes **one** allocation for the whole graph
//! ([`MotorThread::alloc_graph`]): one safepoint poll, one section of the
//! state lock, one contiguous extent carved into the records in order, one
//! handle (the root's). Primitive fields and array data are copied straight
//! from the incoming buffer and references are written as raw addresses,
//! each known before anything is carved (extent base + the sizes before
//! it). That is sound because
//!
//! * the code is a cooperative, non-polling FCall that holds the state
//!   lock from the reservation to the last carve and makes the root's
//!   handle before it next polls, so no collection can move or scan a
//!   half-built graph;
//! * the extent is carved from one generation, so no reference written
//!   here crosses from the elder generation into the young one: there is
//!   nothing for the write barrier to record;
//! * every slot written is one the resolved local layout declares, holding
//!   null or the address of a record whose type that slot declares.

use std::cell::RefCell;

use motor_obs::{Metric, SpanKind};
use motor_runtime::layout::{self, ObjHeader};
use motor_runtime::object::ObjectRef;
use motor_runtime::{ClassId, FieldType, Handle, MethodTable, MotorThread, TypeKind, TypeRegistry};

use crate::error::{CoreError, CoreResult};
use crate::wire::{self, ClassEntry, Doc, Record, TypeEntry, Writer};

/// How visited objects are recorded during the graph walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VisitedStrategy {
    /// Linear list with O(n) lookup — the paper's implementation, and
    /// Figure 10's "Motor" series.
    Linear,
    /// Hash table — the paper's announced improvement.
    #[default]
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
    /// Visited-structure probes: list entries compared
    /// ([`VisitedStrategy::Linear`]) or table slots inspected.
    pub visited_probes: u64,
    /// Bytes produced.
    pub bytes: usize,
}

/// The Motor serializer bound to a managed thread.
pub struct Serializer<'t> {
    thread: &'t MotorThread,
    strategy: VisitedStrategy,
    attrs: AttrLookup,
    scratch: Option<&'t RefCell<WalkScratch>>,
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

/// What a graph walk fills and the next one clears: kept between passes
/// (one per rank, beside the buffer pool), it makes a pass allocate nothing
/// once its buffers have grown to the rank's graphs.
#[derive(Default)]
pub struct WalkScratch {
    /// Object addresses in discovery order; the position is the object
    /// index. Scanned per lookup, it is also the paper's "linear structure
    /// to record objects visited during serialization".
    objects: Vec<usize>,
    /// Under [`VisitedStrategy::Hashed`], an open-addressed table over
    /// `objects`: a slot holds a discovery index + 1, or 0 when empty. The
    /// length is a power of two, at least twice `objects.len()`.
    slots: Vec<u32>,
    w: Writer<u32>,
}

/// Smallest visited table, and the capacity a trim always leaves.
const MIN_SLOTS: usize = 16;

impl WalkScratch {
    /// Start a pass. The table restarts at the size the previous pass's
    /// graph needed, so a rank that keeps sending graphs of one size
    /// neither rehashes on the way up nor clears a table sized for the
    /// largest graph it ever sent.
    fn begin(&mut self, hashed: bool) {
        let slots = if hashed {
            (2 * self.objects.len()).next_power_of_two().max(MIN_SLOTS)
        } else {
            0
        };
        self.slots.clear();
        self.slots.resize(slots, 0);
        self.objects.clear();
        // Nothing, unless the previous pass unwound half-way.
        self.w.clear();
    }

    /// Give back the capacity far beyond what the last pass used (twice
    /// it, where a buffer grows by doubling). Called where the buffer pool
    /// is trimmed, after a collection, so that one large graph does not
    /// size the rank's scratch for good.
    pub fn trim(&mut self) {
        self.objects
            .shrink_to((2 * self.objects.len()).max(MIN_SLOTS));
        self.slots.shrink_to_fit();
        self.w.trim();
    }

    /// First slot of `addr`'s probe sequence. Objects are 8-byte aligned;
    /// the multiplicative hash spreads what is left over the top bits.
    fn home(&self, addr: usize) -> usize {
        let h = ((addr >> 3) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// Index of `addr` in the table, entering it as the next object if it
    /// is new; `probes` counts the slots inspected.
    fn find_or_insert(&mut self, addr: usize, probes: &mut u64) -> u32 {
        let mask = self.slots.len() - 1;
        let mut at = self.home(addr);
        loop {
            *probes += 1;
            match self.slots[at] {
                0 => break,
                s if self.objects[s as usize - 1] == addr => return s - 1,
                _ => at = (at + 1) & mask,
            }
        }
        self.objects.push(addr);
        let idx = self.objects.len() as u32;
        self.slots[at] = idx;
        if 2 * self.objects.len() > self.slots.len() {
            self.grow();
        }
        idx - 1
    }

    /// Double the table and re-enter every object.
    fn grow(&mut self) {
        let slots = 2 * self.slots.len();
        self.slots.clear();
        self.slots.resize(slots, 0);
        let mask = slots - 1;
        for i in 0..self.objects.len() {
            let mut at = self.home(self.objects[i]);
            while self.slots[at] != 0 {
                at = (at + 1) & mask;
            }
            self.slots[at] = i as u32 + 1;
        }
    }
}

/// One serialization pass: the graph walk's state over a [`Writer`] keyed
/// by the sender's class ids.
struct Walk<'r> {
    reg: &'r TypeRegistry,
    hashed: bool,
    probes: u64,
    s: &'r mut WalkScratch,
}

impl Walk<'_> {
    /// Assign an object index, discovering the object if new.
    fn discover(&mut self, addr: usize) -> u32 {
        if self.hashed {
            return self.s.find_or_insert(addr, &mut self.probes);
        }
        let objects = &mut self.s.objects;
        let pos = objects.iter().position(|&a| a == addr);
        self.probes += pos.map_or(objects.len(), |i| i + 1) as u64;
        match pos {
            Some(i) => i as u32,
            None => {
                objects.push(addr);
                objects.len() as u32 - 1
            }
        }
    }

    /// Write a reference slot, discovering the target unless it is null.
    fn put_ref(&mut self, addr: usize) {
        let target = (addr != 0).then(|| self.discover(addr));
        self.s.w.put_ref(target);
    }

    /// Append `len` bytes of instance data.
    ///
    /// # Safety
    /// `p..p + len` lies inside a live object and no safepoint poll
    /// happens during the walk (cooperative FCall context).
    unsafe fn put_raw(&mut self, p: *const u8, len: usize) {
        // SAFETY: the caller's contract.
        let raw = unsafe { std::slice::from_raw_parts(p, len) };
        self.s.w.payload().extend_from_slice(raw);
    }

    /// Emit records in discovery order; the list grows as references
    /// discover further objects.
    fn emit(&mut self, ser: &Serializer<'_>) {
        let reg = self.reg;
        let mut next = 0usize;
        while next < self.s.objects.len() {
            let obj = ObjectRef(self.s.objects[next]);
            next += 1;
            // SAFETY: cooperative, non-polling FCall context.
            let (mt_id, extra) = unsafe {
                let h = obj.header();
                (h.mt, h.extra as usize)
            };
            let ty = intern_type(&mut self.s.w, reg, mt_id);
            self.s.w.begin_record(ty);
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
                    self.s.w.put_u32(extra as u32);
                    // SAFETY: array data window.
                    unsafe {
                        let (p, bytes) = obj.prim_array_data(k.size());
                        self.put_raw(p, bytes);
                    }
                }
                TypeKind::ObjArray(_) => {
                    self.s.w.put_u32(extra as u32);
                    for i in 0..extra {
                        // SAFETY: i < length.
                        self.put_ref(unsafe { *obj.obj_array_slot(i) });
                    }
                }
                TypeKind::MdArray { elem, rank } => {
                    self.s.w.payload().push(*rank);
                    // SAFETY: md accessors.
                    unsafe {
                        for d in obj.md_dims(*rank) {
                            self.s.w.put_u32(d);
                        }
                        let (p, bytes) = obj.md_data(*rank, elem.size());
                        self.put_raw(p, bytes);
                    }
                }
            }
        }
    }
}

/// One field of a class as this VM lays it out.
struct LocalField {
    /// Byte offset in the instance data.
    offset: usize,
    /// What a reference field is declared to hold; `None` for a primitive.
    holds: Option<ClassId>,
}

/// What this VM allocates for the records of one wire type.
enum LocalType {
    /// A known class whose layout matches the sender's: allocation size
    /// and fields in the wire entry's (declaration) order.
    Class {
        mt: ClassId,
        size: usize,
        fields: Vec<LocalField>,
    },
    /// A primitive or multidimensional array.
    Array { mt: ClassId },
    /// An object array and the class its elements are declared to have.
    ObjArray { mt: ClassId, elem: ClassId },
}

impl LocalType {
    /// The method table a record of this type is stamped with.
    fn mt(&self) -> ClassId {
        match self {
            LocalType::Class { mt, .. }
            | LocalType::Array { mt }
            | LocalType::ObjArray { mt, .. } => *mt,
        }
    }
}

impl<'t> Serializer<'t> {
    /// Create a serializer with Motor's defaults (hashed visited table,
    /// FieldDesc-bit attribute lookup, scratch of its own per pass).
    pub fn new(thread: &'t MotorThread) -> Serializer<'t> {
        Serializer {
            thread,
            strategy: VisitedStrategy::default(),
            attrs: AttrLookup::default(),
            scratch: None,
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

    /// Walk with `scratch`, which outlives the pass, instead of a fresh
    /// one. A pass borrows it from its first discovery to its last byte.
    pub fn with_scratch(mut self, scratch: &'t RefCell<WalkScratch>) -> Self {
        self.scratch = Some(scratch);
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
        let mut out = Vec::new();
        let stats = self.serialize_into(root, &mut out)?;
        Ok((out, stats))
    }

    /// [`Serializer::serialize`], appending to `out` (a pooled buffer).
    pub(crate) fn serialize_into(
        &self,
        root: Handle,
        out: &mut Vec<u8>,
    ) -> CoreResult<SerializeStats> {
        if self.thread.is_null(root) {
            return Err(CoreError::NullBuffer);
        }
        let addr = self.thread.handle_addr(root);
        Ok(self.run(out, |walk| {
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
        let mut out = Vec::new();
        let stats = self.serialize_array_range_into(arr, offset, count, &mut out)?;
        Ok((out, stats))
    }

    /// [`Serializer::serialize_array_range`], appending to `out`.
    pub(crate) fn serialize_array_range_into(
        &self,
        arr: Handle,
        offset: usize,
        count: usize,
        out: &mut Vec<u8>,
    ) -> CoreResult<SerializeStats> {
        if self.thread.is_null(arr) {
            return Err(CoreError::NullBuffer);
        }
        let len = self.thread.array_len(arr);
        if offset.checked_add(count).is_none_or(|end| end > len) {
            return Err(CoreError::RangeOutOfBounds { offset, count, len });
        }
        let vm = self.thread.vm();
        let obj = ObjectRef(self.thread.handle_addr(arr));
        // SAFETY: cooperative, non-polling FCall context: stable address.
        let mt_id = unsafe { obj.header().mt };
        // The registry guard must go before `run` takes its own.
        let kind = vm.registry().table(ClassId(mt_id)).kind.clone();
        match kind {
            TypeKind::ObjArray(elem) => Ok(self.run(out, |walk| {
                let elem_type = intern_type(&mut walk.s.w, walk.reg, elem.0);
                walk.s
                    .w
                    .split_root(count, |e| wire::obj_array_entry(e, elem_type));
                for i in offset..offset + count {
                    // SAFETY: bounds checked above.
                    walk.put_ref(unsafe { *obj.obj_array_slot(i) });
                }
            })),
            TypeKind::PrimArray(k) => Ok(self.run(out, |walk| {
                walk.s.w.split_root(count, |e| wire::prim_array_entry(e, k));
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
    /// emits everything reachable and appends the representation to `out`.
    fn run(&self, out: &mut Vec<u8>, roots: impl FnOnce(&mut Walk<'_>)) -> SerializeStats {
        let vm = self.thread.vm();
        // The whole pass is one span; its end carries the output size.
        let mut pass = vm.metrics().span(SpanKind::Serialize, 0);
        let mut fresh = WalkScratch::default();
        let mut kept = self.scratch.map(RefCell::borrow_mut);
        let s = kept.as_deref_mut().unwrap_or(&mut fresh);
        let hashed = self.strategy == VisitedStrategy::Hashed;
        s.begin(hashed);
        let reg = vm.registry();
        let mut walk = Walk {
            reg: &reg,
            hashed,
            probes: 0,
            s,
        };
        roots(&mut walk);
        walk.emit(self);
        let objects = walk.s.w.record_count() as usize;
        let before = out.len();
        walk.s.w.finish_into(out);
        let stats = SerializeStats {
            objects,
            visited_probes: walk.probes,
            bytes: out.len() - before,
        };
        let reg = vm.metrics();
        reg.bump(Metric::SerOps);
        reg.add(Metric::SerObjects, stats.objects as u64);
        reg.add(Metric::SerBytes, stats.bytes as u64);
        reg.add(Metric::SerVisitedProbes, stats.visited_probes);
        pass.set_arg(stats.bytes as u64);
        stats
    }

    /// What this VM allocates for each wire type: a known class whose
    /// layout matches the sender's, or an array class. Everything about a
    /// type that can make this VM refuse a representation is found here,
    /// before anything is allocated.
    fn resolve_types(&self, doc: &Doc<'_>) -> CoreResult<Vec<LocalType>> {
        let t = self.thread;
        // An object array's element type may sit after it in the table.
        let elem_class = |elem_type: u32| match &doc.types()[elem_type as usize] {
            TypeEntry::Class(class) => self.resolve_class(class),
            TypeEntry::PrimArray(k) => Ok(t.array_class(*k)),
            _ => Err(CoreError::Serialization(
                "object arrays of object or md arrays are not supported".into(),
            )),
        };
        let resolve = |ty: &TypeEntry<'_>| {
            Ok(match ty {
                TypeEntry::Class(class) => {
                    let mt = self.resolve_class(class)?;
                    let reg = t.vm().registry();
                    let table = reg.table(mt);
                    let field = |f: &motor_runtime::FieldDesc| LocalField {
                        offset: f.offset as usize,
                        holds: match f.ty {
                            FieldType::Ref(class) => Some(class),
                            FieldType::Prim(_) => None,
                        },
                    };
                    LocalType::Class {
                        mt,
                        size: layout::class_alloc_size(table),
                        fields: table.fields.iter().map(field).collect(),
                    }
                }
                TypeEntry::PrimArray(k) => LocalType::Array {
                    mt: t.array_class(*k),
                },
                TypeEntry::MdArray(k, rank) => LocalType::Array {
                    mt: t.md_array_class(*k, *rank),
                },
                TypeEntry::ObjArray(elem_type) => {
                    let elem = elem_class(*elem_type)?;
                    LocalType::ObjArray {
                        mt: t.obj_array_class(elem),
                        elem,
                    }
                }
            })
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
        let mut local = Vec::with_capacity(256);
        class_entry(&mut local, reg.table(class));
        wire.check_layout(&ClassEntry::parse(&local)?)?;
        Ok(class)
    }

    /// Where each record goes in the graph's extent: `n + 1` offsets, the
    /// last one the extent's size. Refuses a reference to a record of
    /// another type than its slot declares — it would be written as a raw
    /// address, and a wrongly typed graph must not reach the heap — and a
    /// graph beyond what a header can describe: sizes and counts are `u32`
    /// there, and the extent is stamped as one block before it is carved.
    fn place_records(&self, doc: &Doc<'_>, local: &[LocalType]) -> CoreResult<Vec<u32>> {
        let records = doc.records();
        let check = |target: Option<u32>, declared: ClassId| {
            let Some(i) = target else { return Ok(()) };
            let found = local[records[i as usize].ty() as usize].mt();
            if found == declared {
                return Ok(());
            }
            let reg = self.thread.vm().registry();
            Err(CoreError::Serialization(format!(
                "reference to record {i}, a {}, where a {} is declared",
                reg.table(found).name,
                reg.table(declared).name
            )))
        };
        let mut offsets = Vec::with_capacity(records.len() + 1);
        let mut end = 0usize;
        let mut place = |size: usize| {
            offsets.push(end as u32);
            end += size;
            match u32::try_from(end) {
                Ok(_) => Ok(()),
                Err(_) => Err(CoreError::Serialization(format!(
                    "a graph of over {end} bytes exceeds what one allocation can hold"
                ))),
            }
        };
        for rec in records {
            place(match (rec, &local[rec.ty() as usize]) {
                (Record::Class { ty, values }, LocalType::Class { size, fields, .. }) => {
                    for (f, lf) in doc.class(*ty).fields.iter().zip(fields) {
                        if let Some(declared) = lf.holds {
                            check(f.target(values), declared)?;
                        }
                    }
                    *size
                }
                (Record::ObjArray { elems, .. }, LocalType::ObjArray { elem, .. }) => {
                    elems.iter().try_for_each(|e| check(e, *elem))?;
                    layout::obj_array_alloc_size(elems.iter().len())
                }
                (Record::PrimArray { elem, data, .. }, _) => {
                    layout::prim_array_alloc_size(*elem, data.len() / elem.size())
                }
                (Record::MdArray { rank, body, .. }, _) => layout::alloc_align(
                    layout::md_array_data_offset(*rank) + body.data(*rank).len(),
                ),
                _ => unreachable!("resolve_types maps a type entry to its own kind"),
            })?;
        }
        offsets.push(end as u32);
        Ok(offsets)
    }

    /// Reconstruct the object graph; returns a handle to the root object
    /// (record 0), the only handle created.
    pub fn deserialize(&self, data: &[u8]) -> CoreResult<Handle> {
        let reg = self.thread.vm().metrics();
        reg.bump(Metric::DeserOps);
        reg.add(Metric::DeserBytes, data.len() as u64);
        let _pass = reg.span(SpanKind::Deserialize, data.len() as u64);
        let doc = Doc::parse(data)?;
        let local = self.resolve_types(&doc)?;
        let offsets = self.place_records(&doc, &local)?;
        let total = offsets[doc.records().len()] as usize;
        // Nothing below can fail.
        Ok(self.thread.alloc_graph(total, |extent| {
            let base = extent.next();
            let at = |record: u32| ObjectRef(base + offsets[record as usize] as usize);
            for (i, rec) in doc.records().iter().enumerate() {
                let kind = &local[rec.ty() as usize];
                let header = |extra: usize| ObjHeader {
                    mt: kind.mt().0,
                    flags: 0,
                    size: 0,
                    extra: extra as u32,
                };
                let size = (offsets[i + 1] - offsets[i]) as usize;
                match (rec, kind) {
                    (Record::Class { ty, values }, LocalType::Class { fields, .. }) => {
                        // SAFETY: `size` is the allocation size of the
                        // class `header` names (`resolve_types`).
                        let obj = ObjectRef(unsafe { extent.carve(size, header(0)) });
                        for (f, lf) in doc.class(*ty).fields.iter().zip(fields) {
                            let raw = f.bytes(values);
                            // SAFETY: `lf.offset` is the field's offset in
                            // an instance of this class, and the field is
                            // as wide as `raw` or a reference
                            // (`check_layout`: same kinds in the same
                            // order); a reference's target is a record of
                            // this extent (`Doc::parse`: index in range).
                            unsafe {
                                match lf.holds {
                                    None => std::ptr::copy_nonoverlapping(
                                        raw.as_ptr(),
                                        obj.payload_ptr().add(lf.offset),
                                        raw.len(),
                                    ),
                                    Some(_) => {
                                        if let Some(target) = f.target(values) {
                                            obj.write_ref_at(lf.offset, at(target));
                                        }
                                    }
                                }
                            }
                        }
                    }
                    (Record::PrimArray { elem, data, .. }, _) => {
                        // SAFETY: `size` is the allocation size of a
                        // primitive array of this many elements, which
                        // holds `data` after its header.
                        unsafe {
                            let obj =
                                ObjectRef(extent.carve(size, header(data.len() / elem.size())));
                            std::ptr::copy_nonoverlapping(
                                data.as_ptr(),
                                obj.payload_ptr(),
                                data.len(),
                            );
                        }
                    }
                    (Record::ObjArray { elems, .. }, _) => {
                        // SAFETY: `size` is the allocation size of an
                        // object array of this many slots; every target is
                        // a record of this extent.
                        unsafe {
                            let obj = ObjectRef(extent.carve(size, header(elems.iter().len())));
                            for (slot, target) in elems.iter().enumerate() {
                                if let Some(target) = target {
                                    *obj.obj_array_slot(slot) = at(target).0;
                                }
                            }
                        }
                    }
                    (
                        Record::MdArray {
                            elem, rank, body, ..
                        },
                        _,
                    ) => {
                        let data = body.data(*rank);
                        // SAFETY: `size` is the allocation size of an md
                        // array of this rank and this much data: the
                        // dimension words, then `data` at the data offset
                        // of the rank.
                        unsafe {
                            let obj =
                                ObjectRef(extent.carve(size, header(data.len() / elem.size())));
                            let words = obj.payload_ptr() as *mut u32;
                            for (d, dim) in body.dims(*rank).enumerate() {
                                std::ptr::write(words.add(d), dim);
                            }
                            let (p, len) = obj.md_data(*rank, elem.size());
                            debug_assert_eq!(len, data.len());
                            std::ptr::copy_nonoverlapping(data.as_ptr(), p, data.len());
                        }
                    }
                    _ => unreachable!("resolve_types maps a type entry to its own kind"),
                }
            }
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use motor_runtime::{ElemKind, Vm, VmConfig};
    use std::sync::Arc;

    struct Fixture {
        vm: Arc<Vm>,
        node: ClassId,
        arr_i32: ClassId,
    }

    /// The paper's `LinkedArray` shape (Figure 5): a transportable i32
    /// array, a transportable `next`, and a *non*-transportable `next2`.
    fn fixture() -> Fixture {
        fixture_with(motor_runtime::heap::HeapConfig::default())
    }

    fn fixture_with(heap: motor_runtime::heap::HeapConfig) -> Fixture {
        let vm = Vm::new(VmConfig { heap });
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

    /// Materialize `bytes` — one handle, the root's — run both collections
    /// over the copy, audit the heap and serialize the copy again with
    /// `again`: the bytes must be the ones it was made from. Returns the
    /// copy.
    fn materialize_collect_compare(
        t: &MotorThread,
        bytes: &[u8],
        again: impl Fn(&Serializer<'_>, Handle) -> Vec<u8>,
    ) -> Handle {
        let ser = Serializer::new(t);
        let handles = t.live_handles();
        let copy = ser.deserialize(bytes).unwrap();
        assert_eq!(t.live_handles(), handles + 1, "only the root");
        motor_runtime::verify_heap(t).expect("materialized heap");
        assert_eq!(again(&ser, copy), bytes, "before any collection");
        t.collect_minor();
        motor_runtime::verify_heap(t).expect("after a minor collection");
        t.collect_full();
        motor_runtime::verify_heap(t).expect("after a full collection");
        assert_eq!(again(&ser, copy), bytes, "after both collections");
        copy
    }

    fn whole(ser: &Serializer<'_>, root: Handle) -> Vec<u8> {
        ser.serialize(root).unwrap().0
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
        let copy = materialize_collect_compare(&t, &buf, whole);
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
        let copy = materialize_collect_compare(&t, &buf, whole);
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
        let copy = materialize_collect_compare(&t, &buf, whole);
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
        let copy = materialize_collect_compare(&t, &buf, whole);
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
        let copy = materialize_collect_compare(&t, &buf, whole);
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
            // A part's root is a whole array on this side.
            let sub = materialize_collect_compare(&t, &buf, |ser, sub| {
                ser.serialize_array_range(sub, 0, 2).unwrap().0
            });
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
        let sub = materialize_collect_compare(&t, &buf, |ser, sub| {
            ser.serialize_array_range(sub, 0, 3).unwrap().0
        });
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
        let hash = Serializer::new(&t);
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

    /// `LinkedArray` on a VM whose young generation is `young_bytes`.
    fn small_fixture(young_bytes: usize) -> Fixture {
        fixture_with(motor_runtime::heap::HeapConfig {
            young_bytes,
            ..Default::default()
        })
    }

    #[test]
    fn a_graph_that_needs_a_minor_collection_to_fit_gets_one() {
        let f = small_fixture(16 * 1024);
        let t = MotorThread::attach(Arc::clone(&f.vm));
        // 48 nodes of 48 bytes with arrays of 80: 6 KiB, under half the
        // young generation and over a third of it, so the second copy
        // cannot fit beside the original and the first.
        let head = build_list(&t, &f, 48, 16);
        let (buf, _) = Serializer::new(&t).serialize(head).unwrap();
        let minors = || f.vm.stats_snapshot().minor_collections;
        let mut copies = Vec::new();
        let before = minors();
        while minors() == before {
            assert!(copies.len() < 2, "the young generation holds three lists");
            copies.push(Serializer::new(&t).deserialize(&buf).unwrap());
            assert!(t.is_young(*copies.last().unwrap()), "below the threshold");
        }
        assert_eq!(minors(), before + 1);
        for copy in copies {
            check_list(&t, &f, copy, 48, 16);
            t.release(copy);
        }
        let copy = materialize_collect_compare(&t, &buf, whole);
        check_list(&t, &f, copy, 48, 16);
    }

    #[test]
    fn a_graph_above_the_large_object_threshold_is_materialized_elder() {
        let f = small_fixture(4096);
        let t = MotorThread::attach(Arc::clone(&f.vm));
        let head = build_list(&t, &f, 100, 16);
        let (buf, _) = Serializer::new(&t).serialize(head).unwrap();
        let before = f.vm.stats_snapshot();
        let copy = materialize_collect_compare(&t, &buf, whole);
        let after = f.vm.stats_snapshot();
        // Two collections forced by the helper, none by the materializer,
        // and nothing of the copy was young for them to promote.
        assert_eq!(after.minor_collections, before.minor_collections + 2);
        assert!(!t.is_young(copy));
        check_list(&t, &f, copy, 100, 16);
        // Every record is elder-resident, so the graph holds no
        // elder-to-young reference for a barrier to have missed.
        assert!(f.vm.state().remset.is_empty());
    }

    #[test]
    fn live_graphs_past_the_soft_limit_are_materialized_after_one_full_collection() {
        let soft_limit = 8192;
        let f = fixture_with(motor_runtime::heap::HeapConfig {
            young_bytes: 4096,
            old_soft_limit: soft_limit,
            ..Default::default()
        });
        let t = MotorThread::attach(Arc::clone(&f.vm));
        // 24 nodes of 48 bytes with arrays of 80: 3 KiB, above the
        // threshold, and the third live copy crosses the limit.
        let head = build_list(&t, &f, 24, 16);
        let (buf, _) = Serializer::new(&t).serialize(head).unwrap();
        let fulls = || f.vm.stats_snapshot().full_collections;
        let before = fulls();
        let copies: Vec<Handle> = (0..6)
            .map(|_| Serializer::new(&t).deserialize(&buf).unwrap())
            .collect();
        // Each copy past the limit costs the one collection that found
        // nothing to free, not a loop of them.
        assert!((1..=6).contains(&(fulls() - before)));
        assert!(f.vm.state().heap.old_bytes_used() > soft_limit);
        motor_runtime::verify_heap(&t).expect("past the limit");
        for copy in copies {
            assert!(!t.is_young(copy));
            check_list(&t, &f, copy, 24, 16);
            t.release(copy);
        }
        // With the copies dead the limit is a limit again.
        let copy = materialize_collect_compare(&t, &buf, whole);
        assert!(f.vm.state().heap.old_bytes_used() <= soft_limit);
        check_list(&t, &f, copy, 24, 16);
    }

    #[test]
    fn unreachable_records_are_reclaimed() {
        let f = fixture();
        let t = MotorThread::attach(Arc::clone(&f.vm));
        // Record 0 references nothing; record 1 is reachable from no root.
        let mut w = Writer::<u32>::default();
        let ty = w.intern(0, |_, e| class_entry(e, f.vm.registry().table(f.node)));
        for tag in [1i32, 2] {
            w.begin_record(ty);
            w.payload().extend_from_slice(&tag.to_le_bytes());
            (0..3).for_each(|_| w.put_ref(None));
        }
        let copy = Serializer::new(&t).deserialize(&w.finish()).unwrap();
        t.collect_full();
        let report = motor_runtime::verify_heap(&t).unwrap();
        assert_eq!(report.objects, 1, "only the root survives");
        assert_eq!(t.get_prim::<i32>(copy, t.field_index(f.node, "tag")), 1);
    }

    #[test]
    fn a_reference_to_the_wrong_type_is_refused_before_allocating() {
        let f = fixture();
        let t = MotorThread::attach(Arc::clone(&f.vm));
        let head = build_list(&t, &f, 2, 4);
        let ser = Serializer::new(&t);
        let (buf, _) = ser.serialize(head).unwrap();
        // Records: node 0, array 0, node 1, array 1. Node 0's fields are
        // tag, array -> 1, next -> 2, next2 -> null; swap the targets, so
        // `array` names a node and `next` an `i32[]`.
        let doc = Doc::parse(&buf).unwrap();
        let records: usize = doc
            .records()
            .iter()
            .map(|r| match r {
                Record::Class { values, .. } => 4 + values.len(),
                Record::PrimArray { data, .. } => 8 + data.len(),
                _ => unreachable!(),
            })
            .sum();
        let node0 = buf.len() - records;
        let (array, next) = (node0 + 8, node0 + 12);
        assert_eq!(buf[array..next + 4], [1, 0, 0, 0, 2, 0, 0, 0]);
        let used = f.vm.heap_usage().unwrap().0;
        for (slot, target) in [(array, 2u8), (next, 1), (next, 3)] {
            let mut confused = buf.clone();
            confused[slot] = target;
            assert!(Doc::parse(&confused).is_ok(), "in range, so it parses");
            assert!(matches!(
                ser.deserialize(&confused),
                Err(CoreError::Serialization(why)) if why.contains("is declared")
            ));
        }
        // An object array of nodes whose element is an `i32[]` record.
        let mut w = Writer::<u32>::default();
        let reg = f.vm.registry();
        let elem = intern_type(&mut w, &reg, f.node.0);
        w.split_root(1, |e| wire::obj_array_entry(e, elem));
        w.put_ref(Some(0));
        let ints = intern_type(&mut w, &reg, f.arr_i32.0);
        w.begin_record(ints);
        w.put_u32(0);
        drop(reg);
        assert!(matches!(
            ser.deserialize(&w.finish()),
            Err(CoreError::Serialization(why)) if why.contains("is declared")
        ));
        assert_eq!(f.vm.heap_usage().unwrap().0, used, "nothing was allocated");
    }

    #[test]
    fn kept_scratch_gives_the_bytes_of_a_fresh_one() {
        let f = fixture();
        let t = MotorThread::attach(Arc::clone(&f.vm));
        let scratch = RefCell::default();
        // Small after large: the table shrinks back; large after small: it
        // grows again; a split part in between leaves no offset behind.
        let arr = t.alloc_obj_array(f.node, 3);
        for strategy in [VisitedStrategy::Hashed, VisitedStrategy::Linear] {
            for n in [1usize, 300, 2, 40] {
                let head = build_list(&t, &f, n, 2);
                t.obj_array_set(arr, 1, head);
                let fresh = Serializer::new(&t).with_strategy(strategy);
                let kept = Serializer::new(&t)
                    .with_strategy(strategy)
                    .with_scratch(&scratch);
                assert_eq!(
                    kept.serialize(head).unwrap().0,
                    fresh.serialize(head).unwrap().0
                );
                assert_eq!(
                    kept.serialize_array_range(arr, 0, 3).unwrap().0,
                    fresh.serialize_array_range(arr, 0, 3).unwrap().0
                );
                t.release(head);
            }
        }
        // Trimmed, the scratch is sized for its last pass (40 nodes and
        // their arrays, then the split part's 3 elements), not the largest.
        {
            let mut s = scratch.borrow_mut();
            assert!(s.objects.capacity() >= 600);
            s.trim();
            assert!(s.objects.capacity() <= 2 * 80 && s.slots.capacity() == s.slots.len());
            // What a pass that unwound half-way would leave in the writer.
            s.w.begin_record(7);
            s.w.put_ref(None);
        }
        let head = build_list(&t, &f, 5, 2);
        assert_eq!(
            Serializer::new(&t)
                .with_scratch(&scratch)
                .serialize(head)
                .unwrap()
                .0,
            Serializer::new(&t).serialize(head).unwrap().0
        );
    }
}
