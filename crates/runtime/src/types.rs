//! The runtime type system: `MethodTable`, `FieldDesc` and the registry.
//!
//! Mirrors the SSCLI model described in paper §5.3: every object's header
//! references a `MethodTable`, "the gateway to commonly accessed type
//! information", which in turn references an array of `FieldDesc` entries —
//! "a highly optimized structure, using a bit field to describe field
//! information". Motor adds a **Transportable bit** to the `FieldDesc`
//! (§7.5) so its serializer can walk object graphs without touching the
//! (deliberately slow, reflection-style) metadata path; we model both the
//! fast bit and the slow metadata query so the ablation benchmark can
//! compare them.

use std::collections::HashMap;
use std::sync::Arc;

/// Identifier of a registered type (index into the [`TypeRegistry`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u32);

/// Primitive element kinds supported by the type system (the CLI's
/// `ELEMENT_TYPE_*` subset relevant to scientific codes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElemKind {
    Bool,
    U8,
    I8,
    I16,
    U16,
    Char,
    I32,
    U32,
    I64,
    U64,
    F32,
    F64,
}

impl ElemKind {
    /// Size of one element in bytes.
    pub const fn size(self) -> usize {
        match self {
            ElemKind::Bool | ElemKind::U8 | ElemKind::I8 => 1,
            ElemKind::I16 | ElemKind::U16 | ElemKind::Char => 2,
            ElemKind::I32 | ElemKind::U32 | ElemKind::F32 => 4,
            ElemKind::I64 | ElemKind::U64 | ElemKind::F64 => 8,
        }
    }

    /// Alignment requirement in bytes (same as size for primitives).
    pub const fn align(self) -> usize {
        self.size()
    }

    /// Stable numeric tag used in serialized representations.
    pub const fn tag(self) -> u8 {
        match self {
            ElemKind::Bool => 0,
            ElemKind::U8 => 1,
            ElemKind::I8 => 2,
            ElemKind::I16 => 3,
            ElemKind::U16 => 4,
            ElemKind::Char => 5,
            ElemKind::I32 => 6,
            ElemKind::U32 => 7,
            ElemKind::I64 => 8,
            ElemKind::U64 => 9,
            ElemKind::F32 => 10,
            ElemKind::F64 => 11,
        }
    }

    /// Inverse of [`ElemKind::tag`].
    pub fn from_tag(tag: u8) -> Option<ElemKind> {
        Some(match tag {
            0 => ElemKind::Bool,
            1 => ElemKind::U8,
            2 => ElemKind::I8,
            3 => ElemKind::I16,
            4 => ElemKind::U16,
            5 => ElemKind::Char,
            6 => ElemKind::I32,
            7 => ElemKind::U32,
            8 => ElemKind::I64,
            9 => ElemKind::U64,
            10 => ElemKind::F32,
            11 => ElemKind::F64,
            _ => return None,
        })
    }

    /// All primitive kinds, for exhaustive tests.
    pub const ALL: [ElemKind; 12] = [
        ElemKind::Bool,
        ElemKind::U8,
        ElemKind::I8,
        ElemKind::I16,
        ElemKind::U16,
        ElemKind::Char,
        ElemKind::I32,
        ElemKind::U32,
        ElemKind::I64,
        ElemKind::U64,
        ElemKind::F32,
        ElemKind::F64,
    ];
}

/// The declared type of a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldType {
    /// An inline primitive value.
    Prim(ElemKind),
    /// A reference to an object of the given class (or any subtype; the
    /// reproduction has no inheritance, so this is exact).
    Ref(ClassId),
}

/// Bit flags on a [`FieldDesc`] — "a highly optimized structure, using a
/// bit field to describe field information" (paper §5.3).
pub mod field_flags {
    /// The field holds an object reference (set automatically).
    pub const IS_REF: u32 = 1 << 0;
    /// Motor's Transportable bit (paper §7.5): the reference should be
    /// propagated by the object-oriented transport operations.
    pub const TRANSPORTABLE: u32 = 1 << 1;
}

/// Per-field metadata. Offsets are relative to the start of the object's
/// instance data (immediately after the header).
#[derive(Debug, Clone)]
pub struct FieldDesc {
    /// Field name (metadata; the fast path never reads it).
    pub name: String,
    /// Declared type.
    pub ty: FieldType,
    /// Byte offset of the field within the instance data.
    pub offset: u32,
    /// Bit flags; see [`field_flags`].
    pub flags: u32,
}

impl FieldDesc {
    /// Whether this field holds an object reference.
    #[inline]
    pub fn is_ref(&self) -> bool {
        self.flags & field_flags::IS_REF != 0
    }

    /// Whether the Transportable bit is set (fast path used by the Motor
    /// serializer).
    #[inline]
    pub fn is_transportable(&self) -> bool {
        self.flags & field_flags::TRANSPORTABLE != 0
    }

    /// Size in bytes of the field's inline storage.
    pub fn size(&self) -> usize {
        match self.ty {
            FieldType::Prim(k) => k.size(),
            FieldType::Ref(_) => std::mem::size_of::<usize>(),
        }
    }
}

/// What shape of object a type describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeKind {
    /// A class with named fields.
    Class,
    /// A one-dimensional array of primitives (data stored inline,
    /// contiguously — eligible for zero-copy transport).
    PrimArray(ElemKind),
    /// A one-dimensional array of object references.
    ObjArray(ClassId),
    /// A true multidimensional array of primitives (contiguous data, the
    /// CLI feature the paper highlights over Java's arrays-of-arrays).
    MdArray {
        /// Element kind of the array.
        elem: ElemKind,
        /// Number of dimensions (>= 2).
        rank: u8,
    },
}

/// The runtime type descriptor: the gateway to commonly accessed type
/// information (paper §5.3).
#[derive(Debug, Clone)]
pub struct MethodTable {
    /// Fully qualified type name.
    pub name: String,
    /// Shape of instances.
    pub kind: TypeKind,
    /// For classes: size of the instance data in bytes (excludes header).
    /// For arrays this is zero; instance size depends on length.
    pub instance_size: u32,
    /// For classes: field descriptors, offset-ordered.
    pub fields: Vec<FieldDesc>,
    /// Offsets (within instance data) of every reference field; the GC scan
    /// path reads this instead of iterating `fields`.
    pub ref_offsets: Vec<u32>,
    /// Whether instances may contain object references. The Motor MPI
    /// bindings refuse to transport such objects to protect object-model
    /// integrity (paper §4.2.1).
    pub has_refs: bool,
}

impl MethodTable {
    /// Look up a field by name (slow, metadata-style path — the analog of
    /// reflection; the Motor fast paths use indices and bits instead).
    pub fn field_by_name(&self, name: &str) -> Option<(usize, &FieldDesc)> {
        self.fields.iter().enumerate().find(|(_, f)| f.name == name)
    }

    /// Whether this type is an array of any shape.
    pub fn is_array(&self) -> bool {
        !matches!(self.kind, TypeKind::Class)
    }
}

/// Builder for class types.
pub struct ClassBuilder<'r> {
    registry: &'r mut TypeRegistry,
    name: String,
    fields: Vec<FieldDesc>,
    next_offset: u32,
}

impl<'r> ClassBuilder<'r> {
    /// Add a primitive field.
    pub fn prim(mut self, name: &str, kind: ElemKind) -> Self {
        let align = kind.align() as u32;
        let offset = (self.next_offset + align - 1) & !(align - 1);
        self.fields.push(FieldDesc {
            name: name.to_string(),
            ty: FieldType::Prim(kind),
            offset,
            flags: 0,
        });
        self.next_offset = offset + kind.size() as u32;
        self
    }

    /// Add a reference field (not transportable).
    pub fn reference(self, name: &str, class: ClassId) -> Self {
        self.reference_with(name, class, false)
    }

    /// Add a reference field carrying the `[Transportable]` attribute.
    pub fn transportable(self, name: &str, class: ClassId) -> Self {
        self.reference_with(name, class, true)
    }

    fn reference_with(mut self, name: &str, class: ClassId, transportable: bool) -> Self {
        let align = std::mem::size_of::<usize>() as u32;
        let offset = (self.next_offset + align - 1) & !(align - 1);
        let mut flags = field_flags::IS_REF;
        if transportable {
            flags |= field_flags::TRANSPORTABLE;
        }
        self.fields.push(FieldDesc {
            name: name.to_string(),
            ty: FieldType::Ref(class),
            offset,
            flags,
        });
        self.next_offset = offset + std::mem::size_of::<usize>() as u32;
        self
    }

    /// Register the class and return its id.
    pub fn build(self) -> ClassId {
        let size = (self.next_offset + 7) & !7;
        let ref_offsets: Vec<u32> = self
            .fields
            .iter()
            .filter(|f| f.is_ref())
            .map(|f| f.offset)
            .collect();
        let has_refs = !ref_offsets.is_empty();
        self.registry.insert(MethodTable {
            name: self.name,
            kind: TypeKind::Class,
            instance_size: size,
            fields: self.fields,
            ref_offsets,
            has_refs,
        })
    }
}

/// Registry of every type known to one VM instance.
///
/// Type identity is per-VM, as in the CLI; the serializer ships a *type
/// table* with each message precisely because ids do not agree across
/// address spaces (paper §7.5).
///
/// The registry is append-only and a method table never changes once
/// inserted, so each table is an `Arc`: a mutator thread keeps a snapshot
/// of the list and looks types up in it without the registry's lock.
#[derive(Debug, Default)]
pub struct TypeRegistry {
    tables: Vec<Arc<MethodTable>>,
    by_name: HashMap<String, ClassId>,
    prim_arrays: HashMap<ElemKind, ClassId>,
    obj_arrays: HashMap<ClassId, ClassId>,
    md_arrays: HashMap<(ElemKind, u8), ClassId>,
}

impl TypeRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn insert(&mut self, mt: MethodTable) -> ClassId {
        if let Some(&existing) = self.by_name.get(&mt.name) {
            return existing;
        }
        let id = ClassId(self.tables.len() as u32);
        self.by_name.insert(mt.name.clone(), id);
        self.tables.push(Arc::new(mt));
        id
    }

    /// Begin defining a class type.
    pub fn define_class(&mut self, name: &str) -> ClassBuilder<'_> {
        ClassBuilder {
            registry: self,
            name: name.to_string(),
            fields: Vec::new(),
            next_offset: 0,
        }
    }

    /// Canonical primitive-array type for an element kind.
    pub fn prim_array(&mut self, kind: ElemKind) -> ClassId {
        if let Some(&id) = self.prim_arrays.get(&kind) {
            return id;
        }
        let id = self.insert(MethodTable {
            name: format!("{kind:?}[]"),
            kind: TypeKind::PrimArray(kind),
            instance_size: 0,
            fields: Vec::new(),
            ref_offsets: Vec::new(),
            has_refs: false,
        });
        self.prim_arrays.insert(kind, id);
        id
    }

    /// Canonical object-array type for an element class.
    pub fn obj_array(&mut self, elem: ClassId) -> ClassId {
        if let Some(&id) = self.obj_arrays.get(&elem) {
            return id;
        }
        let elem_name = self.tables[elem.0 as usize].name.clone();
        let id = self.insert(MethodTable {
            name: format!("{elem_name}[]"),
            kind: TypeKind::ObjArray(elem),
            instance_size: 0,
            fields: Vec::new(),
            ref_offsets: Vec::new(),
            has_refs: true,
        });
        self.obj_arrays.insert(elem, id);
        id
    }

    /// Canonical true-multidimensional-array type.
    pub fn md_array(&mut self, elem: ElemKind, rank: u8) -> ClassId {
        assert!(rank >= 2, "multidimensional arrays have rank >= 2");
        if let Some(&id) = self.md_arrays.get(&(elem, rank)) {
            return id;
        }
        let id = self.insert(MethodTable {
            name: format!("{elem:?}[{}]", ",".repeat(rank as usize - 1)),
            kind: TypeKind::MdArray { elem, rank },
            instance_size: 0,
            fields: Vec::new(),
            ref_offsets: Vec::new(),
            has_refs: false,
        });
        self.md_arrays.insert((elem, rank), id);
        id
    }

    /// Existing primitive-array type id, if already registered.
    pub fn prim_array_id(&self, kind: ElemKind) -> Option<ClassId> {
        self.prim_arrays.get(&kind).copied()
    }

    /// Existing object-array type id, if already registered.
    pub fn obj_array_id(&self, elem: ClassId) -> Option<ClassId> {
        self.obj_arrays.get(&elem).copied()
    }

    /// Existing md-array type id, if already registered.
    pub fn md_array_id(&self, elem: ElemKind, rank: u8) -> Option<ClassId> {
        self.md_arrays.get(&(elem, rank)).copied()
    }

    /// Fetch a type's method table.
    #[inline]
    pub fn table(&self, id: ClassId) -> &MethodTable {
        &self.tables[id.0 as usize]
    }

    /// Append the tables `snapshot` does not hold yet: ids past its end.
    pub(crate) fn extend_snapshot(&self, snapshot: &mut Vec<Arc<MethodTable>>) {
        snapshot.extend(self.tables[snapshot.len()..].iter().cloned());
    }

    /// Look a type up by name.
    pub fn by_name(&self, name: &str) -> Option<ClassId> {
        self.by_name.get(name).copied()
    }

    /// Number of registered types.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elem_kind_sizes_and_tags_roundtrip() {
        for k in ElemKind::ALL {
            assert!(k.size() == 1 || k.size() == 2 || k.size() == 4 || k.size() == 8);
            assert_eq!(ElemKind::from_tag(k.tag()), Some(k));
        }
        assert_eq!(ElemKind::from_tag(200), None);
    }

    #[test]
    fn class_layout_respects_alignment() {
        let mut reg = TypeRegistry::new();
        let arr = reg.prim_array(ElemKind::I32);
        let id = reg
            .define_class("Mixed")
            .prim("a", ElemKind::U8)
            .prim("b", ElemKind::I64)
            .transportable("c", arr)
            .prim("d", ElemKind::I16)
            .build();
        let mt = reg.table(id);
        let a = &mt.fields[0];
        let b = &mt.fields[1];
        let c = &mt.fields[2];
        let d = &mt.fields[3];
        assert_eq!(a.offset, 0);
        assert_eq!(b.offset, 8, "i64 aligns to 8");
        assert_eq!(c.offset, 16);
        assert_eq!(d.offset, 24);
        assert_eq!(mt.instance_size % 8, 0);
        assert!(mt.has_refs);
        assert_eq!(mt.ref_offsets, vec![16]);
    }

    #[test]
    fn transportable_bit_is_queryable_both_ways() {
        let mut reg = TypeRegistry::new();
        let arr = reg.prim_array(ElemKind::I32);
        let id = reg
            .define_class("LinkedArray")
            .transportable("array", arr)
            .prim("len", ElemKind::I32)
            .build();
        // `next` must reference the class itself; define via two-phase
        // registration is not supported, so model the paper's LinkedArray
        // with a second class referencing the first.
        let id2 = reg
            .define_class("LinkedArray2")
            .transportable("array", arr)
            .transportable("next", id)
            .reference("next2", id)
            .build();
        let mt = reg.table(id2);
        // Fast path: the Transportable bit.
        let (_, f_next) = mt.field_by_name("next").unwrap();
        let (_, f_next2) = mt.field_by_name("next2").unwrap();
        assert!(f_next.is_transportable());
        assert!(!f_next2.is_transportable());
        // Both are references.
        assert!(f_next.is_ref() && f_next2.is_ref());
    }

    #[test]
    fn array_types_are_canonical() {
        let mut reg = TypeRegistry::new();
        let a = reg.prim_array(ElemKind::F64);
        let b = reg.prim_array(ElemKind::F64);
        assert_eq!(a, b);
        let c = reg.md_array(ElemKind::F64, 2);
        let d = reg.md_array(ElemKind::F64, 2);
        assert_eq!(c, d);
        assert_ne!(a, c);
        let cls = reg.define_class("Node").prim("x", ElemKind::I32).build();
        let oa = reg.obj_array(cls);
        assert_eq!(reg.obj_array(cls), oa);
        assert!(reg.table(oa).has_refs);
        assert!(!reg.table(a).has_refs);
    }

    #[test]
    fn duplicate_class_names_resolve_to_first_definition() {
        let mut reg = TypeRegistry::new();
        let a = reg.define_class("P").prim("x", ElemKind::I32).build();
        let b = reg.define_class("P").prim("y", ElemKind::I64).build();
        assert_eq!(a, b);
        assert_eq!(reg.table(b).fields[0].name, "x");
    }

    #[test]
    fn by_name_lookup() {
        let mut reg = TypeRegistry::new();
        let id = reg.define_class("Point").prim("x", ElemKind::F64).build();
        assert_eq!(reg.by_name("Point"), Some(id));
        assert_eq!(reg.by_name("Missing"), None);
        assert_eq!(reg.len(), 1);
        assert!(!reg.is_empty());
    }

    #[test]
    #[should_panic(expected = "rank >= 2")]
    fn md_array_requires_rank_two() {
        let mut reg = TypeRegistry::new();
        reg.md_array(ElemKind::I32, 1);
    }
}
