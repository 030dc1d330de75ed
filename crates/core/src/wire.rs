//! The Motor object wire format (paper §7.5) — the one module that knows it.
//!
//! "A flat object-tree representation with two parts: a type table, which
//! details class information; and object data, which consists of the
//! objects laid out side-by-side, prefixed with an internal type reference.
//! Object references are exchanged for their local internal equivalent.
//! References to objects not included in the serialization are swapped to
//! null."
//!
//! ```text
//! [u32 type_count] type entries...
//!   class:      [0][name][u16 nfields] per field: [0,prim_tag]|[1,transportable] [name]
//!   prim array: [1][elem_tag]
//!   obj array:  [2][u32 elem_type_index]
//!   md array:   [3][elem_tag][rank]
//! [u32 record_count] records...
//!   each: [u32 type_index] + payload
//!   class payload:       field values in declaration order
//!                        (prims raw LE; refs as u32 record index / NULL)
//!   prim array payload:  [u32 len][data]
//!   obj array payload:   [u32 len][u32 index/NULL ...]
//!   md array payload:    [u8 rank][u32 dims...][data]
//! Root object = record 0.
//! ```
//!
//! Integers are little-endian, a name is `[u16 len][utf8]`, an element tag
//! is [`ElemKind::tag`]. Records appear in discovery order (breadth-first
//! from the root) and a type entry is added when its first record is.
//! A part of the **split representation** of scatter/gather is a regular
//! representation whose record 0 is a synthetic array root over the
//! elements of its range; the root is not a discovered object, so
//! references in a part are discovery index + 1.
//!
//! Two clients write through [`Writer`] and read through [`Doc`], which
//! keeps them byte-identical: the reflective [`crate::serial`] over the
//! managed heap and the compile-time codec of `motor_api::wire`. The bytes
//! come from another rank, so [`Doc::parse`] bounds every count by the
//! bytes that remain before reserving for it, multiplies sizes with
//! overflow checks, checks every index against its table, and refuses
//! bytes after the last record.

use motor_runtime::ElemKind;

use crate::error::{CoreError, CoreResult};

/// Null reference marker in the object data.
const NULL_REF: u32 = u32::MAX;

const TT_CLASS: u8 = 0;
const TT_PRIM_ARRAY: u8 = 1;
const TT_OBJ_ARRAY: u8 = 2;
const TT_MD_ARRAY: u8 = 3;

const FIELD_PRIM: u8 = 0;
const FIELD_REF: u8 = 1;

fn malformed(what: impl Into<String>) -> CoreError {
    CoreError::Serialization(what.into())
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

/// Begin a class type entry: kind byte, name, field count. The field
/// declarations follow, one [`prim_field`] or [`ref_field`] each.
pub fn class_entry_header(out: &mut Vec<u8>, name: &str, nfields: u16) {
    out.push(TT_CLASS);
    put_str(out, name);
    put_u16(out, nfields);
}

/// Append a primitive field declaration.
pub fn prim_field(out: &mut Vec<u8>, kind: ElemKind, name: &str) {
    out.extend_from_slice(&[FIELD_PRIM, kind.tag()]);
    put_str(out, name);
}

/// Append a reference field declaration with its Transportable bit.
pub fn ref_field(out: &mut Vec<u8>, name: &str, transportable: bool) {
    out.extend_from_slice(&[FIELD_REF, transportable as u8]);
    put_str(out, name);
}

/// Append a primitive-array type entry.
pub fn prim_array_entry(out: &mut Vec<u8>, elem: ElemKind) {
    out.extend_from_slice(&[TT_PRIM_ARRAY, elem.tag()]);
}

/// Append an object-array type entry over the element type at `elem_type`.
pub fn obj_array_entry(out: &mut Vec<u8>, elem_type: u32) {
    out.push(TT_OBJ_ARRAY);
    put_u32(out, elem_type);
}

/// Append a multidimensional-array type entry.
pub fn md_array_entry(out: &mut Vec<u8>, elem: ElemKind, rank: u8) {
    out.extend_from_slice(&[TT_MD_ARRAY, elem.tag(), rank]);
}

/// Builds one representation after another: a type table interned by the
/// client's key `K`, and the record section. The client owns discovery
/// (which object gets which index); the writer owns the layout. A writer
/// that is kept keeps its buffers, so a later pass clears instead of
/// reallocating.
pub struct Writer<K> {
    /// Interning key of each type entry; `None` for a synthetic split
    /// root's. Scanned linearly: a message has a handful of types.
    keys: Vec<Option<K>>,
    /// One buffer per entry of `keys`, then spares of earlier passes.
    types: Vec<Vec<u8>>,
    records: Vec<u8>,
    record_count: u32,
    /// 1 once record 0 is a synthetic split root, which shifts every
    /// discovered object one record down.
    index_offset: u32,
    /// Type entries and record bytes of the last representation finished:
    /// what [`Writer::trim`] keeps room for.
    last: (usize, usize),
}

impl<K: PartialEq> Default for Writer<K> {
    fn default() -> Self {
        Writer {
            keys: Vec::new(),
            types: Vec::new(),
            records: Vec::new(),
            record_count: 0,
            index_offset: 0,
            last: (0, 0),
        }
    }
}

impl<K: PartialEq> Writer<K> {
    /// Index of the type entry for `key`, which `fill` writes on first use.
    /// The slot is reserved before `fill` runs, so `fill` may intern the
    /// type the entry refers to (an object array's element type).
    pub fn intern(&mut self, key: K, fill: impl FnOnce(&mut Self, &mut Vec<u8>)) -> u32 {
        if let Some(i) = self.keys.iter().position(|k| k.as_ref() == Some(&key)) {
            return i as u32;
        }
        let idx = self.push_type(Some(key));
        let mut entry = std::mem::take(&mut self.types[idx as usize]);
        fill(self, &mut entry);
        self.types[idx as usize] = entry;
        idx
    }

    /// Reserve the next type entry, empty.
    fn push_type(&mut self, key: Option<K>) -> u32 {
        let idx = self.keys.len();
        self.keys.push(key);
        match self.types.get_mut(idx) {
            Some(spare) => spare.clear(),
            None => self.types.push(Vec::new()),
        }
        idx as u32
    }

    /// Open a split part: the synthetic root over `len` elements as
    /// record 0, of the array type `entry` writes. After an
    /// [`obj_array_entry`] `len` [`Writer::put_ref`] calls follow, after a
    /// [`prim_array_entry`] the data, appended to [`Writer::payload`].
    pub fn split_root(&mut self, len: usize, entry: impl FnOnce(&mut Vec<u8>)) {
        debug_assert_eq!(self.record_count, 0, "the split root is record 0");
        let ty = self.push_type(None);
        entry(&mut self.types[ty as usize]);
        self.index_offset = 1;
        self.begin_record(ty);
        self.put_u32(len as u32);
    }

    /// Start the next record with its type index; the payload follows.
    pub fn begin_record(&mut self, ty: u32) {
        self.record_count += 1;
        self.put_u32(ty);
    }

    /// Append a length or dimension to the current record.
    pub fn put_u32(&mut self, v: u32) {
        put_u32(&mut self.records, v);
    }

    /// Append a reference slot: `None` is null, `Some(i)` the object the
    /// client discovered `i`-th (the first is 0).
    pub fn put_ref(&mut self, discovered: Option<u32>) {
        self.put_u32(discovered.map_or(NULL_REF, |i| i + self.index_offset));
    }

    /// The record section, for appending raw primitive payload.
    pub fn payload(&mut self) -> &mut Vec<u8> {
        &mut self.records
    }

    /// Records written so far.
    pub fn record_count(&self) -> u32 {
        self.record_count
    }

    /// Append the representation — type table, then records — to `out`,
    /// and start over with this writer's buffers kept.
    pub fn finish_into(&mut self, out: &mut Vec<u8>) {
        let types = &self.types[..self.keys.len()];
        let table: usize = types.iter().map(Vec::len).sum();
        out.reserve(8 + table + self.records.len());
        put_u32(out, types.len() as u32);
        for e in types {
            out.extend_from_slice(e);
        }
        put_u32(out, self.record_count);
        out.extend_from_slice(&self.records);
        self.last = (types.len(), self.records.len());
        self.clear();
    }

    /// Drop a representation under way (what a pass that unwound left
    /// behind), buffers kept.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.records.clear();
        self.record_count = 0;
        self.index_offset = 0;
    }

    /// Between representations, give back the capacity beyond twice what
    /// the last one used, so that one large representation does not size
    /// this writer for good.
    pub fn trim(&mut self) {
        debug_assert!(self.keys.is_empty(), "between representations");
        let (types, records) = self.last;
        self.types.truncate(types);
        self.records.shrink_to(2 * records);
    }

    /// [`Writer::finish_into`] a buffer of exactly the representation's
    /// size.
    pub fn finish(&mut self) -> Vec<u8> {
        let mut out = Vec::new();
        self.finish_into(&mut out);
        out
    }
}

/// Bounds-checked sequential reader over untrusted bytes: what is left.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> CoreResult<&'a [u8]> {
        if n > self.0.len() {
            return Err(malformed(format!("truncated: {n} of {}", self.0.len())));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }
    /// `n` items of `size` bytes each.
    fn take_items(&mut self, n: usize, size: usize) -> CoreResult<&'a [u8]> {
        let bytes = n
            .checked_mul(size)
            .ok_or_else(|| malformed("size overflow"))?;
        self.take(bytes)
    }
    /// `n`, if what is left can hold `n` items of at least `min_size`
    /// bytes — which bounds a reservation of `n` by the input's length.
    fn bounded(&self, n: usize, min_size: usize) -> CoreResult<usize> {
        match n.checked_mul(min_size) {
            Some(bytes) if bytes <= self.0.len() => Ok(n),
            _ => Err(malformed(format!("count {n} exceeds the input"))),
        }
    }
    fn u8(&mut self) -> CoreResult<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> CoreResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }
    fn u32(&mut self) -> CoreResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    fn str(&mut self) -> CoreResult<&'a str> {
        let n = self.u16()? as usize;
        std::str::from_utf8(self.take(n)?).map_err(|_| malformed("non-UTF8 type name"))
    }
    fn elem_kind(&mut self) -> CoreResult<ElemKind> {
        let tag = self.u8()?;
        ElemKind::from_tag(tag).ok_or_else(|| malformed(format!("unknown element tag {tag}")))
    }
}

/// One little-endian `u32` slot.
fn slot(raw: &[u8]) -> u32 {
    u32::from_le_bytes(raw.try_into().expect("4-byte slot"))
}

/// One reference slot: `None` for null.
fn reference(raw: &[u8]) -> Option<u32> {
    Some(slot(raw)).filter(|&i| i != NULL_REF)
}

/// One field declaration of a class entry, and where the field's value
/// sits in a record of that class.
#[derive(Debug, PartialEq)]
pub struct Field<'a> {
    pub name: &'a str,
    /// Element kind of a primitive field; `None` for a reference. (The
    /// Transportable bit is the sender's business and is not kept.)
    pub prim: Option<ElemKind>,
    at: std::ops::Range<usize>,
}

impl Field<'_> {
    /// The field's little-endian bytes, out of the `values` of a
    /// [`Record::Class`] of this field's class.
    pub fn bytes<'v>(&self, values: &'v [u8]) -> &'v [u8] {
        &values[self.at.clone()]
    }

    /// The record a reference field points at, out of the same `values`;
    /// `None` when it is null, and for a primitive field.
    pub fn target(&self, values: &[u8]) -> Option<u32> {
        match self.prim {
            Some(_) => None,
            None => reference(self.bytes(values)),
        }
    }
}

/// A class type entry, fields in declaration order. Two entries are equal
/// when they describe the same layout.
#[derive(Debug, PartialEq)]
pub struct ClassEntry<'a> {
    pub name: &'a str,
    pub fields: Vec<Field<'a>>,
}

impl<'a> ClassEntry<'a> {
    /// Parse one class entry on its own — what [`class_entry_header`] and
    /// the field functions wrote.
    pub fn parse(entry: &'a [u8]) -> CoreResult<ClassEntry<'a>> {
        let mut r = Reader(entry);
        match r.u8()? {
            TT_CLASS => ClassEntry::read(&mut r),
            kind => Err(malformed(format!("type entry kind {kind} is not a class"))),
        }
    }

    fn read(r: &mut Reader<'a>) -> CoreResult<ClassEntry<'a>> {
        let name = r.str()?;
        let nfields = r.u16()? as usize;
        // A field declaration is two bytes and a name, at least 4 bytes.
        let mut fields = Vec::with_capacity(r.bounded(nfields, 4)?);
        let mut end = 0;
        for _ in 0..nfields {
            let prim = match r.u8()? {
                FIELD_PRIM => Some(r.elem_kind()?),
                FIELD_REF => {
                    let _transportable = r.u8()?;
                    None
                }
                kind => return Err(malformed(format!("bad field kind {kind}"))),
            };
            let at = end..end + prim.map_or(4, ElemKind::size);
            end = at.end;
            let name = r.str()?;
            fields.push(Field { name, prim, at });
        }
        Ok(ClassEntry { name, fields })
    }

    /// Bytes of one record's field values.
    fn payload_len(&self) -> usize {
        self.fields.last().map_or(0, |f| f.at.end)
    }

    /// Refuse a sender's entry (`self`) whose layout is not `local`'s:
    /// same name, same field names in order, same primitive kinds.
    pub fn check_layout(&self, local: &ClassEntry<'_>) -> CoreResult<()> {
        if self == local {
            return Ok(());
        }
        Err(malformed(format!(
            "layout mismatch: received {self:?}, expected {local:?}"
        )))
    }
}

/// One type-table entry.
#[derive(Debug)]
pub enum TypeEntry<'a> {
    Class(ClassEntry<'a>),
    PrimArray(ElemKind),
    /// An object array over the element type at this table index.
    ObjArray(u32),
    /// A multidimensional array and its rank, at least 2.
    MdArray(ElemKind, u8),
}

/// The reference slots of an object-array record, still in the buffer.
#[derive(Debug, Clone, Copy)]
pub struct Refs<'a>(&'a [u8]);

impl<'a> Refs<'a> {
    /// The elements in order: a record index, or `None` for null.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Option<u32>> + 'a {
        self.0.chunks_exact(4).map(reference)
    }
}

/// The body of a multidimensional-array record, still in the buffer: the
/// extent of each dimension, then the row-major element bytes.
#[derive(Debug, Clone, Copy)]
pub struct MdBody<'a>(&'a [u8]);

impl<'a> MdBody<'a> {
    /// The extents of the record's `rank` dimensions.
    pub fn dims(&self, rank: u8) -> impl ExactSizeIterator<Item = u32> + 'a {
        self.0[..4 * rank as usize].chunks_exact(4).map(slot)
    }

    /// The element bytes: the product of the extents times the element size.
    pub fn data(&self, rank: u8) -> &'a [u8] {
        &self.0[4 * rank as usize..]
    }
}

/// One object record: the type-table index of its type, and payloads that
/// are slices of the parsed buffer. Three words, so that a representation
/// of many small objects parses into little more than its own size.
#[derive(Debug)]
pub enum Record<'a> {
    /// A class instance ([`Doc::class`] resolves `ty`): the field values
    /// [`Field::bytes`] and [`Field::target`] read.
    Class { ty: u32, values: &'a [u8] },
    /// A primitive array: `len * elem.size()` little-endian bytes.
    PrimArray {
        ty: u32,
        elem: ElemKind,
        data: &'a [u8],
    },
    /// An object array (its type entry names the element type): one
    /// reference per element.
    ObjArray { ty: u32, elems: Refs<'a> },
    /// A multidimensional array of `rank` dimensions.
    MdArray {
        ty: u32,
        elem: ElemKind,
        rank: u8,
        body: MdBody<'a>,
    },
}

impl Record<'_> {
    /// Type-table index of the record's type.
    pub fn ty(&self) -> u32 {
        match self {
            Record::Class { ty, .. }
            | Record::PrimArray { ty, .. }
            | Record::ObjArray { ty, .. }
            | Record::MdArray { ty, .. } => *ty,
        }
    }
}

/// A parsed and validated representation, still borrowing the incoming
/// buffer. There is a root record; every type index, element type index
/// and non-null reference is in range; every payload has its type's length;
/// the last record ends the buffer.
#[derive(Debug)]
pub struct Doc<'a> {
    types: Vec<TypeEntry<'a>>,
    records: Vec<Record<'a>>,
}

impl<'a> Doc<'a> {
    /// Parse and validate a representation.
    pub fn parse(bytes: &'a [u8]) -> CoreResult<Doc<'a>> {
        let mut r = Reader(bytes);
        // The smallest type entry (a primitive array) is 2 bytes.
        let ntypes = r.u32()? as usize;
        let mut types = Vec::with_capacity(r.bounded(ntypes, 2)?);
        for _ in 0..ntypes {
            types.push(match r.u8()? {
                TT_CLASS => TypeEntry::Class(ClassEntry::read(&mut r)?),
                TT_PRIM_ARRAY => TypeEntry::PrimArray(r.elem_kind()?),
                TT_OBJ_ARRAY => TypeEntry::ObjArray(r.u32()?),
                TT_MD_ARRAY => match (r.elem_kind()?, r.u8()?) {
                    (elem, rank) if rank >= 2 => TypeEntry::MdArray(elem, rank),
                    (_, rank) => return Err(malformed(format!("md array of rank {rank}"))),
                },
                kind => return Err(malformed(format!("bad type kind {kind}"))),
            });
        }
        let dangling =
            |t: &TypeEntry<'_>| matches!(t, TypeEntry::ObjArray(e) if *e as usize >= ntypes);
        if types.iter().any(dangling) {
            return Err(malformed("object array over a type index out of range"));
        }

        // The smallest record (a class without fields) is its type index.
        let nrecords = r.u32()? as usize;
        if nrecords == 0 {
            return Err(malformed("empty representation"));
        }
        let mut records = Vec::with_capacity(r.bounded(nrecords, 4)?);
        let check = |target: Option<u32>| match target {
            Some(i) if i as usize >= nrecords => Err(malformed(format!("bad object index {i}"))),
            _ => Ok(()),
        };
        for _ in 0..nrecords {
            let ty = r.u32()?;
            let entry = types
                .get(ty as usize)
                .ok_or_else(|| malformed(format!("bad type index {ty}")))?;
            records.push(match entry {
                TypeEntry::Class(class) => {
                    let values = r.take(class.payload_len())?;
                    let mut targets = class.fields.iter().map(|f| f.target(values));
                    targets.try_for_each(check)?;
                    Record::Class { ty, values }
                }
                TypeEntry::PrimArray(elem) => {
                    let len = r.u32()? as usize;
                    Record::PrimArray {
                        ty,
                        elem: *elem,
                        data: r.take_items(len, elem.size())?,
                    }
                }
                TypeEntry::ObjArray(_) => {
                    let len = r.u32()? as usize;
                    let elems = Refs(r.take_items(len, 4)?);
                    elems.iter().try_for_each(check)?;
                    Record::ObjArray { ty, elems }
                }
                TypeEntry::MdArray(elem, rank) => {
                    if r.u8()? != *rank {
                        return Err(malformed("md rank mismatch"));
                    }
                    let body = r.0;
                    let count = r
                        .take(4 * *rank as usize)?
                        .chunks_exact(4)
                        .try_fold(1usize, |n, d| n.checked_mul(slot(d) as usize))
                        .ok_or_else(|| malformed("md dimensions overflow"))?;
                    let data = r.take_items(count, elem.size())?;
                    Record::MdArray {
                        ty,
                        elem: *elem,
                        rank: *rank,
                        body: MdBody(&body[..4 * *rank as usize + data.len()]),
                    }
                }
            });
        }
        if !r.0.is_empty() {
            return Err(malformed(format!(
                "{} bytes after the last record",
                r.0.len()
            )));
        }
        Ok(Doc { types, records })
    }

    /// The type table.
    pub fn types(&self) -> &[TypeEntry<'a>] {
        &self.types
    }

    /// The records; record 0 is the root.
    pub fn records(&self) -> &[Record<'a>] {
        &self.records
    }

    /// The class entry a [`Record::Class`] names with its `ty`.
    pub fn class(&self, ty: u32) -> &ClassEntry<'a> {
        match &self.types[ty as usize] {
            TypeEntry::Class(class) => class,
            other => unreachable!("a class record names a class entry, not {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Pair { tag: i32, next: Pair }` twice, the first pointing at the
    /// second, as a writer client would produce it.
    fn two_pairs() -> Vec<u8> {
        let mut w = Writer::<&str>::default();
        for next in [Some(1), None] {
            let ty = w.intern("Pair", |_, e| {
                class_entry_header(e, "Pair", 2);
                prim_field(e, ElemKind::I32, "tag");
                ref_field(e, "next", true);
            });
            w.begin_record(ty);
            w.payload().extend_from_slice(&7i32.to_le_bytes());
            w.put_ref(next);
        }
        w.finish()
    }

    #[test]
    fn writer_output_parses_back() {
        let bytes = two_pairs();
        let doc = Doc::parse(&bytes).unwrap();
        assert_eq!((doc.types().len(), doc.records().len()), (1, 2));
        let Record::Class { ty, values } = &doc.records()[0] else {
            panic!("class record expected");
        };
        let class = doc.class(*ty);
        assert_eq!((class.name, class.fields.len()), ("Pair", 2));
        let (tag, next) = (&class.fields[0], &class.fields[1]);
        assert_eq!((tag.name, tag.prim), ("tag", Some(ElemKind::I32)));
        assert_eq!(tag.bytes(values), 7i32.to_le_bytes());
        assert_eq!((tag.target(values), next.target(values)), (None, Some(1)));
    }

    #[test]
    fn intern_reserves_the_slot_before_filling() {
        let mut w = Writer::<u8>::default();
        let outer = w.intern(0, |w, e| {
            let inner = w.intern(1, |_, e| prim_array_entry(e, ElemKind::U8));
            obj_array_entry(e, inner);
        });
        assert_eq!((outer, w.intern(1, |_, _| unreachable!())), (0, 1));
    }

    #[test]
    fn split_root_shifts_references_by_one() {
        let mut w = Writer::<u8>::default();
        let elem = w.intern(0, |_, e| class_entry_header(e, "E", 0));
        w.split_root(2, |e| obj_array_entry(e, elem));
        w.put_ref(Some(0));
        w.put_ref(None);
        w.begin_record(elem);
        let bytes = w.finish();
        let doc = Doc::parse(&bytes).unwrap();
        let Record::ObjArray { elems, .. } = &doc.records()[0] else {
            panic!("object-array root expected");
        };
        assert_eq!(elems.iter().collect::<Vec<_>>(), [Some(1), None]);
    }

    #[test]
    fn inflated_counts_are_rejected_before_reserving() {
        // type_count = u32::MAX and nothing else.
        assert!(Doc::parse(&[0xff; 4]).is_err());
        // No types, record_count = u32::MAX.
        assert!(Doc::parse(&[0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff]).is_err());
        // One class claiming 65535 fields.
        let mut b = vec![1, 0, 0, 0];
        class_entry_header(&mut b, "C", u16::MAX);
        assert!(Doc::parse(&b).is_err());
        // A 2^32-1-element array of 8-byte elements in a 20-byte message.
        let mut w = Writer::<u8>::default();
        w.split_root(u32::MAX as usize, |e| prim_array_entry(e, ElemKind::F64));
        assert!(Doc::parse(&w.finish()).is_err());
        // Md dimensions whose product overflows.
        let mut w = Writer::<u8>::default();
        let ty = w.intern(0, |_, e| md_array_entry(e, ElemKind::U8, 3));
        w.begin_record(ty);
        w.payload().push(3);
        (0..3).for_each(|_| w.put_u32(u32::MAX));
        assert!(Doc::parse(&w.finish()).is_err());
    }

    #[test]
    fn indices_out_of_range_are_rejected() {
        let good = two_pairs();
        assert!(Doc::parse(&good).is_ok());
        let n = good.len();
        // The first record's `next` (record 0: type index, tag, next).
        let mut dangling = good.clone();
        dangling[n - 16..n - 12].copy_from_slice(&2u32.to_le_bytes());
        assert!(Doc::parse(&dangling).is_err());
        // The second record's type index.
        let mut bad_type = good.clone();
        bad_type[n - 12..n - 8].copy_from_slice(&9u32.to_le_bytes());
        assert!(Doc::parse(&bad_type).is_err());
        // An object array over a type the table does not have.
        let mut w = Writer::<u8>::default();
        w.split_root(0, |e| obj_array_entry(e, 5));
        assert!(Doc::parse(&w.finish()).is_err());
        // A one-dimensional "multidimensional" array.
        let mut w = Writer::<u8>::default();
        w.intern(0, |_, e| md_array_entry(e, ElemKind::U8, 1));
        w.begin_record(0);
        assert!(Doc::parse(&w.finish()).is_err());
    }

    #[test]
    fn every_truncation_is_rejected() {
        let good = two_pairs();
        for cut in 0..good.len() {
            assert!(Doc::parse(&good[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn bytes_after_the_last_record_are_rejected() {
        let mut bytes = two_pairs();
        bytes.push(0);
        assert!(
            matches!(Doc::parse(&bytes), Err(CoreError::Serialization(why)) if why.contains("after the last record"))
        );
        // A whole second representation behind the first is no better.
        let twice = [two_pairs(), two_pairs()].concat();
        assert!(Doc::parse(&twice).is_err());
    }

    #[test]
    fn a_finished_writer_starts_over_with_nothing_left_behind() {
        let mut w = Writer::<u8>::default();
        // A split part first: an unkeyed root entry and shifted references.
        let elem = w.intern(0, |_, e| class_entry_header(e, "E", 0));
        w.split_root(1, |e| obj_array_entry(e, elem));
        w.put_ref(Some(0));
        w.begin_record(elem);
        let part = w.finish();
        assert_eq!(Doc::parse(&part).unwrap().records().len(), 2);
        // Then a plain representation under the same key, appended to what
        // the caller's buffer holds.
        let ty = w.intern(0, |_, e| prim_array_entry(e, ElemKind::U8));
        w.begin_record(ty);
        w.put_u32(0);
        let mut out = vec![0xAA];
        w.finish_into(&mut out);
        let mut fresh = Writer::<u8>::default();
        let ty = fresh.intern(0, |_, e| prim_array_entry(e, ElemKind::U8));
        fresh.begin_record(ty);
        fresh.put_u32(0);
        assert_eq!(out[1..], fresh.finish());
        assert_eq!(out[0], 0xAA);
    }

    #[test]
    fn a_trimmed_writer_is_sized_for_its_last_representation() {
        let mut w = Writer::<u8>::default();
        let bytes_of = |w: &mut Writer<u8>, types: u8, len: usize| {
            for key in 0..types {
                let ty = w.intern(key, |_, e| prim_array_entry(e, ElemKind::U8));
                w.begin_record(ty);
                w.put_u32(len as u32);
                let end = w.records.len() + len;
                w.payload().resize(end, key);
            }
            w.finish()
        };
        bytes_of(&mut w, 5, 1 << 16);
        assert!(w.records.capacity() >= 5 << 16 && w.types.len() == 5);
        let small = bytes_of(&mut w, 2, 8);
        w.trim();
        assert!(w.records.capacity() <= 2 * 32 && w.types.len() == 2);
        // An abandoned representation is gone after `clear`.
        let ty = w.intern(9, |_, e| prim_array_entry(e, ElemKind::I64));
        w.begin_record(ty);
        w.clear();
        assert_eq!(bytes_of(&mut w, 2, 8), small);
    }
}
