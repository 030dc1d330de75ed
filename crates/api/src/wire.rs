//! Compile-time split-representation wire codec.
//!
//! This module speaks **exactly** the representation produced by the
//! reflective managed serializer (`motor_core::serial`, paper §7.5). The
//! format itself — diagram, writer, validating parser — is
//! `motor_core::wire`, which both share; this module is its second client.
//! Where the managed path walks class metadata per record at run time,
//! here `#[derive(Transportable)]` bakes the traversal into straight-line
//! `write_fields`/`read_fields` bodies over [`Encoder`] and
//! [`FieldReader`].  The derive monomorphizes down to the same byte
//! sequence the reflective path emits — asserted by the byte-identity
//! tests in `crates/api/tests/derive_wire.rs` — so a native rank using
//! this codec interoperates with managed ranks using `Oomp`.
//!
//! Two deliberate semantic restrictions relative to the managed graph
//! walker, both consequences of modelling objects as *owned* Rust values:
//!
//! * **Trees, not DAGs.** Owned `Box`/`Vec` fields cannot alias, so the
//!   encoder never consults a visited structure; each reachable value
//!   becomes its own record, exactly as the managed serializer does for an
//!   unaliased graph.  Decoding a representation in which records *are*
//!   shared materializes one copy per referencing field; cycles are
//!   detected and rejected.
//! * **No managed handles.** The codec reads and writes plain byte
//!   buffers; pinning and GC interactions stay in `motor-core`.

use motor_core::wire::{self as format, ClassEntry, Doc, Field, Record, Writer};
use motor_runtime::ElemKind;

use crate::error::{Error, Result};
use crate::Transportable;

// ---------------------------------------------------------------------------
// primitives
// ---------------------------------------------------------------------------

/// A Rust primitive with a managed `ElemKind` wire identity (`char` —
/// managed UTF-16 code unit — has no safe Rust mirror and is
/// intentionally absent).
pub trait WirePrim: Copy + Default + PartialEq + std::fmt::Debug + 'static {
    /// The managed element kind; its tag and size are the wire's.
    const KIND: ElemKind;
    /// Append the little-endian representation.
    fn write_le(self, out: &mut Vec<u8>);
    /// Read from exactly `KIND.size()` little-endian bytes.
    fn read_le(b: &[u8]) -> Self;
}

macro_rules! wire_prim {
    ($($t:ty => $kind:ident),* $(,)?) => {$(
        impl WirePrim for $t {
            const KIND: ElemKind = ElemKind::$kind;
            fn write_le(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn read_le(b: &[u8]) -> Self {
                <$t>::from_le_bytes(b.try_into().expect("sized read"))
            }
        }
    )*};
}

wire_prim! {
    u8 => U8, i8 => I8, i16 => I16, u16 => U16, i32 => I32,
    u32 => U32, i64 => I64, u64 => U64, f32 => F32, f64 => F64,
}

impl WirePrim for bool {
    const KIND: ElemKind = ElemKind::Bool;
    fn write_le(self, out: &mut Vec<u8>) {
        out.push(self as u8);
    }
    fn read_le(b: &[u8]) -> Self {
        b[0] != 0
    }
}

// -- type-entry builders used by derive-generated `type_entry` bodies ------

pub use format::{class_entry_header, ref_field};

/// Append a primitive field declaration.
pub fn prim_field<P: WirePrim>(out: &mut Vec<u8>, name: &str) {
    format::prim_field(out, P::KIND, name);
}

// ---------------------------------------------------------------------------
// encoding
// ---------------------------------------------------------------------------

/// Identity of a type entry for interning.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TypeKey {
    /// A class, identified by its managed type name.
    Class(&'static str),
    /// A primitive array, identified by its element kind.
    PrimArray(ElemKind),
}

/// One serializable value in the object graph.  Implemented by
/// `#[derive(Transportable)]` for structs and blanket-implemented for
/// `Vec<P>` (primitive array records).  Object-safe: the [`Encoder`] holds
/// the discovery worklist as `&dyn Node`.
pub trait Node {
    /// Stable address of this value for the duration of encoding (used
    /// only for diagnostics; owned values cannot alias).
    fn addr(&self) -> usize;
    /// Interning key for this value's type entry.
    fn type_key(&self) -> TypeKey;
    /// Append the complete type-table entry.
    fn type_entry(&self, out: &mut Vec<u8>);
    /// Append this value's record payload (after the driver has written
    /// the type index), discovering referenced nodes into `enc`.
    fn write_record<'a>(&'a self, enc: &mut Encoder<'a>);
}

impl<P: WirePrim> Node for Vec<P> {
    fn addr(&self) -> usize {
        self.as_ptr() as usize
    }
    fn type_key(&self) -> TypeKey {
        TypeKey::PrimArray(P::KIND)
    }
    fn type_entry(&self, out: &mut Vec<u8>) {
        format::prim_array_entry(out, P::KIND);
    }
    fn write_record<'a>(&'a self, enc: &mut Encoder<'a>) {
        enc.put_prim(self.len() as u32);
        for &v in self {
            enc.put_prim(v);
        }
    }
}

/// Streaming encoder for the split representation.
///
/// Mirrors the managed serializer's walk: breadth-first discovery order,
/// types interned at record-emission time, the synthetic split root (when
/// present) as record 0.
#[derive(Default)]
pub struct Encoder<'a> {
    /// Discovery worklist; a node's position is its discovery index.
    nodes: Vec<&'a dyn Node>,
    w: Writer<TypeKey>,
}

impl<'a> Encoder<'a> {
    /// Write a reference slot, queuing the target's record unless null.
    fn put_node(&mut self, node: Option<&'a dyn Node>) {
        let idx = node.map(|n| {
            self.nodes.push(n);
            (self.nodes.len() - 1) as u32
        });
        self.w.put_ref(idx);
    }

    /// Emit queued records in discovery order (the list grows as record
    /// payloads discover further references — breadth-first, exactly like
    /// the managed emission loop) and append the representation to `out`.
    fn finish(mut self, mut out: Vec<u8>) -> Vec<u8> {
        let mut emitted = 0;
        while emitted < self.nodes.len() {
            let node = self.nodes[emitted];
            emitted += 1;
            let ty = self.w.intern(node.type_key(), |_, e| node.type_entry(e));
            self.w.begin_record(ty);
            node.write_record(&mut self);
        }
        self.w.finish_into(&mut out);
        out
    }

    // -- field writers invoked by derive-generated `write_fields` ----------

    /// Write an inline primitive value.
    pub fn put_prim<P: WirePrim>(&mut self, v: P) {
        v.write_le(self.w.payload());
    }

    /// Write a reference to a primitive array, queuing its record.
    pub fn put_prim_array<P: WirePrim>(&mut self, v: &'a Vec<P>) {
        self.put_node(Some(v));
    }

    /// Write a nullable reference to a primitive array.
    pub fn put_opt_prim_array<P: WirePrim>(&mut self, v: &'a Option<Vec<P>>) {
        self.put_node(v.as_ref().map(|a| a as &dyn Node));
    }

    /// Write a nullable reference to a nested transportable object.
    pub fn put_class_ref<T: Node>(&mut self, v: &'a Option<Box<T>>) {
        self.put_node(v.as_deref().map(|b| b as &dyn Node));
    }

    /// Write the always-null reference of a non-transportable field
    /// ("references are replaced with null", §4.2.2).
    pub fn put_null_ref(&mut self) {
        self.put_node(None);
    }
}

/// Encode one transportable object graph — the byte-for-byte equivalent of
/// `Serializer::serialize` over the mirrored managed class.
pub fn encode<T: Transportable>(root: &T) -> Vec<u8> {
    let mut enc = Encoder::default();
    enc.nodes.push(root);
    enc.finish(Vec::new())
}

/// Encode a slice of transportable objects as a *split representation*:
/// a synthetic object-array root (record 0) over the elements, exactly as
/// `Serializer::serialize_array_range` emits one scatter/gather part.
pub fn encode_slice<T: Transportable>(items: &[T]) -> Vec<u8> {
    encode_slice_into(items, Vec::new())
}

/// [`encode_slice`] appended to `out`, so that parts lie back to back.
pub fn encode_slice_into<T: Transportable>(items: &[T], out: Vec<u8>) -> Vec<u8> {
    let mut enc = Encoder::default();
    // The element class is interned first, as on the managed path.
    let elem_type = enc.w.intern(TypeKey::Class(T::TYPE_NAME), |_, e| {
        <T as Transportable>::type_entry(e)
    });
    enc.w
        .split_root(items.len(), |e| format::obj_array_entry(e, elem_type));
    for it in items {
        enc.put_node(Some(it));
    }
    enc.finish(out)
}

/// Encode a primitive slice as a split-representation part (the form
/// `serialize_array_range` emits when scattering primitive arrays).
pub fn encode_prim_slice<P: WirePrim>(data: &[P]) -> Vec<u8> {
    let mut enc = Encoder::default();
    enc.w
        .split_root(data.len(), |e| format::prim_array_entry(e, P::KIND));
    for &v in data {
        enc.put_prim(v);
    }
    enc.finish(Vec::new())
}

// ---------------------------------------------------------------------------
// decoding
// ---------------------------------------------------------------------------

/// The elements of a primitive-array record, as `P`.
fn prim_vec<P: WirePrim>(rec: &Record<'_>) -> Result<Vec<P>> {
    match rec {
        Record::PrimArray { elem, data, .. } if *elem == P::KIND => {
            Ok(data.chunks_exact(P::KIND.size()).map(P::read_le).collect())
        }
        other => Err(Error::Decode(format!(
            "expected a {:?} array record, found {other:?}",
            P::KIND
        ))),
    }
}

/// How many class records deep one decode may nest. Decoding recurses
/// once per `Option<Box<T>>` level, so without a bound a hostile chain
/// exhausts the stack (Figure 10's mpiJava failure); deeper documents are
/// an [`Error::Decode`]. A debug build spends ~2.6 KiB of stack per level
/// (a three-field class; release far less), so a decode at the bound takes
/// about a third of a default 2 MiB rank-thread stack. Figure 10's
/// 256-object list fits.
pub const MAX_DECODE_DEPTH: usize = 256;

/// Reads one class record's field values in declaration order; handed to
/// derive-generated `read_fields` bodies.
pub struct FieldReader<'d, 'a> {
    doc: &'d Doc<'a>,
    fields: std::slice::Iter<'d, Field<'a>>,
    values: &'a [u8],
    in_progress: &'d mut [bool],
    /// Class records open above this one, this one included.
    depth: usize,
}

impl<'d, 'a> FieldReader<'d, 'a> {
    fn next_field(&mut self) -> Result<&'d Field<'a>> {
        self.fields
            .next()
            .ok_or_else(|| Error::Decode("record has fewer fields than the local type".into()))
    }

    /// Read an inline primitive field.
    pub fn prim<P: WirePrim>(&mut self) -> Result<P> {
        let f = self.next_field()?;
        match f.prim {
            Some(kind) if kind == P::KIND => Ok(P::read_le(f.bytes(self.values))),
            found => Err(Error::Decode(format!(
                "field `{}`: expected {:?}, found {found:?}",
                f.name,
                P::KIND
            ))),
        }
    }

    /// The next field as a reference: the target's record index.
    fn reference(&mut self) -> Result<Option<u32>> {
        let f = self.next_field()?;
        match f.prim {
            None => Ok(f.target(self.values)),
            Some(_) => Err(Error::Decode("expected reference, found primitive".into())),
        }
    }

    /// Read a `Vec<P>` field; a NULL reference (sender had a null or
    /// non-transportable array) decodes as an empty vector.
    pub fn prim_array<P: WirePrim>(&mut self) -> Result<Vec<P>> {
        Ok(self.opt_prim_array()?.unwrap_or_default())
    }

    /// Read an `Option<Vec<P>>` field; NULL decodes as `None`.
    pub fn opt_prim_array<P: WirePrim>(&mut self) -> Result<Option<Vec<P>>> {
        let doc = self.doc;
        self.reference()?
            .map(|idx| prim_vec(&doc.records()[idx as usize]))
            .transpose()
    }

    /// Read an `Option<Box<T>>` field, recursively decoding the nested
    /// class record.
    pub fn class_ref<T: Transportable>(&mut self) -> Result<Option<Box<T>>> {
        self.reference()?
            .map(|idx| read_class::<T>(self.doc, idx, self.in_progress, self.depth).map(Box::new))
            .transpose()
    }

    /// Consume a reference field the local type does not transport; the
    /// wire value (NULL or not) is discarded and the field defaults.
    pub fn null_ref<D: Default>(&mut self) -> Result<D> {
        self.reference()?;
        Ok(D::default())
    }
}

/// Decode record `idx` (in range: `Doc::parse` checked every reference)
/// as a `T`, once the sender's class entry is seen to have `T`'s layout,
/// below `depth` open class records. The Transportable bit is
/// deliberately ignored, matching the managed deserializer's layout
/// verification.
fn read_class<T: Transportable>(
    doc: &Doc<'_>,
    idx: u32,
    in_progress: &mut [bool],
    depth: usize,
) -> Result<T> {
    if depth == MAX_DECODE_DEPTH {
        return Err(Error::Decode(format!(
            "objects nested deeper than {MAX_DECODE_DEPTH} at record {idx}"
        )));
    }
    let Record::Class { ty, values } = &doc.records()[idx as usize] else {
        return Err(Error::Decode(format!(
            "record {idx} is not a class record (expected `{}`)",
            T::TYPE_NAME
        )));
    };
    if std::mem::replace(&mut in_progress[idx as usize], true) {
        return Err(Error::Decode(format!(
            "cyclic object graph at record {idx}: owned Rust values cannot represent cycles"
        )));
    }
    let class = doc.class(*ty);
    let mut local = Vec::new();
    <T as Transportable>::type_entry(&mut local);
    class.check_layout(&ClassEntry::parse(&local)?)?;
    let mut r = FieldReader {
        doc,
        fields: class.fields.iter(),
        values,
        in_progress,
        depth: depth + 1,
    };
    let v = T::read_fields(&mut r)?;
    in_progress[idx as usize] = false;
    Ok(v)
}

/// Decode one object graph rooted at record 0 — the inverse of [`encode`]
/// and of the managed `Serializer::serialize`.
pub fn decode<T: Transportable>(bytes: &[u8]) -> Result<T> {
    let doc = Doc::parse(bytes)?;
    read_class::<T>(&doc, 0, &mut vec![false; doc.records().len()], 0)
}

/// Decode a split representation (synthetic object-array root) into a
/// vector — the inverse of [`encode_slice`].
pub fn decode_vec<T: Transportable>(bytes: &[u8]) -> Result<Vec<T>> {
    let doc = Doc::parse(bytes)?;
    let Record::ObjArray { elems, .. } = &doc.records()[0] else {
        return Err(Error::Decode("expected an object-array root record".into()));
    };
    let mut in_progress = vec![false; doc.records().len()];
    elems
        .iter()
        .map(|e| match e {
            Some(idx) => read_class::<T>(&doc, idx, &mut in_progress, 0),
            None => Err(Error::Decode(
                "null element in object array cannot decode into a by-value Vec".into(),
            )),
        })
        .collect()
}

/// Decode a primitive-array split part — the inverse of
/// [`encode_prim_slice`].
pub fn decode_prim_vec<P: WirePrim>(bytes: &[u8]) -> Result<Vec<P>> {
    prim_vec(&Doc::parse(bytes)?.records()[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    // A hand-written Transportable implementation (what the derive
    // generates), so the codec is testable without the proc macro.
    #[derive(Debug, Default, PartialEq)]
    struct Pair {
        tag: i32,
        data: Vec<f64>,
        next: Option<Box<Pair>>,
    }

    impl Transportable for Pair {
        const TYPE_NAME: &'static str = "Pair";
        fn type_entry(out: &mut Vec<u8>) {
            class_entry_header(out, "Pair", 3);
            prim_field::<i32>(out, "tag");
            ref_field(out, "data", true);
            ref_field(out, "next", true);
        }
        fn write_fields<'a>(&'a self, enc: &mut Encoder<'a>) {
            enc.put_prim(self.tag);
            enc.put_prim_array(&self.data);
            enc.put_class_ref(&self.next);
        }
        fn read_fields(r: &mut FieldReader<'_, '_>) -> Result<Self> {
            Ok(Pair {
                tag: r.prim()?,
                data: r.prim_array()?,
                next: r.class_ref()?,
            })
        }
    }

    impl Node for Pair {
        fn addr(&self) -> usize {
            self as *const Pair as usize
        }
        fn type_key(&self) -> TypeKey {
            TypeKey::Class("Pair")
        }
        fn type_entry(&self, out: &mut Vec<u8>) {
            <Pair as Transportable>::type_entry(out)
        }
        fn write_record<'a>(&'a self, enc: &mut Encoder<'a>) {
            <Pair as Transportable>::write_fields(self, enc)
        }
    }

    fn chain(depth: usize) -> Pair {
        let mut p = Pair {
            tag: depth as i32,
            data: vec![depth as f64; 3],
            next: None,
        };
        for d in (0..depth).rev() {
            p = Pair {
                tag: d as i32,
                data: vec![d as f64; 3],
                next: Some(Box::new(p)),
            };
        }
        p
    }

    #[test]
    fn roundtrip_tree() {
        let root = chain(4);
        let bytes = encode(&root);
        let back: Pair = decode(&bytes).unwrap();
        assert_eq!(back, root);
    }

    #[test]
    fn roundtrip_slice_split_representation() {
        let items: Vec<Pair> = (0..5).map(chain).collect();
        let bytes = encode_slice(&items);
        let back: Vec<Pair> = decode_vec(&bytes).unwrap();
        assert_eq!(back, items);
    }

    #[test]
    fn roundtrip_prim_split_part() {
        let data: Vec<i64> = (0..17).collect();
        let bytes = encode_prim_slice(&data);
        assert_eq!(decode_prim_vec::<i64>(&bytes).unwrap(), data);
        assert!(decode_prim_vec::<i32>(&bytes).is_err());
    }

    #[test]
    fn layout_mismatch_is_rejected() {
        #[derive(Debug, Default)]
        struct Wrong {
            #[allow(dead_code)]
            tag: i64, // wire has i32
        }
        impl Transportable for Wrong {
            const TYPE_NAME: &'static str = "Pair";
            fn type_entry(out: &mut Vec<u8>) {
                class_entry_header(out, "Pair", 1);
                prim_field::<i64>(out, "tag");
            }
            fn write_fields<'a>(&'a self, _enc: &mut Encoder<'a>) {}
            fn read_fields(r: &mut FieldReader<'_, '_>) -> Result<Self> {
                Ok(Wrong { tag: r.prim()? })
            }
        }
        impl Node for Wrong {
            fn addr(&self) -> usize {
                self as *const Wrong as usize
            }
            fn type_key(&self) -> TypeKey {
                TypeKey::Class("Pair")
            }
            fn type_entry(&self, out: &mut Vec<u8>) {
                <Wrong as Transportable>::type_entry(out)
            }
            fn write_record<'a>(&'a self, enc: &mut Encoder<'a>) {
                <Wrong as Transportable>::write_fields(self, enc)
            }
        }
        let bytes = encode(&chain(1));
        assert!(matches!(decode::<Wrong>(&bytes), Err(Error::Decode(_))));
    }

    /// A chain exactly [`MAX_DECODE_DEPTH`] records deep decodes on a
    /// thread with the default 2 MiB stack; one record deeper is a typed
    /// error, not a stack overflow.
    #[test]
    fn nesting_is_bounded_and_the_bound_fits_a_default_stack() {
        let at_bound = encode(&chain(MAX_DECODE_DEPTH - 1));
        let past = encode(&chain(MAX_DECODE_DEPTH));
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let back: Pair = decode(&at_bound).unwrap();
                // Unlink before dropping: `Drop` of a boxed chain recurses.
                let mut next = back.next;
                while let Some(mut p) = next {
                    next = p.next.take();
                }
                let err = decode::<Pair>(&past).unwrap_err();
                assert!(err.to_string().contains("nested deeper than 256"), "{err}");
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn truncated_bytes_are_rejected() {
        let bytes = encode(&chain(2));
        for cut in [0, 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode::<Pair>(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Length-field inflation: a type_count of u32::MAX, and a
        // record_count of u32::MAX behind an empty and behind a valid type
        // table (six records: the first u32 equal to 6 is their count).
        // Every entry point answers with a typed error, not a reservation.
        let at = bytes.windows(4).position(|w| w == 6u32.to_le_bytes());
        let mut inflated = bytes.clone();
        inflated[at.unwrap()..][..4].fill(0xff);
        for hostile in [
            &[0xff; 4][..],
            &[0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff],
            &inflated,
        ] {
            assert!(matches!(decode::<Pair>(hostile), Err(Error::Decode(_))));
            assert!(matches!(decode_vec::<Pair>(hostile), Err(Error::Decode(_))));
            assert!(matches!(
                decode_prim_vec::<i64>(hostile),
                Err(Error::Decode(_))
            ));
        }
    }
}
