//! Java object serialization analog (`ObjectOutputStream`).
//!
//! The mpiJava baseline of Figure 10: "the mpiJava `MPI.Object` datatype,
//! which uses the standard Java serialization mechanism to transport
//! objects." Two measured behaviours of that mechanism are reproduced
//! (see DESIGN.md for the substitution argument):
//!
//! * **Recursion**: Java serialization walks the graph recursively; the
//!   paper reports "mpiJava results stop at 1024 objects because longer
//!   linked lists caused a stack overflow exception in the Java
//!   serialization mechanism." This implementation recurses with a
//!   configurable depth budget (default 1024 frames, two frames per
//!   object: `writeObject0` → `defaultWriteFields`) and returns
//!   [`JavaSerError::StackOverflow`] beyond it — which places the failure
//!   just past 1024 transported objects for the Figure 10 linked lists,
//!   where the paper's mpiJava line stops.
//! * **The bump**: "The bump in mpiJava is consistent and might suggest
//!   Java employs different serialization algorithms or data structures to
//!   serialize small or large numbers of objects." Our handle table starts
//!   as a linearly scanned list and rebuilds itself into a hash table when
//!   it crosses a threshold — a one-off rebuild cost at a fixed object
//!   count.
//!
//! Class descriptors (name + per-field JVM type signatures like `[I` and
//! `LLinkedArray;`) are written on first encounter, as the real stream
//! protocol does.

use std::collections::HashMap;
use std::fmt;

use motor_core::{CoreError, CoreResult};
use motor_runtime::object::ObjectRef;
use motor_runtime::{ClassId, ElemKind, FieldType, Handle, MotorThread, TypeKind};

/// Java-serializer failures.
#[derive(Debug)]
pub enum JavaSerError {
    /// The recursive graph walk exceeded its stack budget — the
    /// `java.lang.StackOverflowError` of the paper's Figure 10.
    StackOverflow {
        /// Frames at which the walk aborted.
        depth: usize,
    },
    /// Decoding error.
    Stream(String),
}

impl fmt::Display for JavaSerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JavaSerError::StackOverflow { depth } => {
                write!(
                    f,
                    "java.lang.StackOverflowError at serialization depth {depth}"
                )
            }
            JavaSerError::Stream(s) => write!(f, "stream corrupted: {s}"),
        }
    }
}

impl std::error::Error for JavaSerError {}

/// Threshold at which the handle table rebuilds from a linear list into a
/// hash table (the "bump").
pub const HANDLE_REHASH_THRESHOLD: usize = 256;

/// Default recursion budget (the JVM default thread stack fits roughly
/// this many `writeObject0` frames in the paper's setup).
pub const DEFAULT_STACK_BUDGET: usize = 1024;

const REC_CLASS_DESC: u8 = 0x72; // TC_CLASSDESC
const REC_OBJECT: u8 = 0x73; // TC_OBJECT
const REC_ARRAY: u8 = 0x75; // TC_ARRAY
const REC_REFERENCE: u8 = 0x71; // TC_REFERENCE
const REC_NULL: u8 = 0x70; // TC_NULL

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

/// The handle table with the linear→hash rebuild behaviour.
struct HandleTable {
    linear: Vec<(usize, u32)>,
    hashed: Option<HashMap<usize, u32>>,
    /// Number of rebuilds performed (test/diagnostic).
    rebuilds: usize,
}

impl HandleTable {
    fn new() -> Self {
        HandleTable {
            linear: Vec::new(),
            hashed: None,
            rebuilds: 0,
        }
    }

    fn len(&self) -> usize {
        match &self.hashed {
            Some(m) => m.len(),
            None => self.linear.len(),
        }
    }

    fn get(&self, addr: usize) -> Option<u32> {
        match &self.hashed {
            Some(m) => m.get(&addr).copied(),
            None => self
                .linear
                .iter()
                .find(|&&(a, _)| a == addr)
                .map(|&(_, i)| i),
        }
    }

    fn insert(&mut self, addr: usize) -> u32 {
        let idx = self.len() as u32;
        match &mut self.hashed {
            Some(m) => {
                m.insert(addr, idx);
            }
            None => {
                self.linear.push((addr, idx));
                if self.linear.len() >= HANDLE_REHASH_THRESHOLD {
                    // The bump: a full rebuild pass over every entry.
                    let mut m = HashMap::with_capacity(self.linear.len() * 2);
                    for &(a, i) in &self.linear {
                        m.insert(a, i);
                    }
                    self.hashed = Some(m);
                    self.rebuilds += 1;
                }
            }
        }
        idx
    }
}

/// The Java-style serializer bound to a managed thread.
pub struct JavaSerializer<'t> {
    thread: &'t MotorThread,
    stack_budget: usize,
}

impl<'t> JavaSerializer<'t> {
    /// Create with the default stack budget.
    pub fn new(thread: &'t MotorThread) -> Self {
        JavaSerializer {
            thread,
            stack_budget: DEFAULT_STACK_BUDGET,
        }
    }

    /// Override the recursion budget (tests).
    pub fn with_stack_budget(mut self, frames: usize) -> Self {
        self.stack_budget = frames;
        self
    }

    /// JVM type signature of a field.
    fn signature(reg: &motor_runtime::TypeRegistry, ty: FieldType) -> String {
        match ty {
            FieldType::Prim(k) => match k {
                ElemKind::Bool => "Z".into(),
                ElemKind::U8 | ElemKind::I8 => "B".into(),
                ElemKind::I16 | ElemKind::U16 => "S".into(),
                ElemKind::Char => "C".into(),
                ElemKind::I32 | ElemKind::U32 => "I".into(),
                ElemKind::I64 | ElemKind::U64 => "J".into(),
                ElemKind::F32 => "F".into(),
                ElemKind::F64 => "D".into(),
            },
            FieldType::Ref(c) => format!("L{};", reg.table(c).name),
        }
    }

    /// Serialize the object graph (recursively, with the stack budget).
    pub fn serialize(&self, root: Handle) -> Result<Vec<u8>, JavaSerError> {
        if self.thread.is_null(root) {
            return Err(JavaSerError::Stream("null root".into()));
        }
        let vm = self.thread.vm();
        let reg = vm.registry();
        let addr = self.thread.handle_addr(root);
        let mut out = Vec::new();
        let mut handles = HandleTable::new();
        let mut class_descs: HashMap<u32, u32> = HashMap::new();
        self.write_object(&reg, addr, 0, &mut out, &mut handles, &mut class_descs)?;
        Ok(out)
    }

    /// `writeObject0` — genuinely recursive.
    fn write_object(
        &self,
        reg: &motor_runtime::TypeRegistry,
        addr: usize,
        depth: usize,
        out: &mut Vec<u8>,
        handles: &mut HandleTable,
        class_descs: &mut HashMap<u32, u32>,
    ) -> Result<(), JavaSerError> {
        if depth > self.stack_budget {
            return Err(JavaSerError::StackOverflow { depth });
        }
        if addr == 0 {
            out.push(REC_NULL);
            return Ok(());
        }
        if let Some(idx) = handles.get(addr) {
            out.push(REC_REFERENCE);
            put_u32(out, idx);
            return Ok(());
        }
        handles.insert(addr);
        let obj = ObjectRef(addr);
        // SAFETY: cooperative non-polling context.
        let (mt_id, extra) = unsafe {
            let h = obj.header();
            (h.mt, h.extra as usize)
        };
        let mt = reg.table(ClassId(mt_id));
        match mt.kind.clone() {
            TypeKind::Class => {
                // Class descriptor on first encounter.
                let desc = match class_descs.get(&mt_id) {
                    Some(&d) => d,
                    None => {
                        let d = class_descs.len() as u32;
                        class_descs.insert(mt_id, d);
                        out.push(REC_CLASS_DESC);
                        put_u32(out, d);
                        put_str(out, &mt.name);
                        put_u16(out, mt.fields.len() as u16);
                        for f in &mt.fields {
                            put_str(out, &f.name);
                            put_str(out, &Self::signature(reg, f.ty));
                        }
                        d
                    }
                };
                out.push(REC_OBJECT);
                put_u32(out, desc);
                // Primitive fields first (as defaultWriteFields does):
                // values are fetched reflectively (boxed, one allocation
                // per field — `Field.get` returns `Object`), gathered into
                // the per-object block-data buffer, then flushed to the
                // stream, as `BlockDataOutputStream` does.
                let mut block: Vec<u8> = Vec::with_capacity(32);
                for f in &mt.fields {
                    if let FieldType::Prim(k) = f.ty {
                        // SAFETY: method-table offsets.
                        unsafe {
                            let p = obj.payload_ptr().add(f.offset as usize);
                            let mut boxed = Box::new([0u8; 8]);
                            std::ptr::copy_nonoverlapping(p, boxed.as_mut_ptr(), k.size());
                            std::hint::black_box(boxed.as_ptr());
                            block.extend_from_slice(&boxed[..k.size()]);
                        }
                    }
                }
                out.extend_from_slice(&block);
                for f in &mt.fields {
                    if let FieldType::Ref(_) = f.ty {
                        // SAFETY: as above.
                        let v = unsafe { obj.read_ref_at(f.offset as usize) };
                        // Two frames per nested object, as the JVM's
                        // writeObject0 → defaultWriteFields pair costs.
                        self.write_object(reg, v.0, depth + 2, out, handles, class_descs)?;
                    }
                }
            }
            TypeKind::PrimArray(k) => {
                out.push(REC_ARRAY);
                out.push(0); // prim array
                out.push(k.tag());
                put_u32(out, extra as u32);
                // SAFETY: array data window.
                unsafe {
                    let (p, bytes) = obj.prim_array_data(k.size());
                    out.extend_from_slice(std::slice::from_raw_parts(p, bytes));
                }
            }
            TypeKind::ObjArray(elem) => {
                out.push(REC_ARRAY);
                out.push(1); // object array
                put_str(out, &reg.table(elem).name);
                put_u32(out, extra as u32);
                for i in 0..extra {
                    // SAFETY: i < len.
                    let e = unsafe { *obj.obj_array_slot(i) };
                    self.write_object(reg, e, depth + 2, out, handles, class_descs)?;
                }
            }
            TypeKind::MdArray { .. } => {
                return Err(JavaSerError::Stream(
                    "Java has no true multidimensional arrays".into(),
                ))
            }
        }
        Ok(())
    }

    /// Deserialize a stream produced by [`JavaSerializer::serialize`];
    /// returns the root handle.
    pub fn deserialize(&self, data: &[u8]) -> CoreResult<Handle> {
        let mut d = Decoder {
            thread: self.thread,
            data,
            pos: 0,
            descs: Vec::new(),
            objects: Vec::new(),
            patches: Vec::new(),
        };
        let root = d.read_object()?;
        // Apply reference patches.
        for (src, site, target) in d.patches.drain(..) {
            let th = d.objects[target as usize];
            match site {
                Site::Field(fi) => self.thread.set_ref(d.objects[src], fi, th),
                Site::Element(ei) => self.thread.obj_array_set(d.objects[src], ei, th),
            }
        }
        let root_handle = match root {
            Val::Obj(i) => d.objects[i],
            Val::Null => return Err(CoreError::Serialization("null root".into())),
        };
        for (i, h) in d.objects.iter().enumerate() {
            if Val::Obj(i) != root {
                self.thread.release(*h);
            } else {
                let _ = h;
            }
        }
        Ok(root_handle)
    }
}

#[derive(PartialEq, Clone, Copy)]
enum Val {
    Null,
    Obj(usize),
}

enum Site {
    Field(usize),
    Element(usize),
}

struct Decoder<'a, 't> {
    thread: &'t MotorThread,
    data: &'a [u8],
    pos: usize,
    descs: Vec<(ClassId, Vec<Option<ElemKind>>)>,
    objects: Vec<Handle>,
    patches: Vec<(usize, Site, u32)>,
}

impl Decoder<'_, '_> {
    fn take(&mut self, n: usize) -> CoreResult<&[u8]> {
        if self.pos + n > self.data.len() {
            return Err(CoreError::Serialization("truncated java stream".into()));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> CoreResult<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> CoreResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> CoreResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn string(&mut self) -> CoreResult<String> {
        let n = self.u16()? as usize;
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| CoreError::Serialization("bad utf8".into()))
    }

    /// Recursive `readObject0`.
    fn read_object(&mut self) -> CoreResult<Val> {
        loop {
            match self.u8()? {
                REC_NULL => return Ok(Val::Null),
                REC_REFERENCE => {
                    let idx = self.u32()? as usize;
                    if idx >= self.objects.len() {
                        return Err(CoreError::Serialization("bad back reference".into()));
                    }
                    return Ok(Val::Obj(idx));
                }
                REC_CLASS_DESC => {
                    let _d = self.u32()?;
                    let name = self.string()?;
                    let nf = self.u16()? as usize;
                    let mut fields = Vec::with_capacity(nf);
                    for _ in 0..nf {
                        let _fname = self.string()?;
                        let sig = self.string()?;
                        fields.push(match sig.as_str() {
                            "Z" | "B" => Some(ElemKind::U8),
                            "S" => Some(ElemKind::I16),
                            "C" => Some(ElemKind::Char),
                            "I" => Some(ElemKind::I32),
                            "J" => Some(ElemKind::I64),
                            "F" => Some(ElemKind::F32),
                            "D" => Some(ElemKind::F64),
                            _ => None,
                        });
                    }
                    let class = {
                        let vm = self.thread.vm();
                        let reg = vm.registry();
                        reg.by_name(&name)
                            .ok_or(CoreError::UnknownType(name.clone()))?
                    };
                    // Field-kind fidelity: use the receiver's actual kinds
                    // for primitive widths (signatures collapse sign).
                    let actual: Vec<Option<ElemKind>> = {
                        let vm = self.thread.vm();
                        let reg = vm.registry();
                        let mt = reg.table(class);
                        if mt.fields.len() != nf {
                            return Err(CoreError::Serialization(format!(
                                "class `{name}` shape mismatch"
                            )));
                        }
                        mt.fields
                            .iter()
                            .zip(fields.iter())
                            .map(|(lf, wf)| match (lf.ty, wf) {
                                (FieldType::Prim(k), Some(_)) => Some(k),
                                (FieldType::Ref(_), None) => None,
                                _ => Some(ElemKind::U8), // mismatch caught below
                            })
                            .collect()
                    };
                    self.descs.push((class, actual));
                    // Loop: the next record is the object itself.
                }
                REC_OBJECT => {
                    let desc = self.u32()? as usize;
                    let (class, fields) = self
                        .descs
                        .get(desc)
                        .cloned()
                        .ok_or_else(|| CoreError::Serialization("bad class desc".into()))?;
                    let h = self.thread.alloc_instance(class);
                    let oi = self.objects.len();
                    self.objects.push(h);
                    // Primitive fields (in declaration order), then refs.
                    for (fi, f) in fields.iter().enumerate() {
                        if let Some(k) = f {
                            let raw = self.take(k.size())?.to_vec();
                            write_prim(self.thread, h, fi, *k, &raw);
                        }
                    }
                    for (fi, f) in fields.iter().enumerate() {
                        if f.is_none() {
                            match self.read_object()? {
                                Val::Null => {}
                                Val::Obj(t) => self.patches.push((oi, Site::Field(fi), t as u32)),
                            }
                        }
                    }
                    return Ok(Val::Obj(oi));
                }
                REC_ARRAY => {
                    let is_obj = self.u8()? == 1;
                    if is_obj {
                        let elem_name = self.string()?;
                        let elem = {
                            let vm = self.thread.vm();
                            let reg = vm.registry();
                            reg.by_name(&elem_name)
                                .ok_or(CoreError::UnknownType(elem_name))?
                        };
                        let len = self.u32()? as usize;
                        let h = self.thread.alloc_obj_array(elem, len);
                        let oi = self.objects.len();
                        self.objects.push(h);
                        for ei in 0..len {
                            match self.read_object()? {
                                Val::Null => {}
                                Val::Obj(t) => self.patches.push((oi, Site::Element(ei), t as u32)),
                            }
                        }
                        return Ok(Val::Obj(oi));
                    } else {
                        let k = ElemKind::from_tag(self.u8()?)
                            .ok_or_else(|| CoreError::Serialization("bad tag".into()))?;
                        let len = self.u32()? as usize;
                        let raw = self.take(len * k.size())?.to_vec();
                        let h = self.thread.alloc_prim_array(k, len);
                        let (p, plen) = self.thread.raw_data_window(h);
                        assert_eq!(plen, raw.len());
                        // SAFETY: fresh array, cooperative gap.
                        unsafe { std::ptr::copy_nonoverlapping(raw.as_ptr(), p, raw.len()) };
                        let oi = self.objects.len();
                        self.objects.push(h);
                        return Ok(Val::Obj(oi));
                    }
                }
                other => {
                    return Err(CoreError::Serialization(format!(
                        "bad java record {other:#x}"
                    )))
                }
            }
        }
    }
}

fn write_prim(t: &MotorThread, h: Handle, fi: usize, k: ElemKind, raw: &[u8]) {
    macro_rules! w {
        ($ty:ty) => {
            t.set_prim::<$ty>(h, fi, <$ty>::from_le_bytes(raw.try_into().unwrap()))
        };
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

#[cfg(test)]
mod tests {
    use super::*;
    use motor_runtime::{Vm, VmConfig};
    use std::sync::Arc;

    fn fixture() -> (Arc<Vm>, ClassId) {
        let vm = Vm::new(VmConfig::default());
        let node = {
            let mut reg = vm.registry_mut();
            let arr = reg.prim_array(ElemKind::I32);
            let next_id = ClassId(reg.len() as u32);
            reg.define_class("LinkedArray")
                .prim("tag", ElemKind::I32)
                .transportable("array", arr)
                .transportable("next", next_id)
                .reference("next2", next_id)
                .build()
        };
        (vm, node)
    }

    fn build_list(t: &MotorThread, node: ClassId, n: usize) -> Handle {
        let (ftag, farr, fnext) = (
            t.field_index(node, "tag"),
            t.field_index(node, "array"),
            t.field_index(node, "next"),
        );
        let mut head = t.null_handle();
        for i in (0..n).rev() {
            let h = t.alloc_instance(node);
            t.set_prim::<i32>(h, ftag, i as i32);
            let a = t.alloc_prim_array(ElemKind::I32, 4);
            t.prim_write(a, 0, &[i as i32; 4]);
            t.set_ref(h, farr, a);
            t.set_ref(h, fnext, head);
            t.release(a);
            t.release(head);
            head = h;
        }
        head
    }

    #[test]
    fn roundtrip_short_list() {
        let (vm, node) = fixture();
        let t = MotorThread::attach(Arc::clone(&vm));
        let head = build_list(&t, node, 12);
        let ser = JavaSerializer::new(&t);
        let stream = ser.serialize(head).unwrap();
        let copy = ser.deserialize(&stream).unwrap();
        let (ftag, farr, fnext) = (
            t.field_index(node, "tag"),
            t.field_index(node, "array"),
            t.field_index(node, "next"),
        );
        let mut cur = t.clone_handle(copy);
        for i in 0..12 {
            assert_eq!(t.get_prim::<i32>(cur, ftag), i);
            let a = t.get_ref(cur, farr);
            let mut buf = [0i32; 4];
            t.prim_read(a, 0, &mut buf);
            assert_eq!(buf, [i; 4]);
            t.release(a);
            let nx = t.get_ref(cur, fnext);
            t.release(cur);
            cur = nx;
        }
        assert!(t.is_null(cur));
    }

    #[test]
    fn long_lists_overflow_the_stack() {
        // The paper: "longer linked lists caused a stack overflow
        // exception in the Java serialization mechanism" past 1024 objects.
        let (vm, node) = fixture();
        let t = MotorThread::attach(Arc::clone(&vm));
        let long = build_list(&t, node, 2000);
        let ser = JavaSerializer::new(&t);
        match ser.serialize(long) {
            Err(JavaSerError::StackOverflow { depth }) => {
                assert!(depth > DEFAULT_STACK_BUDGET);
            }
            other => panic!("expected stack overflow, got {:?}", other.map(|v| v.len())),
        }
        // A list under the budget is fine. Each list element contributes
        // two frames (node + its array is sibling-depth, node chain is
        // depth), so 500 nodes stay well below 1024 frames.
        let short = build_list(&t, node, 500);
        assert!(ser.serialize(short).is_ok());
    }

    #[test]
    fn handle_table_rebuild_happens_once_past_threshold() {
        let mut ht = HandleTable::new();
        for a in 0..(HANDLE_REHASH_THRESHOLD + 50) {
            ht.insert(a * 8 + 1);
        }
        assert_eq!(ht.rebuilds, 1, "exactly one rebuild (the bump)");
        assert!(ht.hashed.is_some());
        // Lookups still correct across the rebuild.
        assert_eq!(ht.get(1), Some(0));
        assert_eq!(
            ht.get((HANDLE_REHASH_THRESHOLD + 49) * 8 + 1),
            Some((HANDLE_REHASH_THRESHOLD + 49) as u32)
        );
    }

    #[test]
    fn shared_references_use_backrefs() {
        let (vm, node) = fixture();
        let t = MotorThread::attach(Arc::clone(&vm));
        let (farr, fnext) = (t.field_index(node, "array"), t.field_index(node, "next"));
        let shared = t.alloc_prim_array(ElemKind::I32, 2);
        let a = t.alloc_instance(node);
        let b = t.alloc_instance(node);
        t.set_ref(a, farr, shared);
        t.set_ref(b, farr, shared);
        t.set_ref(a, fnext, b);
        let ser = JavaSerializer::new(&t);
        let stream = ser.serialize(a).unwrap();
        let copy = ser.deserialize(&stream).unwrap();
        let ca = t.get_ref(copy, farr);
        let cb = t.get_ref(copy, fnext);
        let cba = t.get_ref(cb, farr);
        assert!(
            t.same_object(ca, cba),
            "sharing preserved through TC_REFERENCE"
        );
    }

    #[test]
    fn streams_carry_jvm_signatures() {
        let (vm, node) = fixture();
        let t = MotorThread::attach(Arc::clone(&vm));
        let h = t.alloc_instance(node);
        let stream = JavaSerializer::new(&t).serialize(h).unwrap();
        let s = String::from_utf8_lossy(&stream);
        assert!(s.contains("LLinkedArray;"), "reference signature present");
    }
}
