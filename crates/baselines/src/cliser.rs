//! CLI binary serialization analog (the `BinaryFormatter`).
//!
//! The paper's Figure 10 baseline for the Indiana bindings: "we used the
//! standard CLI binary serialization mechanism to produce a buffer to be
//! transported using the standard MPI routines." The figure also shows
//! "the difference in performance of the .Net and SSCLI serialization
//! mechanisms" — the same formatter is markedly slower on the SSCLI.
//!
//! Behavioural model (see DESIGN.md): both host profiles traverse the
//! *full* object graph (`Serializable` is opt-out, unlike Motor's opt-in
//! `Transportable`), write assembly-qualified type names in class records
//! and member names per class, and produce one flat, atomic blob with no
//! split capability. The profiles differ in reflection cost:
//!
//! * `Sscli`: every field of every *object* is resolved by name through
//!   the metadata (a string-compare scan per field per object).
//! * `Net`: field information is resolved once per *class* and cached.
//!
//! This is a substitution of implementation preserving cost structure;
//! we cannot run the closed-source CLRs themselves.

use std::collections::HashMap;

use motor_core::{CoreError, CoreResult};
use motor_runtime::object::ObjectRef;
use motor_runtime::{ClassId, ElemKind, FieldType, Handle, MotorThread, TypeKind};

use crate::callconv::HostProfile;

const NULL_REF: u32 = u32::MAX;

const REC_CLASS_DEF: u8 = 0;
const REC_OBJECT: u8 = 1;
const REC_PRIM_ARRAY: u8 = 2;
const REC_OBJ_ARRAY: u8 = 3;

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

/// The CLI binary formatter bound to a managed thread and host profile.
pub struct CliFormatter<'t> {
    thread: &'t MotorThread,
    profile: HostProfile,
}

impl<'t> CliFormatter<'t> {
    /// Create a formatter for the given host.
    pub fn new(thread: &'t MotorThread, profile: HostProfile) -> Self {
        CliFormatter { thread, profile }
    }

    /// Assembly-qualified name, as BinaryFormatter records it.
    fn qualified_name(name: &str) -> String {
        format!("{name}, MotorApp, Version=1.0.0.0, Culture=neutral, PublicKeyToken=null")
    }

    /// Serialize the full object graph (all references followed).
    pub fn serialize(&self, root: Handle) -> CoreResult<Vec<u8>> {
        if self.thread.is_null(root) {
            return Err(CoreError::NullBuffer);
        }
        let vm = self.thread.vm();
        let reg = vm.registry();
        let root_addr = self.thread.handle_addr(root);

        let mut out = Vec::new();
        // Object IDs via a hash table (BinaryFormatter's ObjectIDGenerator).
        let mut ids: HashMap<usize, u32> = HashMap::new();
        let mut worklist: Vec<usize> = Vec::new();
        // Class-definition records already emitted.
        let mut class_defs: HashMap<u32, u32> = HashMap::new();
        // The .NET profile's per-class reflection cache.
        let mut field_cache: HashMap<u32, Vec<(u32, FieldType)>> = HashMap::new();

        let assign = |addr: usize, worklist: &mut Vec<usize>, ids: &mut HashMap<usize, u32>| {
            if let Some(&i) = ids.get(&addr) {
                return i;
            }
            let i = ids.len() as u32;
            ids.insert(addr, i);
            worklist.push(addr);
            i
        };
        assign(root_addr, &mut worklist, &mut ids);

        let mut emit = 0usize;
        while emit < worklist.len() {
            let addr = worklist[emit];
            emit += 1;
            let obj = ObjectRef(addr);
            // SAFETY: cooperative non-polling context.
            let (mt_id, extra) = unsafe {
                let h = obj.header();
                (h.mt, h.extra as usize)
            };
            let mt = reg.table(ClassId(mt_id));
            match mt.kind.clone() {
                TypeKind::Class => {
                    // Emit the class-definition record on first sight.
                    let def_id = match class_defs.get(&mt_id) {
                        Some(&d) => d,
                        None => {
                            let d = class_defs.len() as u32;
                            class_defs.insert(mt_id, d);
                            out.push(REC_CLASS_DEF);
                            put_u32(&mut out, d);
                            put_str(&mut out, &Self::qualified_name(&mt.name));
                            put_u16(&mut out, mt.fields.len() as u16);
                            for f in &mt.fields {
                                put_str(&mut out, &f.name);
                                match f.ty {
                                    FieldType::Prim(k) => {
                                        out.push(0);
                                        out.push(k.tag());
                                    }
                                    FieldType::Ref(_) => out.push(1),
                                }
                            }
                            d
                        }
                    };
                    out.push(REC_OBJECT);
                    put_u32(&mut out, def_id);
                    // Member values. Reflection cost differs by host.
                    match self.profile {
                        HostProfile::Net => {
                            let fields = field_cache.entry(mt_id).or_insert_with(|| {
                                mt.fields.iter().map(|f| (f.offset, f.ty)).collect()
                            });
                            for &(off, ty) in fields.iter() {
                                // SAFETY: method-table offsets.
                                unsafe {
                                    emit_field(&mut out, obj, off as usize, ty, |a| {
                                        assign(a, &mut worklist, &mut ids)
                                    });
                                }
                            }
                        }
                        HostProfile::Sscli => {
                            // Per-object, per-field metadata resolution.
                            for f in &mt.fields {
                                let (_, fd) = mt
                                    .field_by_name(&f.name)
                                    .expect("field exists in its own class");
                                // SAFETY: method-table offsets.
                                unsafe {
                                    emit_field(&mut out, obj, fd.offset as usize, fd.ty, |a| {
                                        assign(a, &mut worklist, &mut ids)
                                    });
                                }
                            }
                        }
                    }
                }
                TypeKind::PrimArray(k) => {
                    out.push(REC_PRIM_ARRAY);
                    out.push(k.tag());
                    put_u32(&mut out, extra as u32);
                    // SAFETY: array data window.
                    unsafe {
                        let (p, bytes) = obj.prim_array_data(k.size());
                        out.extend_from_slice(std::slice::from_raw_parts(p, bytes));
                    }
                }
                TypeKind::ObjArray(elem) => {
                    out.push(REC_OBJ_ARRAY);
                    put_str(&mut out, &Self::qualified_name(&reg.table(elem).name));
                    put_u32(&mut out, extra as u32);
                    for i in 0..extra {
                        // SAFETY: i < len.
                        let e = unsafe { *obj.obj_array_slot(i) };
                        if e == 0 {
                            put_u32(&mut out, NULL_REF);
                        } else {
                            put_u32(&mut out, assign(e, &mut worklist, &mut ids));
                        }
                    }
                }
                TypeKind::MdArray { .. } => {
                    return Err(CoreError::Serialization(
                        "BinaryFormatter analog does not support md arrays".into(),
                    ))
                }
            }
        }
        Ok(out)
    }

    /// Deserialize a blob produced by [`CliFormatter::serialize`].
    pub fn deserialize(&self, data: &[u8]) -> CoreResult<Handle> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> CoreResult<&[u8]> {
            if *pos + n > data.len() {
                return Err(CoreError::Serialization("truncated blob".into()));
            }
            let s = &data[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        macro_rules! u8r {
            () => {
                take(&mut pos, 1)?[0]
            };
        }
        macro_rules! u16r {
            () => {
                u16::from_le_bytes(take(&mut pos, 2)?.try_into().unwrap())
            };
        }
        macro_rules! u32r {
            () => {
                u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap())
            };
        }
        macro_rules! strr {
            () => {{
                let n = u16r!() as usize;
                String::from_utf8(take(&mut pos, n)?.to_vec())
                    .map_err(|_| CoreError::Serialization("bad string".into()))?
            }};
        }

        struct ClassDef {
            class: ClassId,
            fields: Vec<Option<ElemKind>>,
        }
        let vm = self.thread.vm();
        let mut defs: Vec<ClassDef> = Vec::new();
        enum Rec<'a> {
            Object {
                def: usize,
                prims: Vec<(usize, &'a [u8])>,
                refs: Vec<(usize, u32)>,
            },
            PrimArray {
                kind: ElemKind,
                data: &'a [u8],
            },
            ObjArray {
                elem: ClassId,
                elems: Vec<u32>,
            },
        }
        let mut recs: Vec<Rec> = Vec::new();
        // The .NET-profile field-store cache.
        let mut store_cache: HashMap<u32, ()> = HashMap::new();

        while pos < data.len() {
            match u8r!() {
                REC_CLASS_DEF => {
                    let _d = u32r!();
                    let qname = strr!();
                    let name = qname.split(',').next().unwrap_or("").to_string();
                    let nf = u16r!() as usize;
                    let mut fields = Vec::with_capacity(nf);
                    for _ in 0..nf {
                        let _fname = strr!();
                        let tag = u8r!();
                        if tag == 0 {
                            let k = ElemKind::from_tag(u8r!())
                                .ok_or_else(|| CoreError::Serialization("bad tag".into()))?;
                            fields.push(Some(k));
                        } else {
                            fields.push(None);
                        }
                    }
                    let class = vm
                        .registry()
                        .by_name(&name)
                        .ok_or(CoreError::UnknownType(name))?;
                    defs.push(ClassDef { class, fields });
                }
                REC_OBJECT => {
                    let def = u32r!() as usize;
                    let d = defs
                        .get(def)
                        .ok_or_else(|| CoreError::Serialization("bad class def".into()))?;
                    let mut prims = Vec::new();
                    let mut refs = Vec::new();
                    for (fi, f) in d.fields.iter().enumerate() {
                        match f {
                            Some(k) => prims.push((fi, take(&mut pos, k.size())?)),
                            None => {
                                let idx = u32r!();
                                if idx != NULL_REF {
                                    refs.push((fi, idx));
                                }
                            }
                        }
                    }
                    recs.push(Rec::Object { def, prims, refs });
                }
                REC_PRIM_ARRAY => {
                    let k = ElemKind::from_tag(u8r!())
                        .ok_or_else(|| CoreError::Serialization("bad tag".into()))?;
                    let len = u32r!() as usize;
                    recs.push(Rec::PrimArray {
                        kind: k,
                        data: take(&mut pos, len * k.size())?,
                    });
                }
                REC_OBJ_ARRAY => {
                    let qname = strr!();
                    let name = qname.split(',').next().unwrap_or("").to_string();
                    let elem = vm
                        .registry()
                        .by_name(&name)
                        .ok_or(CoreError::UnknownType(name))?;
                    let len = u32r!() as usize;
                    let mut elems = Vec::with_capacity(len);
                    for _ in 0..len {
                        elems.push(u32r!());
                    }
                    recs.push(Rec::ObjArray { elem, elems });
                }
                other => return Err(CoreError::Serialization(format!("bad record kind {other}"))),
            }
        }
        if recs.is_empty() {
            return Err(CoreError::Serialization("empty blob".into()));
        }

        // Allocate and fill.
        let mut handles: Vec<Handle> = Vec::with_capacity(recs.len());
        for r in &recs {
            let h = match r {
                Rec::Object { def, prims, .. } => {
                    let d = &defs[*def];
                    let h = self.thread.alloc_instance(d.class);
                    for &(fi, raw) in prims {
                        let k = d.fields[fi].expect("prim field");
                        // Reflection cost on store: the SSCLI profile
                        // resolves the field index by name per store.
                        if self.profile == HostProfile::Sscli {
                            let reg = vm.registry();
                            let mt = reg.table(d.class);
                            let name = mt.fields[fi].name.clone();
                            let _ = mt.field_by_name(&name);
                        } else {
                            store_cache.entry(d.class.0).or_insert(());
                        }
                        write_prim(self.thread, h, fi, k, raw);
                    }
                    h
                }
                Rec::PrimArray { kind, data } => {
                    let h = self
                        .thread
                        .alloc_prim_array(*kind, data.len() / kind.size());
                    let (p, len) = self.thread.raw_data_window(h);
                    assert_eq!(len, data.len());
                    // SAFETY: fresh array; cooperative non-polling gap.
                    unsafe { std::ptr::copy_nonoverlapping(data.as_ptr(), p, data.len()) };
                    h
                }
                Rec::ObjArray { elem, elems } => self.thread.alloc_obj_array(*elem, elems.len()),
            };
            handles.push(h);
        }
        // Patch references.
        for (oi, r) in recs.iter().enumerate() {
            match r {
                Rec::Object { refs, .. } => {
                    for &(fi, idx) in refs {
                        let t = *handles
                            .get(idx as usize)
                            .ok_or_else(|| CoreError::Serialization("bad ref".into()))?;
                        self.thread.set_ref(handles[oi], fi, t);
                    }
                }
                Rec::ObjArray { elems, .. } => {
                    for (ei, &idx) in elems.iter().enumerate() {
                        if idx != NULL_REF {
                            let t = *handles
                                .get(idx as usize)
                                .ok_or_else(|| CoreError::Serialization("bad ref".into()))?;
                            self.thread.obj_array_set(handles[oi], ei, t);
                        }
                    }
                }
                Rec::PrimArray { .. } => {}
            }
        }
        let root = handles[0];
        for h in handles.into_iter().skip(1) {
            self.thread.release(h);
        }
        Ok(root)
    }
}

/// Emit one field value; `assign` interns reference targets.
///
/// Every member value goes through a *boxing* step first — the
/// `FormatterServices.GetObjectData` path returns each field as a boxed
/// `object`, and that per-field heap allocation is a large part of why the
/// real BinaryFormatter was slow. The box is a genuine heap allocation
/// here too.
///
/// # Safety
/// `off`/`ty` must come from the object's method table.
unsafe fn emit_field(
    out: &mut Vec<u8>,
    obj: ObjectRef,
    off: usize,
    ty: FieldType,
    mut assign: impl FnMut(usize) -> u32,
) {
    match ty {
        FieldType::Prim(k) => {
            let p = obj.payload_ptr().add(off);
            // Box the value (GetObjectData returns object[]).
            let mut boxed = Box::new([0u8; 8]);
            std::ptr::copy_nonoverlapping(p, boxed.as_mut_ptr(), k.size());
            std::hint::black_box(boxed.as_ptr());
            out.extend_from_slice(&boxed[..k.size()]);
        }
        FieldType::Ref(_) => {
            let v = obj.read_ref_at(off);
            let boxed = Box::new(v.0);
            std::hint::black_box(boxed.as_ref());
            if *boxed == 0 {
                put_u32(out, NULL_REF);
            } else {
                put_u32(out, assign(*boxed));
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
    fn roundtrip_both_profiles() {
        for profile in [HostProfile::Sscli, HostProfile::Net] {
            let (vm, node) = fixture();
            let t = MotorThread::attach(Arc::clone(&vm));
            let head = build_list(&t, node, 8);
            let f = CliFormatter::new(&t, profile);
            let blob = f.serialize(head).unwrap();
            let copy = f.deserialize(&blob).unwrap();
            let (ftag, fnext) = (t.field_index(node, "tag"), t.field_index(node, "next"));
            let mut cur = t.clone_handle(copy);
            for i in 0..8 {
                assert_eq!(t.get_prim::<i32>(cur, ftag), i, "profile {profile:?}");
                let nx = t.get_ref(cur, fnext);
                t.release(cur);
                cur = nx;
            }
            assert!(t.is_null(cur));
        }
    }

    #[test]
    fn profiles_produce_identical_bytes() {
        // The hosts differ in *speed*, not in format.
        let (vm, node) = fixture();
        let t = MotorThread::attach(Arc::clone(&vm));
        let head = build_list(&t, node, 5);
        let a = CliFormatter::new(&t, HostProfile::Sscli)
            .serialize(head)
            .unwrap();
        let b = CliFormatter::new(&t, HostProfile::Net)
            .serialize(head)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn serializable_is_opt_out_all_refs_followed() {
        // Unlike Motor's Transportable, next2 IS serialized.
        let (vm, node) = fixture();
        let t = MotorThread::attach(Arc::clone(&vm));
        let fnext2 = t.field_index(node, "next2");
        let ftag = t.field_index(node, "tag");
        let a = t.alloc_instance(node);
        let b = t.alloc_instance(node);
        t.set_prim::<i32>(b, ftag, 99);
        t.set_ref(a, fnext2, b);
        let f = CliFormatter::new(&t, HostProfile::Net);
        let blob = f.serialize(a).unwrap();
        let copy = f.deserialize(&blob).unwrap();
        let n2 = t.get_ref(copy, fnext2);
        assert!(!t.is_null(n2), "BinaryFormatter follows all references");
        assert_eq!(t.get_prim::<i32>(n2, ftag), 99);
    }

    #[test]
    fn blob_contains_assembly_qualified_names() {
        let (vm, node) = fixture();
        let t = MotorThread::attach(Arc::clone(&vm));
        let h = t.alloc_instance(node);
        let blob = CliFormatter::new(&t, HostProfile::Net)
            .serialize(h)
            .unwrap();
        let s = String::from_utf8_lossy(&blob);
        assert!(s.contains("LinkedArray, MotorApp, Version=1.0.0.0"));
    }
}
