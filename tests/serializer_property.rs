//! Property-based tests: the Motor serializer over random object graphs,
//! the split representation, GC content preservation under random
//! mutation schedules, and the one wire parser under hostile mutation of
//! what both encoders produce.

use std::sync::{Arc, OnceLock};

use motor::api::{wire, Transportable};
use motor::core::wire::{Doc, Record, TypeEntry, Writer};
use motor::core::{Serializer, VisitedStrategy};
use motor::runtime::heap::HeapConfig;
use motor::runtime::{ClassId, ElemKind, FieldType, Handle, MotorThread, TypeKind, Vm, VmConfig};
use proptest::prelude::*;

/// A random graph over one node class: per node a tag, an optional data
/// array length, and edges (by node index) for the transportable `next`
/// and non-transportable `side` fields. Indices may form sharing and
/// cycles.
#[derive(Debug, Clone)]
struct GraphSpec {
    nodes: Vec<NodeSpec>,
    root: usize,
}

#[derive(Debug, Clone)]
struct NodeSpec {
    tag: i32,
    array_len: Option<usize>,
    next: Option<usize>,
    side: Option<usize>,
}

fn graph_strategy() -> impl Strategy<Value = GraphSpec> {
    (1usize..24).prop_flat_map(|n| {
        let node = (
            any::<i32>(),
            proptest::option::of(0usize..16),
            proptest::option::of(0usize..n),
            proptest::option::of(0usize..n),
        )
            .prop_map(|(tag, array_len, next, side)| NodeSpec {
                tag,
                array_len,
                next,
                side,
            });
        (proptest::collection::vec(node, n..=n), 0usize..n)
            .prop_map(|(nodes, root)| GraphSpec { nodes, root })
    })
}

fn fresh_vm() -> (Arc<Vm>, ClassId) {
    let vm = Vm::new(VmConfig {
        heap: HeapConfig {
            young_bytes: 32 * 1024,
            ..Default::default()
        },
    });
    let node = {
        let mut reg = vm.registry_mut();
        let arr = reg.prim_array(ElemKind::I32);
        let next_id = ClassId(reg.len() as u32);
        reg.define_class("PNode")
            .prim("tag", ElemKind::I32)
            .transportable("array", arr)
            .transportable("next", next_id)
            .reference("side", next_id)
            .build()
    };
    (vm, node)
}

fn build_graph(t: &MotorThread, node: ClassId, spec: &GraphSpec) -> Handle {
    let (ftag, farr, fnext, fside) = (
        t.field_index(node, "tag"),
        t.field_index(node, "array"),
        t.field_index(node, "next"),
        t.field_index(node, "side"),
    );
    let handles: Vec<Handle> = spec.nodes.iter().map(|_| t.alloc_instance(node)).collect();
    for (i, ns) in spec.nodes.iter().enumerate() {
        t.set_prim::<i32>(handles[i], ftag, ns.tag);
        if let Some(len) = ns.array_len {
            let a = t.alloc_prim_array(ElemKind::I32, len);
            let data: Vec<i32> = (0..len).map(|j| ns.tag.wrapping_add(j as i32)).collect();
            t.prim_write(a, 0, &data);
            t.set_ref(handles[i], farr, a);
            t.release(a);
        }
        if let Some(n) = ns.next {
            t.set_ref(handles[i], fnext, handles[n]);
        }
        if let Some(s) = ns.side {
            t.set_ref(handles[i], fside, handles[s]);
        }
    }
    let root = t.clone_handle(handles[spec.root]);
    for h in handles {
        t.release(h);
    }
    root
}

/// Canonical signature of the *transportable* reachable graph: node tags
/// and array contents in DFS order, with back-references encoded by first
/// visit index (captures sharing and cycles).
fn signature(t: &MotorThread, node: ClassId, root: Handle) -> Vec<i64> {
    let (ftag, farr, fnext) = (
        t.field_index(node, "tag"),
        t.field_index(node, "array"),
        t.field_index(node, "next"),
    );
    let mut sig = Vec::new();
    let mut stack = vec![t.clone_handle(root)];
    let mut visited: Vec<Handle> = Vec::new();
    while let Some(h) = stack.pop() {
        if t.is_null(h) {
            sig.push(-1);
            t.release(h);
            continue;
        }
        if let Some(idx) = visited.iter().position(|&v| t.same_object(v, h)) {
            sig.push(-1000 - idx as i64);
            t.release(h);
            continue;
        }
        sig.push(t.get_prim::<i32>(h, ftag) as i64);
        let arr = t.get_ref(h, farr);
        if t.is_null(arr) {
            sig.push(-2);
        } else {
            let len = t.array_len(arr);
            sig.push(len as i64);
            let mut data = vec![0i32; len];
            t.prim_read(arr, 0, &mut data);
            sig.extend(data.iter().map(|&v| v as i64));
        }
        t.release(arr);
        stack.push(t.get_ref(h, fnext));
        visited.push(h);
    }
    for v in visited {
        t.release(v);
    }
    sig
}

/// Reference slots, in the graph under `root`, that hold an object of
/// another class than the slot declares: a field its `FieldType::Ref`, an
/// object-array element the array's element class.
fn ill_typed_slots(t: &MotorThread, root: Handle) -> usize {
    let mut ill = 0;
    let mut seen: Vec<Handle> = Vec::new();
    let mut stack = vec![t.clone_handle(root)];
    while let Some(h) = stack.pop() {
        if t.is_null(h) || seen.iter().any(|&v| t.same_object(v, h)) {
            t.release(h);
            continue;
        }
        seen.push(h);
        let reg = t.vm().registry();
        let table = reg.table(t.class_of(h)).clone();
        drop(reg);
        let mut holds = |slot: Handle, declared: ClassId| {
            ill += (!t.is_null(slot) && t.class_of(slot) != declared) as usize;
            stack.push(slot);
        };
        match table.kind {
            TypeKind::Class => {
                for (fi, f) in table.fields.iter().enumerate() {
                    if let FieldType::Ref(declared) = f.ty {
                        holds(t.get_ref(h, fi), declared);
                    }
                }
            }
            TypeKind::ObjArray(elem) => {
                for i in 0..t.array_len(h) {
                    holds(t.obj_array_get(h, i), elem);
                }
            }
            TypeKind::PrimArray(_) | TypeKind::MdArray { .. } => {}
        }
    }
    for h in seen {
        t.release(h);
    }
    ill
}

/// Rust mirror of `PNode` for the derive codec.
#[derive(Transportable, Debug, Default, Clone, PartialEq)]
struct PNode {
    tag: i32,
    #[transportable]
    array: Option<Vec<i32>>,
    #[transportable]
    next: Option<Box<PNode>>,
    side: Option<Box<PNode>>,
}

/// The `next` chain of `spec` from its root as an owned value, cut where
/// it would revisit a node (owned values cannot alias).
fn owned_chain(spec: &GraphSpec) -> PNode {
    let mut path = vec![spec.root];
    while let Some(n) = spec.nodes[*path.last().unwrap()].next {
        if path.contains(&n) {
            break;
        }
        path.push(n);
    }
    let mut next = None;
    for &i in path.iter().rev() {
        let ns = &spec.nodes[i];
        next = Some(Box::new(PNode {
            tag: ns.tag,
            array: ns.array_len.map(|len| vec![ns.tag; len]),
            next,
            side: None,
        }));
    }
    *next.unwrap()
}

/// Where the `u32` slots of a valid encoding sit, by role — read off the
/// parsed `Doc`, whose records lie back to back at the end of the buffer.
#[derive(Default)]
struct Slots {
    /// type_count, record_count, array lengths, md dimensions.
    counts: Vec<usize>,
    /// Every record's type index and every object array's element type.
    type_indices: Vec<usize>,
    /// Reference fields and object-array elements.
    refs: Vec<usize>,
    types: u32,
    records: u32,
}

fn slots(bytes: &[u8]) -> Slots {
    let doc = Doc::parse(bytes).expect("the encoders emit valid representations");
    let size = |r: &Record<'_>| {
        4 + match r {
            Record::Class { values, .. } => values.len(),
            Record::PrimArray { data, .. } => 4 + data.len(),
            Record::ObjArray { elems, .. } => 4 + 4 * elems.iter().len(),
            Record::MdArray { rank, body, .. } => 1 + 4 * *rank as usize + body.data(*rank).len(),
        }
    };
    let mut at = bytes.len() - doc.records().iter().map(size).sum::<usize>();
    let mut s = Slots {
        counts: vec![0, at - 4],
        types: doc.types().len() as u32,
        records: doc.records().len() as u32,
        ..Slots::default()
    };
    // An object-array entry is its kind byte and the element type index;
    // in these encodings the 5 bytes before the record count are one
    // whenever the last entry is the synthetic root's.
    if let Some(TypeEntry::ObjArray(_)) = doc.types().last() {
        s.type_indices.push(at - 8);
    }
    for r in doc.records() {
        s.type_indices.push(at);
        match r {
            Record::Class { ty, .. } => {
                let mut field_at = at + 4;
                for f in &doc.class(*ty).fields {
                    if f.prim.is_none() {
                        s.refs.push(field_at);
                    }
                    field_at += f.prim.map_or(4, ElemKind::size);
                }
            }
            Record::PrimArray { .. } => s.counts.push(at + 4),
            Record::ObjArray { elems, .. } => {
                s.counts.push(at + 4);
                s.refs
                    .extend((0..elems.iter().len()).map(|i| at + 8 + 4 * i));
            }
            Record::MdArray { rank, .. } => {
                s.counts.extend((0..*rank as usize).map(|i| at + 5 + 4 * i));
            }
        }
        at += size(r);
    }
    s
}

/// One structure-aware mutation of `valid`: (0) truncation, (1)
/// length-field inflation, (2) type-index corruption, (3) reference
/// retargeting — to any record, which is how cycles, sharing and
/// references into the wrong kind of record get injected — and (4) bytes
/// after the last record.
fn mutate(valid: &[u8], s: &Slots, (kind, pick, value): (u8, u32, u32)) -> Vec<u8> {
    let (slots, new) = match kind {
        0 => return valid[..pick as usize % valid.len()].to_vec(),
        4 => {
            let tail = value.to_le_bytes();
            return [valid, &tail[..1 + pick as usize % 4]].concat();
        }
        1 => (
            &s.counts,
            [u32::MAX, value, value % 64, 1 << 31][pick as usize % 4],
        ),
        2 => (&s.type_indices, value % (s.types + 2)),
        _ => (&s.refs, value % (s.records + 1)),
    };
    let mut out = valid.to_vec();
    if !slots.is_empty() {
        let at = slots[pick as usize % slots.len()];
        out[at..at + 4].copy_from_slice(&new.to_le_bytes());
    }
    out
}

/// A list of `objects / 2` nodes, each with its own one-element array
/// (`objects` = 1 is a lone node): the shape of Figure 10.
fn list_spec(objects: usize) -> GraphSpec {
    let n = objects.div_ceil(2);
    let node = |i: usize| NodeSpec {
        tag: i as i32,
        array_len: (objects > 1).then_some(1),
        next: (i + 1 < n).then_some(i + 1),
        side: None,
    };
    GraphSpec {
        nodes: (0..n).map(node).collect(),
        root: 0,
    }
}

#[test]
fn the_default_table_agrees_with_the_linear_list_and_probes_in_constant_time() {
    let (vm, node) = fresh_vm();
    let t = MotorThread::attach(vm);
    let scratch = Default::default();
    for objects in [1usize, 2, 256, 8192] {
        let head = build_graph(&t, node, &list_spec(objects));
        let linear = Serializer::new(&t).with_strategy(VisitedStrategy::Linear);
        let (want, by_list) = linear.serialize(head).unwrap();
        assert_eq!(by_list.objects, objects);
        // On its own, where the table grows from its smallest size, and
        // with the scratch a rank keeps, where it starts at the last one.
        let kept = Serializer::new(&t).with_scratch(&scratch);
        for (ser, how) in [(Serializer::new(&t), "fresh"), (kept, "kept")] {
            let (bytes, by_table) = ser.serialize(head).unwrap();
            assert_eq!(bytes, want, "{objects} objects, {how} scratch");
            assert!(
                by_table.visited_probes <= 2 * objects as u64,
                "{objects} objects, {how} scratch: {} probes",
                by_table.visited_probes
            );
        }
        if objects > 2 {
            assert!(by_list.visited_probes > 20 * 2 * objects as u64);
        }
        t.release(head);
    }
}

/// A valid `PNode` chain twenty thousand records deep, written record
/// by record: `wire::encode` recurses once per level, so it cannot build
/// one this deep. Built once: it is the same hostile document in every
/// case.
fn deep_chain_doc() -> &'static [u8] {
    const DEPTH: u32 = 20_000;
    static DOC: OnceLock<Vec<u8>> = OnceLock::new();
    DOC.get_or_init(|| {
        let mut w = Writer::default();
        for i in 0..DEPTH {
            let ty = w.intern("PNode", |_, e| <PNode as Transportable>::type_entry(e));
            w.begin_record(ty);
            w.payload().extend_from_slice(&(i as i32).to_le_bytes());
            w.put_ref(None);
            w.put_ref((i + 1 < DEPTH).then_some(i + 1));
            w.put_ref(None);
        }
        w.finish()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hostile_mutations_yield_typed_errors_and_bounded_docs(
        spec in graph_strategy(),
        muts in proptest::collection::vec((0u8..5, any::<u32>(), any::<u32>()), 24..48),
    ) {
        let (vm, node) = fresh_vm();
        let t = MotorThread::attach(Arc::clone(&vm));
        let ser = Serializer::new(&t);
        // Valid encodings from both encoders, whole and split.
        let root = build_graph(&t, node, &spec);
        let arr = t.alloc_obj_array(node, 3);
        t.obj_array_set(arr, 0, root);
        t.obj_array_set(arr, 2, root);
        let chain = owned_chain(&spec);
        let valid = [
            ser.serialize(root).unwrap().0,
            ser.serialize_array_range(arr, 0, 3).unwrap().0,
            wire::encode(&chain),
            wire::encode_slice(&[chain.clone(), chain.clone()]),
            wire::encode_prim_slice(&[chain.tag; 5]),
        ]
        .map(|bytes| (slots(&bytes), bytes));
        // Well-formed but deeper than a stack: a typed error, not an abort.
        match wire::decode::<PNode>(deep_chain_doc()) {
            Err(motor::api::Error::Decode(why)) => prop_assert!(why.contains("nested deeper"), "{why}"),
            other => prop_assert!(false, "a 20 000-deep chain decoded to {:?}", other.map(|_| ())),
        }
        for (i, m) in muts.into_iter().enumerate() {
            let (slots, valid) = &valid[i % valid.len()];
            let bytes = mutate(valid, slots, m);
            if m.0 == 4 {
                prop_assert!(Doc::parse(&bytes).is_err(), "parsed past the last record");
            }
            // Whatever the bytes, every entry point returns: `Ok`, or an
            // error of its declared type. None panics, aborts or reserves
            // beyond the input.
            match Doc::parse(&bytes) {
                Ok(doc) => {
                    let fields = doc.types().iter().map(|ty| match ty {
                        TypeEntry::Class(c) => c.fields.len(),
                        _ => 0,
                    });
                    let entries = doc.types().len() + fields.sum::<usize>() + doc.records().len();
                    prop_assert!(entries <= bytes.len(), "{entries} entries from {} bytes", bytes.len());
                }
                Err(_) => {
                    prop_assert!(ser.deserialize(&bytes).is_err(), "materialized unparsable bytes");
                    prop_assert!(wire::decode::<PNode>(&bytes).is_err());
                }
            }
            // Retargeted references are written as raw addresses: what
            // does materialize holds, in every slot, what the slot declares.
            if let Ok(h) = ser.deserialize(&bytes) {
                let confused = ill_typed_slots(&t, h);
                prop_assert_eq!(confused, 0, "type-confused graph from {:?}", m);
                t.release(h);
            }
            let _ = wire::decode::<PNode>(&bytes);
            let _ = wire::decode_vec::<PNode>(&bytes);
            let _ = wire::decode_prim_vec::<i32>(&bytes);
        }
        // Retargeted references built cycles and odd sharing on the heap;
        // the collector must still be able to walk and reclaim it.
        t.collect_full();
        motor::runtime::verify_heap(&t).map_err(|e| {
            proptest::test_runner::TestCaseError::fail(format!("heap invariant: {e}"))
        })?;
    }

    #[test]
    fn roundtrip_preserves_transportable_graph(spec in graph_strategy()) {
        let (vm, node) = fresh_vm();
        let t = MotorThread::attach(vm);
        let root = build_graph(&t, node, &spec);
        let before = signature(&t, node, root);
        for strategy in [VisitedStrategy::Linear, VisitedStrategy::Hashed] {
            let ser = Serializer::new(&t).with_strategy(strategy);
            let (bytes, _) = ser.serialize(root).unwrap();
            let copy = ser.deserialize(&bytes).unwrap();
            let after = signature(&t, node, copy);
            prop_assert_eq!(&before, &after, "strategy {:?}", strategy);
            // Non-transportable `side` must always arrive null.
            let fside = t.field_index(node, "side");
            let side = t.get_ref(copy, fside);
            prop_assert!(t.is_null(side));
            t.release(side);
            t.release(copy);
        }
    }

    #[test]
    fn strategies_agree_byte_for_byte(spec in graph_strategy()) {
        let (vm, node) = fresh_vm();
        let t = MotorThread::attach(vm);
        let root = build_graph(&t, node, &spec);
        let (a, _) = Serializer::new(&t).with_strategy(VisitedStrategy::Linear)
            .serialize(root).unwrap();
        let (b, _) = Serializer::new(&t).with_strategy(VisitedStrategy::Hashed)
            .serialize(root).unwrap();
        prop_assert_eq!(a, b, "visited structure must not affect the wire format");
    }

    #[test]
    fn materialized_graphs_survive_collections_byte_for_byte(spec in graph_strategy()) {
        let (vm, node) = fresh_vm();
        let t = MotorThread::attach(Arc::clone(&vm));
        let ser = Serializer::new(&t);
        let root = build_graph(&t, node, &spec);
        // The graph whole, in an object array with a null slot and a shared
        // element, and as split parts of that array.
        let arr = t.alloc_obj_array(node, 3);
        t.obj_array_set(arr, 0, root);
        t.obj_array_set(arr, 2, root);
        let cases = [
            (ser.serialize(root).unwrap().0, false),
            (ser.serialize(arr).unwrap().0, false),
            (ser.serialize_array_range(arr, 0, 3).unwrap().0, true),
            (ser.serialize_array_range(arr, 1, 2).unwrap().0, true),
        ];
        for (bytes, split) in cases {
            // A part's root is a whole array on the receiving side.
            let again = |h: Handle| match split {
                true => ser.serialize_array_range(h, 0, t.array_len(h)).unwrap().0,
                false => ser.serialize(h).unwrap().0,
            };
            let live = t.live_handles();
            let copy = ser.deserialize(&bytes).unwrap();
            prop_assert_eq!(t.live_handles(), live + 1, "one handle: the root's");
            prop_assert_eq!(&again(copy), &bytes, "before any collection");
            t.collect_minor();
            prop_assert_eq!(&again(copy), &bytes, "after a minor collection");
            t.collect_full();
            prop_assert_eq!(&again(copy), &bytes, "after a full collection");
            motor::runtime::verify_heap(&t).map_err(|e| {
                proptest::test_runner::TestCaseError::fail(format!("heap invariant: {e}"))
            })?;
            prop_assert_eq!(ill_typed_slots(&t, copy), 0);
            t.release(copy);
        }
    }

    #[test]
    fn roundtrip_survives_gc_between_phases(spec in graph_strategy()) {
        let (vm, node) = fresh_vm();
        let t = MotorThread::attach(Arc::clone(&vm));
        let root = build_graph(&t, node, &spec);
        let before = signature(&t, node, root);
        let ser = Serializer::new(&t);
        let (bytes, _) = ser.serialize(root).unwrap();
        // Collections between serialize and deserialize (and during
        // deserialize, via the small young generation) must not corrupt
        // anything.
        t.collect_minor();
        t.collect_full();
        let copy = ser.deserialize(&bytes).unwrap();
        let after = signature(&t, node, copy);
        prop_assert_eq!(before, after);
    }

    #[test]
    fn split_parts_reassemble_to_the_whole(
        lens in proptest::collection::vec(0usize..8, 2..20),
        parts in 1usize..5,
    ) {
        let (vm, node) = fresh_vm();
        let t = MotorThread::attach(vm);
        let ftag = t.field_index(node, "tag");
        // An object array of nodes with distinct tags.
        let arr = t.alloc_obj_array(node, lens.len());
        for (i, &_l) in lens.iter().enumerate() {
            let e = t.alloc_instance(node);
            t.set_prim::<i32>(e, ftag, i as i32);
            t.obj_array_set(arr, i, e);
            t.release(e);
        }
        let ser = Serializer::new(&t);
        // Split into `parts` ranges (uneven tail allowed), deserialize each
        // part independently, and check the concatenation.
        let n = lens.len();
        let per = n.div_ceil(parts);
        let mut seen = 0usize;
        let mut off = 0;
        while off < n {
            let count = per.min(n - off);
            let (bytes, _) = ser.serialize_array_range(arr, off, count).unwrap();
            let sub = ser.deserialize(&bytes).unwrap();
            prop_assert_eq!(t.array_len(sub), count);
            for j in 0..count {
                let e = t.obj_array_get(sub, j);
                prop_assert_eq!(t.get_prim::<i32>(e, ftag) as usize, off + j);
                seen += 1;
                t.release(e);
            }
            t.release(sub);
            off += count;
        }
        prop_assert_eq!(seen, n);
    }

    #[test]
    fn gc_preserves_reachable_contents_under_random_schedules(
        ops in proptest::collection::vec((0u8..4, 0usize..8, any::<i32>()), 1..60),
    ) {
        // A model-based GC test: mirror every mutation in a Rust-side
        // model, interleave collections, and compare at the end.
        let (vm, node) = fresh_vm();
        let t = MotorThread::attach(Arc::clone(&vm));
        let ftag = t.field_index(node, "tag");
        let mut live: Vec<(Handle, i32)> = Vec::new();
        for (op, idx, val) in ops {
            match op {
                // Allocate a node.
                0 => {
                    let h = t.alloc_instance(node);
                    t.set_prim::<i32>(h, ftag, val);
                    live.push((h, val));
                }
                // Drop one (becomes garbage).
                1 if !live.is_empty() => {
                    let (h, _) = live.swap_remove(idx % live.len());
                    t.release(h);
                }
                // Mutate one.
                2 if !live.is_empty() => {
                    let i = idx % live.len();
                    t.set_prim::<i32>(live[i].0, ftag, val);
                    live[i].1 = val;
                }
                // Collect (minor or full).
                3 => {
                    if val % 2 == 0 {
                        t.collect_minor();
                    } else {
                        t.collect_full();
                    }
                }
                _ => {}
            }
        }
        t.collect_full();
        for (h, expect) in &live {
            prop_assert_eq!(t.get_prim::<i32>(*h, ftag), *expect);
        }
        // Full structural audit: headers, flags, ref slots, handle roots.
        motor::runtime::verify_heap(&t).map_err(|e| {
            proptest::test_runner::TestCaseError::fail(format!("heap invariant: {e}"))
        })?;
    }

    #[test]
    fn heap_verifies_after_graph_builds_and_collections(spec in graph_strategy()) {
        let (vm, node) = fresh_vm();
        let t = MotorThread::attach(Arc::clone(&vm));
        let root = build_graph(&t, node, &spec);
        motor::runtime::verify_heap(&t).map_err(|e| {
            proptest::test_runner::TestCaseError::fail(format!("pre-GC: {e}"))
        })?;
        t.collect_minor();
        motor::runtime::verify_heap(&t).map_err(|e| {
            proptest::test_runner::TestCaseError::fail(format!("post-minor: {e}"))
        })?;
        t.collect_full();
        motor::runtime::verify_heap(&t).map_err(|e| {
            proptest::test_runner::TestCaseError::fail(format!("post-full: {e}"))
        })?;
        t.release(root);
        t.collect_full();
        motor::runtime::verify_heap(&t).map_err(|e| {
            proptest::test_runner::TestCaseError::fail(format!("post-release: {e}"))
        })?;
    }
}
