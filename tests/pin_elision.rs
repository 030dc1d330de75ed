//! End-to-end pin-check elision: a module proved by motor-analyze to
//! never transport a class lets the minor collector skip the pinned-set
//! membership check for every young instance of that class, while a
//! plainly-verified module (no escape proof) keeps the conservative
//! path. The counters observable through `GcStatsSnapshot` (and the
//! doctor's Prometheus bridge) make the difference measurable.

use motor::interp::{FnBuilder, Interp, Module, Op, Value, VerifiedModule};
use motor::runtime::heap::HeapConfig;
use motor::runtime::{ClassId, ElemKind, MotorThread, Vm, VmConfig};
use std::sync::Arc;

/// `churn(n)`: allocate and drop `n` instances — enough garbage to
/// drive several minor collections through the tiny young generation.
fn churn_module(cls: ClassId) -> Module {
    let mut f = FnBuilder::new("churn", 1, 2, false);
    let top = f.label();
    let done = f.label();
    f.op(Op::PushI(0)).op(Op::Store(1));
    f.bind(top);
    f.op(Op::Load(1)).op(Op::Load(0)).op(Op::CmpLt);
    f.br_false(done);
    f.op(Op::New(cls)).op(Op::Pop);
    f.op(Op::Load(1))
        .op(Op::PushI(1))
        .op(Op::Add)
        .op(Op::Store(1));
    f.br(top);
    f.bind(done);
    f.op(Op::Ret);
    let mut m = Module::new();
    m.add(f.build());
    m
}

fn small_heap_vm() -> (Arc<Vm>, ClassId) {
    let vm = Vm::new(VmConfig {
        heap: HeapConfig {
            young_bytes: 16 * 1024,
            ..Default::default()
        },
    });
    let cls = vm
        .registry_mut()
        .define_class("Scratch")
        .prim("a", ElemKind::I64)
        .prim("b", ElemKind::F64)
        .build();
    (vm, cls)
}

#[test]
fn analyzed_module_elides_pin_checks() {
    let (vm, cls) = small_heap_vm();
    let verified = {
        let reg = vm.registry();
        motor::analyze::load(churn_module(cls), &reg).expect("module analyzes")
    };
    assert!(
        verified.never_transported().contains(&cls),
        "escape pass proves the scratch class is never transported"
    );
    let t = MotorThread::attach(Arc::clone(&vm));
    let interp = Interp::new(&t, &verified); // installs the proof bits
    interp.call(0, &[Value::I(2_000)]).expect("churn runs");
    let snap = vm.stats_snapshot();
    assert!(
        snap.minor_collections > 0,
        "the tiny young generation must have cycled: {snap:?}"
    );
    assert!(
        snap.pin_checks_elided > 0,
        "proven classes skip pinned-set checks: {snap:?}"
    );
    // What the collector looks at is a function of the allocation
    // sequence alone, so the count is exact: a change to what the proof
    // covers shows up here, not only as a slower `ablation_pins` group
    // (crates/bench/benches/ablation_runtime.rs).
    assert_eq!(snap.pin_checks_elided, 1_536, "{snap:?}");
}

#[test]
fn plainly_verified_module_keeps_conservative_checks() {
    let (vm, cls) = small_heap_vm();
    let verified = {
        let reg = vm.registry();
        VerifiedModule::verify(churn_module(cls), &reg).expect("module verifies")
    };
    assert!(verified.never_transported().is_empty());
    let t = MotorThread::attach(Arc::clone(&vm));
    let interp = Interp::new(&t, &verified);
    interp.call(0, &[Value::I(2_000)]).expect("churn runs");
    let snap = vm.stats_snapshot();
    assert!(snap.minor_collections > 0);
    assert_eq!(
        snap.pin_checks_elided, 0,
        "no proof installed, every object checked: {snap:?}"
    );
}

#[test]
fn raw_transported_class_is_never_claimed() {
    // A module that raw-sends its class must not receive the proof for
    // it, even though it also allocates instances.
    let (vm, _) = small_heap_vm();
    let (sent, reg_snapshot) = {
        let mut reg = vm.registry_mut();
        let sent = reg.define_class("SentBuf").prim("x", ElemKind::F64).build();
        (sent, reg.len())
    };
    let mut f = FnBuilder::new("sender", 0, 0, false);
    f.op(Op::New(sent))
        .op(Op::PushI(0))
        .op(Op::PushI(7))
        .op(Op::FCall(motor::interp::il::FCallId::MpSend))
        .op(Op::Ret);
    let mut m = Module::new();
    m.add(f.build());
    let verified = {
        let reg = vm.registry();
        motor::analyze::load(m, &reg).expect("analyzes")
    };
    assert!(!verified.never_transported().contains(&sent));
    assert!(reg_snapshot > 0);
}
