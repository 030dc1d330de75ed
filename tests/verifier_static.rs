//! Static verification pipeline: negative-case table for the typed
//! verifier, transport-safety rejections from `motor-analyze`, a property
//! test showing accepted modules never hit type-confusion traps, and an
//! end-to-end cluster run where a proved module messages with the dynamic
//! transport checks elided.

use motor::analyze::AnalyzeError;
use motor::interp::il::FCallId;
use motor::interp::{FnBuilder, Interp, Module, Op, TrapKind, TyDesc, Value, VerifyError};
use motor::prelude::*;
use motor::runtime::heap::HeapConfig;
use motor::runtime::{ElemKind, TypeRegistry, Vm, VmConfig};
use proptest::prelude::*;
use std::sync::Arc;

fn module_of(f: motor::interp::il::Function) -> Module {
    let mut m = Module::new();
    m.add(f);
    m
}

fn analyze(m: Module, reg: &TypeRegistry) -> Result<(), AnalyzeError> {
    motor::analyze::load(m, reg).map(|_| ())
}

/// Registry shared by the negative-case table: one mixed-field class, a
/// ref-bearing class, and the array types the bodies allocate.
fn table_registry() -> (TypeRegistry, ClassId, ClassId) {
    let mut reg = TypeRegistry::new();
    let mixed = reg
        .define_class("Mixed")
        .prim("i", ElemKind::I64)
        .prim("f", ElemKind::F64)
        .build();
    let arr = reg.prim_array(ElemKind::I64);
    reg.prim_array(ElemKind::F64);
    let holder = reg
        .define_class("Holder")
        .transportable("data", arr)
        .build();
    reg.obj_array(mixed);
    (reg, mixed, holder)
}

/// One type-confusion case per operand family. Every body would
/// reinterpret bits (or worse) if it ran; the verifier must reject each
/// one with a `TypeError` before it can.
#[test]
fn type_confusion_rejected_per_op_family() {
    let (reg, mixed, _) = table_registry();
    type Body = Box<dyn Fn(&mut FnBuilder)>;
    let cases: Vec<(&str, Body)> = vec![
        (
            "int arith on float",
            Box::new(|f| {
                f.op(Op::PushF(1.5))
                    .op(Op::PushI(2))
                    .op(Op::Add)
                    .op(Op::Pop);
            }),
        ),
        (
            "float arith on int",
            Box::new(|f| {
                f.op(Op::PushI(1)).op(Op::PushI(2)).op(Op::FMul).op(Op::Pop);
            }),
        ),
        (
            "branch on float",
            Box::new(|f| {
                f.op(Op::PushF(0.0)).op(Op::BrTrue(0));
            }),
        ),
        (
            "float store into int field",
            Box::new(move |f| {
                f.op(Op::New(mixed)).op(Op::PushF(3.0)).op(Op::StFldI(0));
            }),
        ),
        (
            "float load from int field",
            Box::new(move |f| {
                f.op(Op::New(mixed)).op(Op::LdFldF(0)).op(Op::Pop);
            }),
        ),
        (
            "ref load from prim field",
            Box::new(move |f| {
                f.op(Op::New(mixed)).op(Op::LdFldR(0)).op(Op::Pop);
            }),
        ),
        (
            "float load from int array",
            Box::new(|f| {
                f.op(Op::PushI(4))
                    .op(Op::NewArr(ElemKind::I64))
                    .op(Op::PushI(0))
                    .op(Op::LdElemF)
                    .op(Op::Pop);
            }),
        ),
        (
            "int store into float array",
            Box::new(|f| {
                f.op(Op::PushI(4))
                    .op(Op::NewArr(ElemKind::F64))
                    .op(Op::PushI(0))
                    .op(Op::PushI(7))
                    .op(Op::StElemI);
            }),
        ),
        (
            "object used as array",
            Box::new(move |f| {
                f.op(Op::New(mixed)).op(Op::ArrLen).op(Op::Pop);
            }),
        ),
        (
            "int used as object",
            Box::new(|f| {
                f.op(Op::PushI(42)).op(Op::LdFldI(0)).op(Op::Pop);
            }),
        ),
    ];
    for (name, body) in cases {
        let mut f = FnBuilder::new("case", 0, 1, false);
        body(&mut f);
        f.op(Op::Ret);
        let err = analyze(module_of(f.build()), &reg)
            .expect_err(&format!("case `{name}` must be rejected"));
        assert!(
            matches!(err, AnalyzeError::Verify(VerifyError::TypeError { .. })),
            "case `{name}` expected a TypeError, got: {err}"
        );
    }
}

#[test]
fn call_with_wrong_argument_type_rejected() {
    let (reg, _, _) = table_registry();
    let mut callee = FnBuilder::new("takes_float", 1, 1, true);
    callee.params(&[TyDesc::F64]).ret_ty(TyDesc::F64);
    callee.op(Op::Load(0)).op(Op::Ret);
    let mut caller = FnBuilder::new("caller", 0, 0, false);
    caller
        .op(Op::PushI(1))
        .op(Op::Call(0))
        .op(Op::Pop)
        .op(Op::Ret);
    let mut m = Module::new();
    m.add(callee.build());
    m.add(caller.build());
    assert!(matches!(
        analyze(m, &reg),
        Err(AnalyzeError::Verify(VerifyError::TypeError { .. }))
    ));
}

#[test]
fn return_type_mismatch_rejected() {
    let (reg, _, _) = table_registry();
    let mut f = FnBuilder::new("lies", 0, 0, true);
    f.op(Op::PushF(1.0)).op(Op::Ret); // declared ret defaults to I64
    assert!(matches!(
        analyze(module_of(f.build()), &reg),
        Err(AnalyzeError::Verify(VerifyError::TypeError { .. }))
    ));
}

#[test]
fn incompatible_merge_rejected() {
    let (reg, mixed, _) = table_registry();
    // One path leaves a reference on the stack, the other an array.
    let mut f = FnBuilder::new("merge", 1, 1, false);
    let other = f.label();
    let join = f.label();
    f.op(Op::Load(0)).br_true(other);
    f.op(Op::New(mixed)).br(join);
    f.bind(other);
    f.op(Op::PushI(4)).op(Op::NewArr(ElemKind::I64));
    f.bind(join);
    f.op(Op::Pop).op(Op::Ret);
    assert!(matches!(
        analyze(module_of(f.build()), &reg),
        Err(AnalyzeError::Verify(VerifyError::MergeConflict { .. }))
    ));
}

#[test]
fn request_leaked_on_one_branch_rejected() {
    let (reg, _, _) = table_registry();
    // irecv, then only one of two paths waits: the request type-state
    // analysis must reject the branchy leak.
    let mut f = FnBuilder::new("leaky", 2, 2, false);
    f.params(&[TyDesc::Arr(ElemKind::I64), TyDesc::I64]);
    let skip = f.label();
    f.op(Op::Load(0))
        .op(Op::PushI(0))
        .op(Op::PushI(9))
        .op(Op::FCall(FCallId::MpIrecv));
    f.op(Op::Load(1)).br_true(skip);
    f.op(Op::FCall(FCallId::MpWait)).op(Op::Ret);
    f.bind(skip);
    f.op(Op::Pop).op(Op::Ret); // tries to discard the live request
    assert!(matches!(
        analyze(module_of(f.build()), &reg),
        Err(AnalyzeError::Verify(VerifyError::RequestLeak { .. }))
    ));
}

#[test]
fn request_cannot_be_waited_twice() {
    let (reg, _, _) = table_registry();
    let mut f = FnBuilder::new("double", 1, 2, false);
    f.params(&[TyDesc::Arr(ElemKind::I64)]);
    f.op(Op::Load(0))
        .op(Op::PushI(0))
        .op(Op::PushI(9))
        .op(Op::FCall(FCallId::MpIrecv))
        .op(Op::Store(1));
    f.op(Op::Load(1)).op(Op::FCall(FCallId::MpWait));
    f.op(Op::Load(1)).op(Op::FCall(FCallId::MpWait)); // moved-out local
    f.op(Op::Ret);
    assert!(matches!(
        analyze(module_of(f.build()), &reg),
        Err(AnalyzeError::Verify(VerifyError::TypeError { .. }))
    ));
}

#[test]
fn ref_bearing_class_refused_raw_transport() {
    let (reg, _, holder) = table_registry();
    let mut f = FnBuilder::new("ships_refs", 0, 0, false);
    f.op(Op::New(holder))
        .op(Op::PushI(1))
        .op(Op::PushI(0))
        .op(Op::FCall(FCallId::MpSend))
        .op(Op::Ret);
    let err = analyze(module_of(f.build()), &reg).unwrap_err();
    assert!(matches!(err, AnalyzeError::Transport { .. }));
    let msg = err.to_string();
    assert!(msg.contains("ships_refs@3"), "wants func@pc, got: {msg}");
    assert!(msg.contains("Holder"), "wants the class name, got: {msg}");
}

#[test]
fn unverified_escape_hatch_still_runs_but_traps_dynamically() {
    // The same confusion the verifier rejects statically is caught by the
    // interpreter's dynamic checks when loaded through the explicit
    // `unverified` hatch — slower, but never silent reinterpretation.
    let vm = Vm::new(VmConfig {
        heap: HeapConfig {
            young_bytes: 64 * 1024,
            ..Default::default()
        },
    });
    let mixed = vm
        .registry_mut()
        .define_class("Mixed")
        .prim("i", ElemKind::I64)
        .prim("f", ElemKind::F64)
        .build();
    let mut f = FnBuilder::new("confused", 0, 0, true);
    f.op(Op::New(mixed)).op(Op::LdFldI(1)).op(Op::Ret); // int load of f64 field
    let m = module_of(f.build());
    assert!(motor::interp::verify_module(&m, &vm.registry()).is_err());
    let t = motor::runtime::MotorThread::attach(Arc::clone(&vm));
    let r = Interp::unverified(&t, &m).call(0, &[]);
    assert!(
        matches!(r, Err(TrapKind::TypeMismatch(_))),
        "unverified path must trap dynamically, got {r:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Soundness, probed: assemble random op soup; whatever the verifier
    /// accepts must execute without any type-confusion trap
    /// (`TypeMismatch`/`StackUnderflow`/`UnknownFunction`). Runtime traps
    /// that depend on values (bounds, div-by-zero, null) are fair game.
    #[test]
    fn accepted_random_modules_never_confuse_types(
        raw in proptest::collection::vec(0u64..1_000_000, 1..40),
    ) {
        let mut f = FnBuilder::new("soup", 1, 4, false);
        f.params(&[TyDesc::Arr(ElemKind::I64)]);
        for (i, r) in raw.iter().enumerate() {
            let op = match r % 17 {
                0 => Op::PushI((r / 17) as i64 % 9),
                1 => Op::PushF((r / 17) as f64),
                2 => Op::Dup,
                3 => Op::Pop,
                4 => Op::Load((r / 17 % 4) as u16),
                5 => Op::Store((r / 17 % 4) as u16),
                6 => Op::Add,
                7 => Op::Mul,
                8 => Op::FAdd,
                9 => Op::I2F,
                10 => Op::F2I,
                11 => Op::CmpLt,
                12 => Op::LdElemI,
                13 => Op::ArrLen,
                14 => Op::NewArr(ElemKind::I64),
                15 => Op::PushNull,
                // Forward-only short branch, clamped inside the body
                // (the trailing Ret is appended below).
                _ => {
                    let remaining = raw.len() - i - 1;
                    Op::BrTrue((r / 17 % (remaining as u64 + 1)) as i32)
                }
            };
            f.op(op);
        }
        f.op(Op::Ret);
        let m = module_of(f.build());
        let vm = Vm::new(VmConfig::default());
        let loaded = motor::analyze::load(m, &vm.registry());
        if let Ok(vmod) = loaded {
            let t = motor::runtime::MotorThread::attach(Arc::clone(&vm));
            let arr = t.alloc_prim_array(ElemKind::I64, 8);
            let r = Interp::new(&t, &vmod).call(0, &[Value::R(arr)]);
            if let Err(trap) = r {
                prop_assert!(
                    !matches!(
                        trap,
                        TrapKind::TypeMismatch(_)
                            | TrapKind::StackUnderflow
                            | TrapKind::UnknownFunction(_)
                    ),
                    "verified module hit a type-confusion trap: {trap}"
                );
            }
        }
    }
}

/// End-to-end: a proved module drives Isend/Wait and Recv through the
/// FCall intrinsics on a two-rank cluster, and the host really elides the
/// per-send transportability walk.
#[test]
fn verified_module_messages_with_checks_elided() {
    let module = {
        let mut send_k = FnBuilder::new("send_k", 2, 2, false);
        send_k.params(&[TyDesc::Arr(ElemKind::I64), TyDesc::I64]);
        send_k
            .op(Op::Load(0))
            .op(Op::Load(1))
            .op(Op::PushI(5))
            .op(Op::FCall(FCallId::MpIsend))
            .op(Op::FCall(FCallId::MpWait))
            .op(Op::Ret);
        let mut recv_k = FnBuilder::new("recv_k", 2, 2, false);
        recv_k.params(&[TyDesc::Arr(ElemKind::I64), TyDesc::I64]);
        recv_k
            .op(Op::Load(0))
            .op(Op::Load(1))
            .op(Op::PushI(5))
            .op(Op::FCall(FCallId::MpRecv))
            .op(Op::Ret);
        let mut m = Module::new();
        m.add(send_k.build());
        m.add(recv_k.build());
        m
    };
    run_cluster_default(
        2,
        |_| {},
        move |proc| {
            let t = proc.thread();
            let vmod = motor::analyze::load(module.clone(), &proc.vm().registry())
                .expect("kernel must verify");
            assert!(vmod.has_transport_proof());
            let host = proc.intrinsics();
            let interp = Interp::new(t, &vmod).with_host(&host);
            let buf = t.alloc_prim_array(ElemKind::I64, 16);
            if proc.mp().rank() == 0 {
                let data: Vec<i64> = (100..116).collect();
                t.prim_write(buf, 0, &data);
                interp.call(0, &[Value::R(buf), Value::I(1)]).unwrap();
            } else {
                interp.call(1, &[Value::R(buf), Value::I(0)]).unwrap();
                let mut got = [0i64; 16];
                t.prim_read(buf, 0, &mut got);
                let expect: Vec<i64> = (100..116).collect();
                assert_eq!(&got[..], &expect[..]);
            }
            assert!(
                host.elided() > 0,
                "proved module must take the trusted transport path"
            );
            assert_eq!(host.outstanding(), 0, "all requests completed");
        },
    )
    .unwrap();
}
