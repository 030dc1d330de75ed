//! The intermediate language: opcodes, functions, modules, assembler.
//!
//! A small stack-machine IL in the spirit of the subset of CIL that
//! scientific kernels use: integer/float arithmetic, locals, structured
//! control flow via relative branches, calls, object allocation and
//! field/array access.

use motor_runtime::{ClassId, ElemKind};

/// Declared static type of a function parameter or return value.
///
/// The typed verifier ([`crate::verify`]) checks every call site and
/// `Ret` against these declarations and seeds argument locals from them.
/// Requests ([`Op::FCall`] with [`FCallId::MpIsend`]/[`FCallId::MpIrecv`])
/// may cross call boundaries only through an explicit [`TyDesc::Req`]
/// declaration: the callee inherits the linearity obligation for a `Req`
/// parameter, and a `Req` return hands the live request back to the
/// caller. Within each function the verifier still enforces that every
/// request is consumed (waited, passed on, or returned) on all paths;
/// the whole-program `motor-analyze` lint proves the obligation is
/// discharged globally (no entry point takes or returns a request, no
/// call cycle hands one around forever).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TyDesc {
    /// 64-bit integer.
    I64,
    /// 64-bit float.
    F64,
    /// Reference to an instance of the class (nullable).
    Ref(ClassId),
    /// One-dimensional primitive array of the element kind (nullable).
    Arr(ElemKind),
    /// One-dimensional object array of the class (nullable).
    ObjArr(ClassId),
    /// An in-flight message-passing request (linear; never nullable).
    Req,
}

/// Message-passing intrinsics callable from IL via [`Op::FCall`].
///
/// These are the paper's `System.MP` / `System.OOMP` entry points surfaced
/// to managed code; the interpreter routes them through a
/// [`crate::interp::FcallHost`] (implemented by `motor-core` over its
/// `Mp`/`Oomp` bindings, each an FCall frame with entry/exit GC polls).
/// Stack conventions (arguments pushed left to right, so the rightmost is
/// on top; `peer` is an integer rank, or `-1` for a wildcard receive
/// source):
///
/// | id         | pops                     | pushes        |
/// |------------|--------------------------|---------------|
/// | `MpSend`   | `buf, dest, tag`         | —             |
/// | `MpRecv`   | `buf, src, tag`          | —             |
/// | `MpIsend`  | `buf, dest, tag`         | request       |
/// | `MpIrecv`  | `buf, src, tag`          | request       |
/// | `MpWait`   | `request`                | —             |
/// | `MpBarrier`| —                        | —             |
/// | `MpBcast`  | `buf, root`              | —             |
/// | `Osend`    | `obj, dest, tag`         | —             |
/// | `Orecv(c)` | `src, tag`               | object of `c` |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FCallId {
    /// Blocking standard-mode send of a whole object (raw `Mp`).
    MpSend,
    /// Blocking receive into a whole object (raw `Mp`).
    MpRecv,
    /// Immediate send; pushes a request that must reach `MpWait`.
    MpIsend,
    /// Immediate receive; pushes a request that must reach `MpWait`.
    MpIrecv,
    /// Complete an immediate operation.
    MpWait,
    /// Barrier across the communicator.
    MpBarrier,
    /// Broadcast a whole object from `root`.
    MpBcast,
    /// Object-tree transport via the serializer (`Oomp::osend`).
    Osend,
    /// Object-tree receive; the deserialized root must be of the declared
    /// class (checked once on arrival).
    Orecv(ClassId),
}

impl FCallId {
    /// Number of stack operands popped.
    pub fn arity(self) -> usize {
        match self {
            FCallId::MpBarrier => 0,
            FCallId::MpWait => 1,
            FCallId::MpBcast | FCallId::Orecv(_) => 2,
            FCallId::MpSend
            | FCallId::MpRecv
            | FCallId::MpIsend
            | FCallId::MpIrecv
            | FCallId::Osend => 3,
        }
    }

    /// Whether a value is pushed on completion.
    pub fn pushes(self) -> bool {
        matches!(
            self,
            FCallId::MpIsend | FCallId::MpIrecv | FCallId::Orecv(_)
        )
    }

    /// Whether this intrinsic transports via the *raw* `Mp` bindings,
    /// whose buffers must be reference-free (paper §4.2.1).
    pub fn is_raw_mp_transport(self) -> bool {
        matches!(
            self,
            FCallId::MpSend
                | FCallId::MpRecv
                | FCallId::MpIsend
                | FCallId::MpIrecv
                | FCallId::MpBcast
        )
    }
}

/// Wildcard receive source for [`FCallId::MpRecv`] / [`FCallId::MpIrecv`]
/// (the managed-level `MPI_ANY_SOURCE`).
pub const FCALL_ANY_SOURCE: i64 = -1;

/// One IL instruction. Branch offsets are relative to the *next*
/// instruction (offset 0 falls through).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    // --- stack / constants ---
    /// Push an integer constant.
    PushI(i64),
    /// Push a float constant.
    PushF(f64),
    /// Push the null reference.
    PushNull,
    /// Duplicate the top of stack.
    Dup,
    /// Discard the top of stack.
    Pop,

    // --- locals (index includes arguments: locals 0..argc are args) ---
    /// Load a local onto the stack.
    Load(u16),
    /// Store the top of stack into a local.
    Store(u16),

    // --- integer arithmetic ---
    /// `a + b` (wrapping).
    Add,
    /// `a - b` (wrapping).
    Sub,
    /// `a * b` (wrapping).
    Mul,
    /// `a / b`; traps on division by zero.
    Div,
    /// `a % b`; traps on division by zero.
    Rem,
    /// Negate.
    Neg,

    // --- float arithmetic ---
    /// Float add.
    FAdd,
    /// Float subtract.
    FSub,
    /// Float multiply.
    FMul,
    /// Float divide.
    FDiv,

    // --- conversions ---
    /// Integer → float.
    I2F,
    /// Float → integer (truncating).
    F2I,

    // --- comparisons (push 1 or 0 as integer) ---
    /// Equal (ints, floats or refs).
    CmpEq,
    /// Strictly less (ints or floats).
    CmpLt,
    /// Less or equal.
    CmpLe,

    // --- control flow (relative to next instruction) ---
    /// Unconditional branch.
    Br(i32),
    /// Branch if the popped integer is non-zero.
    BrTrue(i32),
    /// Branch if the popped integer is zero.
    BrFalse(i32),
    /// Call function `fn_index`; its arguments are popped (last on top),
    /// its return value pushed.
    Call(u16),
    /// Return the top of stack (or nothing for void functions).
    Ret,

    // --- objects ---
    /// Allocate a class instance; push the reference.
    New(ClassId),
    /// Load integer-kind field `f` of the popped object reference.
    LdFldI(u16),
    /// Store int into field: `[obj, value] → []`.
    StFldI(u16),
    /// Load f64 field.
    LdFldF(u16),
    /// Store f64 field.
    StFldF(u16),
    /// Load reference field.
    LdFldR(u16),
    /// Store reference field: `[obj, value] → []`.
    StFldR(u16),

    // --- arrays ---
    /// Allocate a primitive array; length popped from the stack.
    NewArr(ElemKind),
    /// Allocate an object array of the class; length popped.
    NewObjArr(ClassId),
    /// `[arr, idx] → [value]` integer element load (any int kind widens).
    LdElemI,
    /// `[arr, idx, value] → []` integer element store.
    StElemI,
    /// Float element load.
    LdElemF,
    /// Float element store.
    StElemF,
    /// Reference element load.
    LdElemR,
    /// Reference element store.
    StElemR,
    /// `[arr] → [len]`.
    ArrLen,

    // --- message passing ---
    /// Invoke a message-passing intrinsic; see [`FCallId`] for stack
    /// conventions. Executed through the bound
    /// [`crate::interp::FcallHost`].
    FCall(FCallId),
}

/// A function body.
#[derive(Debug, Clone)]
pub struct Function {
    /// Symbolic name.
    pub name: String,
    /// Number of arguments (stored in locals `0..argc`).
    pub argc: u16,
    /// Total locals including arguments.
    pub locals: u16,
    /// Whether the function returns a value.
    pub returns_value: bool,
    /// Declared parameter types, one per argument. The typed verifier
    /// requires `params.len() == argc`; [`FnBuilder`] defaults every
    /// parameter to [`TyDesc::I64`].
    pub params: Vec<TyDesc>,
    /// Declared return type; `Some` iff `returns_value`. Defaults to
    /// [`TyDesc::I64`] for value-returning functions.
    pub ret: Option<TyDesc>,
    /// The instruction stream.
    pub code: Vec<Op>,
}

/// A module: the unit of loading.
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// Functions, addressed by index in `Op::Call`.
    pub functions: Vec<Function>,
}

impl Module {
    /// Create an empty module.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a function; returns its call index.
    pub fn add(&mut self, f: Function) -> u16 {
        self.functions.push(f);
        (self.functions.len() - 1) as u16
    }

    /// Find a function by name.
    pub fn find(&self, name: &str) -> Option<u16> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(|i| i as u16)
    }
}

/// A forward-reference label used by the [`FnBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

/// Assembler for function bodies with labels and automatic branch-offset
/// resolution.
pub struct FnBuilder {
    name: String,
    argc: u16,
    locals: u16,
    returns_value: bool,
    params: Vec<TyDesc>,
    ret: Option<TyDesc>,
    code: Vec<Op>,
    /// label id → bound instruction index.
    labels: Vec<Option<usize>>,
    /// (instruction index, label id) fixups.
    fixups: Vec<(usize, usize)>,
}

impl FnBuilder {
    /// Start a function with `argc` arguments and `locals` total locals
    /// (must be >= argc). Parameters and the return value default to
    /// [`TyDesc::I64`]; declare other types with [`FnBuilder::params`] and
    /// [`FnBuilder::ret_ty`].
    pub fn new(name: &str, argc: u16, locals: u16, returns_value: bool) -> FnBuilder {
        assert!(locals >= argc, "locals include arguments");
        FnBuilder {
            name: name.to_string(),
            argc,
            locals,
            returns_value,
            params: vec![TyDesc::I64; argc as usize],
            ret: returns_value.then_some(TyDesc::I64),
            code: Vec::new(),
            labels: Vec::new(),
            fixups: Vec::new(),
        }
    }

    /// Declare the parameter types (length must equal `argc`).
    pub fn params(&mut self, params: &[TyDesc]) -> &mut Self {
        assert_eq!(params.len(), self.argc as usize, "one type per argument");
        self.params = params.to_vec();
        self
    }

    /// Declare the return type (the function must return a value).
    pub fn ret_ty(&mut self, ty: TyDesc) -> &mut Self {
        assert!(self.returns_value, "void function cannot declare a return");
        self.ret = Some(ty);
        self
    }

    /// Emit an instruction.
    pub fn op(&mut self, op: Op) -> &mut Self {
        self.code.push(op);
        self
    }

    /// Create an unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Bind a label to the current position.
    pub fn bind(&mut self, l: Label) -> &mut Self {
        assert!(self.labels[l.0].is_none(), "label bound twice");
        self.labels[l.0] = Some(self.code.len());
        self
    }

    /// Emit a branch to a label (fixed up at build time).
    pub fn br(&mut self, l: Label) -> &mut Self {
        self.fixups.push((self.code.len(), l.0));
        self.code.push(Op::Br(0));
        self
    }

    /// Emit a conditional branch (taken when non-zero).
    pub fn br_true(&mut self, l: Label) -> &mut Self {
        self.fixups.push((self.code.len(), l.0));
        self.code.push(Op::BrTrue(0));
        self
    }

    /// Emit a conditional branch (taken when zero).
    pub fn br_false(&mut self, l: Label) -> &mut Self {
        self.fixups.push((self.code.len(), l.0));
        self.code.push(Op::BrFalse(0));
        self
    }

    /// Resolve labels and produce the function.
    pub fn build(mut self) -> Function {
        for (at, label) in self.fixups {
            let target = self.labels[label].expect("unbound label");
            let rel = target as i64 - (at as i64 + 1);
            let op = match self.code[at] {
                Op::Br(_) => Op::Br(rel as i32),
                Op::BrTrue(_) => Op::BrTrue(rel as i32),
                Op::BrFalse(_) => Op::BrFalse(rel as i32),
                other => panic!("fixup on non-branch {other:?}"),
            };
            self.code[at] = op;
        }
        Function {
            name: self.name,
            argc: self.argc,
            locals: self.locals,
            returns_value: self.returns_value,
            params: self.params,
            ret: self.ret,
            code: self.code,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_resolves_forward_and_backward_branches() {
        let mut f = FnBuilder::new("loop", 1, 2, true);
        let top = f.label();
        let done = f.label();
        // local1 = 0; while (local0 != 0) { local1 += local0; local0 -= 1 }
        f.op(Op::PushI(0)).op(Op::Store(1));
        f.bind(top);
        f.op(Op::Load(0)).br_false(done);
        f.op(Op::Load(1))
            .op(Op::Load(0))
            .op(Op::Add)
            .op(Op::Store(1));
        f.op(Op::Load(0))
            .op(Op::PushI(1))
            .op(Op::Sub)
            .op(Op::Store(0));
        f.br(top);
        f.bind(done);
        f.op(Op::Load(1)).op(Op::Ret);
        let func = f.build();
        // The backward branch must be negative, the forward positive.
        let backs: Vec<i32> = func
            .code
            .iter()
            .filter_map(|o| match o {
                Op::Br(r) => Some(*r),
                _ => None,
            })
            .collect();
        assert_eq!(backs.len(), 1);
        assert!(backs[0] < 0);
        let fwd: Vec<i32> = func
            .code
            .iter()
            .filter_map(|o| match o {
                Op::BrFalse(r) => Some(*r),
                _ => None,
            })
            .collect();
        assert!(fwd[0] > 0);
    }

    #[test]
    fn module_lookup() {
        let mut m = Module::new();
        let f = FnBuilder::new("f", 0, 0, false).build();
        let idx = m.add(f);
        assert_eq!(m.find("f"), Some(idx));
        assert_eq!(m.find("g"), None);
    }

    #[test]
    #[should_panic(expected = "label bound twice")]
    fn double_bind_rejected() {
        let mut f = FnBuilder::new("x", 0, 0, false);
        let l = f.label();
        f.bind(l);
        f.bind(l);
    }
}
