//! The dispatch loop.
//!
//! Safepoint discipline: the interpreter polls the collector on every
//! function call and on every *backward* branch (the classic JIT poll
//! placement — any loop must cross one), plus every 256 straight-line
//! instructions as a backstop. Reference values are [`Handle`]s rooted in
//! the VM handle table; each frame releases the handles it created when it
//! returns, transferring only the return value.

use motor_runtime::{ElemKind, Handle, MotorThread};

use crate::il::{FCallId, Function, Module, Op};
use crate::verify::{FuncMeta, VerifiedModule};

/// Straight-line instruction budget between forced polls.
const POLL_INTERVAL: u32 = 256;

/// Instructions between opcode-mix samples (`profile` feature). Prime and
/// unrelated to [`POLL_INTERVAL`] — the poll countdown resets on every
/// back edge, so a tight loop would never reach a poll-based sample; this
/// countdown never resets early, and the prime stride keeps it from
/// phase-locking onto loop bodies of a round length. Sized so the
/// sample-path work (two relaxed stores) amortizes to well under 1% of
/// the dispatch cost; the `ablation_profile` group of the bench crate's
/// `ablation_runtime` bench measures the total profiler overhead.
#[cfg(feature = "profile")]
const SAMPLE_INTERVAL: u32 = 251;

/// A value on the evaluation stack or in a local slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// 64-bit integer.
    I(i64),
    /// 64-bit float.
    F(f64),
    /// Object reference (a rooted handle) or null.
    R(Handle),
    /// The null reference.
    Null,
    /// An in-flight message-passing request: an index into the bound
    /// [`FcallHost`]'s request table. Created by `MpIsend`/`MpIrecv`,
    /// consumed by `MpWait`; the verifier guarantees it never escapes the
    /// function that created it.
    Req(u32),
}

impl Value {
    fn as_i(self) -> Result<i64, TrapKind> {
        match self {
            Value::I(v) => Ok(v),
            _ => Err(TrapKind::TypeMismatch("expected int")),
        }
    }
    fn as_f(self) -> Result<f64, TrapKind> {
        match self {
            Value::F(v) => Ok(v),
            _ => Err(TrapKind::TypeMismatch("expected float")),
        }
    }
}

/// Runtime traps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrapKind {
    /// Integer division by zero.
    DivideByZero,
    /// Null dereference.
    NullReference,
    /// Array index out of range.
    IndexOutOfRange,
    /// Stack/locals type confusion (would be caught by the verifier).
    TypeMismatch(&'static str),
    /// Call of an unknown function index.
    UnknownFunction(u16),
    /// Evaluation stack underflow.
    StackUnderflow,
    /// A message-passing intrinsic failed (no host bound, bad arguments,
    /// transport refused, or a communicator error).
    Fcall(&'static str),
}

impl std::fmt::Display for TrapKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrapKind::DivideByZero => write!(f, "divide by zero"),
            TrapKind::NullReference => write!(f, "null reference"),
            TrapKind::IndexOutOfRange => write!(f, "index out of range"),
            TrapKind::TypeMismatch(m) => write!(f, "type mismatch: {m}"),
            TrapKind::UnknownFunction(i) => write!(f, "unknown function {i}"),
            TrapKind::StackUnderflow => write!(f, "stack underflow"),
            TrapKind::Fcall(m) => write!(f, "fcall: {m}"),
        }
    }
}

/// Host for the message-passing intrinsics ([`Op::FCall`]).
///
/// Implemented by `motor-core` over its `Mp`/`Oomp` bindings; each call
/// runs as an FCall frame with entry/exit GC polls (paper §5.1). The
/// interpreter owns the operand handles (frame arena); the host only
/// borrows them for the duration of the call.
pub trait FcallHost {
    /// Execute intrinsic `id`. `args` holds the popped operands in push
    /// order (e.g. `[buf, peer, tag]` for the transport ops). `trusted`
    /// carries the module's transport proof: when set, the host may elide
    /// its per-call transportability walk because the `motor-analyze`
    /// pass already vouched for every buffer reaching this site.
    fn fcall(&self, id: FCallId, args: &[Value], trusted: bool) -> Result<Option<Value>, TrapKind>;
}

/// The interpreter bound to a managed thread and module.
///
/// The normal entry point is [`Interp::new`] over a [`VerifiedModule`]:
/// the typed verifier's side tables let the hot loop skip the registry
/// lock and dynamic kind checks on every field/element access, and the
/// transport-proof bit is forwarded to the [`FcallHost`].
/// [`Interp::unverified`] is the explicit escape hatch for code that has
/// not been through the verifier; it keeps every dynamic check.
pub struct Interp<'t, 'm> {
    thread: &'t MotorThread,
    module: &'m Module,
    /// Per-function verifier side tables, parallel to `module.functions`
    /// (`None` for unverified modules).
    meta: Option<&'m [FuncMeta]>,
    /// Bound message-passing host for `Op::FCall`.
    host: Option<&'m dyn FcallHost>,
    /// The module's transport proof (granted by `motor-analyze`).
    trusted: bool,
    /// IL hotness table fed by the dispatch loop (None = hooks dormant).
    #[cfg(feature = "profile")]
    prof: Option<std::sync::Arc<motor_obs::IlHot>>,
}

/// One activation frame's handle arena: handles minted during the call,
/// released wholesale on return.
struct Arena {
    minted: Vec<Handle>,
}

impl Arena {
    fn new() -> Self {
        Arena { minted: Vec::new() }
    }
    fn track(&mut self, h: Handle) -> Handle {
        self.minted.push(h);
        h
    }
    fn release_all(self, t: &MotorThread, keep: Option<Handle>) {
        for h in self.minted {
            if Some(h) != keep {
                t.release(h);
            }
        }
    }
}

impl<'t, 'm> Interp<'t, 'm> {
    /// Create an interpreter over a verified module (the default path).
    ///
    /// If the module carries never-transported escape proofs (set by the
    /// motor-analyze pipeline; plain [`VerifiedModule::verify`] leaves
    /// them empty), they are installed into the thread's VM here so the
    /// minor collector can elide pinned-set checks for proven classes.
    pub fn new(thread: &'t MotorThread, verified: &'m VerifiedModule) -> Self {
        let proven = verified.never_transported();
        if !proven.is_empty() {
            thread.vm().install_never_transported(proven);
        }
        Interp {
            thread,
            module: verified.module(),
            meta: Some(verified.meta()),
            host: None,
            trusted: verified.has_transport_proof(),
            #[cfg(feature = "profile")]
            prof: None,
        }
    }

    /// Escape hatch: interpret a module that has *not* been through the
    /// typed verifier. Every dynamic type check stays on, and message
    /// transports are never trusted.
    pub fn unverified(thread: &'t MotorThread, module: &'m Module) -> Self {
        Interp {
            thread,
            module,
            meta: None,
            host: None,
            trusted: false,
            #[cfg(feature = "profile")]
            prof: None,
        }
    }

    /// Bind the message-passing host used by `Op::FCall`.
    pub fn with_host(mut self, host: &'m dyn FcallHost) -> Self {
        self.host = Some(host);
        self
    }

    /// Attach an IL hotness table: the dispatch loop then counts every
    /// invocation and loop back edge, samples the opcode mix every
    /// [`SAMPLE_INTERVAL`] instructions, and keeps the sampler-visible
    /// current-function/pc and shadow stack up to date. The table should
    /// be built with one name per module function (same indexing as
    /// `Op::Call`) and [`crate::il::PROFILE_NAMES`] for the opcodes.
    #[cfg(feature = "profile")]
    pub fn with_profiler(mut self, prof: std::sync::Arc<motor_obs::IlHot>) -> Self {
        self.prof = Some(prof);
        self
    }

    /// Call function `idx` with `args`. Returns its value (or `None` for
    /// void functions).
    pub fn call(&self, idx: u16, args: &[Value]) -> Result<Option<Value>, TrapKind> {
        self.thread.poll(); // call-site safepoint
        let f: &Function = self
            .module
            .functions
            .get(idx as usize)
            .ok_or(TrapKind::UnknownFunction(idx))?;
        let meta = self.meta.map(|m| &m[idx as usize]);
        assert_eq!(
            args.len(),
            f.argc as usize,
            "arity mismatch calling {}",
            f.name
        );
        let mut locals: Vec<Value> = Vec::with_capacity(f.locals as usize);
        locals.extend_from_slice(args);
        locals.resize(f.locals as usize, Value::I(0));
        let mut stack: Vec<Value> = Vec::with_capacity(16);
        let mut arena = Arena::new();
        #[cfg(feature = "profile")]
        if let Some(p) = &self.prof {
            p.on_call(idx as u32);
        }
        let result = self.run(f, meta, idx, &mut locals, &mut stack, &mut arena);
        #[cfg(feature = "profile")]
        if let Some(p) = &self.prof {
            p.on_return();
        }
        match result {
            Ok(ret) => {
                // Transfer the return handle out of the arena by cloning.
                let transferred = match ret {
                    Some(Value::R(h)) => {
                        let c = self.thread.clone_handle(h);
                        arena.release_all(self.thread, None);
                        Some(Value::R(c))
                    }
                    other => {
                        arena.release_all(self.thread, None);
                        other
                    }
                };
                Ok(transferred)
            }
            Err(t) => {
                arena.release_all(self.thread, None);
                Err(t)
            }
        }
    }

    fn run(
        &self,
        f: &Function,
        meta: Option<&FuncMeta>,
        fidx: u16,
        locals: &mut [Value],
        stack: &mut Vec<Value>,
        arena: &mut Arena,
    ) -> Result<Option<Value>, TrapKind> {
        #[cfg(not(feature = "profile"))]
        let _ = fidx;
        let code = &f.code;
        let mut pc: usize = 0;
        let mut since_poll: u32 = 0;
        #[cfg(feature = "profile")]
        let mut since_sample: u32 = SAMPLE_INTERVAL;
        // Hoisted once: keeps the per-op profiler check a register test
        // instead of a field reload inside the dispatch loop.
        #[cfg(feature = "profile")]
        let prof = self.prof.as_deref();
        macro_rules! pop {
            () => {
                stack.pop().ok_or(TrapKind::StackUnderflow)?
            };
        }
        // Statically resolved field/element kind for the instruction at
        // `pc` (verified modules only): replaces the registry lock +
        // dynamic kind check on the access fast path.
        macro_rules! hint {
            ($pc:expr) => {
                meta.and_then(|m| m.kinds[$pc])
            };
        }
        while pc < code.len() {
            let op = code[pc];
            let op_pc = pc;
            pc += 1;
            since_poll += 1;
            if since_poll >= POLL_INTERVAL {
                since_poll = 0;
                self.thread.poll();
            }
            #[cfg(feature = "profile")]
            if let Some(p) = prof {
                since_sample -= 1;
                if since_sample == 0 {
                    since_sample = SAMPLE_INTERVAL;
                    p.sample_op(op.profile_index(), fidx as u32, op_pc as u32);
                }
            }
            match op {
                Op::PushI(v) => stack.push(Value::I(v)),
                Op::PushF(v) => stack.push(Value::F(v)),
                Op::PushNull => stack.push(Value::Null),
                Op::Dup => {
                    let v = *stack.last().ok_or(TrapKind::StackUnderflow)?;
                    // Handles are plain slots; duplicating the Value is
                    // fine — the arena owns the slot once.
                    stack.push(v);
                }
                Op::Pop => {
                    pop!();
                }
                Op::Load(i) => stack.push(locals[i as usize]),
                Op::Store(i) => locals[i as usize] = pop!(),
                Op::Add => {
                    let b = pop!().as_i()?;
                    let a = pop!().as_i()?;
                    stack.push(Value::I(a.wrapping_add(b)));
                }
                Op::Sub => {
                    let b = pop!().as_i()?;
                    let a = pop!().as_i()?;
                    stack.push(Value::I(a.wrapping_sub(b)));
                }
                Op::Mul => {
                    let b = pop!().as_i()?;
                    let a = pop!().as_i()?;
                    stack.push(Value::I(a.wrapping_mul(b)));
                }
                Op::Div => {
                    let b = pop!().as_i()?;
                    let a = pop!().as_i()?;
                    if b == 0 {
                        return Err(TrapKind::DivideByZero);
                    }
                    stack.push(Value::I(a.wrapping_div(b)));
                }
                Op::Rem => {
                    let b = pop!().as_i()?;
                    let a = pop!().as_i()?;
                    if b == 0 {
                        return Err(TrapKind::DivideByZero);
                    }
                    stack.push(Value::I(a.wrapping_rem(b)));
                }
                Op::Neg => {
                    let a = pop!().as_i()?;
                    stack.push(Value::I(a.wrapping_neg()));
                }
                Op::FAdd => {
                    let b = pop!().as_f()?;
                    let a = pop!().as_f()?;
                    stack.push(Value::F(a + b));
                }
                Op::FSub => {
                    let b = pop!().as_f()?;
                    let a = pop!().as_f()?;
                    stack.push(Value::F(a - b));
                }
                Op::FMul => {
                    let b = pop!().as_f()?;
                    let a = pop!().as_f()?;
                    stack.push(Value::F(a * b));
                }
                Op::FDiv => {
                    let b = pop!().as_f()?;
                    let a = pop!().as_f()?;
                    stack.push(Value::F(a / b));
                }
                Op::I2F => {
                    let a = pop!().as_i()?;
                    stack.push(Value::F(a as f64));
                }
                Op::F2I => {
                    let a = pop!().as_f()?;
                    stack.push(Value::I(a as i64));
                }
                Op::CmpEq => {
                    let b = pop!();
                    let a = pop!();
                    let eq = match (a, b) {
                        (Value::I(x), Value::I(y)) => x == y,
                        (Value::F(x), Value::F(y)) => x == y,
                        (Value::Null, Value::Null) => true,
                        (Value::R(x), Value::R(y)) => self.thread.same_object(x, y),
                        (Value::R(h), Value::Null) | (Value::Null, Value::R(h)) => {
                            self.thread.is_null(h)
                        }
                        _ => return Err(TrapKind::TypeMismatch("CmpEq operands")),
                    };
                    stack.push(Value::I(eq as i64));
                }
                Op::CmpLt => {
                    let b = pop!();
                    let a = pop!();
                    let lt = match (a, b) {
                        (Value::I(x), Value::I(y)) => x < y,
                        (Value::F(x), Value::F(y)) => x < y,
                        _ => return Err(TrapKind::TypeMismatch("CmpLt operands")),
                    };
                    stack.push(Value::I(lt as i64));
                }
                Op::CmpLe => {
                    let b = pop!();
                    let a = pop!();
                    let le = match (a, b) {
                        (Value::I(x), Value::I(y)) => x <= y,
                        (Value::F(x), Value::F(y)) => x <= y,
                        _ => return Err(TrapKind::TypeMismatch("CmpLe operands")),
                    };
                    stack.push(Value::I(le as i64));
                }
                Op::Br(rel) => {
                    if rel < 0 {
                        // Backward-branch safepoint (the JIT poll).
                        self.thread.poll();
                        since_poll = 0;
                        #[cfg(feature = "profile")]
                        if let Some(p) = prof {
                            p.on_backedge(fidx as u32, op_pc as u32);
                        }
                    }
                    pc = (pc as i64 + rel as i64) as usize;
                }
                Op::BrTrue(rel) => {
                    let c = pop!().as_i()?;
                    if c != 0 {
                        if rel < 0 {
                            self.thread.poll();
                            since_poll = 0;
                            #[cfg(feature = "profile")]
                            if let Some(p) = prof {
                                p.on_backedge(fidx as u32, op_pc as u32);
                            }
                        }
                        pc = (pc as i64 + rel as i64) as usize;
                    }
                }
                Op::BrFalse(rel) => {
                    let c = pop!().as_i()?;
                    if c == 0 {
                        if rel < 0 {
                            self.thread.poll();
                            since_poll = 0;
                            #[cfg(feature = "profile")]
                            if let Some(p) = prof {
                                p.on_backedge(fidx as u32, op_pc as u32);
                            }
                        }
                        pc = (pc as i64 + rel as i64) as usize;
                    }
                }
                Op::Call(fi) => {
                    let callee = self
                        .module
                        .functions
                        .get(fi as usize)
                        .ok_or(TrapKind::UnknownFunction(fi))?;
                    let n = callee.argc as usize;
                    if stack.len() < n {
                        return Err(TrapKind::StackUnderflow);
                    }
                    let args: Vec<Value> = stack.split_off(stack.len() - n);
                    let ret = self.call(fi, &args)?;
                    if let Some(v) = ret {
                        // Re-own any returned handle in this frame's arena.
                        if let Value::R(h) = v {
                            arena.track(h);
                        }
                        if callee.returns_value {
                            stack.push(v);
                        }
                    }
                }
                Op::Ret => {
                    return Ok(if f.returns_value { Some(pop!()) } else { None });
                }
                Op::New(class) => {
                    let h = arena.track(self.thread.alloc_instance(class));
                    stack.push(Value::R(h));
                }
                Op::LdFldI(fi) => {
                    let h = self.ref_val(pop!())?;
                    stack.push(Value::I(self.load_int_field(
                        h,
                        fi as usize,
                        hint!(op_pc),
                    )?));
                }
                Op::StFldI(fi) => {
                    let v = pop!().as_i()?;
                    let h = self.ref_val(pop!())?;
                    self.store_int_field(h, fi as usize, v, hint!(op_pc))?;
                }
                Op::LdFldF(fi) => {
                    let h = self.ref_val(pop!())?;
                    if hint!(op_pc).is_none() {
                        self.check_f64_field(h, fi as usize)?;
                    }
                    stack.push(Value::F(self.thread.get_prim::<f64>(h, fi as usize)));
                }
                Op::StFldF(fi) => {
                    let v = pop!().as_f()?;
                    let h = self.ref_val(pop!())?;
                    if hint!(op_pc).is_none() {
                        self.check_f64_field(h, fi as usize)?;
                    }
                    self.thread.set_prim::<f64>(h, fi as usize, v);
                }
                Op::LdFldR(fi) => {
                    let h = self.ref_val(pop!())?;
                    let v = arena.track(self.thread.get_ref(h, fi as usize));
                    if self.thread.is_null(v) {
                        stack.push(Value::Null);
                    } else {
                        stack.push(Value::R(v));
                    }
                }
                Op::StFldR(fi) => {
                    let v = pop!();
                    let h = self.ref_val(pop!())?;
                    match v {
                        Value::R(r) => self.thread.set_ref(h, fi as usize, r),
                        Value::Null => {
                            let null = arena.track(self.thread.null_handle());
                            self.thread.set_ref(h, fi as usize, null);
                        }
                        _ => return Err(TrapKind::TypeMismatch("StFldR value")),
                    }
                }
                Op::NewArr(kind) => {
                    let len = pop!().as_i()?;
                    if len < 0 {
                        return Err(TrapKind::IndexOutOfRange);
                    }
                    let h = arena.track(self.thread.alloc_prim_array(kind, len as usize));
                    stack.push(Value::R(h));
                }
                Op::NewObjArr(class) => {
                    let len = pop!().as_i()?;
                    if len < 0 {
                        return Err(TrapKind::IndexOutOfRange);
                    }
                    let h = arena.track(self.thread.alloc_obj_array(class, len as usize));
                    stack.push(Value::R(h));
                }
                Op::LdElemI => {
                    let idx = pop!().as_i()?;
                    let h = self.ref_val(pop!())?;
                    stack.push(Value::I(self.load_int_elem(h, idx, hint!(op_pc))?));
                }
                Op::StElemI => {
                    let v = pop!().as_i()?;
                    let idx = pop!().as_i()?;
                    let h = self.ref_val(pop!())?;
                    self.store_int_elem(h, idx, v, hint!(op_pc))?;
                }
                Op::LdElemF => {
                    let idx = pop!().as_i()?;
                    let h = self.ref_val(pop!())?;
                    self.bounds(h, idx)?;
                    if hint!(op_pc).is_none() {
                        self.check_f64_elem(h)?;
                    }
                    let mut out = [0f64];
                    self.thread.prim_read(h, idx as usize, &mut out);
                    stack.push(Value::F(out[0]));
                }
                Op::StElemF => {
                    let v = pop!().as_f()?;
                    let idx = pop!().as_i()?;
                    let h = self.ref_val(pop!())?;
                    self.bounds(h, idx)?;
                    if hint!(op_pc).is_none() {
                        self.check_f64_elem(h)?;
                    }
                    self.thread.prim_write(h, idx as usize, &[v]);
                }
                Op::LdElemR => {
                    let idx = pop!().as_i()?;
                    let h = self.ref_val(pop!())?;
                    self.bounds(h, idx)?;
                    let v = arena.track(self.thread.obj_array_get(h, idx as usize));
                    if self.thread.is_null(v) {
                        stack.push(Value::Null);
                    } else {
                        stack.push(Value::R(v));
                    }
                }
                Op::StElemR => {
                    let v = pop!();
                    let idx = pop!().as_i()?;
                    let h = self.ref_val(pop!())?;
                    self.bounds(h, idx)?;
                    match v {
                        Value::R(r) => self.thread.obj_array_set(h, idx as usize, r),
                        Value::Null => {
                            let null = arena.track(self.thread.null_handle());
                            self.thread.obj_array_set(h, idx as usize, null);
                        }
                        _ => return Err(TrapKind::TypeMismatch("StElemR value")),
                    }
                }
                Op::ArrLen => {
                    let h = self.ref_val(pop!())?;
                    stack.push(Value::I(self.thread.array_len(h) as i64));
                }
                Op::FCall(id) => {
                    let host = self
                        .host
                        .ok_or(TrapKind::Fcall("no message-passing host bound"))?;
                    let n = id.arity();
                    if stack.len() < n {
                        return Err(TrapKind::StackUnderflow);
                    }
                    let args: Vec<Value> = stack.split_off(stack.len() - n);
                    let ret = host.fcall(id, &args, self.trusted)?;
                    if let Some(v) = ret {
                        if let Value::R(h) = v {
                            // Received objects are owned by this frame.
                            arena.track(h);
                        }
                        stack.push(v);
                    }
                }
            }
        }
        // Fell off the end of a void function.
        Ok(None)
    }

    fn ref_val(&self, v: Value) -> Result<Handle, TrapKind> {
        match v {
            Value::R(h) if !self.thread.is_null(h) => Ok(h),
            Value::R(_) | Value::Null => Err(TrapKind::NullReference),
            _ => Err(TrapKind::TypeMismatch("expected reference")),
        }
    }

    fn bounds(&self, h: Handle, idx: i64) -> Result<(), TrapKind> {
        if idx < 0 || idx as usize >= self.thread.array_len(h) {
            return Err(TrapKind::IndexOutOfRange);
        }
        Ok(())
    }

    fn elem_kind(&self, h: Handle) -> ElemKind {
        let vm = self.thread.vm();
        let reg = vm.registry();
        match reg.table(self.thread.class_of(h)).kind {
            motor_runtime::TypeKind::PrimArray(k) => k,
            motor_runtime::TypeKind::MdArray { elem, .. } => elem,
            _ => ElemKind::U8,
        }
    }

    /// Reject non-f64 fields on the unverified `LdFldF`/`StFldF` path
    /// (verified modules carry the kind in their side table instead).
    fn check_f64_field(&self, h: Handle, fi: usize) -> Result<(), TrapKind> {
        let vm = self.thread.vm();
        let reg = vm.registry();
        match reg
            .table(self.thread.class_of(h))
            .fields
            .get(fi)
            .map(|f| f.ty)
        {
            Some(motor_runtime::FieldType::Prim(ElemKind::F64)) => Ok(()),
            Some(_) => Err(TrapKind::TypeMismatch("float access to non-f64 field")),
            None => Err(TrapKind::TypeMismatch("field index out of range")),
        }
    }

    /// Reject non-f64 arrays on the unverified `LdElemF`/`StElemF` path.
    fn check_f64_elem(&self, h: Handle) -> Result<(), TrapKind> {
        match self.elem_kind(h) {
            ElemKind::F64 => Ok(()),
            _ => Err(TrapKind::TypeMismatch("float access to non-f64 array")),
        }
    }

    fn load_int_elem(&self, h: Handle, idx: i64, hint: Option<ElemKind>) -> Result<i64, TrapKind> {
        self.bounds(h, idx)?;
        let idx = idx as usize;
        let kind = match hint {
            Some(k) => k,
            None => self.elem_kind(h),
        };
        Ok(match kind {
            ElemKind::Bool | ElemKind::U8 => {
                let mut o = [0u8];
                self.thread.prim_read(h, idx, &mut o);
                o[0] as i64
            }
            ElemKind::I8 => {
                let mut o = [0i8];
                self.thread.prim_read(h, idx, &mut o);
                o[0] as i64
            }
            ElemKind::I16 => {
                let mut o = [0i16];
                self.thread.prim_read(h, idx, &mut o);
                o[0] as i64
            }
            ElemKind::U16 | ElemKind::Char => {
                let mut o = [0u16];
                self.thread.prim_read(h, idx, &mut o);
                o[0] as i64
            }
            ElemKind::I32 => {
                let mut o = [0i32];
                self.thread.prim_read(h, idx, &mut o);
                o[0] as i64
            }
            ElemKind::U32 => {
                let mut o = [0u32];
                self.thread.prim_read(h, idx, &mut o);
                o[0] as i64
            }
            ElemKind::I64 | ElemKind::U64 => {
                let mut o = [0i64];
                self.thread.prim_read(h, idx, &mut o);
                o[0]
            }
            ElemKind::F32 | ElemKind::F64 => {
                return Err(TrapKind::TypeMismatch("int load from float array"))
            }
        })
    }

    fn store_int_elem(
        &self,
        h: Handle,
        idx: i64,
        v: i64,
        hint: Option<ElemKind>,
    ) -> Result<(), TrapKind> {
        self.bounds(h, idx)?;
        let idx = idx as usize;
        let kind = match hint {
            Some(k) => k,
            None => self.elem_kind(h),
        };
        match kind {
            ElemKind::Bool | ElemKind::U8 => self.thread.prim_write(h, idx, &[v as u8]),
            ElemKind::I8 => self.thread.prim_write(h, idx, &[v as i8]),
            ElemKind::I16 => self.thread.prim_write(h, idx, &[v as i16]),
            ElemKind::U16 | ElemKind::Char => self.thread.prim_write(h, idx, &[v as u16]),
            ElemKind::I32 => self.thread.prim_write(h, idx, &[v as i32]),
            ElemKind::U32 => self.thread.prim_write(h, idx, &[v as u32]),
            ElemKind::I64 | ElemKind::U64 => self.thread.prim_write(h, idx, &[v]),
            ElemKind::F32 | ElemKind::F64 => {
                return Err(TrapKind::TypeMismatch("int store to float array"))
            }
        }
        Ok(())
    }

    fn load_int_field(
        &self,
        h: Handle,
        fi: usize,
        hint: Option<ElemKind>,
    ) -> Result<i64, TrapKind> {
        let kind = match hint {
            Some(k) => k,
            None => {
                let vm = self.thread.vm();
                let reg = vm.registry();
                match reg
                    .table(self.thread.class_of(h))
                    .fields
                    .get(fi)
                    .map(|f| f.ty)
                {
                    Some(motor_runtime::FieldType::Prim(k)) => k,
                    Some(motor_runtime::FieldType::Ref(_)) => {
                        return Err(TrapKind::TypeMismatch("LdFldI on reference field"))
                    }
                    None => return Err(TrapKind::TypeMismatch("field index out of range")),
                }
            }
        };
        Ok(match kind {
            ElemKind::Bool | ElemKind::U8 => self.thread.get_prim::<u8>(h, fi) as i64,
            ElemKind::I8 => self.thread.get_prim::<i8>(h, fi) as i64,
            ElemKind::I16 => self.thread.get_prim::<i16>(h, fi) as i64,
            ElemKind::U16 | ElemKind::Char => self.thread.get_prim::<u16>(h, fi) as i64,
            ElemKind::I32 => self.thread.get_prim::<i32>(h, fi) as i64,
            ElemKind::U32 => self.thread.get_prim::<u32>(h, fi) as i64,
            ElemKind::I64 | ElemKind::U64 => self.thread.get_prim::<i64>(h, fi),
            ElemKind::F32 | ElemKind::F64 => {
                return Err(TrapKind::TypeMismatch("LdFldI on float field"))
            }
        })
    }

    fn store_int_field(
        &self,
        h: Handle,
        fi: usize,
        v: i64,
        hint: Option<ElemKind>,
    ) -> Result<(), TrapKind> {
        let kind = match hint {
            Some(k) => k,
            None => {
                let vm = self.thread.vm();
                let reg = vm.registry();
                match reg
                    .table(self.thread.class_of(h))
                    .fields
                    .get(fi)
                    .map(|f| f.ty)
                {
                    Some(motor_runtime::FieldType::Prim(k)) => k,
                    Some(motor_runtime::FieldType::Ref(_)) => {
                        return Err(TrapKind::TypeMismatch("StFldI on reference field"))
                    }
                    None => return Err(TrapKind::TypeMismatch("field index out of range")),
                }
            }
        };
        match kind {
            ElemKind::Bool | ElemKind::U8 => self.thread.set_prim::<u8>(h, fi, v as u8),
            ElemKind::I8 => self.thread.set_prim::<i8>(h, fi, v as i8),
            ElemKind::I16 => self.thread.set_prim::<i16>(h, fi, v as i16),
            ElemKind::U16 | ElemKind::Char => self.thread.set_prim::<u16>(h, fi, v as u16),
            ElemKind::I32 => self.thread.set_prim::<i32>(h, fi, v as i32),
            ElemKind::U32 => self.thread.set_prim::<u32>(h, fi, v as u32),
            ElemKind::I64 | ElemKind::U64 => self.thread.set_prim::<i64>(h, fi, v),
            ElemKind::F32 | ElemKind::F64 => {
                return Err(TrapKind::TypeMismatch("StFldI on float field"))
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::il::{FnBuilder, Module, TyDesc};
    use motor_runtime::heap::HeapConfig;
    use motor_runtime::{Vm, VmConfig};
    use std::sync::Arc;

    fn vm_small() -> Arc<Vm> {
        Vm::new(VmConfig {
            heap: HeapConfig {
                young_bytes: 8 * 1024,
                ..Default::default()
            },
        })
    }

    fn verified(m: Module, vm: &Vm) -> VerifiedModule {
        VerifiedModule::verify(m, &vm.registry()).expect("test module must verify")
    }

    #[test]
    fn arithmetic_and_loop_sum() {
        // sum(n) = 0 + 1 + ... + n via a loop.
        let mut f = FnBuilder::new("sum", 1, 2, true);
        let top = f.label();
        let done = f.label();
        f.op(Op::PushI(0)).op(Op::Store(1));
        f.bind(top);
        f.op(Op::Load(0))
            .op(Op::PushI(0))
            .op(Op::CmpLe)
            .br_true(done);
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
        let mut m = Module::new();
        let idx = m.add(f.build());
        let vm = vm_small();
        let vmod = verified(m, &vm);
        let t = motor_runtime::MotorThread::attach(vm);
        let i = Interp::new(&t, &vmod);
        let r = i.call(idx, &[Value::I(100)]).unwrap();
        assert_eq!(r, Some(Value::I(5050)));
    }

    #[test]
    fn recursive_factorial_via_calls() {
        // fact(n) = n <= 1 ? 1 : n * fact(n-1)
        let mut m = Module::new();
        let mut f = FnBuilder::new("fact", 1, 1, true);
        let rec = f.label();
        f.op(Op::Load(0))
            .op(Op::PushI(1))
            .op(Op::CmpLe)
            .br_false(rec);
        f.op(Op::PushI(1)).op(Op::Ret);
        f.bind(rec);
        f.op(Op::Load(0));
        f.op(Op::Load(0)).op(Op::PushI(1)).op(Op::Sub);
        f.op(Op::Call(0));
        f.op(Op::Mul).op(Op::Ret);
        let idx = m.add(f.build());
        assert_eq!(idx, 0);
        let vm = vm_small();
        let vmod = verified(m, &vm);
        let t = motor_runtime::MotorThread::attach(vm);
        let i = Interp::new(&t, &vmod);
        assert_eq!(
            i.call(0, &[Value::I(10)]).unwrap(),
            Some(Value::I(3_628_800))
        );
    }

    #[test]
    fn float_math() {
        let mut f = FnBuilder::new("avg", 2, 2, true);
        f.params(&[TyDesc::F64, TyDesc::F64]).ret_ty(TyDesc::F64);
        f.op(Op::Load(0)).op(Op::Load(1)).op(Op::FAdd);
        f.op(Op::PushF(2.0)).op(Op::FDiv).op(Op::Ret);
        let mut m = Module::new();
        let idx = m.add(f.build());
        let vm = vm_small();
        let vmod = verified(m, &vm);
        let t = motor_runtime::MotorThread::attach(vm);
        let i = Interp::new(&t, &vmod);
        assert_eq!(
            i.call(idx, &[Value::F(3.0), Value::F(4.0)]).unwrap(),
            Some(Value::F(3.5))
        );
    }

    #[test]
    fn division_by_zero_traps() {
        let mut f = FnBuilder::new("div", 2, 2, true);
        f.op(Op::Load(0)).op(Op::Load(1)).op(Op::Div).op(Op::Ret);
        let mut m = Module::new();
        let idx = m.add(f.build());
        let vm = vm_small();
        let vmod = verified(m, &vm);
        let t = motor_runtime::MotorThread::attach(vm);
        let i = Interp::new(&t, &vmod);
        assert_eq!(
            i.call(idx, &[Value::I(1), Value::I(0)]),
            Err(TrapKind::DivideByZero)
        );
    }

    #[test]
    fn object_fields_through_il() {
        let vm = vm_small();
        let cls = vm
            .registry_mut()
            .define_class("Pt")
            .prim("x", ElemKind::I32)
            .prim("y", ElemKind::F64)
            .build();
        // make() { p = new Pt; p.x = 7; p.y = 2.5; return p.x + (int)p.y }
        let mut f = FnBuilder::new("make", 0, 1, true);
        f.op(Op::New(cls)).op(Op::Store(0));
        f.op(Op::Load(0)).op(Op::PushI(7)).op(Op::StFldI(0));
        f.op(Op::Load(0)).op(Op::PushF(2.5)).op(Op::StFldF(1));
        f.op(Op::Load(0)).op(Op::LdFldI(0));
        f.op(Op::Load(0)).op(Op::LdFldF(1)).op(Op::F2I);
        f.op(Op::Add).op(Op::Ret);
        let mut m = Module::new();
        let idx = m.add(f.build());
        let vmod = verified(m, &vm);
        let t = motor_runtime::MotorThread::attach(vm);
        let i = Interp::new(&t, &vmod);
        assert_eq!(i.call(idx, &[]).unwrap(), Some(Value::I(9)));
    }

    #[test]
    fn arrays_through_il_with_bounds() {
        // fill-and-sum: a = new i32[n]; for i: a[i] = i*i; return sum(a)
        let mut f = FnBuilder::new("sumsq", 1, 3, true);
        let top = f.label();
        let done = f.label();
        let top2 = f.label();
        let done2 = f.label();
        f.op(Op::Load(0))
            .op(Op::NewArr(ElemKind::I32))
            .op(Op::Store(1));
        f.op(Op::PushI(0)).op(Op::Store(2));
        f.bind(top);
        f.op(Op::Load(2))
            .op(Op::Load(0))
            .op(Op::CmpLt)
            .br_false(done);
        f.op(Op::Load(1))
            .op(Op::Load(2))
            .op(Op::Load(2))
            .op(Op::Load(2))
            .op(Op::Mul)
            .op(Op::StElemI);
        f.op(Op::Load(2))
            .op(Op::PushI(1))
            .op(Op::Add)
            .op(Op::Store(2));
        f.br(top);
        f.bind(done);
        // Sum phase: reuse local 0 as accumulator.
        f.op(Op::PushI(0)).op(Op::Store(0));
        f.op(Op::PushI(0)).op(Op::Store(2));
        f.bind(top2);
        f.op(Op::Load(2))
            .op(Op::Load(1))
            .op(Op::ArrLen)
            .op(Op::CmpLt)
            .br_false(done2);
        f.op(Op::Load(0))
            .op(Op::Load(1))
            .op(Op::Load(2))
            .op(Op::LdElemI)
            .op(Op::Add)
            .op(Op::Store(0));
        f.op(Op::Load(2))
            .op(Op::PushI(1))
            .op(Op::Add)
            .op(Op::Store(2));
        f.br(top2);
        f.bind(done2);
        f.op(Op::Load(0)).op(Op::Ret);
        let mut m = Module::new();
        let idx = m.add(f.build());
        // Out-of-range traps.
        let mut g = FnBuilder::new("oob", 0, 1, true);
        g.op(Op::PushI(2))
            .op(Op::NewArr(ElemKind::I32))
            .op(Op::Store(0));
        g.op(Op::Load(0))
            .op(Op::PushI(5))
            .op(Op::LdElemI)
            .op(Op::Ret);
        let gi = m.add(g.build());
        let vm = vm_small();
        let vmod = verified(m, &vm);
        let t = motor_runtime::MotorThread::attach(vm);
        let i = Interp::new(&t, &vmod);
        // 0+1+4+9+16 = 30
        assert_eq!(i.call(idx, &[Value::I(5)]).unwrap(), Some(Value::I(30)));
        assert_eq!(i.call(gi, &[]), Err(TrapKind::IndexOutOfRange));
    }

    #[test]
    fn allocation_loop_survives_gc() {
        // Allocate thousands of nodes into a linked structure held through
        // a local while GC churns — handles in locals are roots.
        let vm = vm_small();
        let arr_cls = vm.registry_mut().prim_array(ElemKind::I64);
        let cls = {
            let mut reg = vm.registry_mut();
            let next_id = motor_runtime::ClassId(reg.len() as u32);
            reg.define_class("Cell")
                .prim("v", ElemKind::I64)
                .transportable("next", next_id)
                .build()
        };
        let _ = arr_cls;
        // build(n): head = null; for i in 0..n { c = new Cell; c.v = i;
        //           c.next = head; head = c } ; then count the list.
        let mut f = FnBuilder::new("build", 1, 4, true);
        let top = f.label();
        let done = f.label();
        let count_top = f.label();
        let count_done = f.label();
        f.op(Op::PushNull).op(Op::Store(1)); // head
        f.op(Op::PushI(0)).op(Op::Store(2)); // i
        f.bind(top);
        f.op(Op::Load(2))
            .op(Op::Load(0))
            .op(Op::CmpLt)
            .br_false(done);
        f.op(Op::New(cls)).op(Op::Store(3));
        f.op(Op::Load(3)).op(Op::Load(2)).op(Op::StFldI(0));
        f.op(Op::Load(3)).op(Op::Load(1)).op(Op::StFldR(1));
        f.op(Op::Load(3)).op(Op::Store(1));
        f.op(Op::Load(2))
            .op(Op::PushI(1))
            .op(Op::Add)
            .op(Op::Store(2));
        f.br(top);
        f.bind(done);
        // count
        f.op(Op::PushI(0)).op(Op::Store(2));
        f.bind(count_top);
        f.op(Op::Load(1))
            .op(Op::PushNull)
            .op(Op::CmpEq)
            .br_true(count_done);
        f.op(Op::Load(1)).op(Op::LdFldR(1)).op(Op::Store(1));
        f.op(Op::Load(2))
            .op(Op::PushI(1))
            .op(Op::Add)
            .op(Op::Store(2));
        f.br(count_top);
        f.bind(count_done);
        f.op(Op::Load(2)).op(Op::Ret);
        let mut m = Module::new();
        let idx = m.add(f.build());
        let vmod = verified(m, &vm);
        let t = motor_runtime::MotorThread::attach(Arc::clone(&vm));
        let i = Interp::new(&t, &vmod);
        let n = 2000i64;
        assert_eq!(i.call(idx, &[Value::I(n)]).unwrap(), Some(Value::I(n)));
        assert!(
            vm.stats_snapshot().minor_collections > 0,
            "the allocation loop must have triggered GC"
        );
    }

    #[test]
    fn object_arrays_and_null_elements() {
        let vm = vm_small();
        let cls = vm
            .registry_mut()
            .define_class("Box")
            .prim("v", ElemKind::I32)
            .build();
        // a = new Box[3]; a[1] = new Box{v=42}; return a[1].v + (a[0]==null)
        let mut f = FnBuilder::new("g", 0, 2, true);
        f.op(Op::PushI(3)).op(Op::NewObjArr(cls)).op(Op::Store(0));
        f.op(Op::New(cls)).op(Op::Store(1));
        f.op(Op::Load(1)).op(Op::PushI(42)).op(Op::StFldI(0));
        f.op(Op::Load(0))
            .op(Op::PushI(1))
            .op(Op::Load(1))
            .op(Op::StElemR);
        f.op(Op::Load(0))
            .op(Op::PushI(1))
            .op(Op::LdElemR)
            .op(Op::LdFldI(0));
        f.op(Op::Load(0))
            .op(Op::PushI(0))
            .op(Op::LdElemR)
            .op(Op::PushNull)
            .op(Op::CmpEq);
        f.op(Op::Add).op(Op::Ret);
        let mut m = Module::new();
        let idx = m.add(f.build());
        let vmod = verified(m, &vm);
        let t = motor_runtime::MotorThread::attach(vm);
        let i = Interp::new(&t, &vmod);
        assert_eq!(i.call(idx, &[]).unwrap(), Some(Value::I(43)));
    }

    #[test]
    fn null_dereference_traps() {
        let vm = vm_small();
        let cls = vm
            .registry_mut()
            .define_class("B2")
            .prim("v", ElemKind::I32)
            .build();
        let _ = cls;
        let mut f = FnBuilder::new("h", 0, 0, true);
        f.op(Op::PushNull).op(Op::LdFldI(0)).op(Op::Ret);
        let mut m = Module::new();
        let idx = m.add(f.build());
        let vmod = verified(m, &vm);
        let t = motor_runtime::MotorThread::attach(vm);
        let i = Interp::new(&t, &vmod);
        assert_eq!(i.call(idx, &[]), Err(TrapKind::NullReference));
    }

    use motor_runtime::ElemKind;

    #[cfg(feature = "profile")]
    #[test]
    fn profiler_hooks_count_calls_backedges_and_ops() {
        use crate::il::PROFILE_NAMES;
        use motor_obs::IlHot;
        use std::sync::Arc;

        // leaf(): a 100-trip empty loop — the hot function.
        let mut leaf = FnBuilder::new("leaf", 0, 1, true);
        let top = leaf.label();
        let done = leaf.label();
        leaf.op(Op::PushI(100)).op(Op::Store(0));
        leaf.bind(top);
        leaf.op(Op::Load(0))
            .op(Op::PushI(0))
            .op(Op::CmpLe)
            .br_true(done);
        leaf.op(Op::Load(0))
            .op(Op::PushI(1))
            .op(Op::Sub)
            .op(Op::Store(0));
        leaf.br(top);
        leaf.bind(done);
        leaf.op(Op::PushI(0)).op(Op::Ret);
        // driver(): calls leaf() 5 times.
        let mut m = Module::new();
        let leaf_idx = m.add(leaf.build());
        let mut driver = FnBuilder::new("driver", 0, 1, true);
        for _ in 0..5 {
            driver.op(Op::Call(leaf_idx)).op(Op::Pop);
        }
        driver.op(Op::PushI(0)).op(Op::Ret);
        let driver_idx = m.add(driver.build());

        let vm = vm_small();
        let vmod = verified(m, &vm);
        let t = motor_runtime::MotorThread::attach(vm);
        let prof = Arc::new(IlHot::new(
            vmod.module()
                .functions
                .iter()
                .map(|f| f.name.clone())
                .collect(),
            PROFILE_NAMES.to_vec(),
        ));
        let i = Interp::new(&t, &vmod).with_profiler(Arc::clone(&prof));
        i.call(driver_idx, &[]).unwrap();

        let hot = prof.hottest().expect("something ran");
        assert_eq!(hot.name, "leaf", "the loop function must rank hottest");
        assert_eq!(hot.calls, 5);
        assert_eq!(hot.backedges, 5 * 100);
        let by_name: std::collections::HashMap<_, _> = prof
            .top_functions()
            .into_iter()
            .map(|f| (f.name.clone(), f))
            .collect();
        assert_eq!(by_name["driver"].calls, 1);
        assert_eq!(by_name["driver"].backedges, 0);
        // ~500 loop trips × 6 ops each: the sampled mix must have fired.
        assert!(prof.op_counts().iter().sum::<u64>() > 0, "op mix sampled");
        // Interpreter idle again: stack unwound, no current frame.
        assert_eq!(prof.current(), None);
        assert!(prof.stack_snapshot().is_empty());
    }
}
