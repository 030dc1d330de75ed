//! The FCall discipline — the trusted runtime-internal call boundary.
//!
//! Paper §5.1: FCalls "are internally trusted. Therefore, they are more
//! efficient than P/Invoke calls because they do not have parameter
//! marshalling and security checks," but in exchange "they must behave
//! like managed code": poll the collector on entry, while waiting, and on
//! exit, and explicitly protect object pointers.
//!
//! [`Fcall`] is the RAII analog of the `FCIMPL`/`HELPER_METHOD_FRAME`
//! macros: constructing it performs the entry poll, dropping it performs
//! the exit poll; in between the FCall body runs cooperatively (the
//! collector waits for it), so raw object addresses obtained inside are
//! stable until the body explicitly polls — exactly the window the Motor
//! pinning policy exploits (§7.4).

use std::cell::{Cell, RefCell};

use motor_interp::{FCallId, FcallHost, TrapKind, Value};
use motor_mpc::Source;
use motor_runtime::{ElemKind, Handle, MotorThread, TransportView, TypeKind};

use crate::error::{CoreError, CoreResult};
use crate::mp::{Mp, MpRequest, Proof};
use crate::oomp::Oomp;

/// An active FCall frame.
pub struct Fcall<'t> {
    thread: &'t MotorThread,
}

impl<'t> Fcall<'t> {
    /// Enter an FCall: polls the collector (entry poll).
    pub fn enter(thread: &'t MotorThread) -> Fcall<'t> {
        thread.poll();
        Fcall { thread }
    }

    /// The attached thread.
    pub fn thread(&self) -> &'t MotorThread {
        self.thread
    }

    /// Poll inside the FCall (the polling-wait lap hook).
    #[inline]
    pub fn poll(&self) {
        self.thread.poll();
    }

    /// Resolve a raw transport buffer — window, element layout,
    /// generation — in one VM round trip, with the parameter checks: the
    /// object must be non-null and, for the regular MPI bindings (paper
    /// §4.2.1), "Only object types with no object references or arrays of
    /// simple types can be used as send or receive objects. This prevents
    /// overwriting references and protects the integrity of the object
    /// model." Stability rules for the window are the pinning policy's
    /// business.
    pub fn transport_view(&self, h: Handle) -> CoreResult<TransportView> {
        let view = self.thread.transport_view(h).ok_or(CoreError::NullBuffer)?;
        if view.window.is_none() {
            let name = self.thread.vm().registry().table(view.class).name.clone();
            return Err(CoreError::ObjectModelIntegrity(name));
        }
        Ok(view)
    }

    /// Element kind of a primitive or multidimensional array (None for a
    /// ref-free class object).
    pub fn elem_kind(&self, h: Handle) -> Option<ElemKind> {
        let class = self.thread.class_of(h);
        let vm = self.thread.vm();
        let reg = vm.registry();
        match reg.table(class).kind {
            TypeKind::PrimArray(k) => Some(k),
            TypeKind::MdArray { elem, .. } => Some(elem),
            _ => None,
        }
    }
}

impl Drop for Fcall<'_> {
    fn drop(&mut self) {
        // Exit poll.
        self.thread.poll();
    }
}

/// Map a binding failure to an interpreter trap. The trap carries a
/// static category; the detailed message stays on the `CoreError` side.
fn trap(e: &CoreError) -> TrapKind {
    TrapKind::Fcall(match e {
        CoreError::NullBuffer => "null transport buffer",
        CoreError::ObjectModelIntegrity(_) => {
            "buffer type contains references; raw transport refused"
        }
        CoreError::RangeOutOfBounds { .. } => "transport range out of bounds",
        CoreError::Mpc(_) => "message passing core failure",
        CoreError::Serialization(_) => "serialization failure",
        CoreError::UnknownType(_) => "receiver does not know the transported type",
    })
}

fn int_arg(v: Value, what: &'static str) -> Result<i64, TrapKind> {
    match v {
        Value::I(i) => Ok(i),
        _ => Err(TrapKind::Fcall(what)),
    }
}

fn arg(args: &[Value], i: usize) -> Result<Value, TrapKind> {
    args.get(i)
        .copied()
        .ok_or(TrapKind::Fcall("missing intrinsic operand"))
}

/// Negative managed peer values are the wildcard receive source
/// (`FCALL_ANY_SOURCE`).
fn source_of(peer: i64) -> Source {
    if peer < 0 {
        Source::Any
    } else {
        Source::Rank(peer as usize)
    }
}

fn dest_of(peer: i64) -> Result<usize, TrapKind> {
    usize::try_from(peer).map_err(|_| TrapKind::Fcall("destination rank must be non-negative"))
}

/// The message-passing intrinsic host: routes [`motor_interp::il::Op::FCall`]
/// from the interpreter into the [`Mp`]/[`Oomp`] bindings, each invocation
/// an FCall frame with entry/exit polls.
///
/// Requests created by `MpIsend`/`MpIrecv` live in a host-side table and
/// are surfaced to managed code as opaque [`Value::Req`] indices; the
/// typed verifier's linearity rules guarantee each one reaches `MpWait`
/// exactly once before its function returns, so the table cannot leak.
///
/// When the interpreter runs a module carrying the `motor-analyze`
/// transport proof, raw transports run under `Proof::Proved` and the
/// per-send transportability walk is elided ([`MpIntrinsics::elided`]
/// counts them — the measurable win of load-time verification).
pub struct MpIntrinsics<'t> {
    mp: Mp<'t>,
    oomp: Oomp<'t>,
    requests: RefCell<Vec<Option<MpRequest>>>,
    elided: Cell<u64>,
}

impl<'t> MpIntrinsics<'t> {
    /// Build the host over bound `Mp` and `Oomp` interfaces (one rank).
    pub fn new(mp: Mp<'t>, oomp: Oomp<'t>) -> MpIntrinsics<'t> {
        MpIntrinsics {
            mp,
            oomp,
            requests: RefCell::new(Vec::new()),
            elided: Cell::new(0),
        }
    }

    /// Number of requests still in flight (0 after any verified function
    /// returns, by the request type-state guarantee).
    pub fn outstanding(&self) -> usize {
        self.requests
            .borrow()
            .iter()
            .filter(|r| r.is_some())
            .count()
    }

    /// How many raw transports ran with the transportability check elided
    /// under a transport proof.
    pub fn elided(&self) -> u64 {
        self.elided.get()
    }

    fn thread(&self) -> &'t MotorThread {
        self.mp.thread()
    }

    /// Decode a transport-buffer operand: a non-null object reference.
    fn buf_arg(&self, v: Value) -> Result<Handle, TrapKind> {
        match v {
            Value::R(h) if !self.thread().is_null(h) => Ok(h),
            Value::R(_) | Value::Null => Err(TrapKind::NullReference),
            _ => Err(TrapKind::Fcall("transport buffer must be an object")),
        }
    }

    /// Park a request in the table, reusing free slots so long-running
    /// kernels keep the table bounded.
    fn park(&self, req: MpRequest) -> u32 {
        let mut t = self.requests.borrow_mut();
        match t.iter().position(Option::is_none) {
            Some(i) => {
                t[i] = Some(req);
                i as u32
            }
            None => {
                t.push(Some(req));
                (t.len() - 1) as u32
            }
        }
    }

    fn take(&self, v: Value) -> Result<MpRequest, TrapKind> {
        let Value::Req(idx) = v else {
            return Err(TrapKind::Fcall("MpWait operand must be a request"));
        };
        self.requests
            .borrow_mut()
            .get_mut(idx as usize)
            .and_then(Option::take)
            .ok_or(TrapKind::Fcall("request already completed"))
    }

    /// The proof a raw transport runs under, counting the elided checks.
    fn proof(&self, trusted: bool) -> Proof {
        if trusted {
            self.elided.set(self.elided.get() + 1);
            Proof::Proved
        } else {
            Proof::Checked
        }
    }
}

impl FcallHost for MpIntrinsics<'_> {
    fn fcall(&self, id: FCallId, args: &[Value], trusted: bool) -> Result<Option<Value>, TrapKind> {
        match id {
            FCallId::MpSend => {
                let buf = self.buf_arg(arg(args, 0)?)?;
                let dest = dest_of(int_arg(arg(args, 1)?, "send dest must be an int")?)?;
                let tag = int_arg(arg(args, 2)?, "tag must be an int")? as i32;
                self.mp
                    .send_with(buf, None, dest, tag.into(), self.proof(trusted))
                    .map_err(|e| trap(&e))?;
                Ok(None)
            }
            FCallId::MpRecv => {
                let buf = self.buf_arg(arg(args, 0)?)?;
                let src = source_of(int_arg(arg(args, 1)?, "recv source must be an int")?);
                let tag = int_arg(arg(args, 2)?, "tag must be an int")? as i32;
                self.mp
                    .recv_with(buf, None, src, tag.into(), self.proof(trusted))
                    .map_err(|e| trap(&e))?;
                Ok(None)
            }
            FCallId::MpIsend => {
                let buf = self.buf_arg(arg(args, 0)?)?;
                let dest = dest_of(int_arg(arg(args, 1)?, "isend dest must be an int")?)?;
                let tag = int_arg(arg(args, 2)?, "tag must be an int")? as i32;
                let req = self
                    .mp
                    .isend_with(buf, dest, tag.into(), self.proof(trusted))
                    .map_err(|e| trap(&e))?;
                Ok(Some(Value::Req(self.park(req))))
            }
            FCallId::MpIrecv => {
                let buf = self.buf_arg(arg(args, 0)?)?;
                let src = source_of(int_arg(arg(args, 1)?, "irecv source must be an int")?);
                let tag = int_arg(arg(args, 2)?, "tag must be an int")? as i32;
                let req = self
                    .mp
                    .irecv_with(buf, src, tag.into(), self.proof(trusted))
                    .map_err(|e| trap(&e))?;
                Ok(Some(Value::Req(self.park(req))))
            }
            FCallId::MpWait => {
                let mut req = self.take(arg(args, 0)?)?;
                self.mp.wait(&mut req).map_err(|e| trap(&e))?;
                Ok(None)
            }
            FCallId::MpBarrier => {
                self.mp.barrier().map_err(|e| trap(&e))?;
                Ok(None)
            }
            FCallId::MpBcast => {
                let buf = self.buf_arg(arg(args, 0)?)?;
                let root = dest_of(int_arg(arg(args, 1)?, "bcast root must be an int")?)?;
                self.mp
                    .bcast_with(buf, root, self.proof(trusted))
                    .map_err(|e| trap(&e))?;
                Ok(None)
            }
            FCallId::Osend => {
                let obj = self.buf_arg(arg(args, 0)?)?;
                let dest = dest_of(int_arg(arg(args, 1)?, "osend dest must be an int")?)?;
                let tag = int_arg(arg(args, 2)?, "tag must be an int")? as i32;
                self.oomp.osend(obj, dest, tag).map_err(|e| trap(&e))?;
                Ok(None)
            }
            FCallId::Orecv(class) => {
                let src = source_of(int_arg(arg(args, 0)?, "orecv source must be an int")?);
                let tag = int_arg(arg(args, 1)?, "tag must be an int")? as i32;
                let (h, _st) = self.oomp.orecv(src, tag).map_err(|e| trap(&e))?;
                // Arrival type check: the deserialized root must be of the
                // declared class — the one dynamic check object transport
                // keeps, because the wire type is the sender's claim.
                if self.thread().class_of(h) != class {
                    self.thread().release(h);
                    return Err(TrapKind::Fcall(
                        "received object class does not match Orecv declaration",
                    ));
                }
                Ok(Some(Value::R(h)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use motor_runtime::{Vm, VmConfig};
    use std::sync::Arc;

    fn setup() -> (Arc<Vm>, MotorThread) {
        let vm = Vm::new(VmConfig::default());
        let t = MotorThread::attach(Arc::clone(&vm));
        (vm, t)
    }

    #[test]
    fn fcall_polls_on_entry_and_exit() {
        let (_vm, t) = setup();
        // No pending GC: polls are no-ops but must not hang.
        let f = Fcall::enter(&t);
        f.poll();
        drop(f);
    }

    #[test]
    fn null_buffers_rejected() {
        let (_vm, t) = setup();
        let f = Fcall::enter(&t);
        let null = t.null_handle();
        assert!(matches!(f.transport_view(null), Err(CoreError::NullBuffer)));
    }

    #[test]
    fn ref_bearing_objects_rejected_for_raw_transport() {
        let (vm, t) = setup();
        let arr = {
            let mut reg = vm.registry_mut();
            reg.prim_array(ElemKind::I32)
        };
        let bad = {
            let mut reg = vm.registry_mut();
            reg.define_class("HasRef")
                .transportable("data", arr)
                .build()
        };
        let good = {
            let mut reg = vm.registry_mut();
            reg.define_class("Plain").prim("x", ElemKind::F64).build()
        };
        let f = Fcall::enter(&t);
        let h_bad = t.alloc_instance(bad);
        let h_good = t.alloc_instance(good);
        let h_arr = t.alloc_prim_array(ElemKind::I32, 4);
        assert!(matches!(
            f.transport_view(h_bad),
            Err(CoreError::ObjectModelIntegrity(name)) if name == "HasRef"
        ));
        assert!(f.transport_view(h_good).is_ok());
        let view = f.transport_view(h_arr).unwrap();
        assert_eq!(view.window.unwrap().1, 16);
        assert_eq!(view.elems, Some((ElemKind::I32, 4)));
        assert!(view.young);
    }

    #[test]
    fn elem_kind_reports_array_types() {
        let (_vm, t) = setup();
        let f = Fcall::enter(&t);
        let a = t.alloc_prim_array(ElemKind::F64, 3);
        let m = t.alloc_md_array(ElemKind::I32, &[2, 2]);
        assert_eq!(f.elem_kind(a), Some(ElemKind::F64));
        assert_eq!(f.elem_kind(m), Some(ElemKind::I32));
    }
}
