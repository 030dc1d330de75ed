//! The Motor pinning policy (paper §4.3 and §7.4).
//!
//! "Pinning is not necessary for every MPI operation, and is only required
//! if garbage collection might occur and if the object has the potential
//! to be moved during that collection."
//!
//! The policy, reproduced exactly:
//!
//! * **Elder residents never pin.** "Motor checks the object's internal
//!   memory address against the boundaries of the younger generation. If
//!   the object is outside this boundary, then it has already been promoted
//!   to the elder generation and is not at risk of being moved during
//!   collection."
//! * **Blocking operations defer the pin.** "Pinning is not performed
//!   automatically, but is deferred until the operation enters a
//!   polling-wait state ... many blocking MPI operations complete quickly
//!   and never need to enter the polling-wait," and without entering the
//!   wait there is no opportunity for a collection.
//! * **Non-blocking operations pin conditionally.** The object is pinned
//!   immediately, but release is delegated to the collector: during the
//!   mark phase the GC asks the transport request whether it is still in
//!   flight and discards the pin if not.
//!
//! [`PinPolicy`] also offers the wrapper baselines' behaviour (pin-always,
//! as the Indiana bindings do for every call) so the ablation benchmark can
//! quantify the difference on identical machinery, and an unsound
//! `Disabled` mode used by the failure-injection test to demonstrate the
//! corruption the policy prevents.

use std::sync::Arc;

use motor_mpc::Request;
use motor_obs::Metric;
use motor_runtime::types::ClassId;
use motor_runtime::{Handle, MotorThread, PinCondition, PinToken};

/// Which pinning behaviour to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PinPolicy {
    /// The Motor policy described above (the default).
    #[default]
    Motor,
    /// Pin and unpin around every operation, as the managed-wrapper
    /// bindings do (the Indiana C# bindings "perform pinning for each MPI
    /// operation", paper §8).
    Always,
    /// Never pin — intentionally unsound; only for demonstrating the
    /// corruption window in failure-injection tests.
    Disabled,
}

/// The pin (if any) held for the duration of a blocking operation.
pub enum HeldPin {
    /// No pin was needed.
    None,
    /// A hard pin that must be released when the operation completes.
    Hard(PinToken),
}

/// Decide-and-pin for a *blocking* operation that is about to enter its
/// polling wait. Returns the pin to release afterwards.
///
/// This is called only when the fast path (operation complete before any
/// wait) has failed, implementing the paper's deferred pinning.
pub fn pin_for_polling_wait(thread: &MotorThread, policy: PinPolicy, buf: Handle) -> HeldPin {
    pin_resident_for_polling_wait(thread, policy, buf, thread.is_young(buf))
}

/// [`pin_for_polling_wait`] for a buffer whose generation the caller
/// resolved together with its window (`young`), which saves the lookup.
pub fn pin_resident_for_polling_wait(
    thread: &MotorThread,
    policy: PinPolicy,
    buf: Handle,
    young: bool,
) -> HeldPin {
    match policy {
        PinPolicy::Motor => {
            if young {
                HeldPin::Hard(thread.pin(buf))
            } else {
                thread.vm().metrics().bump(Metric::GcPinsAvoidedElder);
                HeldPin::None
            }
        }
        PinPolicy::Always => HeldPin::Hard(thread.pin(buf)),
        PinPolicy::Disabled => HeldPin::None,
    }
}

/// Account for a blocking operation that completed on the fast path and
/// never entered the polling wait (and therefore never pinned); `young`
/// is where its buffer lives.
pub fn note_fast_blocking_completion(thread: &MotorThread, policy: PinPolicy, young: bool) {
    if policy == PinPolicy::Motor && young {
        thread
            .vm()
            .metrics()
            .bump(Metric::GcPinsAvoidedFastBlocking);
    }
}

/// Release a held pin after the blocking operation completed.
pub fn release(thread: &MotorThread, pin: HeldPin) {
    if let HeldPin::Hard(tok) = pin {
        thread.unpin(tok);
    }
}

/// Pin for a *non-blocking* operation: register a conditional pin whose
/// release the collector performs once `req` reports completion
/// (paper §4.3). `young` is where the buffer lives, resolved with its
/// window. Under `Always`, degrade to the wrapper behaviour of a hard pin
/// that a completion check must release (returned to the caller).
pub fn pin_for_nonblocking(
    thread: &MotorThread,
    policy: PinPolicy,
    buf: Handle,
    young: bool,
    req: &Request,
) -> Option<PinToken> {
    match policy {
        PinPolicy::Motor => {
            if young {
                // The request is the condition: a reference count, no
                // second allocation.
                thread.pin_conditional(buf, Arc::clone(req) as Arc<dyn PinCondition>);
            } else {
                thread.vm().metrics().bump(Metric::GcPinsAvoidedElder);
            }
            None
        }
        PinPolicy::Always => Some(thread.pin(buf)),
        PinPolicy::Disabled => None,
    }
}

/// Install never-transported escape proofs (motor-analyze's per-class
/// bits) into the thread's VM, letting the minor collector skip its
/// pinned-set membership check for those classes entirely.
///
/// Complements the policy above: [`pin_for_polling_wait`] and friends
/// avoid *creating* unnecessary pins; the proof removes the per-object
/// *lookup* for classes that can never be transport buffers. The bits
/// must come from a sound whole-program analysis — an embedder that
/// pins objects of a proven class by hand (via [`MotorThread::pin`])
/// invalidates the proof. Installation intersects with any earlier
/// proof; see [`motor_runtime::Vm::install_never_transported`].
pub fn install_never_transported(thread: &MotorThread, classes: &[ClassId]) {
    thread.vm().install_never_transported(classes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use motor_runtime::heap::HeapConfig;
    use motor_runtime::{ElemKind, Vm, VmConfig};

    fn setup() -> (Arc<Vm>, MotorThread) {
        let vm = Vm::new(VmConfig {
            heap: HeapConfig {
                young_bytes: 8192,
                ..Default::default()
            },
        });
        let t = MotorThread::attach(Arc::clone(&vm));
        (vm, t)
    }

    #[test]
    fn elder_objects_skip_pinning() {
        let (vm, t) = setup();
        let h = t.alloc_prim_array(ElemKind::U8, 64);
        t.collect_minor(); // promote
        assert!(!t.is_young(h));
        let pin = pin_for_polling_wait(&t, PinPolicy::Motor, h);
        assert!(matches!(pin, HeldPin::None));
        let snap = vm.stats_snapshot();
        assert_eq!(snap.pins, 0);
        assert_eq!(snap.pins_avoided_elder, 1);
    }

    #[test]
    fn young_objects_pin_for_the_wait() {
        let (vm, t) = setup();
        let h = t.alloc_prim_array(ElemKind::U8, 64);
        assert!(t.is_young(h));
        let pin = pin_for_polling_wait(&t, PinPolicy::Motor, h);
        assert!(matches!(pin, HeldPin::Hard(_)));
        release(&t, pin);
        let snap = vm.stats_snapshot();
        assert_eq!(snap.pins, 1);
        assert_eq!(snap.unpins, 1);
    }

    #[test]
    fn always_policy_pins_even_elder_objects() {
        let (vm, t) = setup();
        let h = t.alloc_prim_array(ElemKind::U8, 64);
        t.collect_minor();
        let pin = pin_for_polling_wait(&t, PinPolicy::Always, h);
        assert!(matches!(pin, HeldPin::Hard(_)));
        release(&t, pin);
        assert_eq!(vm.stats_snapshot().pin_traffic(), 2);
    }

    #[test]
    fn nonblocking_registers_conditional_pin_only_when_young() {
        use motor_mpc::request::RequestState;
        let (vm, t) = setup();
        let young = t.alloc_prim_array(ElemKind::U8, 32);
        let req = RequestState::new(1);
        let resident = t.is_young(young);
        assert!(pin_for_nonblocking(&t, PinPolicy::Motor, young, resident, &req).is_none());
        assert_eq!(vm.stats_snapshot().conditional_pins_registered, 1);
        // Elder object: no registration.
        t.collect_minor();
        let req2 = RequestState::new(2);
        pin_for_nonblocking(&t, PinPolicy::Motor, young, t.is_young(young), &req2);
        assert_eq!(vm.stats_snapshot().conditional_pins_registered, 1);
        assert_eq!(vm.stats_snapshot().pins_avoided_elder, 1);
        // The first conditional pin resolves once the request completes.
        req.complete();
        t.collect_minor();
        assert!(vm.stats_snapshot().conditional_pins_released >= 1);
    }

    #[test]
    fn never_transported_proof_elides_pin_checks() {
        let (vm, t) = setup();
        let quiet = vm
            .registry_mut()
            .define_class("Quiet")
            .prim("x", ElemKind::I64)
            .build();
        let h = t.alloc_instance(quiet);
        assert_eq!(vm.stats_snapshot().pin_checks_elided, 0);
        install_never_transported(&t, &[quiet]);
        t.collect_minor();
        assert!(vm.stats_snapshot().pin_checks_elided >= 1);
        // Clearing the proof restores the conservative path.
        let before = vm.stats_snapshot().pin_checks_elided;
        vm.clear_never_transported();
        t.collect_minor();
        assert_eq!(vm.stats_snapshot().pin_checks_elided, before);
        let _ = h;
    }

    #[test]
    fn fast_blocking_completion_is_counted() {
        let (vm, t) = setup();
        let h = t.alloc_prim_array(ElemKind::U8, 32);
        note_fast_blocking_completion(&t, PinPolicy::Motor, t.is_young(h));
        assert_eq!(vm.stats_snapshot().pins_avoided_fast_blocking, 1);
        assert_eq!(vm.stats_snapshot().pins, 0);
    }
}
