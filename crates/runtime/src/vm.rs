//! The VM façade: one managed runtime instance per MPI rank.
//!
//! A [`Vm`] owns the heap, the pin table, the remembered set, the
//! safepoint coordinator and the type registry. The handle tables — the
//! root set — belong to the attached threads; the safepoint coordinator
//! lists them for the collector. Mutator threads interact with the VM
//! through [`crate::thread::MotorThread`], never directly — mirroring how
//! SSCLI code reaches the runtime through FCalls.

use std::collections::HashSet;
use std::sync::Arc;

use motor_obs::{MetricsRegistry, SpanKind};
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::gc;
use crate::handles::HandleTable;
use crate::heap::{AllocPressure, Heap, HeapConfig};
use crate::pin::PinTable;
use crate::safepoint::Safepoint;
use crate::stats::GcStatsSnapshot;
use crate::types::{ClassId, TypeRegistry};

/// VM construction parameters.
#[derive(Debug, Clone, Default)]
pub struct VmConfig {
    /// Heap generation sizing.
    pub heap: HeapConfig,
}

/// Mutable runtime state guarded by the VM lock.
pub struct VmState {
    /// The two-generation heap.
    pub heap: Heap,
    /// Hard and conditional pins.
    pub pins: PinTable,
    /// Elder-to-young reference slots recorded by the write barrier.
    pub remset: HashSet<usize>,
}

/// A managed runtime instance.
pub struct Vm {
    state: Mutex<VmState>,
    registry: RwLock<TypeRegistry>,
    safepoint: Safepoint,
    metrics: Arc<MetricsRegistry>,
    /// Per-class never-transported proof bits (indexed by `ClassId`),
    /// installed by the static-analysis escape pass. `None` until a
    /// proof is installed; see [`Vm::install_never_transported`].
    never_transported: RwLock<Option<Vec<bool>>>,
}

impl Vm {
    /// Create a standalone VM with the given configuration, recording
    /// into a registry of its own.
    pub fn new(config: VmConfig) -> Arc<Vm> {
        Self::with_metrics(config, Arc::new(MetricsRegistry::new()))
    }

    /// Create a VM that records into `metrics`: a rank's VM takes its
    /// device's registry, so the rank has one.
    pub fn with_metrics(config: VmConfig, metrics: Arc<MetricsRegistry>) -> Arc<Vm> {
        let safepoint = Safepoint::new();
        safepoint.attach_metrics(Arc::clone(&metrics));
        Arc::new(Vm {
            state: Mutex::new(VmState {
                heap: Heap::new(config.heap),
                pins: PinTable::new(),
                remset: HashSet::new(),
            }),
            registry: RwLock::new(TypeRegistry::new()),
            safepoint,
            metrics,
            never_transported: RwLock::new(None),
        })
    }

    /// Create a VM with default configuration.
    pub fn with_defaults() -> Arc<Vm> {
        Self::new(VmConfig::default())
    }

    /// Read access to the type registry.
    pub fn registry(&self) -> RwLockReadGuard<'_, TypeRegistry> {
        self.registry.read()
    }

    /// Write access to the type registry (type definition at startup).
    pub fn registry_mut(&self) -> RwLockWriteGuard<'_, TypeRegistry> {
        self.registry.write()
    }

    /// The registry the runtime records into: GC and pinning counters,
    /// safepoint stalls, serializer and buffer-pool traffic, and the spans
    /// of all of them. A rank's VM shares it with the rank's device.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The GC and pinning counters of [`Self::metrics`], by field name.
    pub fn stats_snapshot(&self) -> GcStatsSnapshot {
        GcStatsSnapshot::read(&self.metrics)
    }

    /// The safepoint coordinator.
    pub fn safepoint(&self) -> &Safepoint {
        &self.safepoint
    }

    /// Install a never-transported class proof (the static-analysis
    /// escape pass's per-class bits). The proof asserts that no instance
    /// of these classes is ever handed to the transport layer — hence
    /// never pinned — letting the minor collector skip its per-object
    /// pinned-set membership check for them.
    ///
    /// Installing is *intersecting*: when several verified modules run on
    /// one VM, a class stays proven only if **every** installed proof
    /// covers it, so a second module that does transport a class revokes
    /// the first module's bit. The proof also covers host-side behaviour:
    /// an embedder that pins objects directly (`MotorThread::pin`) must
    /// not install proofs for those classes.
    pub fn install_never_transported(&self, classes: &[ClassId]) {
        let reg_len = self.registry.read().len();
        let mut guard = self.never_transported.write();
        let mut incoming = vec![false; reg_len];
        for c in classes {
            if let Some(slot) = incoming.get_mut(c.0 as usize) {
                *slot = true;
            }
        }
        match &mut *guard {
            Some(bits) => {
                // Intersect with the existing proof; classes defined after
                // the first install default to unproven on both sides.
                bits.resize(reg_len.max(bits.len()), false);
                for (i, slot) in bits.iter_mut().enumerate() {
                    *slot = *slot && incoming.get(i).copied().unwrap_or(false);
                }
            }
            None => *guard = Some(incoming),
        }
    }

    /// Drop any installed never-transported proof, restoring the
    /// conservative default (every young object checked against the
    /// pinned set).
    pub fn clear_never_transported(&self) {
        *self.never_transported.write() = None;
    }

    /// Copy of the installed never-transported bits (`None` = no proof).
    pub fn never_transported_bits(&self) -> Option<Vec<bool>> {
        self.never_transported.read().clone()
    }

    /// Pin-table diagnostics for the doctor watchdog:
    /// `(hard_pins, conditional_pins, oldest_hard_pin_age)`. Takes the
    /// state lock briefly; safe to call from a monitor thread.
    pub fn pin_diagnostics(&self) -> (usize, usize, Option<std::time::Duration>) {
        let st = self.state.lock();
        (
            st.pins.hard_len(),
            st.pins.conditional_len(),
            st.pins.oldest_hard_pin_age(),
        )
    }

    /// Live heap occupancy `(used_bytes, capacity_bytes)` for the
    /// telemetry gauges. Non-blocking: when the state lock is contended
    /// (a GC is running) this returns `None` rather than stalling the
    /// monitor thread behind the collection.
    pub fn heap_usage(&self) -> Option<(u64, u64)> {
        self.state.try_lock().map(|st| st.heap.usage())
    }

    /// Lock the mutable state. Internal to the runtime crate and the
    /// trusted integration layer (the FCall analog); user code goes through
    /// `MotorThread`.
    pub fn state(&self) -> MutexGuard<'_, VmState> {
        self.state.lock()
    }

    /// Run a collection of the given kind. The caller must already hold
    /// the collector role from [`Safepoint::try_begin_gc`].
    pub(crate) fn collect_exclusive(&self, kind: AllocPressure) {
        let roots = self.safepoint.tables();
        // SAFETY: the caller holds the collector role, so every table's
        // owner is parked, native, detached or the caller itself, which is
        // in here and not in its table (the `SharedTable` protocol).
        let handles: Vec<&mut HandleTable> =
            roots.iter().map(|t| unsafe { &mut *t.get() }).collect();
        let mut st = self.state.lock();
        let reg = self.registry.read();
        let nt = self.never_transported.read();
        let VmState { heap, pins, remset } = &mut *st;
        let mut ctx = gc::CollectCtx {
            heap,
            handles,
            pins,
            remset,
            registry: &reg,
            metrics: &self.metrics,
            never_transported: nt.as_deref(),
        };
        let full = matches!(kind, AllocPressure::NeedsFull);
        let _pause = self.metrics.span(SpanKind::Gc, full as u64);
        match kind {
            AllocPressure::NeedsMinor => gc::minor(&mut ctx),
            AllocPressure::NeedsFull => gc::full(&mut ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_constructs_with_defaults() {
        let vm = Vm::with_defaults();
        assert_eq!(vm.stats_snapshot().minor_collections, 0);
        assert!(vm.registry().is_empty());
    }

    #[test]
    fn never_transported_proofs_intersect_across_installs() {
        let vm = Vm::with_defaults();
        let a = vm
            .registry_mut()
            .define_class("A")
            .prim("x", crate::types::ElemKind::I64)
            .build();
        let b = vm
            .registry_mut()
            .define_class("B")
            .prim("x", crate::types::ElemKind::I64)
            .build();
        assert_eq!(vm.never_transported_bits(), None);

        vm.install_never_transported(&[a, b]);
        let bits = vm.never_transported_bits().unwrap();
        assert!(bits[a.0 as usize] && bits[b.0 as usize]);

        // A second module proving only `a` revokes `b`'s bit.
        vm.install_never_transported(&[a]);
        let bits = vm.never_transported_bits().unwrap();
        assert!(bits[a.0 as usize]);
        assert!(!bits[b.0 as usize]);

        vm.clear_never_transported();
        assert_eq!(vm.never_transported_bits(), None);
    }

    #[test]
    fn registry_definitions_visible_through_vm() {
        let vm = Vm::with_defaults();
        let id = vm
            .registry_mut()
            .define_class("P")
            .prim("x", crate::types::ElemKind::I32)
            .build();
        assert_eq!(vm.registry().by_name("P"), Some(id));
    }
}
