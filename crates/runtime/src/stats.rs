//! Collection and pinning counters, as a typed view.
//!
//! The paper's argument for the pinning policy is quantitative ("it does
//! minimise the performance overhead imposed by pinning unnecessarily for
//! each operation", §7.4). The collector, `MotorThread::pin*` and the pin
//! policy bump `Metric::Gc*` on the VM's [`MetricsRegistry`] — the only
//! place the numbers live; [`GcStatsSnapshot`] reads them back under the
//! names the tests and ablation benchmarks assert on.

use motor_obs::{Metric, MetricsRegistry};

macro_rules! gc_stats_view {
    ($( $field:ident => $metric:ident ),+ $(,)?) => {
        /// A point-in-time copy of one VM's GC and pinning counters.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct GcStatsSnapshot {
            $( #[doc = concat!("[`Metric::", stringify!($metric), "`].")] pub $field: u64 ),+
        }

        impl GcStatsSnapshot {
            /// Read the counters off the VM's registry.
            pub(crate) fn read(registry: &MetricsRegistry) -> Self {
                GcStatsSnapshot { $( $field: registry.get(Metric::$metric) ),+ }
            }
        }
    };
}

gc_stats_view! {
    minor_collections => GcMinorCollections,
    full_collections => GcFullCollections,
    objects_promoted => GcObjectsPromoted,
    bytes_promoted => GcBytesPromoted,
    pinned_block_promotions => GcPinnedBlockPromotions,
    pins => GcPins,
    unpins => GcUnpins,
    conditional_pins_registered => GcCondPinsRegistered,
    conditional_pins_held => GcCondPinsHeld,
    conditional_pins_released => GcCondPinsReleased,
    pins_avoided_elder => GcPinsAvoidedElder,
    pins_avoided_fast_blocking => GcPinsAvoidedFastBlocking,
    objects_swept => GcObjectsSwept,
    bytes_swept => GcBytesSwept,
    pin_checks_elided => GcPinChecksElided,
}

impl GcStatsSnapshot {
    /// Total pin bookkeeping operations (pins + unpins) — the quantity the
    /// pinning-policy ablation compares.
    pub fn pin_traffic(&self) -> u64 {
        self.pins + self.unpins
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_reads_the_registry_and_is_a_stable_copy() {
        let r = MetricsRegistry::new();
        r.add(Metric::GcPins, 2);
        r.bump(Metric::GcUnpins);
        r.add(Metric::GcBytesPromoted, 100);
        let a = GcStatsSnapshot::read(&r);
        assert_eq!((a.pins, a.unpins, a.bytes_promoted), (2, 1, 100));
        assert_eq!(a.pin_traffic(), 3);
        r.bump(Metric::GcMinorCollections);
        assert_eq!(a.minor_collections, 0);
        assert_eq!(GcStatsSnapshot::read(&r).minor_collections, 1);
    }
}
