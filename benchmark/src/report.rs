//! The metric catalogue, and how a run's values are printed and stored.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units,
//! directions and bounds (the contract test holds the two equal); this
//! table adds, per layer metric, which end-to-end metric it should move
//! and on which workload, written down before anything was measured.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Seed the committed baselines were taken with.
pub const DEFAULT_SEED: u64 = 20_060_619;
/// A second seed no change is tuned against; claims must hold on it too.
pub const HOLDOUT_SEED: u64 = 7_402_981;
/// Seconds one run measures, as in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End to end: the share of the parent's median it may worsen by.
    pub bound: Option<f64>,
    /// Per layer: the end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        moves,
    }
}

/// What a user of the stack sees, reported on every workload.
///
/// The bounds are what a two-processor sandbox can resolve: here the
/// quartile spread of ten runs of one commit is 2 to 9 % of the median,
/// and the machine the benchmark is checked on is noisier than that (the
/// two virtual processors are placed by a host the benchmark cannot see),
/// so a bound of a tenth would reject unchanged code. `iter_us_p90` lives
/// in the per-layer set for the same reason.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("iter_us_p50", "us", "lower", 0.25),
    e2e("iters_per_s", "1/s", "higher", 0.25),
    e2e("cpu_us_per_iter", "us", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.20),
    e2e("setup_s", "s", "lower", 0.25),
];

const PP: &str = "iter_us_p50, iters_per_s on pingpong_small (second order on cg_collectives); \
                  not on stream_large, object_list";
const ST: &str = "iters_per_s, peak_rss_mb on stream_large; not on pingpong_small, match_burst";
const OL: &str = "iter_us_p50 (e2e.iter_us_p90 through the collector) on object_list; on no other";
const CG: &str = "iters_per_s, cpu_us_per_iter on cg_collectives; not on object_list";
const MB: &str = "iter_us_p50, cpu_us_per_iter on match_burst; not on pingpong_small";
const TAIL: &str = "iters_per_s on pingpong_small (a 200 us stall per 1000 iterations is 5 %)";
const SELF: &str = "none: the instrument's own cost";

/// What single layers do, taken in the traced run.
pub const PER_LAYER: [MetricDef; 63] = [
    // The round-trip ladder at the workload's message size.
    layer("pal.ring.rtt_us", "us", "lower", PP),
    layer("pal.ring.self_us", "us", "lower", PP),
    layer("pal.link.rtt_us", "us", "lower", PP),
    layer("pal.link.self_us", "us", "lower", PP),
    layer("mpc.channel.rtt_us", "us", "lower", PP),
    layer("mpc.channel.self_us", "us", "lower", PP),
    layer("mpc.device.rtt_us", "us", "lower", PP),
    layer("mpc.device.self_us", "us", "lower", PP),
    layer("mpc.comm.rtt_us", "us", "lower", PP),
    layer("mpc.comm.self_us", "us", "lower", PP),
    layer("core.mp.rtt_us", "us", "lower", PP),
    layer("core.mp.self_us", "us", "lower", PP),
    layer("api.communicator.rtt_us", "us", "lower", PP),
    layer("api.communicator.self_us", "us", "lower", PP),
    // The streaming ladder (eight 256 KiB messages per window).
    layer("pal.ring.mb_s", "MB/s", "higher", ST),
    layer("pal.link.mb_s", "MB/s", "higher", ST),
    layer("mpc.device.mb_s", "MB/s", "higher", ST),
    layer("mpc.comm.mb_s", "MB/s", "higher", ST),
    layer("core.mp.mb_s", "MB/s", "higher", ST),
    // Isolated single-thread calls.
    layer("mpc.packet.encode_ns", "ns", "lower", PP),
    layer("mpc.packet.decode_ns", "ns", "lower", PP),
    layer("core.serial.ser_us_per_obj", "us", "lower", OL),
    layer("core.serial.deser_us_per_obj", "us", "lower", OL),
    layer("core.pinning.pin_release_ns", "ns", "lower", MB),
    layer("core.bufpool.get_put_ns", "ns", "lower", OL),
    layer("runtime.heap.alloc_ns", "ns", "lower", OL),
    layer("runtime.gc.minor_us", "us", "lower", OL),
    layer("obs.counter_bump_ns", "ns", "lower", PP),
    // Spans around the workload's own top-level calls.
    layer("core.oomp.osend_us", "us", "lower", OL),
    layer("core.oomp.orecv_us", "us", "lower", OL),
    layer("api.communicator.allgather_us", "us", "lower", CG),
    layer("api.communicator.allreduce_us", "us", "lower", CG),
    layer("app.compute_us", "us", "lower", CG),
    layer("app.serial_iter_us", "us", "lower", CG),
    layer("core.mp.post_us_per_msg", "us", "lower", MB),
    layer("core.mp.wait_us_per_msg", "us", "lower", MB),
    // Counts per iteration from the stack's own counters.
    layer("mpc.channel.frames_per_iter", "count", "lower", PP),
    layer(
        "mpc.channel.wire_bytes_per_payload_byte",
        "ratio",
        "lower",
        ST,
    ),
    layer("mpc.device.polls_per_iter", "count", "lower", PP),
    layer("mpc.device.match_attempts_per_msg", "count", "lower", MB),
    layer("mpc.device.unexpected_ratio", "ratio", "lower", MB),
    layer("mpc.device.unexpected_queue_peak", "count", "lower", MB),
    layer("mpc.device.posted_queue_peak", "count", "lower", MB),
    layer("mpc.device.rndv_ratio", "ratio", "lower", ST),
    layer("core.serial.visited_probes_per_obj", "count", "lower", OL),
    layer("core.serial.bytes_per_iter", "B", "lower", OL),
    layer("core.bufpool.hit_ratio", "ratio", "higher", OL),
    layer("core.pinning.pins_per_iter", "count", "lower", MB),
    layer("core.pinning.cond_pins_per_iter", "count", "lower", ST),
    layer("core.pinning.avoided_ratio", "ratio", "higher", MB),
    layer("runtime.gc.minor_per_kiter", "count", "lower", OL),
    layer("runtime.gc.bytes_promoted_per_iter", "B", "lower", OL),
    layer("obs.profile.comm_wait_share", "ratio", "lower", CG),
    layer("obs.profile.gc_share", "ratio", "lower", OL),
    layer("obs.profile.serialize_share", "ratio", "lower", OL),
    layer("obs.profile.compute_share", "ratio", "higher", CG),
    layer("alloc.count_per_iter", "count", "lower", PP),
    layer("alloc.bytes_per_iter", "B", "lower", ST),
    // Tails too unsteady on two cores for an end-to-end bound.
    layer("e2e.iter_us_p90", "us", "lower", TAIL),
    layer("e2e.iter_us_p99", "us", "lower", TAIL),
    layer("e2e.iter_us_p999", "us", "lower", TAIL),
    // The instrument itself.
    layer("trace.overhead_ratio", "ratio", "lower", SELF),
    layer("harness.timer_ns", "ns", "lower", SELF),
];

/// Metric values of one run, by catalogue name.
#[derive(Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not a number: {value}");
        let stale = self.0.insert(name.clone(), value);
        assert!(stale.is_none(), "metric {name} set twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `a / b`, or 0 when nothing was counted.
    pub fn ratio(a: f64, b: f64) -> f64 {
        if b == 0.0 {
            0.0
        } else {
            a / b
        }
    }

    /// The values of exactly the metrics of `defs`, in catalogue order.
    fn of<'a>(&self, defs: &'a [MetricDef]) -> Vec<(&'a MetricDef, f64)> {
        assert_eq!(self.0.len(), defs.len(), "metrics outside the catalogue");
        defs.iter()
            .map(|d| {
                let v = self.get(d.name);
                (
                    d,
                    v.unwrap_or_else(|| panic!("metric {} was not measured", d.name)),
                )
            })
            .collect()
    }
}

/// Where and how a result was produced; stamped into every result file.
pub struct Stamp {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub nproc: usize,
    pub git_sha: String,
    /// `Debug` rendering of the resolved universe configuration.
    pub config: String,
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to string"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Stamp {
    fn to_json(&self) -> String {
        format!(
            "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"traced\":{},\"smoke\":{},\
             \"nproc\":{},\"rustc\":{},\"git_sha\":{},\"profile\":{},\"config\":{}}}",
            json_string(self.workload),
            self.seed,
            self.seconds,
            self.traced,
            self.smoke,
            self.nproc,
            json_string(env!("BENCH_RUSTC_VERSION")),
            json_string(&self.git_sha),
            json_string(build_profile()),
            json_string(&self.config),
        )
    }
}

pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// A finished run: the contract's result object plus what the files add.
pub struct Report {
    pub stamp: Stamp,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// Further top-level members of the result file (`"key":json`).
    pub extra: Vec<(&'static str, String)>,
}

impl Report {
    fn defs(&self) -> &'static [MetricDef] {
        if self.stamp.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// The one-line result object the driver reads.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .values
            .of(self.defs())
            .iter()
            .map(|(d, v)| {
                format!(
                    "{}:{{\"value\":{v},\"unit\":{}}}",
                    json_string(d.name),
                    json_string(d.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// Every metric by name with its unit, for people.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let s = &self.stamp;
        writeln!(
            out,
            "# {} seed={} seconds={} traced={} profile={}",
            s.workload,
            s.seed,
            s.seconds,
            s.traced,
            build_profile()
        )
        .expect("write to string");
        for (d, v) in self.values.of(self.defs()) {
            writeln!(out, "{:<44} {:>18.6} {}", d.name, v, d.unit).expect("write to string");
        }
        let failed_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        writeln!(
            out,
            "{:<44} {:>18.6} ratio ({} of {})",
            "failed_ratio", failed_ratio, self.failed, self.attempted
        )
        .expect("write to string");
        out
    }

    /// The result file: stamp, result object, and the extras.
    pub fn file_json(&self) -> String {
        let mut out = format!(
            "{{\"stamp\":{},\n\"result\":{}",
            self.stamp.to_json(),
            self.result_line()
        );
        for (k, v) in &self.extra {
            write!(out, ",\n{}:{v}", json_string(k)).expect("write to string");
        }
        out.push_str("}\n");
        out
    }

    /// Write the result file into `dir`; returns its path.
    pub fn write(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let suffix = if self.stamp.traced {
            "layers.json"
        } else {
            "json"
        };
        let path = dir.join(format!("{}.{suffix}", self.stamp.workload));
        std::fs::write(&path, self.file_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(matches!(d.better, "lower" | "higher"));
            assert_eq!(d.bound.is_some(), d.moves.is_empty());
        }
        assert!(END_TO_END.iter().all(|d| d.bound.unwrap() <= 0.25));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), r#""a\"b\\c\n""#);
    }
}
