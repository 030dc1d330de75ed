//! One benchmark run: set-up repeats, the measured phases, and the
//! reduction of what the ranks left behind to the catalogue's metrics.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use motor_obs::{Metric, MetricsSnapshot};

use crate::harness::{cluster_config, run_workload, Phase, Plan, RankOut, Timing};
use crate::inputs::Rng;
use crate::ladder::{self, LadderPlan, Rung, RTT_RUNGS, STREAM_RUNGS};
use crate::micro;
use crate::report::{json_string, Report, Stamp, Values};
use crate::stats::{median, quartiles};
use crate::sys;
use crate::trace::{self, Span, NO_SPAN};
use crate::workloads::{self, ObjectList, Spec};

/// Spans each rank keeps in memory in a traced phase (40 bytes each).
const SPAN_CAP: usize = 1 << 20;
/// Spans per rank written to the trace file; the rest are summarised.
const SPANS_WRITTEN: usize = 100_000;

/// What the command line asked for.
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Every size cut to about 1/200: checks the machinery, measures
    /// nothing. The only mode a debug build will run.
    pub smoke: bool,
    /// Flip a byte in the harness's receive buffer once (contract test).
    pub flip: bool,
    pub out_dir: PathBuf,
}

/// Full-size or smoke-size run parameters.
struct Scale {
    batch_div: u64,
    setups: usize,
    /// Set-up iterations are a batch divided by this.
    setup_div: u64,
    warmup_batches: u64,
    min_batches: u64,
    micro_calls: u64,
    ladder_div: u64,
    ladder_rounds: u64,
    ladder_min_batches: u64,
}

impl Scale {
    fn of(smoke: bool) -> Scale {
        if smoke {
            Scale {
                batch_div: 200,
                setups: 1,
                setup_div: 1,
                warmup_batches: 1,
                min_batches: 2,
                micro_calls: 2_000,
                ladder_div: 50,
                ladder_rounds: 1,
                ladder_min_batches: 2,
            }
        } else {
            Scale {
                batch_div: 1,
                setups: 41,
                setup_div: 10,
                warmup_batches: 8,
                min_batches: 20,
                micro_calls: 200_000,
                ladder_div: 1,
                ladder_rounds: 5,
                ladder_min_batches: 5,
            }
        }
    }

    fn batch(&self, spec: &Spec) -> u64 {
        (spec.batch / self.batch_div).max(spec.min_batch)
    }
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.0))
}

fn stamp(opts: &Options, workload: &'static str) -> Stamp {
    Stamp {
        workload,
        seed: opts.seed,
        seconds: opts.seconds,
        traced: opts.traced,
        smoke: opts.smoke,
        nproc: sys::nproc(),
        git_sha: sys::git_sha(),
        config: format!("{:?}", cluster_config().universe),
    }
}

fn tally(ranks: &[RankOut]) -> (u64, u64) {
    let attempted = ranks.iter().map(|r| r.ops + r.checks).sum();
    let failed = ranks.iter().map(|r| r.failed).sum();
    (attempted, failed)
}

fn spec_json(spec: &Spec, batch: u64) -> String {
    format!(
        "{{\"batch_iters\":{batch},\"ladder_bytes\":{},\"payload_bytes_per_iter\":{},\
         \"nonblocking_per_iter\":{}}}",
        spec.ladder_bytes, spec.payload_bytes_per_iter, spec.nonblocking_per_iter
    )
}

fn timing_json(t: &Timing) -> String {
    let mut rates = t.batch_rates.clone();
    rates.sort_by(f64::total_cmp);
    let q = quartiles(&rates);
    // In the order they ran, rounded: whether a run drifted, stepped or
    // was slow throughout shows here and nowhere else.
    let in_order: Vec<String> = t.batch_rates.iter().map(|r| format!("{r:.0}")).collect();
    format!(
        "{{\"iters\":{},\"samples\":{},\"batches\":{},\"wall_s\":{},\
         \"batch_iters_per_s\":{{\"min\":{},\"q1\":{},\"median\":{},\"q3\":{},\"max\":{}}},\
         \"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"p999_us\":{},\
         \"batch_iters_per_s_in_order\":[{}]}}",
        t.iters,
        t.hist.count(),
        t.batch_rates.len(),
        t.wall.as_secs_f64(),
        rates[0],
        q[0],
        q[1],
        q[2],
        rates[rates.len() - 1],
        t.hist.quantile(0.5) / 1e3,
        t.hist.quantile(0.9) / 1e3,
        t.hist.quantile(0.99) / 1e3,
        t.hist.quantile(0.999) / 1e3,
        in_order.join(","),
    )
}

/// Run what `opts` asks for; `None` for an unknown workload name.
pub fn run(opts: &Options) -> Option<Report> {
    if !workloads::NAMES.contains(&opts.workload.as_str()) {
        return None;
    }
    Some(if opts.traced {
        run_traced(opts)
    } else {
        run_untraced(opts)
    })
}

/// The end-to-end run: tracing off, set-up repeated, one timed phase.
fn run_untraced(opts: &Options) -> Report {
    let scale = Scale::of(opts.smoke);
    let mut setups = Vec::with_capacity(scale.setups);
    let mut measured = None;
    for s in 0..scale.setups {
        // Set-up is input generation, cluster bring-up, each rank's buffers
        // and a fixed count of first iterations (a tenth of a batch), in
        // which the lazy part of set-up happens. The rest of the warm-up is
        // not part of it: its length is the workload's speed over again.
        let t0 = Instant::now();
        let w = workloads::build(&opts.workload, opts.seed).expect("workload name checked");
        let spec = w.spec();
        let batch = scale.batch(&spec);
        let last = s + 1 == scale.setups;
        let phase = Phase {
            budget: secs(opts.seconds),
            traced: false,
        };
        let plan = Plan {
            setup_iters: (batch / scale.setup_div).max(1),
            warmup_iters: if last {
                scale.warmup_batches * batch
            } else {
                0
            },
            batch,
            min_batches: scale.min_batches,
            phases: if last { vec![phase] } else { Vec::new() },
            flip: last && opts.flip,
            span_cap: 0,
        };
        let out = run_workload(&*w, &plan);
        setups.push((out.ready - t0).as_secs_f64());
        if last {
            measured = Some((spec, batch, out));
        }
    }
    let (spec, batch, mut out) = measured.expect("at least one set-up");
    let timing = out.ranks[0].phases[0].timing.take().expect("client timing");
    let (attempted, failed) = tally(&out.ranks);

    let mut values = Values::default();
    values.set("iter_us_p50", timing.hist.quantile(0.5) / 1e3);
    values.set("iters_per_s", median(&timing.batch_rates));
    values.set("cpu_us_per_iter", median(&timing.batch_cpu_ns) / 1e3);
    values.set("peak_rss_mb", timing.peak_rss_kib as f64 / 1024.0);
    values.set("setup_s", median(&setups));

    let setups: Vec<String> = setups.iter().map(f64::to_string).collect();
    Report {
        stamp: stamp(opts, spec.name),
        correct: failed == 0,
        attempted,
        failed,
        values,
        extra: vec![
            ("sizes", spec_json(&spec, batch)),
            ("timing", timing_json(&timing)),
            ("setups_s", format!("[{}]", setups.join(","))),
        ],
    }
}

/// Median duration in microseconds of the client's spans called `name`.
fn span_p50_us(
    stats: &std::collections::BTreeMap<&'static str, trace::NameStats>,
    name: &str,
) -> f64 {
    stats.get(name).map_or(0.0, |s| s.p50_ns / 1e3)
}

fn span_total_ns(spans: &[Span], name: &str) -> f64 {
    let total: u64 = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::nanos)
        .sum();
    total as f64
}

/// The per-layer run: ladder, isolated calls, then the workload itself
/// with spans, allocation counting and the stack's counters.
fn run_traced(opts: &Options) -> Report {
    let scale = Scale::of(opts.smoke);
    let w = workloads::build(&opts.workload, opts.seed).expect("workload name checked");
    let spec = w.spec();
    let batch = scale.batch(&spec);
    let mut values = Values::default();
    let (mut checks, mut failed) = (0, 0);

    // Rungs: a third of the time for the round-trip ladder, a sixth for
    // the streaming one.
    let base = Rng::new(opts.seed, 2).next_u64() as u32;
    let rtt_plan = LadderPlan {
        batch: (if spec.ladder_bytes <= 256 { 2_000 } else { 400 } / scale.ladder_div).max(1),
        min_batches: scale.ladder_min_batches,
        budget: secs(opts.seconds * 0.30 / (RTT_RUNGS.len() as u64 * scale.ladder_rounds) as f64),
        rounds: scale.ladder_rounds,
    };
    let rtt = ladder::rtt_ladder(rtt_plan, spec.ladder_bytes, base);
    let stream_plan = LadderPlan {
        batch: (10 / scale.ladder_div).max(1),
        min_batches: scale.ladder_min_batches,
        budget: secs(
            opts.seconds * 0.15 / (STREAM_RUNGS.len() as u64 * scale.ladder_rounds) as f64,
        ),
        rounds: scale.ladder_rounds,
    };
    let stream = ladder::stream_ladder(stream_plan);
    let mut below = 0.0;
    for rung in &rtt {
        values.set(format!("{}.rtt_us", rung.name), rung.p50_us);
        values.set(format!("{}.self_us", rung.name), rung.p50_us - below);
        below = rung.p50_us;
    }
    for rung in &stream {
        values.set(format!("{}.mb_s", rung.name), ladder::stream_mb_s(rung));
    }
    for rung in rtt.iter().chain(&stream) {
        checks += rung.checks;
        failed += rung.failed;
    }

    let m = micro::run(scale.micro_calls, &ObjectList::new(opts.seed));
    values.set("mpc.packet.encode_ns", m.packet_encode_ns);
    values.set("mpc.packet.decode_ns", m.packet_decode_ns);
    values.set("core.serial.ser_us_per_obj", m.ser_us_per_obj);
    values.set("core.serial.deser_us_per_obj", m.deser_us_per_obj);
    values.set("core.pinning.pin_release_ns", m.pin_release_ns);
    values.set("core.bufpool.get_put_ns", m.bufpool_get_put_ns);
    values.set("runtime.heap.alloc_ns", m.heap_alloc_ns);
    values.set("runtime.gc.minor_us", m.gc_minor_us);
    values.set("obs.counter_bump_ns", m.counter_bump_ns);
    values.set("harness.timer_ns", m.timer_ns);

    // The workload: an untraced reference stretch, then the traced one.
    let plan = Plan {
        setup_iters: 0,
        warmup_iters: scale.warmup_batches * batch,
        batch,
        min_batches: scale.min_batches,
        phases: vec![
            Phase {
                budget: secs(opts.seconds * 0.15),
                traced: false,
            },
            Phase {
                budget: secs(opts.seconds * 0.35),
                traced: true,
            },
        ],
        flip: opts.flip,
        span_cap: SPAN_CAP,
    };
    let mut out = run_workload(&*w, &plan);
    let reference = out.ranks[0].phases[0]
        .timing
        .take()
        .expect("reference timing");
    let traced = out.ranks[0].phases[1].timing.take().expect("traced timing");
    let (attempted, workload_failed) = tally(&out.ranks);
    let iters = traced.iters as f64;

    values.set("e2e.iter_us_p90", reference.hist.quantile(0.9) / 1e3);
    values.set("e2e.iter_us_p99", reference.hist.quantile(0.99) / 1e3);
    values.set("e2e.iter_us_p999", reference.hist.quantile(0.999) / 1e3);
    values.set(
        "trace.overhead_ratio",
        traced.hist.quantile(0.5) / reference.hist.quantile(0.5),
    );

    let client_spans = &out.ranks[0].phases[1].spans;
    let server_spans = &out.ranks[1].phases[1].spans;
    let by_name = trace::by_name(client_spans);
    values.set(
        "core.oomp.osend_us",
        span_p50_us(&by_name, "core.oomp.osend"),
    );
    values.set(
        "core.oomp.orecv_us",
        span_p50_us(&by_name, "core.oomp.orecv"),
    );
    values.set(
        "api.communicator.allgather_us",
        span_p50_us(&by_name, "api.communicator.allgather"),
    );
    values.set(
        "api.communicator.allreduce_us",
        span_p50_us(&by_name, "api.communicator.allreduce"),
    );
    values.set(
        "app.compute_us",
        span_total_ns(client_spans, "app.compute") / iters / 1e3,
    );
    values.set("app.serial_iter_us", w.serial_iter_us());
    let calls = iters * spec.nonblocking_per_iter as f64;
    for (metric, span) in [
        ("core.mp.post_us_per_msg", "core.mp.post"),
        ("core.mp.wait_us_per_msg", "core.mp.wait"),
    ] {
        let ns = span_total_ns(client_spans, span) + span_total_ns(server_spans, span);
        values.set(metric, Values::ratio(ns / 1e3, calls));
    }

    let mut c = MetricsSnapshot::empty();
    for r in &out.ranks {
        c.merge(r.phases[1].counters.as_ref().expect("traced counters"));
    }
    let n = |m: Metric| c.get(m) as f64;
    let msgs = n(Metric::SendsEager) + n(Metric::SendsRndv) + n(Metric::SendsSelf);
    values.set(
        "mpc.channel.frames_per_iter",
        n(Metric::ChanFramesOut) / iters,
    );
    values.set(
        "mpc.channel.wire_bytes_per_payload_byte",
        n(Metric::ChanBytesOut) / iters / spec.payload_bytes_per_iter as f64,
    );
    values.set(
        "mpc.device.polls_per_iter",
        n(Metric::ProgressPolls) / iters,
    );
    values.set(
        "mpc.device.match_attempts_per_msg",
        Values::ratio(n(Metric::MatchAttempts), msgs),
    );
    values.set(
        "mpc.device.unexpected_ratio",
        Values::ratio(
            n(Metric::RecvsUnexpected),
            n(Metric::RecvsUnexpected) + n(Metric::RecvsPosted),
        ),
    );
    values.set(
        "mpc.device.unexpected_queue_peak",
        n(Metric::UnexpectedQueuePeak),
    );
    values.set("mpc.device.posted_queue_peak", n(Metric::PostedQueuePeak));
    values.set(
        "mpc.device.rndv_ratio",
        Values::ratio(n(Metric::SendsRndv), msgs),
    );
    values.set(
        "core.serial.visited_probes_per_obj",
        Values::ratio(n(Metric::SerVisitedProbes), n(Metric::SerObjects)),
    );
    values.set("core.serial.bytes_per_iter", n(Metric::SerBytes) / iters);
    values.set(
        "core.bufpool.hit_ratio",
        Values::ratio(n(Metric::PoolHits), n(Metric::PoolGets)),
    );
    values.set("core.pinning.pins_per_iter", n(Metric::GcPins) / iters);
    values.set(
        "core.pinning.cond_pins_per_iter",
        n(Metric::GcCondPinsRegistered) / iters,
    );
    let avoided = n(Metric::GcPinsAvoidedElder) + n(Metric::GcPinsAvoidedFastBlocking);
    values.set(
        "core.pinning.avoided_ratio",
        Values::ratio(
            avoided,
            avoided + n(Metric::GcPins) + n(Metric::GcCondPinsRegistered),
        ),
    );
    values.set(
        "runtime.gc.minor_per_kiter",
        n(Metric::GcMinorCollections) / iters * 1e3,
    );
    values.set(
        "runtime.gc.bytes_promoted_per_iter",
        n(Metric::GcBytesPromoted) / iters,
    );
    let profiled: f64 = c.bucket_nanos().iter().map(|&b| b as f64).sum();
    for (metric, bucket) in [
        ("obs.profile.comm_wait_share", Metric::ProfCommWaitNanos),
        ("obs.profile.gc_share", Metric::ProfGcNanos),
        ("obs.profile.serialize_share", Metric::ProfSerializeNanos),
        ("obs.profile.compute_share", Metric::ProfComputeNanos),
    ] {
        values.set(metric, Values::ratio(n(bucket), profiled));
    }
    let allocs = out.ranks[0].phases[1].allocs;
    values.set("alloc.count_per_iter", allocs.0 as f64 / iters);
    values.set("alloc.bytes_per_iter", allocs.1 as f64 / iters);

    let ladder = ladder_json(&values, &rtt, &stream);
    let stamp = stamp(opts, spec.name);
    let trace_file = write_trace(&opts.out_dir, &stamp, &out.ranks);
    let counters: Vec<String> = Metric::ALL
        .iter()
        .filter(|&&m| c.get(m) != 0)
        .map(|&m| format!("{}:{}", json_string(m.name()), c.get(m)))
        .collect();
    let failed = failed + workload_failed;
    Report {
        stamp,
        correct: failed == 0,
        attempted: attempted + checks,
        failed,
        values,
        extra: vec![
            ("sizes", spec_json(&spec, batch)),
            ("reference", timing_json(&reference)),
            ("traced", timing_json(&traced)),
            ("ladder", ladder),
            ("spans", spans_json(client_spans)),
            ("counters", format!("{{{}}}", counters.join(","))),
            ("trace_file", json_string(&trace_file)),
        ],
    }
}

/// The ladder as a table: one row per rung.
fn ladder_json(values: &Values, rtt: &[Rung], stream: &[Rung]) -> String {
    let metric = |rung: &Rung, suffix: &str| {
        let name = format!("{}.{suffix}", rung.name);
        values.get(&name).expect("ladder metric was set")
    };
    let rtt: Vec<String> = rtt
        .iter()
        .map(|r| {
            format!(
                "{{\"rung\":{},\"rtt_us\":{},\"self_us\":{},\"iters\":{}}}",
                json_string(r.name),
                metric(r, "rtt_us"),
                metric(r, "self_us"),
                r.iters
            )
        })
        .collect();
    let stream: Vec<String> = stream
        .iter()
        .map(|r| {
            format!(
                "{{\"rung\":{},\"mb_s\":{},\"window_us\":{},\"iters\":{}}}",
                json_string(r.name),
                metric(r, "mb_s"),
                r.p50_us,
                r.iters
            )
        })
        .collect();
    format!(
        "{{\"rtt\":[{}],\"stream\":[{}]}}",
        rtt.join(","),
        stream.join(",")
    )
}

/// Per-name summary of the client's spans, self time included.
fn spans_json(spans: &[Span]) -> String {
    let own = trace::self_nanos(spans);
    let mut self_total = std::collections::BTreeMap::new();
    for (s, o) in spans.iter().zip(&own) {
        *self_total.entry(s.name).or_insert(0u64) += o;
    }
    let rows: Vec<String> = trace::by_name(spans)
        .iter()
        .map(|(name, st)| {
            format!(
                "{}:{{\"count\":{},\"total_us\":{},\"self_us\":{},\"p50_us\":{}}}",
                json_string(name),
                st.count,
                st.total_ns as f64 / 1e3,
                self_total[name] as f64 / 1e3,
                st.p50_ns / 1e3
            )
        })
        .collect();
    format!("{{{}}}", rows.join(","))
}

/// Write the spans of both ranks to `<dir>/<workload>.trace.json`; returns
/// the path written, or a note why not.
fn write_trace(dir: &Path, stamp: &Stamp, ranks: &[RankOut]) -> String {
    let mut names: Vec<&'static str> = Vec::new();
    let mut out = String::new();
    write!(
        out,
        "{{\"workload\":{},\"seed\":{},\"span_columns\":[\"name\",\"start_ns\",\"end_ns\",\
         \"parent\",\"iter\"],\"ranks\":[",
        json_string(stamp.workload),
        stamp.seed
    )
    .expect("write to string");
    for (r, rank) in ranks.iter().enumerate() {
        let phase = &rank.phases[1];
        if r > 0 {
            out.push(',');
        }
        write!(
            out,
            "{{\"rank\":{},\"recorded\":{},\"dropped\":{},\"spans\":[",
            rank.rank,
            phase.spans.len(),
            phase.spans_dropped
        )
        .expect("write to string");
        for (k, s) in phase.spans.iter().take(SPANS_WRITTEN).enumerate() {
            let name = names.iter().position(|&n| n == s.name).unwrap_or_else(|| {
                names.push(s.name);
                names.len() - 1
            });
            // A parent beyond the written prefix cannot occur: parents
            // precede their children in the buffer.
            let parent = if s.parent == NO_SPAN {
                -1
            } else {
                i64::from(s.parent)
            };
            if k > 0 {
                out.push(',');
            }
            write!(
                out,
                "[{name},{},{},{parent},{}]",
                s.start_ns, s.end_ns, s.iter
            )
            .expect("write to string");
        }
        out.push_str("]}");
    }
    let names: Vec<String> = names.iter().map(|n| json_string(n)).collect();
    writeln!(out, "],\"names\":[{}]}}", names.join(",")).expect("write to string");
    let path = dir.join(format!("{}.trace.json", stamp.workload));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, out)) {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("not written: {e}"),
    }
}
