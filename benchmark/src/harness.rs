//! The closed loop every measurement runs in: one client (rank 0) that
//! issues the next iteration only when the previous one completed, and one
//! server (rank 1) that answers it.
//!
//! Work is done in equal-count batches. The client decides at each batch
//! boundary whether the time budget allows another batch and tells the
//! server through [`Pace`], a side channel of three counters that is not
//! part of the stack under test and is only touched between batches.

use std::fmt::Debug;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use motor_core::cluster::{run_cluster, ClusterConfig, MotorProc};
use motor_mpc::universe::UniverseConfig;
use motor_obs::MetricsSnapshot;
use motor_pal::BackoffConfig;

use crate::stats::LogHist;
use crate::sys;
use crate::trace::{Span, Tracer};
use crate::workloads::RankProgram;

/// Unwrap a result of the stack. An error ends the process with a non-zero
/// code and no result line: with two ranks in lock step a failed operation
/// leaves its peer waiting for ever, so there is nothing to count past it.
pub fn must<T, E: Debug>(what: &str, r: Result<T, E>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            eprintln!("motor-benchmark: {what} failed: {e:?}");
            std::process::exit(1);
        }
    }
}

/// Batch and phase hand-shake between the client and the server thread.
#[derive(Default)]
pub struct Pace {
    /// Batches the client has started.
    go: AtomicU64,
    /// Phases the client has ended.
    ended: AtomicU64,
    /// Phases the server has finished its bookkeeping for.
    acked: AtomicU64,
}

impl Pace {
    pub fn start_batch(&self) {
        self.go.fetch_add(1, SeqCst);
    }

    /// End the current phase and wait until the server has left it too.
    pub fn end_phase(&self) {
        let p = self.ended.fetch_add(1, SeqCst) + 1;
        while self.acked.load(SeqCst) < p {
            std::hint::spin_loop();
        }
    }

    /// Server: wait for batch number `batches_run` of phase number
    /// `phases_run`; `false` when the phase ended without it.
    pub fn await_batch(&self, batches_run: u64, phases_run: u64) -> bool {
        loop {
            if self.go.load(SeqCst) > batches_run {
                return true;
            }
            if self.ended.load(SeqCst) > phases_run {
                // `ended` is bumped after the phase's last `go`.
                return self.go.load(SeqCst) > batches_run;
            }
            std::hint::spin_loop();
        }
    }

    pub fn ack_phase(&self) {
        self.acked.fetch_add(1, SeqCst);
    }
}

/// What an iteration closure works with: the iteration number its inputs
/// derive from, the span buffer, and the operation tally.
pub struct Cx {
    /// Iterations completed so far on this rank, warm-up included; the
    /// same on both ranks at the same point of the protocol.
    pub i: u64,
    pub tracer: Tracer,
    /// Calls into the stack (each returned `Ok`, or the run aborted).
    pub ops: u64,
    /// Output verifications made, and how many of them failed.
    pub checks: u64,
    pub failed: u64,
    flip_at: Option<u64>,
}

impl Cx {
    pub fn new(flip_at: Option<u64>) -> Cx {
        Cx {
            i: 0,
            tracer: Tracer::off(),
            ops: 0,
            checks: 0,
            failed: 0,
            flip_at,
        }
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str) -> u32 {
        self.tracer.begin(name, self.i)
    }

    #[inline]
    pub fn end(&mut self, id: u32) {
        self.tracer.end(id);
    }

    #[inline]
    pub fn check(&mut self, ok: bool) {
        self.checks += 1;
        self.failed += u64::from(!ok);
    }

    /// Whether the fault-injection test asks for a flipped byte in the
    /// harness's receive buffer on this iteration.
    #[inline]
    pub fn flip_now(&self) -> bool {
        self.flip_at == Some(self.i)
    }
}

/// What the client measured over one phase.
pub struct Timing {
    /// Wall time of every iteration, stamped by the client.
    pub hist: LogHist,
    /// Iterations per second of each batch.
    pub batch_rates: Vec<f64>,
    /// Process CPU time (both ranks) per iteration of each batch, in
    /// nanoseconds.
    pub batch_cpu_ns: Vec<f64>,
    pub iters: u64,
    pub wall: Duration,
    /// `VmHWM` in KiB when the last of the `min_batches` batches that
    /// every run makes had completed: the peak after a count of iterations
    /// that does not depend on how fast they went (0 if a full span buffer
    /// ended the phase before that).
    pub peak_rss_kib: u64,
}

/// Client side of one phase: batches of `batch` iterations until `budget`
/// has passed (and at least `min_batches`), or `full` says the span buffer
/// cannot take another batch.
pub fn client_phase(
    pace: &Pace,
    batch: u64,
    min_batches: u64,
    budget: Duration,
    cx: &mut Cx,
    f: &mut impl FnMut(&mut Cx),
) -> Timing {
    let mut hist = LogHist::new();
    let mut batch_rates = Vec::with_capacity(1024);
    let mut batch_cpu_ns = Vec::with_capacity(1024);
    let start = Instant::now();
    let mut spans_per_batch = 0;
    let mut peak_rss_kib = 0;
    loop {
        let done = batch_rates.len() as u64;
        if done >= min_batches && start.elapsed() >= budget {
            break;
        }
        if done >= 1 && cx.tracer.recorded() + spans_per_batch > cx.tracer.capacity() {
            break;
        }
        let spans_before = cx.tracer.recorded();
        pace.start_batch();
        let cpu0 = sys::process_cpu_ns();
        let b0 = Instant::now();
        let mut prev = b0;
        for _ in 0..batch {
            let it = cx.begin("iter");
            f(cx);
            cx.end(it);
            let now = Instant::now();
            hist.record((now - prev).as_nanos() as u64);
            prev = now;
            cx.i += 1;
        }
        batch_rates.push(batch as f64 / (prev - b0).as_secs_f64());
        batch_cpu_ns.push((sys::process_cpu_ns() - cpu0) as f64 / batch as f64);
        spans_per_batch = cx.tracer.recorded() - spans_before;
        if batch_rates.len() as u64 == min_batches {
            peak_rss_kib = sys::peak_rss_kib();
        }
    }
    Timing {
        iters: batch * batch_rates.len() as u64,
        hist,
        batch_rates,
        batch_cpu_ns,
        wall: start.elapsed(),
        peak_rss_kib,
    }
}

/// Server side of one phase. `batches_run` counts across phases.
pub fn server_phase(
    pace: &Pace,
    batch: u64,
    batches_run: &mut u64,
    phases_run: u64,
    cx: &mut Cx,
    f: &mut impl FnMut(&mut Cx),
) {
    while pace.await_batch(*batches_run, phases_run) {
        for _ in 0..batch {
            let it = cx.begin("iter");
            f(cx);
            cx.end(it);
            cx.i += 1;
        }
        *batches_run += 1;
    }
}

/// One measured stretch of a run.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub budget: Duration,
    /// Record spans, count allocations and snapshot the stack's counters.
    pub traced: bool,
}

/// How one cluster bring-up is driven.
pub struct Plan {
    /// Iterations that count as set-up: the first ones of a fresh cluster,
    /// in which heaps grow, pools fill and pages are first touched.
    pub setup_iters: u64,
    /// Further untimed iterations before the first phase.
    pub warmup_iters: u64,
    pub batch: u64,
    pub min_batches: u64,
    /// Empty (and no warm-up) for a set-up-only repeat.
    pub phases: Vec<Phase>,
    /// Flip one byte of the harness's receive buffer on the first timed
    /// iteration (the contract test's fault injection).
    pub flip: bool,
    /// Spans each rank may hold in memory.
    pub span_cap: usize,
}

/// What one rank leaves behind for one phase.
pub struct PhaseOut {
    /// Present on the client only.
    pub timing: Option<Timing>,
    /// The rank's counters over the phase (traced phases only).
    pub counters: Option<MetricsSnapshot>,
    pub spans: Vec<Span>,
    pub spans_dropped: u64,
    /// Allocator `(calls, bytes)` over the phase, whole process (client,
    /// traced phases only).
    pub allocs: (u64, u64),
}

pub struct RankOut {
    pub rank: usize,
    pub phases: Vec<PhaseOut>,
    pub ops: u64,
    pub checks: u64,
    pub failed: u64,
}

/// State shared by the ranks of one bring-up.
pub struct RankRun<'a> {
    plan: &'a Plan,
    pace: Pace,
    /// Shared time base of both ranks' spans.
    epoch: Instant,
    /// When the client had run its set-up iterations.
    ready: Mutex<Option<Instant>>,
    outs: Mutex<Vec<RankOut>>,
}

impl RankRun<'_> {
    /// Run `f` as this rank's iteration: the warm-up, then every phase of
    /// the plan. Rank 0 is the client and times itself; rank 1 serves.
    pub fn iterate(&self, proc: &MotorProc, mut f: impl FnMut(&mut Cx)) {
        let plan = self.plan;
        let client = proc.rank() == 0;
        let mut cx = Cx::new(plan.flip.then_some(plan.setup_iters + plan.warmup_iters));
        for _ in 0..plan.setup_iters {
            f(&mut cx);
            cx.i += 1;
        }
        if client {
            *self.ready.lock().expect("ready stamp lock") = Some(Instant::now());
        }
        for _ in 0..plan.warmup_iters {
            f(&mut cx);
            cx.i += 1;
        }
        let mut phases = Vec::with_capacity(plan.phases.len());
        let mut batches_run = 0;
        for (p, phase) in plan.phases.iter().enumerate() {
            let before = phase.traced.then(|| proc.metrics());
            if phase.traced {
                cx.tracer = Tracer::on(self.epoch, plan.span_cap);
            }
            let mut out = PhaseOut {
                timing: None,
                counters: None,
                spans: Vec::new(),
                spans_dropped: 0,
                allocs: (0, 0),
            };
            if client {
                let allocs0 = sys::alloc_counts();
                sys::count_allocs(phase.traced);
                let timing = client_phase(
                    &self.pace,
                    plan.batch,
                    plan.min_batches,
                    phase.budget,
                    &mut cx,
                    &mut f,
                );
                sys::count_allocs(false);
                let allocs1 = sys::alloc_counts();
                out.allocs = (allocs1.0 - allocs0.0, allocs1.1 - allocs0.1);
                out.timing = Some(timing);
                self.pace.end_phase();
            } else {
                server_phase(
                    &self.pace,
                    plan.batch,
                    &mut batches_run,
                    p as u64,
                    &mut cx,
                    &mut f,
                );
            }
            let tracer = std::mem::replace(&mut cx.tracer, Tracer::off());
            out.spans_dropped = tracer.dropped;
            out.spans = tracer.into_spans();
            out.counters = before.map(|b| proc.metrics().diff(&b));
            if !client {
                self.pace.ack_phase();
            }
            phases.push(out);
        }
        self.outs.lock().expect("rank results lock").push(RankOut {
            rank: proc.rank(),
            phases,
            ops: cx.ops,
            checks: cx.checks,
            failed: cx.failed,
        });
    }
}

/// What one bring-up of a workload produced.
pub struct RunOut {
    /// When the client had its buffers and its set-up iterations behind it.
    pub ready: Instant,
    /// Both ranks, rank 0 first.
    pub ranks: Vec<RankOut>,
}

/// The universe every workload and every ladder rung runs in: the
/// repository's defaults, except that waits spin and yield but never reach
/// the 100 µs sleeping tier of the wait ladder. With the sleeping tier the
/// two ranks fall in and out of a self-sustaining cascade of parks that
/// lasts for seconds, and no two runs of the same code spend the same share
/// of their time in it (README, "Why waits never sleep").
pub fn universe_config() -> UniverseConfig {
    let mut universe = UniverseConfig::default();
    universe.device.wait_backoff = BackoffConfig::no_sleep();
    universe
}

/// The cluster every workload runs on: two ranks over the in-process shm
/// channel.
pub fn cluster_config() -> ClusterConfig {
    ClusterConfig::builder()
        .ranks(2)
        .universe(universe_config())
        .build()
}

/// Bring a two-rank cluster up, each rank started on a processor of its
/// own, run the workload under `plan`, tear down.
pub fn run_workload(w: &dyn RankProgram, plan: &Plan) -> RunOut {
    let run = RankRun {
        plan,
        pace: Pace::default(),
        epoch: Instant::now(),
        ready: Mutex::new(None),
        outs: Mutex::new(Vec::new()),
    };
    must(
        "cluster run",
        run_cluster(
            cluster_config(),
            |reg| w.define_types(reg),
            |proc| {
                sys::start_on_cpu(proc.rank());
                w.rank(proc, &run)
            },
        ),
    );
    let mut ranks = run.outs.into_inner().expect("rank results lock");
    ranks.sort_by_key(|r| r.rank);
    assert_eq!(ranks.len(), 2, "both ranks report");
    RunOut {
        ready: run
            .ready
            .into_inner()
            .expect("ready stamp lock")
            .expect("client stamped its readiness"),
        ranks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_and_server_run_the_same_batches() {
        let pace = Pace::default();
        let (served, timing) = std::thread::scope(|s| {
            let server = s.spawn(|| {
                let mut cx = Cx::new(None);
                let mut run = 0;
                for p in 0..2 {
                    server_phase(&pace, 5, &mut run, p, &mut cx, &mut |_| {});
                    pace.ack_phase();
                }
                cx.i
            });
            let mut cx = Cx::new(None);
            let mut f = |_: &mut Cx| {};
            let t1 = client_phase(&pace, 5, 3, Duration::ZERO, &mut cx, &mut f);
            pace.end_phase();
            let t2 = client_phase(&pace, 5, 2, Duration::ZERO, &mut cx, &mut f);
            pace.end_phase();
            (server.join().expect("server thread"), (t1, t2, cx.i))
        });
        let (t1, t2, client_iters) = timing;
        assert_eq!((t1.iters, t2.iters), (15, 10));
        assert_eq!(t1.hist.count(), 15);
        assert_eq!(t1.batch_rates.len(), 3);
        assert_eq!(served, client_iters);
    }
}
