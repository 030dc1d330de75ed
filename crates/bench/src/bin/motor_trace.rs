//! `motor-trace` — record a cluster trace and inspect exported traces.
//!
//! ```text
//! motor-trace record <out.json> [--ranks N] [--hold-ms N]
//!                                             run a demo workload (repeated
//!                                             until the hold deadline), export
//!                                             the merged Chrome-trace JSON
//! motor-trace summary <trace.json>            wait-time breakdown and
//!                                             critical path of a trace
//! ```
//!
//! `record` runs a small SPMD program exercising every transport path —
//! eager ring exchange, a rendezvous-sized transfer, collectives, and the
//! object-oriented `OSend`/`ORecv` — then merges the per-rank event rings
//! into one timeline and writes Chrome-trace-event JSON loadable at
//! `ui.perfetto.dev`. `summary` re-loads such a file (every field needed
//! for analysis round-trips through the export) and prints the per-rank
//! wait accounting plus the cross-rank critical path.
//!
//! `doctor` runs the same workload under the `motor-doctor` watchdog and
//! writes a flight record. With `--inject-deadlock` the last rank posts a
//! receive no one will ever send to; the watchdog must diagnose it, write
//! the flight record and abort the process with exit code 86 — the CI
//! liveness gate in `scripts/check.sh`.

use std::collections::HashMap;
use std::time::Duration;

use motor_core::cluster::{run_cluster, ClusterConfig};
use motor_core::Source;
use motor_obs::{from_chrome_json, ClusterTrace, DoctorConfig};
use motor_runtime::{ElemKind, TypeRegistry};

/// Exit code the doctor uses to abort an injected-deadlock run.
const DOCTOR_ABORT_CODE: i32 = 86;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("record") => record(&args[1..]),
        Some("summary") => summary(&args[1..]),
        Some("doctor") => doctor(&args[1..]),
        _ => {
            eprintln!("usage: motor-trace record <out.json> [--ranks N] [--hold-ms N]");
            eprintln!("       motor-trace summary <trace.json>");
            eprintln!("       motor-trace doctor <record.json> [--ranks N] [--inject-deadlock]");
            2
        }
    };
    std::process::exit(code);
}

fn record(args: &[String]) -> i32 {
    let Some(out) = args.first() else {
        eprintln!("record: missing output path");
        return 2;
    };
    let mut ranks = 4usize;
    let mut hold_ms = 0u64;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--ranks" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 2 => ranks = n,
                _ => {
                    eprintln!("record: --ranks needs an integer >= 2");
                    return 2;
                }
            },
            "--hold-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(ms) => hold_ms = ms,
                None => {
                    eprintln!("record: --hold-ms needs an integer");
                    return 2;
                }
            },
            other => {
                eprintln!("record: unknown argument `{other}`");
                return 2;
            }
        }
    }

    let config = ClusterConfig::builder()
        .ranks(ranks)
        .event_capacity(1 << 14)
        .build();
    // With --hold-ms the workload repeats until the deadline, so a live
    // telemetry endpoint (MOTOR_TELEMETRY) has something to watch. Rank 0
    // owns the clock and tells everyone whether to go again — per-rank
    // timers could disagree by one iteration and deadlock a collective.
    let hold = Duration::from_millis(hold_ms);
    let t0 = std::time::Instant::now();
    const HOLD_TAG: i32 = 0x484f4c44; // "HOLD"
    let body = move |proc: &motor_core::MotorProc| {
        demo_body(proc);
        let comm = proc.comm();
        loop {
            let mut flag = [(comm.rank() == 0 && t0.elapsed() < hold) as u8];
            if comm.rank() == 0 {
                for peer in 1..comm.size() {
                    if comm.send_bytes(&flag, peer, HOLD_TAG).is_err() {
                        return;
                    }
                }
            } else if comm.recv_bytes(&mut flag, 0, HOLD_TAG).is_err() {
                return;
            }
            if flag[0] == 0 {
                return;
            }
            demo_body(proc);
        }
    };
    let metrics = match run_cluster(config, define_types, body) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("record: cluster run failed: {e:?}");
            return 1;
        }
    };
    for (r, off) in metrics.clock_offset_estimates.iter().enumerate() {
        eprintln!("rank {r}: clock-offset estimate {off} ns (shared epoch; pure handshake noise)");
    }
    let trace = metrics.trace();
    eprintln!(
        "merged {} ranks: {} spans, {} message edges",
        trace.ranks,
        trace.spans.len(),
        trace.edges.len()
    );
    let json = metrics.chrome_trace_json();
    if let Err(e) = std::fs::write(out, &json) {
        eprintln!("record: writing {out}: {e}");
        return 1;
    }
    eprintln!(
        "wrote {out} ({} bytes) — open at ui.perfetto.dev",
        json.len()
    );
    0
}

fn doctor(args: &[String]) -> i32 {
    let Some(out) = args.first() else {
        eprintln!("doctor: missing flight-record output path");
        return 2;
    };
    let mut ranks = 4usize;
    let mut inject = false;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--ranks" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 2 => ranks = n,
                _ => {
                    eprintln!("doctor: --ranks needs an integer >= 2");
                    return 2;
                }
            },
            "--inject-deadlock" => inject = true,
            other => {
                eprintln!("doctor: unknown argument `{other}`");
                return 2;
            }
        }
    }

    let cfg = DoctorConfig {
        scan_interval: Duration::from_millis(25),
        stall_deadline: Duration::from_millis(400),
        record_path: Some(out.clone()),
        // The injected deadlock can never resolve: once diagnosed and
        // recorded, abort the whole process so the CI gate terminates.
        exit_code: inject.then_some(DOCTOR_ABORT_CODE),
        record_on_exit: true,
        ..DoctorConfig::default()
    };
    let config = ClusterConfig::builder()
        .ranks(ranks)
        .event_capacity(1 << 14)
        .doctor(cfg)
        .build();
    let metrics = match run_cluster(config, define_types, |proc| {
        demo_body(proc);
        if inject && proc.rank() == proc.size() - 1 {
            // A receive no rank will ever send to: the watchdog must blame
            // this rank and op, then abort with DOCTOR_ABORT_CODE.
            let t = proc.thread();
            let buf = t.alloc_prim_array(ElemKind::U8, 16);
            let _ = proc.mp().recv(buf, 0, 0x0dead);
        }
    }) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("doctor: cluster run failed: {e:?}");
            return 1;
        }
    };
    if metrics.anomalies.is_empty() {
        eprintln!("doctor: healthy run, no anomalies; flight record at {out}");
        0
    } else {
        eprintln!(
            "doctor: {} anomalie(s) diagnosed; flight record at {out}",
            metrics.anomalies.len()
        );
        1
    }
}

fn define_types(reg: &mut TypeRegistry) {
    let arr = reg.prim_array(ElemKind::I32);
    reg.define_class("Payload")
        .prim("tag", ElemKind::I32)
        .transportable("data", arr)
        .build();
}

/// The demo rank program: eager ring shift, rendezvous transfer from rank
/// 0 to the last rank, an allreduce, and an object send/receive pair.
fn demo_body(proc: &motor_core::MotorProc) {
    let mp = proc.mp();
    let t = proc.thread();
    let (rank, size) = (mp.rank(), mp.size());

    // Eager ring: everyone sends a small buffer to the right neighbour.
    let small = t.alloc_prim_array(ElemKind::I64, 64);
    let right = (rank + 1) % size;
    let left = (rank + size - 1) % size;
    if rank % 2 == 0 {
        mp.send(small, right, 7).unwrap();
        mp.recv(small, left, 7).unwrap();
    } else {
        let recv = t.alloc_prim_array(ElemKind::I64, 64);
        mp.recv(recv, left, 7).unwrap();
        mp.send(small, right, 7).unwrap();
        t.release(recv);
    }

    // Rendezvous: a transfer well past the eager threshold, first to last.
    let big_n = 1 << 17;
    if rank == 0 {
        let big = t.alloc_prim_array(ElemKind::U8, big_n);
        mp.send(big, size - 1, 9).unwrap();
        t.release(big);
    } else if rank == size - 1 {
        let big = t.alloc_prim_array(ElemKind::U8, big_n);
        let st = mp.recv(big, 0, 9).unwrap();
        assert_eq!(st.bytes, big_n);
        t.release(big);
    }

    // A collective everyone participates in.
    let send = t.alloc_prim_array(ElemKind::I64, 8);
    let recv = t.alloc_prim_array(ElemKind::I64, 8);
    t.prim_write(send, 0, &[rank as i64; 8]);
    mp.allreduce(send, recv, motor_mpc::ReduceOp::Sum).unwrap();

    // Object transport: rank 0 ships a small object tree to rank 1.
    let oomp = proc.oomp();
    if rank == 0 {
        let class = proc.vm().registry().by_name("Payload").unwrap();
        let obj = t.alloc_instance(class);
        let data = t.alloc_prim_array(ElemKind::I32, 32);
        t.set_ref(obj, t.field_index(class, "data"), data);
        oomp.osend(obj, 1, 11).unwrap();
        t.release(data);
        t.release(obj);
    } else if rank == 1 {
        let (root, st) = oomp.orecv(Source::Any, 11).unwrap();
        assert_eq!(st.source, 0);
        t.release(root);
    }
    mp.barrier().unwrap();
    t.release(small);
    t.release(send);
    t.release(recv);
}

fn summary(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!("summary: missing trace path");
        return 2;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("summary: reading {path}: {e}");
            return 1;
        }
    };
    let trace = match from_chrome_json(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("summary: {path} is not a Motor Chrome trace: {e}");
            return 1;
        }
    };
    print_summary(&trace);
    0
}

fn print_summary(trace: &ClusterTrace) {
    println!(
        "trace: {} ranks, {} spans, {} message edges",
        trace.ranks,
        trace.spans.len(),
        trace.edges.len()
    );
    for (rank, dropped, orphaned) in trace.coverage_gaps() {
        println!(
            "  WARNING: rank {rank} span coverage has gaps ({dropped} events \
             overwritten, {orphaned} span ends with no recorded begin) — the \
             wait breakdown below is a lower bound; raise the ring size \
             (ClusterConfig::builder().event_capacity)"
        );
    }

    let mut by_kind: HashMap<&'static str, (usize, u64)> = HashMap::new();
    for e in &trace.edges {
        let ent = by_kind.entry(e.kind.name()).or_default();
        ent.0 += 1;
        ent.1 += e.latency_nanos().max(0) as u64;
    }
    let mut rows: Vec<_> = by_kind.into_iter().collect();
    rows.sort();
    for (kind, (n, total)) in rows {
        println!(
            "  edges[{kind}]: {n}, mean latency {:.1} us",
            total as f64 / n as f64 / 1e3
        );
    }

    println!("\nper-rank wait time:");
    for wb in trace.wait_breakdown() {
        let pct = if wb.window_nanos == 0 {
            0.0
        } else {
            100.0 * wb.total_wait_nanos as f64 / wb.window_nanos as f64
        };
        println!(
            "  rank {}: {:.3} ms of {:.3} ms window waiting ({pct:.1}%)",
            wb.rank,
            wb.total_wait_nanos as f64 / 1e6,
            wb.window_nanos as f64 / 1e6,
        );
        for (kind, ns) in &wb.by_kind {
            println!("    {:<16} {:.3} ms", kind.name(), *ns as f64 / 1e6);
        }
    }

    let cp = trace.critical_path();
    println!(
        "\ncritical path: {} spans, {:.3} ms of work",
        cp.span_ids.len(),
        cp.total_nanos as f64 / 1e6
    );
    let spans: HashMap<u64, _> = trace.spans.iter().map(|s| (s.id, s)).collect();
    const SHOWN: usize = 20;
    for id in cp.span_ids.iter().take(SHOWN) {
        if let Some(s) = spans.get(id) {
            println!(
                "  #{id} rank {} {:<12} {:.3} ms",
                s.rank,
                s.kind.name(),
                s.dur_nanos() as f64 / 1e6
            );
        }
    }
    if cp.span_ids.len() > SHOWN {
        println!("  ... {} more spans", cp.span_ids.len() - SHOWN);
    }
}
