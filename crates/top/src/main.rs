//! `motor-top` — a real-time terminal dashboard over a Motor telemetry
//! endpoint.
//!
//! Attach to a cluster started with `MOTOR_TELEMETRY=<addr>` (or
//! `ClusterConfig::builder().telemetry(..)`) and watch every rank live:
//! message and byte rates, the eager/rendezvous protocol mix, time-bucket
//! bars, comm/compute overlap, GC stall percentile sparklines, the
//! in-flight op table with heartbeat ages, and any anomalies the
//! `motor-doctor` watchdog has diagnosed.
//!
//! ```text
//! motor-top [ADDR] [--once] [--raw ENDPOINT [--check]] [--interval-ms N]
//! ```
//!
//! * `ADDR` — the telemetry endpoint (default `127.0.0.1:9612`).
//! * `--once` — validate `/metrics` against the exposition format, render
//!   one dashboard screen and exit (no screen clearing; scriptable).
//! * `--raw ENDPOINT` — fetch `/ENDPOINT` and print the body verbatim
//!   (`metrics`, `healthz`, `flight`, `frames`); exit nonzero unless the
//!   server answered 200.
//! * `--check` — with `--raw frames` or `--raw flight`: instead of
//!   printing the body, run it through the reader the dashboard uses and
//!   print how many records it read; exit 2 if the reader refuses what the
//!   server wrote.
//! * `--interval-ms N` — refresh period in live mode (default 1000).
//!
//! The client speaks the same hand-rolled HTTP/1.1 the server does, and
//! what it renders are the server's own records: `/frames` read back into
//! [`TelemetryFrame`]s of [`RankRecord`]s by `motor-obs`, the one reader
//! of the one writer.

#![forbid(unsafe_code)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use motor_obs::export::json::{self, Value};
use motor_obs::{frames_from_json, Metric, RankRecord, TelemetryFrame};

const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

fn usage() -> ! {
    eprintln!("usage: motor-top [ADDR] [--once] [--raw ENDPOINT [--check]] [--interval-ms N]");
    std::process::exit(2);
}

struct Args {
    addr: String,
    once: bool,
    raw: Option<String>,
    check: bool,
    interval: Duration,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:9612".to_string(),
        once: false,
        raw: None,
        check: false,
        interval: Duration::from_millis(1000),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--once" => args.once = true,
            "--check" => args.check = true,
            "--raw" => match it.next() {
                Some(e) => args.raw = Some(e.trim_start_matches('/').to_string()),
                None => usage(),
            },
            "--interval-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(ms) => args.interval = Duration::from_millis(ms),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') => args.addr = other.to_string(),
            _ => usage(),
        }
    }
    args
}

/// Minimal HTTP/1.1 GET: returns `(status, body)`.
fn http_get(addr: &str, path: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| "malformed response".to_string())?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| "malformed status line".to_string())?;
    Ok((status, body.to_string()))
}

// ---------------------------------------------------------------------------
// Formatting helpers
// ---------------------------------------------------------------------------

/// `x` in the largest of four units, each `step` times the one before,
/// that it reaches: one decimal, none in the base unit.
fn scaled(x: f64, step: f64, units: [&str; 4]) -> String {
    let mut unit = 0;
    let mut x = x;
    while x >= step && unit < 3 {
        x /= step;
        unit += 1;
    }
    let decimals = usize::from(unit > 0);
    format!("{x:.decimals$}{}", units[unit])
}

fn fmt_count(x: f64) -> String {
    scaled(x, 1e3, ["", "k", "M", "G"])
}

fn fmt_bytes(x: f64) -> String {
    scaled(x, 1024.0, ["B", "KiB", "MiB", "GiB"])
}

fn fmt_nanos(n: u64) -> String {
    scaled(n as f64, 1e3, ["ns", "µs", "ms", "s"])
}

/// Map a series onto the eight spark glyphs, scaled to the series max.
fn sparkline(series: &[u64]) -> String {
    let max = series.iter().copied().max().unwrap_or(0);
    series
        .iter()
        .map(|&v| {
            if max == 0 {
                SPARK[0]
            } else {
                // Nonzero values always render at least one step up.
                let idx = ((v as f64 / max as f64) * 7.0).ceil() as usize;
                SPARK[idx.min(7)]
            }
        })
        .collect()
}

/// A `width`-character bar showing `frac` (0..=1) filled.
fn bar(frac: f64, width: usize) -> String {
    let filled = (frac.clamp(0.0, 1.0) * width as f64).round() as usize;
    let mut s = String::new();
    for i in 0..width {
        s.push(if i < filled { '█' } else { '·' });
    }
    s
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// Named time buckets shown as bars (fraction of the window each).
const BUCKETS: [(&str, Metric); 5] = [
    ("cpu", Metric::ProfComputeNanos),
    ("wait", Metric::ProfCommWaitNanos),
    ("prog", Metric::ProfProgressNanos),
    ("gc", Metric::ProfGcNanos),
    ("ser", Metric::ProfSerializeNanos),
];

fn render_rank(out: &mut String, r: &RankRecord, history: &[TelemetryFrame]) {
    let count = |m| r.snapshot.get(m);
    let sends = r.msgs_out().max(1);
    out.push_str(&format!(
        "{:<12} {} {:>8} msg/s out  {:>8} msg/s in  {:>10}/s out  {:>10}/s in\n",
        r.label,
        if r.done { "done " } else { "run  " },
        fmt_count(r.per_sec(r.msgs_out())),
        fmt_count(r.per_sec(r.msgs_in())),
        fmt_bytes(r.per_sec(count(Metric::ChanBytesOut))),
        fmt_bytes(r.per_sec(count(Metric::ChanBytesIn))),
    ));
    let (posted, unexpected, pending_sends, active_recvs) = r.queue_depths;
    out.push_str(&format!(
        "  protocol  eager {:>3.0}%  rndv {:>3.0}%   queues p/u/s/a {posted}/{unexpected}/{pending_sends}/{active_recvs}   heap {} / {}\n",
        count(Metric::SendsEager) as f64 * 100.0 / sends as f64,
        count(Metric::SendsRndv) as f64 * 100.0 / sends as f64,
        fmt_bytes(r.heap_used_bytes as f64),
        fmt_bytes(r.heap_capacity_bytes as f64),
    ));
    // Time buckets: fraction of this window's wall clock per class.
    out.push_str("  time     ");
    for (name, bucket) in BUCKETS {
        let frac = if r.window_nanos == 0 {
            0.0
        } else {
            count(bucket) as f64 / r.window_nanos as f64
        };
        out.push_str(&format!(" {name} {} {:>3.0}%", bar(frac, 8), frac * 100.0));
    }
    out.push('\n');
    let overlap = r
        .snapshot
        .overlap_ratio()
        .map_or("   -".to_string(), |o| format!("{:>3.0}%", o * 100.0));
    // Stall sparklines over the retained frames (this rank's history).
    let series = |p: f64| -> Vec<u64> {
        history
            .iter()
            .filter_map(|f| {
                f.ranks
                    .iter()
                    .find(|x| x.group == r.group && x.rank == r.rank)
                    .map(|x| x.gc_stalls().percentile(p))
            })
            .collect()
    };
    out.push_str(&format!(
        "  overlap {overlap}   gc stall p50 {} {:>8}   p99 {} {:>8}\n",
        sparkline(&series(0.50)),
        fmt_nanos(r.gc_stalls().p50()),
        sparkline(&series(0.99)),
        fmt_nanos(r.gc_stalls().p99()),
    ));
    for op in &r.inflight {
        let (peer, tag) = op.peer_tag();
        out.push_str(&format!(
            "  inflight {:<12} peer {:<3} tag {:<6} age {:>8}  last beat {:>8} ago ({} beats)\n",
            op.kind.name(),
            peer,
            tag,
            fmt_nanos(op.age_nanos(r.now_nanos)),
            fmt_nanos(op.idle_nanos(r.now_nanos)),
            op.beats
        ));
    }
}

/// One full dashboard screen from the frame history plus `/healthz`.
fn render(frames: &[TelemetryFrame], healthz: Option<&Value>, addr: &str) -> String {
    let mut out = String::new();
    let Some(latest) = frames.last() else {
        out.push_str(&format!(
            "motor-top @ {addr} — no frames yet (cluster starting, or no ranks registered)\n"
        ));
        return out;
    };
    let status = healthz
        .and_then(|h| h.get("status"))
        .and_then(Value::as_str)
        .unwrap_or("?");
    let dropped = healthz
        .and_then(|h| h.get("trace_events_dropped"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    out.push_str(&format!(
        "motor-top @ {addr}   frame #{} (window {})   ranks {}   health: {status}\n\n",
        latest.seq,
        fmt_nanos(latest.ranks.first().map_or(0, |r| r.window_nanos)),
        latest.ranks.len(),
    ));
    for r in &latest.ranks {
        render_rank(&mut out, r, frames);
        out.push('\n');
    }
    if dropped > 0 {
        out.push_str(&format!(
            "warning: {dropped} trace events dropped (grow --event-capacity to keep full rings)\n"
        ));
    }
    if let Some(anoms) = healthz
        .and_then(|h| h.get("anomalies"))
        .and_then(Value::as_array)
    {
        for a in anoms {
            out.push_str(&format!(
                "anomaly: {} rank {} — {}\n",
                a.get("kind").and_then(Value::as_str).unwrap_or("?"),
                a.get("rank").and_then(Value::as_u64).unwrap_or(0),
                a.get("detail").and_then(Value::as_str).unwrap_or(""),
            ));
        }
    }
    out
}

fn fetch_screen(addr: &str) -> Result<String, String> {
    let (status, body) = http_get(addr, "/frames")?;
    if status != 200 {
        return Err(format!("/frames answered {status}"));
    }
    let frames = frames_from_json(&body)?;
    // /healthz may legitimately answer 503 (anomalies); render either way.
    let healthz = http_get(addr, "/healthz")
        .ok()
        .and_then(|(_, b)| json::parse(&b).ok());
    Ok(render(&frames, healthz.as_ref(), addr))
}

/// Write to stdout without panicking when the reader hangs up — piping
/// into `head`/`jq` closes the pipe early, which `print!` treats as
/// fatal. A broken pipe just ends the program quietly.
fn emit(text: &str) {
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_all(text.as_bytes()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("motor-top: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

/// `--check`: the number of rank records the library's reader gets out of
/// a `/frames` or `/flight` body.
fn check_records(endpoint: &str, body: &str) -> Result<usize, String> {
    match endpoint {
        "frames" => Ok(frames_from_json(body)?.iter().map(|f| f.ranks.len()).sum()),
        "flight" => {
            let doc = json::parse(body)?;
            if doc.get("motor_flight_record").and_then(Value::as_u64) != Some(1) {
                return Err("not a motor flight record".to_string());
            }
            Ok(RankRecord::all_from_json(&doc)?.len())
        }
        _ => Err("--check reads frames and flight".to_string()),
    }
}

/// Say why on stderr and exit with `code`.
fn die(code: i32, why: impl std::fmt::Display) -> ! {
    eprintln!("motor-top: {why}");
    std::process::exit(code)
}

fn main() {
    let args = parse_args();
    if args.check && args.raw.is_none() {
        usage();
    }

    if let Some(endpoint) = &args.raw {
        let (status, body) =
            http_get(&args.addr, &format!("/{endpoint}")).unwrap_or_else(|e| die(1, e));
        if !args.check {
            emit(&body);
        } else {
            match check_records(endpoint, &body) {
                Ok(n) => emit(&format!("/{endpoint}: {n} rank records read back\n")),
                Err(e) => die(2, format!("/{endpoint} does not read back: {e}")),
            }
        }
        if status != 200 {
            die(1, format!("/{endpoint} answered {status}"));
        }
        return;
    }

    if args.once {
        // Snapshot mode: validate the exposition document, then render one
        // screen. Nonzero exit on any failure so CI can gate on it.
        match http_get(&args.addr, "/metrics").unwrap_or_else(|e| die(1, e)) {
            (200, body) => {
                if let Err(e) = motor_obs::check_prometheus_text(&body) {
                    die(2, format!("/metrics failed exposition check: {e}"));
                }
            }
            (status, _) => die(1, format!("/metrics answered {status}")),
        }
        emit(&fetch_screen(&args.addr).unwrap_or_else(|e| die(1, e)));
        return;
    }

    // Live mode: redraw until the endpoint goes away (cluster exit).
    let mut misses = 0u32;
    loop {
        match fetch_screen(&args.addr) {
            Ok(screen) => {
                misses = 0;
                // Clear screen + home, then the frame.
                emit(&format!("\x1b[2J\x1b[H{screen}"));
                let _ = std::io::stdout().flush();
            }
            Err(e) => {
                misses += 1;
                if misses >= 3 {
                    die(1, format!("{e}; giving up"));
                }
            }
        }
        std::thread::sleep(args.interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two frames as the server writes them, read back the way
    /// `fetch_screen` does.
    fn sample_frames() -> Vec<TelemetryFrame> {
        use motor_obs::{frames_to_json, span_arg_peer_tag, InflightOp, MetricsRegistry, SpanKind};
        let reg = MetricsRegistry::new();
        reg.add(Metric::SendsEager, 10);
        reg.add(Metric::ChanBytesOut, 4096);
        let busy = RankRecord {
            label: "rank 0".into(),
            now_nanos: 2_000_000,
            window_nanos: 1_000_000,
            queue_depths: (1, 0, 2, 0),
            heap_used_bytes: 1 << 20,
            heap_capacity_bytes: 1 << 24,
            inflight: vec![InflightOp {
                token: 2,
                kind: SpanKind::MpRecv,
                arg: span_arg_peer_tag(1, 7),
                since_nanos: 1_500_000,
                beat_nanos: 1_900_000,
                beats: 3,
            }],
            snapshot: reg.snapshot_counters(),
            ..RankRecord::default()
        };
        let idle = RankRecord {
            rank: 1,
            label: "rank 1".into(),
            done: true,
            ..RankRecord::default()
        };
        let frames = [(1, vec![]), (2, vec![busy, idle])].map(|(seq, ranks)| {
            std::sync::Arc::new(TelemetryFrame {
                seq,
                t_nanos: seq * 1_000_000,
                ranks,
            })
        });
        frames_from_json(&frames_to_json(&frames, 240)).expect("the reader reads the writer")
    }

    #[test]
    fn render_shows_every_rank_and_inflight_age() {
        let frames = sample_frames();
        assert_eq!(frames.len(), 2);
        let health =
            json::parse(r#"{"status":"ok","trace_events_dropped":9,"anomalies":[]}"#).unwrap();
        let screen = render(&frames, Some(&health), "127.0.0.1:9612");
        assert!(screen.contains("rank 0"), "{screen}");
        assert!(screen.contains("rank 1"), "{screen}");
        assert!(screen.contains("health: ok"));
        // 10 msgs over 1ms = 10k msg/s.
        assert!(screen.contains("10.0k"), "{screen}");
        assert!(screen.contains("queues p/u/s/a 1/0/2/0"), "{screen}");
        // In-flight recv from rank 1 with its heartbeat age (2000000-1900000).
        assert!(screen.contains("inflight mp_recv"), "{screen}");
        assert!(screen.contains("100.0µs ago"), "{screen}");
        assert!(
            screen.contains("warning: 9 trace events dropped"),
            "{screen}"
        );
    }

    #[test]
    fn check_counts_records_and_refuses_other_documents() {
        use motor_obs::FlightRecord;
        let flight = FlightRecord {
            t_nanos: 5,
            anomalies: Vec::new(),
            ranks: sample_frames()[1].ranks.clone(),
        };
        assert_eq!(check_records("flight", &flight.to_json()), Ok(2));
        assert!(check_records("frames", &flight.to_json()).is_err());
        assert!(check_records("flight", "{\"ranks\":[]}").is_err());
        assert!(check_records("healthz", "{}").is_err());
    }

    #[test]
    fn render_without_frames_is_calm() {
        let screen = render(&[], None, "x");
        assert!(screen.contains("no frames yet"));
    }

    #[test]
    fn sparkline_and_bar_shapes() {
        assert_eq!(sparkline(&[0, 0]), "▁▁");
        let s = sparkline(&[0, 1, 4, 8]);
        assert_eq!(s.chars().count(), 4);
        assert!(s.ends_with('█'));
        assert_eq!(bar(0.5, 8), "████····");
        assert_eq!(bar(2.0, 4), "████");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_count(950.0), "950");
        assert_eq!(fmt_count(10_000.0), "10.0k");
        assert_eq!(fmt_bytes(2048.0), "2.0KiB");
        assert_eq!(fmt_nanos(1_500), "1.5µs");
        assert_eq!(fmt_nanos(2_000_000_000), "2.0s");
    }
}
