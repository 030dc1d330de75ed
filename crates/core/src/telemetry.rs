//! The live telemetry plane: the per-rank observation, the collection
//! tick, and the in-process HTTP scrape endpoint.
//!
//! Everything the stack measures — per-rank metrics registries,
//! time-bucket accounting, in-flight op tables, heap occupancy — is
//! watchable *while the workload runs*, through one data model:
//!
//! * A rank is observed into a [`RankRecord`] in exactly one place,
//!   `RankHooks::observe`. Everything else is a function of records.
//! * [`Collector`] owns the rank hooks and, once per tick, observes every
//!   rank (counters and histograms; the event rings are left alone), takes
//!   each record [`since`](RankRecord::since) the previous tick's, and
//!   pushes the deltas as one [`TelemetryFrame`] into a bounded
//!   [`FrameRing`]. The [`DoctorServer`](crate::doctor::DoctorServer)
//!   classifies that frame's records — one scan, two consumers. A flight
//!   record is the same observation with the event rings drained.
//! * [`start_monitor`] runs the single collection loop; it ticks at the
//!   shortest enabled interval and hands each frame to the doctor.
//! * [`TelemetryServer`] is a minimal hand-rolled HTTP/1.1 listener (no
//!   new dependencies, the same stance as the no-`syn` derive macro)
//!   serving `GET /metrics` (Prometheus text, per-rank labels, plus the
//!   heap and in-flight gauges of the newest frame), `/healthz` (the
//!   doctor's anomaly list as status code + JSON; empty, so 200, when no
//!   doctor is attached), `/flight` (an on-demand flight record without
//!   aborting anything), and `/frames` (the delta ring as a JSON time
//!   series). At most [`MAX_CONNECTIONS`] requests are served at once;
//!   a connection over the cap is closed as soon as it is accepted.
//!
//! Enable it per run with
//! [`ClusterConfigBuilder::telemetry`](crate::cluster::ClusterConfigBuilder::telemetry)
//! or the `MOTOR_TELEMETRY` environment variable; when neither is set
//! (and no doctor is enabled) none of this exists — no collector, no
//! thread, no socket — preserving the zero-cost-when-off contract.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use motor_mpc::Device;
use motor_obs::telemetry::{
    frame_prometheus, frames_to_json, FrameRing, RankRecord, TelemetryFrame, DEFAULT_FRAME_CAPACITY,
};
use motor_obs::{spec, to_prometheus_multi, Anomaly, FlightRecord, Metric, MetricsSnapshot};
use motor_runtime::Vm;
use parking_lot::Mutex;

use crate::doctor::DoctorServer;

/// Configuration of the telemetry endpoint. Build one directly, or parse
/// the `MOTOR_TELEMETRY` environment variable with
/// [`TelemetryConfig::from_env`].
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Address to bind the HTTP listener to. Use port 0 to let the OS
    /// pick (read it back with [`TelemetryServer::local_addr`]).
    pub addr: String,
    /// Collection-tick interval (one frame per tick).
    pub interval: Duration,
    /// Frames the ring retains (the sliding window `/frames` and
    /// `motor-top` sparklines can see).
    pub frame_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            addr: "127.0.0.1:9612".to_string(),
            interval: Duration::from_millis(250),
            frame_capacity: DEFAULT_FRAME_CAPACITY,
        }
    }
}

impl TelemetryConfig {
    /// Parse a `MOTOR_TELEMETRY` value (grammar: [`motor_obs::spec`]).
    /// `1`/`on` yield the defaults; a bare `host:port` sets the address;
    /// the keys are `addr=<host:port>`, `interval_ms=<n>`, `frames=<n>`.
    /// Any other key or bare token, and a value that does not parse, is
    /// an error.
    pub fn parse(spec: &str) -> Result<TelemetryConfig, String> {
        let mut cfg = TelemetryConfig::default();
        for (key, v) in spec::pairs(spec) {
            match key {
                "1" | "on" if v.is_none() => {}
                "addr" => cfg.addr = spec::value(key, v)?,
                "interval_ms" => cfg.interval = Duration::from_millis(spec::value(key, v)?),
                "frames" => cfg.frame_capacity = spec::value(key, v)?,
                addr if v.is_none() && addr.contains(':') => cfg.addr = addr.to_string(),
                _ => {
                    return Err(format!(
                        "unknown key {key:?} (use addr|interval_ms|frames, or a bare host:port)"
                    ))
                }
            }
        }
        Ok(cfg)
    }

    /// The configuration the `MOTOR_TELEMETRY` environment variable asks
    /// for (see [`spec::from_env`]: `None` when off, a panic when
    /// malformed).
    pub fn from_env() -> Option<TelemetryConfig> {
        spec::from_env("MOTOR_TELEMETRY", Self::parse)
    }
}

/// Handle to one registered rank; pass back to
/// [`Collector::mark_done`] when the rank body returns.
#[derive(Debug, Clone, Copy)]
pub struct RankTicket(usize);

/// One monitored rank: everything an observation reads, all lock-free or
/// briefly-locked so a tick never blocks the rank.
struct RankHooks {
    /// Human label (`"rank 2"`, `"child 1.0"`, ...).
    label: String,
    /// Rank within its group (world rank, or child-world rank).
    rank: usize,
    /// Spawn group: 0 for the initial world, one per `spawn_children`
    /// batch after that.
    group: usize,
    /// The rank's device, whose registry its VM records into too.
    device: Arc<Device>,
    vm: Arc<Vm>,
    done: AtomicBool,
    /// The previous tick's observation, what the next frame is taken
    /// [`since`](RankRecord::since) (mutated by [`Collector::collect`]
    /// only).
    prev: Mutex<Option<RankRecord>>,
    /// Last successfully read heap occupancy — kept when a GC holds the
    /// state lock at observation time, so the gauge never stalls the
    /// monitor.
    heap_used: AtomicU64,
    heap_capacity: AtomicU64,
}

impl RankHooks {
    /// Observe the rank: the one place a [`RankRecord`] is built from a
    /// live rank. Pure but for dating the table's signs of life (see
    /// [`motor_obs::MetricsRegistry::last_progress_nanos`]) — windowing is the
    /// caller's [`RankRecord::since`]. `events` drains the event ring as
    /// well — what a flight record wants, and a collection tick does not.
    fn observe(&self, events: bool) -> RankRecord {
        let reg = self.device.metrics();
        let (hard_pins, cond_pins, oldest_pin) = self.vm.pin_diagnostics();
        if let Some((used, capacity)) = self.vm.heap_usage() {
            self.heap_used.store(used, Ordering::Relaxed);
            self.heap_capacity.store(capacity, Ordering::Relaxed);
        }
        RankRecord {
            group: self.group,
            rank: self.rank,
            label: self.label.clone(),
            done: self.done.load(Ordering::Acquire),
            now_nanos: reg.now_nanos(),
            window_nanos: 0,
            last_progress_nanos: reg.last_progress_nanos(),
            inflight: reg.inflight_ops(),
            queue_depths: self.device.queue_depths(),
            hard_pins,
            cond_pins,
            oldest_pin_nanos: oldest_pin.map_or(0, |d| d.as_nanos() as u64),
            heap_used_bytes: self.heap_used.load(Ordering::Relaxed),
            heap_capacity_bytes: self.heap_capacity.load(Ordering::Relaxed),
            snapshot: if events {
                reg.snapshot()
            } else {
                reg.snapshot_counters()
            },
        }
    }
}

/// The shared collection state: registered rank hooks and the frame ring.
/// One per cluster run, created whenever the doctor *or* the telemetry
/// endpoint is enabled; both consume its ticks.
pub struct Collector {
    ranks: Mutex<Vec<Arc<RankHooks>>>,
    next_group: AtomicUsize,
    ring: FrameRing,
}

impl Collector {
    /// A collector with no ranks registered and a ring of
    /// `frame_capacity` frames.
    pub fn new(frame_capacity: usize) -> Arc<Collector> {
        Arc::new(Collector {
            ranks: Mutex::new(Vec::new()),
            next_group: AtomicUsize::new(1),
            ring: FrameRing::new(frame_capacity),
        })
    }

    /// Allocate a fresh spawn group for a `spawn_children` batch.
    pub fn alloc_group(&self) -> usize {
        self.next_group.fetch_add(1, Ordering::Relaxed)
    }

    /// Register a rank of spawn group `group`: 0 for the initial world,
    /// else from [`Self::alloc_group`].
    pub fn register_in_group(
        &self,
        group: usize,
        rank: usize,
        label: String,
        device: Arc<Device>,
        vm: Arc<Vm>,
    ) -> RankTicket {
        let mut ranks = self.ranks.lock();
        ranks.push(Arc::new(RankHooks {
            label,
            rank,
            group,
            device,
            vm,
            done: AtomicBool::new(false),
            prev: Mutex::new(None),
            heap_used: AtomicU64::new(0),
            heap_capacity: AtomicU64::new(0),
        }));
        RankTicket(ranks.len() - 1)
    }

    /// Record that a rank's body returned (its silence is no longer
    /// suspicious, and peers blocked on it can be blamed).
    pub fn mark_done(&self, ticket: RankTicket) {
        if let Some(h) = self.ranks.lock().get(ticket.0) {
            h.done.store(true, Ordering::Release);
        }
    }

    /// Number of ranks registered so far (across all groups).
    pub fn ranks_registered(&self) -> usize {
        self.ranks.lock().len()
    }

    /// The delta-frame ring.
    pub fn ring(&self) -> &FrameRing {
        &self.ring
    }

    fn sorted_hooks(&self) -> Vec<Arc<RankHooks>> {
        let mut hooks: Vec<Arc<RankHooks>> = self.ranks.lock().clone();
        hooks.sort_by_key(|h| (h.group, h.rank));
        hooks
    }

    /// One collection tick: observe every rank, take each record since
    /// the previous tick's, push the deltas as one frame into the ring
    /// and return it for classification (`None` while no rank is
    /// registered). Called from the monitor loop (and on-demand scans)
    /// only.
    pub fn collect(&self) -> Option<Arc<TelemetryFrame>> {
        let hooks = self.sorted_hooks();
        let t_nanos = hooks.first()?.device.metrics().now_nanos();
        let ranks = hooks
            .iter()
            .map(|h| {
                let now = h.observe(false);
                let mut prev = h.prev.lock();
                let delta = prev.as_ref().map_or_else(|| now.clone(), |p| now.since(p));
                *prev = Some(now);
                delta
            })
            .collect();
        Some(self.ring.push(t_nanos, ranks))
    }

    /// Cut a flight record: every rank observed now, event rings drained.
    /// Touches neither the ring nor the ticks' windows (the doctor on an
    /// anomaly, the `/flight` endpoint, the exit record).
    pub fn flight_record(&self, anomalies: Vec<Anomaly>) -> FlightRecord {
        let hooks = self.sorted_hooks();
        FlightRecord {
            t_nanos: hooks.first().map_or(0, |h| h.device.metrics().now_nanos()),
            anomalies,
            ranks: hooks.iter().map(|h| h.observe(true)).collect(),
        }
    }

    /// The `/metrics` document: every rank's snapshot rendered as
    /// one exposition document (each family's `# TYPE` emitted once, one
    /// sample per rank with `group`/`rank` labels), followed by the state
    /// gauges of the newest frame. Takes fresh cumulative
    /// snapshots — scraping never advances the delta state.
    pub fn prometheus(&self) -> String {
        let hooks = self.sorted_hooks();
        let snaps: Vec<(String, String, MetricsSnapshot)> = hooks
            .iter()
            .map(|h| {
                (
                    h.group.to_string(),
                    h.rank.to_string(),
                    h.device.metrics().snapshot_counters(),
                )
            })
            .collect();
        let labels: Vec<[(&str, &str); 2]> = snaps
            .iter()
            .map(|(g, r, _)| [("group", g.as_str()), ("rank", r.as_str())])
            .collect();
        let labeled: Vec<(&MetricsSnapshot, &[(&str, &str)])> = snaps
            .iter()
            .zip(&labels)
            .map(|((_, _, s), l)| (s, &l[..]))
            .collect();
        let mut out = to_prometheus_multi(&labeled);
        if let Some(frame) = self.ring.latest() {
            out.push_str(&frame_prometheus(&frame));
        }
        out
    }

    /// The `/frames` document: the delta ring as a JSON time series.
    pub fn frames_json(&self) -> String {
        frames_to_json(&self.ring.frames(), self.ring.capacity())
    }

    /// Trace-ring events lost before they could be snapshotted, summed
    /// over every rank as of the newest tick (surfaced by `/healthz` so
    /// ring overflow is visible live).
    pub fn trace_events_dropped(&self) -> u64 {
        let dropped = |r: &RankRecord| r.snapshot.get(Metric::TraceEventsDropped);
        let ranks = self.ranks.lock();
        ranks
            .iter()
            .map(|h| h.prev.lock().as_ref().map_or(0, dropped))
            .sum()
    }
}

/// Handle to the monitor loop; [`stop`](MonitorHandle::stop) it when the
/// cluster exits.
pub struct MonitorHandle {
    stop: mpsc::Sender<()>,
    thread: JoinHandle<()>,
}

impl MonitorHandle {
    /// Ask the loop to exit and join it.
    pub fn stop(self) {
        drop(self.stop);
        let _ = self.thread.join();
    }
}

/// Spawn the monitor loop: one [`Collector::collect`] tick every
/// `interval`, each tick's frame handed to the doctor (when one is
/// enabled) for classification — exactly one observer regardless of how
/// many consumers are attached.
pub fn start_monitor(
    collector: Arc<Collector>,
    doctor: Option<Arc<DoctorServer>>,
    interval: Duration,
) -> MonitorHandle {
    let (stop, stopped) = mpsc::channel();
    let thread = std::thread::Builder::new()
        .name("motor-monitor".into())
        .spawn(move || {
            // Tick until the handle hangs up.
            while let Err(mpsc::RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                if let (Some(frame), Some(d)) = (collector.collect(), &doctor) {
                    d.process(&frame.ranks);
                }
            }
        })
        .expect("spawn motor-monitor thread");
    MonitorHandle { stop, thread }
}

/// Route one request path to a response: `(status, reason, content-type,
/// body)`. Pure (no socket), so the endpoint surface is unit-testable.
fn respond(
    path: &str,
    collector: &Collector,
    doctor: Option<&DoctorServer>,
) -> (u16, &'static str, &'static str, String) {
    const JSON: &str = "application/json";
    match path {
        "/metrics" => (
            200,
            "OK",
            "text/plain; version=0.0.4; charset=utf-8",
            collector.prometheus(),
        ),
        "/healthz" => {
            let anomalies = doctor.map_or_else(Vec::new, |d| d.anomalies());
            let items: Vec<String> = anomalies.iter().map(Anomaly::to_json).collect();
            let status = if anomalies.is_empty() {
                "ok"
            } else {
                "unhealthy"
            };
            let body = format!(
                "{{\"status\":\"{status}\",\"ranks\":{},\"frames_seen\":{},\
                 \"trace_events_dropped\":{},\"anomalies\":[{}]}}",
                collector.ranks_registered(),
                collector.ring().frames_seen(),
                collector.trace_events_dropped(),
                items.join(",")
            );
            if anomalies.is_empty() {
                (200, "OK", JSON, body)
            } else {
                (503, "Service Unavailable", JSON, body)
            }
        }
        "/flight" => {
            let anomalies = doctor.map_or_else(Vec::new, |d| d.anomalies());
            (
                200,
                "OK",
                JSON,
                collector.flight_record(anomalies).to_json(),
            )
        }
        "/frames" => (200, "OK", JSON, collector.frames_json()),
        "/" => (
            200,
            "OK",
            "text/plain; charset=utf-8",
            "motor telemetry: /metrics /healthz /flight /frames\n".to_string(),
        ),
        _ => (
            404,
            "Not Found",
            "text/plain; charset=utf-8",
            format!("no such endpoint: {path}\n"),
        ),
    }
}

/// Parse the request line of an HTTP/1.x request: `(method, path)` with
/// any query string stripped.
fn parse_request_line(head: &str) -> (String, String) {
    let line = head.lines().next().unwrap_or("");
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("/");
    let path = target.split('?').next().unwrap_or("/").to_string();
    (method, path)
}

/// Longest request head accepted, and how long a client has to send it.
const MAX_REQUEST_HEAD: usize = 8192;
const REQUEST_DEADLINE: Duration = Duration::from_secs(2);

/// Connection threads alive at once. A client that only opens sockets
/// holds each thread for up to twice [`REQUEST_DEADLINE`]; past the cap
/// the accept loop closes new connections at once instead of spawning.
pub const MAX_CONNECTIONS: usize = 32;

fn handle_connection(mut stream: TcpStream, collector: &Collector, doctor: Option<&DoctorServer>) {
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    // Read until the end of the request headers (we never accept bodies).
    // The deadline is for the whole head, not per read: a client that
    // trickles a byte at a time is dropped like one that sends nothing.
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        let left = deadline.saturating_duration_since(Instant::now());
        if head.len() > MAX_REQUEST_HEAD || left.is_zero() {
            return; // oversized or overdue request: drop the connection
        }
        let _ = stream.set_read_timeout(Some(left));
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&chunk[..n]),
            Err(_) => return,
        }
    }
    let (method, path) = parse_request_line(&String::from_utf8_lossy(&head));
    let (status, reason, ctype, body) = if method == "GET" {
        respond(&path, collector, doctor)
    } else {
        (
            405,
            "Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n".to_string(),
        )
    };
    // A client that stops reading must not hold this thread for ever.
    let _ = stream.set_write_timeout(Some(REQUEST_DEADLINE));
    let header = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {ctype}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(header.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// The in-process scrape endpoint: a nonblocking accept loop on its own
/// thread, one short-lived thread per connection (`Connection: close`
/// always), at most [`MAX_CONNECTIONS`] of them. Scrapes read shared
/// state only — they never advance the delta ring or the doctor's
/// windows, so two concurrent clients see consistent, independent
/// responses.
pub struct TelemetryServer {
    collector: Arc<Collector>,
    doctor: Option<Arc<DoctorServer>>,
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Mutex<Option<JoinHandle<()>>>,
    /// Connection threads alive now.
    live: AtomicUsize,
}

impl TelemetryServer {
    /// Bind `cfg.addr` and start serving. Fails only on bind errors
    /// (address in use, permission) — callers decide whether that is
    /// fatal (`run_cluster` warns and runs on).
    pub fn start(
        cfg: &TelemetryConfig,
        collector: Arc<Collector>,
        doctor: Option<Arc<DoctorServer>>,
    ) -> std::io::Result<Arc<TelemetryServer>> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let server = Arc::new(TelemetryServer {
            collector,
            doctor,
            local_addr,
            stop: Arc::new(AtomicBool::new(false)),
            accept: Mutex::new(None),
            live: AtomicUsize::new(0),
        });
        let me = Arc::clone(&server);
        let thread = std::thread::Builder::new()
            .name("motor-telemetry".into())
            .spawn(move || {
                while !me.stop.load(Ordering::Acquire) {
                    match listener.accept() {
                        // Over the cap: dropping the stream closes it.
                        Ok(_) if me.live.load(Ordering::Acquire) >= MAX_CONNECTIONS => {}
                        Ok((stream, _)) => {
                            let _ = stream.set_nonblocking(false);
                            me.live.fetch_add(1, Ordering::AcqRel);
                            let conn = Arc::clone(&me);
                            let spawned = std::thread::Builder::new()
                                .name("motor-telemetry-conn".into())
                                .spawn(move || {
                                    handle_connection(
                                        stream,
                                        &conn.collector,
                                        conn.doctor.as_deref(),
                                    );
                                    conn.live.fetch_sub(1, Ordering::AcqRel);
                                });
                            if spawned.is_err() {
                                me.live.fetch_sub(1, Ordering::AcqRel);
                            }
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(20)),
                    }
                }
            })
            .expect("spawn motor-telemetry thread");
        *server.accept.lock() = Some(thread);
        Ok(server)
    }

    /// The bound address (resolves port 0 to the OS-assigned port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Ask the accept loop to exit and join it (idempotent). In-flight
    /// connection threads finish their response on their own.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept.lock().take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use motor_obs::check_prometheus_text;
    use motor_obs::export::json;

    #[test]
    fn config_parse_forms() {
        let parse = |spec| TelemetryConfig::parse(spec).expect(spec);
        let d = parse("1");
        assert_eq!(d.addr, TelemetryConfig::default().addr);
        let bare = parse("0.0.0.0:9000");
        assert_eq!(bare.addr, "0.0.0.0:9000");
        let kv = parse("addr=127.0.0.1:0,interval_ms=50,frames=16");
        assert_eq!(kv.addr, "127.0.0.1:0");
        assert_eq!(kv.interval, Duration::from_millis(50));
        assert_eq!(kv.frame_capacity, 16);
        let partial = parse("interval_ms=100");
        assert_eq!(partial.addr, TelemetryConfig::default().addr);
        assert_eq!(partial.interval, Duration::from_millis(100));
        // Anything else is refused, naming the offender.
        for (spec, needle) in [
            ("interval=50", "interval"),
            ("frames=many", "frames"),
            ("yes", "yes"),
        ] {
            let err = TelemetryConfig::parse(spec).expect_err(spec);
            assert!(err.contains(needle), "{spec}: {err}");
        }
    }

    #[test]
    fn request_line_parsing() {
        assert_eq!(
            parse_request_line("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"),
            ("GET".to_string(), "/metrics".to_string())
        );
        assert_eq!(
            parse_request_line("GET /frames?last=5 HTTP/1.1\r\n\r\n"),
            ("GET".to_string(), "/frames".to_string())
        );
        assert_eq!(parse_request_line(""), (String::new(), "/".to_string()));
    }

    #[test]
    fn routes_on_an_empty_collector() {
        // No ranks registered: every endpoint must still answer with
        // well-formed bodies (a scrape racing cluster startup).
        let c = Collector::new(8);
        let (status, _, ctype, body) = respond("/metrics", &c, None);
        assert_eq!(status, 200);
        assert!(ctype.starts_with("text/plain"));
        check_prometheus_text(&body).expect("empty exposition is valid");
        assert!(body.contains("motor_build_info"));

        let (status, _, _, body) = respond("/healthz", &c, None);
        assert_eq!(status, 200);
        let v = json::parse(&body).expect("healthz is valid JSON");
        assert_eq!(v.get("status").and_then(|x| x.as_str()), Some("ok"));
        assert_eq!(v.get("ranks").and_then(|x| x.as_u64()), Some(0));

        let (status, _, _, body) = respond("/frames", &c, None);
        assert_eq!(status, 200);
        let v = json::parse(&body).expect("frames is valid JSON");
        assert_eq!(
            v.get("frames").and_then(|x| x.as_array()).map(|a| a.len()),
            Some(0)
        );

        let (status, _, _, body) = respond("/flight", &c, None);
        assert_eq!(status, 200);
        let v = json::parse(&body).expect("flight is valid JSON");
        assert_eq!(
            v.get("motor_flight_record").and_then(|x| x.as_u64()),
            Some(1)
        );

        let (status, _, _, _) = respond("/nope", &c, None);
        assert_eq!(status, 404);
    }

    #[test]
    fn server_binds_and_serves_over_tcp() {
        // End-to-end over a real socket, without a cluster: bind port 0,
        // speak minimal HTTP, check the response frame.
        let c = Collector::new(8);
        let srv = TelemetryServer::start(
            &TelemetryConfig {
                addr: "127.0.0.1:0".to_string(),
                ..TelemetryConfig::default()
            },
            Arc::clone(&c),
            None,
        )
        .expect("bind");
        let mut stream = TcpStream::connect(srv.local_addr()).expect("connect");
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.contains("Content-Type: application/json"));
        assert!(response.contains("\"status\":\"ok\""));

        // Non-GET is rejected without panicking the server.
        let mut stream = TcpStream::connect(srv.local_addr()).expect("connect");
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");
        srv.stop();
    }

    /// A collector over one real rank whose event ring holds `ring` slots.
    fn one_rank_collector(ring: usize) -> (Arc<Collector>, Arc<Device>, Arc<Vm>) {
        let device = Device::new(
            0,
            motor_mpc::DeviceConfig {
                event_capacity: ring,
                ..Default::default()
            },
        );
        let vm = Vm::with_metrics(Default::default(), Arc::clone(device.metrics()));
        let c = Collector::new(4);
        c.register_in_group(0, 0, "rank 0".into(), Arc::clone(&device), Arc::clone(&vm));
        (c, device, vm)
    }

    /// The tick takes counters and histograms only: with a rank's ring
    /// wrapped many times over by its device and its VM, the frames carry
    /// no event and the collector retains none — yet the loss is on the
    /// books, and a flight record of the same rank drains the ring.
    #[test]
    fn a_tick_leaves_the_event_rings_alone() {
        use motor_obs::EventKind;
        let (c, device, vm) = one_rank_collector(8);
        for i in 0..100 {
            device.metrics().event(EventKind::MsgSend, i, 0);
            vm.metrics().event(EventKind::PinAcquire, i, 0);
        }
        device.metrics().add(Metric::SendsEager, 3);
        let first = c.collect().expect("one rank registered");
        device.metrics().add(Metric::SendsEager, 2);
        let second = c.collect().expect("one rank registered");
        for frame in [&first, &second] {
            assert!(frame.ranks[0].snapshot.events().is_empty());
        }
        for h in c.sorted_hooks() {
            let prev = h.prev.lock();
            assert!(prev.as_ref().unwrap().snapshot.events().is_empty());
        }
        // One windowing: the first frame is the run so far, the second is
        // what happened since.
        assert_eq!(first.ranks[0].window_nanos, 0);
        assert_eq!(first.ranks[0].snapshot.get(Metric::SendsEager), 3);
        assert!(second.ranks[0].window_nanos > 0);
        assert_eq!(second.ranks[0].snapshot.get(Metric::SendsEager), 2);
        assert_eq!(second.ranks[0].snapshot.get(Metric::TraceEventsDropped), 0);
        // 2 x 100 written - 8 held, read off the newest tick.
        assert_eq!(c.trace_events_dropped(), 192);
        let (_, _, _, body) = respond("/healthz", &c, None);
        let v = json::parse(&body).unwrap();
        assert_eq!(v.u64_at("trace_events_dropped"), Ok(192));
        assert_eq!(
            c.flight_record(Vec::new()).ranks[0].snapshot.events().len(),
            8
        );
    }

    /// `/healthz` reports the doctor's anomaly list and nothing else: a
    /// frame showing a dropped link leaves it at 200 with no doctor
    /// attached, and turns it to 503 once a doctor has processed the
    /// frame.
    #[test]
    fn healthz_is_the_doctors_list() {
        let (c, device, _vm) = one_rank_collector(8);
        device.metrics().add(Metric::LinksDropped, 1);
        let frame = c.collect().expect("one rank registered");
        let (status, _, _, body) = respond("/healthz", &c, None);
        assert_eq!(status, 200, "{body}");
        let doctor = DoctorServer::new(motor_obs::DoctorConfig::default(), Arc::clone(&c));
        assert_eq!(respond("/healthz", &c, Some(&doctor)).0, 200);
        assert_eq!(doctor.process(&frame.ranks).len(), 1);
        let (status, _, _, body) = respond("/healthz", &c, Some(&doctor));
        assert_eq!(status, 503, "{body}");
        assert!(body.contains("\"kind\":\"link_drop\""), "{body}");
    }

    /// What a hostile client sends instead of a request.
    #[derive(Debug)]
    struct Hostile {
        bytes: Vec<u8>,
        /// Shut the write side down after sending (else: hold it open).
        half_close: bool,
    }

    fn hostile() -> impl proptest::strategy::Strategy<Value = Hostile> {
        use proptest::prelude::*;
        let noise = proptest::collection::vec(any::<u8>(), 0..600usize);
        (0..8u8, noise, any::<bool>()).prop_map(|(shape, noise, half_close)| {
            let text = String::from_utf8_lossy(&noise).replace(['\r', '\n'], " ");
            let bytes = match shape {
                // No CRLF ever.
                0 => format!("GET /metrics HTTP/1.1 {text}").into_bytes(),
                // A megabyte of header.
                1 => [b"GET / HTTP/1.1\r\nX: ".as_slice(), &vec![b'a'; 1 << 20]].concat(),
                // Not UTF-8 (0xff never is), terminated or not.
                2 => [noise.as_slice(), b"\xff\xfe\r\n\r\n"].concat(),
                // Bare line feeds only.
                3 => b"GET /healthz HTTP/1.1\nHost: t\n\n".to_vec(),
                // A request and then garbage pipelined behind it.
                4 => [b"GET /healthz HTTP/1.1\r\n\r\n".as_slice(), &noise].concat(),
                // Another verb.
                5 => format!("DELETE /{text} HTTP/1.1\r\n\r\n").into_bytes(),
                // Nothing at all.
                6 => Vec::new(),
                // Whatever the generator came up with.
                _ => noise,
            };
            Hostile { bytes, half_close }
        })
    }

    /// Send `h`, then wait for the server to answer or hang up. Returns
    /// what came back and how long the server kept the connection.
    fn suffer(addr: SocketAddr, h: &Hostile) -> (Vec<u8>, Duration) {
        let t0 = Instant::now();
        let mut stream = TcpStream::connect(addr).expect("connect");
        // The server may hang up mid-send (oversized head): not our error.
        let _ = stream.write_all(&h.bytes);
        if h.half_close {
            let _ = stream.shutdown(std::net::Shutdown::Write);
        }
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        let mut back = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => back.extend_from_slice(&chunk[..n]),
                // Reset: the server closed with our bytes unread.
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break,
                Err(e) => panic!("server kept {h:?} open past every deadline: {e}"),
            }
        }
        (back, t0.elapsed())
    }

    /// Hostile requests against the real listener, all at once: whatever
    /// arrives, the connection is answered or dropped within the request
    /// deadline, what is answered is a whole HTTP response, nothing
    /// panics, and a well-formed `GET /healthz` on another connection is
    /// answered while the hostile ones are still being suffered. A trickle
    /// of one byte every 300 ms — each read well inside a per-read timeout
    /// — is cut off at the same deadline.
    #[test]
    fn hostile_requests_are_dropped_on_time_and_starve_nobody() {
        use proptest::strategy::Strategy;
        let srv = TelemetryServer::start(
            &TelemetryConfig {
                addr: "127.0.0.1:0".to_string(),
                ..TelemetryConfig::default()
            },
            Collector::new(8),
            None,
        )
        .expect("bind");
        let addr = srv.local_addr();
        let mut rng = proptest::test_runner::TestRng::deterministic("hostile_requests");
        let cases: Vec<Hostile> = (0..24).map(|_| hostile().generate(&mut rng)).collect();
        let slack = Duration::from_millis(1500);
        std::thread::scope(|s| {
            let sufferers: Vec<_> = cases
                .iter()
                .map(|h| s.spawn(move || (h, suffer(addr, h))))
                .collect();
            let trickle = s.spawn(move || {
                let t0 = Instant::now();
                let mut stream = TcpStream::connect(addr).expect("connect");
                while stream.write_all(b"x").is_ok() && t0.elapsed() < Duration::from_secs(20) {
                    std::thread::sleep(Duration::from_millis(300));
                }
                t0.elapsed()
            });
            // Meanwhile, an honest client.
            let honest = Hostile {
                bytes: b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n".to_vec(),
                half_close: false,
            };
            let (back, took) = suffer(addr, &honest);
            assert!(back.starts_with(b"HTTP/1.1 200 OK\r\n"), "honest client");
            assert!(took < slack, "honest client waited {took:?}");
            for t in sufferers {
                let (h, (back, took)) = t.join().expect("no panic");
                assert!(
                    took < REQUEST_DEADLINE + slack,
                    "{took:?} for {} bytes, half_close {}",
                    h.bytes.len(),
                    h.half_close
                );
                if !back.is_empty() {
                    let text = String::from_utf8_lossy(&back);
                    assert!(text.starts_with("HTTP/1.1 "), "{text}");
                    let (head, body) = text.split_once("\r\n\r\n").expect("whole response");
                    let len = head
                        .lines()
                        .find_map(|l| l.strip_prefix("Content-Length: "));
                    assert_eq!(len.and_then(|l| l.parse().ok()), Some(body.len()));
                }
            }
            let cut = trickle.join().expect("no panic");
            assert!(cut < REQUEST_DEADLINE + slack, "trickle lasted {cut:?}");
        });
        // The listener survived all of it.
        let (back, _) = suffer(
            addr,
            &Hostile {
                bytes: b"GET /frames HTTP/1.1\r\n\r\n".to_vec(),
                half_close: false,
            },
        );
        assert!(back.starts_with(b"HTTP/1.1 200 OK\r\n"));
        srv.stop();
    }
}
