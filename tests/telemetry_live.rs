//! Live-telemetry conformance: a 4-rank cluster must serve `/metrics`,
//! `/healthz`, `/flight` and `/frames` *while the workload runs*, to two
//! concurrent clients, with every `/metrics` body passing the Prometheus
//! exposition check — and scraping must never perturb the run.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use motor_core::cluster::{run_cluster, ClusterConfig};
use motor_core::TelemetryConfig;
use motor_obs::check_prometheus_text;
use motor_obs::export::json::{self, Value};
use motor_obs::DoctorConfig;
use motor_runtime::ElemKind;
use parking_lot::Mutex;

/// Minimal HTTP/1.1 GET against the telemetry endpoint.
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect telemetry endpoint");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8_lossy(&raw).to_string();
    let (head, body) = text.split_once("\r\n\r\n").expect("response has headers");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, body.to_string())
}

const RANKS: usize = 4;
const DATA_TAG: i32 = 7;
const CONT_TAG: i32 = 9;

/// Counts a scrape client as done when its thread ends, returning or
/// panicking, so that a failed client ends the run rather than hanging it.
struct ClientDone(Arc<AtomicUsize>);

impl Drop for ClientDone {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::Release);
    }
}

#[test]
fn four_rank_cluster_serves_all_endpoints_mid_run() {
    let cfg = ClusterConfig::builder()
        .ranks(RANKS)
        .telemetry(TelemetryConfig {
            // Port 0: the OS picks a free port; the body reads it back.
            addr: "127.0.0.1:0".to_string(),
            interval: Duration::from_millis(10),
            frame_capacity: 16,
        })
        // Attach a doctor with unreachable thresholds so /healthz reports
        // the watchdog's (empty) anomaly list rather than re-classifying
        // each scrape against default deadlines — a saturated test
        // machine can legitimately stall ranks past 2 s, which is not
        // what this test is about.
        .doctor(DoctorConfig {
            stall_deadline: Duration::from_secs(3600),
            pin_leak_deadline: Duration::from_secs(3600),
            gc_stall_ratio: 2.0,
            ..DoctorConfig::default()
        })
        .build();

    // Rank 0 publishes the bound address here; the two scrape clients
    // poll for it. The run goes on until *both* clients are done: ending
    // it when the first one is stops the endpoint under the other one's
    // next request (refused, or reset from the accept backlog).
    let addr_shared: Arc<Mutex<Option<SocketAddr>>> = Arc::new(Mutex::new(None));
    let scrapes_done = Arc::new(AtomicUsize::new(0));

    let mut clients = Vec::new();
    for client in 0..2u32 {
        let addr_shared = Arc::clone(&addr_shared);
        let done = ClientDone(Arc::clone(&scrapes_done));
        clients.push(std::thread::spawn(move || {
            let _done = done;
            let addr = loop {
                if let Some(a) = *addr_shared.lock() {
                    break a;
                }
                std::thread::sleep(Duration::from_millis(5));
            };
            // Wait until collection ticks have produced at least one
            // frame (a fixed sleep is not enough on a loaded machine).
            let deadline = std::time::Instant::now() + Duration::from_secs(30);
            loop {
                let (status, body) = http_get(addr, "/frames");
                assert_eq!(status, 200);
                let v = json::parse(&body).expect("frames is JSON");
                let n = v
                    .get("frames")
                    .and_then(Value::as_array)
                    .map(<[Value]>::len);
                if n.unwrap_or(0) > 0 {
                    break;
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "no frame within 30s: {body}"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
            for round in 0..5 {
                let (status, body) = http_get(addr, "/metrics");
                assert_eq!(status, 200, "client {client} round {round}");
                check_prometheus_text(&body).unwrap_or_else(|e| {
                    panic!("client {client} round {round}: invalid exposition: {e}")
                });
                assert!(body.contains("motor_build_info"), "build info present");
                for rank in 0..RANKS {
                    assert!(
                        body.contains(&format!("rank=\"{rank}\"")),
                        "client {client}: /metrics misses rank {rank}:\n{body}"
                    );
                }

                let (status, body) = http_get(addr, "/healthz");
                assert_eq!(status, 200, "healthy while making progress: {body}");
                let v = json::parse(&body).expect("healthz is JSON");
                assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
                assert_eq!(v.get("ranks").and_then(Value::as_u64), Some(RANKS as u64));

                let (status, body) = http_get(addr, "/frames");
                assert_eq!(status, 200);
                let v = json::parse(&body).expect("frames is JSON");
                let frames = v.get("frames").and_then(Value::as_array).unwrap();
                assert!(frames.len() <= 16, "ring is bounded");
                assert!(!frames.is_empty(), "ticks have happened");

                let (status, body) = http_get(addr, "/flight");
                assert_eq!(status, 200);
                let v = json::parse(&body).expect("flight record is JSON");
                assert_eq!(
                    v.get("motor_flight_record").and_then(Value::as_u64),
                    Some(1)
                );
                let ranks = v.get("ranks").and_then(Value::as_array).unwrap();
                assert_eq!(ranks.len(), RANKS, "flight record covers every rank");
            }
        }));
    }

    let metrics = run_cluster(
        cfg,
        |_reg| {},
        |proc| {
            let mp = proc.mp();
            let t = proc.thread();
            if proc.rank() == 0 {
                let srv = proc.telemetry().expect("endpoint enabled");
                *addr_shared.lock() = Some(srv.local_addr());
            }
            // Ring traffic until both scrapers are done; rank 0 owns the
            // decision and broadcasts it so every rank iterates in
            // lockstep (independent checks could disagree by one round).
            let buf = t.alloc_prim_array(ElemKind::I64, 64);
            let right = (proc.rank() + 1) % proc.size();
            let left = (proc.rank() + proc.size() - 1) % proc.size();
            let mut rounds = 0u64;
            loop {
                mp.send(buf, right, DATA_TAG).expect("ring send");
                mp.recv(buf, left, DATA_TAG).expect("ring recv");
                rounds += 1;
                let mut cont = [u8::from(
                    proc.rank() == 0 && !(scrapes_done.load(Ordering::Acquire) == 2 && rounds >= 8),
                )];
                if proc.rank() == 0 {
                    for peer in 1..proc.size() {
                        proc.comm().send_bytes(&cont, peer, CONT_TAG).unwrap();
                    }
                } else {
                    proc.comm().recv_bytes(&mut cont, 0, CONT_TAG).unwrap();
                }
                if cont[0] == 0 {
                    break;
                }
                // Keep the loop from outrunning the scrape clients.
                std::thread::sleep(Duration::from_millis(2));
            }
        },
    )
    .expect("cluster run succeeds under scraping");

    for c in clients {
        c.join().expect("scrape client passed");
    }
    // The run made real progress while being scraped.
    assert!(metrics.aggregate().get(motor_obs::Metric::SendsEager) > 0);
    assert!(metrics.anomalies.is_empty(), "{:?}", metrics.anomalies);
}

#[test]
fn telemetry_absent_unless_asked_for() {
    if std::env::var("MOTOR_TELEMETRY").is_ok() || std::env::var("MOTOR_DOCTOR").is_ok() {
        // An outer harness enabled monitoring globally; the default-off
        // claim is not testable in this environment.
        return;
    }
    run_cluster(
        ClusterConfig::builder().ranks(2).build(),
        |_reg| {},
        |proc| {
            assert!(proc.telemetry().is_none(), "no endpoint by default");
            assert!(proc.collector().is_none(), "no collector by default");
            assert!(proc.doctor().is_none(), "no watchdog by default");
        },
    )
    .expect("plain run");
}
