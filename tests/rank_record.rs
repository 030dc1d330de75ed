//! One per-rank record from counter to dashboard: everything that shows a
//! rank as JSON — `/frames`, `/flight`, the flight-record file the doctor
//! writes, the simulator's failure dump — goes through one writer, so all
//! four expose the same per-rank keys (the golden list below) and all four
//! read back through the one reader.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use motor::core::cluster::{run_cluster, ClusterConfig};
use motor::core::TelemetryConfig;
use motor::obs::export::json::{self, Value};
use motor::obs::{frames_from_json, DoctorConfig, RankRecord};
use motor::runtime::ElemKind;
use motor_sim::{SimConfig, SimNet};
use parking_lot::Mutex;

/// The keys of a rank record, in both forms.
const RANK_KEYS: [&str; 15] = [
    "cond_pins",
    "done",
    "group",
    "hard_pins",
    "heap_capacity_bytes",
    "heap_used_bytes",
    "inflight",
    "label",
    "last_progress_nanos",
    "metrics",
    "now_nanos",
    "oldest_pin_nanos",
    "queues",
    "rank",
    "window_nanos",
];
const METRICS_KEYS: [&str; 4] = ["counters", "events", "events_through", "hists"];

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Obj(m) => m.keys().map(String::as_str).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

/// Check every rank object under `doc["ranks"]` against the golden lists
/// and the reader; returns the records.
fn check_ranks(what: &str, doc: &Value) -> Vec<RankRecord> {
    let ranks = doc.get("ranks").and_then(Value::as_array).expect(what);
    for r in ranks {
        assert_eq!(keys(r), RANK_KEYS, "{what}");
        assert_eq!(keys(r.get("metrics").unwrap()), METRICS_KEYS, "{what}");
    }
    RankRecord::all_from_json(doc).unwrap_or_else(|e| panic!("{what} does not read back: {e}"))
}

fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect telemetry endpoint");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .expect("send request");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    let (head, body) = text.split_once("\r\n\r\n").expect("response has headers");
    assert!(head.starts_with("HTTP/1.1 200"), "{path}: {head}");
    body.to_string()
}

#[test]
fn every_view_of_a_rank_has_the_same_keys_and_reads_back() {
    let record =
        std::env::temp_dir().join(format!("motor_rank_record_{}.json", std::process::id()));
    let cfg = ClusterConfig::builder()
        .ranks(2)
        .telemetry(TelemetryConfig {
            addr: "127.0.0.1:0".to_string(),
            interval: Duration::from_millis(10),
            frame_capacity: 8,
        })
        .doctor(DoctorConfig {
            stall_deadline: Duration::from_secs(3600),
            pin_leak_deadline: Duration::from_secs(3600),
            gc_stall_ratio: 2.0,
            record_path: Some(record.to_string_lossy().into_owned()),
            record_on_exit: true,
            ..DoctorConfig::default()
        })
        .build();
    let scraped: Mutex<Option<(String, String)>> = Mutex::new(None);
    run_cluster(
        cfg,
        |_| {},
        |proc| {
            let (mp, t) = (proc.mp(), proc.thread());
            let buf = t.alloc_prim_array(ElemKind::I64, 8);
            if proc.rank() == 1 {
                mp.send(buf, 0, 1).unwrap();
                // Parked here, visibly in flight, while rank 0 scrapes.
                mp.recv(buf, 0, 2).unwrap();
                return;
            }
            mp.recv(buf, 1, 1).unwrap();
            let addr = proc.telemetry().expect("endpoint enabled").local_addr();
            let t0 = Instant::now();
            let frames = loop {
                let body = http_get(addr, "/frames");
                // Two ticks that saw both ranks: an observation of each,
                // and a record taken since it.
                let frames = frames_from_json(&body).expect("/frames reads back");
                if let [.., a, b] = &frames[..] {
                    if a.ranks.len() == 2 && b.ranks.len() == 2 {
                        break body;
                    }
                }
                assert!(t0.elapsed() < Duration::from_secs(30), "no frames: {body}");
                std::thread::sleep(Duration::from_millis(5));
            };
            *scraped.lock() = Some((frames, http_get(addr, "/flight")));
            mp.send(buf, 1, 2).unwrap();
        },
    )
    .expect("cluster run");
    let (frames, flight) = scraped.into_inner().expect("rank 0 scraped");

    let frames = json::parse(&frames).expect("/frames is JSON");
    let frames = frames.get("frames").and_then(Value::as_array).unwrap();
    for f in frames {
        check_ranks("/frames", f);
    }
    let windowed = check_ranks("/frames", frames.last().unwrap());
    assert!(
        windowed.iter().all(|r| r.window_nanos > 0),
        "a frame is a `since`"
    );
    assert!(windowed.iter().all(|r| r.snapshot.events().is_empty()));

    let live = check_ranks("/flight", &json::parse(&flight).expect("/flight is JSON"));
    assert_eq!(live.len(), 2);
    assert!(
        live.iter().all(|r| r.window_nanos == 0),
        "a flight record is cumulative"
    );
    assert!(
        live.iter().all(|r| !r.snapshot.events().is_empty()),
        "rings drained"
    );
    assert!(
        live[1]
            .inflight
            .iter()
            .any(|op| op.kind.name() == "mp_recv" && op.peer_tag() == (0, 2)),
        "rank 1 was parked in its receive: {:?}",
        live[1].inflight
    );

    let file = std::fs::read_to_string(&record).expect("exit record written");
    let _ = std::fs::remove_file(&record);
    let on_exit = check_ranks("flight file", &json::parse(&file).expect("file is JSON"));
    assert!(on_exit.iter().all(|r| r.done));

    let sim = SimNet::new(5, SimConfig::new(3)).flight_record().to_json();
    assert_eq!(
        check_ranks("sim dump", &json::parse(&sim).unwrap()).len(),
        3
    );
}
