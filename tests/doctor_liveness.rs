//! `motor-doctor` liveness: an injected deadlock must be diagnosed and
//! flight-recorded within the deadline, a healthy run of the same shape
//! must stay anomaly-free, the Prometheus exporter must round-trip every
//! metric, and the watchdog must not wreck ping-pong throughput.

use std::time::{Duration, Instant};

use motor::core::cluster::{run_cluster, ClusterConfig};
use motor::obs::export::json;
use motor::prelude::*;

/// The common 4-rank shape: a ring shift, then (optionally) rank `size-1`
/// posts a receive no rank will ever send to.
fn ring_body(proc: &MotorProc, inject_deadlock: bool) {
    let mp = proc.mp();
    let t = proc.thread();
    let (rank, size) = (mp.rank(), mp.size());
    let buf = t.alloc_prim_array(ElemKind::I64, 64);
    let right = (rank + 1) % size;
    let left = (rank + size - 1) % size;
    if rank % 2 == 0 {
        mp.send(buf, right, 1).unwrap();
        mp.recv(buf, left, 1).unwrap();
    } else {
        mp.recv(buf, left, 1).unwrap();
        mp.send(buf, right, 1).unwrap();
    }
    if inject_deadlock && rank == size - 1 {
        let lost = t.alloc_prim_array(ElemKind::U8, 32);
        let _ = mp.recv(lost, 0, 0x7ead); // never matched; blocks forever
    }
    t.release(buf);
}

fn fast_doctor(record: Option<String>) -> DoctorConfig {
    DoctorConfig {
        scan_interval: Duration::from_millis(20),
        stall_deadline: Duration::from_millis(300),
        record_path: record,
        ..DoctorConfig::default()
    }
}

#[test]
fn injected_deadlock_is_diagnosed_within_deadline() {
    let record = std::env::temp_dir().join(format!("motor_doctor_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&record);
    let path = record.to_string_lossy().into_owned();

    // The deadlocked cluster never returns: run it on a detached thread
    // and watch for the flight record from here.
    let cfg = ClusterConfig::builder()
        .ranks(4)
        .doctor(fast_doctor(Some(path.clone())))
        .build();
    std::thread::spawn(move || {
        let _ = run_cluster(cfg, |_| {}, |proc| ring_body(proc, true));
    });

    // Deadline 300 ms + scan every 20 ms: the record must exist well
    // within the hard test budget.
    let t0 = Instant::now();
    let text = loop {
        match std::fs::read_to_string(&record) {
            Ok(t) if !t.is_empty() => break t,
            _ => {
                assert!(
                    t0.elapsed() < Duration::from_secs(30),
                    "no flight record after 30 s"
                );
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    };
    let _ = std::fs::remove_file(&record);

    let v = json::parse(&text).expect("flight record is valid JSON");
    assert_eq!(
        v.get("motor_flight_record").and_then(|x| x.as_u64()),
        Some(1)
    );
    let anomalies = v.get("anomalies").and_then(|a| a.as_array()).unwrap();
    assert!(!anomalies.is_empty(), "record must contain the anomaly");
    // The stuck rank and op are named: rank 3, blocked in its recv.
    let blamed = anomalies
        .iter()
        .find(|a| a.get("rank").and_then(|r| r.as_u64()) == Some(3))
        .expect("rank 3 must be blamed");
    assert_eq!(
        blamed.get("op").and_then(|o| o.as_str()),
        Some("mp_recv"),
        "the blocking receive is the blamed op"
    );
    let kind = blamed.get("kind").and_then(|k| k.as_str()).unwrap();
    assert!(
        kind == "deadlock_suspect" || kind == "stall",
        "unexpected anomaly kind {kind}"
    );
    assert_eq!(
        v.get("ranks").and_then(|r| r.as_array()).map(|r| r.len()),
        Some(4)
    );
}

/// Depth does not blind the watchdog. Rank 1 posts 300 receives nobody
/// sends to — more than twice the in-flight table's 128 slots, so most
/// registrations are dropped, at constant cost, and counted — and then
/// waits on one of them for ever. The wait still finds a slot and is
/// diagnosed, on rank 1, and what the table shows names the right peer.
#[test]
fn stall_behind_a_full_inflight_table_is_still_diagnosed() {
    const OUTSTANDING: usize = 300;
    let record =
        std::env::temp_dir().join(format!("motor_doctor_full_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&record);
    let cfg = ClusterConfig::builder()
        .ranks(2)
        .doctor(fast_doctor(Some(record.to_string_lossy().into_owned())))
        .build();
    std::thread::spawn(move || {
        let _ = run_cluster(
            cfg,
            |_| {},
            |proc| {
                if proc.mp().rank() == 1 {
                    let (mp, t) = (proc.mp(), proc.thread());
                    let mut reqs: Vec<_> = (0..OUTSTANDING)
                        .map(|k| {
                            let buf = t.alloc_prim_array(ElemKind::U8, 16);
                            mp.irecv(buf, 0, 0x1000 + k as i32).unwrap()
                        })
                        .collect();
                    let _ = mp.wait(&mut reqs[OUTSTANDING - 1]); // never completes
                }
            },
        );
    });

    let t0 = Instant::now();
    let text = loop {
        match std::fs::read_to_string(&record) {
            Ok(t) if !t.is_empty() => break t,
            _ => {
                assert!(
                    t0.elapsed() < Duration::from_secs(30),
                    "no flight record after 30 s"
                );
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    };
    let _ = std::fs::remove_file(&record);
    let v = json::parse(&text).expect("flight record is valid JSON");
    let anomalies = v.get("anomalies").and_then(|a| a.as_array()).unwrap();
    let blamed = anomalies
        .iter()
        .find(|a| a.get("rank").and_then(|r| r.as_u64()) == Some(1))
        .expect("rank 1 must be blamed");
    let kind = blamed.get("kind").and_then(|k| k.as_str()).unwrap();
    assert!(kind == "stall" || kind == "deadlock_suspect", "{kind}");
    let op = blamed.get("op").and_then(|o| o.as_str()).unwrap();
    assert!(op == "mp_wait" || op == "device_wait", "blamed op {op}");

    let rank1 = &v.get("ranks").and_then(|r| r.as_array()).unwrap()[1];
    let inflight = rank1.get("inflight").and_then(|i| i.as_array()).unwrap();
    let irecvs: Vec<_> = inflight
        .iter()
        .filter(|op| op.get("kind").and_then(|k| k.as_str()) == Some("mp_irecv"))
        .collect();
    // One slot short of the table: every initiating call's own span needs
    // one while it runs, and gives it back — to the wait's span, last.
    assert_eq!(irecvs.len(), 127, "the table holds what it can");
    assert!(irecvs
        .iter()
        .all(|op| op.get("peer").and_then(|p| p.as_u64()) == Some(0)));
    let overflows = rank1
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("inflight_overflows"))
        .and_then(|o| o.as_u64())
        .unwrap();
    assert_eq!(overflows, (OUTSTANDING - 127) as u64, "the other receives");
}

#[test]
fn healthy_run_of_same_shape_has_zero_anomalies() {
    let cfg = ClusterConfig::builder()
        .ranks(4)
        .doctor(fast_doctor(None))
        .build();
    let metrics = run_cluster(cfg, |_| {}, |proc| ring_body(proc, false)).unwrap();
    assert!(
        metrics.anomalies.is_empty(),
        "healthy run misdiagnosed: {:?}",
        metrics.anomalies
    );
}

#[test]
fn prometheus_export_round_trips_cluster_metrics() {
    let cfg = ClusterConfig::builder().ranks(2).build();
    let metrics = run_cluster(cfg, |_| {}, |proc| ring_body(proc, false)).unwrap();
    for (rank, snap) in metrics.per_rank.iter().enumerate() {
        let rank_s = rank.to_string();
        let text = to_prometheus(snap, &[("rank", &rank_s)]);
        check_prometheus_text(&text).expect("exposition-format syntax");
        for m in Metric::ALL {
            assert!(
                text.contains(&format!("motor_{}", m.name())),
                "missing counter {}",
                m.name()
            );
        }
        for h in Hist::ALL {
            let family = format!("motor_{}", h.name());
            assert!(
                text.contains(&format!("{family}_count")),
                "missing histogram {family}"
            );
            // The +Inf cumulative bucket equals the _count total.
            let count_line = text
                .lines()
                .find(|l| l.starts_with(&format!("{family}_count")))
                .unwrap();
            let total: u64 = count_line.rsplit(' ').next().unwrap().parse().unwrap();
            let inf_line = text
                .lines()
                .find(|l| l.starts_with(&format!("{family}_bucket")) && l.contains("+Inf"))
                .unwrap();
            let inf: u64 = inf_line.rsplit(' ').next().unwrap().parse().unwrap();
            assert_eq!(total, inf, "{family}: le=+Inf must equal _count");
            assert_eq!(total, snap.hist(h).count());
        }
    }
}

/// The watchdog's cost on the hot path is registration (one CAS + a few
/// relaxed stores per op) plus a scan thread reading shared tables. A
/// strict <2% bound would be flaky under CI noise, so assert a generous
/// functional bound: ping-pong with the doctor scanning hard keeps at
/// least half the ops/sec of the undoctored run.
#[test]
fn watchdog_overhead_on_pingpong_is_bounded() {
    fn pingpong_ops_per_sec(doctor: Option<DoctorConfig>) -> f64 {
        let mut builder = ClusterConfig::builder().ranks(2);
        if let Some(cfg) = doctor {
            builder = builder.doctor(cfg);
        }
        let rounds = 400i64;
        let t0 = Instant::now();
        run_cluster(
            builder.build(),
            |_| {},
            |proc| {
                let mp = proc.mp();
                let t = proc.thread();
                let buf = t.alloc_prim_array(ElemKind::I64, 128);
                for round in 0..rounds {
                    let tag = (round % 32) as i32;
                    if mp.rank() == 0 {
                        mp.send(buf, 1, tag).unwrap();
                        mp.recv(buf, 1, tag).unwrap();
                    } else {
                        mp.recv(buf, 0, tag).unwrap();
                        mp.send(buf, 0, tag).unwrap();
                    }
                }
                t.release(buf);
            },
        )
        .unwrap();
        2.0 * rounds as f64 / t0.elapsed().as_secs_f64()
    }

    let bare = pingpong_ops_per_sec(None);
    let doctored = pingpong_ops_per_sec(Some(DoctorConfig {
        scan_interval: Duration::from_millis(5),
        ..DoctorConfig::default()
    }));
    assert!(
        doctored >= bare * 0.5,
        "watchdog overhead too high: {bare:.0} ops/s bare vs {doctored:.0} doctored"
    );
}
