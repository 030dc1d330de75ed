//! The telemetry endpoint bounds its own threads: a client that only
//! opens sockets gets at most `MAX_CONNECTIONS` connection threads out of
//! the process, the connections over the cap are closed at once, and the
//! endpoint answers again as soon as the idle clients go away.
//!
//! Linux only: the thread count is read from `/proc/self/task`. The test
//! is alone in its binary so no other test's threads move that count.
#![cfg(target_os = "linux")]

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use motor_core::telemetry::{Collector, TelemetryConfig, TelemetryServer, MAX_CONNECTIONS};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn idle_connections_past_the_cap_get_no_thread() {
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
    let before = threads();

    // Open every connection and send nothing; give the accept loop (a
    // 20 ms poll) time to take them all.
    let idle: Vec<TcpStream> = (0..MAX_CONNECTIONS + 8)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    std::thread::sleep(Duration::from_millis(400));
    let grown = threads() - before;
    assert!(
        grown <= MAX_CONNECTIONS,
        "{} idle connections made {grown} threads (cap {MAX_CONNECTIONS})",
        idle.len()
    );

    // The connections over the cap were closed, not left to wait for the
    // request deadline; the ones under it are still held open.
    let closed = idle
        .iter()
        .filter(|&s| {
            let mut s: &TcpStream = s;
            s.set_nonblocking(true).unwrap();
            match s.read(&mut [0u8; 1]) {
                Ok(0) => true,
                Err(e) if e.kind() == ErrorKind::ConnectionReset => true,
                Err(e) if e.kind() == ErrorKind::WouldBlock => false,
                other => panic!("an idle connection read {other:?}"),
            }
        })
        .count();
    assert_eq!(closed, 8, "connections over the cap are closed at accept");

    // Once the idle clients hang up, an honest request is served again.
    drop(idle);
    let t0 = Instant::now();
    loop {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let mut back = String::new();
        let _ = stream.read_to_string(&mut back);
        if back.starts_with("HTTP/1.1 200 OK\r\n") {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "endpoint did not recover: {back:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    srv.stop();
}
