//! The benchmark's contract with `BENCHMARK.json` and with its readers:
//! names agree, every metric is printed, verification can fail, and the
//! ladder adds up. Runs the real binary in `--smoke` mode.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Mutex;

use motor_benchmark::report::{MetricDef, END_TO_END, PER_LAYER};
use motor_benchmark::workloads::NAMES;
use motor_obs::export::json::{self, Value};

/// The workloads spin on both processors; run one process at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn num(v: &Value) -> f64 {
    match v {
        Value::Num(n) => *n,
        other => panic!("not a number: {other:?}"),
    }
}

fn text(v: &Value) -> &str {
    v.as_str().expect("a string")
}

/// Run the binary in smoke mode; returns the exit code and the parsed
/// last line of its standard output.
fn smoke(workload: &str, traced: bool, extra: &[&str]) -> (i32, Value) {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("contract-results");
    let out = Command::new(env!("CARGO_BIN_EXE_motor-benchmark"))
        .args(["--smoke", "--workload", workload])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&out_dir)
        .args(extra)
        .output()
        .expect("start motor-benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "no output from {workload}: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    let result =
        json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"));
    (out.status.code().expect("exit code"), result)
}

fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

/// The result object has exactly the contract's keys, and its metrics are
/// exactly `defs`, each with its unit and a finite value.
fn assert_result_shape(result: &Value, defs: &[MetricDef]) {
    let Value::Obj(top) = result else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert!(num(&top["attempted"]) >= 1.0);
    let Value::Obj(metrics) = &top["metrics"] else {
        panic!("metrics is not an object")
    };
    let printed: BTreeSet<&str> = metrics.keys().map(String::as_str).collect();
    let listed: BTreeSet<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(printed, listed);
    for d in defs {
        let m = &metrics[d.name];
        assert_eq!(text(m.get("unit").expect("unit")), d.unit, "{}", d.name);
        assert!(
            num(m.get("value").expect("value")).is_finite(),
            "{}",
            d.name
        );
    }
}

#[test]
fn benchmark_json_lists_exactly_what_the_binary_prints() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text_ = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let file = json::parse(text_.trim_end()).expect("BENCHMARK.json parses");
    let list = |key: &str| file.get(key).and_then(Value::as_array).expect(key).to_vec();

    let workloads: Vec<String> = list("workloads")
        .iter()
        .map(|w| text(w.get("name").expect("name")).to_string())
        .collect();
    assert_eq!(workloads, NAMES);
    for w in list("workloads") {
        let why = text(w.get("why").expect("why"));
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }

    for (key, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed = list(key);
        assert_eq!(listed.len(), defs.len(), "{key}");
        for (m, d) in listed.iter().zip(defs) {
            assert_eq!(text(m.get("name").expect("name")), d.name);
            assert!(well_formed(d.name), "{}", d.name);
            assert_eq!(text(m.get("unit").expect("unit")), d.unit, "{}", d.name);
            assert_eq!(
                text(m.get("better").expect("better")),
                d.better,
                "{}",
                d.name
            );
            assert_eq!(m.get("bound").map(num), d.bound, "{}", d.name);
        }
    }
    assert!(NAMES.iter().all(|n| well_formed(n)));
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));
    assert_eq!(
        num(file.get("run_seconds").expect("run_seconds")),
        motor_benchmark::report::RUN_SECONDS as f64
    );
}

#[test]
fn every_workload_prints_every_metric_and_verifies() {
    for workload in NAMES {
        for (traced, defs) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let (code, result) = smoke(workload, traced, &[]);
            assert_eq!(code, 0, "{workload} traced={traced}");
            assert_result_shape(&result, defs);
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload}"
            );
            assert_eq!(
                num(result.get("failed").expect("failed")),
                0.0,
                "{workload}"
            );
        }
    }
}

#[test]
fn a_flipped_byte_fails_verification() {
    for workload in NAMES {
        let (code, result) = smoke(workload, false, &["--flip-byte"]);
        assert_eq!(code, 0, "{workload}: a failed check is reported, not fatal");
        assert_eq!(
            result.get("correct"),
            Some(&Value::Bool(false)),
            "{workload}"
        );
        assert!(
            num(result.get("failed").expect("failed")) >= 1.0,
            "{workload}"
        );
    }
}

#[test]
fn ladder_self_times_sum_to_the_top_rung() {
    let (_, result) = smoke("pingpong_small", true, &[]);
    let metrics = result.get("metrics").expect("metrics");
    let value = |name: &str| num(metrics.get(name).and_then(|m| m.get("value")).expect(name));
    let rungs = [
        "pal.ring",
        "pal.link",
        "mpc.channel",
        "mpc.device",
        "mpc.comm",
        "core.mp",
        "api.communicator",
    ];
    let sum: f64 = rungs.iter().map(|r| value(&format!("{r}.self_us"))).sum();
    let top = value("api.communicator.rtt_us");
    assert!(top > 0.0);
    assert!((sum - top).abs() <= 1e-9 * top, "{sum} != {top}");
}

#[test]
fn refuses_unknown_workloads_and_incomplete_command_lines() {
    let run = |args: &[&str]| {
        let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
        Command::new(env!("CARGO_BIN_EXE_motor-benchmark"))
            .args(args)
            .output()
            .expect("start motor-benchmark")
    };
    let unknown = run(&["--smoke", "--workload", "no_such_workload", "--trace", "0"]);
    assert_eq!(unknown.status.code(), Some(2));
    assert!(unknown.stdout.is_empty());
    let incomplete = run(&["--workload", "pingpong_small"]);
    assert_eq!(incomplete.status.code(), Some(2));
    assert!(incomplete.stdout.is_empty());
}
