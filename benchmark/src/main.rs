//! Command line of `motor-benchmark`.
//!
//! ```text
//! motor-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! motor-benchmark --smoke [--workload <name>] [--trace <0|1>]
//! motor-benchmark set --out <file> [--runs <n>] [--seed <n>] [--seconds <s>]
//! motor-benchmark compare <a.json> <b.json>
//! motor-benchmark list
//! ```

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use motor_benchmark::compare;
use motor_benchmark::report::{
    build_profile, json_string, MetricDef, Report, DEFAULT_SEED, END_TO_END, HOLDOUT_SEED,
    PER_LAYER, RUN_SECONDS,
};
use motor_benchmark::run::{self, Options};
use motor_benchmark::sys::{self, CountingAlloc};
use motor_benchmark::workloads::NAMES;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage:
  motor-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
                  [--out-dir <dir>] [--flip-byte]
  motor-benchmark --smoke [--workload <name>] [--trace <0|1>] [--flip-byte]
  motor-benchmark set --out <file> [--runs <n>] [--seed <n>] [--seconds <s>]
  motor-benchmark compare <a.json> <b.json>
  motor-benchmark list";

/// `--flag value` pairs and bare words of a command line.
struct Args {
    flags: Vec<(String, Option<String>)>,
    words: Vec<String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Args {
        const SWITCHES: [&str; 2] = ["--smoke", "--flip-byte"];
        let mut args = Args {
            flags: Vec::new(),
            words: Vec::new(),
        };
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            if SWITCHES.contains(&a.as_str()) {
                args.flags.push((a, None));
            } else if a.starts_with("--") {
                let value = raw.next();
                args.flags.push((a, value));
            } else {
                args.words.push(a);
            }
        }
        args
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    /// The value of `flag` parsed as `T`; `Err` names a malformed value.
    fn value<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.flags.iter().find(|(f, _)| f == flag) {
            None => Ok(None),
            Some((_, Some(v))) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("bad value for {flag}: {v}")),
            Some((_, None)) => Err(format!("{flag} needs a value")),
        }
    }
}

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Print the table and, last, the result line; store the result file.
fn publish(report: &Report, out_dir: &std::path::Path) {
    print!("{}", report.table());
    match report.write(out_dir) {
        Ok(path) => println!("# result file: {}", path.display()),
        Err(e) => eprintln!("motor-benchmark: result file not written: {e}"),
    }
    println!("{}", report.result_line());
}

fn run_one(args: &Args) -> Result<ExitCode, String> {
    let smoke = args.has("--smoke");
    if build_profile() != "release" && !smoke {
        return Err("refusing to measure a debug build; build with --release".into());
    }
    if sys::nproc() < 2 {
        return Err("the benchmark needs two processors, one per rank".into());
    }
    let seconds = match args.value::<f64>("--seconds")? {
        Some(s) if smoke => s / 200.0,
        Some(s) => s,
        None if smoke => RUN_SECONDS as f64 / 200.0,
        None => return Err("--seconds is required".into()),
    };
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds out of range: {seconds}"));
    }
    let traces: Vec<bool> = match args.value::<u8>("--trace")? {
        Some(0) => vec![false],
        Some(1) => vec![true],
        Some(t) => return Err(format!("--trace is 0 or 1, not {t}")),
        None if smoke => vec![false, true],
        None => return Err("--trace is required".into()),
    };
    let names: Vec<String> = match args.value::<String>("--workload")? {
        Some(w) => vec![w],
        None if smoke => NAMES.iter().map(|n| n.to_string()).collect(),
        None => return Err("--workload is required".into()),
    };
    let seed = match args.value::<u64>("--seed")? {
        Some(s) => s,
        None if smoke => DEFAULT_SEED,
        None => return Err("--seed is required".into()),
    };
    let out_dir = args
        .value::<PathBuf>("--out-dir")?
        .unwrap_or_else(results_dir);
    for workload in names {
        for &traced in &traces {
            let opts = Options {
                workload: workload.clone(),
                seed,
                seconds,
                traced,
                smoke,
                flip: args.has("--flip-byte"),
                out_dir: out_dir.clone(),
            };
            let report = run::run(&opts)
                .ok_or_else(|| format!("unknown workload {workload}; one of {NAMES:?}"))?;
            publish(&report, &out_dir);
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Run every workload `--runs` times, each run in a fresh process of this
/// executable with its own seed, and write the result lines to `--out`.
fn run_set(args: &Args) -> Result<ExitCode, String> {
    let out: PathBuf = args.value("--out")?.ok_or("set needs --out <file>")?;
    let runs = args.value::<u64>("--runs")?.unwrap_or(1);
    let seed = args.value::<u64>("--seed")?.unwrap_or(DEFAULT_SEED);
    let seconds = args
        .value::<f64>("--seconds")?
        .unwrap_or(RUN_SECONDS as f64);
    let trace = args.value::<u8>("--trace")?.unwrap_or(0);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut rows = Vec::new();
    for r in 0..runs {
        for workload in NAMES {
            let seed = seed + r;
            eprintln!("set: run {} of {runs}, {workload}, seed {seed}", r + 1);
            let child = Command::new(&exe)
                .args(["--workload", workload])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", &trace.to_string()])
                .output()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            if !child.status.success() {
                return Err(format!(
                    "{workload} exited with {}: {}",
                    child.status,
                    String::from_utf8_lossy(&child.stderr)
                ));
            }
            let stdout = String::from_utf8_lossy(&child.stdout);
            let line = stdout.lines().last().ok_or("run printed nothing")?;
            rows.push(format!(
                "{{\"workload\":{},\"seed\":{seed},\"result\":{line}}}",
                json_string(workload)
            ));
        }
    }
    let text = format!("{{\"runs\":[\n{}\n]}}\n", rows.join(",\n"));
    std::fs::write(&out, text).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {} runs to {}", rows.len(), out.display());
    Ok(ExitCode::SUCCESS)
}

fn run_compare(args: &Args) -> Result<ExitCode, String> {
    let [_, a, b] = args.words.as_slice() else {
        return Err("compare needs two set files".into());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        compare::parse_set(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare::compare(&load(a)?, &load(b)?)?;
    print!("{}", compare::render(&rows));
    let failed = rows.iter().any(|r| r.verdict == compare::Verdict::Fail);
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// The catalogue as JSON: the two recorded seeds, workloads, and every metric with its unit,
/// direction, bound and the end-to-end metric it should move.
fn list() -> ExitCode {
    let metric = |d: &MetricDef| {
        let bound = d.bound.map_or(String::new(), |b| format!(",\"bound\":{b}"));
        format!(
            "{{\"name\":{},\"unit\":{},\"better\":{}{bound},\"moves\":{}}}",
            json_string(d.name),
            json_string(d.unit),
            json_string(d.better),
            json_string(d.moves)
        )
    };
    let join = |defs: &[MetricDef]| defs.iter().map(metric).collect::<Vec<_>>().join(",\n  ");
    let names: Vec<String> = NAMES.iter().map(|n| json_string(n)).collect();
    println!(
        "{{\"default_seed\":{DEFAULT_SEED},\"holdout_seed\":{HOLDOUT_SEED},\n \"workloads\":[{}],\n \
         \"end_to_end\":[\n  {}],\n \"per_layer\":[\n  {}]}}",
        names.join(","),
        join(&END_TO_END),
        join(&PER_LAYER)
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    sys::scrub_motor_env();
    let args = Args::parse(std::env::args().skip(1));
    let outcome = match args.words.first().map(String::as_str) {
        None => run_one(&args),
        Some("set") => run_set(&args),
        Some("compare") => run_compare(&args),
        Some("list") => Ok(list()),
        Some(other) => Err(format!("unknown command {other}")),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("motor-benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
