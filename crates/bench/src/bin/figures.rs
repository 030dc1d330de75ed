//! Regenerate the paper's figures.
//!
//! ```text
//! figures fig9            # Figure 9: ping-pong, regular MPI operations
//! figures fig10           # Figure 10: ping-pong, linked-list object trees
//! figures all             # both
//! figures fig9 --quick    # reduced protocol (CI smoke)
//! ```
//!
//! Output: a markdown table per figure on stdout, a CSV next to it in
//! `bench_results/`, and a metrics sidecar CSV (`fig9_metrics.csv` /
//! `fig10_metrics.csv`) with one row per (system, size) run carrying the
//! full cluster-aggregated counter and histogram set from `motor-obs`.

use std::fmt::Write as _;
use std::fs;

use motor_bench::protocol::{DEFAULT_PROTOCOL, QUICK_PROTOCOL};
use motor_bench::series::{fig10_object_pingpong, fig9_pingpong, Fig10Impl, Fig9Impl};
use motor_bench::workloads::{fig10_object_counts, fig9_buffer_sizes};
use motor_obs::MetricsSnapshot;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let what = args.first().map(String::as_str).unwrap_or("all");
    let protocol = if quick {
        QUICK_PROTOCOL
    } else {
        DEFAULT_PROTOCOL
    };

    fs::create_dir_all("bench_results").ok();

    match what {
        "fig9" => fig9(protocol),
        "fig10" => fig10(protocol),
        "all" | "--quick" => {
            fig9(protocol);
            fig10(protocol);
        }
        other => {
            eprintln!("unknown figure `{other}`; use fig9, fig10 or all");
            std::process::exit(2);
        }
    }
}

fn fig9(protocol: motor_bench::PingPongProtocol) {
    println!("\n## Figure 9 — ping-pong, regular MPI operations (µs/iteration)\n");
    let systems = Fig9Impl::ALL;
    let sizes = fig9_buffer_sizes();

    let mut md = String::new();
    let mut csv = String::new();
    write!(md, "| Buffer (bytes) |").unwrap();
    write!(csv, "buffer_bytes").unwrap();
    for s in systems {
        write!(md, " {} |", s.label()).unwrap();
        write!(csv, ",{}", s.label()).unwrap();
    }
    writeln!(md).unwrap();
    write!(md, "|---:|").unwrap();
    for _ in systems {
        write!(md, "---:|").unwrap();
    }
    writeln!(md).unwrap();
    writeln!(csv).unwrap();

    let mut metrics_csv = MetricsSnapshot::csv_header();
    metrics_csv.push('\n');
    for &bytes in &sizes {
        write!(md, "| {bytes} |").unwrap();
        write!(csv, "{bytes}").unwrap();
        for sys in systems {
            let (us, snap) = fig9_pingpong(sys, bytes, protocol);
            write!(md, " {us:.2} |").unwrap();
            write!(csv, ",{us:.3}").unwrap();
            let label = format!("{}/{}", sys.label(), bytes);
            metrics_csv.push_str(&snap.csv_row(&label));
            metrics_csv.push('\n');
        }
        writeln!(md).unwrap();
        writeln!(csv).unwrap();
        eprint!(".");
    }
    eprintln!();
    println!("{md}");
    fs::write("bench_results/fig9.csv", csv).expect("write fig9.csv");
    fs::write("bench_results/fig9_metrics.csv", metrics_csv).expect("write fig9_metrics.csv");
    println!(
        "(written to bench_results/fig9.csv, metrics sidecar in bench_results/fig9_metrics.csv)"
    );
}

fn fig10(protocol: motor_bench::PingPongProtocol) {
    println!("\n## Figure 10 — ping-pong, linked-list object transport (µs/iteration)\n");
    // The paper's four series — "Motor" selects the paper's linear visited
    // list explicitly — then the visited table the stack ships.
    let systems = Fig10Impl::PAPER.into_iter().chain([Fig10Impl::MotorHashed]);
    let systems: Vec<Fig10Impl> = systems.collect();
    let counts = fig10_object_counts();

    let mut md = String::new();
    let mut csv = String::new();
    write!(md, "| Total objects |").unwrap();
    write!(csv, "total_objects").unwrap();
    for s in &systems {
        write!(md, " {} |", s.label()).unwrap();
        write!(csv, ",{}", s.label()).unwrap();
    }
    writeln!(md).unwrap();
    write!(md, "|---:|").unwrap();
    for _ in &systems {
        write!(md, "---:|").unwrap();
    }
    writeln!(md).unwrap();
    writeln!(csv).unwrap();

    let mut metrics_csv = MetricsSnapshot::csv_header();
    metrics_csv.push('\n');
    for &objects in &counts {
        write!(md, "| {objects} |").unwrap();
        write!(csv, "{objects}").unwrap();
        for &sys in &systems {
            match fig10_object_pingpong(sys, objects, protocol) {
                Some((us, snap)) => {
                    write!(md, " {us:.2} |").unwrap();
                    write!(csv, ",{us:.3}").unwrap();
                    let label = format!("{}/{}", sys.label(), objects);
                    metrics_csv.push_str(&snap.csv_row(&label));
                    metrics_csv.push('\n');
                }
                None => {
                    write!(md, " StackOverflow |").unwrap();
                    write!(csv, ",").unwrap();
                }
            }
        }
        writeln!(md).unwrap();
        writeln!(csv).unwrap();
        eprint!(".");
    }
    eprintln!();
    println!("{md}");
    fs::write("bench_results/fig10.csv", csv).expect("write fig10.csv");
    fs::write("bench_results/fig10_metrics.csv", metrics_csv).expect("write fig10_metrics.csv");
    println!(
        "(written to bench_results/fig10.csv, metrics sidecar in bench_results/fig10_metrics.csv)"
    );
}
