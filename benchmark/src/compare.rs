//! Sets of runs, and the comparison of two sets against the bounds.
//!
//! A set file is what `motor-benchmark set` writes: the result object of
//! every run it made, each with its workload and seed. `compare` reduces
//! two such files to one row per end-to-end metric and workload.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use motor_obs::export::json::{self, Value};

use crate::report::{MetricDef, END_TO_END};
use crate::stats::{median, spread};
use crate::workloads::NAMES;

/// Values of one metric on one workload across the runs of a set.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Num(n) => Some(*n),
        _ => None,
    }
}

/// Parse a set file into its samples; `failed_ratio` is derived from each
/// run's `failed` and `attempted`.
pub fn parse_set(text: &str) -> Result<Samples, String> {
    let root = json::parse(text.trim_end()).map_err(|e| format!("not JSON: {e:?}"))?;
    let runs = root
        .get("runs")
        .and_then(Value::as_array)
        .ok_or("no \"runs\" array")?;
    let mut samples = Samples::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("run without workload")?;
        let result = run.get("result").ok_or("run without result")?;
        let Some(Value::Obj(metrics)) = result.get("metrics") else {
            return Err("result without metrics".into());
        };
        for (name, m) in metrics {
            let v = m.get("value").and_then(num).ok_or("metric without value")?;
            samples
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(v);
        }
        let count = |key: &str| result.get(key).and_then(num).ok_or("result without counts");
        samples
            .entry((workload.to_string(), "failed_ratio".to_string()))
            .or_default()
            .push(count("failed")? / count("attempted")?.max(1.0));
    }
    Ok(samples)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Fail,
    /// The run-to-run spread of a side is wider than the bound, so the
    /// difference cannot be told from noise.
    Unresolved,
}

/// One row of the comparison.
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// How much worse `b`'s median is, as a share of `a`'s (negative when
    /// better).
    pub worse: f64,
    pub spread_a: f64,
    pub spread_b: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

fn side_spread(values: &[f64]) -> f64 {
    if values.len() < 2 || median(values) == 0.0 {
        0.0
    } else {
        spread(values)
    }
}

fn row(workload: &str, def: &MetricDef, a: &[f64], b: &[f64]) -> Row {
    let (ma, mb) = (median(a), median(b));
    let worse = match def.better {
        "lower" => (mb - ma) / ma,
        _ => (ma - mb) / ma,
    };
    let bound = def.bound.expect("end-to-end metrics have bounds");
    let (spread_a, spread_b) = (side_spread(a), side_spread(b));
    let verdict = if spread_a > bound || spread_b > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Fail
    } else {
        Verdict::Pass
    };
    Row {
        workload: workload.to_string(),
        metric: def.name,
        a: ma,
        b: mb,
        worse,
        spread_a,
        spread_b,
        bound,
        verdict,
    }
}

/// Compare set `b` (the change) against set `a` (the parent): every
/// end-to-end metric on every workload, and the failure ratio, for which
/// any increase fails.
pub fn compare(a: &Samples, b: &Samples) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for workload in NAMES {
        let side = |s: &'_ Samples, metric: &str| {
            s.get(&(workload.to_string(), metric.to_string()))
                .cloned()
                .ok_or(format!("{metric} on {workload} is missing from a set"))
        };
        for def in &END_TO_END {
            rows.push(row(workload, def, &side(a, def.name)?, &side(b, def.name)?));
        }
        let (fa, fb) = (side(a, "failed_ratio")?, side(b, "failed_ratio")?);
        let (ma, mb) = (median(&fa), median(&fb));
        rows.push(Row {
            workload: workload.to_string(),
            metric: "failed_ratio",
            a: ma,
            b: mb,
            worse: mb - ma,
            spread_a: 0.0,
            spread_b: 0.0,
            bound: 0.0,
            verdict: if mb > ma {
                Verdict::Fail
            } else {
                Verdict::Pass
            },
        });
    }
    Ok(rows)
}

/// The rows as a table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<16} {:<16} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict\n",
        "workload", "metric", "a (median)", "b (median)", "worse", "spread a", "spread b", "bound"
    );
    for r in rows {
        writeln!(
            out,
            "{:<16} {:<16} {:>14.4} {:>14.4} {:>+8.4} {:>8.4} {:>8.4} {:>6.2}  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse,
            r.spread_a,
            r.spread_b,
            r.bound,
            match r.verdict {
                Verdict::Pass => "PASS",
                Verdict::Fail => "FAIL",
                Verdict::Unresolved => "unresolved",
            }
        )
        .expect("write to string");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(scale: f64, failed: u64) -> String {
        let mut runs = Vec::new();
        for w in NAMES {
            for jitter in [0.99, 1.0, 1.01] {
                let metrics: Vec<String> = END_TO_END
                    .iter()
                    .map(|d| {
                        let v = 100.0
                            * jitter
                            * if d.better == "lower" {
                                scale
                            } else {
                                1.0 / scale
                            };
                        format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", d.name, d.unit)
                    })
                    .collect();
                runs.push(format!(
                    "{{\"workload\":\"{w}\",\"seed\":1,\"result\":{{\"correct\":true,\
                     \"attempted\":1000,\"failed\":{failed},\"metrics\":{{{}}}}}}}",
                    metrics.join(",")
                ));
            }
        }
        format!("{{\"runs\":[{}]}}", runs.join(","))
    }

    #[test]
    fn equal_sets_pass_and_a_slowdown_fails() {
        let a = parse_set(&set(1.0, 0)).unwrap();
        let same = compare(&a, &a).unwrap();
        assert_eq!(same.len(), NAMES.len() * (END_TO_END.len() + 1));
        assert!(same.iter().all(|r| r.verdict == Verdict::Pass));

        let slow = parse_set(&set(1.3, 0)).unwrap();
        let rows = compare(&a, &slow).unwrap();
        let p50 = rows.iter().find(|r| r.metric == "iter_us_p50").unwrap();
        assert_eq!(p50.verdict, Verdict::Fail);
        assert!((p50.worse - 0.3).abs() < 1e-9);
        // A rate 1.3 times lower is 23 % worse: inside a bound of 25 %.
        let rate = rows.iter().find(|r| r.metric == "iters_per_s").unwrap();
        assert_eq!(rate.verdict, Verdict::Pass);
        assert!((rate.worse - (1.0 - 1.0 / 1.3)).abs() < 1e-9);
        assert!(render(&rows).contains("FAIL"));
    }

    #[test]
    fn any_new_failure_fails() {
        let a = parse_set(&set(1.0, 0)).unwrap();
        let b = parse_set(&set(1.0, 1)).unwrap();
        let rows = compare(&a, &b).unwrap();
        assert!(rows
            .iter()
            .all(|r| (r.metric == "failed_ratio") == (r.verdict == Verdict::Fail)));
    }

    #[test]
    fn a_wide_spread_is_unresolved() {
        let a = parse_set(&set(1.0, 0)).unwrap();
        let mut noisy = a.clone();
        let key = ("pingpong_small".to_string(), "iter_us_p50".to_string());
        noisy.insert(key, vec![60.0, 100.0, 140.0]);
        let rows = compare(&a, &noisy).unwrap();
        let r = rows
            .iter()
            .find(|r| r.workload == "pingpong_small" && r.metric == "iter_us_p50")
            .unwrap();
        assert_eq!(r.verdict, Verdict::Unresolved);
    }
}
