//! Prometheus text-exposition export of a [`MetricsSnapshot`], so
//! long-running clusters can be scraped.
//!
//! Counters become `motor_<name>` counter families (high-water marks are
//! gauges — they are not monotonic across restarts); each log2 histogram
//! becomes a `motor_<name>` histogram family with **cumulative** `le`
//! buckets at the power-of-two upper bounds, an exact `_count`, and a
//! midpoint-estimated `_sum` (log2 buckets keep counts, not sums).
//!
//! [`check_prometheus_text`] is a line-syntax validator used by the tests
//! (and usable as a cheap pre-scrape sanity check): metric-name grammar,
//! label quoting, numeric sample values, and TYPE-before-samples.

use crate::{Hist, Metric, MetricsSnapshot, HIST_BUCKETS};

/// `{k="v",...}` for `labels` followed by `extra` (empty when there are
/// none).
fn label_block(labels: &[(&str, &str)], extra: Option<(&str, &str)>) -> String {
    let parts: Vec<String> = labels
        .iter()
        .chain(&extra)
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Render `snap` in the Prometheus text exposition format. `labels` are
/// attached to every sample (e.g. `&[("rank", "2")]`).
///
/// Every [`Metric`] and every [`Hist`] appears exactly once; for each
/// histogram the final cumulative bucket (`le="+Inf"`) and `_count`
/// equal [`crate::HistSnapshot::count`].
pub fn to_prometheus(snap: &MetricsSnapshot, labels: &[(&str, &str)]) -> String {
    to_prometheus_multi(&[(snap, labels)])
}

/// The binary identity gauge: `motor_build_info{version,git} 1`, so a
/// scrape always says what produced it. `git` comes from the
/// `MOTOR_GIT_SHA` compile-time environment variable when the build sets
/// it (CI does), `unknown` otherwise.
pub fn build_info_prometheus() -> String {
    format!(
        "# TYPE motor_build_info gauge\nmotor_build_info{{version=\"{}\",git=\"{}\"}} 1\n",
        env!("CARGO_PKG_VERSION"),
        option_env!("MOTOR_GIT_SHA").unwrap_or("unknown")
    )
}

/// Render several labeled snapshots (e.g. one per rank) into **one**
/// exposition document: each `# TYPE` line is emitted exactly once per
/// family, followed by one sample per snapshot. Concatenating separate
/// [`to_prometheus`] outputs would repeat the TYPE lines, which real
/// Prometheus servers reject even though each half is well-formed — this
/// is what a multi-rank `/metrics` endpoint must serve instead.
pub fn to_prometheus_multi(snaps: &[(&MetricsSnapshot, &[(&str, &str)])]) -> String {
    let mut out = build_info_prometheus();
    for m in Metric::ALL {
        let family = format!("motor_{}", m.name());
        let ty = if m.is_peak() { "gauge" } else { "counter" };
        out.push_str(&format!("# TYPE {family} {ty}\n"));
        for (snap, labels) in snaps {
            out.push_str(&format!(
                "{family}{} {}\n",
                label_block(labels, None),
                snap.get(m)
            ));
        }
    }
    for h in Hist::ALL {
        let family = format!("motor_{}", h.name());
        out.push_str(&format!("# TYPE {family} histogram\n"));
        for (snap, labels) in snaps {
            let lb = label_block(labels, None);
            let hs = snap.hist(h);
            let total = hs.count();
            let last = hs.buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
            let mut cumulative = 0u64;
            for k in 0..=last.min(HIST_BUCKETS - 1) {
                cumulative += hs.buckets[k];
                // Bucket 0 holds exactly 0, bucket 1 holds 1 and 2, and
                // bucket k ≥ 2 covers (2^(k-1), 2^k].
                let le = if k == 0 { 0 } else { 1u64 << k };
                out.push_str(&format!(
                    "{family}_bucket{} {cumulative}\n",
                    label_block(labels, Some(("le", &le.to_string())))
                ));
            }
            out.push_str(&format!(
                "{family}_bucket{} {total}\n",
                label_block(labels, Some(("le", "+Inf")))
            ));
            out.push_str(&format!("{family}_sum{lb} {}\n", hs.estimated_sum()));
            out.push_str(&format!("{family}_count{lb} {total}\n"));
        }
    }
    out
}

fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Base family name of a sample: strips histogram suffixes.
fn family_of(name: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            return base;
        }
    }
    name
}

/// Validate Prometheus text-exposition syntax line by line: `# TYPE` /
/// `# HELP` comments, `name{labels} value` samples with well-formed
/// names, quoted label values, parseable numbers — and every sample's
/// family must have been declared by a preceding `# TYPE` line.
pub fn check_prometheus_text(text: &str) -> Result<(), String> {
    let mut typed: Vec<String> = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let err = |msg: &str| Err(format!("line {}: {msg}: {line:?}", ln + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut it = rest.splitn(3, ' ');
            let keyword = it.next().unwrap_or("");
            if keyword == "TYPE" {
                let name = it.next().unwrap_or("");
                let kind = it.next().unwrap_or("");
                if !valid_name(name) {
                    return err("bad metric name in TYPE");
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return err("bad metric type");
                }
                typed.push(name.to_string());
            }
            continue; // HELP and free comments pass
        }
        if line.starts_with('#') {
            continue;
        }
        // Sample: name[{labels}] value
        let (name_labels, value) = match line.rsplit_once(' ') {
            Some(split) => split,
            None => return err("sample without value"),
        };
        if value.parse::<f64>().is_err() && value != "+Inf" && value != "-Inf" && value != "NaN" {
            return err("unparseable sample value");
        }
        let name = match name_labels.split_once('{') {
            Some((n, labels)) => {
                let labels = match labels.strip_suffix('}') {
                    Some(l) => l,
                    None => return err("unterminated label block"),
                };
                for pair in split_labels(labels) {
                    let (k, v) = match pair.split_once('=') {
                        Some(kv) => kv,
                        None => return err("label without '='"),
                    };
                    if !valid_name(k) {
                        return err("bad label name");
                    }
                    if !(v.len() >= 2 && v.starts_with('"') && v.ends_with('"')) {
                        return err("unquoted label value");
                    }
                }
                n
            }
            None => name_labels,
        };
        if !valid_name(name) {
            return err("bad metric name");
        }
        if !typed.iter().any(|t| t == family_of(name)) {
            return err("sample before its # TYPE declaration");
        }
    }
    Ok(())
}

/// Split a label body on commas outside quotes.
fn split_labels(body: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let (mut start, mut in_quotes, mut escaped) = (0usize, false, false);
    for (i, c) in body.char_indices() {
        match c {
            '\\' if in_quotes => escaped = !escaped,
            '"' if !escaped => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                out.push(&body[start..i]);
                start = i + 1;
            }
            _ => escaped = false,
        }
    }
    if start < body.len() {
        out.push(&body[start..]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    #[test]
    fn every_metric_and_hist_appears() {
        let r = MetricsRegistry::new();
        r.bump(Metric::SendsEager);
        r.record(Hist::EagerSendBytes, 100);
        let text = to_prometheus(&r.snapshot(), &[("rank", "0")]);
        for m in Metric::ALL {
            assert!(
                text.contains(&format!("motor_{}{{rank=\"0\"}}", m.name())),
                "missing counter {}",
                m.name()
            );
        }
        for h in Hist::ALL {
            assert!(
                text.contains(&format!("# TYPE motor_{} histogram", h.name())),
                "missing histogram {}",
                h.name()
            );
            assert!(text.contains(&format!("motor_{}_count{{rank=\"0\"}}", h.name())));
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_sum_to_count() {
        let r = MetricsRegistry::new();
        for v in [0u64, 1, 1, 3, 100, 70_000] {
            r.record(Hist::WaitNanos, v);
        }
        let snap = r.snapshot();
        let text = to_prometheus(&snap, &[]);
        let total = snap.hist(Hist::WaitNanos).count();
        let mut prev = 0u64;
        let mut inf = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("motor_wait_nanos_bucket{le=\"") {
                let (le, val) = rest.split_once("\"} ").unwrap();
                let val: u64 = val.parse().unwrap();
                assert!(val >= prev, "buckets must be cumulative");
                prev = val;
                if le == "+Inf" {
                    inf = Some(val);
                }
            }
        }
        assert_eq!(inf, Some(total), "+Inf bucket equals the total count");
        assert!(text.contains(&format!("motor_wait_nanos_count {total}")));
    }

    #[test]
    fn output_passes_line_syntax_check() {
        let r = MetricsRegistry::new();
        r.add(Metric::ChanBytesOut, 12345);
        r.record_max(Metric::PostedQueuePeak, 4);
        r.record(Hist::RndvSendBytes, 1 << 20);
        let text = to_prometheus(&r.snapshot(), &[("rank", "3"), ("job", "heat\"2\"")]);
        check_prometheus_text(&text).expect("valid exposition format");
    }

    #[test]
    fn peaks_are_gauges_counters_are_counters() {
        let text = to_prometheus(&MetricsRegistry::new().snapshot(), &[]);
        assert!(text.contains("# TYPE motor_posted_queue_peak gauge"));
        assert!(text.contains("# TYPE motor_unexpected_queue_peak gauge"));
        assert!(text.contains("# TYPE motor_sends_eager counter"));
    }

    #[test]
    fn build_info_always_identifies_the_binary() {
        let text = to_prometheus(&MetricsRegistry::new().snapshot(), &[]);
        assert!(text.contains("# TYPE motor_build_info gauge"));
        assert!(text.contains(&format!(
            "motor_build_info{{version=\"{}\",git=",
            env!("CARGO_PKG_VERSION")
        )));
        check_prometheus_text(&text).expect("valid exposition format");
    }

    #[test]
    fn trace_ring_overflow_is_scrapable() {
        // The live endpoint must surface ring overflow: overflow the
        // 4-slot ring and check the counter travels the Prometheus path.
        let r = MetricsRegistry::with_event_capacity(4);
        for i in 0..10u64 {
            r.event(crate::EventKind::MsgSend, i, 0);
        }
        let text = to_prometheus(&r.snapshot(), &[("rank", "0")]);
        assert!(text.contains("# TYPE motor_trace_events_dropped counter"));
        assert!(text.contains("motor_trace_events_dropped{rank=\"0\"} 6"));
    }

    #[test]
    fn multi_rank_exposition_declares_each_family_once() {
        let r0 = MetricsRegistry::new();
        let r1 = MetricsRegistry::new();
        r0.bump(Metric::SendsEager);
        r1.add(Metric::SendsEager, 3);
        r1.record(Hist::WaitNanos, 512);
        let (s0, s1) = (r0.snapshot(), r1.snapshot());
        let text = to_prometheus_multi(&[
            (&s0, &[("group", "0"), ("rank", "0")]),
            (&s1, &[("group", "0"), ("rank", "1")]),
        ]);
        check_prometheus_text(&text).expect("valid exposition format");
        // One TYPE per family even with two snapshots...
        let type_lines = text
            .lines()
            .filter(|l| *l == "# TYPE motor_sends_eager counter")
            .count();
        assert_eq!(type_lines, 1);
        // ...but one sample per rank.
        assert!(text.contains("motor_sends_eager{group=\"0\",rank=\"0\"} 1"));
        assert!(text.contains("motor_sends_eager{group=\"0\",rank=\"1\"} 3"));
        assert!(text.contains("motor_wait_nanos_count{group=\"0\",rank=\"1\"} 1"));
        let hist_types = text
            .lines()
            .filter(|l| *l == "# TYPE motor_wait_nanos histogram")
            .count();
        assert_eq!(hist_types, 1);
    }

    #[test]
    fn syntax_check_rejects_garbage() {
        assert!(check_prometheus_text("motor_x 1").is_err(), "no TYPE");
        assert!(check_prometheus_text("# TYPE motor_x counter\nmotor_x").is_err());
        assert!(check_prometheus_text("# TYPE motor_x counter\nmotor_x abc").is_err());
        assert!(check_prometheus_text("# TYPE 9bad counter\n").is_err());
        assert!(
            check_prometheus_text("# TYPE motor_x counter\nmotor_x{le=1} 2").is_err(),
            "unquoted label value"
        );
        assert!(check_prometheus_text("# TYPE motor_x counter\nmotor_x{a=\"b\"} 2\n").is_ok());
    }
}
