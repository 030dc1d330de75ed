//! Chrome-trace-event (Perfetto) export of a [`ClusterTrace`], and the
//! inverse parse used by the `motor-trace` binary and smoke tests.
//!
//! The output follows the Trace Event Format's JSON-object form:
//! `traceEvents` holds one `"X"` (complete) event per span — `pid` is the
//! rank, `ts`/`dur` are microseconds — plus `"s"`/`"f"` flow events for
//! every message edge and `"M"` metadata naming each rank. Open the file
//! directly in <https://ui.perfetto.dev> or `chrome://tracing`.
//!
//! Exact nanosecond times and all edge fields ride in `args`, so
//! [`from_chrome_json`] reconstructs the [`ClusterTrace`] losslessly
//! (the µs `ts`/`dur` are for the viewer only).

use crate::trace::{ClusterTrace, EdgeKind, MessageEdge, TraceSpan};
use crate::SpanKind;

/// Serialize a trace to Chrome-trace-event JSON.
pub fn to_chrome_json(trace: &ClusterTrace) -> String {
    let mut ev: Vec<String> = Vec::new();
    for rank in 0..trace.ranks {
        ev.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{rank},\"tid\":0,\
             \"args\":{{\"name\":\"rank {rank}\"}}}}"
        ));
    }
    for s in &trace.spans {
        ev.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":0,\
             \"ts\":{},\"dur\":{},\"args\":{{\"span_id\":{},\"t_begin_ns\":{},\
             \"t_end_ns\":{},\"arg\":{}}}}}",
            s.kind.name(),
            s.rank,
            micros(s.t_begin),
            micros_dur(s.dur_nanos()),
            s.id,
            s.t_begin,
            s.t_end,
            s.arg,
        ));
    }
    for (i, e) in trace.edges.iter().enumerate() {
        // Flow start at the send; all edge fields ride here so the parse
        // needs only the "s" record.
        ev.push(format!(
            "{{\"name\":\"msg\",\"cat\":\"{kind}\",\"ph\":\"s\",\"id\":{i},\
             \"pid\":{src},\"tid\":0,\"ts\":{ts},\"args\":{{\
             \"edge_kind\":\"{kind}\",\"src_rank\":{src},\"dst_rank\":{dst},\
             \"tag\":{tag},\"bytes\":{bytes},\"rndv\":{rndv},\
             \"t_send_ns\":{tsend},\"t_recv_ns\":{trecv},\
             \"src_span\":{sspan},\"dst_span\":{dspan}}}}}",
            kind = e.kind.name(),
            src = e.src_rank,
            dst = e.dst_rank,
            tag = e.tag,
            bytes = e.bytes,
            rndv = if e.rndv { 1 } else { 0 },
            ts = micros(e.t_send),
            tsend = e.t_send,
            trecv = e.t_recv,
            sspan = opt(e.src_span),
            dspan = opt(e.dst_span),
            i = i,
        ));
        ev.push(format!(
            "{{\"name\":\"msg\",\"cat\":\"{}\",\"ph\":\"f\",\"bp\":\"e\",\
             \"id\":{i},\"pid\":{},\"tid\":0,\"ts\":{}}}",
            e.kind.name(),
            e.dst_rank,
            micros(e.t_recv),
        ));
    }
    let dropped: Vec<String> = trace.dropped_events.iter().map(|d| d.to_string()).collect();
    let orphaned: Vec<String> = trace.orphaned_ends.iter().map(|d| d.to_string()).collect();
    format!(
        "{{\"displayTimeUnit\":\"ns\",\"motorRanks\":{},\"motorDropped\":[{}],\
         \"motorOrphaned\":[{}],\"traceEvents\":[{}]}}",
        trace.ranks,
        dropped.join(","),
        orphaned.join(","),
        ev.join(",")
    )
}

fn micros(nanos: i64) -> String {
    format!("{}.{:03}", nanos / 1000, (nanos % 1000).unsigned_abs())
}

fn micros_dur(nanos: u64) -> String {
    format!("{}.{:03}", nanos / 1000, nanos % 1000)
}

fn opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".into(), |x| x.to_string())
}

/// Reconstruct a [`ClusterTrace`] from [`to_chrome_json`] output.
pub fn from_chrome_json(text: &str) -> Result<ClusterTrace, String> {
    let root = json::parse(text)?;
    let events = root
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or("missing traceEvents array")?;
    // Older files carry no `motorDropped`/`motorOrphaned`.
    let per_rank = |key: &str| -> Vec<u64> {
        let list = root.get(key).and_then(|v| v.as_array()).unwrap_or_default();
        list.iter().filter_map(|v| v.as_u64()).collect()
    };
    let mut trace = ClusterTrace {
        ranks: root.u64_at("motorRanks").unwrap_or(0) as usize,
        spans: Vec::new(),
        edges: Vec::new(),
        dropped_events: per_rank("motorDropped"),
        orphaned_ends: per_rank("motorOrphaned"),
    };
    let nanos = |a: &json::Value, key: &str| {
        let t = a.get(key).and_then(|v| v.as_i64());
        t.ok_or_else(|| format!("no {key}"))
    };
    for e in events {
        let args = e.get("args").ok_or("event without args");
        match e.get("ph").and_then(|v| v.as_str()).unwrap_or("") {
            "X" => {
                let name = e.get("name").and_then(|v| v.as_str()).unwrap_or("");
                let a = args?;
                let rank = e.u64_at("pid").unwrap_or(0) as usize;
                trace.spans.push(TraceSpan {
                    id: a.u64_at("span_id")?,
                    rank,
                    kind: SpanKind::from_name(name)
                        .ok_or_else(|| format!("unknown span kind {name:?}"))?,
                    t_begin: nanos(a, "t_begin_ns")?,
                    t_end: nanos(a, "t_end_ns")?,
                    arg: a.u64_at("arg").unwrap_or(0),
                });
                trace.ranks = trace.ranks.max(rank + 1);
            }
            "s" => {
                let a = args?;
                let kind_name = a.get("edge_kind").and_then(|v| v.as_str());
                let kind_name = kind_name.ok_or("no edge_kind")?;
                let (src_rank, dst_rank) = (
                    a.u64_at("src_rank")? as usize,
                    a.u64_at("dst_rank")? as usize,
                );
                trace.edges.push(MessageEdge {
                    kind: EdgeKind::from_name(kind_name)
                        .ok_or_else(|| format!("unknown edge kind {kind_name:?}"))?,
                    src_rank,
                    dst_rank,
                    tag: a.get("tag").and_then(|v| v.as_i64()).unwrap_or(0),
                    bytes: a.u64_at("bytes").unwrap_or(0),
                    rndv: a.u64_at("rndv").unwrap_or(0) != 0,
                    t_send: nanos(a, "t_send_ns")?,
                    t_recv: nanos(a, "t_recv_ns")?,
                    src_span: a.get("src_span").and_then(|v| v.as_u64()),
                    dst_span: a.get("dst_span").and_then(|v| v.as_u64()),
                });
                trace.ranks = trace.ranks.max(src_rank.max(dst_rank) + 1);
            }
            _ => {} // "f" flow ends and "M" metadata carry no extra state
        }
    }
    // Files without the two lists (and traces whose rank count grew while
    // parsing) report zeroes for the missing ranks.
    trace.dropped_events.resize(trace.ranks, 0);
    trace.orphaned_ends.resize(trace.ranks, 0);
    Ok(trace)
}

/// A minimal recursive-descent JSON parser — just enough for the trace
/// format (and vendored so the crate stays dependency-free offline).
pub mod json {
    use std::collections::BTreeMap;

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true`/`false`.
        Bool(bool),
        /// Any number (f64 holds every integer the trace emits exactly:
        /// nanosecond stamps stay well under 2^53).
        Num(f64),
        /// A string, unescaped.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, key-ordered.
        Obj(BTreeMap<String, Value>),
    }

    impl Value {
        /// Member lookup (None on non-objects).
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(m) => m.get(key),
                _ => None,
            }
        }

        /// The elements, if this is an array.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(v) => Some(v),
                _ => None,
            }
        }

        /// The string, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The number as u64, if this is a non-negative integral number.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
                _ => None,
            }
        }

        /// The non-negative integer member `key`, or an error naming it.
        pub fn u64_at(&self, key: &str) -> Result<u64, String> {
            self.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing or non-integer {key:?}"))
        }

        /// The number as i64, if integral.
        pub fn as_i64(&self) -> Option<i64> {
            match self {
                Value::Num(n) if n.fract() == 0.0 => Some(*n as i64),
                _ => None,
            }
        }
    }

    /// Deepest nesting of arrays and objects [`parse`] follows. The parser
    /// recurses once per level, and its input may come off a socket.
    pub const MAX_DEPTH: usize = 128;

    /// Parse one JSON document (trailing whitespace allowed). Nesting
    /// deeper than [`MAX_DEPTH`] is an error, not a stack overflow.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing bytes at offset {}", p.i));
        }
        Ok(v)
    }

    struct Parser<'a> {
        b: &'a [u8],
        i: usize,
        /// Arrays and objects open around `i`.
        depth: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.i += 1;
            }
        }

        fn eat(&mut self, c: u8) -> Result<(), String> {
            if self.b.get(self.i) == Some(&c) {
                self.i += 1;
                Ok(())
            } else {
                Err(format!("expected {:?} at offset {}", c as char, self.i))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            self.ws();
            match self.b.get(self.i) {
                Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(format!(
                    "nesting deeper than {MAX_DEPTH} at offset {}",
                    self.i
                )),
                Some(b'{') => self.nested(Self::object),
                Some(b'[') => self.nested(Self::array),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') => self.lit("true", Value::Bool(true)),
                Some(b'f') => self.lit("false", Value::Bool(false)),
                Some(b'n') => self.lit("null", Value::Null),
                Some(_) => self.number(),
                None => Err("unexpected end of input".into()),
            }
        }

        fn nested(
            &mut self,
            inner: fn(&mut Self) -> Result<Value, String>,
        ) -> Result<Value, String> {
            self.depth += 1;
            let v = inner(self);
            self.depth -= 1;
            v
        }

        fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
            if self.b[self.i..].starts_with(word.as_bytes()) {
                self.i += word.len();
                Ok(v)
            } else {
                Err(format!("bad literal at offset {}", self.i))
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.eat(b'{')?;
            let mut m = BTreeMap::new();
            self.ws();
            if self.b.get(self.i) == Some(&b'}') {
                self.i += 1;
                return Ok(Value::Obj(m));
            }
            loop {
                self.ws();
                let k = self.string()?;
                self.ws();
                self.eat(b':')?;
                m.insert(k, self.value()?);
                self.ws();
                match self.b.get(self.i) {
                    Some(b',') => self.i += 1,
                    Some(b'}') => {
                        self.i += 1;
                        return Ok(Value::Obj(m));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {}", self.i)),
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.eat(b'[')?;
            let mut v = Vec::new();
            self.ws();
            if self.b.get(self.i) == Some(&b']') {
                self.i += 1;
                return Ok(Value::Arr(v));
            }
            loop {
                v.push(self.value()?);
                self.ws();
                match self.b.get(self.i) {
                    Some(b',') => self.i += 1,
                    Some(b']') => {
                        self.i += 1;
                        return Ok(Value::Arr(v));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {}", self.i)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.eat(b'"')?;
            let mut s = String::new();
            loop {
                match self.b.get(self.i) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        self.i += 1;
                        return Ok(s);
                    }
                    Some(b'\\') => {
                        self.i += 1;
                        let esc = self.b.get(self.i).ok_or("unterminated escape")?;
                        self.i += 1;
                        match esc {
                            b'"' => s.push('"'),
                            b'\\' => s.push('\\'),
                            b'/' => s.push('/'),
                            b'b' => s.push('\u{8}'),
                            b'f' => s.push('\u{c}'),
                            b'n' => s.push('\n'),
                            b'r' => s.push('\r'),
                            b't' => s.push('\t'),
                            b'u' => {
                                let hex = self
                                    .b
                                    .get(self.i..self.i + 4)
                                    .ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                    16,
                                )
                                .map_err(|_| "bad \\u escape")?;
                                self.i += 4;
                                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            }
                            _ => return Err(format!("bad escape at offset {}", self.i)),
                        }
                    }
                    Some(&c) => {
                        // Multi-byte UTF-8 passes through byte by byte.
                        let start = self.i;
                        let len = if c < 0x80 {
                            1
                        } else if c < 0xe0 {
                            2
                        } else if c < 0xf0 {
                            3
                        } else {
                            4
                        };
                        let chunk = self
                            .b
                            .get(start..start + len)
                            .ok_or("truncated UTF-8 sequence")?;
                        s.push_str(std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8")?);
                        self.i += len;
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.i;
            if self.b.get(self.i) == Some(&b'-') {
                self.i += 1;
            }
            while matches!(
                self.b.get(self.i),
                Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            ) {
                self.i += 1;
            }
            std::str::from_utf8(&self.b[start..self.i])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Value::Num)
                .ok_or_else(|| format!("bad number at offset {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{build_cluster_trace, EdgeKind};
    use crate::{EventKind, MetricsRegistry, SpanKind};
    use std::time::Instant;

    fn sample_trace() -> ClusterTrace {
        let epoch = Instant::now();
        let r0 = MetricsRegistry::with_epoch(epoch, 64);
        let r1 = MetricsRegistry::with_epoch(epoch, 64);
        {
            let _g = r0.span(SpanKind::MpSend, crate::span_arg_peer_tag(1, 3));
            r0.event3(EventKind::MsgSend, 1, 3, 32);
        }
        {
            let _g = r1.span(SpanKind::MpRecv, crate::span_arg_peer_tag(0, 3));
            r1.event3(EventKind::MsgRecv, 0, 3, 32);
        }
        build_cluster_trace(&[r0.snapshot(), r1.snapshot()])
    }

    #[test]
    fn chrome_json_roundtrips() {
        let t = sample_trace();
        let text = to_chrome_json(&t);
        let back = from_chrome_json(&text).expect("parse");
        assert_eq!(back, t);
    }

    #[test]
    fn chrome_json_has_flow_pair_and_metadata() {
        let t = sample_trace();
        let text = to_chrome_json(&t);
        assert!(text.contains("\"ph\":\"s\""));
        assert!(text.contains("\"ph\":\"f\""));
        assert!(text.contains("\"process_name\""));
        assert!(text.contains("\"edge_kind\":\"payload\""));
        // And it is valid JSON by our own parser's standards.
        json::parse(&text).expect("valid json");
    }

    #[test]
    fn parser_handles_escapes_and_numbers() {
        let v =
            json::parse(r#"{"s":"a\"b\nA","n":-12.5,"t":true,"x":null,"a":[1,2]}"#).expect("parse");
        assert_eq!(v.get("s").and_then(|s| s.as_str()), Some("a\"b\nA"));
        assert_eq!(v.get("n"), Some(&json::Value::Num(-12.5)));
        assert_eq!(v.get("t"), Some(&json::Value::Bool(true)));
        assert_eq!(v.get("x"), Some(&json::Value::Null));
        assert_eq!(
            v.get("a").and_then(|a| a.as_array()).map(|a| a.len()),
            Some(2)
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(json::parse("{").is_err());
        assert!(json::parse("[1,]").is_err());
        assert!(json::parse("{}extra").is_err());
        assert!(json::parse("\"unterminated").is_err());
    }

    /// A megabyte of `[` from a scraped endpoint or a trace file is an
    /// error at level 129, whatever follows; 128 levels parse.
    #[test]
    fn nesting_is_bounded_not_recursed_to_exhaustion() {
        let bomb = "[".repeat(1 << 20);
        let err = json::parse(&bomb).expect_err("depth bomb");
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let mixed = "{\"a\":[".repeat(1 << 19);
        assert!(json::parse(&mixed).is_err());
        let deepest = format!(
            "{}{}",
            "[".repeat(json::MAX_DEPTH),
            "]".repeat(json::MAX_DEPTH)
        );
        json::parse(&deepest).expect("the bound itself parses");
        let one_more = format!("[{deepest}]");
        assert!(json::parse(&one_more).is_err());
    }

    #[test]
    fn edge_kinds_survive_roundtrip() {
        for k in [
            EdgeKind::Payload,
            EdgeKind::Rts,
            EdgeKind::Cts,
            EdgeKind::Done,
        ] {
            assert_eq!(EdgeKind::from_name(k.name()), Some(k));
        }
    }
}
