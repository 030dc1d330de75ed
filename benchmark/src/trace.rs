//! In-memory spans recorded by the harness around its calls into each
//! layer, and their reduction to per-name statistics.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index value meaning "no span" (tracing off, or the buffer is full).
pub const NO_SPAN: u32 = u32::MAX;

/// One call into a layer: what, when, which span caused it, and the
/// iteration all spans of one request share.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the run's shared epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same rank's buffer, or
    /// [`NO_SPAN`] for an iteration's root.
    pub parent: u32,
    pub iter: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-rank span buffer. Spans stay in memory until the run ends; when the
/// preallocated buffer is full further spans are counted, not stored.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    cap: usize,
    open: u32,
    pub dropped: u64,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            cap: 0,
            open: NO_SPAN,
            dropped: 0,
        }
    }

    pub fn on(epoch: Instant, cap: usize) -> Tracer {
        Tracer {
            epoch,
            enabled: true,
            spans: Vec::with_capacity(cap),
            cap,
            open: NO_SPAN,
            dropped: 0,
        }
    }

    /// Spans recorded so far.
    pub fn recorded(&self) -> usize {
        self.spans.len()
    }

    pub fn capacity(&self) -> usize {
        self.cap
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str, iter: u64) -> u32 {
        if !self.enabled {
            return NO_SPAN;
        }
        if self.spans.len() == self.cap {
            self.dropped += 1;
            return NO_SPAN;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open,
            iter,
        });
        self.open = id;
        id
    }

    #[inline]
    pub fn end(&mut self, id: u32) {
        if id == NO_SPAN {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let s = &mut self.spans[id as usize];
        s.end_ns = now;
        self.open = s.parent;
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Count, total and median duration of the spans of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    pub p50_ns: f64,
}

/// Reduce spans to per-name statistics.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let mut durs: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for s in spans {
        durs.entry(s.name).or_default().push(s.nanos());
    }
    durs.into_iter()
        .map(|(name, mut d)| {
            d.sort_unstable();
            let stats = NameStats {
                count: d.len() as u64,
                total_ns: d.iter().sum(),
                p50_ns: d[(d.len() - 1) / 2] as f64,
            };
            (name, stats)
        })
        .collect()
}

/// Self time of every span: its duration minus what its children cover.
pub fn self_nanos(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::nanos).collect();
    for s in spans {
        if s.parent != NO_SPAN {
            let p = &mut own[s.parent as usize];
            *p = p.saturating_sub(s.nanos());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_subtracts_children() {
        let mut t = Tracer::on(Instant::now(), 8);
        let root = t.begin("iter", 3);
        let a = t.begin("send", 3);
        t.end(a);
        let b = t.begin("recv", 3);
        t.end(b);
        t.end(root);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_SPAN);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert!(spans.iter().all(|s| s.iter == 3 && s.end_ns >= s.start_ns));
        let own = self_nanos(&spans);
        assert_eq!(
            own[0],
            spans[0].nanos() - spans[1].nanos() - spans[2].nanos()
        );
        let stats = by_name(&spans);
        assert_eq!(stats["iter"].count, 1);
        assert_eq!(stats["send"].total_ns, spans[1].nanos());
    }

    #[test]
    fn full_buffer_counts_instead_of_growing() {
        let mut t = Tracer::on(Instant::now(), 1);
        let a = t.begin("a", 0);
        let b = t.begin("b", 0);
        assert_eq!(b, NO_SPAN);
        t.end(b);
        t.end(a);
        assert_eq!((t.recorded(), t.dropped), (1, 1));
        let mut off = Tracer::off();
        assert_eq!(off.begin("x", 0), NO_SPAN);
    }
}
