//! Fixed-memory latency histogram and the order statistics the reports use.

/// Sub-buckets per octave: 2^8, so a bucket is at most 0.4 % wide.
const SUB_BITS: u32 = 8;
const SUB: usize = 1 << SUB_BITS;
/// Values up to 2^40 ns (18 minutes) keep full relative precision.
const OCTAVES: usize = 40 - SUB_BITS as usize + 1;

/// Log-linear histogram of nanosecond durations.
///
/// Memory is fixed (about 33 k counters) whatever the number of samples, so
/// the end-to-end `peak_rss_mb` does not depend on how many iterations a
/// run completes. Values below 256 ns are counted exactly; above that each
/// octave is cut into 256 equal buckets.
pub struct LogHist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHist {
    pub fn new() -> LogHist {
        LogHist {
            counts: vec![0; (OCTAVES + 1) * SUB],
            total: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let e = 63 - v.leading_zeros(); // >= SUB_BITS
        let shift = e - SUB_BITS;
        let octave = (shift + 1) as usize;
        let sub = ((v >> shift) as usize) & (SUB - 1);
        (octave.min(OCTAVES) << SUB_BITS) + sub
    }

    /// Lower bound and width of bucket `i`.
    fn bounds(i: usize) -> (u64, u64) {
        let octave = i >> SUB_BITS;
        let sub = (i & (SUB - 1)) as u64;
        if octave == 0 {
            return (sub, 1);
        }
        let shift = (octave - 1) as u32;
        ((SUB as u64 + sub) << shift, 1 << shift)
    }

    #[inline]
    pub fn record(&mut self, nanos: u64) {
        self.counts[Self::index(nanos)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile in nanoseconds, interpolated inside its bucket by
    /// rank, so the value moves continuously with the samples instead of
    /// snapping to bucket edges. 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0);
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (before + c) as f64 >= rank {
                let (lo, width) = Self::bounds(i);
                let frac = (rank - before as f64 - 0.5) / c as f64;
                return lo as f64 + width as f64 * frac;
            }
            before += c;
        }
        unreachable!("rank is at most the total count")
    }
}

/// Median of the values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartile cut points, as Python's `statistics.quantiles(values, n=4)`
/// (the exclusive method) computes them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let q = quartiles(values);
    (q[2] - q[0]).abs() / median(values).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHist::new();
        for v in [10, 10, 10, 20] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.quantile(0.5) - 10.5).abs() < 0.51);
        assert!((h.quantile(1.0) - 20.5).abs() < 0.51);
    }

    #[test]
    fn buckets_invert_within_half_a_percent() {
        for v in [
            255u64,
            256,
            257,
            3_400,
            65_535,
            1 << 20,
            123_456_789,
            1 << 39,
        ] {
            let (lo, w) = LogHist::bounds(LogHist::index(v));
            assert!(lo <= v && v < lo + w, "{v} not in [{lo}, {})", lo + w);
            assert!(w as f64 <= v as f64 / 200.0 + 1.0);
        }
    }

    #[test]
    fn quantile_tracks_a_uniform_ramp() {
        let mut h = LogHist::new();
        for v in 1_000..=101_000u64 {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99] {
            let want = 1_000.0 + q * 100_000.0;
            assert!((h.quantile(q) - want).abs() / want < 0.005);
        }
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
