//! Folded stack accumulation in the `flamegraph.pl` / inferno text
//! format: one line per distinct stack, frames separated by `;`
//! (outermost first), a space, then the sample count.

use std::collections::BTreeMap;

/// A multiset of sampled stacks, keyed by their folded representation.
///
/// The map is ordered so [`render`](Self::render) output is canonical:
/// two runs that observe the same samples render byte-identical text
/// (the determinism tests rely on this).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FoldedStacks {
    counts: BTreeMap<String, u64>,
}

impl FoldedStacks {
    /// An empty accumulator.
    pub fn new() -> FoldedStacks {
        FoldedStacks::default()
    }

    /// Record `n` samples of the stack `key` (already `;`-joined,
    /// outermost frame first).
    pub fn add(&mut self, key: String, n: u64) {
        *self.counts.entry(key).or_insert(0) += n;
    }

    /// Record one sample of the stack given as frames, prefixed with a
    /// `rankN` root frame so multi-rank profiles fold into one graph.
    pub fn add_frames(&mut self, rank: usize, frames: &[&str]) {
        let mut key = format!("rank{rank}");
        for f in frames {
            key.push(';');
            key.push_str(f);
        }
        self.add(key, 1);
    }

    /// Total samples across all stacks.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// The `(stack, count)` pairs in canonical (lexicographic) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Render as folded text: `stack count\n` per line, canonical order.
    /// Feed this to `inferno-flamegraph` / `flamegraph.pl` directly.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, n) in &self.counts {
            out.push_str(k);
            out.push(' ');
            out.push_str(&n.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_canonical() {
        let mut f = FoldedStacks::new();
        f.add_frames(1, &["main", "cg_iter", "dot"]);
        f.add_frames(0, &["main", "cg_iter", "spmv"]);
        f.add_frames(0, &["main", "cg_iter", "spmv"]);
        f.add("rank0;main".to_string(), 3);
        assert_eq!(
            f.render(),
            "rank0;main 3\nrank0;main;cg_iter;spmv 2\nrank1;main;cg_iter;dot 1\n"
        );
        assert_eq!(f.total(), 6);
        assert_eq!(f.iter().count(), 3);
    }
}
