//! Seeded input generation. Everything a workload feeds the stack comes
//! from here; the stack itself never sees the seed.

/// SplitMix64: small, fast, and good enough to decorrelate the streams
/// the workloads draw (payload bytes, sparsity pattern, permutations).
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed, so that adding a
    /// draw to one stream never shifts another.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0; the modulo bias is below 2^-40 for
    /// every `n` used here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// A sparse symmetric positive-definite matrix in CSR form.
pub struct SparseSpd {
    pub n: usize,
    pub row_ptr: Vec<usize>,
    pub col: Vec<u32>,
    pub val: Vec<f64>,
}

impl SparseSpd {
    /// `n` rows with `links` seeded off-diagonal partners each, mirrored
    /// (so about `2 * links + 1` non-zeros per row). Off-diagonals lie in
    /// `(-1, 0)`; each diagonal is its row's absolute off-diagonal sum
    /// times `1 + margin`, which makes the matrix strictly diagonally
    /// dominant, hence positive definite, with a condition number that
    /// grows as `margin` shrinks.
    pub fn generate(rng: &mut Rng, n: usize, links: usize, margin: f64) -> SparseSpd {
        let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for i in 0..n {
            for _ in 0..links {
                let j = rng.below(n);
                let v = -(0.05 + 0.95 * rng.unit());
                if j == i || rows[i].iter().any(|&(c, _)| c as usize == j) {
                    continue;
                }
                rows[i].push((j as u32, v));
                rows[j].push((i as u32, v));
            }
        }
        let mut m = SparseSpd {
            n,
            row_ptr: Vec::with_capacity(n + 1),
            col: Vec::new(),
            val: Vec::new(),
        };
        m.row_ptr.push(0);
        for (i, row) in rows.iter_mut().enumerate() {
            let diag = row.iter().map(|&(_, v)| v.abs()).sum::<f64>() * (1.0 + margin) + 1e-3;
            row.push((i as u32, diag));
            row.sort_by_key(|&(c, _)| c);
            for &(c, v) in row.iter() {
                m.col.push(c);
                m.val.push(v);
            }
            m.row_ptr.push(m.col.len());
        }
        m
    }

    pub fn nnz(&self) -> usize {
        self.col.len()
    }

    /// `out = A[rows] * v` for the row block starting at `row0`.
    pub fn spmv_rows(&self, row0: usize, v: &[f64], out: &mut [f64]) {
        for (li, o) in out.iter_mut().enumerate() {
            let (a, b) = (self.row_ptr[row0 + li], self.row_ptr[row0 + li + 1]);
            let mut acc = 0.0;
            for k in a..b {
                acc += self.val[k] * v[self.col[k] as usize];
            }
            *o = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a = Rng::new(7, 1).bytes(100);
        assert_eq!(a, Rng::new(7, 1).bytes(100));
        assert_ne!(a, Rng::new(8, 1).bytes(100));
        assert_ne!(a, Rng::new(7, 2).bytes(100));
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = Rng::new(3, 0).permutation(256);
        assert_ne!(p, (0..256).collect::<Vec<_>>());
        p.sort_unstable();
        assert_eq!(p, (0..256).collect::<Vec<_>>());
    }

    #[test]
    fn matrix_is_symmetric_and_dominant() {
        let m = SparseSpd::generate(&mut Rng::new(1, 0), 200, 6, 0.05);
        let at = |i: usize, j: usize| {
            (m.row_ptr[i]..m.row_ptr[i + 1])
                .find(|&k| m.col[k] as usize == j)
                .map_or(0.0, |k| m.val[k])
        };
        for i in 0..m.n {
            let mut off = 0.0;
            for k in m.row_ptr[i]..m.row_ptr[i + 1] {
                let j = m.col[k] as usize;
                assert_eq!(m.val[k], at(j, i));
                if j != i {
                    off += m.val[k].abs();
                }
            }
            assert!(at(i, i) > off);
        }
        assert!(m.nnz() > 200 * 10 && m.nnz() < 200 * 14);
    }
}
