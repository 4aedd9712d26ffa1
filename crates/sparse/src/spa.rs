//! Reusable sparse accumulator (SPA): the dense-scratch workspace
//! behind the SpGEMM kernel.
//!
//! The classic Gustavson accumulator keeps a dense value array plus a
//! pattern list and sorts the pattern before emitting each column. This
//! variant removes both the per-column sort and the per-column
//! allocation:
//!
//! - a **generation-stamp array** marks which rows are live for the
//!   current column (advancing the generation invalidates every stamp
//!   in O(1), so nothing is cleared between columns);
//! - an **occupancy bitset** with a touched-word range yields the live
//!   rows in ascending order by scanning words and their set bits — the
//!   extraction order a sort used to provide, at O(span/64 + nnz)
//!   instead of O(nnz log nnz).
//!
//! Numerical contract: per-row accumulation replays the exact
//! floating-point chain of the reference kernels (`0.0` init followed
//! by in-visit-order adds), and extraction walks rows in the same
//! ascending order — so SPA-based kernels are **bitwise identical** to
//! their sort-based references. Every live row is a computed sum, so
//! extraction drops rows whose value is exactly zero (cancellation).

/// Dense scratch + generation stamps + occupancy bitset. Create once,
/// call [`SparseAccumulator::begin`] per output column, scatter, then
/// extract. Buffers grow monotonically and are reused across columns
/// and iterations.
#[derive(Debug)]
pub struct SparseAccumulator {
    /// Dense value scratch, one slot per row.
    vals: Vec<f64>,
    /// Generation per row; a row is live for the current column iff
    /// its stamp matches the current generation.
    stamp: Vec<u64>,
    /// Occupancy bitset over rows, cleared lazily over the touched
    /// word range at each [`SparseAccumulator::begin`].
    occ: Vec<u64>,
    /// Current generation.
    gen: u64,
    /// Touched word range `wlo..=whi` of `occ` (`wlo > whi` = empty).
    wlo: usize,
    whi: usize,
}

impl Default for SparseAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl SparseAccumulator {
    /// Empty accumulator; sized lazily by [`SparseAccumulator::begin`].
    pub fn new() -> Self {
        SparseAccumulator {
            vals: Vec::new(),
            stamp: Vec::new(),
            occ: Vec::new(),
            gen: 0,
            wlo: 1,
            whi: 0,
        }
    }

    /// Start a new output column of height `rows`: grow the scratch if
    /// needed, clear the previously touched bitset words, and advance
    /// the generation so every stamp from earlier columns goes stale.
    pub fn begin(&mut self, rows: usize) {
        if self.vals.len() < rows {
            self.vals.resize(rows, 0.0);
            self.stamp.resize(rows, 0);
            self.occ.resize(rows.div_ceil(64), 0);
        }
        if self.wlo <= self.whi {
            for w in &mut self.occ[self.wlo..=self.whi] {
                *w = 0;
            }
        }
        self.wlo = usize::MAX;
        self.whi = 0;
        self.gen += 1;
    }

    #[inline]
    fn mark(&mut self, r: usize) {
        let w = r >> 6;
        self.occ[w] |= 1u64 << (r & 63);
        if w < self.wlo {
            self.wlo = w;
        }
        if w > self.whi {
            self.whi = w;
        }
    }

    /// Gustavson scatter-add: `acc[r] += v`, first touch initializing
    /// the slot to `0.0` (the reference kernels' exact chain — note
    /// `0.0 + v` is not always bitwise `v`).
    #[inline]
    pub fn scatter_add(&mut self, r: usize, v: f64) {
        if self.stamp[r] == self.gen {
            self.vals[r] += v;
        } else {
            self.stamp[r] = self.gen;
            self.vals[r] = 0.0;
            self.vals[r] += v;
            self.mark(r);
        }
    }

    /// Append the live rows in ascending order to `rows`/`vals`,
    /// dropping rows whose value is exactly zero.
    pub fn extract_append(&self, rows: &mut Vec<usize>, vals: &mut Vec<f64>) {
        if self.wlo > self.whi {
            return;
        }
        for w in self.wlo..=self.whi {
            let mut word = self.occ[w];
            let base = w << 6;
            while word != 0 {
                let r = base + word.trailing_zeros() as usize;
                word &= word - 1;
                let v = self.vals[r];
                if v != 0.0 {
                    rows.push(r);
                    vals.push(v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_accumulates_and_extracts_sorted() {
        let mut spa = SparseAccumulator::new();
        spa.begin(200);
        spa.scatter_add(130, 1.5);
        spa.scatter_add(7, 2.0);
        spa.scatter_add(130, 0.5);
        spa.scatter_add(64, -3.0);
        let mut rows = Vec::new();
        let mut vals = Vec::new();
        spa.extract_append(&mut rows, &mut vals);
        assert_eq!(rows, vec![7, 64, 130]);
        assert_eq!(vals, vec![2.0, -3.0, 2.0]);
    }

    #[test]
    fn generation_invalidates_previous_column() {
        let mut spa = SparseAccumulator::new();
        spa.begin(10);
        spa.scatter_add(3, 1.0);
        spa.begin(10);
        spa.scatter_add(5, 2.0);
        let mut rows = Vec::new();
        let mut vals = Vec::new();
        spa.extract_append(&mut rows, &mut vals);
        assert_eq!(rows, vec![5]);
        assert_eq!(vals, vec![2.0]);
    }

    #[test]
    fn exact_cancellation_is_dropped() {
        let mut spa = SparseAccumulator::new();
        spa.begin(8);
        spa.scatter_add(1, 1.0);
        spa.scatter_add(1, -1.0); // cancels -> dropped
        spa.scatter_add(4, 2.5);
        let mut rows = Vec::new();
        let mut vals = Vec::new();
        spa.extract_append(&mut rows, &mut vals);
        assert_eq!(rows, vec![4]);
        assert_eq!(vals, vec![2.5]);
    }

    #[test]
    fn grows_across_begins() {
        let mut spa = SparseAccumulator::new();
        spa.begin(4);
        spa.scatter_add(3, 1.0);
        spa.begin(1000);
        spa.scatter_add(999, 7.0);
        spa.scatter_add(3, 1.0);
        let mut rows = Vec::new();
        let mut vals = Vec::new();
        spa.extract_append(&mut rows, &mut vals);
        assert_eq!(rows, vec![3, 999]);
        assert_eq!(vals, vec![1.0, 7.0]);
    }

    #[test]
    fn empty_extract_is_noop() {
        let mut spa = SparseAccumulator::new();
        spa.begin(0);
        let mut rows = Vec::new();
        let mut vals = Vec::new();
        spa.extract_append(&mut rows, &mut vals);
        assert!(rows.is_empty() && vals.is_empty());
    }
}
