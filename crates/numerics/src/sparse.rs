//! Sparse matrices: triplet (COO) assembly and CSR storage.

use crate::DenseMatrix;

/// Coordinate-format accumulator used to assemble sparse matrices.
///
/// Duplicate `(row, col)` entries are summed when converting to CSR,
/// which matches how conductances are stamped into a thermal network
/// (each resistor contributes to four entries, several resistors may
/// share an entry).
#[derive(Debug, Clone, Default)]
pub struct TripletMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl TripletMatrix {
    /// Creates an empty `rows × cols` accumulator.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Adds `value` at `(row, col)`; repeated calls accumulate.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "triplet out of bounds");
        if value != 0.0 {
            self.entries.push((row, col, value));
        }
    }

    /// Stamps a conductance `g` between nodes `a` and `b` the way a
    /// resistor is stamped into a nodal-analysis matrix:
    /// `+g` on both diagonals, `−g` on both off-diagonals.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds or the matrix is not
    /// square.
    pub fn stamp_conductance(&mut self, a: usize, b: usize, g: f64) {
        assert_eq!(self.rows, self.cols, "stamping requires a square matrix");
        self.add(a, a, g);
        self.add(b, b, g);
        self.add(a, b, -g);
        self.add(b, a, -g);
    }

    /// Stamps a conductance from node `a` to an implicit reference node
    /// (e.g. ambient): only the diagonal entry is affected.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of bounds.
    pub fn stamp_to_reference(&mut self, a: usize, g: f64) {
        self.add(a, a, g);
    }

    /// Number of raw (pre-deduplication) entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries have been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Converts to compressed sparse row format, summing duplicates.
    #[must_use]
    pub fn to_csr(&self) -> CsrMatrix {
        let mut sorted = self.entries.clone();
        sorted.sort_unstable_by_key(|&(r, c, _)| (r, c));

        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut values = Vec::with_capacity(sorted.len());
        row_ptr.push(0);

        let mut current_row = 0;
        for (r, c, v) in sorted {
            while current_row < r {
                row_ptr.push(col_idx.len());
                current_row += 1;
            }
            // Merge with the previous entry only if it belongs to the same
            // row (i.e. was pushed after the current row started) and the
            // same column.
            let row_start = row_ptr.last().copied().unwrap_or(0);
            match (col_idx.last(), values.last_mut()) {
                (Some(&last_col), Some(last_val)) if col_idx.len() > row_start && last_col == c => {
                    *last_val += v;
                }
                _ => {
                    col_idx.push(c);
                    values.push(v);
                }
            }
        }
        while current_row < self.rows {
            row_ptr.push(col_idx.len());
            current_row += 1;
        }

        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }
}

/// A compressed-sparse-row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Number of rows.
    #[must_use]
    pub const fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub const fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (structurally non-zero) entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Returns the entry at `(row, col)`, or `0.0` if not stored.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        let start = self.row_ptr[row];
        let end = self.row_ptr[row + 1];
        match self.col_idx[start..end].binary_search(&col) {
            Ok(pos) => self.values[start + pos],
            Err(_) => 0.0,
        }
    }

    /// `A + diag(d)` of a square matrix, entry for entry what assembling
    /// both through a [`TripletMatrix`] gives: exact zeros on either side
    /// are dropped, a diagonal slot present on both sides holds the sum
    /// of its two terms, and one present on a single side is kept or
    /// inserted in column order.
    pub(crate) fn plus_diagonal(&self, d: &[f64]) -> Self {
        debug_assert_eq!(d.len(), self.rows);
        debug_assert_eq!(self.rows, self.cols);
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx = Vec::with_capacity(self.col_idx.len() + self.rows);
        let mut values = Vec::with_capacity(self.col_idx.len() + self.rows);
        row_ptr.push(0);
        for (i, &di) in d.iter().enumerate() {
            let mut pending = (di != 0.0).then_some(di);
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let (c, v) = (self.col_idx[k], self.values[k]);
                if v == 0.0 {
                    continue;
                }
                if c == i {
                    col_idx.push(c);
                    values.push(pending.take().map_or(v, |di| v + di));
                    continue;
                }
                if c > i {
                    if let Some(di) = pending.take() {
                        col_idx.push(i);
                        values.push(di);
                    }
                }
                col_idx.push(c);
                values.push(v);
            }
            if let Some(di) = pending {
                col_idx.push(i);
                values.push(di);
            }
            row_ptr.push(col_idx.len());
        }
        Self {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    #[must_use]
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// Matrix–vector product writing into a caller-provided buffer
    /// (avoids per-iteration allocation inside iterative solvers).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions disagree.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "mul_vec: x dimension mismatch");
        assert_eq!(y.len(), self.rows, "mul_vec: y dimension mismatch");
        for (i, yi) in y.iter_mut().enumerate() {
            let start = self.row_ptr[i];
            let end = self.row_ptr[i + 1];
            let mut acc = 0.0;
            for k in start..end {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            *yi = acc;
        }
    }

    /// `‖b − A·x‖₂` without allocating the intermediate product — the
    /// residual check on the factored fast path runs once per solve, so
    /// it must not cost more than the substitution it guards.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions disagree.
    #[must_use]
    pub fn residual_norm(&self, x: &[f64], b: &[f64]) -> f64 {
        assert_eq!(x.len(), self.cols, "residual: x dimension mismatch");
        assert_eq!(b.len(), self.rows, "residual: b dimension mismatch");
        let mut sum = 0.0;
        for (i, &bi) in b.iter().enumerate() {
            let mut acc = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            let d = bi - acc;
            sum += d * d;
        }
        sum.sqrt()
    }

    /// The main diagonal as a vector (zeros where not stored).
    #[must_use]
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.rows.min(self.cols))
            .map(|i| self.get(i, i))
            .collect()
    }

    /// Checks structural symmetry with exact value equality of mirrored
    /// entries up to `tol`.
    #[must_use]
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for row in 0..self.rows {
            for k in self.row_ptr[row]..self.row_ptr[row + 1] {
                let col = self.col_idx[k];
                if (self.values[k] - self.get(col, row)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Expands to a dense matrix (for validation / small systems only).
    #[must_use]
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for row in 0..self.rows {
            for k in self.row_ptr[row]..self.row_ptr[row + 1] {
                d[(row, self.col_idx[k])] += self.values[k];
            }
        }
        d
    }

    /// Iterates over stored entries as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |row| {
            (self.row_ptr[row]..self.row_ptr[row + 1])
                .map(move |k| (row, self.col_idx[k], self.values[k]))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> CsrMatrix {
        let mut t = TripletMatrix::new(3, 3);
        t.add(0, 0, 2.0);
        t.add(0, 2, 1.0);
        t.add(1, 1, 3.0);
        t.add(2, 0, 1.0);
        t.add(2, 2, 4.0);
        t.to_csr()
    }

    #[test]
    fn duplicates_are_summed() {
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 0, 1.0);
        t.add(0, 0, 2.5);
        let a = t.to_csr();
        assert_eq!(a.get(0, 0), 3.5);
        assert_eq!(a.nnz(), 1);
    }

    #[test]
    fn zeros_are_skipped() {
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 1, 0.0);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn mul_vec_matches_dense() {
        let a = example();
        let x = [1.0, 2.0, 3.0];
        let sparse = a.mul_vec(&x);
        let dense = a.to_dense().mul_vec(&x);
        assert_eq!(sparse, dense);
        assert_eq!(sparse, vec![5.0, 6.0, 13.0]);
    }

    #[test]
    fn conductance_stamp_is_symmetric_with_zero_row_sums() {
        let mut t = TripletMatrix::new(4, 4);
        t.stamp_conductance(0, 1, 2.0);
        t.stamp_conductance(1, 2, 0.5);
        t.stamp_conductance(2, 3, 1.5);
        let a = t.to_csr();
        assert!(a.is_symmetric(0.0));
        // A pure resistor network with no reference has zero row sums.
        let ones = vec![1.0; 4];
        for v in a.mul_vec(&ones) {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn reference_stamp_breaks_singularity() {
        let mut t = TripletMatrix::new(2, 2);
        t.stamp_conductance(0, 1, 1.0);
        t.stamp_to_reference(0, 0.5);
        let a = t.to_csr().to_dense();
        // Now solvable: current injected at node 1 flows to reference.
        let x = a.solve(&[0.0, 1.0]).expect("solve succeeds");
        assert!(x[1] > x[0]);
    }

    #[test]
    fn get_missing_entry_is_zero() {
        let a = example();
        assert_eq!(a.get(0, 1), 0.0);
        assert_eq!(a.get(1, 0), 0.0);
    }

    #[test]
    fn diagonal_extraction() {
        let a = example();
        assert_eq!(a.diagonal(), vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn iter_yields_all_entries() {
        let a = example();
        let entries: Vec<_> = a.iter().collect();
        assert_eq!(entries.len(), a.nnz());
        assert!(entries.contains(&(2, 0, 1.0)));
    }

    #[test]
    fn empty_rows_are_handled() {
        let mut t = TripletMatrix::new(4, 4);
        t.add(0, 0, 1.0);
        t.add(3, 3, 2.0);
        let a = t.to_csr();
        assert_eq!(a.mul_vec(&[1.0, 1.0, 1.0, 1.0]), vec![1.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn asymmetric_detected() {
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 1, 1.0);
        assert!(!t.to_csr().is_symmetric(1e-12));
    }
}
