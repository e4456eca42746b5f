//! Dense row-major `f64` matrices with exactly the operations MLP training
//! needs. No BLAS, no unsafe — clarity over peak speed; the datasets here
//! are thousands of rows, not millions.
//!
//! Every dot product in this crate — training forward/backward, scalar
//! inference, and the packed [`InferencePlan`](crate::net::InferencePlan)
//! batch path — follows [`lane_dot`], the *lane-reduction accumulation
//! contract* (DESIGN.md §9.3). The contract pins bitwise-exact results
//! across all execution strategies, so the SIMD-friendly batched kernel is
//! the definition rather than an approximation of the scalar path.
//! Products run through one row-times-stripes loop that evaluates four
//! outputs per pass over a shared left row ([`lane_dot4`]) and falls back
//! to [`lane_dot`] for the last `outputs % 4` columns.

use serde::{Deserialize, Serialize};

/// Lane width of the accumulation contract: dot products run [`LANES`]
/// independent partial sums (lane `l` takes terms with `k ≡ l (mod LANES)`
/// in ascending `k`) reduced in a fixed tree at the end.
///
/// `LANES` is frozen into the persisted model envelope
/// (`dlperf-kernels::persist`); changing it is a bit-visible contract break
/// and requires a bundle-version story, not just a recompile.
pub const LANES: usize = 4;

/// The lane-reduction dot product — the single definition of floating-point
/// accumulation order for this crate (DESIGN.md §9.3).
///
/// Semantics, in order:
/// 1. `LANES` partial sums; lane `l` accumulates terms `x[k] * w[k]` for
///    `k ≡ l (mod LANES)` in ascending `k` (remainder elements land in
///    lanes `0..len % LANES` — they are just the tail of each lane's
///    arithmetic sequence).
/// 2. Terms whose **left** operand is exactly `0.0` (either sign) are
///    skipped: the lane accumulator is left untouched, even if `w[k]` is
///    infinite or NaN. This mirrors sparse activations after ReLU and is a
///    branchless select, so it vectorizes as a blend.
/// 3. Fixed reduction tree: `(acc0 + acc1) + (acc2 + acc3)`.
///
/// # Panics
/// Panics in debug builds if lengths disagree.
#[inline]
pub fn lane_dot(x: &[f64], w: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), w.len(), "lane_dot length mismatch");
    let mut acc = [0.0f64; LANES];
    let mut xc = x.chunks_exact(LANES);
    let mut wc = w.chunks_exact(LANES);
    for (cx, cw) in (&mut xc).zip(&mut wc) {
        for l in 0..LANES {
            let a = cx[l];
            // Select, not branch: `acc + a * cw[l]` would differ from a
            // true skip when a == 0.0 and cw[l] is inf/NaN, and a branch
            // would block vectorization.
            acc[l] = if a == 0.0 { acc[l] } else { acc[l] + a * cw[l] };
        }
    }
    for (l, (&a, &b)) in xc.remainder().iter().zip(wc.remainder()).enumerate() {
        acc[l] = if a == 0.0 { acc[l] } else { acc[l] + a * b };
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Four [`lane_dot`]s sharing one left operand: `lane_dot4(x, [w0, w1,
/// w2, w3])[o] == lane_dot(x, wo)` bit for bit.
///
/// This is the register-blocked micro-kernel of every matrix product:
/// `4 × LANES` accumulators, one load and one zero test of each `x` chunk
/// for four output neurons. Per output it runs exactly the
/// [`lane_dot`] operation sequence — same lane assignment, same zero-skip
/// on the left operand, same `(a0 + a1) + (a2 + a3)` reduction — so which
/// outputs share a pass never shows in the bits.
///
/// # Panics
/// Panics in debug builds if any length disagrees with `x.len()`.
#[inline]
pub fn lane_dot4(x: &[f64], w: [&[f64]; 4]) -> [f64; 4] {
    debug_assert!(w.iter().all(|s| s.len() == x.len()), "lane_dot4 length mismatch");
    let mut acc = [[0.0f64; LANES]; 4];
    let mut xc = x.chunks_exact(LANES);
    let [mut c0, mut c1, mut c2, mut c3] = w.map(|s| s.chunks_exact(LANES));
    for ((((cx, w0), w1), w2), w3) in
        (&mut xc).zip(&mut c0).zip(&mut c1).zip(&mut c2).zip(&mut c3)
    {
        for l in 0..LANES {
            let a = cx[l];
            for (acc, cw) in acc.iter_mut().zip([w0, w1, w2, w3]) {
                acc[l] = if a == 0.0 { acc[l] } else { acc[l] + a * cw[l] };
            }
        }
    }
    let tails = [c0.remainder(), c1.remainder(), c2.remainder(), c3.remainder()];
    for (l, &a) in xc.remainder().iter().enumerate() {
        for (acc, tw) in acc.iter_mut().zip(tails) {
            acc[l] = if a == 0.0 { acc[l] } else { acc[l] + a * tw[l] };
        }
    }
    acc.map(|a| (a[0] + a[1]) + (a[2] + a[3]))
}

/// One left row against output-major weight stripes:
/// `out[j] = lane_dot(x, &stripes[j * x.len()..(j + 1) * x.len()])` for
/// every `j < out.len()`, four outputs per [`lane_dot4`] pass and
/// [`lane_dot`] for the tail columns.
///
/// # Panics
/// Panics if `stripes.len() != out.len() * x.len()`.
#[inline]
pub(crate) fn dot_stripes(x: &[f64], stripes: &[f64], out: &mut [f64]) {
    let k = x.len();
    assert_eq!(stripes.len(), out.len() * k, "dot_stripes shape mismatch");
    let mut blocks = out.chunks_exact_mut(4);
    let mut j = 0;
    for block in &mut blocks {
        let w = |o: usize| &stripes[(j + o) * k..(j + o + 1) * k];
        block.copy_from_slice(&lane_dot4(x, [w(0), w(1), w(2), w(3)]));
        j += 4;
    }
    for (o, v) in blocks.into_remainder().iter_mut().enumerate() {
        *v = lane_dot(x, &stripes[(j + o) * k..(j + o + 1) * k]);
    }
}

/// Scalar emulation of [`lane_dot`]: per-lane strided serial passes, no
/// chunking. Structurally different code that must produce bitwise-identical
/// results — the property test that pins the contract compares the two.
pub fn lane_dot_reference(x: &[f64], w: &[f64]) -> f64 {
    assert_eq!(x.len(), w.len(), "lane_dot length mismatch");
    let mut acc = [0.0f64; LANES];
    for (l, lane) in acc.iter_mut().enumerate() {
        let mut k = l;
        while k < x.len() {
            let a = x[k];
            if a != 0.0 {
                *lane += a * w[k];
            }
            k += LANES;
        }
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// An all-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Builds a matrix from a generator called as `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from rows of equal length.
    ///
    /// Returns `None` if rows are ragged or empty.
    pub fn from_rows(rows: &[Vec<f64>]) -> Option<Self> {
        let cols = rows.first()?.len();
        if cols == 0 || rows.iter().any(|r| r.len() != cols) {
            return None;
        }
        Some(Matrix {
            rows: rows.len(),
            cols,
            data: rows.iter().flatten().copied().collect(),
        })
    }

    /// Builds a matrix from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec length mismatch");
        Matrix { rows, cols, data }
    }

    /// Consumes the matrix, returning its row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable element access.
    ///
    /// # Panics
    /// Panics if out of bounds.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }

    /// A view of row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The underlying data, row-major.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable underlying data, row-major.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix product `self × rhs`.
    ///
    /// Every output element is a [`lane_dot`] of a row of `self` against a
    /// column of `rhs` (materialized once via an internal transpose for
    /// contiguity) — so each element's bits are independent of which other
    /// rows/columns are computed alongside it, and batch results match
    /// per-row results exactly.
    ///
    /// # Panics
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matmul dims: {}x{} × {}x{}", self.rows, self.cols, rhs.rows, rhs.cols);
        self.matmul_transposed(&rhs.transpose())
    }

    /// Matrix product `self × rhs_tᵀ`, for a right operand already held
    /// transposed: row `j` of `rhs_t` is column `j` of the product's right
    /// factor. Bitwise identical to `self.matmul(&rhs_t.transpose())`
    /// without materializing either transpose.
    ///
    /// # Panics
    /// Panics if `self.cols() != rhs_t.cols()`.
    pub(crate) fn matmul_transposed(&self, rhs_t: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs_t.cols, "matmul dims: {}x{} × ({}x{})ᵀ", self.rows, self.cols, rhs_t.rows, rhs_t.cols);
        let mut out = Matrix::zeros(self.rows, rhs_t.rows);
        if self.cols == 0 || rhs_t.rows == 0 {
            // Empty dots are +0.0, exactly the zero fill.
            return out;
        }
        let rows = self.data.chunks_exact(self.cols).zip(out.data.chunks_exact_mut(rhs_t.rows));
        for (xrow, orow) in rows {
            dot_stripes(xrow, &rhs_t.data, orow);
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.at(c, r))
    }

    /// Adds a row vector to every row (bias broadcast).
    ///
    /// # Panics
    /// Panics if `bias.len() != cols`.
    pub fn add_row(&mut self, bias: &[f64]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for row in self.data.chunks_mut(self.cols) {
            for (v, b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// Element-wise map, in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Element-wise product (Hadamard), in place.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn hadamard_inplace(&mut self, rhs: &Matrix) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "hadamard shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a *= b;
        }
    }

    /// Column sums (gradient of a broadcast bias).
    pub fn col_sums(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        for row in self.data.chunks(self.cols) {
            for (o, v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
        out
    }

    /// `self += alpha * rhs`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f64, rhs: &Matrix) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }

    /// Copy of selected rows, in the given order.
    pub fn select_rows(&self, idx: &[usize]) -> Matrix {
        Matrix::from_fn(idx.len(), self.cols, |r, c| self.at(idx[r], c))
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let i = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![4.0], vec![5.0], vec![6.0]]).unwrap();
        let c = a.matmul(&b);
        assert_eq!(c.at(0, 0), 32.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 10 + c) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn bias_broadcast_and_col_sums() {
        let mut a = Matrix::zeros(3, 2);
        a.add_row(&[1.0, -2.0]);
        assert_eq!(a.col_sums(), vec![3.0, -6.0]);
    }

    #[test]
    fn ragged_rows_rejected() {
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_none());
        assert!(Matrix::from_rows(&[]).is_none());
    }

    #[test]
    fn select_rows_orders() {
        let a = Matrix::from_fn(4, 1, |r, _| r as f64);
        let s = a.select_rows(&[3, 1]);
        assert_eq!(s.as_slice(), &[3.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "matmul dims")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn lane_dot_matches_reference_on_all_remainders() {
        // k % LANES ∈ {0, 1, 2, 3} all exercised, with awkward magnitudes
        // so any reassociation flips low mantissa bits.
        for k in 0..=13 {
            let x: Vec<f64> = (0..k)
                .map(|i| if i % 3 == 0 { 0.0 } else { (i as f64 + 0.3) * 10f64.powi(i % 5 - 2) })
                .collect();
            let w: Vec<f64> = (0..k).map(|i| (i as f64 - 1.7) * 3f64.powi(i % 4) + 1e-9).collect();
            assert_eq!(
                lane_dot(&x, &w).to_bits(),
                lane_dot_reference(&x, &w).to_bits(),
                "k={k}"
            );
        }
    }

    #[test]
    fn lane_dot_zero_left_skips_even_nonfinite_right() {
        // A true skip: 0.0 * inf would be NaN if the term were computed.
        let x = [0.0, 2.0, -0.0, 1.0, 0.0];
        let w = [f64::INFINITY, 3.0, f64::NAN, 5.0, f64::NEG_INFINITY];
        let got = lane_dot(&x, &w);
        assert_eq!(got.to_bits(), lane_dot_reference(&x, &w).to_bits());
        assert_eq!(got, 11.0);
    }

    #[test]
    fn lane_dot_empty_is_zero() {
        assert_eq!(lane_dot(&[], &[]).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn batched_rows_match_per_row_matmul_bitwise() {
        // Awkward magnitudes on purpose: any reassociation of the
        // accumulation order shows up in the low mantissa bits.
        let a = Matrix::from_fn(7, 5, |r, c| {
            if (r + c) % 3 == 0 { 0.0 } else { (1.0 + r as f64) * 10f64.powi(c as i32 - 2) + 0.1 }
        });
        let b = Matrix::from_fn(5, 4, |r, c| (r as f64 - 1.7) * 3f64.powi(c as i32) + 1e-9);
        let batched = a.matmul(&b);
        for r in 0..a.rows() {
            let single = Matrix::from_rows(&[a.row(r).to_vec()]).unwrap().matmul(&b);
            let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(batched.row(r)), bits(single.row(0)), "row {r}");
        }
    }
}
