use serde::{Deserialize, Serialize};

use crate::{LinalgError, Matrix, Vector};

/// Jitter ladder: relative jitter magnitudes tried in order when the plain
/// factorization fails (covariance matrices from clustered GP inputs are
/// frequently on the edge of positive definiteness).
const JITTER_LADDER: [f64; 7] = [0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-4];

/// Lower-triangular Cholesky factorization `A = L L^T` of a symmetric
/// positive-definite matrix.
///
/// This is the single most important kernel in the Gaussian-process stack:
/// posterior means/variances, log marginal likelihood, log-determinants and
/// the pseudo-point augmentation of the EasyBO penalization scheme all run
/// through it.
///
/// # Example
///
/// ```
/// use easybo_linalg::{Cholesky, Matrix, Vector};
///
/// # fn main() -> Result<(), easybo_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let chol = Cholesky::new(&a)?;
/// let x = chol.solve_vec(&Vector::from(vec![2.0, 1.0]));
/// assert!((a.matvec(&x)[0] - 2.0).abs() < 1e-12);
/// assert!((chol.log_det() - (4.0f64 * 3.0 - 4.0).ln()).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cholesky {
    l: Matrix,
    jitter: f64,
}

impl Cholesky {
    /// Factorizes `a`, escalating the diagonal jitter if the plain
    /// factorization breaks down numerically.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::NonFinite`] if `a` contains NaN/inf.
    /// * [`LinalgError::NotPositiveDefinite`] if the factorization fails even
    ///   with the maximum jitter.
    pub fn new(a: &Matrix) -> crate::Result<Self> {
        Self::new_counted(a).map(|(c, _)| c)
    }

    /// Like [`Cholesky::new`], but also reports how many rungs of the
    /// jitter ladder were climbed before the factorization succeeded
    /// (0 = the plain factorization worked). Callers use this to surface
    /// jitter escalation as a telemetry counter instead of a silent retry.
    ///
    /// # Errors
    ///
    /// Same as [`Cholesky::new`].
    pub fn new_counted(a: &Matrix) -> crate::Result<(Self, usize)> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        a.ensure_finite("Cholesky input")?;
        let n = a.rows();
        let diag_scale = if n == 0 {
            1.0
        } else {
            ((0..n).map(|i| a[(i, i)].abs()).sum::<f64>() / n as f64).max(1e-300)
        };
        let mut last_err = LinalgError::NotPositiveDefinite {
            pivot: 0,
            value: 0.0,
        };
        for (bumps, &rel) in JITTER_LADDER.iter().enumerate() {
            let jitter = rel * diag_scale;
            match Self::factorize(a, jitter) {
                Ok(l) => return Ok((Cholesky { l, jitter }, bumps)),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// Factorizes without any jitter escalation; fails on the first bad pivot.
    ///
    /// # Errors
    ///
    /// Same as [`Cholesky::new`], except no jitter ladder is attempted.
    pub fn new_exact(a: &Matrix) -> crate::Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        a.ensure_finite("Cholesky input")?;
        Self::factorize(a, 0.0).map(|l| Cholesky { l, jitter: 0.0 })
    }

    /// Rebuilds a factorization from a previously computed factor `l`
    /// and the `jitter` that produced it — the exact inverse of
    /// ([`Cholesky::factor`], [`Cholesky::jitter`]). Used by
    /// checkpoint/resume, where re-running the factorization is not
    /// bit-identical to a factor that was grown incrementally with
    /// [`Cholesky::extend`].
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `l` is not square.
    /// * [`LinalgError::NonFinite`] if `l` or `jitter` is NaN/inf.
    pub fn from_parts(l: Matrix, jitter: f64) -> crate::Result<Self> {
        if !l.is_square() {
            return Err(LinalgError::NotSquare {
                rows: l.rows(),
                cols: l.cols(),
            });
        }
        l.ensure_finite("Cholesky factor")?;
        if !jitter.is_finite() {
            return Err(LinalgError::NonFinite {
                context: "Cholesky jitter".to_string(),
            });
        }
        Ok(Cholesky { l, jitter })
    }

    /// Column-block width of the blocked factorization. 32 columns of f64
    /// keep the panel + a tile of the trailing matrix inside L1/L2 while
    /// making the trailing update (the O(n³) bulk of the work) stream
    /// contiguous rows.
    const BLOCK: usize = 32;

    /// Blocked (tiled) left-looking Cholesky factorization.
    ///
    /// The restructuring is bitwise identical to the textbook scalar
    /// triple loop (kept as `factorize_scalar` for the equivalence test):
    /// every element of `L` is produced by one accumulator that starts at
    /// `a[(i, j)]` (plus jitter on the diagonal), subtracts the `k`-terms
    /// in ascending order, and is divided/square-rooted last. Splitting
    /// the `k` range across blocks only inserts exact f64 store/load
    /// round-trips between subtractions, so the value sequence — and
    /// therefore any error surfaced by a bad pivot — is unchanged. The
    /// speedup comes purely from memory traffic: the trailing update
    /// walks contiguous row slices instead of strided columns.
    fn factorize(a: &Matrix, jitter: f64) -> crate::Result<Matrix> {
        let n = a.rows();
        // Working matrix: lower triangle of `a` with jitter added to the
        // diagonal; the strict upper triangle stays explicitly zero to
        // match the scalar algorithm's output layout.
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            let src = a.row(i);
            let dst = l.row_mut(i);
            dst[..=i].copy_from_slice(&src[..=i]);
            dst[i] += jitter;
        }
        let data = l.as_mut_slice();
        let mut jb = 0;
        while jb < n {
            let jend = (jb + Self::BLOCK).min(n);
            // Panel factorization: columns jb..jend, all rows below.
            for j in jb..jend {
                let (head, tail) = data.split_at_mut((j + 1) * n);
                let row_j = &mut head[j * n..];
                let mut diag = row_j[j];
                for &ljk in &row_j[jb..j] {
                    diag -= ljk * ljk;
                }
                if diag <= 0.0 || !diag.is_finite() {
                    return Err(LinalgError::NotPositiveDefinite {
                        pivot: j,
                        value: diag,
                    });
                }
                let ljj = diag.sqrt();
                row_j[j] = ljj;
                for row_i in tail.chunks_exact_mut(n) {
                    let mut v = row_i[j];
                    for (&lik, &ljk) in row_i[jb..j].iter().zip(&row_j[jb..j]) {
                        v -= lik * ljk;
                    }
                    row_i[j] = v / ljj;
                }
            }
            // Trailing update: fold this block's k-terms into every
            // element of the remaining lower triangle.
            for i in jend..n {
                let (head, tail) = data.split_at_mut(i * n);
                let row_i = &mut tail[..n];
                for c in jend..i {
                    let row_c = &head[c * n + jb..c * n + jend];
                    let mut v = row_i[c];
                    for (&lik, &lck) in row_i[jb..jend].iter().zip(row_c) {
                        v -= lik * lck;
                    }
                    row_i[c] = v;
                }
                let mut v = row_i[i];
                for &lik in &row_i[jb..jend] {
                    v -= lik * lik;
                }
                row_i[i] = v;
            }
            jb = jend;
        }
        Ok(l)
    }

    /// The reference scalar factorization the blocked [`Cholesky::factorize`]
    /// must reproduce bit for bit. Kept only for the equivalence test.
    #[cfg(test)]
    fn factorize_scalar(a: &Matrix, jitter: f64) -> crate::Result<Matrix> {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            let mut diag = a[(j, j)] + jitter;
            for k in 0..j {
                diag -= l[(j, k)] * l[(j, k)];
            }
            if diag <= 0.0 || !diag.is_finite() {
                return Err(LinalgError::NotPositiveDefinite {
                    pivot: j,
                    value: diag,
                });
            }
            let ljj = diag.sqrt();
            l[(j, j)] = ljj;
            for i in (j + 1)..n {
                let mut v = a[(i, j)];
                for k in 0..j {
                    v -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = v / ljj;
            }
        }
        Ok(l)
    }

    /// The lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Diagonal jitter that was added to achieve positive definiteness
    /// (0.0 when the plain factorization succeeded).
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Solves `L y = b` (forward substitution).
    ///
    /// Register-blocked four rows at a time: rows `i..i+4` share one sweep
    /// over the solved `y[..i]` with four independent running sums, then
    /// finish in order, each new `y` feeding the rows below it in the
    /// block. Every `y_i` still sees `b_i − L_i0·y_0 − … − L_i,i−1·y_{i−1}`
    /// in ascending k and one divide, so the result is bitwise that of the
    /// textbook row loop; only the serial dependency chain is gone.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve_lower(&self, b: &Vector) -> Vector {
        let n = self.dim();
        assert_eq!(b.len(), n, "solve_lower dimension mismatch");
        let b = b.as_slice();
        let mut y = vec![0.0; n];
        let mut i = 0;
        while i + 4 <= n {
            let r0 = &self.l.row(i)[..=i];
            let r1 = &self.l.row(i + 1)[..=i + 1];
            let r2 = &self.l.row(i + 2)[..=i + 2];
            let r3 = &self.l.row(i + 3)[..=i + 3];
            let (mut v0, mut v1, mut v2, mut v3) = (b[i], b[i + 1], b[i + 2], b[i + 3]);
            for ((((&a0, &a1), &a2), &a3), &yk) in r0[..i]
                .iter()
                .zip(&r1[..i])
                .zip(&r2[..i])
                .zip(&r3[..i])
                .zip(&y[..i])
            {
                v0 -= a0 * yk;
                v1 -= a1 * yk;
                v2 -= a2 * yk;
                v3 -= a3 * yk;
            }
            let y0 = v0 / r0[i];
            v1 -= r1[i] * y0;
            let y1 = v1 / r1[i + 1];
            v2 -= r2[i] * y0;
            v2 -= r2[i + 1] * y1;
            let y2 = v2 / r2[i + 2];
            v3 -= r3[i] * y0;
            v3 -= r3[i + 1] * y1;
            v3 -= r3[i + 2] * y2;
            let y3 = v3 / r3[i + 3];
            y[i..i + 4].copy_from_slice(&[y0, y1, y2, y3]);
            i += 4;
        }
        for i in i..n {
            let row = &self.l.row(i)[..=i];
            let mut v = b[i];
            for (&lik, &yk) in row[..i].iter().zip(&y[..i]) {
                v -= lik * yk;
            }
            y[i] = v / row[i];
        }
        Vector::from(y)
    }

    /// The textbook forward substitution [`Cholesky::solve_lower`] must
    /// reproduce bit for bit. Kept only for the equivalence tests.
    #[cfg(test)]
    fn solve_lower_textbook(&self, b: &Vector) -> Vector {
        let n = self.dim();
        let mut y = Vector::zeros(n);
        for i in 0..n {
            let mut v = b[i];
            let row = self.l.row(i);
            for k in 0..i {
                v -= row[k] * y[k];
            }
            y[i] = v / row[i];
        }
        y
    }

    /// Solves `L^T x = b` (backward substitution).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve_lower_transpose(&self, b: &Vector) -> Vector {
        let n = self.dim();
        assert_eq!(b.len(), n, "solve_lower_transpose dimension mismatch");
        let mut x = Vector::zeros(n);
        for i in (0..n).rev() {
            let mut v = b[i];
            for k in (i + 1)..n {
                v -= self.l[(k, i)] * x[k];
            }
            x[i] = v / self.l[(i, i)];
        }
        x
    }

    /// Solves `A x = b` where `A = L L^T`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve_vec(&self, b: &Vector) -> Vector {
        self.solve_lower_transpose(&self.solve_lower(b))
    }

    /// Solves `L Y = B` for all columns of `B` in one forward-substitution
    /// sweep. Each column gets exactly the operations of
    /// [`Cholesky::solve_lower`] in the same order, so the result is
    /// bit-identical to solving column by column — but the inner loop streams
    /// contiguous rows instead of strided columns, and fuses four k-terms
    /// per pass (see [`subtract_rows`]), which is what makes the batched GP
    /// posterior fast.
    ///
    /// # Panics
    ///
    /// Panics if `b.rows() != dim()`.
    pub fn solve_lower_multi(&self, b: &Matrix) -> Matrix {
        let n = self.dim();
        assert_eq!(b.rows(), n, "solve_lower_multi dimension mismatch");
        let m = b.cols();
        let mut y = b.clone();
        let data = y.as_mut_slice();
        for i in 0..n {
            let li = self.l.row(i);
            let (done, rest) = data.split_at_mut(i * m);
            let yi = &mut rest[..m];
            subtract_rows(yi, &li[..i], done, m, |_| m);
            let lii = li[i];
            for a in yi.iter_mut() {
                *a /= lii;
            }
        }
        y
    }

    /// The textbook column loop [`Cholesky::solve_lower_multi`] must
    /// reproduce bit for bit. Kept only for the equivalence tests.
    #[cfg(test)]
    fn solve_lower_multi_textbook(&self, b: &Matrix) -> Matrix {
        let n = self.dim();
        let m = b.cols();
        let mut y = b.clone();
        let data = y.as_mut_slice();
        for i in 0..n {
            let li = self.l.row(i);
            let (done, rest) = data.split_at_mut(i * m);
            let yi = &mut rest[..m];
            for (k, &lik) in li[..i].iter().enumerate() {
                let yk = &done[k * m..(k + 1) * m];
                for (a, &v) in yi.iter_mut().zip(yk) {
                    *a -= lik * v;
                }
            }
            let lii = li[i];
            for a in yi.iter_mut() {
                *a /= lii;
            }
        }
        y
    }

    /// Solves `L^T X = B` for all columns of `B` in one backward-substitution
    /// sweep; the multi-RHS counterpart of [`Cholesky::solve_lower_transpose`]
    /// with the same bit-identical-per-column guarantee as
    /// [`Cholesky::solve_lower_multi`].
    ///
    /// # Panics
    ///
    /// Panics if `b.rows() != dim()`.
    pub fn solve_lower_transpose_multi(&self, b: &Matrix) -> Matrix {
        let n = self.dim();
        assert_eq!(
            b.rows(),
            n,
            "solve_lower_transpose_multi dimension mismatch"
        );
        let m = b.cols();
        let mut x = b.clone();
        let data = x.as_mut_slice();
        for i in (0..n).rev() {
            let (head, tail) = data.split_at_mut((i + 1) * m);
            let xi = &mut head[i * m..];
            for k in (i + 1)..n {
                let lki = self.l[(k, i)];
                let xk = &tail[(k - i - 1) * m..(k - i) * m];
                for (a, &v) in xi.iter_mut().zip(xk) {
                    *a -= lki * v;
                }
            }
            let lii = self.l[(i, i)];
            for a in xi.iter_mut() {
                *a /= lii;
            }
        }
        x
    }

    /// Solves `A X = B` where `A = L L^T`, all columns at once.
    ///
    /// # Panics
    ///
    /// Panics if `b.rows() != dim()`.
    pub fn solve_mat(&self, b: &Matrix) -> Matrix {
        assert_eq!(b.rows(), self.dim(), "solve_mat dimension mismatch");
        self.solve_lower_transpose_multi(&self.solve_lower_multi(b))
    }

    /// Log-determinant of the factored matrix: `2 * sum(log L_ii)`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Explicit inverse `A^{-1}`, exactly symmetric; O(n³/3). Used for the
    /// log marginal likelihood gradient and the GP's leave-one-out
    /// residuals, which read only its lower triangle and diagonal.
    ///
    /// Only the lower triangle is computed, then mirrored; every
    /// lower-triangle entry is bitwise the one `solve_mat(&identity)`
    /// produces. Forward sweep: `Y = L⁻¹` is lower triangular, so row `i`
    /// touches columns `≤ i` only, and a pass of k-terms touches only the
    /// columns `j ≤ k` — column `j` skips the `k < j` terms (except inside
    /// the pass that reaches `j`). Those terms subtract `l·(+0)` from an
    /// untouched identity entry (`+0 − (±0) = +0`, `1 − (±0) = 1`), so
    /// skipping or applying them is exact. Backward sweep: the lower triangle of
    /// `L⁻ᵀY` reads only lower-triangle entries of `Y` and of itself.
    pub fn inverse(&self) -> Matrix {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        let data = inv.as_mut_slice();
        for i in 0..n {
            let li = self.l.row(i);
            let (done, rest) = data.split_at_mut(i * n);
            let yi = &mut rest[..=i];
            yi[i] = 1.0;
            subtract_rows(yi, &li[..i], done, n, |k| k + 1);
            let lii = li[i];
            for a in yi.iter_mut() {
                *a /= lii;
            }
        }
        let mut coeffs = Vec::with_capacity(n);
        for i in (0..n).rev() {
            coeffs.clear();
            coeffs.extend(((i + 1)..n).map(|k| self.l[(k, i)]));
            let (head, tail) = data.split_at_mut((i + 1) * n);
            let xi = &mut head[i * n..][..=i];
            subtract_rows(xi, &coeffs, tail, n, |_| i + 1);
            let lii = self.l[(i, i)];
            for a in xi.iter_mut() {
                *a /= lii;
            }
        }
        for i in 0..n {
            for j in 0..i {
                inv[(j, i)] = inv[(i, j)];
            }
        }
        inv
    }

    /// Quadratic form `b^T A^{-1} b` without forming the inverse.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn quad_form(&self, b: &Vector) -> f64 {
        let y = self.solve_lower(b);
        y.dot(&y)
    }

    /// Extends the factorization with one appended row/column of the
    /// underlying matrix (an O(n^2) incremental update).
    ///
    /// If `A' = [[A, c], [c^T, d]]` then `L' = [[L, 0], [w^T, s]]` with
    /// `w = L^{-1} c` and `s = sqrt(d - w^T w)`. This powers the EasyBO
    /// penalization scheme, which appends hallucinated pseudo-points to the
    /// GP one at a time. The existing factor block is copied verbatim, so
    /// [`Cholesky::truncate`] can later restore it bit for bit.
    ///
    /// Returns `true` when the pragmatic duplicate-point floor was applied
    /// to the new pivot — i.e. the appended point was numerically on top
    /// of an existing one. Callers surface this as the
    /// `cholesky_jitter_bumps` telemetry counter.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] if the Schur complement
    /// `d - w^T w` is not positive (after retrying with the stored jitter).
    ///
    /// # Panics
    ///
    /// Panics if `cross.len() != dim()`.
    pub fn extend(&mut self, cross: &Vector, diag: f64) -> crate::Result<bool> {
        let n = self.dim();
        assert_eq!(cross.len(), n, "extend: cross-covariance length mismatch");
        let w = self.solve_lower(cross);
        let mut s2 = diag + self.jitter - w.dot(&w);
        let mut floored = false;
        if s2 <= 0.0 || !s2.is_finite() {
            // One more chance with a pragmatic floor: the pseudo-point is
            // numerically on top of an existing point.
            let floor = 1e-10 * diag.abs().max(1.0);
            if s2 > -floor {
                s2 = floor;
                floored = true;
            } else {
                return Err(LinalgError::NotPositiveDefinite {
                    pivot: n,
                    value: s2,
                });
            }
        }
        let mut grown = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            for j in 0..=i {
                grown[(i, j)] = self.l[(i, j)];
            }
        }
        for j in 0..n {
            grown[(n, j)] = w[j];
        }
        grown[(n, n)] = s2.sqrt();
        self.l = grown;
        Ok(floored)
    }

    /// Shrinks the factorization to the leading `k`×`k` block of the
    /// factored matrix — the O(n²) *trailing downdate*.
    ///
    /// Because [`Cholesky::extend`] never touches the existing block, a
    /// `truncate` back to a previous dimension restores that factor
    /// **bit for bit**: this is the `pop_pseudo` half of the penalization
    /// inner loop, which pushes hallucinated points and must return to the
    /// exact pre-push state.
    ///
    /// # Panics
    ///
    /// Panics if `k > dim()`.
    pub fn truncate(&mut self, k: usize) {
        assert!(
            k <= self.dim(),
            "truncate: {k} exceeds factored dimension {}",
            self.dim()
        );
        self.l.truncate_square(k);
    }

    /// Reconstructs `L L^T` (for tests and diagnostics).
    pub fn reconstruct(&self) -> Matrix {
        self.l.matmul(&self.l.transpose())
    }
}

/// `y[c] -= Σₖ coeffs[k] · rows[k·stride + c]` with k ascending, four k per
/// pass: each `y[c]` becomes `(((y[c] − l₀r₀[c]) − l₁r₁[c]) − l₂r₂[c]) −
/// l₃r₃[c]`, the exact operation sequence of one subtraction per k, but
/// loaded and stored once per four terms. A pass whose last term is `k`
/// updates `y[..width(k)]` only (clamped to `y.len()`).
#[inline(always)]
fn subtract_rows(
    y: &mut [f64],
    coeffs: &[f64],
    rows: &[f64],
    stride: usize,
    width: impl Fn(usize) -> usize,
) {
    let mut k = 0;
    let mut quads = coeffs.chunks_exact(4);
    for l in &mut quads {
        let w = width(k + 3).min(y.len());
        let r0 = &rows[k * stride..][..w];
        let r1 = &rows[(k + 1) * stride..][..w];
        let r2 = &rows[(k + 2) * stride..][..w];
        let r3 = &rows[(k + 3) * stride..][..w];
        let (l0, l1, l2, l3) = (l[0], l[1], l[2], l[3]);
        for ((((a, &v0), &v1), &v2), &v3) in y[..w].iter_mut().zip(r0).zip(r1).zip(r2).zip(r3) {
            *a = (((*a - l0 * v0) - l1 * v1) - l2 * v2) - l3 * v3;
        }
        k += 4;
    }
    for &lk in quads.remainder() {
        let w = width(k).min(y.len());
        for (a, &v) in y[..w].iter_mut().zip(&rows[k * stride..][..w]) {
            *a -= lk * v;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Builds a random SPD matrix `M M^T + n*I` from a deterministic seed.
    fn spd(n: usize, seed: u64) -> Matrix {
        let m = Matrix::from_fn(n, n, |i, j| {
            let h = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(j as u64)
                .wrapping_add(seed)
                .wrapping_mul(1442695040888963407);
            ((h >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        });
        let mut a = m.matmul(&m.transpose());
        a.add_diagonal(n as f64);
        a
    }

    #[test]
    fn factorizes_known_matrix() {
        let a = Matrix::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]])
            .unwrap();
        let c = Cholesky::new_exact(&a).unwrap();
        let l = c.factor();
        assert_eq!(l[(0, 0)], 5.0);
        assert_eq!(l[(1, 0)], 3.0);
        assert_eq!(l[(1, 1)], 3.0);
        assert_eq!(l[(2, 0)], -1.0);
        assert_eq!(l[(2, 1)], 1.0);
        assert_eq!(l[(2, 2)], 3.0);
        assert_eq!(c.jitter(), 0.0);
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn rejects_non_finite() {
        let mut a = Matrix::identity(2);
        a[(0, 1)] = f64::NAN;
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NonFinite { .. })
        ));
    }

    #[test]
    fn rejects_indefinite_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        // Eigenvalues 3 and -1: no reasonable jitter can fix this.
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn jitter_recovers_near_singular() {
        // Rank-1 matrix: plain factorization fails, jitter ladder succeeds.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let c = Cholesky::new(&a).unwrap();
        assert!(c.jitter() > 0.0);
        assert!(Cholesky::new_exact(&a).is_err());
    }

    #[test]
    fn solve_recovers_solution() {
        let a = spd(6, 42);
        let c = Cholesky::new(&a).unwrap();
        let x_true = Vector::from_iter((0..6).map(|i| (i as f64) - 2.5));
        let b = a.matvec(&x_true);
        let x = c.solve_vec(&b);
        assert!((&x - &x_true).norm() < 1e-9);
    }

    #[test]
    fn solve_mat_matches_columnwise() {
        let a = spd(4, 7);
        let c = Cholesky::new(&a).unwrap();
        let b = Matrix::from_fn(4, 2, |i, j| (i + 2 * j) as f64);
        let x = c.solve_mat(&b);
        for j in 0..2 {
            let col = c.solve_vec(&b.col(j));
            for i in 0..4 {
                assert!((x[(i, j)] - col[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn solve_lower_multi_bitwise_matches_scalar() {
        let a = spd(8, 23);
        let c = Cholesky::new(&a).unwrap();
        let b = Matrix::from_fn(8, 5, |i, j| ((i * 3 + j * 7) as f64 * 0.37).sin());
        let y = c.solve_lower_multi(&b);
        let x = c.solve_lower_transpose_multi(&b);
        for j in 0..5 {
            let col = b.col(j);
            let y_col = c.solve_lower(&col);
            let x_col = c.solve_lower_transpose(&col);
            for i in 0..8 {
                // Exact equality: the multi-RHS sweep performs the same
                // floating-point operations in the same order per column.
                assert_eq!(y[(i, j)], y_col[i], "forward ({i}, {j})");
                assert_eq!(x[(i, j)], x_col[i], "backward ({i}, {j})");
            }
        }
    }

    /// Sizes covering every `n mod 4` of the four-row / four-term blocking.
    const BLOCK_SIZES: [usize; 12] = [0, 1, 2, 3, 4, 5, 7, 8, 63, 64, 65, 164];

    fn rhs(n: usize, m: usize, seed: u64) -> Matrix {
        Matrix::from_fn(n, m, |i, j| {
            ((i * 7 + j * 13) as f64 * 0.37 + seed as f64).sin() * (1.0 + j as f64)
        })
    }

    fn assert_bitwise(got: &[f64], want: &[f64], ctx: &str) {
        assert_eq!(got.len(), want.len(), "{ctx}: length");
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: element {k}");
        }
    }

    /// The lower triangle of `inverse()` must be bitwise that of
    /// `solve_mat(&identity)`, and the result exactly symmetric.
    fn assert_inverse_matches_full_solve(c: &Cholesky, ctx: &str) {
        let n = c.dim();
        let inv = c.inverse();
        let full = c.solve_mat(&Matrix::identity(n));
        for i in 0..n {
            assert_bitwise(&inv.row(i)[..=i], &full.row(i)[..=i], ctx);
            for j in 0..i {
                assert_eq!(
                    inv[(j, i)].to_bits(),
                    inv[(i, j)].to_bits(),
                    "{ctx}: ({j}, {i})"
                );
            }
        }
    }

    #[test]
    fn blocked_solve_lower_bitwise_matches_textbook() {
        for &n in &BLOCK_SIZES {
            let c = Cholesky::new(&spd(n, n as u64 + 5)).unwrap();
            let b = rhs(n, 1, 3).col(0);
            assert_bitwise(
                c.solve_lower(&b).as_slice(),
                c.solve_lower_textbook(&b).as_slice(),
                &format!("n={n}"),
            );
        }
    }

    #[test]
    fn blocked_solve_lower_multi_bitwise_matches_textbook() {
        for &n in &BLOCK_SIZES {
            let c = Cholesky::new(&spd(n, n as u64 + 9)).unwrap();
            for &m in &[0usize, 1, 3, 440] {
                let b = rhs(n, m, 1);
                assert_bitwise(
                    c.solve_lower_multi(&b).as_slice(),
                    c.solve_lower_multi_textbook(&b).as_slice(),
                    &format!("n={n} m={m}"),
                );
            }
        }
    }

    #[test]
    fn lower_triangle_inverse_bitwise_matches_full_solve() {
        for &n in &BLOCK_SIZES {
            let c = Cholesky::new(&spd(n, n as u64 + 2)).unwrap();
            assert_inverse_matches_full_solve(&c, &format!("n={n}"));
        }
    }

    #[test]
    fn solve_multi_handles_empty_rhs() {
        let c = Cholesky::new(&spd(3, 1)).unwrap();
        assert_eq!(c.solve_lower_multi(&Matrix::zeros(3, 0)).shape(), (3, 0));
        let e = Cholesky::new(&Matrix::zeros(0, 0)).unwrap();
        assert_eq!(e.solve_mat(&Matrix::zeros(0, 4)).shape(), (0, 4));
    }

    #[test]
    fn log_det_matches_2x2_analytic() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
        let c = Cholesky::new_exact(&a).unwrap();
        assert!((c.log_det() - 8f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = spd(5, 3);
        let c = Cholesky::new(&a).unwrap();
        let inv = c.inverse();
        let prod = a.matmul(&inv);
        assert!((&prod - &Matrix::identity(5)).frobenius_norm() < 1e-8);
    }

    #[test]
    fn quad_form_matches_solve() {
        let a = spd(5, 11);
        let c = Cholesky::new(&a).unwrap();
        let b = Vector::from_iter((0..5).map(|i| i as f64 * 0.3 - 1.0));
        let direct = b.dot(&c.solve_vec(&b));
        assert!((c.quad_form(&b) - direct).abs() < 1e-10);
    }

    #[test]
    fn extend_matches_full_factorization() {
        let big = spd(7, 19);
        // Factor the leading 6x6 block, then extend by the last row/col.
        let lead = Matrix::from_fn(6, 6, |i, j| big[(i, j)]);
        let mut c = Cholesky::new_exact(&lead).unwrap();
        let cross = Vector::from_iter((0..6).map(|i| big[(i, 6)]));
        c.extend(&cross, big[(6, 6)]).unwrap();
        let full = Cholesky::new_exact(&big).unwrap();
        assert!((&c.reconstruct() - &full.reconstruct()).frobenius_norm() < 1e-9);
        assert!((c.log_det() - full.log_det()).abs() < 1e-9);
    }

    #[test]
    fn from_parts_round_trips_exactly() {
        let a = spd(6, 23);
        let mut c = Cholesky::new(&a).unwrap();
        // Grow incrementally so the factor is NOT reproducible by
        // refactorizing — exactly the case resume has to handle.
        let cross = Vector::from_iter((0..6).map(|i| a[(i, 0)] * 0.5));
        c.extend(&cross, a[(0, 0)] + 1.0).unwrap();
        let rebuilt = Cholesky::from_parts(c.factor().clone(), c.jitter()).unwrap();
        assert_eq!(rebuilt, c);
        let b = Vector::from_iter((0..7).map(|i| i as f64 - 3.0));
        assert_eq!(rebuilt.solve_vec(&b).as_slice(), c.solve_vec(&b).as_slice());
    }

    #[test]
    fn from_parts_rejects_bad_input() {
        assert!(Cholesky::from_parts(Matrix::zeros(2, 3), 0.0).is_err());
        assert!(Cholesky::from_parts(Matrix::zeros(2, 2), f64::NAN).is_err());
        let mut m = Matrix::identity(2);
        m[(1, 1)] = f64::INFINITY;
        assert!(Cholesky::from_parts(m, 0.0).is_err());
    }

    #[test]
    fn extend_handles_duplicate_point() {
        // Extending with an identical row makes the Schur complement ~0;
        // the floor should keep the factorization alive.
        let a = spd(3, 5);
        let mut c = Cholesky::new(&a).unwrap();
        let cross = Vector::from_iter((0..3).map(|i| a[(i, 0)]));
        c.extend(&cross, a[(0, 0)]).unwrap();
        assert_eq!(c.dim(), 4);
        assert!(c.factor()[(3, 3)] > 0.0);
    }

    #[test]
    fn blocked_factorize_bitwise_matches_scalar_reference() {
        // Sizes straddling the block width, including multi-block tails.
        for &n in &[0usize, 1, 2, 5, 31, 32, 33, 63, 64, 65, 97] {
            let a = spd(n, n as u64 + 3);
            for &jitter in &[0.0, 1e-6] {
                let blocked = Cholesky::factorize(&a, jitter).unwrap();
                let scalar = Cholesky::factorize_scalar(&a, jitter).unwrap();
                for (b, s) in blocked.as_slice().iter().zip(scalar.as_slice()) {
                    assert_eq!(b.to_bits(), s.to_bits(), "n={n} jitter={jitter}");
                }
            }
        }
    }

    #[test]
    fn blocked_factorize_fails_like_scalar() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        let b = Cholesky::factorize(&a, 0.0).unwrap_err();
        let s = Cholesky::factorize_scalar(&a, 0.0).unwrap_err();
        match (b, s) {
            (
                LinalgError::NotPositiveDefinite {
                    pivot: pb,
                    value: vb,
                },
                LinalgError::NotPositiveDefinite {
                    pivot: ps,
                    value: vs,
                },
            ) => {
                assert_eq!(pb, ps);
                assert_eq!(vb.to_bits(), vs.to_bits());
            }
            other => panic!("expected matching NotPositiveDefinite, got {other:?}"),
        }
    }

    #[test]
    fn new_counted_reports_jitter_ladder_bumps() {
        let (c, bumps) = Cholesky::new_counted(&spd(4, 9)).unwrap();
        assert_eq!(bumps, 0);
        assert_eq!(c.jitter(), 0.0);
        // Rank-1 matrix needs the ladder.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let (c, bumps) = Cholesky::new_counted(&a).unwrap();
        assert!(bumps > 0);
        assert!(c.jitter() > 0.0);
    }

    #[test]
    fn truncate_restores_pre_extend_factor_bitwise() {
        let a = spd(5, 31);
        let c0 = Cholesky::new_exact(&a).unwrap();
        let mut c = c0.clone();
        for step in 0..3 {
            let cross = Vector::from_iter((0..c.dim()).map(|i| a[(i % 5, step % 5)] * 0.4));
            c.extend(&cross, a[(step, step)] + 2.0).unwrap();
        }
        assert_eq!(c.dim(), 8);
        c.truncate(5);
        assert_eq!(c, c0);
        for (x, y) in c.factor().as_slice().iter().zip(c0.factor().as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn extend_reports_duplicate_floor() {
        let a = spd(3, 5);
        let mut c = Cholesky::new(&a).unwrap();
        let fresh = Vector::from_iter((0..3).map(|i| a[(i, 0)] * 0.2));
        assert!(!c.extend(&fresh, a[(0, 0)] + 3.0).unwrap());
        // Re-appending row 0 exactly: Schur complement ~0, floor applies.
        let dup = Vector::from_iter((0..3).map(|i| a[(i, 0)]));
        let mut d = Cholesky::new(&a).unwrap();
        assert!(d.extend(&dup, a[(0, 0)]).unwrap());
    }

    #[test]
    fn empty_matrix_is_factored() {
        let a = Matrix::zeros(0, 0);
        let c = Cholesky::new(&a).unwrap();
        assert_eq!(c.dim(), 0);
        assert_eq!(c.log_det(), 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_reconstruction_accuracy(n in 1usize..12, seed in 0u64..500) {
            let a = spd(n, seed);
            let c = Cholesky::new(&a).unwrap();
            let rel = (&c.reconstruct() - &a).frobenius_norm() / a.frobenius_norm();
            prop_assert!(rel < 1e-10, "relative reconstruction error {rel}");
        }

        #[test]
        fn prop_solve_residual_small(n in 1usize..12, seed in 0u64..500) {
            let a = spd(n, seed);
            let c = Cholesky::new(&a).unwrap();
            let b = Vector::from_iter((0..n).map(|i| (i as f64 * 1.7).sin()));
            let x = c.solve_vec(&b);
            let r = (&a.matvec(&x) - &b).norm();
            prop_assert!(r < 1e-8 * (1.0 + b.norm()));
        }

        #[test]
        fn prop_log_det_positive_for_dominant(n in 1usize..10, seed in 0u64..200) {
            // spd() adds n*I so eigenvalues exceed ~1 for n >= 1; log det > 0.
            let a = spd(n, seed);
            let c = Cholesky::new(&a).unwrap();
            prop_assert!(c.log_det() > 0.0);
        }

        #[test]
        fn prop_update_downdate_composition_matches_from_scratch(
            n in 1usize..64,
            seed in 0u64..500,
            removals in 0usize..4,
        ) {
            // Grow a factor one appended row at a time, then truncate the
            // trailing rows again. The composed factor must reconstruct the
            // same leading principal submatrix a from-scratch factorization
            // does, to 1e-10 relative error.
            let total = n + removals;
            let a = spd(total, seed);
            let mut c =
                Cholesky::new_exact(&Matrix::from_fn(1, 1, |_, _| a[(0, 0)])).unwrap();
            for next in 1..total {
                let cross = Vector::from_iter((0..next).map(|i| a[(i, next)]));
                c.extend(&cross, a[(next, next)]).unwrap();
            }
            c.truncate(n);
            let sub = Matrix::from_fn(n, n, |i, j| a[(i, j)]);
            let rel = (&c.reconstruct() - &sub).frobenius_norm()
                / sub.frobenius_norm().max(1e-300);
            prop_assert!(rel < 1e-10, "n={n} removals={removals}: error {rel}");
            let full = Cholesky::new_exact(&sub).unwrap();
            prop_assert!((c.log_det() - full.log_det()).abs() < 1e-8 * (1.0 + full.log_det().abs()));
        }

        #[test]
        fn prop_blocked_factorize_is_bitwise_scalar(n in 1usize..64, seed in 0u64..300) {
            let a = spd(n, seed);
            let blocked = Cholesky::factorize(&a, 0.0).unwrap();
            let scalar = Cholesky::factorize_scalar(&a, 0.0).unwrap();
            for (b, s) in blocked.as_slice().iter().zip(scalar.as_slice()) {
                prop_assert_eq!(b.to_bits(), s.to_bits());
            }
        }

        #[test]
        fn prop_extend_chain_matches_batch(n in 2usize..9, seed in 0u64..200) {
            let a = spd(n, seed);
            let lead = Matrix::from_fn(1, 1, |_, _| a[(0, 0)]);
            let mut c = Cholesky::new_exact(&lead).unwrap();
            for k in 1..n {
                let cross = Vector::from_iter((0..k).map(|i| a[(i, k)]));
                c.extend(&cross, a[(k, k)]).unwrap();
            }
            let full = Cholesky::new_exact(&a).unwrap();
            prop_assert!((c.log_det() - full.log_det()).abs() < 1e-8);
        }
    }
    // No case count here: `PROPTEST_CASES` sets it (the CI gate raises it).
    proptest! {
        #[test]
        fn prop_blocked_kernels_are_bitwise_textbook(n in 1usize..70, seed in 0u64..1000) {
            let c = Cholesky::new(&spd(n, seed)).unwrap();
            let b = rhs(n, 1 + (seed % 9) as usize, seed);
            let col = b.col(0);
            let y = c.solve_lower(&col);
            let y_ref = c.solve_lower_textbook(&col);
            for (g, w) in y.iter().zip(y_ref.iter()) {
                prop_assert_eq!(g.to_bits(), w.to_bits());
            }
            let ym = c.solve_lower_multi(&b);
            let ym_ref = c.solve_lower_multi_textbook(&b);
            for (g, w) in ym.as_slice().iter().zip(ym_ref.as_slice()) {
                prop_assert_eq!(g.to_bits(), w.to_bits());
            }
            assert_inverse_matches_full_solve(&c, &format!("n={n} seed={seed}"));
        }
    }
}
