//! Small dense linear algebra: everything the GLM solver and the serial `lm`
//! baseline need, implemented from scratch (no external BLAS).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::error::{MlError, Result};

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    pub nrow: usize,
    pub ncol: usize,
    pub data: Vec<f64>,
}

impl Matrix {
    pub fn zeros(nrow: usize, ncol: usize) -> Self {
        Matrix {
            nrow,
            ncol,
            data: vec![0.0; nrow * ncol],
        }
    }

    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        let nrow = rows.len();
        let ncol = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(nrow * ncol);
        for r in rows {
            if r.len() != ncol {
                return Err(MlError::Invalid("ragged rows".into()));
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix { nrow, ncol, data })
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.ncol + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.ncol + c] = v;
    }

    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.ncol..(r + 1) * self.ncol]
    }

    /// `self += other`, elementwise.
    pub fn add_assign(&mut self, other: &Matrix) -> Result<()> {
        if self.nrow != other.nrow || self.ncol != other.ncol {
            return Err(MlError::Invalid("shape mismatch in add".into()));
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(())
    }

    /// Matrix–vector product.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.ncol {
            return Err(MlError::Invalid("matvec shape mismatch".into()));
        }
        Ok((0..self.nrow).map(|r| dot(self.row(r), v)).collect())
    }
}

/// Dot product, 4-wide unrolled so the four partial sums run in independent
/// dependency chains (the compiler can keep them in separate registers).
/// Like the old `zip`-based version, extra elements of the longer slice are
/// ignored.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut i = 0;
    while i + 4 <= n {
        s0 += a[i] * b[i];
        s1 += a[i + 1] * b[i + 1];
        s2 += a[i + 2] * b[i + 2];
        s3 += a[i + 3] * b[i + 3];
        i += 4;
    }
    let mut tail = 0.0;
    while i < n {
        tail += a[i] * b[i];
        i += 1;
    }
    (s0 + s1) + (s2 + s3) + tail
}

/// `y[i] += alpha * x[i]`, 4-wide unrolled. The gemv building block of the
/// batch scoring kernels: sweeping a coefficient down a contiguous column.
/// Panics if the slices differ in length.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    let n = x.len();
    let mut i = 0;
    while i + 4 <= n {
        y[i] += alpha * x[i];
        y[i + 1] += alpha * x[i + 1];
        y[i + 2] += alpha * x[i + 2];
        y[i + 3] += alpha * x[i + 3];
        i += 4;
    }
    while i < n {
        y[i] += alpha * x[i];
        i += 1;
    }
}

/// Columns per side of one [`syrk_upper`] register block. 2 × 2 holds four
/// four-lane accumulators plus four loaded chunks — the sixteen SSE2
/// registers exactly — and reads one chunk per multiply-add where a
/// [`dot`] per cell reads two. Chosen by measurement (DESIGN.md, "Training
/// kernels"); a constant, not an option — [`syrk_upper`]'s dispatch spells
/// out this shape's edge blocks and changes with it.
const SYRK_BLOCK: usize = 2;

/// The four-row-lane partial sums of one `MI × NJ` block: lane `l` of cell
/// `(i, j)` is `Σ a[i][4k+l] · b[j][4k+l]` over the whole four-row chunks,
/// added in `k` order — [`dot`]'s `s0..s3`. The `len mod 4` tail rows are
/// the caller's.
///
/// Out of line on purpose. Inlined, the only consumers of the accumulators
/// are the per-cell `(s0+s1)+(s2+s3)` sums, and the vectorizer pairs up
/// *cells* to match them — a register shuffle per multiply. Returned as
/// arrays, each cell's lanes are stored side by side, so it pairs *lanes*:
/// contiguous two-row loads and one `mulpd`/`addpd` per two multiply-adds,
/// with all `MI·NJ` accumulators live in registers across the row sweep.
#[inline(never)]
fn syrk_lanes<const MI: usize, const NJ: usize>(
    a: [&[f64]; MI],
    b: [&[f64]; NJ],
) -> [[[f64; 4]; NJ]; MI] {
    let ac = a.map(|s| s.as_chunks::<4>().0);
    let bc = b.map(|s| s.as_chunks::<4>().0);
    let chunks = ac.iter().chain(&bc).map(|c| c.len()).min().unwrap_or(0);
    let (ac, bc) = (ac.map(|c| &c[..chunks]), bc.map(|c| &c[..chunks]));
    let mut lanes = [[[0.0f64; 4]; NJ]; MI];
    for k in 0..chunks {
        for i in 0..MI {
            for j in 0..NJ {
                for l in 0..4 {
                    lanes[i][j][l] += ac[i][k][l] * bc[j][k][l];
                }
            }
        }
    }
    lanes
}

/// One `MI × NJ` block of [`syrk_upper`], whose top-left cell is `(i0, j0)`
/// of the row-major `p × p` matrix `c`: `c[i0+i][j0+j] += dot(a[i], b[j])`
/// for the cells on or above the diagonal, each with exactly [`dot`]'s
/// association — four lanes along the row dimension, a scalar tail for the
/// `len mod 4` rows, combined as `(s0+s1)+(s2+s3)+tail`.
fn syrk_block<const MI: usize, const NJ: usize>(
    a: [&[f64]; MI],
    b: [&[f64]; NJ],
    c: &mut [f64],
    p: usize,
    i0: usize,
    j0: usize,
) {
    let lanes = syrk_lanes(a, b);
    let at = a.map(|s| s.as_chunks::<4>().1);
    let bt = b.map(|s| s.as_chunks::<4>().1);
    for i in 0..MI {
        // A diagonal block also computes the cell below the diagonal; it is
        // dropped here.
        for j in (0..NJ).filter(|j| j0 + j >= i0 + i) {
            let tail = at[i].iter().zip(bt[j]).fold(0.0, |t, (x, y)| t + x * y);
            let s = lanes[i][j];
            c[(i0 + i) * p + j0 + j] += (s[0] + s[1]) + (s[2] + s[3]) + tail;
        }
    }
}

/// Symmetric rank-`t` update on one triangle, register-blocked:
/// `c[i·p + j] += dot(aᵢ, bⱼ)` for every `i ≤ j < p`, where `a` and `b` are
/// `p` columns of `t` values each. With `a = W·X` and `b = X` (a tile's
/// column slices) this is the `XᵀWX` accumulation of the IRLS map step; the
/// strict lower triangle of `c` is left untouched.
///
/// The triangle is walked in `SYRK_BLOCK`² blocks of columns (narrower at
/// the right edge and the bottom-right corner), each block keeping its
/// accumulators in registers across the whole row sweep, so every loaded
/// chunk feeds two multiply-adds. Each cell is **bit-identical** to
/// `c[i·p + j] += dot(aᵢ, bⱼ)`: blocking changes which cells are computed
/// together, never the order of additions within a cell.
pub fn syrk_upper(a: &[&[f64]], b: &[&[f64]], c: &mut [f64]) -> Result<()> {
    let (p, t) = (a.len(), a.first().map_or(0, |col| col.len()));
    let ragged = a.iter().chain(b).any(|col| col.len() != t);
    if ragged || b.len() != p || c.len() != p * p {
        return Err(MlError::Invalid("syrk_upper shape mismatch".into()));
    }
    for i0 in (0..p).step_by(SYRK_BLOCK) {
        for j0 in (i0..p).step_by(SYRK_BLOCK) {
            // Column blocks start on the diagonal (j0 ≥ i0), so a block is
            // never wider than it is tall: 2 × 2, 2 × 1 at the right edge
            // of an odd p, or the 1 × 1 bottom-right corner.
            match ((p - i0).min(SYRK_BLOCK), (p - j0).min(SYRK_BLOCK)) {
                (2, 2) => syrk_block([a[i0], a[i0 + 1]], [b[j0], b[j0 + 1]], c, p, i0, j0),
                (2, _) => syrk_block([a[i0], a[i0 + 1]], [b[j0]], c, p, i0, j0),
                _ => syrk_block([a[i0]], [b[j0]], c, p, i0, j0),
            }
        }
    }
    Ok(())
}

/// Squared euclidean distance, 4-wide unrolled like [`dot`].
#[inline]
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut i = 0;
    while i + 4 <= n {
        let d0 = a[i] - b[i];
        let d1 = a[i + 1] - b[i + 1];
        let d2 = a[i + 2] - b[i + 2];
        let d3 = a[i + 3] - b[i + 3];
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
        i += 4;
    }
    let mut tail = 0.0;
    while i < n {
        let d = a[i] - b[i];
        tail += d * d;
        i += 1;
    }
    (s0 + s1) + (s2 + s3) + tail
}

/// Solve the symmetric positive-definite system `A·x = b` by Cholesky
/// decomposition (A is `p×p` row-major). A tiny ridge is retried once if A
/// is semidefinite (collinear features).
pub fn solve_spd(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    match cholesky_solve(a, b) {
        Ok(x) => Ok(x),
        Err(_) => {
            // Ridge fallback: A + λI with λ scaled to the diagonal.
            let p = a.nrow;
            let scale = (0..p).map(|i| a.get(i, i).abs()).fold(0.0, f64::max);
            let mut ridged = a.clone();
            for i in 0..p {
                ridged.set(i, i, ridged.get(i, i) + 1e-8 * scale.max(1.0));
            }
            cholesky_solve(&ridged, b)
        }
    }
}

fn cholesky_solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    let p = a.nrow;
    if a.ncol != p || b.len() != p {
        return Err(MlError::Invalid("solve_spd shape mismatch".into()));
    }
    // L·Lᵀ = A, L lower triangular.
    let mut l = vec![0.0f64; p * p];
    for i in 0..p {
        for j in 0..=i {
            let mut sum = a.get(i, j);
            for k in 0..j {
                sum -= l[i * p + k] * l[j * p + k];
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return Err(MlError::Singular(format!("pivot {i} = {sum}")));
                }
                l[i * p + i] = sum.sqrt();
            } else {
                l[i * p + j] = sum / l[j * p + j];
            }
        }
    }
    // Forward substitution: L·y = b.
    let mut y = vec![0.0; p];
    for i in 0..p {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[i * p + k] * y[k];
        }
        y[i] = sum / l[i * p + i];
    }
    // Back substitution: Lᵀ·x = y.
    let mut x = vec![0.0; p];
    for i in (0..p).rev() {
        let mut sum = y[i];
        for k in i + 1..p {
            sum -= l[k * p + i] * x[k];
        }
        x[i] = sum / l[i * p + i];
    }
    Ok(x)
}

/// Least squares via Householder QR: minimizes ‖X·β − y‖². This is the
/// "matrix decomposition" technique the paper says stock R's `lm` uses
/// (Section 7.3.1), as opposed to Distributed R's Newton–Raphson.
pub fn qr_least_squares(x: &Matrix, y: &[f64]) -> Result<Vec<f64>> {
    let (n, p) = (x.nrow, x.ncol);
    if y.len() != n {
        return Err(MlError::Invalid("qr shapes".into()));
    }
    if n < p {
        return Err(MlError::Invalid(format!(
            "underdetermined: {n} rows < {p} cols"
        )));
    }
    let mut r = x.data.clone(); // n×p, transformed in place
    let mut qty = y.to_vec();
    for k in 0..p {
        // Householder vector for column k below the diagonal.
        let mut norm = 0.0;
        for i in k..n {
            norm += r[i * p + k] * r[i * p + k];
        }
        let norm = norm.sqrt();
        if norm < 1e-300 {
            return Err(MlError::Singular(format!("rank-deficient column {k}")));
        }
        // Relative rank check: a column whose remaining mass is negligible
        // against the matrix scale is linearly dependent on earlier columns.
        let col_scale: f64 = (0..n).map(|i| x.data[i * p + k].abs()).fold(0.0, f64::max);
        if norm < 1e-10 * col_scale.max(1e-300) {
            return Err(MlError::Singular(format!("rank-deficient column {k}")));
        }
        let alpha = if r[k * p + k] > 0.0 { -norm } else { norm };
        let mut v = vec![0.0; n - k];
        v[0] = r[k * p + k] - alpha;
        for i in k + 1..n {
            v[i - k] = r[i * p + k];
        }
        let vnorm2 = dot(&v, &v);
        if vnorm2 < 1e-300 {
            continue;
        }
        // Apply H = I − 2vvᵀ/(vᵀv) to the remaining columns and to qty.
        for j in k..p {
            let mut s = 0.0;
            for i in k..n {
                s += v[i - k] * r[i * p + j];
            }
            let f = 2.0 * s / vnorm2;
            for i in k..n {
                r[i * p + j] -= f * v[i - k];
            }
        }
        let mut s = 0.0;
        for i in k..n {
            s += v[i - k] * qty[i];
        }
        let f = 2.0 * s / vnorm2;
        for i in k..n {
            qty[i] -= f * v[i - k];
        }
    }
    // Back substitution on the upper-triangular R.
    let mut beta = vec![0.0; p];
    for i in (0..p).rev() {
        let mut sum = qty[i];
        for j in i + 1..p {
            sum -= r[i * p + j] * beta[j];
        }
        let rii = r[i * p + i];
        if rii.abs() < 1e-300 {
            return Err(MlError::Singular(format!("R[{i}][{i}] ≈ 0")));
        }
        beta[i] = sum / rii;
    }
    Ok(beta)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn matrix_basics() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(m.matvec(&[1.0]).is_err());
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        let mut z = Matrix::zeros(2, 2);
        z.add_assign(&m).unwrap();
        assert_eq!(z, m);
        assert!(z.add_assign(&Matrix::zeros(1, 1)).is_err());
    }

    #[test]
    fn cholesky_solves_spd_systems() {
        // A = [[4,2],[2,3]], b = [10, 9] → x = [2, 5/3... ] verify by matvec.
        let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]).unwrap();
        let x = solve_spd(&a, &[10.0, 9.0]).unwrap();
        let back = a.matvec(&x).unwrap();
        assert!((back[0] - 10.0).abs() < 1e-10);
        assert!((back[1] - 9.0).abs() < 1e-10);
    }

    #[test]
    fn singular_system_gets_ridge_rescue_or_error() {
        // Exactly collinear: rank 1.
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        // Ridge fallback makes it solvable (approximately the minimum-norm
        // answer); must not panic.
        let x = solve_spd(&a, &[2.0, 2.0]).unwrap();
        let back = a.matvec(&x).unwrap();
        assert!((back[0] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn qr_recovers_exact_coefficients() {
        // y = 3 + 2a − b, exactly.
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| {
                let a = i as f64 * 0.1;
                let b = ((i * 7) % 13) as f64;
                vec![1.0, a, b]
            })
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 3.0 + 2.0 * r[1] - r[2]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let beta = qr_least_squares(&x, &y).unwrap();
        assert!((beta[0] - 3.0).abs() < 1e-9, "{beta:?}");
        assert!((beta[1] - 2.0).abs() < 1e-9);
        assert!((beta[2] + 1.0).abs() < 1e-9);
    }

    #[test]
    fn qr_matches_normal_equations_on_noisy_data() {
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| {
                let t = i as f64;
                vec![1.0, (t * 0.37).sin(), (t * 0.11).cos()]
            })
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| 1.5 * r[1] - 0.5 * r[2] + ((i % 7) as f64 - 3.0) * 0.01)
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let qr = qr_least_squares(&x, &y).unwrap();
        // Normal equations: XᵀX β = Xᵀy.
        let p = x.ncol;
        let mut xtx = Matrix::zeros(p, p);
        let mut xty = vec![0.0; p];
        for r in 0..x.nrow {
            let row = x.row(r);
            for i in 0..p {
                xty[i] += row[i] * y[r];
                for j in 0..p {
                    xtx.data[i * p + j] += row[i] * row[j];
                }
            }
        }
        let ne = solve_spd(&xtx, &xty).unwrap();
        for (a, b) in qr.iter().zip(&ne) {
            assert!((a - b).abs() < 1e-8, "{qr:?} vs {ne:?}");
        }
    }

    #[test]
    fn qr_rejects_bad_shapes() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        assert!(qr_least_squares(&x, &[1.0, 2.0]).is_err()); // y wrong len
        assert!(qr_least_squares(&x, &[1.0]).is_err()); // n < p
                                                        // Rank-deficient.
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]).unwrap();
        assert!(qr_least_squares(&x, &[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn distance_and_dot() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn unrolled_kernels_cover_all_tail_lengths() {
        // Exercise every remainder class of the 4-wide unroll (0..=3 tail
        // elements) against a naive reference.
        for n in 0..=9usize {
            let a: Vec<f64> = (0..n).map(|i| 0.5 + i as f64 * 1.25).collect();
            let b: Vec<f64> = (0..n).map(|i| 2.0 - i as f64 * 0.75).collect();
            let naive_dot: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((dot(&a, &b) - naive_dot).abs() < 1e-12, "dot n={n}");
            let naive_sq: f64 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
            assert!(
                (squared_distance(&a, &b) - naive_sq).abs() < 1e-12,
                "sqd n={n}"
            );
            let mut y = b.clone();
            axpy(3.5, &a, &mut y);
            for i in 0..n {
                assert!((y[i] - (b[i] + 3.5 * a[i])).abs() < 1e-12, "axpy n={n}");
            }
        }
    }

    #[test]
    fn syrk_upper_is_dot_per_cell_on_the_upper_triangle() {
        // Every block shape (full, right edge, bottom-right corner), every
        // `t mod 4` class, and a non-zero `c` to accumulate into.
        for p in 1..=7usize {
            for t in [0usize, 1, 3, 4, 5, 6, 7, 8, 13] {
                let col =
                    |k: usize, f: &dyn Fn(usize) -> f64| (k * t..(k + 1) * t).map(f).collect();
                let a: Vec<Vec<f64>> = (0..p)
                    .map(|k| col(k, &|i| 0.25 + (i % 11) as f64 * 0.37))
                    .collect();
                let b: Vec<Vec<f64>> = (0..p)
                    .map(|k| col(k, &|i| 1.5 - (i % 7) as f64 * 0.61))
                    .collect();
                let (ar, br): (Vec<&[f64]>, Vec<&[f64]>) = (
                    a.iter().map(Vec::as_slice).collect(),
                    b.iter().map(Vec::as_slice).collect(),
                );
                let start: Vec<f64> = (0..p * p).map(|i| i as f64 * 0.125).collect();
                let mut c = start.clone();
                syrk_upper(&ar, &br, &mut c).unwrap();
                for i in 0..p {
                    for j in 0..p {
                        let expect = if j >= i {
                            start[i * p + j] + dot(&a[i], &b[j])
                        } else {
                            start[i * p + j]
                        };
                        assert_eq!(
                            c[i * p + j].to_bits(),
                            expect.to_bits(),
                            "p={p} t={t} ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn syrk_upper_rejects_bad_shapes() {
        let col = [1.0; 4];
        let (a, b): (&[&[f64]], &[&[f64]]) = (&[&col, &col], &[&col, &col]);
        let mut c = vec![0.0; 4];
        assert!(syrk_upper(a, b, &mut c).is_ok());
        assert!(
            syrk_upper(&[&col, &col[..3]], b, &mut c).is_err(),
            "ragged a"
        );
        assert!(
            syrk_upper(a, &[&col, &col[..3]], &mut c).is_err(),
            "ragged b"
        );
        assert!(syrk_upper(a, &b[..1], &mut c).is_err(), "short b");
        assert!(syrk_upper(a, b, &mut c[..3]).is_err(), "c not p×p");
    }

    #[test]
    fn dot_ignores_extra_elements_of_longer_slice() {
        // The pre-unroll implementation zipped the slices, silently
        // truncating to the shorter one; callers rely on that.
        assert_eq!(dot(&[1.0, 2.0, 99.0], &[3.0, 4.0]), 11.0);
        assert_eq!(dot(&[3.0, 4.0], &[1.0, 2.0, 99.0]), 11.0);
        assert_eq!(squared_distance(&[3.0, 4.0, 7.0], &[0.0, 0.0]), 25.0);
    }

    #[test]
    #[should_panic(expected = "axpy length mismatch")]
    fn axpy_rejects_mismatched_lengths() {
        let mut y = vec![0.0; 2];
        axpy(1.0, &[1.0, 2.0, 3.0], &mut y);
    }
}
