//! Columnar batch scoring kernels.
//!
//! The per-row `predict`/`assign` methods in [`crate::models`] are the
//! reference implementations; the kernels here score a whole block of rows
//! against column-major input (`cols[j]` is the contiguous values of feature
//! `j`), which is exactly how the database hands data to a prediction UDx.
//! Keeping execution columnar end to end is the C-Store/Vertica playbook:
//! instead of gathering each row into a scratch buffer, the kernels sweep
//! coefficients (GLM), centers (k-means), or trees (random forest) down
//! contiguous columns with the unrolled [`dot`]/[`axpy`] primitives.
//!
//! Contract (checked by the property tests in `tests/kernels_prop.rs`):
//! every kernel returns exactly what the row-at-a-time reference returns for
//! every row — bit-identical for k-means assignments and forest votes, and
//! within 1e-12 relative for the GLM link functions (the gemv accumulation
//! order differs from the row-wise dot product).

use crate::linalg::{axpy, dot};
use crate::models::{GlmModel, KmeansModel, RandomForestModel, TreeNode};
use std::collections::HashMap;

/// Number of rows in a column-major block (0 when there are no columns).
fn block_rows(cols: &[&[f64]]) -> usize {
    cols.first().map_or(0, |c| c.len())
}

/// Nearest-center scoring over a column-major block: the kernel of the
/// `KmeansPredict` UDx path ([`KmeansModel::assign_batch`]). The training
/// assignment pass (`kmeans::assign_partial`) scores row-major data with
/// [`RowScorer`] instead, on the same decomposition. For each center the partial
/// distance `‖c‖² − 2·x·c` is built with one [`axpy`] per feature column
/// (`‖x‖²` is constant per row, so the argmin doesn't need it); ties keep
/// the lower center index via the strict `<`. On return `best[i]` holds the
/// winning center index and `best_score[i]` its partial distance; `score`
/// is caller-provided scratch, all three sliced to the block's row count.
pub(crate) fn nearest_centers(
    cols: &[&[f64]],
    centers: &[&[f64]],
    best: &mut [usize],
    best_score: &mut [f64],
    score: &mut [f64],
) {
    best.fill(0);
    best_score.fill(f64::INFINITY);
    for (ci, center) in centers.iter().enumerate() {
        let center_norm = dot(center, center);
        score.iter_mut().for_each(|s| *s = center_norm);
        for (col, &cj) in cols.iter().zip(center.iter()) {
            axpy(-2.0 * cj, col, score);
        }
        for i in 0..best.len() {
            if score[i] < best_score[i] {
                best_score[i] = score[i];
                best[i] = ci;
            }
        }
    }
}

/// Four dot products of one row against four consecutive center rows,
/// accumulated in registers: the row element is loaded once per group of
/// four centers instead of once per center.
#[inline]
fn dot4(row: &[f64], c0: &[f64], c1: &[f64], c2: &[f64], c3: &[f64]) -> [f64; 4] {
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (j, &x) in row.iter().enumerate() {
        a0 += x * c0[j];
        a1 += x * c1[j];
        a2 += x * c2[j];
        a3 += x * c3[j];
    }
    [a0, a1, a2, a3]
}

/// Dot products of two rows against one center, 4-wide unrolled per row:
/// eight independent accumulator chains, so the multiply/add chains of one
/// row hide the add latency of the other — a single row's four chains leave
/// the FPU idle between dependent adds.
#[inline]
fn dot_2x(a: &[f64], b: &[f64], c: &[f64]) -> (f64, f64) {
    let n = c.len();
    let (a, b) = (&a[..n], &b[..n]);
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let (mut b0, mut b1, mut b2, mut b3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut i = 0;
    while i + 4 <= n {
        a0 += a[i] * c[i];
        a1 += a[i + 1] * c[i + 1];
        a2 += a[i + 2] * c[i + 2];
        a3 += a[i + 3] * c[i + 3];
        b0 += b[i] * c[i];
        b1 += b[i + 1] * c[i + 1];
        b2 += b[i + 2] * c[i + 2];
        b3 += b[i + 3] * c[i + 3];
        i += 4;
    }
    let (mut ta, mut tb) = (0.0, 0.0);
    while i < n {
        ta += a[i] * c[i];
        tb += b[i] * c[i];
        i += 1;
    }
    ((a0 + a1) + (a2 + a3) + ta, (b0 + b1) + (b2 + b3) + tb)
}

/// Nearest-center scorer for *row-major* points against a flat `k×d` center
/// buffer — the training-side counterpart of [`nearest_centers`] (the
/// transfer/training paths hold row-major matrices, so transposing every
/// data tile just to reuse the columnar kernel costs more than it saves).
/// Scoring uses the same `‖c‖² − 2·x·c` decomposition, with `‖c‖²` built
/// once at construction and amortized over the whole partition pass.
pub(crate) struct RowScorer<'a> {
    /// `k×d` row-major centers.
    centers: &'a [f64],
    /// `‖c‖²` per center.
    norms: Vec<f64>,
    d: usize,
}

/// Past this row width the transposed score sweep outruns the 4-center
/// register block: each row element becomes one contiguous `k`-wide [`axpy`]
/// over the score vector, which the compiler vectorizes, while the block
/// path's strided center reads pin it to scalar code.
const WIDE_ROW_DIM: usize = 16;

impl<'a> RowScorer<'a> {
    pub fn new(centers: &'a [f64], d: usize) -> Self {
        let norms = centers.chunks_exact(d.max(1)).map(|c| dot(c, c)).collect();
        RowScorer { centers, norms, d }
    }

    /// Nearest center for one row: `(center, ‖x−c‖²)`, the distance
    /// reassembled as `‖x‖² + score` and clamped at zero against
    /// cancellation. Ties keep the lower center index via the strict `<`.
    pub fn nearest(&self, row: &[f64]) -> (usize, f64) {
        let d = self.d;
        let k = self.norms.len();
        let mut best = 0usize;
        let mut best_s = f64::INFINITY;
        if d >= WIDE_ROW_DIM {
            for (c, center) in self.centers.chunks_exact(d).enumerate() {
                let s = crate::linalg::squared_distance(row, center);
                if s < best_s {
                    best_s = s;
                    best = c;
                }
            }
            return (best, best_s);
        } else {
            // Narrow rows: four centers per sweep with register
            // accumulators — the row element is loaded once per block of
            // four instead of once per center, and short rows never repay
            // the per-element sweep setup of the wide path.
            let mut c = 0usize;
            while c + 4 <= k {
                let base = c * d;
                let a = dot4(
                    row,
                    &self.centers[base..base + d],
                    &self.centers[base + d..base + 2 * d],
                    &self.centers[base + 2 * d..base + 3 * d],
                    &self.centers[base + 3 * d..base + 4 * d],
                );
                for (i, &ai) in a.iter().enumerate() {
                    let s = self.norms[c + i] - 2.0 * ai;
                    if s < best_s {
                        best_s = s;
                        best = c + i;
                    }
                }
                c += 4;
            }
            while c < k {
                let s = self.norms[c] - 2.0 * dot(row, &self.centers[c * d..(c + 1) * d]);
                if s < best_s {
                    best_s = s;
                    best = c;
                }
                c += 1;
            }
        }
        (best, (dot(row, row) + best_s).max(0.0))
    }

    /// Nearest centers for a pair of rows. On the wide path the two rows
    /// share each center sweep ([`dot_2x`] under the `‖c‖² − 2·x·c`
    /// decomposition): the center stripe is loaded once for both rows and
    /// the eight accumulator chains keep the FPU busy where four dependent
    /// chains stall between adds. Narrow rows just score independently —
    /// the 4-center block already has the ILP.
    #[allow(clippy::type_complexity)]
    pub fn nearest2(&self, row_a: &[f64], row_b: &[f64]) -> ((usize, f64), (usize, f64)) {
        if self.d < WIDE_ROW_DIM {
            return (self.nearest(row_a), self.nearest(row_b));
        }
        let d = self.d;
        let (mut best_a, mut best_sa) = (0usize, f64::INFINITY);
        let (mut best_b, mut best_sb) = (0usize, f64::INFINITY);
        for ((c, center), &cn) in self.centers.chunks_exact(d).enumerate().zip(&self.norms) {
            let (da, db) = dot_2x(row_a, row_b, center);
            let (sa, sb) = (cn - 2.0 * da, cn - 2.0 * db);
            if sa < best_sa {
                best_sa = sa;
                best_a = c;
            }
            if sb < best_sb {
                best_sb = sb;
                best_b = c;
            }
        }
        let na = dot(row_a, row_a);
        let nb = dot(row_b, row_b);
        (
            (best_a, (na + best_sa).max(0.0)),
            (best_b, (nb + best_sb).max(0.0)),
        )
    }
}

impl GlmModel {
    /// Linear predictor for a block of rows, as a column-major gemv: start
    /// from the intercept, then accumulate `coef[j] * cols[j][..]` into the
    /// prediction vector one column at a time.
    pub fn linear_predictor_batch(&self, cols: &[&[f64]]) -> Vec<f64> {
        let rows = block_rows(cols);
        let coefs = if self.intercept {
            &self.coefficients[1..]
        } else {
            &self.coefficients[..]
        };
        let intercept = if self.intercept {
            self.coefficients[0]
        } else {
            0.0
        };
        let mut eta = vec![intercept; rows];
        for (col, &c) in cols.iter().zip(coefs) {
            axpy(c, col, &mut eta);
        }
        eta
    }

    /// Batch response prediction: gemv for the linear predictor, then one
    /// pass applying the family's inverse link over the whole vector.
    pub fn predict_batch(&self, cols: &[&[f64]]) -> Vec<f64> {
        let mut eta = self.linear_predictor_batch(cols);
        for e in eta.iter_mut() {
            *e = self.family.link_inverse(*e);
        }
        eta
    }
}

impl KmeansModel {
    /// Nearest-center assignment for a block of rows using the expansion
    /// `‖x − c‖² = ‖x‖² + ‖c‖² − 2·x·c`. The `‖x‖²` term is constant per
    /// row, so the argmin only needs `‖c‖² − 2·x·c`, which a per-center
    /// sweep builds with one [`axpy`] per feature column. Ties (equal
    /// partial distance) keep the lower center index, matching the strict
    /// `<` in the row-wise [`KmeansModel::assign`].
    pub fn assign_batch(&self, cols: &[&[f64]]) -> Vec<usize> {
        let rows = block_rows(cols);
        let mut best = vec![0usize; rows];
        if rows == 0 || self.centers.is_empty() {
            return best;
        }
        let crefs: Vec<&[f64]> = self.centers.iter().map(Vec::as_slice).collect();
        let mut best_score = vec![f64::INFINITY; rows];
        let mut score = vec![0.0f64; rows];
        nearest_centers(cols, &crefs, &mut best, &mut best_score, &mut score);
        best
    }
}

impl RandomForestModel {
    /// Majority vote over a block of rows, tree at a time: each tree stays
    /// hot in cache while it walks every row, accumulating into a dense
    /// `rows × classes` vote matrix. The final vote (iterate `classes` in
    /// order, strictly-more votes wins) replicates the row-wise
    /// [`RandomForestModel::predict`] tie-break exactly.
    pub fn predict_batch(&self, cols: &[&[f64]]) -> Vec<i64> {
        let rows = block_rows(cols);
        if rows == 0 {
            return Vec::new();
        }
        let nclasses = self.classes.len();
        if nclasses == 0 {
            // The reference falls back to class 0 when no class list exists.
            return vec![0; rows];
        }
        let mut class_idx: HashMap<i64, usize> = HashMap::with_capacity(nclasses);
        for (i, &c) in self.classes.iter().enumerate() {
            class_idx.entry(c).or_insert(i);
        }
        let mut votes = vec![0u32; rows * nclasses];
        for tree in &self.trees {
            for (row, row_votes) in votes.chunks_exact_mut(nclasses).enumerate() {
                let mut idx = 0usize;
                let class = loop {
                    match &tree.nodes[idx] {
                        TreeNode::Leaf { class } => break *class,
                        TreeNode::Split {
                            feature,
                            threshold,
                            left,
                            right,
                        } => {
                            idx = if cols[*feature][row] <= *threshold {
                                *left
                            } else {
                                *right
                            };
                        }
                    }
                };
                if let Some(&ci) = class_idx.get(&class) {
                    row_votes[ci] += 1;
                }
            }
        }
        votes
            .chunks_exact(nclasses)
            .map(|row_votes| {
                let mut best = self.classes[0];
                let mut best_votes = 0u32;
                for &c in &self.classes {
                    let v = row_votes[class_idx[&c]];
                    if v > best_votes {
                        best_votes = v;
                        best = c;
                    }
                }
                best
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::glm::Family;
    use crate::models::{DecisionTree, GlmModel, KmeansModel, RandomForestModel, TreeNode};

    fn cols(owned: &[Vec<f64>]) -> Vec<&[f64]> {
        owned.iter().map(Vec::as_slice).collect()
    }

    fn row_of(owned: &[Vec<f64>], i: usize) -> Vec<f64> {
        owned.iter().map(|c| c[i]).collect()
    }

    #[test]
    fn glm_batch_matches_rowwise_reference() {
        for family in [Family::Gaussian, Family::Binomial, Family::Poisson] {
            let m = GlmModel {
                coefficients: vec![0.3, -1.2, 0.8, 2.5],
                intercept: true,
                family,
                deviance: 0.0,
                iterations: 1,
                converged: true,
            };
            let data = vec![
                vec![1.0, -0.5, 2.0, 0.0, 3.25],
                vec![0.5, 1.5, -2.0, 0.0, 1.0],
                vec![-1.0, 0.25, 0.75, 0.0, -0.125],
            ];
            let batch = m.predict_batch(&cols(&data));
            assert_eq!(batch.len(), 5);
            for i in 0..5 {
                let reference = m.predict(&row_of(&data, i));
                let scale = reference.abs().max(1.0);
                assert!(
                    (batch[i] - reference).abs() <= 1e-12 * scale,
                    "row {i}: {} vs {reference}",
                    batch[i]
                );
            }
        }
    }

    #[test]
    fn glm_batch_without_intercept_and_empty_batch() {
        let m = GlmModel {
            coefficients: vec![2.0, -3.0],
            intercept: false,
            family: Family::Gaussian,
            deviance: 0.0,
            iterations: 1,
            converged: true,
        };
        let data = vec![vec![1.0, 2.0], vec![10.0, 20.0]];
        assert_eq!(m.predict_batch(&cols(&data)), vec![-28.0, -56.0]);
        let empty: Vec<Vec<f64>> = vec![vec![], vec![]];
        assert!(m.predict_batch(&cols(&empty)).is_empty());
        assert!(m.predict_batch(&[]).is_empty());
    }

    #[test]
    fn kmeans_batch_matches_rowwise_and_breaks_ties_low() {
        let m = KmeansModel {
            // Centers 1 and 2 are duplicates: any point equidistant must
            // keep index 1 in both the reference and the batch kernel.
            centers: vec![vec![0.0, 0.0], vec![5.0, 5.0], vec![5.0, 5.0]],
            iterations: 1,
            total_withinss: 0.0,
        };
        let data = vec![vec![0.1, 4.9, 2.5, 5.0], vec![0.2, 5.1, 2.5, 5.0]];
        let batch = m.assign_batch(&cols(&data));
        for i in 0..4 {
            assert_eq!(batch[i], m.assign(&row_of(&data, i)), "row {i}");
        }
        assert_eq!(batch[3], 1, "duplicate-center tie keeps lowest index");
        assert!(m.assign_batch(&[&[], &[]]).is_empty());
        let empty = KmeansModel {
            centers: vec![],
            iterations: 0,
            total_withinss: 0.0,
        };
        assert_eq!(empty.assign_batch(&[&[1.0]]), vec![0]);
    }

    #[test]
    fn forest_batch_matches_rowwise_reference() {
        let stump = |thr: f64| DecisionTree {
            nodes: vec![
                TreeNode::Split {
                    feature: 0,
                    threshold: thr,
                    left: 1,
                    right: 2,
                },
                TreeNode::Leaf { class: 7 },
                TreeNode::Leaf { class: 3 },
            ],
        };
        let m = RandomForestModel {
            trees: vec![
                stump(0.5),
                stump(1.5),
                DecisionTree {
                    nodes: vec![TreeNode::Leaf { class: 3 }],
                },
            ],
            num_features: 1,
            classes: vec![3, 7],
        };
        let data = vec![vec![0.0, 1.0, 2.0, 0.5, 1.5]];
        let batch = m.predict_batch(&cols(&data));
        for i in 0..5 {
            assert_eq!(batch[i], m.predict(&row_of(&data, i)), "row {i}");
        }
        assert!(m.predict_batch(&[&[]]).is_empty());
        // No class list: reference falls back to 0, so must the kernel.
        let unlabeled = RandomForestModel {
            trees: vec![],
            num_features: 1,
            classes: vec![],
        };
        assert_eq!(unlabeled.predict_batch(&[&[1.0, 2.0]]), vec![0, 0]);
        assert_eq!(unlabeled.predict(&[1.0]), 0);
    }
}
