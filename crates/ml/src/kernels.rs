//! Columnar batch scoring kernels.
//!
//! The per-row `predict`/`assign` methods in [`crate::models`] are the
//! reference implementations; the kernels here score a whole block of rows
//! against column-major input (`cols[j]` is the contiguous values of feature
//! `j`), which is exactly how the database hands data to a prediction UDx
//! and how a darray partition holds it. Keeping execution columnar end to
//! end is the C-Store/Vertica playbook: instead of gathering each row into a
//! scratch buffer, the kernels sweep coefficients (GLM), centers (k-means),
//! or trees (random forest) down contiguous columns. The k-means `Scorer`
//! is also training's: `hpdkmeans` assigns rows with the kernel that later
//! scores them in the database.
//!
//! Contract (checked by the property tests in `tests/kernels_prop.rs`):
//! every kernel returns what the row-at-a-time reference returns for every
//! row — the same k-means assignment and forest vote, and within 1e-12
//! relative for the GLM link functions (the gemv accumulation order differs
//! from the row-wise dot product).

use crate::linalg::{axpy, dot};
use crate::models::{GlmModel, KmeansModel, RandomForestModel, TreeNode};
use std::collections::HashMap;

/// Number of rows in a column-major block (0 when there are no columns).
fn block_rows(cols: &[&[f64]]) -> usize {
    cols.first().map_or(0, |c| c.len())
}

/// Centers per register block of the k-means scorer.
const CENTER_BLOCK: usize = 4;
/// Rows per register block of the k-means scorer: four rows are two SSE2
/// vectors, so a `4 × 4` block keeps its sixteen sums in eight registers.
const ROW_BLOCK: usize = 4;

/// The one k-means scorer: training's assignment pass
/// ([`crate::kmeans::assign_partial`]) and the `KmeansPredict` UDx
/// ([`KmeansModel::assign_batch`]) both pick each row's center here, so the
/// deployed model is scored by the code that trained it.
///
/// A row's score against center `c` is `‖c‖² − 2·a` with `a = Σⱼ xⱼ·cⱼ`
/// added in feature order (`‖x‖²` is constant per row, so the argmin does
/// not need it); the strict `<` keeps the lower center index on a tie.
pub(crate) struct Scorer {
    /// The centers transposed in blocks of [`CENTER_BLOCK`]: feature `j` of
    /// center `b·CENTER_BLOCK + i` is `blocks[b][j][i]`. The last block is
    /// padded with zero centers of norm `+∞`, which no row picks.
    blocks: Vec<Vec<[f64; CENTER_BLOCK]>>,
    /// `‖c‖²` per (padded) center, in [`dot`]'s association.
    norms: Vec<f64>,
    d: usize,
}

impl Scorer {
    /// `centers` is `k×d`, row-major.
    pub fn new(centers: &[f64], d: usize) -> Self {
        let centers: Vec<&[f64]> = centers.chunks_exact(d.max(1)).collect();
        let norms = centers.chunks(CENTER_BLOCK).flat_map(|block| {
            let norm = |i| block.get(i).map_or(f64::INFINITY, |c: &&[f64]| dot(c, c));
            (0..CENTER_BLOCK).map(norm)
        });
        let transpose = |block: &[&[f64]]| {
            let feature = |j| std::array::from_fn(|i| block.get(i).map_or(0.0, |c: &&[f64]| c[j]));
            (0..d).map(feature).collect()
        };
        Scorer {
            blocks: centers.chunks(CENTER_BLOCK).map(transpose).collect(),
            norms: norms.collect(),
            d,
        }
    }

    /// The nearest center of every row of the column-major block `cols`
    /// (`d` columns of equal length): `best[r]` is its index and `score[r]`
    /// its `‖c‖² − 2·x·c`; both are sliced to the block's row count.
    pub fn nearest(&self, cols: &[&[f64]], best: &mut [usize], score: &mut [f64]) {
        let cols = &cols[..self.d.min(cols.len())];
        let whole = best.len() - best.len() % ROW_BLOCK;
        for r in (0..whole).step_by(ROW_BLOCK) {
            self.rows::<ROW_BLOCK>(cols, r, best, score);
        }
        for r in whole..best.len() {
            self.rows::<1>(cols, r, best, score);
        }
    }

    /// Score rows `r..r + R` against every center block, in center order.
    /// The running minimum is a select, not a branch: which center wins is
    /// data, and a mispredicted branch per (row, center) costs more than
    /// the multiply-adds at small `d`.
    fn rows<const R: usize>(
        &self,
        cols: &[&[f64]],
        r: usize,
        best: &mut [usize],
        score: &mut [f64],
    ) {
        let (mut low, mut at) = ([f64::INFINITY; R], [0usize; R]);
        let norms = self.norms.chunks_exact(CENTER_BLOCK);
        for ((b, block), norms) in self.blocks.iter().enumerate().zip(norms) {
            let dots = center_dots::<R>(cols, r, block);
            for (i, (dot, &norm)) in dots.iter().zip(norms).enumerate() {
                for k in 0..R {
                    let s = norm - 2.0 * dot[k];
                    let lower = s < low[k];
                    low[k] = if lower { s } else { low[k] };
                    at[k] = if lower { b * CENTER_BLOCK + i } else { at[k] };
                }
            }
        }
        score[r..r + R].copy_from_slice(&low);
        best[r..r + R].copy_from_slice(&at);
    }
}

/// `Σⱼ xⱼ·cⱼ` of rows `r..r + R` against one block of centers, each sum
/// added in feature order, rows in lanes.
///
/// Out of line, like `linalg::syrk_lanes`, so the sums' only consumers are
/// stores of each center's row lanes side by side: the vectorizer pairs
/// *rows*, one two-row load per column and one `mulpd`/`addpd` per two
/// multiply-adds, with all sixteen sums in registers (DESIGN.md §5).
#[inline(never)]
fn center_dots<const R: usize>(
    cols: &[&[f64]],
    r: usize,
    block: &[[f64; CENTER_BLOCK]],
) -> [[f64; R]; CENTER_BLOCK] {
    let mut sums = [[0.0f64; R]; CENTER_BLOCK];
    for (col, c) in cols.iter().zip(block) {
        let x = &col[r..r + R];
        for i in 0..CENTER_BLOCK {
            for k in 0..R {
                sums[i][k] += x[k] * c[i];
            }
        }
    }
    sums
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
    /// Nearest-center assignment for a block of rows, by the training
    /// pass's `Scorer`. Ties (equal `‖c‖² − 2·x·c`) keep the lower center
    /// index, matching the strict `<` in the row-wise
    /// [`KmeansModel::assign`].
    pub fn assign_batch(&self, cols: &[&[f64]]) -> Vec<usize> {
        let rows = block_rows(cols);
        let mut best = vec![0usize; rows];
        if rows == 0 || self.centers.is_empty() {
            return best;
        }
        let scorer = Scorer::new(&self.centers.concat(), self.num_features());
        scorer.nearest(cols, &mut best, &mut vec![0.0; rows]);
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
