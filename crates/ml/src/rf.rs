//! `hpdrf`: a distributed bagged random-forest classifier.
//!
//! Vertica ships a `randomforest` prediction function (Section 5); this is
//! the training side. Trees are distributed across partitions: each tree
//! trains on a bootstrap sample drawn from one partition's rows (bagging by
//! data locality, the standard approach for partition-parallel forests),
//! with √p feature subsampling at every split.

use crate::error::{MlError, Result};
use crate::models::{DecisionTree, RandomForestModel, TreeNode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vdr_distr::DArray;

/// Forest options.
#[derive(Debug, Clone)]
pub struct RfOptions {
    pub num_trees: usize,
    pub max_depth: usize,
    pub min_samples_split: usize,
    /// Features tried per split; 0 ⇒ ⌈√p⌉.
    pub max_features: usize,
    pub seed: u64,
}

impl Default for RfOptions {
    fn default() -> Self {
        RfOptions {
            num_trees: 32,
            max_depth: 12,
            min_samples_split: 4,
            max_features: 0,
            seed: 7,
        }
    }
}

/// Train a random forest on co-partitioned features `x` (n×d) and integer
/// class labels `y` (n×1).
pub fn hpdrf(x: &DArray, y: &DArray, opts: &RfOptions) -> Result<RandomForestModel> {
    let (n, d) = x.dim();
    if n == 0 || d == 0 {
        return Err(MlError::Invalid("empty input".into()));
    }
    if y.dim() != (n, 1) {
        return Err(MlError::Invalid("labels must be n×1".into()));
    }
    x.check_copartitioned(y)?;
    if opts.num_trees == 0 {
        return Err(MlError::Invalid("num_trees must be > 0".into()));
    }
    let d = d as usize;
    let mtry = if opts.max_features == 0 {
        (d as f64).sqrt().ceil() as usize
    } else {
        opts.max_features.min(d)
    };

    // Collect global class set first (small reduce).
    let class_sets = y.map_partitions(|_, yp| {
        let mut s: Vec<i64> = yp.data.iter().map(|v| *v as i64).collect();
        s.sort_unstable();
        s.dedup();
        s
    })?;
    let mut classes: Vec<i64> = class_sets.into_iter().flatten().collect();
    classes.sort_unstable();
    classes.dedup();
    if classes.len() < 2 {
        return Err(MlError::Invalid("need at least two classes".into()));
    }

    // Assign trees round-robin to partitions; each partition trains its
    // trees on its worker.
    let nparts = x.npartitions();
    let seed = opts.seed;
    let opts2 = opts.clone();
    let trees_nested: Vec<Vec<DecisionTree>> = x.zip_map(y, |p, xp, yp| {
        let my_trees: Vec<usize> = (0..opts2.num_trees).filter(|t| t % nparts == p).collect();
        my_trees
            .into_iter()
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E3779B9));
                // Bootstrap sample of this partition's rows.
                let rows: Vec<usize> = (0..xp.nrow).map(|_| rng.gen_range(0..xp.nrow)).collect();
                let labels: Vec<i64> = rows.iter().map(|&r| yp.data[r] as i64).collect();
                let mut tree = DecisionTree::default();
                build_node(&mut tree, xp, &rows, &labels, d, mtry, 0, &opts2, &mut rng);
                tree
            })
            .collect()
    })?;

    let trees: Vec<DecisionTree> = trees_nested.into_iter().flatten().collect();
    Ok(RandomForestModel {
        trees,
        num_features: d,
        classes,
    })
}

// BTreeMap keeps accumulation order deterministic: HashMap's randomized
// iteration order changes floating-point summation order, which flips
// near-tie split choices between otherwise identical runs.
fn gini(counts: &std::collections::BTreeMap<i64, usize>, total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let mut g = 1.0;
    for &c in counts.values() {
        let p = c as f64 / total as f64;
        g -= p * p;
    }
    g
}

fn majority(labels: &[i64]) -> i64 {
    let mut counts: std::collections::BTreeMap<i64, usize> = std::collections::BTreeMap::new();
    for &l in labels {
        *counts.entry(l).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .max_by_key(|&(class, count)| (count, -class))
        .map(|(class, _)| class)
        .unwrap_or(0)
}

#[allow(clippy::too_many_arguments)]
fn build_node(
    tree: &mut DecisionTree,
    xp: &vdr_distr::PartData,
    rows: &[usize],
    labels: &[i64],
    d: usize,
    mtry: usize,
    depth: usize,
    opts: &RfOptions,
    rng: &mut StdRng,
) -> usize {
    let idx = tree.nodes.len();
    let pure = labels.windows(2).all(|w| w[0] == w[1]);
    if pure || depth >= opts.max_depth || rows.len() < opts.min_samples_split {
        tree.nodes.push(TreeNode::Leaf {
            class: majority(labels),
        });
        return idx;
    }

    // Try `mtry` random features; for each, a handful of random thresholds.
    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, impurity)
    let parent_total = rows.len();
    for _ in 0..mtry {
        let feature = rng.gen_range(0..d);
        for _ in 0..8 {
            let pivot_row = rows[rng.gen_range(0..rows.len())];
            let threshold = xp.row(pivot_row)[feature];
            let mut left: std::collections::BTreeMap<i64, usize> =
                std::collections::BTreeMap::new();
            let mut right: std::collections::BTreeMap<i64, usize> =
                std::collections::BTreeMap::new();
            let mut nl = 0usize;
            for (&r, &l) in rows.iter().zip(labels) {
                if xp.row(r)[feature] <= threshold {
                    *left.entry(l).or_insert(0) += 1;
                    nl += 1;
                } else {
                    *right.entry(l).or_insert(0) += 1;
                }
            }
            let nr = parent_total - nl;
            if nl == 0 || nr == 0 {
                continue;
            }
            let impurity =
                (nl as f64 * gini(&left, nl) + nr as f64 * gini(&right, nr)) / parent_total as f64;
            if best.is_none_or(|(_, _, b)| impurity < b) {
                best = Some((feature, threshold, impurity));
            }
        }
    }

    let Some((feature, threshold, _)) = best else {
        tree.nodes.push(TreeNode::Leaf {
            class: majority(labels),
        });
        return idx;
    };

    // Reserve the split slot, then build children.
    tree.nodes.push(TreeNode::Leaf { class: 0 }); // placeholder
    let (mut lr, mut ll, mut rr, mut rl) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (&r, &l) in rows.iter().zip(labels) {
        if xp.row(r)[feature] <= threshold {
            lr.push(r);
            ll.push(l);
        } else {
            rr.push(r);
            rl.push(l);
        }
    }
    let left = build_node(tree, xp, &lr, &ll, d, mtry, depth + 1, opts, rng);
    let right = build_node(tree, xp, &rr, &rl, d, mtry, depth + 1, opts, rng);
    tree.nodes[idx] = TreeNode::Split {
        feature,
        threshold,
        left,
        right,
    };
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdr_cluster::SimCluster;
    use vdr_distr::DistributedR;

    /// A linearly separable 2-class problem with an axis-aligned boundary.
    fn dataset(dr: &DistributedR) -> (DArray, DArray) {
        let mut rng = StdRng::seed_from_u64(2);
        let x = dr.darray(3).unwrap();
        let mut ys = Vec::new();
        for p in 0..3 {
            let rows = 300;
            let mut xd = Vec::new();
            let mut yd = Vec::new();
            for _ in 0..rows {
                let a: f64 = rng.gen_range(-1.0..1.0);
                let b: f64 = rng.gen_range(-1.0..1.0);
                xd.push(a);
                xd.push(b);
                yd.push(f64::from(a + 0.5 * b > 0.1));
            }
            x.fill_partition(p, rows, 2, xd).unwrap();
            ys.push(yd);
        }
        let y = x.clone_structure(1, 0.0).unwrap();
        for (p, yd) in ys.into_iter().enumerate() {
            y.fill_partition_on(y.worker_of(p).unwrap(), p, yd.len(), 1, yd)
                .unwrap();
        }
        (x, y)
    }

    #[test]
    fn forest_learns_separable_boundary() {
        let dr = DistributedR::on_all_nodes(SimCluster::for_tests(3), 2).unwrap();
        let (x, y) = dataset(&dr);
        let model = hpdrf(&x, &y, &RfOptions::default()).unwrap();
        assert_eq!(model.trees.len(), 32);
        assert_eq!(model.classes, vec![0, 1]);
        // Accuracy on a fresh grid.
        let mut correct = 0;
        let mut total = 0;
        for i in -9..=9 {
            for j in -9..=9 {
                let a = i as f64 / 10.0;
                let b = j as f64 / 10.0;
                if (a + 0.5 * b - 0.1).abs() < 0.15 {
                    continue; // skip the ambiguous band
                }
                let want = i64::from(a + 0.5 * b > 0.1);
                total += 1;
                correct += i64::from(model.predict(&[a, b]) == want);
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.93, "accuracy {acc}");
    }

    #[test]
    fn deterministic_given_seed() {
        let dr = DistributedR::on_all_nodes(SimCluster::for_tests(2), 2).unwrap();
        let (x, y) = dataset(&dr);
        let opts = RfOptions {
            num_trees: 8,
            ..Default::default()
        };
        let a = hpdrf(&x, &y, &opts).unwrap();
        let b = hpdrf(&x, &y, &opts).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn depth_is_bounded() {
        let dr = DistributedR::on_all_nodes(SimCluster::for_tests(1), 1).unwrap();
        let (x, y) = dataset(&dr);
        let opts = RfOptions {
            num_trees: 4,
            max_depth: 3,
            ..Default::default()
        };
        let model = hpdrf(&x, &y, &opts).unwrap();
        for t in &model.trees {
            assert!(t.depth() <= 4, "depth {}", t.depth());
        }
    }

    #[test]
    fn validations() {
        let dr = DistributedR::on_all_nodes(SimCluster::for_tests(1), 1).unwrap();
        let x = dr.darray(1).unwrap();
        x.fill_partition(0, 4, 1, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = x.clone_structure(1, 1.0).unwrap(); // single class
        assert!(hpdrf(&x, &y, &RfOptions::default()).is_err());
        let y2 = x.clone_structure(1, 0.0).unwrap();
        y2.update_partitions(|_, p| {
            for (i, v) in p.data.iter_mut().enumerate() {
                *v = (i % 2) as f64;
            }
        })
        .unwrap();
        assert!(hpdrf(
            &x,
            &y2,
            &RfOptions {
                num_trees: 0,
                ..Default::default()
            }
        )
        .is_err());
    }
}
