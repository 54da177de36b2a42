//! `hpdkmeans`: distributed K-means clustering.
//!
//! "In each iteration, points are first mapped to their closest centers and
//! then new centers are calculated by averaging the groups" (Section 7.3.1).
//! Each partition computes assignments and partial center sums; the master
//! reduces and re-averages. The per-partition kernel is public so the Spark
//! comparator runs the *identical* inner loop — Figure 20's caption insists
//! "Spark and DR denote the same implementation of the K-means algorithm,
//! and hence an apples-to-apples comparison".
//!
//! Centers travel as one contiguous `k×d` row-major buffer, and the
//! assignment pass is blocked by row width (`kernels::RowScorer`):
//! narrow rows score four centers per sweep with register accumulators, wide
//! rows sweep all k scores per element through a transposed center stripe,
//! instead of a `squared_distance` call per (row, center) pair.

use crate::error::{MlError, Result};
use crate::kernels::RowScorer;
use crate::linalg::squared_distance;
use crate::models::KmeansModel;
use crate::reduce::{lane_chunk, tree_merge};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use vdr_distr::DArray;

/// Clustering options.
#[derive(Debug, Clone)]
pub struct KmeansOptions {
    pub k: usize,
    pub max_iterations: usize,
    /// Stop when no assignment changes (exact) or center movement falls
    /// below this squared threshold.
    pub tolerance: f64,
    /// Seed of the k-means++ (D² sampling) seeding.
    pub seed: u64,
    /// Explicit starting centers (`k×d`, row-major). When set, `seed` is
    /// ignored — this is how the train-while-loading path warm-starts Lloyd
    /// iterations from the centers it already scored batches against during
    /// the transfer.
    pub initial_centers: Option<Vec<f64>>,
}

impl Default for KmeansOptions {
    fn default() -> Self {
        KmeansOptions {
            k: 2,
            max_iterations: 100,
            tolerance: 1e-9,
            seed: 20150531, // SIGMOD'15 opened May 31, 2015
            initial_centers: None,
        }
    }
}

/// Partial result of one partition's assignment pass.
#[derive(Debug, Clone)]
pub struct KmeansPartial {
    /// Per-center sums of assigned points (k × d, row-major).
    pub sums: Vec<f64>,
    /// Per-center assigned counts.
    pub counts: Vec<u64>,
    /// Within-cluster sum of squares contributed by this partition.
    pub wss: f64,
}

impl KmeansPartial {
    pub fn zeros(k: usize, d: usize) -> Self {
        KmeansPartial {
            sums: vec![0.0; k * d],
            counts: vec![0; k],
            wss: 0.0,
        }
    }
}

/// The shared inner loop: assign each row of `data` (row-major, `d` wide) to
/// its nearest center (`centers` is `k×d` row-major) and accumulate partial
/// sums. Used by `hpdkmeans`, the serial R baseline, the Spark comparator,
/// and the train-while-loading path. Distances run through the
/// shared `RowScorer` kernel: `‖c‖² − 2·x·c` scoring with the center
/// norms and (for wide rows) the center transpose hoisted out of the row
/// loop, blocked by row width.
pub fn assign_partial(data: &[f64], d: usize, centers: &[f64]) -> KmeansPartial {
    let k = centers.len().checked_div(d).unwrap_or(0);
    let nrow = data.len().checked_div(d).unwrap_or(0);
    let mut out = KmeansPartial::zeros(k, d);
    if nrow == 0 || k == 0 {
        return out;
    }
    let scorer = RowScorer::new(centers, d);
    let fold = |row: &[f64], best: usize, dist: f64, out: &mut KmeansPartial| {
        out.counts[best] += 1;
        out.wss += dist;
        crate::linalg::axpy(1.0, row, &mut out.sums[best * d..(best + 1) * d]);
    };
    let mut pairs = data.chunks_exact(2 * d);
    for pair in pairs.by_ref() {
        let (row_a, row_b) = pair.split_at(d);
        let ((ba, da), (bb, db)) = scorer.nearest2(row_a, row_b);
        fold(row_a, ba, da, &mut out);
        fold(row_b, bb, db, &mut out);
    }
    let row = pairs.remainder();
    if !row.is_empty() {
        let (best, dist) = scorer.nearest(row);
        fold(row, best, dist, &mut out);
    }
    out
}

/// Row-at-a-time reference over nested centers (the pre-flattening kernel):
/// one `squared_distance` per (row, center). Kept as the oracle for the
/// flattened-vs-nested equivalence property tests.
pub fn assign_partial_reference(data: &[f64], d: usize, centers: &[Vec<f64>]) -> KmeansPartial {
    let k = centers.len();
    let mut out = KmeansPartial::zeros(k, d);
    for row in data.chunks_exact(d) {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (c, center) in centers.iter().enumerate() {
            let dist = squared_distance(row, center);
            if dist < best_d {
                best_d = dist;
                best = c;
            }
        }
        out.counts[best] += 1;
        out.wss += best_d;
        crate::linalg::axpy(1.0, row, &mut out.sums[best * d..(best + 1) * d]);
    }
    out
}

/// Per-partition assignment with rows split across `lanes` parallel
/// accumulators (contiguous, tile-aligned chunks) and a deterministic
/// pairwise tree-merge of the lane partials.
pub fn assign_partition(data: &[f64], d: usize, centers: &[f64], lanes: usize) -> KmeansPartial {
    let nrow = data.len().checked_div(d).unwrap_or(0);
    let chunk = lane_chunk(nrow, lanes);
    if chunk >= nrow {
        return assign_partial(data, d, centers);
    }
    let starts: Vec<usize> = (0..nrow).step_by(chunk).collect();
    let partials: Vec<KmeansPartial> = starts
        .par_iter()
        .map(|&s| {
            let e = (s + chunk).min(nrow);
            assign_partial(&data[s * d..e * d], d, centers)
        })
        .collect();
    tree_merge(partials, |a, b| merge_partials(a, &b)).expect("nonempty chunk list")
}

/// Merge partials (the reduce step), in place and allocation-free.
pub fn merge_partials(acc: &mut KmeansPartial, other: &KmeansPartial) {
    for (a, b) in acc.sums.iter_mut().zip(&other.sums) {
        *a += b;
    }
    for (a, b) in acc.counts.iter_mut().zip(&other.counts) {
        *a += b;
    }
    acc.wss += other.wss;
}

/// Seed `k` centers, returned as one contiguous `k×d` row-major buffer.
fn init_centers(x: &DArray, opts: &KmeansOptions) -> Result<Vec<f64>> {
    let (n, d) = x.dim();
    let (n, d) = (n as usize, d as usize);
    if let Some(init) = &opts.initial_centers {
        if init.len() != opts.k * d {
            return Err(MlError::Invalid(format!(
                "initial_centers must be k×d = {}, got {}",
                opts.k * d,
                init.len()
            )));
        }
        return Ok(init.clone());
    }
    let mut rng = StdRng::seed_from_u64(opts.seed);
    // Small k relative to n: gather candidate rows by global index. Row
    // lookup walks the partition size table (cheap; sizes come from the
    // master's symbol table).
    let sizes = x.partition_sizes();
    let fetch_row = |global: usize| -> Result<Vec<f64>> {
        let mut remaining = global;
        for (p, (rows, _)) in sizes.iter().enumerate() {
            if remaining < *rows as usize {
                let part = x.partition(p)?;
                return Ok(part.row(remaining).to_vec());
            }
            remaining -= *rows as usize;
        }
        Err(MlError::Invalid(format!("row {global} out of range")))
    };

    // k-means++ seeding (D² sampling).
    let mut centers = fetch_row(rng.gen_range(0..n))?;
    while centers.len() < opts.k * d {
        let chosen_so_far = centers.len() / d;
        // D² weights computed distributed.
        let dists: Vec<Vec<f64>> = x.map_partitions(|_, part| {
            (0..part.nrow)
                .map(|r| {
                    (0..chosen_so_far)
                        .map(|c| squared_distance(part.row(r), &centers[c * d..(c + 1) * d]))
                        .fold(f64::INFINITY, f64::min)
                })
                .collect()
        })?;
        let total: f64 = dists.iter().flatten().sum();
        if total <= 0.0 {
            // All points identical to existing centers: duplicate.
            let first = centers[..d].to_vec();
            centers.extend_from_slice(&first);
            continue;
        }
        let mut target = rng.gen_range(0.0..total);
        let mut chosen = None;
        'outer: for (p, pd) in dists.iter().enumerate() {
            for (r, w) in pd.iter().enumerate() {
                target -= w;
                if target <= 0.0 {
                    chosen = Some((p, r));
                    break 'outer;
                }
            }
        }
        let (p, r) = chosen.unwrap_or((x.npartitions() - 1, 0));
        let part = x.partition(p)?;
        centers.extend_from_slice(part.row(r.min(part.nrow - 1)));
    }
    Ok(centers)
}

/// Cluster the rows of `x` into `opts.k` groups.
pub fn hpdkmeans(x: &DArray, opts: &KmeansOptions) -> Result<KmeansModel> {
    let (n, d) = x.dim();
    let (n, d) = (n as usize, d as usize);
    if n == 0 || d == 0 {
        return Err(MlError::Invalid("empty input".into()));
    }
    if opts.k == 0 || opts.k > n {
        return Err(MlError::Invalid(format!("k={} with n={n}", opts.k)));
    }
    let mut fit_span = vdr_obs::span("ml.kmeans.fit");
    fit_span.record("k", opts.k);
    fit_span.record("n", n);

    let lanes = x.instance_lanes();
    let mut centers = init_centers(x, opts)?;
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x5eed);
    let mut iterations = 0usize;
    let mut wss = f64::INFINITY;
    while iterations < opts.max_iterations {
        iterations += 1;
        let mut iter_span = vdr_obs::span("ml.kmeans.iteration");
        iter_span.record("iter", iterations);
        let pass_start = std::time::Instant::now();
        // Map: every partition assigns its rows against the broadcast
        // centers, in parallel on its worker and across instance lanes.
        let partials =
            x.map_partitions(|_, part| assign_partition(&part.data, d, &centers, lanes))?;
        let merged =
            tree_merge(partials, |a, b| merge_partials(a, &b)).expect("at least one partition");
        vdr_obs::observe(
            "ml.train.rows_per_sec",
            n as f64 / pass_start.elapsed().as_secs_f64().max(1e-9),
        );
        // Update step + empty-cluster reseeding.
        let mut moved = 0.0f64;
        let mut new_centers = vec![0.0f64; opts.k * d];
        for c in 0..opts.k {
            let old = &centers[c * d..(c + 1) * d];
            let new = &mut new_centers[c * d..(c + 1) * d];
            if merged.counts[c] == 0 {
                // Re-seed an empty cluster at a random row.
                let sizes = x.partition_sizes();
                let total_rows: u64 = sizes.iter().map(|s| s.0).sum();
                let mut target = rng.gen_range(0..total_rows);
                new.copy_from_slice(old);
                for (p, (rows, _)) in sizes.iter().enumerate() {
                    if target < *rows {
                        let part = x.partition(p)?;
                        new.copy_from_slice(part.row(target as usize));
                        break;
                    }
                    target -= rows;
                }
            } else {
                let count = merged.counts[c] as f64;
                for (nj, s) in new.iter_mut().zip(&merged.sums[c * d..(c + 1) * d]) {
                    *nj = s / count;
                }
            }
            moved += squared_distance(new, old);
        }
        centers = new_centers;
        wss = merged.wss;
        // The per-iteration objective trace.
        iter_span.record("wss", wss);
        iter_span.record("moved", moved);
        if moved <= opts.tolerance {
            break;
        }
    }
    fit_span.record("iterations", iterations);
    fit_span.record("wss", wss);
    Ok(KmeansModel {
        centers: centers.chunks_exact(d).map(<[f64]>::to_vec).collect(),
        iterations,
        total_withinss: wss,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdr_cluster::SimCluster;
    use vdr_distr::DistributedR;

    fn runtime(nodes: usize) -> DistributedR {
        DistributedR::on_all_nodes(SimCluster::for_tests(nodes), 2).unwrap()
    }

    /// Three well-separated 2-D blobs spread over partitions.
    fn blobs(dr: &DistributedR, nparts: usize, per_blob: usize) -> DArray {
        let centers = [(0.0, 0.0), (10.0, 10.0), (-10.0, 8.0)];
        let mut rng = StdRng::seed_from_u64(1);
        let mut all: Vec<[f64; 2]> = Vec::new();
        for &(cx, cy) in &centers {
            for _ in 0..per_blob {
                all.push([cx + rng.gen_range(-0.5..0.5), cy + rng.gen_range(-0.5..0.5)]);
            }
        }
        // Shuffle so blobs span partitions.
        for i in (1..all.len()).rev() {
            all.swap(i, rng.gen_range(0..=i));
        }
        let x = dr.darray(nparts).unwrap();
        let chunk = all.len().div_ceil(nparts);
        for (p, rows) in all.chunks(chunk).enumerate() {
            let data: Vec<f64> = rows.iter().flatten().copied().collect();
            x.fill_partition(p, rows.len(), 2, data).unwrap();
        }
        x
    }

    #[test]
    fn finds_well_separated_blobs() {
        let dr = runtime(3);
        let x = blobs(&dr, 3, 200);
        let opts = KmeansOptions {
            k: 3,
            ..Default::default()
        };
        let m = hpdkmeans(&x, &opts).unwrap();
        assert_eq!(m.k(), 3);
        // Each true blob center must be within 0.2 of a found center.
        for expect in [[0.0, 0.0], [10.0, 10.0], [-10.0, 8.0]] {
            let nearest = m
                .centers
                .iter()
                .map(|c| squared_distance(c, &expect))
                .fold(f64::INFINITY, f64::min);
            assert!(nearest < 0.04, "{:?}", m.centers);
        }
        // Tight clusters ⇒ small WSS per point.
        assert!(m.total_withinss / 600.0 < 0.5);
        assert!(m.iterations < 20);
    }

    #[test]
    fn deterministic_given_seed() {
        let dr = runtime(2);
        let x = blobs(&dr, 4, 100);
        let opts = KmeansOptions {
            k: 3,
            seed: 9,
            ..Default::default()
        };
        let a = hpdkmeans(&x, &opts).unwrap();
        let b = hpdkmeans(&x, &opts).unwrap();
        assert_eq!(a.centers, b.centers);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn explicit_initial_centers_warm_start() {
        let dr = runtime(2);
        let x = blobs(&dr, 2, 100);
        // Start at the true blob centers: must converge almost immediately
        // to (approximately) those centers.
        let opts = KmeansOptions {
            k: 3,
            initial_centers: Some(vec![0.0, 0.0, 10.0, 10.0, -10.0, 8.0]),
            ..Default::default()
        };
        let m = hpdkmeans(&x, &opts).unwrap();
        assert!(m.iterations <= 3, "warm start should converge fast");
        for expect in [[0.0, 0.0], [10.0, 10.0], [-10.0, 8.0]] {
            let nearest = m
                .centers
                .iter()
                .map(|c| squared_distance(c, &expect))
                .fold(f64::INFINITY, f64::min);
            assert!(nearest < 0.04, "{:?}", m.centers);
        }
        // Wrong length is rejected.
        let bad = KmeansOptions {
            k: 3,
            initial_centers: Some(vec![0.0; 4]),
            ..Default::default()
        };
        assert!(hpdkmeans(&x, &bad).is_err());
    }

    #[test]
    fn k_one_returns_global_mean() {
        let dr = runtime(2);
        let x = dr.darray(2).unwrap();
        x.fill_partition(0, 2, 1, vec![0.0, 2.0]).unwrap();
        x.fill_partition(1, 2, 1, vec![4.0, 6.0]).unwrap();
        let m = hpdkmeans(
            &x,
            &KmeansOptions {
                k: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert!((m.centers[0][0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn validations() {
        let dr = runtime(1);
        let x = dr.darray(1).unwrap();
        x.fill_partition(0, 3, 1, vec![1.0, 2.0, 3.0]).unwrap();
        assert!(hpdkmeans(
            &x,
            &KmeansOptions {
                k: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(hpdkmeans(
            &x,
            &KmeansOptions {
                k: 10,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn partial_kernel_accumulates_correctly() {
        let centers = [0.0, 10.0];
        let mut p = assign_partial(&[1.0, 2.0, 9.0, 11.0], 1, &centers);
        assert_eq!(p.counts, vec![2, 2]);
        assert_eq!(p.sums, vec![3.0, 20.0]);
        assert_eq!(p.wss, 1.0 + 4.0 + 1.0 + 1.0);
        let other = p.clone();
        merge_partials(&mut p, &other);
        assert_eq!(p.counts, vec![4, 4]);
        assert_eq!(p.wss, 14.0);
    }

    #[test]
    fn blocked_assignment_matches_nested_reference() {
        let mut rng = StdRng::seed_from_u64(77);
        for &(nrow, d, k) in &[(1usize, 2usize, 1usize), (300, 3, 4), (513, 7, 5)] {
            let data: Vec<f64> = (0..nrow * d).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let flat: Vec<f64> = (0..k * d).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let nested: Vec<Vec<f64>> = flat.chunks_exact(d).map(<[f64]>::to_vec).collect();
            let blocked = assign_partial(&data, d, &flat);
            let reference = assign_partial_reference(&data, d, &nested);
            assert_eq!(blocked.counts, reference.counts);
            for (a, b) in blocked.sums.iter().zip(&reference.sums) {
                assert!((a - b).abs() < 1e-9 * b.abs().max(1.0));
            }
            assert!((blocked.wss - reference.wss).abs() < 1e-9 * reference.wss.max(1.0));
        }
    }

    #[test]
    fn lane_parallel_assignment_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(5);
        let (nrow, d, k) = (2000usize, 3usize, 4usize);
        let data: Vec<f64> = (0..nrow * d).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let centers: Vec<f64> = (0..k * d).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let a = assign_partition(&data, d, &centers, 4);
        let b = assign_partition(&data, d, &centers, 4);
        assert_eq!(a.sums, b.sums, "same lanes ⇒ bit-identical");
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.wss, b.wss);
        let serial = assign_partition(&data, d, &centers, 1);
        assert_eq!(a.counts, serial.counts);
        assert!((a.wss - serial.wss).abs() < 1e-9 * serial.wss.max(1.0));
    }

    #[test]
    fn empty_cluster_is_reseeded_not_nan() {
        // Adversarial: k=3 on three identical points far from a lone outlier
        // can produce an empty cluster mid-run; centers must stay finite.
        let dr = runtime(1);
        let x = dr.darray(1).unwrap();
        x.fill_partition(0, 4, 1, vec![0.0, 0.0, 0.0, 100.0])
            .unwrap();
        let m = hpdkmeans(
            &x,
            &KmeansOptions {
                k: 3,
                max_iterations: 50,
                ..Default::default()
            },
        )
        .unwrap();
        for c in &m.centers {
            assert!(c[0].is_finite());
        }
    }
}
