//! `hpdkmeans`: distributed K-means clustering.
//!
//! "In each iteration, points are first mapped to their closest centers and
//! then new centers are calculated by averaging the groups" (Section 7.3.1).
//! Each partition computes assignments and partial center sums; the master
//! reduces and re-averages ([`KmeansFit`], iterated by [`crate::fit::drive`]).
//! The per-partition kernel, the center update and the seeding are public
//! so the Spark comparator runs the *identical* code — Figure 20's caption
//! insists "Spark and DR denote the same implementation of the K-means
//! algorithm, and hence an apples-to-apples comparison".
//!
//! Centers travel as one contiguous `k×d` row-major buffer, and the
//! assignment pass is blocked by row width (`kernels::RowScorer`):
//! narrow rows score four centers per sweep with register accumulators, wide
//! rows sweep all k scores per element through a transposed center stripe,
//! instead of a `squared_distance` call per (row, center) pair.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::error::{MlError, Result};
use crate::fit::{drive, IterativeFit, Rows, Source};
use crate::kernels::RowScorer;
use crate::linalg::squared_distance;
use crate::models::KmeansModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vdr_distr::DArray;
use vdr_obs::SpanGuard;

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

    /// The Lloyd update: every center of `centers` (`k×d`, row-major) moves
    /// to the mean of the rows assigned to it. A center no row chose goes to
    /// `empty` instead, which may move it (`hpdkmeans` reseeds it) or leave
    /// it where it is. Returns the summed squared distance the centers moved.
    pub fn update_centers(
        &self,
        centers: &mut [f64],
        mut empty: impl FnMut(&mut [f64]) -> Result<()>,
    ) -> Result<f64> {
        let k = self.counts.len();
        if k == 0 || centers.len() != self.sums.len() {
            return Err(MlError::Invalid(
                "centers do not match the partial's".into(),
            ));
        }
        let d = centers.len() / k;
        let mut new = vec![0.0; d];
        let mut moved = 0.0;
        for (c, old) in centers.chunks_exact_mut(d.max(1)).enumerate() {
            if self.counts[c] == 0 {
                new.copy_from_slice(old);
                empty(&mut new)?;
            } else {
                let count = self.counts[c] as f64;
                for (nj, s) in new.iter_mut().zip(&self.sums[c * d..(c + 1) * d]) {
                    *nj = s / count;
                }
            }
            moved += squared_distance(&new, old);
            old.copy_from_slice(&new);
        }
        Ok(moved)
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

/// Check that `x` can be clustered into `k` groups; returns its width.
fn check_shape(x: &DArray, k: usize) -> Result<usize> {
    let (n, d) = x.dim();
    if d == 0 || k == 0 || k as u64 > n {
        return Err(MlError::Invalid(format!("k={k} with n={n} rows of {d}")));
    }
    Ok(d as usize)
}

/// Every row's squared distance to the nearest of `centers` (both row-major,
/// `d` wide).
pub fn nearest_distances(data: &[f64], d: usize, centers: &[f64]) -> Vec<f64> {
    let nearest = |row| {
        let dists = centers.chunks_exact(d).map(|c| squared_distance(row, c));
        dists.fold(f64::INFINITY, f64::min)
    };
    data.chunks_exact(d).map(nearest).collect()
}

/// k-means++ (D² sampling) seeding of `k` centers from `n` partitioned rows
/// of width `d`, as one `k×d` row-major buffer: each next center is drawn
/// with probability proportional to its squared distance from the nearest
/// center chosen so far. `nearest(centers)` returns those distances
/// partition by partition ([`nearest_distances`]), `row(i)` fetches global
/// row `i`. `hpdkmeans` and the Spark comparator both seed here.
pub fn kmeans_pp(
    n: usize,
    d: usize,
    k: usize,
    seed: u64,
    nearest: impl Fn(&[f64]) -> Result<Vec<Vec<f64>>>,
    row: impl Fn(usize) -> Result<Vec<f64>>,
) -> Result<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut centers = row(rng.gen_range(0..n))?;
    while centers.len() < k * d {
        let dists = nearest(&centers)?;
        let total: f64 = dists.iter().flatten().sum();
        if total <= 0.0 {
            // All points identical to existing centers: duplicate.
            let first = centers[..d].to_vec();
            centers.extend_from_slice(&first);
            continue;
        }
        let mut target = rng.gen_range(0.0..total);
        let mut weights = dists.iter().flatten();
        let chosen = weights.position(|w| {
            target -= w;
            target <= 0.0
        });
        centers.extend(row(chosen.unwrap_or(n - 1))?);
    }
    Ok(centers)
}

/// Global row `global` of `x`: a walk over the partition size table (sizes
/// come from the master's symbol table), then one partition fetch.
fn row_at(x: &DArray, mut global: usize) -> Result<Vec<f64>> {
    for (p, (rows, _)) in x.partition_sizes().into_iter().enumerate() {
        if global < rows as usize {
            return Ok(x.partition(p)?.row(global).to_vec());
        }
        global -= rows as usize;
    }
    Err(MlError::Invalid(format!("row {global} past the end")))
}

/// Lloyd as an [`IterativeFit`]: the transition assigns rows to their
/// nearest center ([`assign_partial`]); the step moves each center to its
/// mean, reseeds empty ones, and stops once the centers barely moved.
#[derive(Debug, Clone)]
pub struct KmeansFit {
    d: usize,
    opts: KmeansOptions,
    /// `k×d`, row-major.
    centers: Vec<f64>,
    /// Draws the rows empty clusters are reseeded at.
    rng: StdRng,
    wss: f64,
}

impl KmeansFit {
    /// Lloyd from `centers` (`opts.k × d`, row-major) under `opts`' budget,
    /// tolerance and seed.
    pub fn new(d: usize, opts: &KmeansOptions, centers: Vec<f64>) -> Result<Self> {
        let (want, got) = (opts.k * d, centers.len());
        if got != want {
            return Err(MlError::Invalid(format!(
                "initial_centers must be k×d = {want}, got {got}"
            )));
        }
        Ok(KmeansFit {
            d,
            opts: opts.clone(),
            centers,
            rng: StdRng::seed_from_u64(opts.seed ^ 0x5eed),
            wss: f64::INFINITY,
        })
    }
}

impl IterativeFit for KmeansFit {
    type Partial = KmeansPartial;
    type Model = KmeansModel;
    const NAME: &'static str = "ml.kmeans";

    fn max_iterations(&self) -> usize {
        self.opts.max_iterations
    }

    fn transition(&self, rows: Rows<'_>) -> Result<KmeansPartial> {
        if rows.stride != self.d {
            return Err(MlError::Invalid(
                "rows are not as wide as the centers".into(),
            ));
        }
        Ok(assign_partial(rows.data, self.d, &self.centers))
    }

    fn merge(acc: &mut KmeansPartial, other: KmeansPartial) {
        merge_partials(acc, &other);
    }

    fn step(
        &mut self,
        merged: KmeansPartial,
        source: &Source<'_>,
        span: &mut SpanGuard<'_>,
    ) -> Result<bool> {
        // An empty cluster is reseeded at a random row.
        let (x, rng) = (source.rows, &mut self.rng);
        let moved = merged.update_centers(&mut self.centers, |c| {
            c.copy_from_slice(&row_at(x, rng.gen_range(0..x.dim().0) as usize)?);
            Ok(())
        })?;
        self.wss = merged.wss;
        // The per-iteration objective trace.
        span.record("wss", self.wss);
        span.record("moved", moved);
        Ok(moved <= self.opts.tolerance)
    }

    /// The streamed assignment pass is Lloyd's first iteration: its update
    /// gives the starting centers (one that saw no rows stays put, and is
    /// reseeded if it stays empty) and uses up one iteration of the budget.
    fn warm_start(&mut self, first: Option<KmeansPartial>, source: &Source<'_>) -> Result<()> {
        check_shape(source.rows, self.centers.len() / self.d)?;
        if let Some(first) = first {
            first.update_centers(&mut self.centers, |_| Ok(()))?;
        }
        self.opts.max_iterations = self.opts.max_iterations.saturating_sub(1).max(1);
        Ok(())
    }

    fn finish(self, iterations: usize, _: bool, span: &mut SpanGuard<'_>) -> Result<KmeansModel> {
        span.record("k", self.centers.len() / self.d);
        span.record("wss", self.wss);
        Ok(KmeansModel {
            centers: self
                .centers
                .chunks_exact(self.d)
                .map(<[f64]>::to_vec)
                .collect(),
            iterations,
            total_withinss: self.wss,
        })
    }
}

/// Cluster the rows of `x` into `opts.k` groups.
pub fn hpdkmeans(x: &DArray, opts: &KmeansOptions) -> Result<KmeansModel> {
    let d = check_shape(x, opts.k)?;
    let centers = match &opts.initial_centers {
        Some(init) => init.clone(),
        None => {
            // D² weights computed distributed.
            let nearest =
                |c: &[f64]| Ok(x.map_partitions(|_, part| nearest_distances(&part.data, d, c))?);
            kmeans_pp(x.dim().0 as usize, d, opts.k, opts.seed, nearest, |g| {
                row_at(x, g)
            })?
        }
    };
    drive(
        KmeansFit::new(d, opts, centers)?,
        &Source { rows: x, y: None },
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
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
    fn lloyd_update_averages_and_hands_empty_centers_to_the_caller() {
        // Both rows pick center 0; centers 1 and 2 stay empty.
        let p = assign_partial(&[1.0, 3.0], 1, &[0.0, 10.0, 100.0]);
        let mut centers = vec![0.0, 10.0, 100.0];
        assert_eq!(p.update_centers(&mut centers, |_| Ok(())).unwrap(), 4.0);
        assert_eq!(centers, [2.0, 10.0, 100.0]);
        let mut centers = vec![0.0, 10.0, 100.0];
        let moved = p
            .update_centers(&mut centers, |c| {
                c[0] = -1.0;
                Ok(())
            })
            .unwrap();
        assert_eq!(
            (centers, moved),
            (vec![2.0, -1.0, -1.0], 4.0 + 121.0 + 10201.0)
        );
        assert!(p.update_centers(&mut [0.0; 2], |_| Ok(())).is_err());
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
        let opts = KmeansOptions {
            k,
            ..Default::default()
        };
        let fit = KmeansFit::new(d, &opts, centers).unwrap();
        let rows = Rows::new(&data, d, None);
        let pass = |lanes| crate::fit::partition_pass(&fit, rows, lanes).unwrap();
        let (a, b) = (pass(4), pass(4));
        assert_eq!(a.sums, b.sums, "same lanes ⇒ bit-identical");
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.wss, b.wss);
        let serial = pass(1);
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
