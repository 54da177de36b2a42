//! MLlib-style K-means over a [`SparkMatrix`].
//!
//! The per-partition kernel, the seeding and the center update are literally
//! `vdr_ml::kmeans`' — the same code the Distributed R implementation runs —
//! so Figure 20 compares scheduling/runtime stacks, not algorithm variants.

use crate::rdd::SparkMatrix;
use vdr_ml::kmeans::{assign_partial, kmeans_pp, merge_partials, nearest_distances, KmeansPartial};
use vdr_ml::models::KmeansModel;
use vdr_ml::{MlError, Result};

/// Lloyd K-means with k-means‖-style D² seeding (what MLlib uses).
pub fn spark_kmeans(
    matrix: &SparkMatrix,
    k: usize,
    max_iterations: usize,
    seed: u64,
) -> Result<KmeansModel> {
    let n = matrix.num_rows();
    if k == 0 || k > n {
        return Err(MlError::Invalid(format!("k={k} with n={n}")));
    }
    let d = matrix.cols;
    let row = |global: usize| {
        let mut rows = matrix
            .partitions
            .iter()
            .flat_map(|p| p.data.chunks_exact(d));
        let row = rows.nth(global).map(<[f64]>::to_vec);
        row.ok_or_else(|| MlError::Invalid(format!("row {global} out of range")))
    };
    // D² sampling, the distances computed distributed, through the same
    // seeding code `hpdkmeans` runs.
    let nearest = |centers: &[f64]| {
        Ok(matrix.map_partitions(|part| nearest_distances(&part.data, d, centers)))
    };
    let centers = kmeans_pp(n, d, k, seed, nearest, row)?;
    let centers = centers.chunks_exact(d).map(<[f64]>::to_vec).collect();
    spark_kmeans_with_centers(matrix, centers, max_iterations)
}

/// Lloyd iterations from explicit starting centers (used by tests to verify
/// the Spark and Distributed R paths converge identically from the same
/// start).
pub fn spark_kmeans_with_centers(
    matrix: &SparkMatrix,
    centers: Vec<Vec<f64>>,
    max_iterations: usize,
) -> Result<KmeansModel> {
    let d = matrix.cols;
    let k = centers.len();
    if k == 0 {
        return Err(MlError::Invalid("no initial centers".into()));
    }
    // Same contiguous k×d center buffer as the Distributed R side.
    let mut centers: Vec<f64> = centers.into_iter().flatten().collect();
    let mut iterations = 0usize;
    let mut wss = f64::INFINITY;
    while iterations < max_iterations {
        iterations += 1;
        let partials: Vec<KmeansPartial> =
            matrix.map_partitions(|part| assign_partial(&part.data, d, &centers));
        let merged = vdr_ml::reduce::tree_merge(partials, |a, b| merge_partials(a, &b))
            .ok_or_else(|| MlError::Invalid("matrix has no partitions".into()))?;
        // MLlib keeps empty centers in place.
        let moved = merged.update_centers(&mut centers, |_| Ok(()))?;
        wss = merged.wss;
        if moved <= 1e-9 {
            break;
        }
    }
    Ok(KmeansModel {
        centers: centers.chunks_exact(d).map(<[f64]>::to_vec).collect(),
        iterations,
        total_withinss: wss,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hdfs::HdfsSim;
    use crate::rdd::SparkContext;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;
    use vdr_cluster::{Ledger, SimCluster};
    use vdr_ml::serial::serial_kmeans;

    fn blob_data(seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::new();
        for &(cx, cy) in &[(0.0, 0.0), (12.0, 12.0), (-12.0, 12.0)] {
            for _ in 0..120 {
                data.push(cx + rng.gen_range(-0.4..0.4));
                data.push(cy + rng.gen_range(-0.4..0.4));
            }
        }
        data
    }

    fn load(cluster: &SimCluster, data: &[f64]) -> SparkMatrix {
        let hdfs = Arc::new(HdfsSim::new(cluster.clone(), 3));
        hdfs.put_matrix("pts", data, 2, 40);
        let sc = SparkContext::new(cluster.clone(), hdfs, 2);
        sc.load_matrix("pts", &Ledger::new()).unwrap().0
    }

    #[test]
    fn finds_the_blobs() {
        let cluster = SimCluster::for_tests(3);
        let data = blob_data(4);
        let m = load(&cluster, &data);
        let model = spark_kmeans(&m, 3, 50, 99).unwrap();
        for expect in [[0.0, 0.0], [12.0, 12.0], [-12.0, 12.0]] {
            let nearest = model
                .centers
                .iter()
                .map(|c| vdr_ml::linalg::squared_distance(c, &expect))
                .fold(f64::INFINITY, f64::min);
            assert!(nearest < 0.05, "{:?}", model.centers);
        }
    }

    #[test]
    fn identical_kernel_to_serial_reference_from_same_start() {
        // Apples-to-apples check: Lloyd from the same initial centers must
        // yield identical centers whether run by the Spark comparator or the
        // serial reference (both call the shared kernel).
        let cluster = SimCluster::for_tests(2);
        let data = blob_data(8);
        let m = load(&cluster, &data);
        let init = vec![vec![1.0, 1.0], vec![10.0, 10.0], vec![-10.0, 10.0]];
        let spark = spark_kmeans_with_centers(&m, init.clone(), 30).unwrap();
        // Serial reference: run Lloyd by hand with the shared kernel.
        let mut centers: Vec<f64> = init.into_iter().flatten().collect();
        for _ in 0..30 {
            let p = assign_partial(&data, 2, &centers);
            let mut moved = 0.0;
            for c in 0..3 {
                if p.counts[c] == 0 {
                    continue;
                }
                let count = p.counts[c] as f64;
                let nc: Vec<f64> = p.sums[c * 2..(c + 1) * 2]
                    .iter()
                    .map(|s| s / count)
                    .collect();
                moved += vdr_ml::linalg::squared_distance(&nc, &centers[c * 2..(c + 1) * 2]);
                centers[c * 2..(c + 1) * 2].copy_from_slice(&nc);
            }
            if moved <= 1e-9 {
                break;
            }
        }
        for (a, b) in spark.centers.iter().zip(centers.chunks_exact(2)) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-9, "{:?} vs {centers:?}", spark.centers);
            }
        }
        // The serial baseline also runs to a finite optimum on this data
        // (random init may merge blobs — a Lloyd local optimum — so only
        // sanity-check the result, not its quality).
        let reference = serial_kmeans(&data, 2, 3, 50, 5).unwrap();
        assert!(reference.total_withinss.is_finite());
        assert_eq!(reference.centers.len(), 3);
    }

    #[test]
    fn validations() {
        let cluster = SimCluster::for_tests(2);
        let data = blob_data(1);
        let m = load(&cluster, &data);
        assert!(spark_kmeans(&m, 0, 10, 1).is_err());
        assert!(spark_kmeans(&m, 100_000, 10, 1).is_err());
        assert!(spark_kmeans_with_centers(&m, vec![], 10).is_err());
    }
}
