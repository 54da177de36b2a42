//! Figures 17–20 at laptop scale: the K-means assignment kernel counts every
//! row whether it runs serially or over the distributed runtime, QR and
//! Newton–Raphson regression both converge, and the Distributed R and Spark
//! K-means stacks run Lloyd to finite centers from the same start.

use std::sync::Arc;
use vertica_dr::cluster::{Ledger, SimCluster};
use vertica_dr::distr::{DArray, DistributedR};
use vertica_dr::ml::kmeans::{assign_partial, merge_partials};
use vertica_dr::ml::reduce::tree_merge;
use vertica_dr::ml::serial::serial_lm;
use vertica_dr::ml::{hpdglm, Family, GlmOptions};
use vertica_dr::sparksim::mllib::spark_kmeans_with_centers;
use vertica_dr::sparksim::{HdfsSim, SparkContext};
use vertica_dr::workloads::{gaussian_mixture, linear_data};

/// `rows × d` values split evenly into `parts` partitions of a new darray.
fn fill(dr: &DistributedR, values: &[f64], d: usize, parts: usize) -> DArray {
    let x = dr.darray(parts).unwrap();
    let per = values.len() / d / parts;
    for p in 0..parts {
        let chunk = values[p * per * d..(p + 1) * per * d].to_vec();
        x.fill_partition(p, per, d, chunk).unwrap();
    }
    x
}

/// `y` laid out like `x`, each partition on the worker holding `x`'s.
fn response(x: &DArray, y: &[f64]) -> DArray {
    let ya = x.clone_structure(1, 0.0).unwrap();
    let per = y.len() / x.npartitions();
    for p in 0..x.npartitions() {
        let chunk = y[p * per..(p + 1) * per].to_vec();
        ya.fill_partition_on(x.worker_of(p).unwrap(), p, per, 1, chunk)
            .unwrap();
    }
    ya
}

#[test]
fn kmeans_kernel_counts_every_row_serially_and_distributed() {
    let centers: Vec<Vec<f64>> = (0..20)
        .map(|i| (0..10).map(|j| ((i * 3 + j) % 17) as f64).collect())
        .collect();
    let (pts, _) = gaussian_mixture(2_500, &centers, 0.3, 1);
    let centers: Vec<f64> = centers.into_iter().flatten().collect();
    let serial = assign_partial(&pts, 10, &centers);
    assert_eq!(serial.counts.iter().sum::<u64>(), 50_000);

    let dr = DistributedR::on_all_nodes(SimCluster::for_tests(1), 4).unwrap();
    let x = fill(&dr, &pts, 10, 4);
    let partials = x
        .map_partitions(|_, p| assign_partial(&p.data, 10, &centers))
        .unwrap();
    let merged = tree_merge(partials, |a, b| merge_partials(a, &b)).unwrap();
    assert_eq!(merged.counts, serial.counts);
}

#[test]
fn qr_and_newton_raphson_converge() {
    let (x, y) = linear_data(40_000, 1.0, &[2.0, -1.0, 0.5, 0.25, -0.125, 3.0], 0.01, 9);
    assert!(serial_lm(&x, 6, &y).unwrap().converged);
    let dr = DistributedR::on_all_nodes(SimCluster::for_tests(1), 4).unwrap();
    let xa = fill(&dr, &x, 6, 4);
    let ya = response(&xa, &y);
    let m = hpdglm(&xa, &ya, Family::Gaussian, &GlmOptions::default()).unwrap();
    assert!(m.converged);

    // Weak scaling: 20 features, rows proportional to nodes.
    let coefs: Vec<f64> = (0..20).map(|i| (i as f64 - 10.0) / 5.0).collect();
    for (nodes, rows) in [(1, 8_000), (2, 16_000)] {
        let (x, y) = linear_data(rows, 1.0, &coefs, 0.0, 8);
        let dr = DistributedR::on_all_nodes(SimCluster::for_tests(nodes), 2).unwrap();
        let xa = fill(&dr, &x, 20, nodes);
        let ya = response(&xa, &y);
        let m = hpdglm(&xa, &ya, Family::Gaussian, &GlmOptions::default()).unwrap();
        assert!(m.converged, "{nodes} nodes");
    }
}

#[test]
fn both_kmeans_stacks_reach_finite_centers_from_one_start() {
    let cluster = SimCluster::for_tests(3);
    let true_centers: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64 * 12.0; 4]).collect();
    let (pts, _) = gaussian_mixture(4_000, &true_centers, 0.4, 2);
    let init: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64 * 12.0 + 1.0; 4]).collect();

    let dr = DistributedR::on_all_nodes(cluster.clone(), 2).unwrap();
    let x = fill(&dr, &pts, 4, 3);
    let mut cs: Vec<f64> = init.iter().flatten().copied().collect();
    for _ in 0..5 {
        let partials = x
            .map_partitions(|_, p| assign_partial(&p.data, 4, &cs))
            .unwrap();
        let merged = tree_merge(partials, |a, b| merge_partials(a, &b)).unwrap();
        merged.update_centers(&mut cs, |_| Ok(())).unwrap();
    }
    assert!(cs.iter().all(|c| c.is_finite()), "{cs:?}");

    let hdfs = Arc::new(HdfsSim::new(cluster.clone(), 3));
    hdfs.put_matrix("pts", &pts, 4, 1024);
    let sc = SparkContext::new(cluster, hdfs, 2);
    let (matrix, _) = sc.load_matrix("pts", &Ledger::new()).unwrap();
    assert_eq!(matrix.num_rows(), 24_000);
    let spark = spark_kmeans_with_centers(&matrix, init, 5).unwrap();
    assert!(spark.total_withinss.is_finite());
}
