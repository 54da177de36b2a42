//! Figures 1, 12, 13, 14, 21 — the data-transfer evaluation.

use crate::report::FigureReport;
use std::sync::Arc;
use std::time::Instant;
use vdr_cluster::{HardwareProfile, Ledger, SimCluster, SimDuration};
use vdr_distr::DistributedR;
use vdr_sparksim::model_spark_load;
use vdr_transfer::model::{model_dr_disk, model_parallel_odbc, model_single_odbc, model_vft};
use vdr_transfer::{install_export_function, ClusterShape, OdbcLoader, TableShape, TransferPolicy};
use vdr_verticadb::{Segmentation, VerticaDb};
use vdr_workloads::transfer_table;

fn profile() -> HardwareProfile {
    HardwareProfile::paper_testbed()
}

fn five_nodes() -> ClusterShape {
    ClusterShape {
        db_nodes: 5,
        r_nodes: 5,
        r_instances_per_node: 24,
        colocated: false,
    }
}

fn twelve_nodes() -> ClusterShape {
    ClusterShape {
        db_nodes: 12,
        r_nodes: 12,
        r_instances_per_node: 24,
        colocated: false,
    }
}

fn mins(d: SimDuration) -> String {
    format!("{:.1} min", d.as_minutes())
}

/// A real small-scale run of the three loaders for validation lines.
pub struct SmallScaleTransfer {
    pub rows: u64,
    pub vft_sim: SimDuration,
    pub vft_wall_ms: f64,
    pub odbc_parallel_sim: SimDuration,
    pub odbc_parallel_wall_ms: f64,
    pub odbc_single_sim: SimDuration,
    pub odbc_single_wall_ms: f64,
}

/// Run all three loaders on a `nodes`-node cluster with `rows` rows,
/// verifying each delivers every row exactly once.
pub fn run_small_scale(nodes: usize, rows: usize) -> SmallScaleTransfer {
    let cluster = SimCluster::for_tests(nodes);
    let db = VerticaDb::new(cluster.clone());
    transfer_table(
        &db,
        "t",
        rows,
        Segmentation::Hash {
            column: "id".into(),
        },
        5,
    )
    .unwrap();
    let dr = DistributedR::on_all_nodes(cluster, 4).unwrap();
    let vft = install_export_function(&db);
    let cols = ["id", "a", "b", "c", "d", "e"];
    let expect = (rows as f64 - 1.0) * rows as f64 / 2.0;
    let check = |arr: &vdr_distr::DArray| {
        let sums = arr
            .map_partitions(|_, p| p.column(0).iter().sum::<f64>())
            .unwrap();
        assert_eq!(
            sums.iter().sum::<f64>(),
            expect,
            "loader lost or duplicated rows"
        );
    };

    let ledger = Ledger::new();
    let t = Instant::now();
    let (arr, vft_report) = vft
        .db2darray(&db, &dr, "t", &cols, TransferPolicy::Locality, &ledger)
        .unwrap();
    let vft_wall_ms = t.elapsed().as_secs_f64() * 1e3;
    check(&arr);
    drop(arr);

    let t = Instant::now();
    let (arr, par_report) = OdbcLoader::load_parallel(&db, &dr, "t", &cols, "id", &ledger).unwrap();
    let par_wall_ms = t.elapsed().as_secs_f64() * 1e3;
    check(&arr);
    drop(arr);

    let t = Instant::now();
    let (arr, single_report) = OdbcLoader::load_single(&db, &dr, "t", &cols, &ledger).unwrap();
    let single_wall_ms = t.elapsed().as_secs_f64() * 1e3;
    check(&arr);

    SmallScaleTransfer {
        rows: rows as u64,
        vft_sim: vft_report.total(),
        vft_wall_ms,
        odbc_parallel_sim: par_report.total(),
        odbc_parallel_wall_ms: par_wall_ms,
        odbc_single_sim: single_report.total(),
        odbc_single_wall_ms: single_wall_ms,
    }
}

fn small_scale_notes(report: &mut FigureReport, s: &SmallScaleTransfer) {
    report.note(format!(
        "small-scale validation ({} rows, real execution, exactly-once checked): \
         VFT {} sim / {:.0} ms wall; parallel ODBC {} sim / {:.0} ms wall; \
         single ODBC {} sim / {:.0} ms wall",
        s.rows,
        s.vft_sim,
        s.vft_wall_ms,
        s.odbc_parallel_sim,
        s.odbc_parallel_wall_ms,
        s.odbc_single_sim,
        s.odbc_single_wall_ms
    ));
}

/// Figure 1: extracting data from a database is slow (single R vs 120-way
/// parallel ODBC, 5 nodes, 50–150 GB).
pub fn figure1() -> FigureReport {
    let p = profile();
    let mut r = FigureReport::new("fig1", "Extracting data over ODBC (5 nodes; paper: ~1 h for 50 GB single-R, ~40 min for 150 GB with 120 connections)");
    r.header(&[
        "table",
        "paper single-R",
        "model single-R",
        "paper 120-conn",
        "model 120-conn",
    ]);
    let paper_single = ["~55 min", "~110 min", "~165 min"];
    let paper_par = ["~13 min", "~27 min", "~40 min"];
    for (i, gb) in [50u64, 100, 150].iter().enumerate() {
        let t = TableShape::transfer_table_gb(*gb);
        let single = model_single_odbc(&p, t, five_nodes());
        let par = model_parallel_odbc(&p, t, five_nodes());
        r.row(vec![
            format!("{gb} GB"),
            paper_single[i].into(),
            mins(single.total()),
            paper_par[i].into(),
            mins(par.total()),
        ]);
    }
    r.note(
        "paper values for 100/150 GB single-R and 50/100 GB parallel are read off the chart (~)",
    );
    small_scale_notes(&mut r, &run_small_scale(3, 12_000));
    r
}

/// Figure 12: ODBC vs VFT on a 5-node cluster.
pub fn figure12() -> FigureReport {
    let p = profile();
    let mut r = FigureReport::new(
        "fig12",
        "ODBC vs Vertica Fast Transfer, 5-node cluster (paper: 150 GB in <6 min vs ~40 min, ≈6×)",
    );
    r.header(&[
        "table",
        "paper ODBC",
        "model ODBC",
        "paper VFT",
        "model VFT",
        "model speedup",
    ]);
    let paper_odbc = ["~13 min", "~27 min", "~40 min"];
    let paper_vft = ["~2 min", "~4 min", "<6 min"];
    for (i, gb) in [50u64, 100, 150].iter().enumerate() {
        let t = TableShape::transfer_table_gb(*gb);
        let odbc = model_parallel_odbc(&p, t, five_nodes()).total();
        let vft = model_vft(&p, t, five_nodes()).total();
        r.row(vec![
            format!("{gb} GB"),
            paper_odbc[i].into(),
            mins(odbc),
            paper_vft[i].into(),
            mins(vft),
            format!("{:.1}×", odbc / vft),
        ]);
    }
    small_scale_notes(&mut r, &run_small_scale(3, 12_000));
    r
}

/// Figure 13: ODBC vs VFT on a 12-node cluster up to 400 GB.
pub fn figure13() -> FigureReport {
    let p = profile();
    let mut r = FigureReport::new(
        "fig13",
        "ODBC vs Vertica Fast Transfer, 12-node cluster (paper: 400 GB in <10 min vs ~1 h)",
    );
    r.header(&[
        "table",
        "paper ODBC",
        "model ODBC",
        "paper VFT",
        "model VFT",
        "model speedup",
    ]);
    let paper_odbc = ["~18 min", "~30 min", "~45 min", "~55 min"];
    let paper_vft = ["~3 min", "~5 min", "~8 min", "<10 min"];
    for (i, gb) in [100u64, 200, 300, 400].iter().enumerate() {
        let t = TableShape::transfer_table_gb(*gb);
        let odbc = model_parallel_odbc(&p, t, twelve_nodes()).total();
        let vft = model_vft(&p, t, twelve_nodes()).total();
        r.row(vec![
            format!("{gb} GB"),
            paper_odbc[i].into(),
            mins(odbc),
            paper_vft[i].into(),
            mins(vft),
            format!("{:.1}×", odbc / vft),
        ]);
    }
    small_scale_notes(&mut r, &run_small_scale(4, 16_000));
    r
}

/// Figure 14: VFT time breakdown as R instances per server vary (400 GB,
/// 12 nodes).
pub fn figure14() -> FigureReport {
    let p = profile();
    let t = TableShape::transfer_table_gb(400);
    let mut r = FigureReport::new(
        "fig14",
        "VFT time breakdown, 400 GB on 12 nodes (paper: DB part constant; R part shrinks with instances, ≈half the total at 2/server)",
    );
    r.header(&[
        "R instances/server",
        "model DB part",
        "model R part",
        "model total",
        "R share",
    ]);
    for instances in [2usize, 4, 8, 12, 16, 24] {
        let shape = ClusterShape {
            r_instances_per_node: instances,
            ..twelve_nodes()
        };
        let rep = model_vft(&p, t, shape);
        r.row(vec![
            instances.to_string(),
            mins(rep.db_time),
            mins(rep.client_time),
            mins(rep.total()),
            format!(
                "{:.0}%",
                100.0 * rep.client_time.as_secs() / rep.total().as_secs()
            ),
        ]);
    }
    // Small-scale validation: the real split also shows a shrinking R part.
    let cluster = SimCluster::for_tests(3);
    let db = VerticaDb::new(cluster.clone());
    transfer_table(&db, "t", 12_000, Segmentation::RoundRobin, 5).unwrap();
    let vft = install_export_function(&db);
    let mut parts = Vec::new();
    for instances in [2usize, 8] {
        let dr =
            DistributedR::start(cluster.clone(), cluster.node_ids(), instances, u64::MAX).unwrap();
        let ledger = Ledger::new();
        let (_, rep) = vft
            .db2darray(
                &db,
                &dr,
                "t",
                &["id", "a", "b", "c", "d", "e"],
                TransferPolicy::Locality,
                &ledger,
            )
            .unwrap();
        parts.push((instances, rep.db_time, rep.client_time));
    }
    r.note(format!(
        "small-scale validation (12k rows, real runs): {} instances → db {} + R {}; \
         {} instances → db {} + R {} (R part shrinks, DB part steady)",
        parts[0].0, parts[0].1, parts[0].2, parts[1].0, parts[1].1, parts[1].2
    ));
    assert!(
        parts[1].2.as_secs() < parts[0].2.as_secs(),
        "R part must shrink with more instances"
    );
    r
}

/// Figure 21: end-to-end K-means — load + iterate across three stacks.
pub fn figure21() -> FigureReport {
    let p = profile();
    // 240M rows × 100 features ≈ 192 GB raw on 4 nodes.
    let t = TableShape {
        rows: 240_000_000,
        cols: 100,
        disk_bytes: 192_000_000_000,
    };
    let shape = ClusterShape {
        db_nodes: 4,
        r_nodes: 4,
        r_instances_per_node: 24,
        colocated: false,
    };
    let mut r = FigureReport::new(
        "fig21",
        "End-to-end K-means on 4 nodes, 240M×100 (paper: DR loads 15 min + 16 min/iter ≈ Spark 11 min + 21 min/iter; DR-disk loads in 5 min)",
    );
    r.header(&[
        "stack",
        "paper load",
        "model load",
        "paper per-iter",
        "model per-iter",
    ]);
    let vft_load = model_vft(&p, t, shape).total();
    let spark_load = model_spark_load(&p, t.rows, t.cols, t.raw_bytes(), 4, 24);
    let disk_load = model_dr_disk(&p, t, shape).total();
    let dr_iter = vdr_ml::costmodel::kmeans_iteration(
        &p,
        vdr_ml::costmodel::KmeansEngine::DistributedR,
        vdr_cluster::KernelRegime::Native,
        t.rows,
        1000,
        100,
        4,
        24,
    );
    let spark_iter = vdr_ml::costmodel::kmeans_iteration(
        &p,
        vdr_ml::costmodel::KmeansEngine::Spark,
        vdr_cluster::KernelRegime::Native,
        t.rows,
        1000,
        100,
        4,
        24,
    );
    r.row(vec![
        "Distributed R + Vertica (VFT)".into(),
        "15 min".into(),
        mins(vft_load),
        "16 min".into(),
        mins(dr_iter),
    ]);
    r.row(vec![
        "Spark + HDFS".into(),
        "11 min".into(),
        mins(spark_load),
        "21 min".into(),
        mins(spark_iter),
    ]);
    r.row(vec![
        "DR-disk (local ext4)".into(),
        "5 min".into(),
        mins(disk_load),
        "16 min".into(),
        mins(dr_iter),
    ]);
    r.note(format!(
        "end-to-end with 1 iteration: DR {} vs Spark {} — 'almost the same time', as the paper reports",
        mins(vft_load + dr_iter),
        mins(spark_load + spark_iter)
    ));

    // Small-scale real end-to-end: the same K-means on both stacks from the
    // same initial centers must produce identical centers.
    let cluster = SimCluster::for_tests(3);
    let db = VerticaDb::new(cluster.clone());
    let centers = vec![vec![0.0, 0.0], vec![15.0, 15.0]];
    vdr_workloads::clusters_table(
        &db,
        "pts",
        1_500,
        &centers,
        0.5,
        Segmentation::RoundRobin,
        9,
    )
    .unwrap();
    let dr = DistributedR::on_all_nodes(cluster.clone(), 2).unwrap();
    let vft = install_export_function(&db);
    let ledger = Ledger::new();
    let (arr, _) = vft
        .db2darray(
            &db,
            &dr,
            "pts",
            &["f1", "f2"],
            TransferPolicy::Uniform,
            &ledger,
        )
        .unwrap();
    let init = vec![vec![1.0, 1.0], vec![10.0, 10.0]];
    let dr_model = {
        // Lloyd from fixed centers through the distributed runtime.
        let mut cs: Vec<f64> = init.iter().flatten().copied().collect();
        for _ in 0..20 {
            let partials = arr
                .map_partitions(|_, part| {
                    vdr_ml::kmeans::assign_partial(&part.columns().collect::<Vec<_>>(), &cs)
                })
                .unwrap();
            let merged =
                vdr_ml::reduce::tree_merge(partials, |a, b| vdr_ml::kmeans::merge_partials(a, &b))
                    .unwrap();
            for c in 0..2 {
                if merged.counts[c] > 0 {
                    let count = merged.counts[c] as f64;
                    for (cj, s) in cs[c * 2..(c + 1) * 2]
                        .iter_mut()
                        .zip(&merged.sums[c * 2..(c + 1) * 2])
                    {
                        *cj = s / count;
                    }
                }
            }
        }
        cs.chunks_exact(2).map(<[f64]>::to_vec).collect::<Vec<_>>()
    };
    let hdfs = Arc::new(vdr_sparksim::HdfsSim::new(cluster.clone(), 3));
    let (_, _, flat) = arr.gather().unwrap();
    hdfs.put_matrix("pts", &flat, 2, 512);
    let sc = vdr_sparksim::SparkContext::new(cluster.clone(), hdfs, 2);
    let (matrix, _) = sc.load_matrix("pts", &ledger).unwrap();
    let spark_model = vdr_sparksim::mllib::spark_kmeans_with_centers(&matrix, init, 20).unwrap();
    for (a, b) in dr_model.iter().zip(&spark_model.centers) {
        for (x, y) in a.iter().zip(b) {
            assert!(
                (x - y).abs() < 1e-9,
                "stacks diverged: {dr_model:?} vs {:?}",
                spark_model.centers
            );
        }
    }
    r.note("small-scale validation: identical K-means centers from both stacks on the same data (apples-to-apples kernel confirmed)");
    r
}
