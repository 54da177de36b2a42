//! Transfer-layer integration: exactly-once delivery under every policy and
//! loader, skew behaviour, and the equivalence of ODBC- and VFT-loaded data.

use std::sync::Arc;
use vertica_dr::cluster::{Ledger, SimCluster};
use vertica_dr::distr::DistributedR;
use vertica_dr::transfer::{install_export_function, LocalLoader, OdbcLoader, TransferPolicy};
use vertica_dr::verticadb::{Segmentation, VerticaDb};
use vertica_dr::workloads::transfer_table;

fn setup(nodes: usize, rows: usize, seg: Segmentation) -> (Arc<VerticaDb>, DistributedR) {
    let cluster = SimCluster::for_tests(nodes);
    let db = VerticaDb::new(cluster.clone());
    transfer_table(&db, "t", rows, seg, 3).unwrap();
    let dr = DistributedR::on_all_nodes(cluster, 3).unwrap();
    (db, dr)
}

/// Sum of ids 0..n — the checksum every loader must reproduce.
fn id_checksum(rows: usize) -> f64 {
    (rows as f64 - 1.0) * rows as f64 / 2.0
}

#[test]
fn every_loader_delivers_identical_content() {
    let rows = 9_000;
    let (db, dr) = setup(
        3,
        rows,
        Segmentation::Hash {
            column: "id".into(),
        },
    );
    let vft = install_export_function(&db);
    let ledger = Ledger::new();

    let checksum = |arr: &vertica_dr::distr::DArray| -> (u64, f64, f64) {
        let stats = arr
            .map_partitions(|_, p| {
                let mut id_sum = 0.0;
                let mut a_sum = 0.0;
                for r in 0..p.nrow() {
                    id_sum += p.column(0)[r];
                    a_sum += p.column(1)[r];
                }
                (p.nrow() as u64, id_sum, a_sum)
            })
            .unwrap();
        stats.iter().fold((0, 0.0, 0.0), |acc, s| {
            (acc.0 + s.0, acc.1 + s.1, acc.2 + s.2)
        })
    };

    let (v_loc, r_loc) = vft
        .db2darray(
            &db,
            &dr,
            "t",
            &["id", "a"],
            TransferPolicy::Locality,
            &ledger,
        )
        .unwrap();
    let (v_uni, r_uni) = vft
        .db2darray(
            &db,
            &dr,
            "t",
            &["id", "a"],
            TransferPolicy::Uniform,
            &ledger,
        )
        .unwrap();
    let (o_single, r_single) =
        OdbcLoader::load_single(&db, &dr, "t", &["id", "a"], &ledger).unwrap();
    let (o_par, r_par) =
        OdbcLoader::load_parallel(&db, &dr, "t", &["id", "a"], "id", &ledger).unwrap();
    for report in [r_loc, r_uni, r_single, r_par] {
        assert_eq!(report.rows, rows as u64, "reported rows");
    }

    let expected_ids = id_checksum(rows);
    let reference = checksum(&o_single);
    assert_eq!(reference.0, rows as u64);
    assert_eq!(reference.1, expected_ids);
    for arr in [&v_loc, &v_uni, &o_par] {
        let c = checksum(arr);
        assert_eq!(c.0, reference.0, "row count");
        assert_eq!(c.1, reference.1, "id checksum");
        assert!((c.2 - reference.2).abs() < 1e-6, "payload checksum");
    }
}

#[test]
fn vft_delivers_every_row_at_any_instance_count_and_block_size() {
    let cluster = SimCluster::for_tests(3);
    let db = VerticaDb::new(cluster.clone());
    transfer_table(&db, "t", 9_000, Segmentation::RoundRobin, 5).unwrap();
    let vft = install_export_function(&db);
    let ledger = Ledger::new();
    let cols = ["id", "a", "b", "c", "d", "e"];
    for instances in [2, 8] {
        let dr =
            DistributedR::start(cluster.clone(), cluster.node_ids(), instances, u64::MAX).unwrap();
        let (arr, report) = vft
            .db2darray(&db, &dr, "t", &cols, TransferPolicy::Locality, &ledger)
            .unwrap();
        assert_eq!(report.rows, 9_000, "{instances} instances");
        assert_eq!(arr.dim(), (9_000, 6), "{instances} instances");
    }
    // Small blocks over a skewed table still deliver every row once.
    let (db, dr) = setup(
        3,
        9_000,
        Segmentation::Skewed {
            weights: vec![6.0, 1.0, 1.0],
        },
    );
    let vft = install_export_function(&db);
    let uniform = TransferPolicy::Uniform;
    for psize in [9_000, 500] {
        let (arr, report) = vft
            .db2darray_opts(&db, &dr, "t", &["id", "a"], uniform, &ledger, Some(psize))
            .unwrap();
        assert_eq!(report.rows, 9_000, "psize {psize}");
        let sums = arr
            .map_partitions(|_, p| p.column(0).iter().sum::<f64>())
            .unwrap();
        assert_eq!(
            sums.iter().sum::<f64>(),
            id_checksum(9_000),
            "psize {psize}"
        );
    }
}

#[test]
fn locality_inherits_skew_uniform_erases_it() {
    let (db, dr) = setup(
        3,
        12_000,
        Segmentation::Skewed {
            weights: vec![8.0, 1.0, 1.0],
        },
    );
    let vft = install_export_function(&db);
    let ledger = Ledger::new();
    let seg_rows = db.storage().segment_rows("t");
    assert!(
        seg_rows[0] > 4 * seg_rows[1],
        "table must actually be skewed"
    );

    let (loc, _) = vft
        .db2darray(&db, &dr, "t", &["a"], TransferPolicy::Locality, &ledger)
        .unwrap();
    let loc_sizes: Vec<u64> = loc.partition_sizes().iter().map(|s| s.0).collect();
    assert_eq!(loc_sizes, seg_rows, "locality must mirror segments exactly");

    let (uni, _) = vft
        .db2darray(&db, &dr, "t", &["a"], TransferPolicy::Uniform, &ledger)
        .unwrap();
    let uni_sizes: Vec<u64> = uni.partition_sizes().iter().map(|s| s.0).collect();
    let max = *uni_sizes.iter().max().unwrap() as f64;
    let min = *uni_sizes.iter().min().unwrap() as f64;
    assert!(
        max / min.max(1.0) < 1.8,
        "uniform should balance: {uni_sizes:?}"
    );
}

#[test]
fn straggler_effect_of_skew_on_compute() {
    // The reason the uniform policy exists: iterate a per-partition job and
    // measure the straggler imbalance (paper Section 3.2).
    let (db, dr) = setup(
        3,
        9_000,
        Segmentation::Skewed {
            weights: vec![8.0, 1.0, 1.0],
        },
    );
    let vft = install_export_function(&db);
    let ledger = Ledger::new();
    let work = |arr: &vertica_dr::distr::DArray| -> Vec<u64> {
        arr.map_partitions(|_, p| p.nrow() as u64).unwrap()
    };
    let (loc, _) = vft
        .db2darray(&db, &dr, "t", &["a"], TransferPolicy::Locality, &ledger)
        .unwrap();
    let (uni, _) = vft
        .db2darray(&db, &dr, "t", &["a"], TransferPolicy::Uniform, &ledger)
        .unwrap();
    // Straggler ratio = slowest partition / average (work ∝ rows).
    let ratio = |rows: Vec<u64>| {
        let max = *rows.iter().max().unwrap() as f64;
        let avg = rows.iter().sum::<u64>() as f64 / rows.len() as f64;
        max / avg
    };
    let loc_ratio = ratio(work(&loc));
    let uni_ratio = ratio(work(&uni));
    assert!(
        loc_ratio > 1.8,
        "skewed locality transfer ⇒ straggler ({loc_ratio:.2})"
    );
    assert!(
        uni_ratio < 1.3,
        "uniform policy ⇒ balanced ({uni_ratio:.2})"
    );
}

#[test]
fn remote_and_colocated_deployments_agree() {
    // Section 2: Distributed R "can be installed on either the same nodes as
    // the Vertica database or on remote nodes".
    let cluster = SimCluster::for_tests(6);
    let db = VerticaDb::new(cluster.clone());
    transfer_table(&db, "t", 4_000, Segmentation::RoundRobin, 9).unwrap();
    let vft = install_export_function(&db);
    let ledger = Ledger::new();

    let colocated = DistributedR::on_all_nodes(cluster.clone(), 2).unwrap();
    let remote = DistributedR::start(
        cluster.clone(),
        vec![
            vertica_dr::cluster::NodeId(3),
            vertica_dr::cluster::NodeId(4),
            vertica_dr::cluster::NodeId(5),
        ],
        2,
        u64::MAX,
    )
    .unwrap();

    for dr in [&colocated, &remote] {
        let (arr, report) = vft
            .db2darray(&db, dr, "t", &["id"], TransferPolicy::Uniform, &ledger)
            .unwrap();
        assert_eq!(report.rows, 4_000);
        let sums = arr
            .map_partitions(|_, p| p.columns().flatten().sum::<f64>())
            .unwrap();
        assert_eq!(sums.iter().sum::<f64>(), id_checksum(4_000));
    }
}

/// Two Distributed R workers on one node and a third on another (workers
/// may share a node): both policies deliver every id exactly once.
#[test]
fn workers_sharing_a_node_receive_every_row_once() {
    let cluster = SimCluster::for_tests(3);
    let db = VerticaDb::new(cluster.clone());
    transfer_table(&db, "t", 4_000, Segmentation::RoundRobin, 9).unwrap();
    let vft = install_export_function(&db);
    let ledger = Ledger::new();
    let node = vertica_dr::cluster::NodeId;
    let dr = DistributedR::start(cluster, vec![node(0), node(0), node(1)], 2, u64::MAX).unwrap();
    for policy in [TransferPolicy::Uniform, TransferPolicy::Locality] {
        let (arr, report) = vft
            .db2darray(&db, &dr, "t", &["id"], policy, &ledger)
            .unwrap();
        assert_eq!(report.rows, 4_000, "{policy:?}");
        let parts = arr.map_partitions(|_, p| p.column(0).to_vec()).unwrap();
        let mut ids: Vec<f64> = parts.into_iter().flatten().collect();
        assert_eq!(ids.iter().sum::<f64>(), id_checksum(4_000), "{policy:?}");
        ids.sort_by(f64::total_cmp);
        let once: Vec<f64> = (0..4_000).map(f64::from).collect();
        assert_eq!(ids, once, "{policy:?}: every id exactly once");
    }
}

#[test]
fn local_file_loader_matches_database_content() {
    let (db, dr) = setup(2, 2_000, Segmentation::RoundRobin);
    let vft = install_export_function(&db);
    let ledger = Ledger::new();
    // Export via VFT, restage the partitions as local files, reload.
    let (arr, _) = vft
        .db2darray(
            &db,
            &dr,
            "t",
            &["id", "a"],
            TransferPolicy::Locality,
            &ledger,
        )
        .unwrap();
    let schema = vertica_dr::columnar::Schema::of(&[
        ("id", vertica_dr::columnar::DataType::Float64),
        ("a", vertica_dr::columnar::DataType::Float64),
    ]);
    let batches: Vec<vertica_dr::columnar::Batch> = (0..dr.num_workers())
        .map(|w| {
            let p = arr.partition(w).unwrap();
            let ids: Vec<f64> = p.column(0).to_vec();
            let a: Vec<f64> = p.column(1).to_vec();
            vertica_dr::columnar::Batch::new(
                schema.clone(),
                vec![
                    vertica_dr::columnar::Column::from_f64(ids),
                    vertica_dr::columnar::Column::from_f64(a),
                ],
            )
            .unwrap()
        })
        .collect();
    LocalLoader::stage(&dr, "t_local", &batches).unwrap();
    let (local, report) = LocalLoader::load(&dr, "t_local", &schema, &ledger).unwrap();
    assert_eq!(report.rows, 2_000);
    let sums = local
        .map_partitions(|_, p| p.column(0).iter().sum::<f64>())
        .unwrap();
    assert_eq!(sums.iter().sum::<f64>(), id_checksum(2_000));
}

#[test]
fn vft_issues_one_query_odbc_issues_hundreds() {
    // The paper's core architectural claim, as an observable invariant.
    let (db, dr) = setup(3, 3_000, Segmentation::RoundRobin);
    let vft = install_export_function(&db);
    let ledger = Ledger::new();

    let before = db.admission().admitted();
    vft.db2darray(&db, &dr, "t", &["a"], TransferPolicy::Locality, &ledger)
        .unwrap();
    let vft_queries = db.admission().admitted() - before;
    assert_eq!(vft_queries, 1);

    let before = db.admission().admitted();
    OdbcLoader::load_parallel(&db, &dr, "t", &["a"], "id", &ledger).unwrap();
    let odbc_queries = db.admission().admitted() - before;
    assert_eq!(odbc_queries, dr.total_instances() as u64);
    assert!(odbc_queries >= 9);
}
