//! Model lifecycle integration: every model family survives
//! deploy → DFS replication → reload → in-database prediction, predictions
//! agree with in-runtime scoring, and fault tolerance / permissions hold.

use std::sync::Arc;
use vertica_dr::cluster::{NodeId, SimCluster};
use vertica_dr::columnar::Value;
use vertica_dr::core::{Model, Session, SessionOptions};
use vertica_dr::ml::{hpdglm, hpdkmeans, hpdrf, Family, GlmOptions, KmeansOptions, RfOptions};
use vertica_dr::verticadb::{Segmentation, VerticaDb};
use vertica_dr::workloads::{clusters_table, logistic_data};

fn setup() -> (Arc<VerticaDb>, Session) {
    let db = VerticaDb::new(SimCluster::for_tests(4));
    let centers = vec![vec![0.0, 0.0], vec![8.0, 8.0]];
    clusters_table(
        &db,
        "pts",
        1_500,
        &centers,
        0.4,
        Segmentation::RoundRobin,
        3,
    )
    .unwrap();

    // A labelled table for classifiers.
    let schema = vertica_dr::columnar::Schema::of(&[
        ("label", vertica_dr::columnar::DataType::Float64),
        ("u", vertica_dr::columnar::DataType::Float64),
        ("v", vertica_dr::columnar::DataType::Float64),
    ]);
    db.create_table(vertica_dr::verticadb::TableDef {
        name: "labelled".into(),
        schema: schema.clone(),
        segmentation: Segmentation::RoundRobin,
    })
    .unwrap();
    let (x, y) = logistic_data(6_000, 0.0, &[3.0, -2.0], 17);
    db.copy(
        "labelled",
        vec![vertica_dr::columnar::Batch::new(
            schema,
            vec![
                vertica_dr::columnar::Column::from_f64(y),
                vertica_dr::columnar::Column::from_f64(x.chunks(2).map(|r| r[0]).collect()),
                vertica_dr::columnar::Column::from_f64(x.chunks(2).map(|r| r[1]).collect()),
            ],
        )
        .unwrap()],
    )
    .unwrap();

    let session = Session::connect_colocated(
        Arc::clone(&db),
        SessionOptions {
            r_instances_per_node: 4,
            ..Default::default()
        },
    )
    .unwrap();
    (db, session)
}

#[test]
fn kmeans_in_db_prediction_matches_in_runtime_assignment() {
    let (_db, session) = setup();
    let (feat, _) = session.db2darray("pts", &["f1", "f2"]).unwrap();
    let model = hpdkmeans(
        &feat,
        &KmeansOptions {
            k: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let km = model.clone();
    session
        .deploy_model(&Model::Kmeans(model), "km", "integration")
        .unwrap();

    // Score in-database, ordered deterministically by loading alongside ids.
    let out = session
        .sql(
            "SELECT KmeansPredict(f1, f2 USING PARAMETERS model='km') \
             OVER (PARTITION BEST) FROM pts",
        )
        .unwrap()
        .batch;
    assert_eq!(out.num_rows(), 3_000);
    // The two clusters have 1500 members each.
    let ones: usize = (0..out.num_rows())
        .filter(|&r| out.row(r)[0] == Value::Int64(1))
        .count();
    assert_eq!(ones, 1_500);

    // In-runtime assignment of the same features agrees with the counts.
    let in_r: usize = feat
        .map_partitions(|_, p| {
            let row = |r: usize| p.columns().map(|c| c[r]).collect::<Vec<_>>();
            (0..p.nrow()).filter(|&r| km.assign(&row(r)) == 1).count()
        })
        .unwrap()
        .into_iter()
        .sum();
    assert_eq!(in_r, ones);
}

#[test]
fn glm_and_rf_full_lifecycle() {
    let (_db, session) = setup();
    let (data, _) = session.db2darray("labelled", &["label", "u", "v"]).unwrap();
    let y = data.split_columns(&[0]).unwrap();
    let x = data.split_columns(&[1, 2]).unwrap();

    let glm = hpdglm(&x, &y, Family::Binomial, &GlmOptions::default()).unwrap();
    let rf = hpdrf(
        &x,
        &y,
        &RfOptions {
            num_trees: 12,
            max_depth: 6,
            ..Default::default()
        },
    )
    .unwrap();
    session
        .deploy_model(&Model::Glm(glm.clone()), "g", "glm")
        .unwrap();
    session
        .deploy_model(&Model::RandomForest(rf.clone()), "f", "forest")
        .unwrap();

    // Reload both and compare byte-for-byte.
    assert_eq!(session.load_model("g").unwrap(), Model::Glm(glm.clone()));
    assert_eq!(
        session.load_model("f").unwrap(),
        Model::RandomForest(rf.clone())
    );

    // Both scorers run in-database; predictions broadly agree with labels.
    let g_out = session
        .sql(
            "SELECT glmPredict(u, v USING PARAMETERS model='g') \
             OVER (PARTITION BEST) FROM labelled",
        )
        .unwrap()
        .batch;
    let f_out = session
        .sql(
            "SELECT rfPredict(u, v USING PARAMETERS model='f') \
             OVER (PARTITION BEST) FROM labelled",
        )
        .unwrap()
        .batch;
    assert_eq!(g_out.num_rows(), 6_000);
    assert_eq!(f_out.num_rows(), 6_000);
    // GLM probabilities and forest votes should mostly agree with each other.
    let mut agree = 0;
    for r in 0..6_000 {
        let p = g_out.row(r)[0].as_f64().unwrap();
        let c = f_out.row(r)[0].as_i64().unwrap();
        if (p > 0.5) == (c == 1) {
            agree += 1;
        }
    }
    assert!(agree > 5_000, "glm and forest agree on {agree}/6000");
}

#[test]
fn models_survive_node_failure() {
    // "Models stored in the DFS provide the same fault-tolerance guarantees
    // as Vertica tables" (Section 5).
    let (db, session) = setup();
    let model = Model::Kmeans(vertica_dr::ml::models::KmeansModel {
        centers: vec![vec![0.0, 0.0], vec![8.0, 8.0]],
        iterations: 1,
        total_withinss: 0.0,
    });
    session
        .deploy_model(&model, "ha_model", "replicated")
        .unwrap();
    let replicas = db.dfs().replicas_of("models/ha_model");
    assert!(replicas.len() >= 2, "replication factor must be > 1");

    // Take down one replica: prediction still works everywhere.
    db.dfs().set_node_down(replicas[0]);
    let out = session
        .sql(
            "SELECT KmeansPredict(f1, f2 USING PARAMETERS model='ha_model') \
             OVER (PARTITION BEST) FROM pts",
        )
        .unwrap();
    assert_eq!(out.batch.num_rows(), 3_000);

    // Take down all replicas: prediction now fails with a DFS error.
    for r in &replicas {
        db.dfs().set_node_down(*r);
    }
    let err = session
        .sql(
            "SELECT KmeansPredict(f1, f2 USING PARAMETERS model='ha_model') \
             OVER (PARTITION BEST) FROM pts",
        )
        .unwrap_err();
    assert!(err.to_string().contains("ha_model"), "{err}");

    // Recovery.
    db.dfs().set_node_up(replicas[0]);
    assert!(session
        .sql(
            "SELECT KmeansPredict(f1, f2 USING PARAMETERS model='ha_model') \
             OVER (PARTITION BEST) FROM pts",
        )
        .is_ok());
}

#[test]
fn model_catalog_lists_and_drops() {
    let (db, session) = setup();
    for name in ["m1", "m2", "m3"] {
        session
            .deploy_model(
                &Model::Kmeans(vertica_dr::ml::models::KmeansModel {
                    centers: vec![vec![0.0]],
                    iterations: 1,
                    total_withinss: 0.0,
                }),
                name,
                "bulk",
            )
            .unwrap();
    }
    let rows = session
        .sql("SELECT model FROM R_Models ORDER BY model")
        .unwrap()
        .batch;
    assert_eq!(rows.num_rows(), 3);
    assert_eq!(rows.row(0)[0], Value::Varchar("m1".into()));

    db.models().drop_model("m2", "dbadmin").unwrap();
    let rows = session.sql("SELECT count(*) FROM R_Models").unwrap().batch;
    assert_eq!(rows.row(0)[0], Value::Int64(2));
    assert!(!db.dfs().exists("models/m2"));
}

#[test]
fn model_blob_corruption_is_caught_at_load() {
    let (db, session) = setup();
    session
        .deploy_model(
            &Model::Kmeans(vertica_dr::ml::models::KmeansModel {
                centers: vec![vec![1.0, 2.0]],
                iterations: 1,
                total_withinss: 0.0,
            }),
            "fragile",
            "to be corrupted",
        )
        .unwrap();
    // Corrupt every replica on disk.
    for node in db.cluster().node_ids() {
        let disk = db.cluster().node(node).disk();
        if let Ok(blob) = disk.read("dfs/models/fragile") {
            let mut bad = blob.to_vec();
            let mid = bad.len() / 2;
            bad[mid] ^= 0x55;
            disk.write("dfs/models/fragile", bytes::Bytes::from(bad));
        }
    }
    let _ = NodeId(0);
    let err = session.load_model("fragile").unwrap_err();
    assert!(err.to_string().contains("checksum"), "{err}");
}
