//! End-to-end integration test of the paper's Figure 3 workflow, plus the
//! Table 1 language constructs and the Figure 10 `R_Models` catalog.

use std::sync::Arc;
use vertica_dr::cluster::SimCluster;
use vertica_dr::columnar::{Batch, DataType, Schema, Value};
use vertica_dr::core::{Model, Session, SessionOptions};
use vertica_dr::ml::{cv_hpdglm, hpdglm, Family, GlmModel, GlmOptions};
use vertica_dr::verticadb::{Segmentation, VerticaDb};
use vertica_dr::workloads::regression_table;

fn setup() -> (Arc<VerticaDb>, Session) {
    let db = VerticaDb::new(SimCluster::for_tests(5));
    regression_table(
        &db,
        "mytable",
        10_000,
        4.0,
        &[2.5, -1.0],
        0.01,
        Segmentation::RoundRobin,
        77,
    )
    .unwrap();
    // A second table of newly arriving data for in-db prediction (Figure 3
    // line 10 predicts over `mytable2`).
    regression_table(
        &db,
        "mytable2",
        25_000,
        4.0,
        &[2.5, -1.0],
        0.01,
        Segmentation::RoundRobin,
        78,
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
fn figure3_full_workflow() {
    let (db, session) = setup();

    // Line 5: db2darray.
    let (data, report) = session.db2darray("mytable", &["y", "x1", "x2"]).unwrap();
    assert_eq!(report.rows, 10_000);
    assert!(report.total().as_secs() > 0.0);
    let y = data.split_columns(&[0]).unwrap();
    let x = data.split_columns(&[1, 2]).unwrap();

    // Line 6: hpdglm.
    let model = hpdglm(&x, &y, Family::Gaussian, &GlmOptions::default()).unwrap();
    assert!((model.coefficients[0] - 4.0).abs() < 0.01);
    assert!((model.coefficients[1] - 2.5).abs() < 0.01);
    assert!((model.coefficients[2] + 1.0).abs() < 0.01);

    // Line 7: cv.hpdglm.
    let cv = cv_hpdglm(
        session.dr(),
        &x,
        &y,
        Family::Gaussian,
        &GlmOptions::default(),
        4,
    )
    .unwrap();
    assert!(cv.mean_deviance() < 0.001);
    assert_eq!(cv.fold_rows.iter().sum::<u64>(), 10_000);

    // Line 9: deploy.model.
    let coefficients = model.coefficients.clone();
    session
        .deploy_model(&Model::Glm(model), "rModel", "forecasting")
        .unwrap();
    assert!(db.models().exists("rModel"));

    // Figure 10: the R_Models catalog row.
    let rows = session.sql("SELECT * FROM R_Models").unwrap().batch;
    assert_eq!(rows.num_rows(), 1);
    assert_eq!(rows.row(0)[0], Value::Varchar("rModel".into()));
    assert_eq!(rows.row(0)[2], Value::Varchar("regression".into()));

    // Lines 10–11: in-db prediction over the second table, PARTITION BEST.
    let out = session
        .sql(
            "SELECT glmPredict(x1, x2 USING PARAMETERS model='rModel') \
             OVER (PARTITION BEST) FROM mytable2",
        )
        .unwrap();
    assert_eq!(out.batch.num_rows(), 25_000);

    // In-database predictions must equal applying the model in "R".
    let (data2, _) = session.db2darray("mytable2", &["x1", "x2", "y"]).unwrap();
    let reloaded = match session.load_model("rModel").unwrap() {
        Model::Glm(m) => m,
        other => panic!("wrong model family: {other:?}"),
    };
    assert_eq!(reloaded.coefficients, coefficients);
    let (_, _, flat) = data2.gather().unwrap();
    // Spot-check the first 100 rows: prediction ≈ y (noise 0.01).
    let preds = out.batch.column(0);
    let mut close = 0;
    for r in 0..100 {
        let y_true = flat[r * 3 + 2];
        let p = preds.get(r).as_f64().unwrap();
        if (p - y_true).abs() < 0.05 {
            close += 1;
        }
    }
    assert!(close >= 95, "{close}/100 predictions near the truth");
}

#[test]
fn table1_constructs_behave_as_documented() {
    let (_, session) = setup();
    let dr = session.dr();

    // darray(npartitions=) / dframe(npartitions=) / dlist(npartitions=).
    let a = dr.darray(4).unwrap();
    assert_eq!(a.npartitions(), 4);
    assert!(!a.is_materialized());
    let f = dr.dframe(3).unwrap();
    assert_eq!(f.npartitions(), 3);
    let l = dr.dlist(2).unwrap();
    assert_eq!(l.npartitions(), 2);

    // partitionsize(A, i) and partitionsize(A) on a loaded array.
    let (data, _) = session.db2darray("mytable", &["x1"]).unwrap();
    let sizes = data.partition_sizes();
    assert_eq!(sizes.len(), dr.num_workers());
    let total: u64 = sizes.iter().map(|s| s.0).sum();
    assert_eq!(total, 10_000);
    for (i, s) in sizes.iter().enumerate() {
        assert_eq!(data.partitionsize(i).unwrap(), *s);
    }
    assert!(data.partitionsize(99).is_err());

    // clone(A, ncol=1): same structure, co-located.
    let cloned = data.clone_structure(1, 0.0).unwrap();
    data.check_copartitioned(&cloned).unwrap();
    assert_eq!(cloned.dim(), (10_000, 1));
}

#[test]
fn dframe_transfer_round_trips_mixed_types() {
    let (db, session) = setup();
    db.query("CREATE TABLE people (id INTEGER, name VARCHAR, score FLOAT)")
        .unwrap();
    db.query("INSERT INTO people VALUES (1, 'ada', 9.5), (2, 'grace', 9.9), (3, NULL, NULL)")
        .unwrap();
    let (frame, report) = session
        .db2dframe("people", &["id", "name", "score"])
        .unwrap();
    assert_eq!(report.rows, 3);
    let all = frame.gather().unwrap();
    assert_eq!(all.num_rows(), 3);
    // Find the NULL row.
    let nulls = (0..3).filter(|&r| all.row(r)[1] == Value::Null).count();
    assert_eq!(nulls, 1);
}

#[test]
fn sql_pre_processing_before_transfer() {
    // "pre-processing steps such as feature extraction can be accomplished
    // inside Vertica itself using SQL operators" — aggregate before loading.
    let (db, _session) = setup();
    let out = db
        .query("SELECT count(*), avg(y), min(x1), max(x1) FROM mytable WHERE x1 > 0")
        .unwrap()
        .batch;
    let n = out.row(0)[0].as_i64().unwrap();
    assert!(n > 3_000 && n < 7_000, "half-ish of the rows: {n}");
    assert!(out.row(0)[2].as_f64().unwrap() >= 0.0);
}

/// Figure 3's "score the joined feature table" without a CTAS: a prediction
/// UDx over a JOIN scores exactly the rows a CTAS of that JOIN holds, with
/// the same prediction bits — whichever way the JOIN moves its sides, under
/// `PARTITION BY` and under a WHERE.
#[test]
fn scoring_a_join_equals_scoring_its_ctas() {
    let db = VerticaDb::new(SimCluster::for_tests(4));
    let session = Session::connect_colocated(
        Arc::clone(&db),
        SessionOptions {
            r_instances_per_node: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let model = GlmModel {
        coefficients: vec![0.5, 2.0, -1.0],
        intercept: true,
        family: Family::Gaussian,
        deviance: 1.0,
        iterations: 3,
        converged: true,
    };
    session
        .deploy_model(&Model::Glm(model), "jm", "join scoring")
        .unwrap();
    // `(id, x1)` rows and `(rid, x2)` rows, each table loaded in two COPYs;
    // the right keys repeat, so a left row can match twice.
    let tables = [
        (
            "fa_seg",
            "id INTEGER, x1 FLOAT",
            " SEGMENTED BY HASH(id)",
            2000,
        ),
        ("fa_rr", "id INTEGER, x1 FLOAT", "", 2000),
        (
            "fb_seg",
            "rid INTEGER, x2 FLOAT",
            " SEGMENTED BY HASH(rid)",
            1400,
        ),
        ("fb_small", "rid INTEGER, x2 FLOAT", "", 100),
    ];
    for (name, cols, seg, rows) in tables {
        db.query(&format!("CREATE TABLE {name} ({cols}){seg}"))
            .unwrap();
        let (key, value) = if name.starts_with("fa") {
            ("id", "x1")
        } else {
            ("rid", "x2")
        };
        let schema = Schema::of(&[(key, DataType::Int64), (value, DataType::Float64)]);
        let row = |i: i64| -> Vec<Value> {
            match key {
                "id" => vec![i.into(), (((i * 37) % 101) as f64 / 10.0 - 5.0).into()],
                _ => vec![
                    (i % 700).into(),
                    (((i * 53) % 97) as f64 / 7.0 - 6.0).into(),
                ],
            }
        };
        for half in [0..rows / 2, rows / 2..rows] {
            let rows: Vec<Vec<Value>> = half.map(row).collect();
            db.copy(name, [Batch::from_rows(schema.clone(), &rows).unwrap()])
                .unwrap();
        }
    }
    let score = "GlmPredict(id, x1, x2 USING PARAMETERS model='jm', id='id')";
    let cases = [
        (
            "fa_seg a JOIN fb_seg b ON a.id = b.rid",
            "PARTITION BEST",
            "",
            "colocated",
        ),
        (
            "fa_rr a JOIN fb_seg b ON a.id = b.rid",
            "PARTITION BEST",
            "",
            "shuffle_left",
        ),
        (
            "fa_rr a JOIN fb_small b ON a.id = b.rid",
            "PARTITION BEST",
            "",
            "broadcast_right",
        ),
        (
            "fa_rr a JOIN fb_seg b ON a.id = b.rid",
            "PARTITION BY id",
            "",
            "shuffle_left",
        ),
        (
            "fa_seg a JOIN fb_seg b ON a.id = b.rid",
            "PARTITION BEST",
            " WHERE x1 > 0",
            "colocated",
        ),
    ];
    for (i, (from, partition, filter, strategy)) in cases.into_iter().enumerate() {
        let direct = format!("SELECT {score} OVER ({partition}) FROM {from}{filter}");
        let plan = db.query(&format!("EXPLAIN {direct}")).unwrap().batch;
        let details: Vec<String> = (0..plan.num_rows())
            .map(|r| plan.row(r)[2].to_string())
            .collect();
        assert!(
            details.iter().any(|d| d.contains(strategy)),
            "{direct}: {details:?}"
        );
        let scored = |sql: &str| {
            let out = session.sql(sql).unwrap().batch;
            assert_eq!(out.schema().names(), ["id", "prediction"]);
            let mut rows: Vec<(i64, u64)> = (0..out.num_rows())
                .map(|r| {
                    let row = out.row(r);
                    (row[0].as_i64().unwrap(), row[1].as_f64().unwrap().to_bits())
                })
                .collect();
            rows.sort_unstable();
            rows
        };
        let joined = scored(&direct);
        db.query(&format!(
            "CREATE TABLE j{i} AS SELECT id, x1, x2 FROM {from}{filter}"
        ))
        .unwrap();
        let ctas = scored(&format!("SELECT {score} OVER (PARTITION BEST) FROM j{i}"));
        let count = db
            .query(&format!("SELECT count(*) FROM {from}{filter}"))
            .unwrap();
        assert_eq!(Value::Int64(joined.len() as i64), count.batch.row(0)[0]);
        assert!(joined.len() >= 100, "{direct}: {} rows", joined.len());
        assert_eq!(joined, ctas, "{direct}");
    }
}
