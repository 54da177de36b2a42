//! A unit's metric delta is what its own threads recorded into its query
//! context. One test in its own binary, so nothing else records while it
//! runs: over the Figure 3 loop's statements, transfers and train runs, each
//! history record's delta equals the process registry's diff around the
//! call — counters and histogram counts exactly, gauges as a superset. A
//! thread that lost its scope would record into the registry alone and show
//! here.

use std::sync::Arc;
use vertica_dr::cluster::{Ledger, SimCluster};
use vertica_dr::columnar::{Batch, Column, DataType, Schema};
use vertica_dr::core::{Model, Session, SessionOptions};
use vertica_dr::ml::{hpdglm, Family, GlmOptions};
use vertica_dr::obs::{MetricValue, MetricsSnapshot};
use vertica_dr::transfer::{glm_while_loading, install_export_function, TransferPolicy};
use vertica_dr::verticadb::{Segmentation, TableDef, VerticaDb};
use vertica_dr::workloads::logistic_data;

const ROWS: usize = 3_000;

fn table(db: &VerticaDb, name: &str, seg: Segmentation, cols: Vec<(&str, Column)>) {
    let fields: Vec<(&str, DataType)> = cols.iter().map(|(n, c)| (*n, c.data_type())).collect();
    let schema = Schema::of(&fields);
    db.create_table(TableDef {
        name: name.into(),
        schema: schema.clone(),
        segmentation: seg,
    })
    .unwrap();
    let columns = cols.into_iter().map(|(_, c)| c).collect();
    db.copy(name, [Batch::new(schema, columns).unwrap()])
        .unwrap();
}

/// `mytable(id, g, y, a, b)` and `other(id, c)` round-robin, `byg(g, a)`
/// segmented on `g`, and a 50-row `dims(g, w)`.
fn load(db: &VerticaDb) {
    let (x, y) = logistic_data(ROWS, 0.5, &[2.0, -1.5], 42);
    let ids = || Column::from_i64((0..ROWS as i64).collect());
    let g = || Column::from_i64((0..ROWS as i64).map(|i| i % 50).collect());
    let a: Vec<f64> = x.chunks(2).map(|r| r[0]).collect();
    let b: Vec<f64> = x.chunks(2).map(|r| r[1]).collect();
    let rr = || Segmentation::RoundRobin;
    let mytable = vec![
        ("id", ids()),
        ("g", g()),
        ("y", Column::from_f64(y)),
        ("a", Column::from_f64(a.clone())),
        ("b", Column::from_f64(b)),
    ];
    table(db, "mytable", rr(), mytable);
    let c = (0..ROWS).map(|i| i as f64 * 0.5).collect();
    table(
        db,
        "other",
        rr(),
        vec![("id", ids()), ("c", Column::from_f64(c))],
    );
    let by_g = Segmentation::Hash { column: "g".into() };
    table(
        db,
        "byg",
        by_g,
        vec![("g", g()), ("a", Column::from_f64(a))],
    );
    let dims = vec![
        ("g", Column::from_i64((0..50).collect())),
        ("w", Column::from_f64((0..50).map(|i| i as f64).collect())),
    ];
    table(db, "dims", rr(), dims);
}

/// Run `unit`, then hold the latest history record's delta to the registry
/// diff around it.
fn holds(db: &VerticaDb, what: &str, unit: impl FnOnce()) {
    let registry = vertica_dr::obs::global().metrics();
    let before = registry.snapshot();
    unit();
    let diff = registry.snapshot().diff(&before);
    let history = db.monitor().history().snapshot();
    let own = &history
        .last()
        .expect("the unit is in the history")
        .metrics_delta;
    assert!(own.histogram_total("query.wall_us").is_some(), "{what}");
    compare(what, own, &diff);
}

fn compare(what: &str, own: &MetricsSnapshot, diff: &MetricsSnapshot) {
    for (key, value) in diff.iter() {
        let mine = own.get(&key.name, key.node);
        match value {
            MetricValue::Counter(c) => {
                let mine = match mine {
                    Some(MetricValue::Counter(m)) => *m,
                    _ => 0,
                };
                assert_eq!(mine, *c, "{what}: counter {key:?}");
            }
            MetricValue::Histogram(h) => {
                let mine = match mine {
                    Some(MetricValue::Histogram(m)) => m.count,
                    _ => 0,
                };
                assert_eq!(mine, h.count, "{what}: histogram {key:?}");
            }
            MetricValue::Gauge(_) => {
                let gauge = matches!(mine, Some(MetricValue::Gauge(_)));
                assert!(gauge, "{what}: gauge {key:?} missing");
            }
        }
    }
    // Nothing counted in the record that the registry did not count.
    for (key, value) in own.iter() {
        if !matches!(value, MetricValue::Gauge(_)) {
            let counted = diff.get(&key.name, key.node).is_some();
            assert!(counted, "{what}: {key:?} only in the record");
        }
    }
}

/// `EXPLAIN`'s operators and details, one line each.
fn explain(db: &VerticaDb, sql: &str) -> String {
    let out = db.query(&format!("EXPLAIN {sql}")).unwrap().batch;
    let line = |r: usize| {
        let row = out.row(r);
        format!("{} {}\n", row[1], row[2])
    };
    (0..out.num_rows()).map(line).collect()
}

#[test]
fn every_record_equals_the_registry_diff_around_its_unit() {
    let db = VerticaDb::new(SimCluster::for_tests(3));
    load(&db);
    let session = Session::connect_colocated(Arc::clone(&db), SessionOptions::default()).unwrap();
    let sql = |what: &str, text: &str| {
        holds(&db, what, || {
            session.sql(text).unwrap();
        })
    };

    sql(
        "CTAS",
        "CREATE TABLE feats AS SELECT id, y, a, b, a * b AS ab FROM mytable WHERE a > -1.0",
    );
    sql("filter", "SELECT a, b FROM feats WHERE ab > 0.25");
    // Each plan shape runs, as `EXPLAIN` names it.
    for (what, text, shape, shuffles) in [
        (
            "GROUP BY shuffled",
            "SELECT g, count(*), sum(a) FROM mytable GROUP BY g",
            "Exchange hash(g)",
            true,
        ),
        (
            "GROUP BY at the initiator",
            "SELECT g, count(*), sum(a) FROM byg GROUP BY g",
            "FinalAgg",
            false,
        ),
        (
            "shuffle JOIN",
            "SELECT m.id, o.c FROM mytable m JOIN other o ON m.id = o.id",
            "shuffle_both",
            true,
        ),
        (
            "broadcast JOIN",
            "SELECT m.id, d.w FROM mytable m JOIN dims d ON m.g = d.g",
            "broadcast_right",
            false,
        ),
    ] {
        let plan = explain(&db, text);
        assert!(plan.contains(shape), "{what}: {plan}");
        assert_eq!(plan.contains("Exchange hash"), shuffles, "{what}: {plan}");
        sql(what, text);
    }

    let mut data = None;
    holds(&db, "VFT transfer", || {
        data = Some(session.db2darray("feats", &["y", "a", "b"]).unwrap().0);
    });
    let data = data.unwrap();
    let x = data.split_columns(&[1, 2]).unwrap();
    let y = data.split_columns(&[0]).unwrap();
    let model = hpdglm(&x, &y, Family::Binomial, &GlmOptions::default()).unwrap();
    session
        .deploy_model(&Model::Glm(model), "parity", "parity test")
        .unwrap();
    sql(
        "GlmPredict",
        "SELECT glmPredict(a, b USING PARAMETERS model='parity') OVER (PARTITION BEST) FROM feats",
    );
    sql("PROFILE", "PROFILE SELECT a, b FROM mytable WHERE b < 0.0");
    sql("TRACE", "TRACE SELECT g, count(*) FROM mytable GROUP BY g");

    let vft = install_export_function(&db);
    holds(&db, "train while loading", || {
        glm_while_loading(
            &vft,
            &db,
            session.dr(),
            "feats",
            &["a", "b"],
            "y",
            Family::Binomial,
            &GlmOptions::default(),
            TransferPolicy::Locality,
            &Ledger::new(),
        )
        .unwrap();
    });
}
