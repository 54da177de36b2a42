//! Acceptance tests for the Data Collector views: every statement, VFT
//! transfer and train run is one entry of its database's query history,
//! the `dc_*` system tables are views over that history (per database,
//! `tick` = the entry's sequence number), every `v_monitor` table carries a
//! `node_name` column naming the node that produced each row, and the
//! session exports Prometheus text and Chrome traces with event-ring
//! entries.

use std::collections::HashSet;
use std::sync::Arc;
use vertica_dr::cluster::{Ledger, SimCluster};
use vertica_dr::columnar::{Batch, Column, DataType, Schema, Value};
use vertica_dr::core::{Session, SessionOptions};
use vertica_dr::distr::DistributedR;
use vertica_dr::ml::{Family, GlmOptions};
use vertica_dr::transfer::{glm_while_loading, install_export_function, TransferPolicy};
use vertica_dr::verticadb::monitor::{node_name, profile_batch};
use vertica_dr::verticadb::{Segmentation, TableDef, VerticaDb};
use vertica_dr::workloads::logistic_data;

fn db_with_table(nodes: usize, rows: usize) -> Arc<VerticaDb> {
    let db = VerticaDb::new(SimCluster::for_tests(nodes));
    let schema = Schema::of(&[("a", DataType::Float64), ("b", DataType::Float64)]);
    db.create_table(TableDef {
        name: "samples".into(),
        schema: schema.clone(),
        segmentation: Segmentation::RoundRobin,
    })
    .unwrap();
    let a: Vec<f64> = (0..rows).map(|i| i as f64).collect();
    let b: Vec<f64> = a.iter().map(|x| 3.0 * x).collect();
    db.copy(
        "samples",
        vec![Batch::new(schema, vec![Column::from_f64(a), Column::from_f64(b)]).unwrap()],
    )
    .unwrap();
    db
}

fn as_i64(v: &Value) -> i64 {
    match v {
        Value::Int64(n) => *n,
        other => panic!("expected Int64, got {other:?}"),
    }
}

fn as_f64(v: &Value) -> f64 {
    match v {
        Value::Float64(f) => *f,
        other => panic!("expected Float64, got {other:?}"),
    }
}

fn as_str(v: &Value) -> &str {
    match v {
        Value::Varchar(s) => s,
        other => panic!("expected Varchar, got {other:?}"),
    }
}

fn column_values(batch: &Batch, name: &str) -> Vec<Value> {
    let idx = batch.schema().index_of(name).unwrap();
    (0..batch.num_rows())
        .map(|r| batch.row(r)[idx].clone())
        .collect()
}

fn node_names_of(batch: &Batch) -> HashSet<String> {
    column_values(batch, "node_name")
        .iter()
        .map(|v| as_str(v).to_string())
        .collect()
}

/// Every existing `v_monitor` table returns rows from every node, each
/// stamped with the owning node's `node_name`; initiator-resident tables
/// answer only from the initiator.
#[test]
fn v_monitor_tables_report_node_name_from_every_node() {
    let db = db_with_table(3, 3_000);
    let session = Session::connect_colocated(Arc::clone(&db), SessionOptions::default()).unwrap();
    session
        .sql("SELECT a, b FROM samples WHERE a >= 10.0")
        .unwrap();

    let all: HashSet<String> = (0..3).map(node_name).collect();
    assert_eq!(all.len(), 3, "distinct names per node");

    // Per-node tables: rows arrive from every node in the cluster.
    for table in ["metrics", "execution_engine_profiles", "storage_containers"] {
        let batch = session
            .sql(&format!("SELECT * FROM v_monitor.{table}"))
            .unwrap()
            .batch;
        assert_eq!(
            node_names_of(&batch),
            all,
            "v_monitor.{table} must union rows from all 3 nodes"
        );
    }

    // Initiator-resident tables answer from node 1 only.
    for table in ["query_requests", "dc_query_summaries"] {
        let batch = session
            .sql(&format!("SELECT * FROM v_monitor.{table}"))
            .unwrap()
            .batch;
        assert!(batch.num_rows() > 0, "v_monitor.{table} non-empty");
        assert_eq!(
            node_names_of(&batch),
            HashSet::from([node_name(0)]),
            "v_monitor.{table} is initiator-resident"
        );
    }

    // node_name is an ordinary column: filterable like any other.
    let one = session
        .sql(&format!(
            "SELECT node, node_name FROM v_monitor.execution_engine_profiles \
             WHERE node_name = '{}'",
            node_name(2)
        ))
        .unwrap()
        .batch;
    assert!(one.num_rows() > 0);
    for r in 0..one.num_rows() {
        assert_eq!(as_i64(&one.row(r)[0]), 2, "name and numeric id agree");
    }
}

/// The ISSUE acceptance query: after a handful of statements,
/// `dc_metrics_by_tick` returns rows spanning multiple ticks and multiple
/// nodes, and the companion rollup tables are populated.
#[test]
fn dc_tables_report_multi_tick_multi_node_rows() {
    let db = db_with_table(3, 4_000);
    let session = Session::connect_colocated(Arc::clone(&db), SessionOptions::default()).unwrap();
    for _ in 0..3 {
        session
            .sql("SELECT a, b FROM samples WHERE a < 1000.0")
            .unwrap();
    }

    let m = session
        .sql("SELECT tick, node, name, value, node_name FROM v_monitor.dc_metrics_by_tick")
        .unwrap()
        .batch;
    let ticks: HashSet<i64> = column_values(&m, "tick").iter().map(as_i64).collect();
    // Globally-labelled metrics render a NULL node (they live in the
    // initiator's ring); per-node series carry their node id.
    let nodes: HashSet<i64> = column_values(&m, "node")
        .iter()
        .filter(|v| !matches!(v, Value::Null))
        .map(as_i64)
        .collect();
    assert!(ticks.len() >= 2, "expected multiple ticks, got {ticks:?}");
    assert!(
        nodes.len() >= 3,
        "expected samples on all nodes, got {nodes:?}"
    );
    // Per-node scan counters land in the owning node's ring.
    let scan_rows_nodes: HashSet<i64> = (0..m.num_rows())
        .filter(|&r| as_str(&m.row(r)[2]) == "exec.scan.rows")
        .map(|r| as_i64(&m.row(r)[1]))
        .collect();
    assert!(
        scan_rows_nodes.len() >= 3,
        "exec.scan.rows sampled per node: {scan_rows_nodes:?}"
    );

    // Resource rollups: the tick captured ledger readings for every node.
    let u = session
        .sql(
            "SELECT tick, node, cpu_core_ns, disk_read_bytes, net_in_bytes \
             FROM v_monitor.dc_resource_usage",
        )
        .unwrap()
        .batch;
    assert!(u.num_rows() >= 3, "usage rows for multiple ticks/nodes");
    let cpu_total: f64 = (0..u.num_rows()).map(|r| as_f64(&u.row(r)[2])).sum();
    assert!(cpu_total > 0.0, "scans charge cpu_core_ns");

    // Query summaries: per-tick latency percentiles from the rolling
    // `query.wall_us` histogram.
    let s = session
        .sql(
            "SELECT tick, trigger, status, rows, p50_us, p90_us, p99_us \
             FROM v_monitor.dc_query_summaries WHERE trigger = 'statement'",
        )
        .unwrap()
        .batch;
    assert!(s.num_rows() >= 3, "one summary per statement tick");
    for r in 0..s.num_rows() {
        let row = s.row(r);
        assert_eq!(as_str(&row[2]), "complete");
        let (p50, p90, p99) = (as_f64(&row[4]), as_f64(&row[5]), as_f64(&row[6]));
        assert!(p50 > 0.0, "wall-clock percentiles populated");
        assert!(
            p50 <= p90 && p90 <= p99,
            "percentiles ordered: {p50} {p90} {p99}"
        );
    }
}

/// VFT and train-pool completions are history entries of their own: the
/// transfer's carries its per-node pool usage, the train's its
/// `ml.train.*` deltas.
#[test]
fn vft_and_train_completions_tick_the_collector() {
    let (db, dr) = trainme_db(2, 2_000);
    let vft = install_export_function(&db);
    let ledger = Ledger::new();
    let (_array, report) = vft
        .db2darray(
            &db,
            &dr,
            "trainme",
            &["a", "b"],
            TransferPolicy::Locality,
            &ledger,
        )
        .unwrap();
    assert_eq!(report.rows, 2_000);
    let fit = glm_while_loading(
        &vft,
        &db,
        &dr,
        "trainme",
        &["a", "b"],
        "y",
        Family::Binomial,
        &GlmOptions::default(),
        TransferPolicy::Locality,
        &ledger,
    )
    .unwrap();

    let s = db
        .query(
            "SELECT tick, query_id, trigger, label, status, rows \
             FROM v_monitor.dc_query_summaries WHERE trigger <> 'statement' ORDER BY tick",
        )
        .unwrap()
        .batch;
    let ticks: HashSet<i64> = column_values(&s, "tick").iter().map(as_i64).collect();
    assert!(ticks.len() >= 3, "vft + (vft + train) entries: {ticks:?}");
    let rows: Vec<Vec<Value>> = (0..s.num_rows()).map(|r| s.row(r)).collect();
    let vft_sum = rows
        .iter()
        .find(|r| as_str(&r[2]) == "vft" && as_str(&r[3]) == "VFT db2darray trainme")
        .expect("the transfer completion is a history entry");
    assert_eq!(as_i64(&vft_sum[5]), 2_000);
    assert_eq!(as_str(&vft_sum[4]), "complete");
    let train_sum = rows
        .iter()
        .rev()
        .find(|r| as_str(&r[2]) == "train" && as_i64(&r[1]) == fit.query_id as i64)
        .expect("the train completion is a history entry");
    assert!(as_str(&train_sum[3]).contains("TRAIN GLM WHILE LOADING"));

    // The transfer entry carried per-node receive-pool usage...
    let u = db
        .query("SELECT node, cpu_core_ns FROM v_monitor.dc_resource_usage WHERE trigger = 'vft'")
        .unwrap()
        .batch;
    assert!(
        (0..u.num_rows()).any(|r| as_f64(&u.row(r)[1]) > 0.0),
        "receive pools charge decode cpu"
    );
    // ...and the train entry holds the ml.train.* delta.
    let m = db
        .query(&format!(
            "SELECT value FROM v_monitor.dc_metrics_by_tick WHERE trigger = 'train' \
             AND query_id = {} AND name = 'ml.train.overlap_ns'",
            fit.query_id
        ))
        .unwrap()
        .batch;
    assert!(
        m.num_rows() > 0,
        "the train entry records ml.train.overlap_ns"
    );
    assert!(
        as_f64(&m.row(0)[0]) > 0.0,
        "train-while-loading overlap attributed to the train entry"
    );
}

/// `trainme (y, a, b)`: `rows` logistic rows on `nodes` nodes, and a
/// Distributed R session on every node.
fn trainme_db(nodes: usize, rows: usize) -> (Arc<VerticaDb>, DistributedR) {
    let cluster = SimCluster::for_tests(nodes);
    let db = VerticaDb::new(cluster.clone());
    let schema = Schema::of(&[
        ("y", DataType::Float64),
        ("a", DataType::Float64),
        ("b", DataType::Float64),
    ]);
    db.create_table(TableDef {
        name: "trainme".into(),
        schema: schema.clone(),
        segmentation: Segmentation::RoundRobin,
    })
    .unwrap();
    let (x, y) = logistic_data(rows, 0.5, &[1.5, -2.0], 7);
    let a: Vec<f64> = x.chunks(2).map(|r| r[0]).collect();
    let b: Vec<f64> = x.chunks(2).map(|r| r[1]).collect();
    db.copy(
        "trainme",
        vec![Batch::new(
            schema,
            vec![
                Column::from_f64(y),
                Column::from_f64(a),
                Column::from_f64(b),
            ],
        )
        .unwrap()],
    )
    .unwrap();
    let dr = DistributedR::on_all_nodes(cluster, 2).unwrap();
    (db, dr)
}

/// The query ids a `v_monitor` table's `query_id` column names.
fn query_ids(db: &VerticaDb, table: &str) -> HashSet<i64> {
    let batch = db
        .query(&format!("SELECT query_id FROM v_monitor.{table}"))
        .unwrap()
        .batch;
    column_values(&batch, "query_id")
        .iter()
        .map(as_i64)
        .collect()
}

/// Two databases in one process keep two histories: each one's
/// `query_requests` and `dc_*` views name only its own statements, and a
/// VFT transfer is an entry of its database's history with trigger `vft`.
#[test]
fn each_database_sees_only_its_own_history() {
    let (a, dr) = trainme_db(2, 500);
    let b = db_with_table(2, 500);
    a.query("SELECT y, a FROM trainme WHERE a > 0.0").unwrap();
    let vft = install_export_function(&a);
    let (_array, report) = vft
        .db2darray(
            &a,
            &dr,
            "trainme",
            &["a", "b"],
            TransferPolicy::Locality,
            &Ledger::new(),
        )
        .unwrap();
    assert_eq!(report.rows, 500);
    b.query("SELECT a, b FROM samples WHERE a < 100.0").unwrap();
    b.query("SELECT count(*) FROM samples").unwrap();

    let own = |db: &VerticaDb| -> HashSet<i64> {
        let history = db.monitor().history().snapshot();
        history.iter().map(|r| r.id as i64).collect()
    };
    let tables = [
        "query_requests",
        "dc_metrics_by_tick",
        "dc_resource_usage",
        "dc_query_summaries",
    ];
    for (db, other) in [(&a, &b), (&b, &a)] {
        for table in tables {
            // Read the other database's ids after this one's view: the
            // view's own statement lands in this history only.
            let seen = query_ids(db, table);
            let (mine, theirs) = (own(db), own(other));
            assert!(!seen.is_empty(), "{table} lists this database's work");
            assert!(seen.is_subset(&mine), "{table}: {seen:?} ⊄ {mine:?}");
            assert!(seen.is_disjoint(&theirs), "{table} lists the other's work");
        }
    }

    let transfer = "VFT db2darray trainme";
    let requests = a
        .query("SELECT query_id, sql, rows FROM v_monitor.query_requests")
        .unwrap()
        .batch;
    let listed = (0..requests.num_rows()).map(|r| requests.row(r));
    let listed: Vec<_> = listed.filter(|r| as_str(&r[1]) == transfer).collect();
    assert_eq!(listed.len(), 1, "one query_requests row per transfer");
    assert_eq!(as_i64(&listed[0][2]), 500);
    let summary = a
        .query(&format!(
            "SELECT trigger, query_id FROM v_monitor.dc_query_summaries WHERE label = '{transfer}'"
        ))
        .unwrap()
        .batch;
    assert_eq!(summary.num_rows(), 1);
    assert_eq!(as_str(&summary.row(0)[0]), "vft");
    assert_eq!(summary.row(0)[1], listed[0][0], "one query id, one entry");
    let usage = a
        .query("SELECT node FROM v_monitor.dc_resource_usage WHERE trigger = 'vft'")
        .unwrap()
        .batch;
    let nodes: HashSet<i64> = column_values(&usage, "node").iter().map(as_i64).collect();
    assert_eq!(
        nodes,
        HashSet::from([0, 1]),
        "the transfer ran on both nodes"
    );
}

/// Satellite: `PROFILE`-style per-query metric deltas include the PR-8
/// `scan.encoded.*` counters and the PR-7 `ml.train.*` counters.
#[test]
fn profile_deltas_include_encoded_scan_and_train_counters() {
    // Encoded scan: a sorted low-cardinality column picks RLE, and the
    // compressed path's counters must land in the profiled statement's
    // delta.
    let db = VerticaDb::new(SimCluster::for_tests(2));
    db.query("CREATE TABLE lc (id INTEGER, grp INTEGER, x FLOAT)")
        .unwrap();
    let values: Vec<String> = (0..600)
        .map(|i| format!("({i}, {}, {}.5)", i / 200, i % 7))
        .collect();
    db.query(&format!("INSERT INTO lc VALUES {}", values.join(", ")))
        .unwrap();
    let out = db
        .query("PROFILE SELECT count(*) FROM lc WHERE grp = 1")
        .unwrap();
    let names: Vec<String> = (0..out.batch.num_rows())
        .map(|r| as_str(&out.batch.row(r)[2]).to_string())
        .collect();
    assert!(
        names.iter().any(|n| n.starts_with("scan.encoded.")),
        "PROFILE must attribute compressed-execution counters: {names:?}"
    );

    // Train: the attribution bracket catches ml.train.* and vft.* in the
    // train query's delta, and profile_batch renders them.
    let cluster = db.cluster().clone();
    let schema = Schema::of(&[("y", DataType::Float64), ("a", DataType::Float64)]);
    db.create_table(TableDef {
        name: "t2".into(),
        schema: schema.clone(),
        segmentation: Segmentation::RoundRobin,
    })
    .unwrap();
    let (x, y) = logistic_data(1_000, 1.0, &[2.0], 3);
    db.copy(
        "t2",
        vec![Batch::new(schema, vec![Column::from_f64(y), Column::from_f64(x)]).unwrap()],
    )
    .unwrap();
    let dr = DistributedR::on_all_nodes(cluster, 2).unwrap();
    let fit = glm_while_loading(
        &install_export_function(&db),
        &db,
        &dr,
        "t2",
        &["a"],
        "y",
        Family::Binomial,
        &GlmOptions::default(),
        TransferPolicy::Locality,
        &Ledger::new(),
    )
    .unwrap();
    let record = db
        .monitor()
        .history()
        .snapshot()
        .into_iter()
        .find(|r| r.id == fit.query_id && r.trigger == "train")
        .expect("train recorded in query history");
    assert!(
        record.metrics_delta.counter_total("ml.train.overlap_ns") > 0,
        "train overlap counter in the train query's delta"
    );
    let prof = profile_batch(&record).unwrap();
    let prof_names: Vec<String> = (0..prof.num_rows())
        .map(|r| as_str(&prof.row(r)[2]).to_string())
        .collect();
    for want in [
        "ml.train.overlap_ns",
        "ml.train.rows_per_sec",
        "ml.train.deviance",
    ] {
        assert!(
            prof_names.iter().any(|n| n == want),
            "{want} in the train profile: {prof_names:?}"
        );
    }
    assert!(
        (0..prof.num_rows()).all(|r| as_i64(&prof.row(r)[0]) == fit.query_id as i64),
        "every train profile row is stamped with the train query id"
    );
    assert!(
        prof_names.iter().any(|n| n.starts_with("vft.")),
        "vft.* in the train profile: {prof_names:?}"
    );
}

/// Satellite: query-history retention is runtime-configurable and evictions
/// are announced via a structured event.
#[test]
fn query_history_capacity_is_runtime_configurable() {
    let db = db_with_table(2, 100);
    let history = db.monitor().history();
    let base_seq = vertica_dr::obs::global().events().current_seq();

    history.set_capacity(3);
    assert_eq!(history.capacity(), 3);
    for i in 0..5 {
        db.query(&format!("SELECT a FROM samples WHERE a >= {i}.0"))
            .unwrap();
    }
    assert_eq!(history.len(), 3, "ring trimmed to the runtime capacity");
    let oldest = history.snapshot().first().unwrap().id;
    let events = vertica_dr::obs::global().events().events_since(base_seq);
    let evictions: Vec<_> = events
        .iter()
        .filter(|e| e.kind == "query.history.evicted")
        .collect();
    assert!(
        evictions.len() >= 2,
        "each eviction announced: {evictions:?}"
    );
    assert!(
        evictions.iter().any(|e| e.detail.contains("query_id=")),
        "eviction event names the dropped query"
    );

    // Shrinking below the current length trims immediately and says so.
    history.set_capacity(1);
    assert_eq!(history.len(), 1);
    assert!(history.snapshot().first().unwrap().id > oldest);
    let trim_events = vertica_dr::obs::global().events().events_since(base_seq);
    assert!(trim_events
        .iter()
        .any(|e| e.kind == "query.history.evicted" && e.detail.contains("set_capacity(1)")));

    // Restore a sane capacity for other tests sharing this db.
    history.set_capacity(256);
}

/// The metric name of one Prometheus sample line,
/// `name[{labels}] value`, or `None` if the line is not one.
fn prometheus_sample_name(line: &str) -> Option<&str> {
    let (series, value) = line.rsplit_once(' ')?;
    value.parse::<f64>().ok()?;
    let name = match series.split_once('{') {
        Some((name, labels)) => {
            let labels = labels.strip_suffix('}')?;
            (!labels.contains(['{', '}'])).then_some(name)?
        }
        None => series,
    };
    let mut chars = name.chars();
    let first_ok = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
    (first_ok && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')).then_some(name)
}

/// The session export surface: Prometheus text, and a Chrome trace whose
/// event-ring entries render as instant events.
#[test]
fn session_exports_prometheus_text_and_chrome_instant_events() {
    let db = db_with_table(2, 500);
    let session = Session::connect_colocated(Arc::clone(&db), SessionOptions::default()).unwrap();
    session.sql("SELECT a FROM samples").unwrap();
    vertica_dr::obs::event("dc.test.marker", "instant event for the trace");

    let text = session.export_metrics();
    assert!(text.contains("# TYPE vdr_exec_scan_rows_total counter"));
    assert!(text.contains("vdr_exec_scan_rows_total{node="));
    // Every line is Prometheus exposition format: a `# TYPE` comment or a
    // `name{labels} value` sample in the vdr_ namespace, and every sampled
    // series is announced by a TYPE comment (summaries by their base name).
    let (mut typed, mut series) = (HashSet::new(), HashSet::new());
    for line in text.lines().filter(|l| !l.is_empty()) {
        if line.starts_with('#') {
            let parts: Vec<&str> = line.split_whitespace().collect();
            assert!(
                matches!(
                    parts[..],
                    [
                        "#",
                        "TYPE",
                        _,
                        "counter" | "gauge" | "summary" | "histogram"
                    ]
                ),
                "malformed TYPE comment: {line}"
            );
            typed.insert(parts[2]);
        } else {
            let name =
                prometheus_sample_name(line).unwrap_or_else(|| panic!("unparsable sample: {line}"));
            assert!(name.starts_with("vdr_"), "vdr_ prefix: {line}");
            series.insert(name);
        }
    }
    assert!(
        series.contains("vdr_exec_scan_rows_total"),
        "export is missing vdr_exec_scan_rows_total"
    );
    let untyped: Vec<_> = series
        .iter()
        .filter(|s| !typed.iter().any(|t| s.starts_with(t)))
        .collect();
    assert!(untyped.is_empty(), "series without a TYPE: {untyped:?}");

    let path = std::env::temp_dir().join(format!("vdr_dc_trace_{}.json", std::process::id()));
    session.export_trace(&path).unwrap();
    let trace: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let events = trace.get("traceEvents").and_then(|e| e.as_array()).unwrap();
    assert!(
        events
            .iter()
            .any(|e| e.get("ph").and_then(|v| v.as_str()) == Some("i")
                && e.get("name").and_then(|v| v.as_str()) == Some("dc.test.marker")
                && e.get("args")
                    .and_then(|a| a.get("detail"))
                    .and_then(|v| v.as_str())
                    == Some("instant event for the trace")),
        "event-ring entry exported as an instant event"
    );
    std::fs::remove_file(&path).ok();
}
