//! Acceptance tests for the `v_monitor` virtual schema and `PROFILE`:
//! system tables answer ordinary SQL, and their per-query rows agree with
//! the session's own ledger-based trace report.

use std::sync::Arc;
use vertica_dr::cluster::SimCluster;
use vertica_dr::columnar::{Batch, Column, DataType, Schema, Value};
use vertica_dr::core::{Session, SessionOptions};
use vertica_dr::verticadb::{Segmentation, TableDef, VerticaDb};

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
    let b: Vec<f64> = a.iter().map(|x| 2.0 * x).collect();
    db.copy(
        "samples",
        vec![Batch::new(schema, vec![Column::from_f64(a), Column::from_f64(b)]).unwrap()],
    )
    .unwrap();
    db
}

fn opts() -> SessionOptions {
    SessionOptions {
        r_instances_per_node: 2,
        ..Default::default()
    }
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

/// The ISSUE acceptance query: `execution_engine_profiles` filtered to one
/// query id returns exactly the per-node phase rows the session ledger
/// recorded for that statement.
#[test]
fn execution_engine_profiles_agree_with_the_session_trace_report() {
    let db = db_with_table(4, 5_000);
    let session = Session::connect_colocated(Arc::clone(&db), opts()).unwrap();
    let out = session
        .sql("SELECT a, b FROM samples WHERE a >= 100.0")
        .unwrap();
    let qid = out.query_id;
    assert!(qid > 0, "tracked statements get a query id");

    // The authoritative accounting: the session ledger's phase for this id.
    let tr = session.trace_report();
    let phase = tr
        .phases
        .iter()
        .find(|p| p.query_id == qid)
        .expect("ledger phase attributed to the query");

    let rows = session
        .sql(&format!(
            "SELECT node, phase, sim_us FROM v_monitor.execution_engine_profiles \
             WHERE query_id = {qid} ORDER BY sim_us DESC"
        ))
        .unwrap()
        .batch;
    assert_eq!(
        rows.num_rows(),
        phase.nodes.len(),
        "one row per node for the single phase of this statement"
    );
    let mut prev = f64::INFINITY;
    for r in 0..rows.num_rows() {
        let row = rows.row(r);
        let node = as_i64(&row[0]) as usize;
        assert_eq!(as_str(&row[1]), phase.name, "phase name matches the ledger");
        let sim_us = as_f64(&row[2]);
        assert!(sim_us <= prev, "ORDER BY sim_us DESC");
        prev = sim_us;
        let expect = phase
            .nodes
            .iter()
            .find(|n| n.node == node)
            .expect("node known to the ledger")
            .duration_secs
            * 1e6;
        assert!(
            (sim_us - expect).abs() <= 1e-6 * expect.max(1.0),
            "node {node}: table says {sim_us}us, ledger says {expect}us"
        );
    }
    // The phase total the session charges is the slowest node (pipelined
    // phase): the table's top row.
    let top = as_f64(&rows.row(0)[2]);
    let total_us = phase.duration().as_secs() * 1e6;
    assert!(
        (top - total_us).abs() <= 1e-6 * total_us.max(1.0),
        "max per-node sim_us {top} != phase duration {total_us}"
    );
}

/// The second ISSUE acceptance: `PROFILE` of a scan surfaces the PR-3
/// decoded-block-cache counters, attributed to that statement's query id.
#[test]
fn profile_of_a_scan_surfaces_scan_cache_counters() {
    let db = db_with_table(3, 2_000);
    let out = db.query("PROFILE SELECT a, b FROM samples").unwrap();
    assert!(out.query_id > 0);
    let batch = out.batch;
    assert!(batch.num_rows() > 0, "PROFILE returns profile rows");
    assert_eq!(
        batch.schema().names(),
        vec!["query_id", "section", "name", "node", "value", "unit"]
    );
    let mut phase_rows = 0;
    let mut scan_cache_rows = 0;
    for r in 0..batch.num_rows() {
        let row = batch.row(r);
        assert_eq!(
            as_i64(&row[0]),
            out.query_id as i64,
            "every profile row is attributed to the profiled query"
        );
        if as_str(&row[1]) == "phase" {
            phase_rows += 1;
            assert_eq!(as_str(&row[5]), "sim_us");
        } else if as_str(&row[2]).starts_with("scan.cache.") {
            scan_cache_rows += 1;
        }
    }
    assert!(phase_rows >= 3, "one phase row per node");
    assert!(
        scan_cache_rows > 0,
        "scan touches the block cache, so its counters show in the profile"
    );

    // A second profiled scan hits the warm cache: the delta now contains
    // scan.cache.hit rows, still stamped with the *new* query id.
    let again = db.query("PROFILE SELECT a, b FROM samples").unwrap();
    assert!(again.query_id > out.query_id, "query ids are monotone");
    let hit = (0..again.batch.num_rows()).any(|r| {
        let row = again.batch.row(r);
        as_str(&row[2]) == "scan.cache.hit" && as_i64(&row[0]) == again.query_id as i64
    });
    assert!(hit, "warm re-scan profiles as cache hits");
}

/// System tables behave like ordinary tables under the full SELECT
/// machinery, and the whole built-in set materializes.
#[test]
fn system_tables_materialize_and_filter_like_ordinary_tables() {
    let db = db_with_table(2, 500);
    // Every statement takes longer than 1 ns, so each lands in the slow ring.
    db.monitor().set_slow_threshold_ns(1);
    let session = Session::connect_colocated(Arc::clone(&db), opts()).unwrap();
    let scanned = session.sql("SELECT a FROM samples").unwrap();

    // Query history: the scan shows up, completed, with its id and rows.
    let hist = session
        .sql(
            "SELECT query_id, sql, status, rows FROM v_monitor.query_requests \
             ORDER BY query_id DESC",
        )
        .unwrap()
        .batch;
    assert!(hist.num_rows() >= 1);
    let row = (0..hist.num_rows())
        .map(|r| hist.row(r))
        .find(|row| as_i64(&row[0]) == scanned.query_id as i64)
        .expect("scan recorded in query_requests");
    assert_eq!(as_str(&row[1]), "SELECT a FROM samples");
    assert_eq!(as_str(&row[2]), "complete");
    assert_eq!(as_i64(&row[3]), 500);

    // Failed statements are recorded too.
    assert!(session.sql("SELECT a FROM no_such_table").is_err());
    let failed = session
        .sql("SELECT status FROM v_monitor.query_requests ORDER BY query_id DESC LIMIT 1")
        .unwrap()
        .batch;
    assert!(
        as_str(&failed.row(0)[0]).starts_with("error:"),
        "failure status recorded: {:?}",
        failed.row(0)[0]
    );

    // The slow-query ring and the event log answer over SQL, every slow row
    // attributed to the statement that crossed the threshold.
    let slow = session
        .sql("SELECT query_id, sql, wall_ms, threshold_ms FROM v_monitor.slow_requests")
        .unwrap()
        .batch;
    assert!(slow.num_rows() >= 2, "both completed statements were slow");
    let slow_ids: Vec<i64> = (0..slow.num_rows())
        .map(|r| as_i64(&slow.row(r)[0]))
        .collect();
    assert!(slow_ids.iter().all(|&id| id > 0), "{slow_ids:?}");
    assert!(slow_ids.contains(&(scanned.query_id as i64)));
    for r in 0..slow.num_rows() {
        assert!(as_f64(&slow.row(r)[2]) > 0.0, "wall time recorded");
        assert_eq!(as_f64(&slow.row(r)[3]), 1e-6, "threshold of 1 ns, in ms");
    }
    let events = session
        .sql("SELECT kind, detail FROM v_monitor.events")
        .unwrap()
        .batch;
    assert!(
        (0..events.num_rows()).any(|r| as_str(&events.row(r)[0]) == "query.slow"
            && as_str(&events.row(r)[1]).contains(&format!("query_id={}", scanned.query_id))),
        "crossing the threshold is announced in v_monitor.events"
    );

    // Live metrics snapshot, filterable by name.
    let m = session
        .sql("SELECT name, kind, value FROM v_monitor.metrics WHERE name = 'exec.scan.rows'")
        .unwrap()
        .batch;
    assert!(
        m.num_rows() >= 1,
        "scan counters visible in v_monitor.metrics"
    );
    assert!((0..m.num_rows()).all(|r| as_str(&m.row(r)[1]) == "counter"));

    // Spans carry query attribution.
    let spans = session
        .sql(&format!(
            "SELECT name FROM v_monitor.spans WHERE query_id = {}",
            scanned.query_id
        ))
        .unwrap()
        .batch;
    assert!(
        (0..spans.num_rows()).any(|r| as_str(&spans.row(r)[0]) == "exec.statement"),
        "executor span attributed to the query"
    );

    // Storage, caches, DFS. storage_containers is per container × column
    // now, so pin one column when summing container row counts.
    let containers = session
        .sql(
            "SELECT table_name, rows FROM v_monitor.storage_containers \
             WHERE table_name = 'samples' AND column_name = 'a'",
        )
        .unwrap()
        .batch;
    let total: i64 = (0..containers.num_rows())
        .map(|r| as_i64(&containers.row(r)[1]))
        .sum();
    assert_eq!(total, 500, "containers account for every loaded row");
    // Per-column encoding metadata is queryable.
    let enc = session
        .sql(
            "SELECT column_name, encoding, encoded_bytes, decoded_bytes \
             FROM v_monitor.storage_containers WHERE table_name = 'samples'",
        )
        .unwrap()
        .batch;
    assert!(enc.num_rows() >= 2, "one row per container column");
    for r in 0..enc.num_rows() {
        assert!(
            !as_str(&enc.row(r)[1]).is_empty(),
            "encoding name populated"
        );
        assert!(as_i64(&enc.row(r)[2]) > 0, "encoded size recorded");
        assert!(as_i64(&enc.row(r)[3]) > 0, "decoded size recorded");
    }
    let bc = session
        .sql("SELECT stat, value FROM v_monitor.block_cache")
        .unwrap()
        .batch;
    assert!((0..bc.num_rows()).any(|r| as_str(&bc.row(r)[0]) == "hits"));
    let mc = session
        .sql("SELECT stat, value FROM v_monitor.model_cache")
        .unwrap()
        .batch;
    assert_eq!(mc.num_rows(), 4, "model cache registered by the session");
    session
        .sql("SELECT name, replicas FROM v_monitor.dfs_objects")
        .unwrap();

    // Unknown system tables error cleanly.
    let err = session.sql("SELECT * FROM v_monitor.nope").unwrap_err();
    assert!(err.to_string().contains("nope"), "{err}");
}
