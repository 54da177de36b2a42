//! Acceptance test for the observability layer: run the Figure 3 pipeline
//! (load → transfer → train → deploy → predict) through a session and check
//! that `Session::trace_report()` / `Session::metrics()` see every stage.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;
use vertica_dr::cluster::SimCluster;
use vertica_dr::core::{Model, Session, SessionOptions};
use vertica_dr::ml::{hpdglm, Family, GlmOptions};
use vertica_dr::obs::Verbosity;
use vertica_dr::verticadb::{Segmentation, TableDef, VerticaDb};
use vertica_dr::workloads::logistic_data;
use vertica_dr::yarn::{ResourceManager, SchedulingPolicy};

const ROWS: usize = 4_000;

fn load_table(db: &Arc<VerticaDb>) {
    let schema = vertica_dr::columnar::Schema::of(&[
        ("y", vertica_dr::columnar::DataType::Float64),
        ("a", vertica_dr::columnar::DataType::Float64),
        ("b", vertica_dr::columnar::DataType::Float64),
    ]);
    db.create_table(TableDef {
        name: "mytable".into(),
        schema: schema.clone(),
        segmentation: Segmentation::RoundRobin,
    })
    .unwrap();
    let (x, y) = logistic_data(ROWS, 0.5, &[2.0, -1.5], 42);
    let a: Vec<f64> = x.chunks(2).map(|r| r[0]).collect();
    let b: Vec<f64> = x.chunks(2).map(|r| r[1]).collect();
    db.copy(
        "mytable",
        vec![vertica_dr::columnar::Batch::new(
            schema,
            vec![
                vertica_dr::columnar::Column::from_f64(y),
                vertica_dr::columnar::Column::from_f64(a),
                vertica_dr::columnar::Column::from_f64(b),
            ],
        )
        .unwrap()],
    )
    .unwrap();
}

#[test]
fn session_observes_the_whole_figure3_pipeline() {
    // Full span trees (per-partition detail spans included) are a
    // trace-level feature; `summary` keeps only counters, histograms, and
    // coarse statement spans. Safe to force process-wide: this test has its
    // own binary.
    let _verbosity = vertica_dr::obs::verbosity_guard(Verbosity::Trace);
    let db = VerticaDb::new(SimCluster::for_tests(5));
    // YARN-brokered session so the container lifecycle falls inside the
    // session's metrics window.
    let rm = Arc::new(ResourceManager::new(db.cluster(), SchedulingPolicy::Fair).unwrap());
    let session = Session::connect_with_yarn(
        Arc::clone(&db),
        Arc::clone(&rm),
        "obs-test",
        4,
        2_048,
        SessionOptions::default(),
    )
    .unwrap();

    // Load (ETL) inside the session window, then the Figure 3 steps.
    load_table(&db);
    let (data, report) = session.db2darray("mytable", &["y", "a", "b"]).unwrap();
    assert_eq!(report.rows, ROWS as u64);
    let y = data.split_columns(&[0]).unwrap();
    let x = data.split_columns(&[1, 2]).unwrap();
    let model = hpdglm(&x, &y, Family::Binomial, &GlmOptions::default()).unwrap();
    let iterations = model.iterations;
    session
        .deploy_model(&Model::Glm(model), "obs_model", "observability test")
        .unwrap();
    // One plain scan (per-operator scan/filter counters) and one in-database
    // prediction (transform counters).
    let scanned = session.sql("SELECT a, b FROM mytable").unwrap();
    assert_eq!(scanned.batch.num_rows(), ROWS);
    let out = session
        .sql(
            "SELECT glmPredict(a, b USING PARAMETERS model='obs_model') \
             OVER (PARTITION BEST) FROM mytable",
        )
        .unwrap();
    assert_eq!(out.batch.num_rows(), ROWS);

    // ------------------------------------------------------------ metrics
    let m = session.metrics();
    // VFT: per-segment rows/bytes with per-node labels.
    assert!(m.counter_total("vft.segment.rows") >= ROWS as u64);
    assert!(m.counter_total("vft.segment.bytes") > 0);
    assert!(!m.counter_by_node("vft.segment.rows").is_empty());
    assert!(!m.counter_by_node("vft.worker.rows").is_empty());
    // SQL executor: per-operator row counts.
    assert!(m.counter_total("exec.scan.rows") >= ROWS as u64);
    assert!(m.counter_total("exec.filter.rows") >= ROWS as u64);
    assert!(m.counter_total("exec.transform.rows_in") >= ROWS as u64);
    assert!(m.counter_total("exec.transform.rows_out") >= ROWS as u64);
    assert!(m.counter_total("exec.output.rows") >= 2 * ROWS as u64);
    // ML: one objective observation per IRLS iteration.
    let deviance = m.histogram_total("ml.glm.deviance").unwrap();
    assert!(deviance.count >= iterations as u64);
    assert!(deviance.sum > 0.0);
    // YARN: one container per node requested and granted.
    assert!(m.counter_total("yarn.container.requested") >= 5);
    assert!(m.counter_total("yarn.container.granted") >= 5);
    // DFS: the deployed model was stored (and replicated).
    assert!(m.counter_total("dfs.blob.stored") >= 1);
    assert!(m.counter_total("dfs.blob.bytes_written") > 0);
    // The whole snapshot serializes to JSON.
    let mjson = serde_json::to_value(&m).unwrap();
    assert!(mjson.get("vft.segment.rows").is_some());

    // ------------------------------------------------------- trace report
    let tr = session.trace_report();
    // The phase table is the authoritative sim-time accounting: serial
    // phases sum to the session total.
    let phase_sum = tr.phase_sim_total().as_secs();
    let total = session.total_sim_time().as_secs();
    assert!(total > 0.0);
    assert!(
        (phase_sum - total).abs() <= 1e-9 * total.max(1.0),
        "phase sum {phase_sum} != session total {total}"
    );
    // The span tree covers every stage of the pipeline.
    let names: HashSet<&str> = tr.spans.iter().map(|s| s.name.as_str()).collect();
    for required in [
        "db.copy",          // load
        "vft.db2darray",    // transfer
        "vft.export",       //   …server side
        "vft.convert",      //   …client side
        "ml.glm.fit",       // train
        "ml.glm.iteration", //   …per iteration
        "session.deploy",   // deploy
        "session.sql",      // predict
        "exec.statement",   //   …executor
        "exec.transform",   //   …prediction UDx
    ] {
        assert!(names.contains(required), "span '{required}' missing");
    }
    // Nesting: iterations under the fit, conversions under the transfer.
    let fit = tr.spans.iter().find(|s| s.name == "ml.glm.fit").unwrap();
    assert!(tr
        .spans
        .iter()
        .any(|s| s.name == "ml.glm.iteration" && s.parent == fit.id));
    let xfer = tr.spans.iter().find(|s| s.name == "vft.db2darray").unwrap();
    assert!(tr
        .spans
        .iter()
        .any(|s| s.name == "vft.convert" && s.parent == xfer.id));
    // Worker-side spans carry node labels.
    assert!(tr
        .spans
        .iter()
        .filter(|s| s.name == "vft.convert")
        .all(|s| s.node.is_some()));

    // `TRACE <stmt>` returns the statement's span tree over SQL: spans from
    // several nodes, every one under the traced statement's query id.
    // Columns: span_id, parent_id, query_id, name, node, ...
    let traced = session
        .sql("TRACE SELECT a, b FROM mytable WHERE b >= 0.0")
        .unwrap();
    assert!(traced.batch.num_rows() > 0);
    let mut trace_nodes = BTreeSet::new();
    for r in 0..traced.batch.num_rows() {
        let row = traced.batch.row(r);
        assert_eq!(
            row[2],
            vertica_dr::columnar::Value::Int64(traced.query_id as i64),
            "span row {row:?} not attributed to the traced statement"
        );
        if let vertica_dr::columnar::Value::Int64(node) = row[4] {
            trace_nodes.insert(node);
        }
    }
    assert!(
        trace_nodes.len() >= 2,
        "TRACE shows work on several nodes: {trace_nodes:?}"
    );

    // The exported Chrome trace parses, reconstructs a distributed
    // statement as one tree (several node pids under one query id), and
    // covers the transfer path.
    let path = std::env::temp_dir().join(format!("vdr_obs_trace_{}.json", std::process::id()));
    session.export_trace(&path).unwrap();
    let doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).ok();
    let complete: Vec<&serde_json::Value> = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .unwrap()
        .iter()
        .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("X"))
        .collect();
    assert!(!complete.is_empty(), "trace has complete events");
    let mut nodes_by_query: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for ev in &complete {
        let pid = ev.get("pid").and_then(|v| v.as_u64());
        let qid = ev
            .get("args")
            .and_then(|a| a.get("query_id"))
            .and_then(|v| v.as_u64());
        if let (Some(pid), Some(qid)) = (pid, qid) {
            if pid > 0 && qid > 0 {
                nodes_by_query.entry(qid).or_default().insert(pid);
            }
        }
    }
    assert!(
        nodes_by_query
            .get(&traced.query_id)
            .is_some_and(|n| n.len() >= 2),
        "the traced statement spans several node pids: {nodes_by_query:?}"
    );
    assert!(
        complete.iter().any(|e| e
            .get("name")
            .and_then(|v| v.as_str())
            .is_some_and(|n| n.starts_with("vft."))),
        "transfer spans exported"
    );

    // Rendering and JSON export.
    let text = tr.render_with(Verbosity::Trace);
    assert!(text.contains("Simulated phase breakdown"));
    assert!(text.contains("ml.glm.fit"));
    let json = tr.to_json();
    assert!(json.get("phases").and_then(|p| p.as_array()).is_some());
    assert!(json.get("spans").and_then(|s| s.as_array()).is_some());

    // Session teardown returns the YARN containers.
    let before_drop = vertica_dr::obs::global().metrics().snapshot();
    drop(session);
    let released = vertica_dr::obs::global()
        .metrics()
        .snapshot()
        .diff(&before_drop)
        .counter_total("yarn.container.released");
    assert!(
        released >= 5,
        "expected ≥5 containers released, got {released}"
    );
}
