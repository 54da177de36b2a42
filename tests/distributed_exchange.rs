//! Acceptance tests for the distributed exchange layer: shuffled and
//! co-located hash JOINs agree with a single-node reference executor,
//! shuffled two-phase GROUP BY agrees with the initiator-merge path, and the
//! `exchange.*` counters prove payloads actually crossed the wire (and that
//! dictionary/RLE shuffle columns stayed encoded until the receiver).

use std::sync::{Arc, Mutex, OnceLock};
use vertica_dr::cluster::SimCluster;
use vertica_dr::columnar::{Batch, Column, DataType, Schema, Value};
use vertica_dr::verticadb::{Segmentation, TableDef, VerticaDb};

/// The metrics registry is process-global, so every test here serializes on
/// this lock — any concurrently running query would bleed into another
/// test's counter diff.
fn metrics_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Deterministic LCG so "random" tables are reproducible.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// fact(k Int64 runny, tag Varchar low-cardinality, v Float64) and
/// dim(k Int64, name Varchar, w Float64) with `dim_keys` distinct keys; fact
/// rows draw keys from `0..fact_key_range` so some may dangle (LEFT JOIN
/// coverage when `fact_key_range > dim_keys`).
fn make_db(
    nodes: usize,
    fact_rows: usize,
    dim_keys: usize,
    fact_key_range: u64,
    fact_seg: Segmentation,
    dim_seg: Segmentation,
    seed: u64,
) -> Arc<VerticaDb> {
    let db = VerticaDb::new(SimCluster::for_tests(nodes));
    let fact_schema = Schema::of(&[
        ("k", DataType::Int64),
        ("tag", DataType::Varchar),
        ("v", DataType::Float64),
    ]);
    let dim_schema = Schema::of(&[
        ("k", DataType::Int64),
        ("name", DataType::Varchar),
        ("w", DataType::Float64),
    ]);
    db.create_table(TableDef {
        name: "fact".into(),
        schema: fact_schema.clone(),
        segmentation: fact_seg,
    })
    .unwrap();
    db.create_table(TableDef {
        name: "dim".into(),
        schema: dim_schema.clone(),
        segmentation: dim_seg,
    })
    .unwrap();

    let mut rng = Lcg(seed);
    // Runs of 40 identical keys keep the column RLE-friendly even after the
    // shuffle splits it by hash.
    let mut ks = Vec::with_capacity(fact_rows);
    let mut run_key = rng.below(fact_key_range) as i64;
    for i in 0..fact_rows {
        if i % 40 == 0 {
            run_key = rng.below(fact_key_range) as i64;
        }
        ks.push(run_key);
    }
    let tags: Vec<String> = (0..fact_rows)
        .map(|_| format!("t{}", rng.below(3)))
        .collect();
    let vs: Vec<f64> = (0..fact_rows).map(|_| rng.below(1000) as f64).collect();
    db.copy(
        "fact",
        vec![Batch::new(
            fact_schema,
            vec![
                Column::from_i64(ks),
                Column::from_strings(tags),
                Column::from_f64(vs),
            ],
        )
        .unwrap()],
    )
    .unwrap();

    let dks: Vec<i64> = (0..dim_keys as i64).collect();
    let names: Vec<String> = dks.iter().map(|k| format!("name{}", k % 7)).collect();
    let ws: Vec<f64> = dks.iter().map(|k| (*k as f64) * 0.5).collect();
    db.copy(
        "dim",
        vec![Batch::new(
            dim_schema,
            vec![
                Column::from_i64(dks),
                Column::from_strings(names),
                Column::from_f64(ws),
            ],
        )
        .unwrap()],
    )
    .unwrap();
    db
}

/// Render a batch as an order-independent sorted multiset of rows. Floats
/// are rounded to 3 decimals: distributed SUMs add in a different order than
/// a single node's, so the last few ulps legitimately differ.
fn rows_sorted(b: &Batch) -> Vec<String> {
    let ncols = b.schema().fields().len();
    let mut rows: Vec<String> = (0..b.num_rows())
        .map(|i| {
            (0..ncols)
                .map(|c| match b.column(c).get(i) {
                    Value::Float64(x) => format!("f{x:.3}"),
                    other => format!("{other:?}"),
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    rows.sort();
    rows
}

fn header(b: &Batch) -> Vec<String> {
    b.schema().fields().iter().map(|f| f.name.clone()).collect()
}

const JOIN_QUERIES: &[&str] = &[
    "SELECT f.k, f.tag, f.v, d.name, d.w FROM fact f JOIN dim d ON f.k = d.k",
    "SELECT f.k, d.w FROM fact f INNER JOIN dim d ON f.k = d.k WHERE d.w > 4.0",
    "SELECT f.k, f.v, d.name FROM fact f LEFT JOIN dim d ON f.k = d.k",
    "SELECT d.name, COUNT(*), SUM(f.v) FROM fact f JOIN dim d ON f.k = d.k \
     GROUP BY d.name ORDER BY d.name",
    "SELECT tag, COUNT(*) FROM fact f LEFT OUTER JOIN dim d ON f.k = d.k \
     WHERE d.name IS NULL GROUP BY tag",
];

/// Shuffled JOINs (both sides round-robin segmented: neither co-located) on a
/// 3-node cluster return exactly what a single-node executor returns.
#[test]
fn shuffled_join_matches_single_node_reference() {
    let _guard = metrics_lock();
    for seed in [7, 1234] {
        let multi = make_db(
            3,
            4000,
            60,
            90,
            Segmentation::RoundRobin,
            Segmentation::RoundRobin,
            seed,
        );
        let single = make_db(
            1,
            4000,
            60,
            90,
            Segmentation::RoundRobin,
            Segmentation::RoundRobin,
            seed,
        );
        for q in JOIN_QUERIES {
            let a = multi.query(q).unwrap().batch;
            let b = single.query(q).unwrap().batch;
            assert_eq!(header(&a), header(&b), "schema mismatch for {q}");
            assert_eq!(rows_sorted(&a), rows_sorted(&b), "rows mismatch for {q}");
            assert!(a.num_rows() > 0, "degenerate test: no rows for {q}");
        }
    }
}

/// Hash-segmenting both sides on the join key takes the co-located path: same
/// answers, and *no* exchange traffic.
#[test]
fn colocated_join_matches_without_exchange() {
    let _guard = metrics_lock();
    let multi = make_db(
        3,
        3000,
        50,
        50,
        Segmentation::Hash { column: "k".into() },
        Segmentation::Hash { column: "k".into() },
        99,
    );
    let single = make_db(
        1,
        3000,
        50,
        50,
        Segmentation::RoundRobin,
        Segmentation::RoundRobin,
        99,
    );
    let before = vertica_dr::obs::global().metrics().snapshot();
    for q in &JOIN_QUERIES[..3] {
        // The GROUP BY queries are excluded: their *aggregation* stage
        // legitimately shuffles partials even when the join is co-located.
        let a = multi.query(q).unwrap().batch;
        let b = single.query(q).unwrap().batch;
        assert_eq!(rows_sorted(&a), rows_sorted(&b), "rows mismatch for {q}");
    }
    let delta = vertica_dr::obs::global().metrics().snapshot().diff(&before);
    assert_eq!(
        delta.counter_total("exchange.rows"),
        0,
        "co-located JOIN must not shuffle rows"
    );
    for q in &JOIN_QUERIES[3..] {
        let a = multi.query(q).unwrap().batch;
        let b = single.query(q).unwrap().batch;
        assert_eq!(rows_sorted(&a), rows_sorted(&b), "rows mismatch for {q}");
    }
}

/// A shuffled JOIN emits the exchange counters, and the dictionary/RLE
/// columns of the shipped side stay encoded across the wire (decoded late on
/// the receiver), observable as `exchange.encoded_cols`.
#[test]
fn shuffled_join_emits_exchange_counters() {
    let _guard = metrics_lock();
    let db = make_db(
        3,
        6000,
        40,
        40,
        Segmentation::RoundRobin,
        Segmentation::Hash { column: "k".into() },
        5,
    );
    let before = vertica_dr::obs::global().metrics().snapshot();
    let out = db
        .query("SELECT f.k, f.tag, f.v, d.w FROM fact f JOIN dim d ON f.k = d.k")
        .unwrap()
        .batch;
    assert!(out.num_rows() > 0);
    let delta = vertica_dr::obs::global().metrics().snapshot().diff(&before);
    assert!(
        delta.counter_total("exchange.rows") > 0,
        "no rows exchanged"
    );
    assert!(
        delta.counter_total("exchange.bytes") > 0,
        "no bytes exchanged"
    );
    assert!(
        delta.counter_total("exchange.frames") > 0,
        "no frames exchanged"
    );
    assert!(
        delta.counter_total("exchange.encoded_cols") > 0,
        "dict/RLE columns should stay encoded across the wire"
    );
    assert_eq!(
        delta.counter_total("exec.join.output_rows"),
        out.num_rows() as u64,
        "every joined row is counted where it was produced"
    );
    // Per-node attribution: receive-side counters are labelled by node, so a
    // PROFILE-style drill-down sees every node's share, not one initiator row.
    let by_node = delta.counter_by_node("exchange.rows");
    assert!(
        by_node.keys().filter(|n| n.is_some()).count() >= 2,
        "exchange.rows should be attributed to multiple nodes, got {by_node:?}"
    );
}

/// PROFILE on a distributed JOIN surfaces per-node work for both sides of
/// the exchange (build and probe), not just the initiator.
#[test]
fn profile_attributes_join_work_to_all_nodes() {
    let _guard = metrics_lock();
    let db = make_db(
        3,
        3000,
        50,
        80,
        Segmentation::RoundRobin,
        Segmentation::RoundRobin,
        21,
    );
    let prof = db
        .query("PROFILE SELECT f.k, d.w FROM fact f JOIN dim d ON f.k = d.k")
        .unwrap()
        .batch;
    let node_col = prof.schema().index_of("node").expect("node column");
    let mut nodes: Vec<String> = (0..prof.num_rows())
        .map(|i| format!("{:?}", prof.column(node_col).get(i)))
        .collect();
    nodes.sort();
    nodes.dedup();
    assert!(
        nodes.len() >= 3,
        "PROFILE should show work on every node, got {nodes:?}"
    );
}

/// Shuffled two-phase GROUP BY (group key ≠ segmentation key) returns the
/// same groups as a single-node run, whose one partial the initiator merges,
/// and actually exchanges partial states.
#[test]
fn shuffled_group_by_matches_initiator_merge() {
    let _guard = metrics_lock();
    let q = "SELECT k, COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM fact GROUP BY k ORDER BY k";
    let multi = make_db(
        3,
        8000,
        1,
        500,
        Segmentation::RoundRobin,
        Segmentation::RoundRobin,
        42,
    );
    let single = make_db(
        1,
        8000,
        1,
        500,
        Segmentation::RoundRobin,
        Segmentation::RoundRobin,
        42,
    );

    let before = vertica_dr::obs::global().metrics().snapshot();
    let shuffled = multi.query(q).unwrap().batch;
    let delta = vertica_dr::obs::global().metrics().snapshot().diff(&before);
    assert!(
        delta.counter_total("exec.groupby.shuffled") > 0,
        "expected the shuffled GROUP BY path"
    );
    assert!(delta.counter_total("exchange.rows") > 0);

    // One node merges its own partial on the initiator: no exchange.
    let reference = single.query(q).unwrap().batch;

    assert_eq!(rows_sorted(&shuffled), rows_sorted(&reference));
    assert!(shuffled.num_rows() > 100, "want many groups");
}

/// GROUP BY on the segmentation key is already node-disjoint — the planner
/// must skip the shuffle.
#[test]
fn seg_aligned_group_by_skips_shuffle() {
    let _guard = metrics_lock();
    let db = make_db(
        3,
        4000,
        1,
        200,
        Segmentation::Hash { column: "k".into() },
        Segmentation::RoundRobin,
        17,
    );
    let before = vertica_dr::obs::global().metrics().snapshot();
    let out = db
        .query("SELECT k, COUNT(*), SUM(v) FROM fact GROUP BY k ORDER BY k")
        .unwrap()
        .batch;
    assert!(out.num_rows() > 0);
    let delta = vertica_dr::obs::global().metrics().snapshot().diff(&before);
    assert_eq!(
        delta.counter_total("exec.groupby.shuffled"),
        0,
        "segmentation-aligned GROUP BY must not shuffle"
    );
}

/// COUNT(DISTINCT …) partial states carry their distinct sets through the
/// exchange intact.
#[test]
fn shuffled_group_by_count_distinct() {
    let _guard = metrics_lock();
    let q = "SELECT tag, COUNT(DISTINCT k) FROM fact GROUP BY tag ORDER BY tag";
    let multi = make_db(
        3,
        5000,
        1,
        70,
        Segmentation::RoundRobin,
        Segmentation::RoundRobin,
        8,
    );
    let single = make_db(
        1,
        5000,
        1,
        70,
        Segmentation::RoundRobin,
        Segmentation::RoundRobin,
        8,
    );
    let a = multi.query(q).unwrap().batch;
    let b = single.query(q).unwrap().batch;
    assert_eq!(rows_sorted(&a), rows_sorted(&b));
}

/// Qualification errors are reported, not silently mis-bound.
#[test]
fn join_name_resolution_errors() {
    let _guard = metrics_lock();
    let db = make_db(
        2,
        100,
        10,
        10,
        Segmentation::RoundRobin,
        Segmentation::RoundRobin,
        1,
    );
    // `k` exists on both sides: bare use must be rejected as ambiguous.
    let err = db
        .query("SELECT k FROM fact f JOIN dim d ON f.k = d.k")
        .unwrap_err()
        .to_string();
    assert!(err.contains("ambiguous"), "got: {err}");
    let err = db
        .query("SELECT f.nope FROM fact f JOIN dim d ON f.k = d.k")
        .unwrap_err()
        .to_string();
    assert!(err.contains("unknown column"), "got: {err}");
}
