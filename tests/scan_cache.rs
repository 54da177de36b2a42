//! Acceptance tests for the scan path: projection pushdown decodes only the
//! referenced columns (observable through `exec.scan.cols_skipped`), a
//! repeated scan is served from the block cache with zero decode CPU
//! (observable through the ledger), the cache holds columns, so narrower
//! and wider projections hit by column, and it invalidates on append, drop,
//! and re-create. Then the readers a wider cached scan used to trip: a JOIN
//! side, and a `PARTITION BY` routed on a run-length encoded column.
//!
//! Each step reads its own statements' metric deltas from the database's
//! query history, so the counter arithmetic stays exact while other tests
//! run.

use std::collections::BTreeMap;
use std::sync::Arc;
use vertica_dr::cluster::{NodeId, SimCluster};
use vertica_dr::columnar::encoding::Encoding;
use vertica_dr::columnar::{Batch, Column, DataType, Field, Schema, Value};
use vertica_dr::core::{Session, SessionOptions};
use vertica_dr::obs::MetricsSnapshot;
use vertica_dr::verticadb::{
    QueryOutput, QueryRecord, Result, Segmentation, TableDef, TransformFunction, UdxContext,
    VerticaDb,
};

/// The metric deltas `db` recorded for `outputs`' statements, merged.
fn delta_of(db: &VerticaDb, outputs: &[&QueryOutput]) -> MetricsSnapshot {
    let history = db.monitor().history().snapshot();
    let ids: Vec<u64> = outputs.iter().map(|out| out.query_id).collect();
    let own: Vec<_> = history.iter().filter(|r| ids.contains(&r.id)).collect();
    assert_eq!(own.len(), ids.len(), "every statement is in the history");
    let merge = |acc: MetricsSnapshot, r: &&QueryRecord| acc.merge(&r.metrics_delta);
    own.iter().fold(MetricsSnapshot::default(), merge)
}

const NODES: u64 = 3;
const ROWS: i64 = 300;
const COLS: u64 = 6; // id + a..e

fn wide_batch(rows: i64) -> Batch {
    let f = |scale: f64| Column::from_f64((0..rows).map(|i| i as f64 * scale).collect());
    Batch::new(
        Schema::of(&[
            ("id", DataType::Int64),
            ("a", DataType::Float64),
            ("b", DataType::Float64),
            ("c", DataType::Float64),
            ("d", DataType::Float64),
            ("e", DataType::Float64),
        ]),
        vec![
            Column::from_i64((0..rows).collect()),
            f(1.0),
            f(2.0),
            f(3.0),
            f(4.0),
            f(5.0),
        ],
    )
    .unwrap()
}

#[test]
fn projection_skips_columns_and_cache_skips_decode() {
    let db = VerticaDb::new(SimCluster::for_tests(NODES as usize));
    db.create_table(TableDef {
        name: "w".into(),
        schema: wide_batch(1).schema().clone(),
        segmentation: Segmentation::RoundRobin,
    })
    .unwrap();
    db.copy("w", vec![wide_batch(ROWS)]).unwrap();

    let session = Session::connect_colocated(Arc::clone(&db), SessionOptions::default()).unwrap();
    let narrow = "SELECT sum(a) FROM w";
    let expected_sum = Value::Float64((0..ROWS).map(|i| i as f64).sum());

    // ---- cold narrow query: 1-of-6 columns decoded per container. One
    // container per node, so 5 skipped columns per node.
    let cold = session.sql(narrow).unwrap();
    assert_eq!(cold.batch.row(0)[0], expected_sum);
    let m1 = delta_of(&db, &[&cold]);
    assert_eq!(
        m1.counter_total("exec.scan.cols_skipped"),
        (COLS - 1) * NODES
    );
    assert_eq!(m1.counter_total("scan.cache.miss"), NODES);
    assert_eq!(m1.counter_total("scan.cache.hit"), 0);
    assert!(
        m1.histogram_total("scan.decode.ns_per_value").is_some(),
        "decode throughput must be observable"
    );

    // ---- warm narrow query: pure cache hits — no decode at all, so no
    // skip counting, and the ledger charges zero CPU but still a cached
    // re-read of every container.
    let warm = session.sql(narrow).unwrap();
    assert_eq!(warm.batch.row(0)[0], expected_sum);
    let delta = delta_of(&db, &[&warm]);
    assert_eq!(delta.counter_total("scan.cache.hit"), NODES);
    assert_eq!(delta.counter_total("scan.cache.miss"), 0);
    assert_eq!(delta.counter_total("exec.scan.cols_skipped"), 0);
    let selects: Vec<_> = session
        .ledger()
        .reports()
        .into_iter()
        .filter(|r| r.name == "sql SELECT")
        .collect();
    assert_eq!(selects.len(), 2);
    assert_eq!(
        selects[1].total_cpu_core_ns, 0.0,
        "a fully cached scan must not charge decode CPU"
    );
    assert!(selects[1].total_cpu_core_ns < selects[0].total_cpu_core_ns);
    assert!(
        selects[1].total_disk_read > 0,
        "cache hits still pay the memory-speed re-read"
    );
    assert!(warm.sim_time <= cold.sim_time);

    // ---- SELECT *: every container holds `a` but not the other five
    // columns, so each misses and decodes only those five.
    let star = session.sql("SELECT * FROM w").unwrap();
    assert_eq!(star.batch.num_rows(), ROWS as usize);
    let delta = delta_of(&db, &[&star]);
    assert_eq!(delta.counter_total("scan.cache.miss"), NODES);
    assert_eq!(delta.counter_total("exec.scan.cols_skipped"), 0);
    let decoded = |report: &vertica_dr::cluster::PhaseReport| {
        let per_value = db.cluster().profile().costs.db_scan_ns_per_value;
        report.total_cpu_core_ns / per_value
    };
    let reports = session.ledger().reports();
    let star_report = reports.last().unwrap();
    assert_eq!(decoded(star_report), ((COLS - 1) * ROWS as u64) as f64);

    // ---- narrow again: every column is resident.
    let again = session.sql(narrow).unwrap();
    let delta = delta_of(&db, &[&again]);
    assert_eq!(delta.counter_total("scan.cache.hit"), NODES);
    assert_eq!(delta.counter_total("scan.cache.miss"), 0);

    // ---- append: the new container misses while the old ones still hit.
    let insert = session
        .sql("INSERT INTO w VALUES (999, 1.5, 0.0, 0.0, 0.0, 0.0)")
        .unwrap();
    let appended = session.sql(narrow).unwrap();
    assert_eq!(
        appended.batch.row(0)[0],
        Value::Float64((0..ROWS).map(|i| i as f64).sum::<f64>() + 1.5)
    );
    let delta = delta_of(&db, &[&insert, &appended]);
    assert_eq!(delta.counter_total("scan.cache.hit"), NODES);
    assert_eq!(delta.counter_total("scan.cache.miss"), 1);
    assert_eq!(delta.counter_total("exec.scan.cols_skipped"), COLS - 1);

    // ---- drop: every cached entry for the table is purged (one per
    // container: 3 full + 1 narrow from the append).
    let dropped = session.sql("DROP TABLE w").unwrap();
    let delta = delta_of(&db, &[&dropped]);
    assert_eq!(delta.counter_total("scan.cache.invalidated"), NODES + 1);
    assert!(db.storage().block_cache().is_empty());

    // ---- re-create under the same name with different data: container
    // paths repeat from c000000, yet no stale batch may survive.
    db.create_table(TableDef {
        name: "w".into(),
        schema: wide_batch(1).schema().clone(),
        segmentation: Segmentation::RoundRobin,
    })
    .unwrap();
    db.copy("w", vec![wide_batch(30)]).unwrap();
    let fresh = session.sql(narrow).unwrap();
    assert_eq!(
        fresh.batch.row(0)[0],
        Value::Float64((0..30).map(|i| i as f64).sum())
    );
}

/// A JOIN after `SELECT *` of both its sides warmed the cache with every
/// column: each side still ships exactly its planned columns (the exchange
/// refuses any other schema, and moves the bytes a cold run moves), two of
/// each side's columns are read, a node with an empty segment ships the
/// same schema, and the answer is the cold one.
#[test]
fn join_after_select_star_ships_its_planned_schema() {
    let sql = "SELECT count(*), sum(t.x), sum(d.w) FROM t JOIN d ON t.i = d.i";
    let run = |warm: bool| {
        // Five nodes, three `t` rows: two nodes hold no segment of it, and
        // `d` is too big to broadcast, so both sides shuffle.
        let db = VerticaDb::new(SimCluster::for_tests(5));
        db.query("CREATE TABLE t (i INTEGER, f FLOAT, x FLOAT, tag VARCHAR)")
            .unwrap();
        db.query("CREATE TABLE d (i INTEGER, w FLOAT, note VARCHAR)")
            .unwrap();
        db.query("INSERT INTO t VALUES (1, 1.0, 2.0, 'a'), (2, 1.0, 3.0, 'b'), (1, 0.5, 4.0, 'c')")
            .unwrap();
        db.query("INSERT INTO d VALUES (1, 5.0, 'p'), (2, 7.0, 'q'), (3, 9.0, 'r'), (1, 0.5, 's')")
            .unwrap();
        if warm {
            db.query("SELECT * FROM t").unwrap();
            db.query("SELECT * FROM d").unwrap();
        }
        let plan = db.query(&format!("EXPLAIN {sql}")).unwrap().batch;
        let strategy = (0..plan.num_rows()).map(|r| plan.row(r)[2].to_string());
        assert!(strategy.into_iter().any(|d| d.contains("shuffle_both")));
        let out = db.query(sql).unwrap();
        let delta = delta_of(&db, &[&out]);
        let out = out.batch;
        let shipped = (
            delta.counter_total("exchange.rows"),
            delta.counter_total("exchange.bytes"),
        );
        (out.row(0), shipped)
    };
    let (cold, cold_shipped) = run(false);
    let want = vec![Value::Int64(5), Value::Float64(15.0), Value::Float64(18.0)];
    assert_eq!(cold, want);
    assert_eq!(cold_shipped.0, 7, "every row of both sides moves once");
    assert_eq!(run(true), (cold, cold_shipped));
}

/// Tags every row it receives with the UDx instance it ran on.
struct InstanceOf;

impl TransformFunction for InstanceOf {
    fn name(&self) -> &str {
        "InstanceOf"
    }

    fn output_schema(&self, input: &Schema, _: &BTreeMap<String, String>) -> Result<Schema> {
        let mut fields = vec![Field::new("instance", DataType::Int64)];
        fields.extend(input.fields().iter().cloned());
        Ok(Schema::new(fields))
    }

    fn process_partition(
        &self,
        ctx: &UdxContext<'_>,
        input: Vec<Batch>,
        emit: &mut dyn FnMut(Batch),
    ) -> Result<()> {
        for b in input {
            let schema = self.output_schema(b.schema(), ctx.params)?;
            let instance = Column::from_i64(vec![ctx.instance as i64; b.num_rows()]);
            let cols = std::iter::once(instance).chain(b.columns().iter().cloned());
            emit(Batch::new(schema, cols.collect())?);
        }
        Ok(())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// `PARTITION BY g` routes each row by its `g` value alone: with `g` stored
/// run-length encoded (sorted rows) the instances get the same rows as with
/// `g` stored plain (the same rows, interleaved), under a WHERE too.
#[test]
fn partition_by_an_rle_column_routes_as_a_plain_one() {
    let db = VerticaDb::new(SimCluster::for_tests(2));
    db.register_transform(Arc::new(InstanceOf));
    let schema = Schema::of(&[("id", DataType::Int64), ("g", DataType::Int64)]);
    let rows: Vec<(i64, i64)> = (0..2000).map(|i| (i, i / 100)).collect();
    let interleaved: Vec<(i64, i64)> = (0..2000).map(|i| rows[(i * 7) % 2000]).collect();
    for (name, rows) in [("sorted", &rows), ("mixed", &interleaved)] {
        db.create_table(TableDef {
            name: name.into(),
            schema: schema.clone(),
            segmentation: Segmentation::RoundRobin,
        })
        .unwrap();
        let cols = vec![
            Column::from_i64(rows.iter().map(|r| r.0).collect()),
            Column::from_i64(rows.iter().map(|r| r.1).collect()),
        ];
        db.copy(name, [Batch::new(schema.clone(), cols).unwrap()])
            .unwrap();
    }
    let encoding = |table: &str| {
        let containers = db.storage().containers(table, NodeId(0));
        let g = containers[0].columns.iter().find(|c| c.name == "g");
        g.unwrap().encoding
    };
    assert_eq!(encoding("sorted"), Encoding::Rle);
    assert_ne!(encoding("mixed"), Encoding::Rle);
    for filter in ["", " WHERE g < 12"] {
        let answer = |table: &str| {
            let sql =
                format!("SELECT InstanceOf(id, g) OVER (PARTITION BY g) FROM {table}{filter}");
            let out = db.query(&sql).unwrap().batch;
            let mut rows: Vec<Vec<Value>> = (0..out.num_rows()).map(|r| out.row(r)).collect();
            rows.sort_by_key(|r| r[1].as_i64());
            rows
        };
        let sorted = answer("sorted");
        assert_eq!(sorted.len(), if filter.is_empty() { 2000 } else { 1200 });
        let instances: std::collections::BTreeSet<_> =
            sorted.iter().map(|r| r[0].as_i64()).collect();
        assert!(instances.len() > 1, "rows spread over the instances");
        assert_eq!(sorted, answer("mixed"), "{filter}");
    }
}
