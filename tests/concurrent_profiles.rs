//! Telemetry is attributed where it is recorded: a statement's `PROFILE`
//! rows and `TRACE` spans hold its own work, whatever else the process runs
//! at the same time. Two databases share one process here, as two tenants
//! of one host would; each statement's counters must still equal its own
//! table's rows.

#![allow(clippy::disallowed_methods)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use vertica_dr::cluster::SimCluster;
use vertica_dr::columnar::{Batch, Column, DataType, Schema, Value};
use vertica_dr::verticadb::{Segmentation, TableDef, VerticaDb};

const NODES: usize = 3;

fn db_with_table(rows: usize) -> Arc<VerticaDb> {
    let db = VerticaDb::new(SimCluster::for_tests(NODES));
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

fn text(v: &Value) -> &str {
    match v {
        Value::Varchar(s) => s,
        other => panic!("expected Varchar, got {other:?}"),
    }
}

/// The sum over nodes of counter `name` in a `PROFILE` result.
fn profiled(batch: &Batch, name: &str) -> f64 {
    let rows = (0..batch.num_rows()).map(|r| batch.row(r));
    let rows = rows.filter(|r| text(&r[1]) == "counter" && text(&r[2]) == name);
    rows.map(|r| match r[4] {
        Value::Float64(v) => v,
        ref other => panic!("expected Float64, got {other:?}"),
    })
    .sum()
}

/// Sets its flag when dropped, on return and on unwind alike.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Scan `db` in a loop on another thread while `f` runs here. The scanner
/// stops however `f` ends, so a panicking `f` fails the test, not hangs it.
fn while_scanning<T>(db: &Arc<VerticaDb>, f: impl FnOnce() -> T) -> T {
    let done = AtomicBool::new(false);
    let started = Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            started.wait();
            while !done.load(Ordering::Relaxed) {
                db.query("SELECT a, b FROM samples WHERE a >= 0.0").unwrap();
            }
        });
        started.wait();
        let _stop = SetOnDrop(&done);
        f()
    })
}

/// `PROFILE` in a loop on one database while another database scans: every
/// profile counts its own 2,000 rows, none of the other's 50,000.
#[test]
fn profiles_count_only_their_own_statement_while_another_database_scans() {
    let small = db_with_table(2_000);
    let big = db_with_table(50_000);
    let polluted: Vec<f64> = while_scanning(&big, || {
        (0..60)
            .map(|_| {
                let out = small.query("PROFILE SELECT a, b FROM samples").unwrap();
                profiled(&out.batch, "exec.scan.rows")
            })
            .filter(|&rows| rows != 2_000.0)
            .collect()
    });
    assert!(
        polluted.is_empty(),
        "profiles off their own rows: {polluted:?}"
    );
}

/// A `TRACE` on one database overlapping a `PROFILE` on another: each
/// keeps its own spans and rows. The trace holds one statement span and
/// one scan span per node, every one under its own query id; the profile
/// counts its own table. Both loops only collect, so a failure on one side
/// cannot leave the other waiting at the barrier.
#[test]
fn overlapping_trace_and_profile_keep_their_own_spans_and_rows() {
    let traced = db_with_table(3_000);
    let profiled_db = db_with_table(20_000);
    let rounds = 20;
    let start = Barrier::new(2);
    let (traces, profiles) = std::thread::scope(|s| {
        let profiles = s.spawn(|| {
            let profile = || {
                start.wait();
                let sql = "PROFILE SELECT a, b FROM samples WHERE b >= 0.0";
                profiled_db.query(sql).map(|out| out.batch)
            };
            (0..rounds).map(|_| profile()).collect::<Vec<_>>()
        });
        let trace = || {
            start.wait();
            traced.query("TRACE SELECT a, b FROM samples WHERE b >= 0.0")
        };
        let traces: Vec<_> = (0..rounds).map(|_| trace()).collect();
        (traces, profiles.join().unwrap())
    });
    for out in profiles {
        assert_eq!(profiled(&out.unwrap(), "exec.scan.rows"), 20_000.0);
    }
    for out in traces {
        let out = out.unwrap();
        let spans: Vec<Vec<Value>> = (0..out.batch.num_rows())
            .map(|r| out.batch.row(r))
            .collect();
        let names: Vec<&str> = spans.iter().map(|r| text(&r[3])).collect();
        for span in &spans {
            assert_eq!(span[2], Value::Int64(out.query_id as i64));
        }
        let count = |name: &str| names.iter().filter(|&&n| n == name).count();
        assert_eq!(count("exec.select"), 1, "{names:?}");
        assert_eq!(count("exec.scan"), NODES, "{names:?}");
    }
}
