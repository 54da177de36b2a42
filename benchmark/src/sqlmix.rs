//! The ten SQL statement classes, their texts, and their result checks.
//!
//! The tables are persistent: `fact_rr` (round-robin) and `fact_seg` (hash on
//! `k`) hold the same rows, `dim_rr` / `dim_seg` hold one row per key, and
//! `dim_small` has 16 rows. One iteration runs every class once, in this
//! order. Each class is checked against the generator's expected answer.

use crate::gen::SqlInputs;
use std::sync::Arc;
use vertica_dr::columnar::{Batch, Value};
use vertica_dr::verticadb::{Segmentation, TableDef, VerticaDb};

pub struct Class {
    pub name: &'static str,
    /// Span name of one execution (`verticadb.stmt.<class>`).
    pub span: &'static str,
    /// Sample name of the statement's ledger-modeled milliseconds.
    pub sim: &'static str,
    /// Span name of one execution with the block cache capped (phase B).
    pub capped_span: &'static str,
    pub sql: &'static [&'static str],
}

macro_rules! class {
    ($name:literal, $($sql:literal),+) => {
        Class {
            name: $name,
            span: concat!("verticadb.stmt.", $name),
            sim: concat!("verticadb.stmt.", $name, ".sim"),
            capped_span: concat!("capped.", $name),
            sql: &[$($sql),+],
        }
    };
}

pub const CLASSES: [Class; 10] = [
    // Predicate on the run-length-encoded column: evaluated once per run.
    class!(
        "filter_rle",
        "SELECT count(*), sum(v) FROM fact_rr WHERE grp = 7"
    ),
    // Predicate on a plain float column: one comparison per row.
    class!(
        "filter_plain",
        "SELECT count(*), sum(v) FROM fact_rr WHERE v < 250.0"
    ),
    class!(
        "topn",
        "SELECT v, k FROM fact_rr ORDER BY v DESC, k LIMIT 10"
    ),
    // Dictionary GROUP BY: one slot per code.
    class!(
        "gb_dict",
        "SELECT tag, count(*), sum(v) FROM fact_rr GROUP BY tag"
    ),
    // High-cardinality GROUP BY off the segmentation key: shuffled.
    class!(
        "gb_high",
        "SELECT k, count(*), sum(v) FROM fact_rr GROUP BY k"
    ),
    class!(
        "gb_distinct",
        "SELECT k, count(DISTINCT tag), sum(v) FROM fact_rr GROUP BY k"
    ),
    // Neither side segmented on the key, dimension too big to broadcast.
    class!(
        "join_shuffle",
        "SELECT count(*), sum(f.v), sum(d.w) FROM fact_rr f JOIN dim_rr d ON f.k = d.k"
    ),
    // Both sides hash-segmented on the key: no bytes cross the exchange.
    class!(
        "join_coloc",
        "SELECT count(*), sum(f.v), sum(d.w) FROM fact_seg f JOIN dim_seg d ON f.k = d.k"
    ),
    class!(
        "join_bcast",
        "SELECT count(*), sum(d.weight) FROM fact_rr f JOIN dim_small d ON f.grp = d.grp"
    ),
    // The write path and cache-prefix invalidation beside the reads.
    class!(
        "ctas_drop",
        "CREATE TABLE ctas_tmp AS SELECT k, v FROM fact_rr WHERE grp = 3",
        "DROP TABLE ctas_tmp"
    ),
];

/// Statements one iteration of the mix executes.
pub const STATEMENTS_PER_ITERATION: usize = 11;

/// Classes re-run with the block cache capped below the table (phase B).
pub const CAPPED: [usize; 3] = [1, 3, 2];

pub const FILTER_FAMILY: [usize; 3] = [0, 1, 2];
pub const GROUPBY_FAMILY: [usize; 3] = [3, 4, 5];
pub const JOIN_FAMILY: [usize; 3] = [6, 7, 8];

/// Create and load the persistent tables.
pub fn load_tables(db: &Arc<VerticaDb>, sql: &SqlInputs) {
    let hash_k = || Segmentation::Hash { column: "k".into() };
    let tables = [
        ("fact_rr", &sql.fact_schema, Segmentation::RoundRobin),
        ("fact_seg", &sql.fact_schema, hash_k()),
        ("dim_rr", &sql.dim_schema, Segmentation::RoundRobin),
        ("dim_seg", &sql.dim_schema, hash_k()),
        ("dim_small", &sql.dim_small_schema, Segmentation::RoundRobin),
    ];
    for (name, schema, segmentation) in tables {
        db.create_table(TableDef {
            name: name.into(),
            schema: schema.clone(),
            segmentation,
        })
        .expect("fresh database has no such table");
        let batches: Vec<Batch> = match name {
            "fact_rr" | "fact_seg" => sql.fact_batches.clone(),
            "dim_small" => vec![sql.dim_small.clone()],
            _ => vec![sql.dim.clone()],
        };
        db.copy(name, batches).expect("load of generated rows");
    }
}

fn int(b: &Batch, col: usize, row: usize) -> Option<i64> {
    b.column(col).get(row).as_i64()
}

fn float(b: &Batch, col: usize, row: usize) -> Option<f64> {
    b.column(col).get(row).as_f64()
}

fn column_sum_f64(b: &Batch, col: usize) -> f64 {
    b.column(col).to_f64_cow().iter().sum()
}

/// Whether `out` is the expected answer of class `idx`. For `ctas_drop`,
/// `out` is unused: the caller passes the row count the CTAS stored.
pub fn verify(idx: usize, out: &Batch, sql: &SqlInputs) -> bool {
    let e = &sql.expect;
    let n = sql.rows as i64;
    let scalar_row = out.num_rows() == 1;
    match CLASSES[idx].name {
        "filter_rle" => {
            scalar_row
                && int(out, 0, 0) == Some(e.filter_rle.0)
                && float(out, 1, 0) == Some(e.filter_rle.1)
        }
        "filter_plain" => {
            scalar_row
                && int(out, 0, 0) == Some(e.filter_plain.0)
                && float(out, 1, 0) == Some(e.filter_plain.1)
        }
        "topn" => {
            out.num_rows() == e.topn.len()
                && e.topn
                    .iter()
                    .enumerate()
                    .all(|(r, (v, k))| float(out, 0, r) == Some(*v) && int(out, 1, r) == Some(*k))
        }
        "gb_dict" => {
            let mut rows: Vec<(String, i64, f64)> = (0..out.num_rows())
                .filter_map(|r| match out.column(0).get(r) {
                    Value::Varchar(tag) => Some((tag, int(out, 1, r)?, float(out, 2, r)?)),
                    _ => None,
                })
                .collect();
            rows.sort_by(|a, b| a.0.cmp(&b.0));
            rows == e.gb_dict
        }
        "gb_high" => {
            out.num_rows() == sql.keys
                && column_sum_f64(out, 1) == n as f64
                && column_sum_f64(out, 2) == e.total_sum_v
        }
        "gb_distinct" => {
            out.num_rows() == sql.keys
                && column_sum_f64(out, 1) == e.distinct_tags_total as f64
                && column_sum_f64(out, 2) == e.total_sum_v
        }
        "join_shuffle" | "join_coloc" => {
            scalar_row
                && int(out, 0, 0) == Some(n)
                && float(out, 1, 0) == Some(e.total_sum_v)
                && float(out, 2, 0) == Some(e.join_sum_w)
        }
        "join_bcast" => {
            scalar_row
                && int(out, 0, 0) == Some(n)
                && float(out, 1, 0) == Some(e.join_small_sum_weight)
        }
        other => unreachable!("class {other} is checked by its stored row count"),
    }
}
