//! Differential oracle for aggregation: the engine's answer to a GROUP BY
//! must equal a row-at-a-time reference over `Vec<Vec<Value>>` — no
//! segmentation, no encoding, no exchange — whatever the node count, the
//! segmentation, and the database's two `ExecOptions`. Plus the regressions that
//! came with the columnar aggregator: Int64 compared as integers, and
//! aggregate output dtypes that come from the plan, not from the data.

use proptest::prelude::*;
use std::cmp::Ordering;
use std::sync::Arc;
use vertica_dr::cluster::SimCluster;
use vertica_dr::columnar::{Batch, DataType, Schema, Value};
use vertica_dr::verticadb::{ExecOptions, Segmentation, TableDef, VerticaDb};

// ------------------------------------------------------------- reference

#[derive(Clone, Copy, Debug)]
enum Func {
    CountStar,
    Count,
    Sum,
    Avg,
    Min,
    Max,
    CountDistinct,
}

/// Key / DISTINCT equality: NULL equals NULL, floats by bit pattern.
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float64(x), Value::Float64(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Total order within one type, NULL last.
fn order(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Null, Value::Null) => Ordering::Equal,
        (Value::Null, _) => Ordering::Greater,
        (_, Value::Null) => Ordering::Less,
        (Value::Int64(x), Value::Int64(y)) => x.cmp(y),
        (Value::Float64(x), Value::Float64(y)) => x.total_cmp(y),
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::Varchar(x), Value::Varchar(y)) => x.cmp(y),
        _ => panic!("mixed types in one column: {a:?} vs {b:?}"),
    }
}

fn order_rows(a: &[Value], b: &[Value]) -> Ordering {
    a.iter()
        .zip(b)
        .map(|(x, y)| order(x, y))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// `SELECT keys.., aggs.. FROM rows GROUP BY keys`, one row at a time.
fn reference(rows: &[Vec<Value>], keys: &[usize], aggs: &[(Func, usize)]) -> Vec<Vec<Value>> {
    let mut groups: Vec<(Vec<Value>, Vec<&Vec<Value>>)> = Vec::new();
    if keys.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }
    for row in rows {
        let key: Vec<Value> = keys.iter().map(|&k| row[k].clone()).collect();
        match groups
            .iter_mut()
            .find(|(k, _)| k.iter().zip(&key).all(|(a, b)| same(a, b)))
        {
            Some((_, members)) => members.push(row),
            None => groups.push((key, vec![row])),
        }
    }
    groups.sort_by(|(a, _), (b, _)| order_rows(a, b));
    let finish = |members: &[&Vec<Value>], (func, col): (Func, usize)| -> Value {
        let vals: Vec<&Value> = members
            .iter()
            .map(|r| &r[col])
            .filter(|v| !v.is_null())
            .collect();
        let sum = || vals.iter().map(|v| v.as_f64().unwrap_or(0.0)).sum::<f64>();
        let best = |want: Ordering| {
            let mut best: Option<&Value> = None;
            for &v in &vals {
                if best.is_none_or(|b| order(v, b) == want) {
                    best = Some(v);
                }
            }
            best.cloned().unwrap_or(Value::Null)
        };
        match func {
            Func::CountStar => Value::Int64(members.len() as i64),
            Func::Count => Value::Int64(vals.len() as i64),
            Func::Sum if vals.is_empty() => Value::Null,
            Func::Avg if vals.is_empty() => Value::Null,
            Func::Sum => Value::Float64(sum()),
            Func::Avg => Value::Float64(sum() / vals.len() as f64),
            Func::Min => best(Ordering::Less),
            Func::Max => best(Ordering::Greater),
            Func::CountDistinct => {
                let mut seen: Vec<&Value> = Vec::new();
                for &v in &vals {
                    if !seen.iter().any(|s| same(s, v)) {
                        seen.push(v);
                    }
                }
                Value::Int64(seen.len() as i64)
            }
        }
    };
    groups
        .iter()
        .map(|(key, members)| {
            let aggs = aggs.iter().map(|&a| finish(members, a));
            key.iter().cloned().chain(aggs).collect()
        })
        .collect()
}

// ----------------------------------------------------------------- tables

const COLS: [(&str, DataType); 6] = [
    ("id", DataType::Int64),
    ("i", DataType::Int64),
    ("f", DataType::Float64),
    ("b", DataType::Bool),
    ("s", DataType::Varchar),
    ("x", DataType::Float64),
];
/// Column indices into [`COLS`] (`id` is 0).
const I: usize = 1;
const F: usize = 2;
const B: usize = 3;
const S: usize = 4;
const X: usize = 5;

/// Index 0 of every pool is NULL.
fn pooled(row: usize, (i, f, b, s, x): (usize, usize, usize, usize, usize)) -> Vec<Value> {
    let ints = [i64::MIN, i64::MAX, -1, 0, 1, (1 << 53) + 1, 1 << 53];
    let floats = [f64::NAN, -0.0, 0.0, 1.5, f64::NEG_INFINITY, f64::INFINITY];
    let strings = ["", "a", "b", "é", "ab"];
    let pick = |n: usize, v: &dyn Fn(usize) -> Value| if n == 0 { Value::Null } else { v(n - 1) };
    vec![
        Value::Int64(row as i64),
        pick(i, &|n| Value::Int64(ints[n])),
        pick(f, &|n| Value::Float64(floats[n])),
        pick(b, &|n| Value::Bool(n == 1)),
        pick(s, &|n| Value::Varchar(strings[n].into())),
        // Integer-valued, so SUM is exact in any order.
        pick(x, &|n| Value::Float64(n as f64 - 4.0)),
    ]
}

fn row_strategy() -> impl Strategy<Value = (usize, usize, usize, usize, usize)> {
    (0..8usize, 0..7usize, 0..3usize, 0..6usize, 0..9usize)
}

fn load(nodes: usize, seg: &Segmentation, t: &[Vec<Value>], d: &[Vec<Value>]) -> Arc<VerticaDb> {
    let db = VerticaDb::new(SimCluster::for_tests(nodes));
    let t_schema = Schema::of(&COLS);
    let d_schema = Schema::of(&[("i", DataType::Int64), ("w", DataType::Float64)]);
    for (name, schema, rows) in [("t", t_schema, t), ("d", d_schema, d)] {
        let segmentation = if name == "t" {
            seg.clone()
        } else {
            Segmentation::RoundRobin
        };
        db.create_table(TableDef {
            name: name.into(),
            schema: schema.clone(),
            segmentation,
        })
        .unwrap();
        // Two batches: every node folds more than one container.
        let (a, b) = rows.split_at(rows.len() / 2);
        let batches = [a, b].map(|half| Batch::from_rows(schema.clone(), half).unwrap());
        db.copy(name, batches).unwrap();
    }
    db
}

fn rows_of(b: &Batch) -> Vec<Vec<Value>> {
    (0..b.num_rows()).map(|r| b.row(r)).collect()
}

fn assert_same_rows(mut got: Vec<Vec<Value>>, want: &[Vec<Value>], nkeys: usize, what: &str) {
    // Under the shuffle the engine emits one key-ordered slice per node.
    got.sort_by(|a, b| order_rows(&a[..nkeys], &b[..nkeys]));
    let equal = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.len() == w.len() && g.iter().zip(w).all(|(a, b)| same(a, b)));
    assert!(equal, "{what}\n   got {got:?}\n  want {want:?}");
}

const AGGS: [(&str, Func, usize); 16] = [
    ("count(*)", Func::CountStar, X),
    ("count(x)", Func::Count, X),
    ("sum(x)", Func::Sum, X),
    ("avg(x)", Func::Avg, X),
    ("min(x)", Func::Min, X),
    ("max(x)", Func::Max, X),
    ("min(f)", Func::Min, F),
    ("max(f)", Func::Max, F),
    ("min(i)", Func::Min, I),
    ("max(i)", Func::Max, I),
    ("min(s)", Func::Min, S),
    ("max(s)", Func::Max, S),
    ("min(b)", Func::Min, B),
    ("max(b)", Func::Max, B),
    ("count(DISTINCT s)", Func::CountDistinct, S),
    ("count(DISTINCT f)", Func::CountDistinct, F),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn engine_matches_the_row_at_a_time_reference(
        t in prop::collection::vec(row_strategy(), 0..48),
        d in prop::collection::vec((0..8usize, 0..9usize), 0..12),
    ) {
        let t: Vec<Vec<Value>> = t.into_iter().enumerate().map(|(r, p)| pooled(r, p)).collect();
        let d: Vec<Vec<Value>> = d
            .into_iter()
            .map(|(i, w)| {
                let row = pooled(0, (i, 0, 0, 0, w));
                vec![row[I].clone(), row[X].clone()]
            })
            .collect();
        let aggs: Vec<(Func, usize)> = AGGS.iter().map(|&(_, f, c)| (f, c)).collect();
        let agg_sql = AGGS.map(|(sql, ..)| sql).join(", ");
        let mut agg_types = Vec::new();
        for (_, func, col) in AGGS {
            agg_types.push(match func {
                Func::CountStar | Func::Count | Func::CountDistinct => DataType::Int64,
                Func::Sum | Func::Avg => DataType::Float64,
                Func::Min | Func::Max => COLS[col].1,
            });
        }
        let key_sets: [&[usize]; 7] = [&[], &[I], &[F], &[B], &[S], &[I, S], &[F, B]];
        // The JOIN feeding a global aggregate, by nested loops.
        let mut joined = Vec::new();
        for l in &t {
            for r in d.iter().filter(|r| !l[I].is_null() && same(&l[I], &r[0])) {
                joined.push(vec![l[X].clone(), r[1].clone(), l[S].clone()]);
            }
        }
        let join_aggs = [
            (Func::CountStar, 0), (Func::Sum, 0), (Func::Sum, 1), (Func::Min, 1), (Func::CountDistinct, 2),
        ];
        let join_want = reference(&joined, &[], &join_aggs);
        let join_sql = "SELECT count(*), sum(t.x), sum(d.w), min(d.w), count(DISTINCT t.s) \
                        FROM t JOIN d ON t.i = d.i";

        let on_key = Segmentation::Hash { column: "i".into() };
        let off_key = Segmentation::Hash { column: "id".into() };
        for nodes in [1, 3, 5] {
            for seg in [&Segmentation::RoundRobin, &on_key, &off_key] {
                let db = load(nodes, seg, &t, &d);
                for (compressed, shuffle) in [(true, true), (true, false), (false, true), (false, false)] {
                    db.set_exec_options(ExecOptions {
                        compressed_execution: compressed,
                        group_by_shuffle: shuffle,
                    });
                    let what = |sql: &str| format!(
                        "{sql} on {nodes} nodes, {seg:?}, compressed {compressed}, shuffle {shuffle}"
                    );
                    for keys in key_sets {
                        let names: Vec<&str> = keys.iter().map(|&k| COLS[k].0).collect();
                        let sql = if keys.is_empty() {
                            format!("SELECT {agg_sql} FROM t")
                        } else {
                            let names = names.join(", ");
                            format!("SELECT {names}, {agg_sql} FROM t GROUP BY {names}")
                        };
                        let out = db.query(&sql).unwrap().batch;
                        let got_types: Vec<DataType> =
                            out.schema().fields().iter().map(|f| f.dtype).collect();
                        let want_types: Vec<DataType> =
                            keys.iter().map(|&k| COLS[k].1).chain(agg_types.iter().copied()).collect();
                        assert_eq!(got_types, want_types, "{}", what(&sql));
                        assert_same_rows(rows_of(&out), &reference(&t, keys, &aggs), keys.len(), &what(&sql));
                    }
                    let out = db.query(join_sql).unwrap().batch;
                    assert_same_rows(rows_of(&out), &join_want, 0, &what(join_sql));
                }
            }
        }
    }
}

// ------------------------------------------------------------ regressions

/// Integers at or above 2^53 tie when compared through `f64`.
#[test]
fn int64_min_max_and_order_by_compare_as_integers() {
    let db = VerticaDb::new(SimCluster::for_tests(1));
    db.query("CREATE TABLE big (id INTEGER)").unwrap();
    let (lo, hi) = (1i64 << 53, (1i64 << 53) + 1);
    db.query(&format!("INSERT INTO big VALUES ({hi}), ({lo})"))
        .unwrap();
    let out = db.query("SELECT min(id), max(id) FROM big").unwrap().batch;
    assert_eq!(out.row(0), vec![Value::Int64(lo), Value::Int64(hi)]);
    let out = db.query("SELECT id FROM big ORDER BY id").unwrap().batch;
    assert_eq!(
        rows_of(&out),
        vec![vec![Value::Int64(lo)], vec![Value::Int64(hi)]]
    );
    let out = db
        .query("SELECT id, count(*) FROM big GROUP BY id")
        .unwrap()
        .batch;
    assert_eq!(out.column(0).i64_data().unwrap(), &[lo, hi]);
}

/// Output dtypes come from the plan: no group, an all-NULL argument, or the
/// NULL key alone on a node must not turn a column into `Float64`.
#[test]
fn aggregate_output_dtypes_do_not_depend_on_the_data() {
    let dtypes =
        |b: &Batch| -> Vec<DataType> { b.schema().fields().iter().map(|f| f.dtype).collect() };
    for nodes in [1, 3, 5] {
        for shuffle in [true, false] {
            let db = VerticaDb::new(SimCluster::for_tests(nodes));
            db.set_exec_options(ExecOptions {
                group_by_shuffle: shuffle,
                ..ExecOptions::default()
            });
            db.query("CREATE TABLE t (id INTEGER, s VARCHAR, n INTEGER)")
                .unwrap();
            // `n` is all NULL; the NULL `s` key has one row, so it sits
            // alone on whichever node it lands on.
            db.query("INSERT INTO t VALUES (1, 'a', NULL), (2, 'a', NULL), (3, 'b', NULL), (4, NULL, NULL)")
                .unwrap();
            let what = format!("{nodes} nodes, shuffle {shuffle}");

            // Empty input: no row passes the filter.
            let out = db
                .query("SELECT min(id), max(s) FROM t WHERE id < 0")
                .unwrap()
                .batch;
            assert_eq!(dtypes(&out), [DataType::Int64, DataType::Varchar], "{what}");
            assert_eq!(out.row(0), vec![Value::Null, Value::Null], "{what}");
            let out = db
                .query("SELECT s, min(id) FROM t WHERE id < 0 GROUP BY s")
                .unwrap()
                .batch;
            assert_eq!(dtypes(&out), [DataType::Varchar, DataType::Int64], "{what}");
            assert_eq!(out.num_rows(), 0, "{what}");

            // All-NULL argument, and the NULL key among the groups.
            let out = db
                .query("SELECT s, min(n), max(id) FROM t GROUP BY s ORDER BY s")
                .unwrap()
                .batch;
            assert_eq!(
                dtypes(&out),
                [DataType::Varchar, DataType::Int64, DataType::Int64],
                "{what}"
            );
            let a = |s: &str| Value::Varchar(s.into());
            assert_eq!(
                rows_of(&out),
                vec![
                    vec![a("a"), Value::Null, Value::Int64(2)],
                    vec![a("b"), Value::Null, Value::Int64(3)],
                    vec![Value::Null, Value::Null, Value::Int64(4)],
                ],
                "{what}"
            );
        }
    }
}

/// The block cache may serve a node a wider batch than the JOIN asked for
/// while an empty segment serves none; shuffled partitions must still agree
/// on one schema (found by the oracle above; an exchange error before).
#[test]
fn join_after_a_wider_scan_ships_one_schema() {
    let db = VerticaDb::new(SimCluster::for_tests(5));
    db.query("CREATE TABLE t (i INTEGER, f FLOAT, x FLOAT)")
        .unwrap();
    db.query("CREATE TABLE d (i INTEGER, w FLOAT)").unwrap();
    db.query("INSERT INTO t VALUES (1, 1.0, 2.0), (2, 1.0, 3.0)")
        .unwrap();
    db.query("INSERT INTO d VALUES (1, 5.0)").unwrap();
    db.query("SELECT i, f, x FROM t").unwrap();
    let out = db
        .query("SELECT count(*), sum(t.x) FROM t JOIN d ON t.i = d.i")
        .unwrap()
        .batch;
    assert_eq!(out.row(0), vec![Value::Int64(1), Value::Float64(2.0)]);
}
