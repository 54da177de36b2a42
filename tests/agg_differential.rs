//! Differential oracle for aggregation and ordering: the engine's answer must
//! equal a row-at-a-time reference over `Vec<Vec<Value>>` — no segmentation,
//! no encoding, no exchange — whatever the node count, the segmentation, and
//! the physical path the statement's shape selects (encoded or decoded scan,
//! dictionary GROUP BY, shuffled or initiator merge, each JOIN strategy), and
//! row for row under `ORDER BY … LIMIT … OFFSET` on plain, grouped and joined
//! rows. INNER and LEFT JOIN get a matrix of their own — every key type,
//! NULL and duplicate keys, every strategy — whose joined rows are compared
//! row for row in the order the engine emits them, against a nested loop
//! that models where each row lives and moves. Plus the regressions that
//! came with the columnar aggregator and the typed sort: Int64 compared as
//! integers, aggregate output dtypes that come from the plan, not from the
//! data, an `ORDER BY` that is a total order with NaN present, and ORDER BY
//! keys that name select items by position or alias.

use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::sync::Arc;
use vertica_dr::cluster::SimCluster;
use vertica_dr::columnar::{Batch, DataType, Schema, Value};
use vertica_dr::obs::MetricsSnapshot;
use vertica_dr::verticadb::segmentation::hash_value;
use vertica_dr::verticadb::{DbError, Segmentation, TableDef, VerticaDb};

/// The metrics registry is process-global and the path census below reads
/// counter deltas per statement, so the tests of this file run one at a time.
fn metrics_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

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

type Cols = [(&'static str, DataType)];

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

const D_COLS: [(&str, DataType); 2] = [("i", DataType::Int64), ("w", DataType::Float64)];

/// Index 0 of every pool is NULL.
fn pooled(row: usize, (i, f, b, s, x): (usize, usize, usize, usize, usize)) -> Vec<Value> {
    let ints = [i64::MIN, i64::MAX, -1, 0, 1, (1 << 53) + 1, 1 << 53];
    let floats = [
        f64::NAN,
        -0.0,
        0.0,
        1.5,
        f64::NEG_INFINITY,
        f64::INFINITY,
        -f64::NAN,
    ];
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
    (0..8usize, 0..8usize, 0..3usize, 0..6usize, 0..9usize)
}

fn d_row((i, w): (usize, usize)) -> Vec<Value> {
    let row = pooled(0, (i, 0, 0, 0, w));
    vec![row[I].clone(), row[X].clone()]
}

/// Round-robin, hash on `on`, hash on `off`: the three segmentations every
/// table of the matrix is loaded under.
fn segmentations(on: &str, off: &str) -> [Segmentation; 3] {
    let hash = |c: &str| Segmentation::Hash { column: c.into() };
    [Segmentation::RoundRobin, hash(on), hash(off)]
}

fn load(db: &VerticaDb, name: &str, cols: &Cols, seg: &Segmentation, rows: &[Vec<Value>]) {
    let schema = Schema::of(cols);
    db.create_table(TableDef {
        name: name.into(),
        schema: schema.clone(),
        segmentation: seg.clone(),
    })
    .unwrap();
    // Two batches: every node folds more than one container.
    let (a, b) = rows.split_at(rows.len() / 2);
    let batches = [a, b].map(|half| Batch::from_rows(schema.clone(), half).unwrap());
    db.copy(name, batches).unwrap();
}

fn rows_of(b: &Batch) -> Vec<Vec<Value>> {
    (0..b.num_rows()).map(|r| b.row(r)).collect()
}

// ------------------------------------------------------------- statements

/// A WHERE clause and the same test on one row.
type Pred = (&'static str, fn(&[Value]) -> bool);

/// NULL as NaN: every comparison with it is false, as SQL's is not TRUE.
fn num(v: &Value) -> f64 {
    v.as_f64().unwrap_or(f64::NAN)
}

fn text(v: &Value) -> Option<&str> {
    match v {
        Value::Varchar(s) => Some(s),
        _ => None,
    }
}

/// One statement and its row-at-a-time answer.
struct Case {
    sql: String,
    /// Leading output columns that form the group key.
    nkeys: usize,
    types: Vec<DataType>,
    want: Vec<Vec<Value>>,
    /// The WHERE is not an And/Or tree of column-vs-literal comparisons, so
    /// the scan must stay decoded: no `scan.encoded.*` counter may move.
    decoded: bool,
}

type Agg = (&'static str, Func, usize);
const COUNT: Agg = ("count(*)", Func::CountStar, 0);

/// `SELECT keys.., aggs.. FROM name [WHERE pred] [GROUP BY keys] tail`.
fn agg_case(
    (name, cols, rows): (&str, &Cols, &[Vec<Value>]),
    pred: Option<Pred>,
    keys: &[usize],
    aggs: &[Agg],
    tail: &str,
) -> Case {
    let key_names: Vec<&str> = keys.iter().map(|&k| cols[k].0).collect();
    let items: Vec<&str> = key_names
        .iter()
        .copied()
        .chain(aggs.iter().map(|a| a.0))
        .collect();
    let mut sql = format!("SELECT {} FROM {name}", items.join(", "));
    if let Some((where_sql, _)) = pred {
        sql += &format!(" WHERE {where_sql}");
    }
    if !keys.is_empty() {
        sql += &format!(" GROUP BY {}", key_names.join(", "));
    }
    let agg_types = aggs.iter().map(|&(_, func, col)| match func {
        Func::CountStar | Func::Count | Func::CountDistinct => DataType::Int64,
        Func::Sum | Func::Avg => DataType::Float64,
        Func::Min | Func::Max => cols[col].1,
    });
    let kept: Vec<Vec<Value>> = rows
        .iter()
        .filter(|r| pred.is_none_or(|(_, keep)| keep(r)))
        .cloned()
        .collect();
    let funcs: Vec<(Func, usize)> = aggs.iter().map(|&(_, f, c)| (f, c)).collect();
    Case {
        sql: sql + tail,
        nkeys: keys.len(),
        types: keys.iter().map(|&k| cols[k].1).chain(agg_types).collect(),
        want: reference(&kept, keys, &funcs),
        decoded: false,
    }
}

/// Run `case` on `db` and hold dtypes and rows to the reference. Returns the
/// statement's metric delta.
fn check(db: &VerticaDb, case: &Case, ctx: &str) -> MetricsSnapshot {
    let metrics = vertica_dr::obs::global().metrics();
    let before = metrics.snapshot();
    let out = db.query(&case.sql).unwrap().batch;
    let delta = metrics.snapshot().diff(&before);
    let what = format!("{} on {ctx}", case.sql);
    let got_types: Vec<DataType> = out.schema().fields().iter().map(|f| f.dtype).collect();
    assert_eq!(got_types, case.types, "{what}");
    // Under the shuffle the engine emits one key-ordered slice per node.
    let mut got = rows_of(&out);
    got.sort_by(|a, b| order_rows(&a[..case.nkeys], &b[..case.nkeys]));
    let equal = got.len() == case.want.len()
        && got
            .iter()
            .zip(&case.want)
            .all(|(g, w)| g.len() == w.len() && g.iter().zip(w).all(|(a, b)| same(a, b)));
    assert!(equal, "{what}\n   got {got:?}\n  want {:?}", case.want);
    delta
}

const AGGS: [Agg; 16] = [
    COUNT,
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

/// Every statement shape over `t`: {no WHERE, encodable WHERE, two
/// non-encodable WHEREs} × {global, each single key — `s` is the dictionary
/// one, `i` the segmentation one — and two key pairs}.
fn t_cases(t: &[Vec<Value>]) -> Vec<Case> {
    let preds: [(Option<Pred>, bool); 4] = [
        (None, false),
        (
            Some(("s <> 'b' AND x >= 1", |r| {
                text(&r[S]).is_some_and(|s| s != "b") && num(&r[X]) >= 1.0
            })),
            false,
        ),
        // Arithmetic and LIKE need decoded values.
        (Some(("x + 1 > 2", |r| num(&r[X]) + 1.0 > 2.0)), true),
        (
            Some(("s LIKE 'a%'", |r| {
                text(&r[S]).is_some_and(|s| s.starts_with('a'))
            })),
            true,
        ),
    ];
    let key_sets: [&[usize]; 7] = [&[], &[I], &[F], &[B], &[S], &[I, S], &[F, B]];
    let mut cases = Vec::new();
    for (pred, decoded) in preds {
        for keys in key_sets {
            let case = agg_case(("t", &COLS, t), pred, keys, &AGGS, "");
            cases.push(Case { decoded, ..case });
        }
    }
    cases
}

/// The JOIN feeding a global aggregate, by nested loops.
fn join_case(t: &[Vec<Value>], d: &[Vec<Value>]) -> Case {
    const JOINED: [(&str, DataType); 3] = [
        ("t.x", DataType::Float64),
        ("d.w", DataType::Float64),
        ("t.s", DataType::Varchar),
    ];
    let mut joined = Vec::new();
    for l in t {
        for r in d.iter().filter(|r| !l[I].is_null() && same(&l[I], &r[0])) {
            joined.push(vec![l[X].clone(), r[1].clone(), l[S].clone()]);
        }
    }
    let aggs = [
        COUNT,
        ("sum(t.x)", Func::Sum, 0),
        ("sum(d.w)", Func::Sum, 1),
        ("min(d.w)", Func::Min, 1),
        ("count(DISTINCT t.s)", Func::CountDistinct, 2),
    ];
    agg_case(
        ("t JOIN d ON t.i = d.i", &JOINED, &joined),
        None,
        &[],
        &aggs,
        "",
    )
}

/// `t` (hash on `i` is on the GROUP BY and JOIN key, hash on `id` off it)
/// and the round-robin `d`, on `nodes` nodes.
fn load_t_d(
    nodes: usize,
    seg: &Segmentation,
    t: &[Vec<Value>],
    d: &[Vec<Value>],
) -> Arc<VerticaDb> {
    let db = VerticaDb::new(SimCluster::for_tests(nodes));
    load(&db, "t", &COLS, seg, t);
    load(&db, "d", &D_COLS, &Segmentation::RoundRobin, d);
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn engine_matches_the_row_at_a_time_reference(
        t in prop::collection::vec(row_strategy(), 0..48),
        d in prop::collection::vec((0..8usize, 0..9usize), 0..12),
    ) {
        let _guard = metrics_lock();
        let t: Vec<Vec<Value>> = t.into_iter().enumerate().map(|(r, p)| pooled(r, p)).collect();
        let d: Vec<Vec<Value>> = d.into_iter().map(d_row).collect();
        let mut cases = t_cases(&t);
        cases.push(join_case(&t, &d));
        for nodes in [1, 3, 5] {
            for seg in segmentations("i", "id") {
                let db = load_t_d(nodes, &seg, &t, &d);
                let ctx = format!("{nodes} nodes, {seg:?}");
                for case in &cases {
                    check(&db, case, &ctx);
                }
            }
        }
    }
}

// --------------------------------------------------------------- ORDER BY

/// One ORDER BY key of the reference: NULL last in both directions, values
/// reversed under DESC.
fn directed(a: &Value, b: &Value, desc: bool) -> Ordering {
    if desc && !a.is_null() && !b.is_null() {
        order(b, a)
    } else {
        order(a, b)
    }
}

/// `rows` sorted by `keys` (column, DESC?), ties broken on the whole row
/// ascending, then cut to `OFFSET .. OFFSET + LIMIT`.
fn ordered(
    mut rows: Vec<Vec<Value>>,
    keys: &[(usize, bool)],
    limit: Option<usize>,
    offset: usize,
) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| {
        let by_key = keys.iter().map(|&(k, desc)| directed(&a[k], &b[k], desc));
        let mut by = by_key.chain([order_rows(a, b)]);
        by.find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
    });
    let end = limit.map_or(rows.len(), |l| (offset + l).min(rows.len()));
    rows.get(offset..end).map_or_else(Vec::new, <[_]>::to_vec)
}

/// `select` (whose output columns are `names`, of `types`, and whose
/// unordered answer is `rows`) ordered by each of `key_sets` — output names
/// with their directions, then every column ascending by position, so the
/// answer is unique — under every LIMIT and OFFSET of the matrix.
fn order_cases(
    select: &str,
    (names, types): (&[&str], &[DataType]),
    rows: &[Vec<Value>],
    key_sets: &[&[(usize, bool)]],
) -> Vec<Case> {
    let n = rows.len();
    let mut cases = Vec::new();
    for keys in key_sets {
        let named = keys.iter().map(|&(k, desc)| {
            let dir = if desc { " DESC" } else { "" };
            format!("{}{dir}", names[k])
        });
        let by: Vec<String> = named
            .chain((1..=names.len()).map(|p| p.to_string()))
            .collect();
        for limit in [None, Some(0), Some(1), Some(3), Some(n), Some(n + 7)] {
            for offset in [0, n / 2, n, n + 2] {
                let mut sql = format!("{select} ORDER BY {}", by.join(", "));
                if let Some(l) = limit {
                    sql += &format!(" LIMIT {l}");
                }
                if offset > 0 {
                    sql += &format!(" OFFSET {offset}");
                }
                cases.push(Case {
                    sql,
                    nkeys: 0,
                    types: types.to_vec(),
                    want: ordered(rows.to_vec(), keys, limit, offset),
                    decoded: false,
                });
            }
        }
    }
    cases
}

/// Ordered plain rows (`x` under an alias), grouped rows and joined rows —
/// the JOIN once with `*`, whose positions count the joined columns.
fn ordered_cases(t: &[Vec<Value>], d: &[Vec<Value>]) -> Vec<Case> {
    use DataType::{Bool, Float64, Int64, Varchar};
    let mut cases = order_cases(
        "SELECT id, i, f, b, s, x AS y FROM t",
        (
            &["id", "i", "f", "b", "s", "y"],
            &[Int64, Int64, Float64, Bool, Varchar, Float64],
        ),
        t,
        &[
            &[(F, false)],
            &[(I, true)],
            &[(X, true), (S, false)],
            &[(B, false), (F, true), (S, true)],
        ],
    );
    let groups = reference(t, &[S, B], &[(Func::CountStar, 0), (Func::Max, F)]);
    cases.extend(order_cases(
        "SELECT s, b, count(*) AS n, max(f) AS m FROM t GROUP BY s, b",
        (&["s", "b", "n", "m"], &[Varchar, Bool, Int64, Float64]),
        &groups,
        &[&[(2, true)], &[(1, false), (3, true), (0, true)]],
    ));
    let mut joined = Vec::new();
    for l in t {
        for r in d.iter().filter(|r| !l[I].is_null() && same(&l[I], &r[0])) {
            joined.push(l.iter().chain(r).cloned().collect::<Vec<_>>());
        }
    }
    let picked: Vec<Vec<Value>> = joined
        .iter()
        .map(|r| vec![r[0].clone(), r[S].clone(), r[7].clone()])
        .collect();
    cases.extend(order_cases(
        "SELECT t.id, t.s, d.w FROM t JOIN d ON t.i = d.i",
        (&["t.id", "t.s", "d.w"], &[Int64, Varchar, Float64]),
        &picked,
        &[&[(1, false), (2, true)]],
    ));
    cases.extend(order_cases(
        "SELECT * FROM t JOIN d ON t.i = d.i",
        (
            &["id", "t.i", "f", "b", "s", "x", "d.i", "w"],
            &[
                Int64, Int64, Float64, Bool, Varchar, Float64, Int64, Float64,
            ],
        ),
        &joined,
        &[&[(7, true), (2, false)]],
    ));
    cases
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn ordered_answers_match_the_reference_row_for_row(
        t in prop::collection::vec(row_strategy(), 0..40),
        d in prop::collection::vec((0..8usize, 0..9usize), 0..10),
    ) {
        let _guard = metrics_lock();
        let t: Vec<Vec<Value>> = t.into_iter().enumerate().map(|(r, p)| pooled(r, p)).collect();
        let d: Vec<Vec<Value>> = d.into_iter().map(d_row).collect();
        let cases = ordered_cases(&t, &d);
        for nodes in [1, 3, 5] {
            for seg in segmentations("f", "id") {
                let db = load_t_d(nodes, &seg, &t, &d);
                let ctx = format!("{nodes} nodes, {seg:?}");
                for case in &cases {
                    check(&db, case, &ctx);
                }
            }
        }
    }
}

// ------------------------------------------------------------ path census

/// `lc(id, grp, x, tag)`: `grp` is sorted and low-cardinality so its blocks
/// pick RLE, `tag` has 3 values so it picks Dictionary, both carry NULLs.
/// `st(s, x)`: `s` is sorted in 64 runs, so RLE predicates binary-search.
const LC_COLS: [(&str, DataType); 4] = [
    ("id", DataType::Int64),
    ("grp", DataType::Int64),
    ("x", DataType::Float64),
    ("tag", DataType::Varchar),
];
const ST_COLS: [(&str, DataType); 2] = [("s", DataType::Int64), ("x", DataType::Float64)];
const GRP: usize = 1;
const TAG: usize = 3;

fn lc_rows() -> Vec<Vec<Value>> {
    let unless = |null: bool, v: Value| if null { Value::Null } else { v };
    let row = |i: i64| {
        let tag = Value::Varchar(["a", "b", "c"][(i % 3) as usize].into());
        let x = Value::Float64((i % 7) as f64 + 0.5);
        vec![
            Value::Int64(i),
            unless(i % 97 == 0, Value::Int64(i / 200)),
            x,
            unless(i % 89 == 0, tag),
        ]
    };
    (0..600).map(row).collect()
}

fn st_rows() -> Vec<Vec<Value>> {
    let row = |i: i64| vec![Value::Int64(i / 60), Value::Float64((i % 9) as f64 + 0.25)];
    (0..3840).map(row).collect()
}

/// Encodable predicates over RLE and dictionary columns: And/Or trees,
/// either operand order, NULL-heavy columns, dictionary and non-dictionary
/// GROUP BY keys, sorted runs, a late-materialized projection.
fn encoded_cases(lc: &[Vec<Value>], st: &[Vec<Value>]) -> Vec<Case> {
    let lc_t = ("lc", &LC_COLS as &Cols, lc);
    let st_t = ("st", &ST_COLS as &Cols, st);
    let tag_aggs = [
        ("count(*) AS n", Func::CountStar, 0),
        ("avg(x)", Func::Avg, 2),
        ("min(id)", Func::Min, 0),
        ("max(id)", Func::Max, 0),
    ];
    let preds: [Pred; 8] = [
        ("grp >= 1 AND tag = 'b'", |r| {
            num(&r[GRP]) >= 1.0 && text(&r[TAG]) == Some("b")
        }),
        ("2 <= grp OR tag <> 'a'", |r| {
            2.0 <= num(&r[GRP]) || text(&r[TAG]).is_some_and(|t| t != "a")
        }),
        ("id < 500", |r| num(&r[0]) < 500.0),
        ("grp <= 2", |r| num(&r[GRP]) <= 2.0),
        ("tag = 'c'", |r| text(&r[TAG]) == Some("c")),
        ("s < 20", |r| num(&r[0]) < 20.0),
        ("s >= 48", |r| num(&r[0]) >= 48.0),
        ("s = 7", |r| num(&r[0]) == 7.0),
    ];
    let [and, or, id, grp, tag, lt, ge, eq] = preds.map(Some);
    vec![
        agg_case(lc_t, and, &[], &[COUNT, ("sum(x)", Func::Sum, 2)], ""),
        agg_case(lc_t, or, &[], &[COUNT], ""),
        agg_case(lc_t, None, &[TAG], &tag_aggs, " ORDER BY tag"),
        agg_case(
            lc_t,
            id,
            &[TAG],
            &[("count(DISTINCT grp)", Func::CountDistinct, GRP)],
            " ORDER BY tag",
        ),
        agg_case(lc_t, grp, &[], &[COUNT], ""),
        agg_case(lc_t, tag, &[GRP], &[COUNT], " ORDER BY grp"),
        agg_case(st_t, lt, &[], &[COUNT], ""),
        agg_case(st_t, ge, &[], &[COUNT, ("sum(x)", Func::Sum, 1)], ""),
        agg_case(st_t, eq, &[0], &[COUNT], ""),
        // Not an aggregate: rows come back in `id` order.
        Case {
            sql: "SELECT id, x FROM lc WHERE grp = 1 ORDER BY id".into(),
            nkeys: 0,
            types: vec![DataType::Int64, DataType::Float64],
            want: lc
                .iter()
                .filter(|r| num(&r[GRP]) == 1.0)
                .map(|r| vec![r[0].clone(), r[2].clone()])
                .collect(),
            decoded: false,
        },
    ]
}

/// Every physical path the executor can select is selected by some statement
/// of the matrix — read off each statement's metric delta — and every answer
/// equals the reference.
#[test]
fn every_physical_path_runs_and_matches_the_reference() {
    let _guard = metrics_lock();
    // Containers of 36+ rows, so the five strings of `s` pick Dictionary.
    let t: Vec<Vec<Value>> = (0..360)
        .map(|r| pooled(r, (r % 8, r % 7, r % 3, r % 6, r % 9)))
        .collect();
    // 100 rows against t's 360: broadcast on 3 nodes (300 ≤ 460 shipped
    // rows), shuffle both sides on 5 (500 > 460).
    let d: Vec<Vec<Value>> = (0..100).map(|r| d_row((r % 8, r % 9))).collect();
    let (lc, st) = (lc_rows(), st_rows());
    let mut cases = t_cases(&t);
    cases.extend(encoded_cases(&lc, &st));
    let join = join_case(&t, &d);

    let mut seen = BTreeSet::new();
    for nodes in [1usize, 3, 5] {
        let segs = segmentations("i", "id")
            .into_iter()
            .zip(segmentations("tag", "id"))
            .zip(segmentations("s", "x"));
        for ((t_seg, lc_seg), st_seg) in segs {
            let db = load_t_d(nodes, &t_seg, &t, &d);
            load(&db, "lc", &LC_COLS, &lc_seg, &lc);
            load(&db, "st", &ST_COLS, &st_seg, &st);
            let ctx = format!("{nodes} nodes, t {t_seg:?}, lc {lc_seg:?}, st {st_seg:?}");
            for case in &cases {
                let delta = check(&db, case, &ctx);
                let count = |name: &str| delta.counter_total(name);
                let codes = count("scan.encoded.codes_tested");
                let late = count("scan.encoded.late_materialized_rows");
                let encoded = codes + late + count("scan.encoded.runs_skipped");
                assert!(count("exec.scan.rows") > 0, "{} on {ctx}", case.sql);
                if case.decoded {
                    assert_eq!(encoded, 0, "{} on {ctx}", case.sql);
                    seen.insert("decoded scan");
                } else if encoded > 0 {
                    seen.insert("encoded scan");
                }
                // A single dictionary key takes its group ids from the
                // codes the predicate tested: nothing late-materializes.
                if case.nkeys == 1 && codes > 0 && late == 0 {
                    seen.insert("dictionary GROUP BY");
                }
                if count("exec.groupby.shuffled") > 0 {
                    assert!(count("exchange.rows") > 0, "{} on {ctx}", case.sql);
                    seen.insert("shuffled merge");
                } else if case.nkeys > 0 && nodes > 1 {
                    seen.insert("initiator merge");
                }
            }
            // `exchange.rows` counts what every node received, its own
            // partition included.
            let shipped = check(&db, &join, &ctx).counter_total("exchange.rows") as usize;
            seen.insert(match shipped {
                0 => "co-located JOIN",
                n if n == d.len() => "shuffle-right JOIN",
                n if n == d.len() * nodes => "broadcast JOIN",
                n if n == t.len() + d.len() => "shuffle-both JOIN",
                n => panic!("JOIN shipped {n} rows on {ctx}"),
            });
        }
    }
    let all = [
        "encoded scan",
        "decoded scan",
        "dictionary GROUP BY",
        "shuffled merge",
        "initiator merge",
        "co-located JOIN",
        "shuffle-right JOIN",
        "broadcast JOIN",
        "shuffle-both JOIN",
    ];
    assert_eq!(seen, BTreeSet::from(all));
}

// ------------------------------------------------------------ JOIN matrix

/// One JOIN key of `dtype` from a pool index, 0 being NULL: `i64::MIN`/`MAX`,
/// both NaN signs and ±0.0 (equal by bit pattern only), the empty string.
fn pooled_key(dtype: DataType, pick: usize) -> Value {
    let Some(i) = pick.checked_sub(1) else {
        return Value::Null;
    };
    match dtype {
        DataType::Int64 => Value::Int64([i64::MIN, i64::MAX, -1, 0, 1][i % 5]),
        DataType::Float64 => Value::Float64([f64::NAN, -f64::NAN, 0.0, -0.0, 1.5][i % 5]),
        DataType::Bool => Value::Bool(i % 2 == 1),
        DataType::Varchar => Value::Varchar(["", "a", "b", "é", "ab"][i % 5].into()),
    }
}

/// `l(id, k, x)` or `r(rid, k, w)` rows: an id, a key, an integer-valued
/// float.
fn join_rows(dtype: DataType, picks: &[(usize, usize)]) -> Vec<Vec<Value>> {
    let row = |(i, &(k, v)): (usize, &(usize, usize))| {
        vec![
            Value::Int64(i as i64),
            pooled_key(dtype, k),
            Value::Float64(v as f64 - 3.0),
        ]
    };
    picks.iter().enumerate().map(row).collect()
}

/// How the planner moves the sides of `l JOIN r ON l.k = r.k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Moves {
    None,
    Left,
    Right,
    Both,
    Broadcast,
}

/// The planner's rule: a side hash-segmented on its key (or any side on one
/// node) stays put; a small enough right side is broadcast; otherwise the
/// unaligned sides shuffle.
fn moves(nodes: usize, (l, ls): (usize, &Segmentation), (r, rs): (usize, &Segmentation)) -> Moves {
    let on_key = |s: &Segmentation| nodes == 1 || *s != Segmentation::RoundRobin;
    match (on_key(ls), on_key(rs)) {
        (true, true) => Moves::None,
        (true, false) => Moves::Right,
        (false, true) => Moves::Left,
        (false, false) if r * nodes <= l + r => Moves::Broadcast,
        (false, false) => Moves::Both,
    }
}

/// Each node's rows of one side (by index) in the order the node joins
/// them: the node's own rows in load order — round-robin by load position
/// or by `hash(k) % nodes` — or, when the side moves, what every node sends
/// it, source by source: the rows whose key hashes to it, or all of them
/// under broadcast.
fn arrivals(
    rows: &[Vec<Value>],
    seg: &Segmentation,
    nodes: usize,
    moved: bool,
    broadcast: bool,
) -> Vec<Vec<usize>> {
    let hash = |i: usize| (hash_value(&rows[i][1]) % nodes as u64) as usize;
    let home = |i: usize| match seg {
        Segmentation::RoundRobin => i % nodes,
        _ => hash(i),
    };
    let by_source = (0..nodes).flat_map(|s| (0..rows.len()).filter(move |&i| home(i) == s));
    let by_source: Vec<usize> = by_source.collect();
    let to = |k: usize, i: usize| match (broadcast, moved) {
        (true, _) => true,
        (false, true) => hash(i) == k,
        (false, false) => home(i) == k,
    };
    let node = |k| by_source.iter().copied().filter(|&i| to(k, i)).collect();
    (0..nodes).map(node).collect()
}

/// The joined `(l, r)` row pairs in the engine's output order — node order,
/// then left rows as the node scans or receives them, then each one's
/// matches in the node's right order; `None` for a LEFT row without one.
fn engine_order(
    (l, ls): (&[Vec<Value>], &Segmentation),
    (r, rs): (&[Vec<Value>], &Segmentation),
    nodes: usize,
    left_join: bool,
) -> (Vec<(usize, Option<usize>)>, Moves) {
    let m = moves(nodes, (l.len(), ls), (r.len(), rs));
    let shuffles = |side: Moves| m == side || m == Moves::Both;
    let lk = arrivals(l, ls, nodes, shuffles(Moves::Left), false);
    let rk = arrivals(r, rs, nodes, shuffles(Moves::Right), m == Moves::Broadcast);
    let mut out = Vec::new();
    for (lrows, rrows) in lk.iter().zip(&rk) {
        for &i in lrows {
            let key = &l[i][1];
            let hits = rrows
                .iter()
                .filter(|&&j| !key.is_null() && same(key, &r[j][1]));
            let before = out.len();
            out.extend(hits.map(|&j| (i, Some(j))));
            if left_join && out.len() == before {
                out.push((i, None));
            }
        }
    }
    (out, m)
}

/// INNER and LEFT JOIN of `l` with `r` on a key of every type, under each
/// segmentation pair and on 1, 3 and 5 nodes, against the nested loop: the
/// joined rows row for row in the engine's order (plain, `*`, filtered), and
/// `count(*)`, global and grouped aggregates over them. The probe side loads
/// in three batches, the build side in two. Returns how the sides moved,
/// read off `exchange.rows`.
fn join_matrix(l: &[(usize, usize)], r: &[(usize, usize)]) -> BTreeSet<Moves> {
    use DataType::{Float64, Int64};
    let mut seen = BTreeSet::new();
    for dtype in [Int64, Float64, DataType::Bool, DataType::Varchar] {
        let (lt, rt) = (join_rows(dtype, l), join_rows(dtype, r));
        let l_cols = [("id", Int64), ("k", dtype), ("x", Float64)];
        let r_cols = [("rid", Int64), ("k", dtype), ("w", Float64)];
        let joined_cols = [
            ("id", Int64),
            ("l.k", dtype),
            ("x", Float64),
            ("rid", Int64),
            ("r.k", dtype),
            ("w", Float64),
        ];
        let k_seg = Segmentation::Hash { column: "k".into() };
        let segs = [Segmentation::RoundRobin, k_seg];
        for nodes in [1, 3, 5] {
            for (ls, rs) in segs
                .iter()
                .flat_map(|ls| segs.iter().map(move |rs| (ls, rs)))
            {
                let db = VerticaDb::new(SimCluster::for_tests(nodes));
                let schema = Schema::of(&l_cols);
                db.create_table(TableDef {
                    name: "l".into(),
                    schema: schema.clone(),
                    segmentation: ls.clone(),
                })
                .unwrap();
                let thirds = lt.chunks(lt.len().div_ceil(3).max(1));
                db.copy(
                    "l",
                    thirds.map(|c| Batch::from_rows(schema.clone(), c).unwrap()),
                )
                .unwrap();
                load(&db, "r", &r_cols, rs, &rt);
                for (kind, left_join) in [("JOIN", false), ("LEFT JOIN", true)] {
                    let (pairs, m) = engine_order((&lt, ls), (&rt, rs), nodes, left_join);
                    let joined: Vec<Vec<Value>> = pairs
                        .iter()
                        .map(|&(i, j)| {
                            let right = j.map_or(vec![Value::Null; 3], |j| rt[j].clone());
                            lt[i].iter().chain(&right).cloned().collect()
                        })
                        .collect();
                    let from = format!("l {kind} r ON l.k = r.k");
                    let pick = |cols: &[usize]| -> Vec<Vec<Value>> {
                        let row = |r: &Vec<Value>| cols.iter().map(|&c| r[c].clone()).collect();
                        joined.iter().map(row).collect()
                    };
                    let rows_case = |items: &str, cols: &[usize], filter: Option<Pred>| Case {
                        sql: format!(
                            "SELECT {items} FROM {from}{}",
                            filter.map_or(String::new(), |(w, _)| format!(" WHERE {w}"))
                        ),
                        nkeys: 0,
                        types: cols.iter().map(|&c| joined_cols[c].1).collect(),
                        want: pick(cols)
                            .into_iter()
                            .zip(&joined)
                            .filter(|(_, full)| filter.is_none_or(|(_, keep)| keep(full)))
                            .map(|(row, _)| row)
                            .collect(),
                        decoded: false,
                    };
                    let positive: Pred = ("x + w > 0", |r| num(&r[2]) + num(&r[5]) > 0.0);
                    let aggs = [
                        COUNT,
                        ("count(rid)", Func::Count, 3),
                        ("sum(x)", Func::Sum, 2),
                        ("sum(w)", Func::Sum, 5),
                        ("min(r.k)", Func::Min, 4),
                        ("max(id)", Func::Max, 0),
                    ];
                    let table = (from.as_str(), &joined_cols as &Cols, joined.as_slice());
                    let cases = [
                        rows_case("id, rid, l.k, r.k, w", &[0, 3, 1, 4, 5], None),
                        rows_case("*", &[0, 1, 2, 3, 4, 5], None),
                        rows_case("id, w", &[0, 5], Some(positive)),
                        agg_case(table, None, &[], &[COUNT], ""),
                        agg_case(table, None, &[], &aggs, ""),
                        agg_case(table, None, &[1], &[COUNT, aggs[3]], ""),
                    ];
                    let ctx = format!("{nodes} nodes, l {ls:?}, r {rs:?}, {m:?}");
                    for case in &cases {
                        let shipped = check(&db, case, &ctx).counter_total("exchange.rows");
                        if case.nkeys > 0 {
                            continue; // The grouped partials shuffle too.
                        }
                        let want = match m {
                            Moves::None => 0,
                            Moves::Left => lt.len(),
                            Moves::Right => rt.len(),
                            Moves::Both => lt.len() + rt.len(),
                            Moves::Broadcast => rt.len() * nodes,
                        };
                        assert_eq!(shipped as usize, want, "{} on {ctx}", case.sql);
                    }
                    seen.insert(m);
                }
            }
        }
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn join_matrix_matches_the_nested_loop_row_for_row(
        l in prop::collection::vec((0..7usize, 0..7usize), 0..30),
        r in prop::collection::vec((0..7usize, 0..7usize), 0..12),
    ) {
        let _guard = metrics_lock();
        join_matrix(&l, &r);
    }
}

/// The matrix on chosen sizes: an empty build side, and both broadcast and
/// shuffle-both on 3 and on 5 nodes — every way the sides can move.
#[test]
fn join_matrix_covers_every_strategy_and_an_empty_build_side() {
    let _guard = metrics_lock();
    let picks = |n: usize| -> Vec<(usize, usize)> { (0..n).map(|i| (i * 5 % 7, i % 7)).collect() };
    let mut seen = BTreeSet::new();
    for (l, r) in [(30, 4), (10, 8), (12, 0)] {
        seen.extend(join_matrix(&picks(l), &picks(r)));
    }
    let all = [
        Moves::None,
        Moves::Left,
        Moves::Right,
        Moves::Both,
        Moves::Broadcast,
    ];
    assert_eq!(seen, BTreeSet::from(all));
}

// ------------------------------------------------------------ regressions

/// Integers at or above 2^53 tie when compared through `f64`.
#[test]
fn int64_min_max_and_order_by_compare_as_integers() {
    let _guard = metrics_lock();
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
/// NULL key alone on a node must not turn a column into `Float64` — under the
/// shuffled merge (round-robin) and the initiator merge (hash on the key).
#[test]
fn aggregate_output_dtypes_do_not_depend_on_the_data() {
    let _guard = metrics_lock();
    let dtypes =
        |b: &Batch| -> Vec<DataType> { b.schema().fields().iter().map(|f| f.dtype).collect() };
    for nodes in [1, 3, 5] {
        for seg in ["", " SEGMENTED BY HASH(s)"] {
            let db = VerticaDb::new(SimCluster::for_tests(nodes));
            db.query(&format!(
                "CREATE TABLE t (id INTEGER, s VARCHAR, n INTEGER){seg}"
            ))
            .unwrap();
            // `n` is all NULL; the NULL `s` key has one row, so it sits
            // alone on whichever node it lands on.
            db.query("INSERT INTO t VALUES (1, 'a', NULL), (2, 'a', NULL), (3, 'b', NULL), (4, NULL, NULL)")
                .unwrap();
            let what = format!("{nodes} nodes{seg}");

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
    let _guard = metrics_lock();
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

/// `ORDER BY` over floats is the IEEE total order GROUP BY output and
/// MIN/MAX use, NULL last in both directions: with NaN compared as "equal to
/// everything" the sort was not a total order and left the rows as loaded.
#[test]
fn order_by_is_a_total_order_with_nan() {
    let _guard = metrics_lock();
    let db = VerticaDb::new(SimCluster::for_tests(1));
    let cols = [("v", DataType::Float64)];
    let loaded = [3.0, f64::NAN, 1.0, -f64::NAN, 2.0].map(Value::Float64);
    let mut rows: Vec<Vec<Value>> = loaded.into_iter().map(|v| vec![v]).collect();
    rows.insert(2, vec![Value::Null]);
    load(&db, "t", &cols, &Segmentation::RoundRobin, &rows);
    let asc = [-f64::NAN, 1.0, 2.0, 3.0, f64::NAN];
    let mut desc = asc;
    desc.reverse();
    for (order, floats) in [("ASC", asc), ("DESC", desc)] {
        let sql = format!("SELECT v FROM t ORDER BY v {order}");
        let want: Vec<Value> = floats
            .into_iter()
            .map(Value::Float64)
            .chain([Value::Null])
            .collect();
        let got = db.query(&sql).unwrap().batch;
        let got: Vec<Value> = rows_of(&got).into_iter().flatten().collect();
        assert!(
            got.len() == want.len() && got.iter().zip(&want).all(|(g, w)| same(g, w)),
            "{sql}: got {got:?}, want {want:?}"
        );
    }
}

/// `(id, x, tag)` rows whose `x` runs opposite to `id`, on three nodes.
fn five_rows() -> Arc<VerticaDb> {
    let db = VerticaDb::new(SimCluster::for_tests(3));
    db.query("CREATE TABLE t (id INTEGER, x INTEGER, tag VARCHAR)")
        .unwrap();
    db.query(
        "INSERT INTO t VALUES (1, 50, 'b'), (2, 40, 'a'), (3, 30, 'b'), (4, 20, 'a'), (5, 10, 'c')",
    )
    .unwrap();
    db
}

fn column(db: &VerticaDb, sql: &str, col: usize) -> Vec<Value> {
    let out = db.query(sql).unwrap().batch;
    (0..out.num_rows())
        .map(|r| out.column(col).get(r))
        .collect()
}

/// A bare integer ORDER BY key is a 1-based select-list position — after
/// `*` expands, and after GROUP BY — not the constant it spells (which left
/// rows in gather order); 0 or a position past the end is a plan error.
#[test]
fn order_by_position_names_a_select_item() {
    let _guard = metrics_lock();
    let db = five_rows();
    let ints = |v: [i64; 5]| v.map(Value::Int64).to_vec();
    let s = |t: &str| Value::Varchar(t.into());
    assert_eq!(
        column(&db, "SELECT * FROM t ORDER BY 2", 0),
        ints([5, 4, 3, 2, 1])
    );
    assert_eq!(
        column(&db, "SELECT tag, id FROM t ORDER BY 1 DESC, 2 DESC", 1),
        ints([5, 3, 1, 4, 2])
    );
    assert_eq!(
        column(
            &db,
            "SELECT tag, count(*) FROM t GROUP BY tag ORDER BY 1 DESC",
            0
        ),
        vec![s("c"), s("b"), s("a")]
    );
    assert_eq!(
        column(
            &db,
            "SELECT tag, sum(x) FROM t GROUP BY tag ORDER BY 2 LIMIT 1",
            0
        ),
        vec![s("c")]
    );
    for sql in [
        "SELECT * FROM t ORDER BY 0",
        "SELECT * FROM t ORDER BY 4",
        "SELECT tag, count(*) FROM t GROUP BY tag ORDER BY 3",
    ] {
        assert!(matches!(db.query(sql), Err(DbError::Plan(_))), "{sql}");
    }
}

/// Without GROUP BY, an ORDER BY column naming a select alias sorts by that
/// item — over an input column of the same name — and ships the same hidden
/// key bytes as writing the expression out.
#[test]
fn order_by_a_select_alias_without_group_by() {
    let _guard = metrics_lock();
    let db = five_rows();
    let ints = |v: [i64; 5]| v.map(Value::Int64).to_vec();
    let by_d = "SELECT id, x * 2 AS d FROM t ORDER BY d";
    assert_eq!(column(&db, by_d, 0), ints([5, 4, 3, 2, 1]));
    assert_eq!(
        column(&db, "SELECT id AS x, x AS id FROM t ORDER BY id DESC", 0),
        ints([1, 2, 3, 4, 5])
    );
    db.query("CREATE TABLE u (id INTEGER, w FLOAT)").unwrap();
    db.query("INSERT INTO u VALUES (1, 0.5), (2, 0.5), (3, 0.5), (4, 0.5), (5, 0.5)")
        .unwrap();
    assert_eq!(
        column(
            &db,
            "SELECT t.id, t.x * 2 AS d FROM t JOIN u ON t.id = u.id ORDER BY d",
            0
        ),
        ints([5, 4, 3, 2, 1])
    );
    let gathered = |sql: &str| {
        let metrics = vertica_dr::obs::global().metrics();
        let before = metrics.snapshot();
        db.query(sql).unwrap();
        metrics
            .snapshot()
            .diff(&before)
            .counter_total("exec.gather.bytes")
    };
    let written_out = gathered("SELECT id, x * 2 AS d FROM t ORDER BY x * 2");
    assert!(written_out > 0);
    assert_eq!(gathered(by_d), written_out);
}
