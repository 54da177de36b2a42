//! Every plan operator's actuals are written down once, and the counters are
//! read from them. For each plan shape: `PROFILE`'s per-node operator rows
//! sum to the matching counters of the statement's own metric delta, the
//! root puts out the answer's rows, and `EXPLAIN` and `PROFILE` number the
//! operators identically.

use std::collections::BTreeMap;
use std::sync::Arc;
use vertica_dr::cluster::{NodeUsage, SimCluster};
use vertica_dr::columnar::{Batch, Column, DataType, Schema, Value};
use vertica_dr::core::{Model, Session, SessionOptions};
use vertica_dr::ml::{hpdglm, Family, GlmOptions};
use vertica_dr::obs::MetricsSnapshot;
use vertica_dr::verticadb::{Segmentation, TableDef, VerticaDb};

const ROWS: i64 = 4_000;

fn table(db: &VerticaDb, name: &str, seg: Segmentation, cols: Vec<(&str, Column)>) {
    let fields: Vec<(&str, DataType)> = cols.iter().map(|(n, c)| (*n, c.data_type())).collect();
    let schema = Schema::of(&fields);
    db.create_table(TableDef {
        name: name.into(),
        schema: schema.clone(),
        segmentation: seg,
    })
    .unwrap();
    let columns: Vec<Column> = cols.into_iter().map(|(_, c)| c).collect();
    // Two COPYs: two containers per node.
    let half = columns[0].len() / 2;
    for (from, to) in [(0, half), (half, columns[0].len())] {
        let part = columns.iter().map(|c| c.slice(from, to)).collect();
        db.copy(name, [Batch::new(schema.clone(), part).unwrap()])
            .unwrap();
    }
}

/// On four nodes: `facts(id, grp, tag, x, y)` round-robin, `grp` sorted and
/// low-cardinality (RLE), `tag` three-valued (dictionary); `byk(k, v)`
/// segmented on `k`; `other(id, c)` round-robin; a 40-row `dims(k, w)`.
fn db() -> Arc<VerticaDb> {
    let db = VerticaDb::new(SimCluster::for_tests(4));
    let ids = || Column::from_i64((0..ROWS).collect());
    let x: Vec<f64> = (0..ROWS)
        .map(|i| ((i * 37) % 101) as f64 / 50.0 - 1.0)
        .collect();
    let y = x.iter().map(|&v| f64::from(v > 0.1)).collect();
    let tags = (0..ROWS).map(|i| ["ant", "bee", "cat"][(i % 3) as usize]);
    let facts = vec![
        ("id", ids()),
        (
            "grp",
            Column::from_i64((0..ROWS).map(|i| i / 500).collect()),
        ),
        ("tag", Column::from_strings(tags.collect())),
        ("x", Column::from_f64(x)),
        ("y", Column::from_f64(y)),
    ];
    table(&db, "facts", Segmentation::RoundRobin, facts);
    let byk = vec![
        ("k", Column::from_i64((0..ROWS).map(|i| i % 40).collect())),
        ("v", Column::from_f64((0..ROWS).map(|i| i as f64).collect())),
    ];
    let by_k = Segmentation::Hash { column: "k".into() };
    table(&db, "byk", by_k.clone(), byk);
    let other = vec![
        ("id", ids()),
        (
            "c",
            Column::from_f64((0..ROWS).map(|i| i as f64 * 0.5).collect()),
        ),
    ];
    table(&db, "other", Segmentation::RoundRobin, other);
    let dims = vec![
        ("k", Column::from_i64((0..40).collect())),
        ("w", Column::from_f64((0..40).map(|i| i as f64).collect())),
    ];
    table(&db, "dims", Segmentation::RoundRobin, dims.clone());
    table(&db, "dims_k", by_k, dims);
    db
}

fn text(v: &Value) -> String {
    match v {
        Value::Varchar(s) => s.clone(),
        other => panic!("expected Varchar, got {other:?}"),
    }
}

fn num(v: &Value) -> u64 {
    match v {
        Value::Int64(n) => *n as u64,
        Value::Float64(f) => *f as u64,
        other => panic!("expected a number, got {other:?}"),
    }
}

/// One operator on one node, from `PROFILE`'s operator section.
#[derive(Debug, Default)]
struct Op {
    rows_in: u64,
    rows_out: u64,
    bytes_out: u64,
}

/// One of an operator's measures.
type Measure = fn(&Op) -> u64;

/// `PROFILE sql`: its operator rows by `(path id, label, node)` and the
/// statement's own metric delta.
fn profile(db: &VerticaDb, sql: &str) -> (BTreeMap<(u64, String, u64), Op>, MetricsSnapshot) {
    let out = db.query(&format!("PROFILE {sql}")).unwrap();
    let mut ops: BTreeMap<(u64, String, u64), Op> = BTreeMap::new();
    for r in 0..out.batch.num_rows() {
        let row = out.batch.row(r);
        if text(&row[1]) != "operator" {
            continue;
        }
        let name = text(&row[2]);
        let (path, label) = name.split_once(' ').expect("`<path id> <label>`");
        let key = (path.parse().unwrap(), label.to_string(), num(&row[3]));
        let op = ops.entry(key).or_default();
        match text(&row[5]).as_str() {
            "rows_in" => op.rows_in = num(&row[4]),
            "rows_out" => op.rows_out = num(&row[4]),
            "bytes_out" => op.bytes_out = num(&row[4]),
            "wall_us" => {}
            unit => panic!("unknown operator measure {unit}"),
        }
    }
    let history = db.monitor().history().snapshot();
    let record = history.iter().find(|r| r.id == out.query_id).unwrap();
    (ops, record.metrics_delta.clone())
}

/// `EXPLAIN sql`'s operators as `(path id, label)`.
fn explain(db: &VerticaDb, sql: &str) -> Vec<(u64, String)> {
    let out = db.query(&format!("EXPLAIN {sql}")).unwrap().batch;
    let path = out.schema().index_of("path_id").unwrap();
    let line = |r: usize| {
        let row = out.row(r);
        let label = format!("{} {}", text(&row[1]), text(&row[2]));
        (num(&row[path]), label.trim_end().to_string())
    };
    (0..out.num_rows()).map(line).collect()
}

/// Per node, a measure summed over the operators `pick` selects; zeros
/// left out, as a counter that never moved is absent from a delta.
fn by_node(
    ops: &BTreeMap<(u64, String, u64), Op>,
    pick: impl Fn(&str) -> bool,
    measure: Measure,
) -> BTreeMap<Option<usize>, u64> {
    let mut out = BTreeMap::new();
    for ((_, label, node), op) in ops {
        if pick(label) {
            *out.entry(Some(*node as usize)).or_default() += measure(op);
        }
    }
    out.retain(|_, v| *v > 0);
    out
}

/// Check `sql`'s operator record against its counters and its answer of
/// `answer_rows` rows.
fn holds(db: &VerticaDb, sql: &str, answer_rows: u64) {
    let (ops, delta) = profile(db, sql);
    let plan = explain(db, sql);
    let profiled: Vec<(u64, String)> = ops.keys().map(|(p, l, _)| (*p, l.clone())).collect();
    let mut numbered = profiled.clone();
    numbered.dedup();
    assert_eq!(numbered, plan, "{sql}: EXPLAIN and PROFILE number alike");

    let kind = |label: &str| label.split(' ').next().unwrap_or_default().to_string();
    let join = plan.iter().any(|(_, l)| kind(l) == "HashJoin");
    let scanned = plan.iter().any(|(_, l)| kind(l) == "Scan") && !join;
    let counter = |name: &str| {
        let mut c = delta.counter_by_node(name);
        c.retain(|_, v| *v > 0);
        c
    };
    let is = |k: &'static str| move |l: &str| kind(l) == k;
    if scanned {
        // A pipeline over a scan: scan out = filter in, filter out = the
        // sink's in, as the counters say.
        assert_eq!(
            by_node(&ops, is("Scan"), |o| o.rows_out),
            counter("exec.scan.rows"),
            "{sql}"
        );
        let sink = |l: &str| ["Project", "PartialAgg", "Transform"].contains(&kind(l).as_str());
        let passed = by_node(&ops, sink, |o| o.rows_in);
        assert_eq!(passed, counter("exec.filter.rows"), "{sql}");
        if plan.iter().any(|(_, l)| kind(l) == "Filter") {
            assert_eq!(by_node(&ops, is("Filter"), |o| o.rows_out), passed, "{sql}");
        }
    } else {
        assert!(counter("exec.scan.rows").is_empty(), "{sql}");
    }
    let pairs: [(&str, &str, Measure); 3] = [
        ("HashJoin", "exec.join.output_rows", |o| o.rows_out),
        ("Transform", "exec.transform.rows_in", |o| o.rows_in),
        ("Transform", "exec.transform.rows_out", |o| o.rows_out),
    ];
    for (op, name, measure) in pairs {
        assert_eq!(
            by_node(&ops, is(op), measure),
            counter(name),
            "{sql}: {name}"
        );
    }
    let moved = |l: &str| l.starts_with("Exchange hash") || l == "Exchange broadcast";
    for (name, measure) in [
        ("exchange.rows", (|o: &Op| o.rows_out) as Measure),
        ("exchange.bytes", |o| o.bytes_out),
    ] {
        assert_eq!(
            by_node(&ops, moved, measure),
            counter(name),
            "{sql}: {name}"
        );
    }
    let gathered = by_node(&ops, |l| l == "Exchange gather", |o| o.bytes_out);
    let total: u64 = gathered.values().sum();
    assert_eq!(total, delta.counter_total("exec.gather.bytes"), "{sql}");
    let shuffled = plan
        .windows(2)
        .any(|w| w[0].1.starts_with("Exchange hash") && kind(&w[1].1) == "PartialAgg");
    assert_eq!(
        delta.counter_total("exec.groupby.shuffled"),
        u64::from(shuffled),
        "{sql}"
    );
    // The root put out the answer's rows.
    let root: u64 = ops
        .iter()
        .filter(|((p, _, _), _)| *p == 0)
        .map(|(_, o)| o.rows_out)
        .sum();
    assert_eq!(root, answer_rows, "{sql}: the root's rows");
    assert_eq!(
        delta.counter_total("exec.output.rows"),
        answer_rows,
        "{sql}"
    );
}

/// `sql`'s answer row count, run untracked by PROFILE.
fn rows(db: &VerticaDb, sql: &str) -> u64 {
    db.query(sql).unwrap().batch.num_rows() as u64
}

#[test]
fn every_plan_shape_counts_from_its_operator_record() {
    let db = db();
    let shapes = [
        // Filters over RLE, dictionary and plain columns.
        "SELECT id, x FROM facts WHERE grp = 3",
        "SELECT count(*) FROM facts WHERE tag = 'bee' AND x > 0.0",
        "SELECT id FROM facts WHERE x < -0.5",
        // ORDER BY … LIMIT.
        "SELECT id, x FROM facts ORDER BY x DESC, id LIMIT 25",
        // GROUP BY: dictionary key shuffled, segmentation key merged on the
        // initiator, and COUNT(DISTINCT).
        "SELECT tag, count(*), sum(x) FROM facts GROUP BY tag",
        "SELECT grp, avg(x) FROM facts WHERE tag <> 'ant' GROUP BY grp ORDER BY grp",
        "SELECT k, count(*), sum(v) FROM byk GROUP BY k",
        "SELECT count(DISTINCT tag), count(DISTINCT grp) FROM facts",
        // The JOIN strategies.
        "SELECT count(*), sum(b.v) FROM byk b JOIN dims_k d ON b.k = d.k",
        "SELECT f.id, d.w FROM facts f JOIN dims d ON f.grp = d.k WHERE f.x > 0.5",
        "SELECT f.tag, count(*) FROM facts f JOIN other o ON f.id = o.id GROUP BY f.tag",
        "SELECT count(*), count(d.w) FROM facts f LEFT JOIN dims_k d ON f.id = d.k",
        // A v_monitor source: every node's rows, filtered before the gather.
        "SELECT table_name, column_name FROM v_monitor.storage_containers WHERE node = 2",
    ];
    for sql in shapes {
        holds(&db, sql, rows(&db, sql));
    }
    let joins: Vec<String> = explain(&db, shapes[8])
        .into_iter()
        .chain(explain(&db, shapes[9]))
        .chain(explain(&db, shapes[10]))
        .chain(explain(&db, shapes[11]))
        .map(|(_, l)| l)
        .filter(|l| l.starts_with("HashJoin"))
        .collect();
    let strategies = ["colocated", "broadcast_right", "shuffle_both", "left"];
    for (join, strategy) in joins.iter().zip(strategies) {
        assert!(join.contains(strategy), "{join} is not {strategy}");
    }

    // CTAS: the root put out the rows the new table holds.
    let ctas = "CREATE TABLE hot AS SELECT id, x, y FROM facts WHERE x > 0.0";
    let (ops, delta) = profile(&db, ctas);
    let created = rows(&db, "SELECT id FROM hot");
    let root: u64 = ops
        .iter()
        .filter(|((p, _, _), _)| *p == 0)
        .map(|(_, o)| o.rows_out)
        .sum();
    assert_eq!(root, created);
    assert_eq!(delta.counter_total("exec.output.rows"), created);
    assert_eq!(delta.counter_total("exec.scan.rows"), ROWS as u64);

    // In-database prediction over the table the CTAS made.
    let session = Session::connect_colocated(Arc::clone(&db), SessionOptions::default()).unwrap();
    let (data, _) = session.db2darray("hot", &["y", "x"]).unwrap();
    let x = data.split_columns(&[1]).unwrap();
    let y = data.split_columns(&[0]).unwrap();
    let model = hpdglm(&x, &y, Family::Gaussian, &GlmOptions::default()).unwrap();
    session
        .deploy_model(&Model::Glm(model), "actuals", "operator actuals test")
        .unwrap();
    let predict =
        "SELECT glmPredict(x USING PARAMETERS model='actuals') OVER (PARTITION BEST) FROM hot";
    holds(&db, predict, created);
}

/// The SELECT shapes of `every_plan_shape_counts_from_its_operator_record`.
const SHAPES: [&str; 13] = [
    "SELECT id, x FROM facts WHERE grp = 3",
    "SELECT count(*) FROM facts WHERE tag = 'bee' AND x > 0.0",
    "SELECT id FROM facts WHERE x < -0.5",
    "SELECT id, x FROM facts ORDER BY x DESC, id LIMIT 25",
    "SELECT tag, count(*), sum(x) FROM facts GROUP BY tag",
    "SELECT grp, avg(x) FROM facts WHERE tag <> 'ant' GROUP BY grp ORDER BY grp",
    "SELECT k, count(*), sum(v) FROM byk GROUP BY k",
    "SELECT count(DISTINCT tag), count(DISTINCT grp) FROM facts",
    "SELECT count(*), sum(b.v) FROM byk b JOIN dims_k d ON b.k = d.k",
    "SELECT f.id, d.w FROM facts f JOIN dims d ON f.grp = d.k WHERE f.x > 0.5",
    "SELECT f.tag, count(*) FROM facts f JOIN other o ON f.id = o.id GROUP BY f.tag",
    "SELECT count(*), count(d.w) FROM facts f LEFT JOIN dims_k d ON f.id = d.k",
    "SELECT table_name, column_name FROM v_monitor.storage_containers WHERE node = 2",
];

/// Run `sql` and check that, per node and per resource, its operators'
/// usage sums to its ledger phase's: bytes exactly, CPU and fixed seconds to
/// a relative 1e-9 (the sums add the same charges in another order). Returns
/// the phase's disk, NIC and CPU totals.
fn usage_sums_to_phase(db: &VerticaDb, sql: &str) -> [f64; 3] {
    let id = db.query(sql).unwrap().query_id;
    let history = db.monitor().history().snapshot();
    let record = history.iter().find(|r| r.id == id).unwrap();
    let [phase] = record.phases.as_slice() else {
        panic!("{sql}: one phase, got {}", record.phases.len());
    };
    let bytes = |u: &NodeUsage| {
        let disk = [
            u.disk_read_bytes,
            u.disk_cached_read_bytes,
            u.disk_write_bytes,
        ];
        (disk, [u.net_in_bytes, u.net_out_bytes])
    };
    let near = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
    let mut totals = [0.0; 3];
    for n in &phase.nodes {
        let mut ops = NodeUsage::default();
        let mine = record.operators.actuals.iter().filter(|a| a.node == n.node);
        mine.for_each(|a| ops.merge(&a.usage));
        let (p, node) = (&n.usage, n.node);
        assert_eq!(bytes(&ops), bytes(p), "{sql}: node {node} bytes");
        assert!(
            near(ops.cpu_core_ns, p.cpu_core_ns),
            "{sql}: node {node} {ops:?} {p:?}"
        );
        assert!(
            near(ops.fixed_secs, p.fixed_secs),
            "{sql}: node {node} {ops:?} {p:?}"
        );
        let (disk, [net_in, _]) = bytes(p);
        totals[0] += disk.iter().sum::<u64>() as f64;
        totals[1] += net_in as f64;
        totals[2] += p.cpu_core_ns;
    }
    totals
}

#[test]
fn operator_usage_sums_to_the_phase_per_node_and_resource() {
    let db = db();
    let mut seen = [0.0; 3];
    for sql in SHAPES {
        let totals = usage_sums_to_phase(&db, sql);
        seen.iter_mut().zip(totals).for_each(|(s, t)| *s += t);
    }
    // The shapes read disk, cross the NIC and charge CPU: the sums are not
    // of zeros.
    assert!(seen.iter().all(|&t| t > 0.0), "{seen:?}");

    // CTAS: the SELECT's operators and the Store's writes.
    let ctas = "CREATE TABLE hot AS SELECT id, x, y FROM facts WHERE x > 0.0";
    let [disk, _, _] = usage_sums_to_phase(&db, ctas);
    assert!(disk > 0.0, "the CTAS writes its table");

    // In-database prediction: the UDx's model fetch and scoring charge the
    // Transform.
    let session = Session::connect_colocated(Arc::clone(&db), SessionOptions::default()).unwrap();
    let (data, _) = session.db2darray("hot", &["y", "x"]).unwrap();
    let x = data.split_columns(&[1]).unwrap();
    let y = data.split_columns(&[0]).unwrap();
    let model = hpdglm(&x, &y, Family::Gaussian, &GlmOptions::default()).unwrap();
    session
        .deploy_model(&Model::Glm(model), "usage", "operator usage test")
        .unwrap();
    let predict =
        "SELECT glmPredict(x USING PARAMETERS model='usage') OVER (PARTITION BEST) FROM hot";
    let [_, _, cpu] = usage_sums_to_phase(&db, predict);
    assert!(cpu > 0.0, "prediction charges CPU");
    // `query_plan_profiles` puts each operator's modeled time beside its
    // wall time: the scoring Transform's is not zero.
    let sim = "SELECT sum(sim_us) FROM v_monitor.query_plan_profiles \
               WHERE operator LIKE 'Transform%'";
    let sim = db.query(sim).unwrap().batch.row(0)[0].as_f64().unwrap();
    assert!(sim > 0.0, "{sim}");
}
