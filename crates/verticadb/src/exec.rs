//! The distributed query executor.
//!
//! Regular `SELECT`s run MPP-style: every node scans, filters, and projects
//! its own segment (and computes partial aggregates); the small per-node
//! results are gathered to the initiator node for the final merge, sort, and
//! limit. Transform (`OVER (PARTITION …)`) selects spawn UDx instances per
//! node, the paper's extension mechanism.
//!
//! # Compressed execution
//!
//! When a query's shape allows it (`encoded_execution_eligible`, a pure
//! function of the statement), the scan returns [`EncodedBatch`]es whose
//! Rle/Dictionary columns are still in run/code form. Predicates then
//! evaluate per *run* or per *distinct dictionary code*
//! ([`kernels::cmp_scalar_rle`] / [`kernels::cmp_scalar_dict`]), a
//! single-column dictionary GROUP BY takes its group ids from the dictionary
//! codes without hashing decoded strings, and everything else is
//! **late-materialized**: non-predicate columns decode only the rows that
//! survived the filter bitmap. The whole path is an executor-internal
//! optimization — results are bit-for-bit those of the decoded path.
//!
//! # Aggregation
//!
//! One columnar aggregator (`agg.rs`) runs from scan to finalize. A plan,
//! made once per statement from the select list and the input schema, names
//! the state columns each aggregate keeps per group — and the output dtypes,
//! which therefore never depend on the data:
//!
//! | aggregate           | state columns                                 |
//! |---------------------|-----------------------------------------------|
//! | `COUNT(*)`          | `rows: Int64`                                 |
//! | `COUNT(e)`          | `non_null: Int64`                             |
//! | `SUM(e)` / `AVG(e)` | `sum: Float64`, `non_null: Int64`             |
//! | `MIN(e)` / `MAX(e)` | one column of `e`'s type, NULL until a value  |
//! | `COUNT(DISTINCT e)` | none; a pair set (below)                      |
//!
//! Each node feeds one group table container after container; its state is
//! an ordinary [`Batch`] (`key columns ++ state columns`, a row per group)
//! that the shuffled GROUP BY partitions by key hash and ships through the
//! block codec — the exchange carries one payload type — and that the
//! initiator-merge path gathers and merges with the same code. The
//! statement, the table's segmentation and the node count choose *where* the
//! aggregator merges and whether group ids come from dictionary codes; no
//! user setting does.
//!
//! `COUNT(DISTINCT)` ships as deduplicated `(group, value)` pairs because a
//! count cannot be merged: two nodes that each saw `'a'` must count it once.
//! The pairs are normalized — a `value` batch holding each distinct value
//! once, and two integer columns naming rows of the state batch and of the
//! value batch — so a string that occurs in ten thousand groups is hashed
//! per input row but copied, encoded and decoded once.
//!
//! Keys and DISTINCT values are equal by bit pattern (`NaN` is one group,
//! `-0.0` and `0.0` are two), NULL is its own group, integers compare as
//! integers, and float `MIN`/`MAX` and the key order use the IEEE total
//! order, so no answer depends on arrival order. Float `SUM` adds in row
//! order within a node and in node order across merges (own partition
//! first under the shuffle) — fixed orders, so a sum repeats run to run.
//!
//! # Ordering
//!
//! ORDER BY keys that point into the select list — a bare integer is a
//! 1-based position after `*` expands, a bare name that is a select alias
//! wins over an input column — are resolved once per statement. Without
//! GROUP BY every node then appends one hidden column per key (the key's
//! value) to its projected rows and the gather ships all of them; the
//! initiator orders the per-node batches in place with the typed operator
//! of `sort.rs` and keeps only the select items. GROUP BY output orders by
//! its output columns through the same operator. It compares in the order
//! the aggregator keeps its keys in, NULL last both ways; under `LIMIT` it
//! selects the first `OFFSET + LIMIT` rows instead of sorting them all,
//! and rows equal on every key stay in gather order. `LIMIT` is applied
//! only at the initiator, after the gather: the ODBC baseline's `ORDER BY
//! … LIMIT … OFFSET` range queries are modeled as a full scan plus a
//! gather of every node's rows.

use crate::agg::{self, AggPlan, Aggregator};
use crate::db::VerticaDb;
use crate::error::{DbError, Result};
use crate::expr::{cmp_op, literal_num, BinOp, Expr};
use crate::segmentation::hash_routes;
use crate::sort;
use crate::sql::{Partition, SelectItem, SelectStmt, Statement};
use crate::udx::UdxContext;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use vdr_cluster::{NodeId, PhaseRecorder};
use vdr_columnar::kernels::{self, CmpOp};
use vdr_columnar::{
    Batch, Bitmap, Column, DataType, EncodedBatch, Field, ScanColumn, Schema, Value,
};

#[path = "exec_join.rs"]
mod join;

/// The node that runs final merges — where the client is connected.
const INITIATOR: NodeId = NodeId(0);

/// Execute any statement against the database, charging `rec`.
pub fn execute(db: &VerticaDb, stmt: &Statement, rec: &Arc<PhaseRecorder>) -> Result<Batch> {
    let mut stmt_span = vdr_obs::span("exec.statement");
    stmt_span.record("stmt", crate::db::statement_label(stmt));
    match stmt {
        Statement::Select(select) => execute_select(db, select, rec),
        Statement::CreateTable {
            name,
            columns,
            segmentation,
        } => {
            let schema = Schema::new(
                columns
                    .iter()
                    .map(|(n, t)| Field::new(n.clone(), *t))
                    .collect(),
            );
            let seg = match segmentation {
                Some(crate::sql::SegSpec::Hash(col)) => {
                    schema.index_of(col).map_err(|_| {
                        DbError::Plan(format!("segmentation column '{col}' not in table"))
                    })?;
                    crate::segmentation::Segmentation::Hash {
                        column: col.clone(),
                    }
                }
                Some(crate::sql::SegSpec::RoundRobin) | None => {
                    crate::segmentation::Segmentation::RoundRobin
                }
            };
            db.catalog().create_table(crate::catalog::TableDef {
                name: name.clone(),
                schema,
                segmentation: seg,
            })?;
            status_batch(&format!("CREATE TABLE {name}"))
        }
        Statement::CreateTableAs { name, query } => {
            let result = execute_select(db, query, rec)?;
            db.catalog().create_table(crate::catalog::TableDef {
                name: name.clone(),
                schema: result.schema().clone(),
                segmentation: crate::segmentation::Segmentation::RoundRobin,
            })?;
            let n = result.num_rows();
            let def = db.catalog().get(name)?;
            db.storage().load(&def, vec![result], rec)?;
            status_batch(&format!("CREATE TABLE {name} AS SELECT ({n} rows)"))
        }
        Statement::Insert { table, rows } => {
            let def = db.catalog().get(table)?;
            let one_row = Batch::from_rows(
                Schema::of(&[("dummy", DataType::Int64)]),
                &[vec![Value::Int64(0)]],
            )?;
            let mut value_rows = Vec::with_capacity(rows.len());
            for row in rows {
                if row.len() != def.schema.len() {
                    return Err(DbError::Plan(format!(
                        "INSERT has {} values, table {} has {} columns",
                        row.len(),
                        def.name,
                        def.schema.len()
                    )));
                }
                let mut values = Vec::with_capacity(row.len());
                for e in row {
                    // Literal expressions evaluated against a 1-row dummy.
                    values.push(e.eval(&one_row)?.get(0));
                }
                value_rows.push(values);
            }
            let batch = Batch::from_rows(def.schema.clone(), &value_rows)?;
            let n = batch.num_rows();
            db.storage().load(&def, vec![batch], rec)?;
            status_batch(&format!("INSERT {n}"))
        }
        Statement::DropTable { name, if_exists } => {
            match db.catalog().drop_table(name) {
                Ok(_) => {}
                Err(_) if *if_exists => return status_batch("DROP TABLE (skipped)"),
                Err(e) => return Err(e),
            }
            db.storage().drop_table(name);
            status_batch(&format!("DROP TABLE {name}"))
        }
        // The tracked path (`VerticaDb::execute_tracked`) unwraps one
        // PROFILE layer before dispatching here, so reaching this arm means
        // PROFILE PROFILE … or a caller bypassing the tracked entry points.
        Statement::Profile(_) => Err(DbError::Plan(
            "PROFILE must be the outermost statement".into(),
        )),
        Statement::Trace(_) => Err(DbError::Plan(
            "TRACE must be the outermost statement".into(),
        )),
    }
}

fn status_batch(msg: &str) -> Result<Batch> {
    Ok(Batch::new(
        Schema::of(&[("status", DataType::Varchar)]),
        vec![Column::from_strings(vec![msg])],
    )?)
}

// ------------------------------------------------------------------ SELECT

fn execute_select(db: &VerticaDb, stmt: &SelectStmt, rec: &Arc<PhaseRecorder>) -> Result<Batch> {
    if let Some(SelectItem::Transform {
        name,
        args,
        params,
        partition,
    }) = stmt.transform_item()
    {
        if stmt.items.len() != 1 {
            return Err(DbError::Plan(
                "a transform function must be the only select item".into(),
            ));
        }
        if stmt.join.is_some() {
            return Err(DbError::Plan(
                "transform functions cannot be combined with JOIN".into(),
            ));
        }
        return run_transform(db, stmt, name, args, params, partition, rec);
    }

    if stmt.join.is_some() {
        return join::execute_join_select(db, stmt, rec);
    }

    let mut select_span = vdr_obs::span("exec.select");
    let select_span_id = select_span.id();

    // FROM-less: SELECT 1+1.
    let Some(table) = &stmt.from else {
        let one = Batch::from_rows(
            Schema::of(&[("dummy", DataType::Int64)]),
            &[vec![Value::Int64(0)]],
        )?;
        return project_batch(&*resolve_order_by(stmt, one.schema())?, &one);
    };

    // Per-node pipelines.
    let initiator_local = if let Some(sys) = crate::monitor::v_monitor_table(table) {
        // System tables materialize cluster-wide: every node contributes its
        // rows (framed and streamed to the initiator, charged to `rec`),
        // the union gains a `node_name` column, then the ordinary
        // WHERE/projection/ORDER BY machinery runs over it like any
        // gathered result.
        Some(db.monitor().materialize_cluster(sys, db, rec)?)
    } else if table.eq_ignore_ascii_case("r_models") {
        // The metadata table lives on the initiator.
        Some(db.models().as_batch())
    } else {
        None
    };
    select_span.record("table", table);
    let (stmt, per_node, plan, seg_aligned) = if let Some(batch) = initiator_local {
        let stmt = resolve_order_by(stmt, batch.schema())?;
        let plan = agg_plan(&stmt, batch.schema())?;
        let filtered = apply_where(&stmt, &batch)?;
        let nr = node_result(&stmt, plan.as_ref(), &filtered);
        (stmt, vec![nr], plan, true)
    } else {
        let def = db.catalog().get(table)?;
        let resolved = resolve_order_by(stmt, &def.schema)?;
        let stmt: &SelectStmt = &resolved;
        let plan = agg_plan(stmt, &def.schema)?;
        // Planner: push the referenced-column set down to the scan so
        // unused column payloads are never decoded.
        let wanted = referenced_columns(stmt);
        // Planner rule: run on encoded data when the statement shape allows
        // it (see `encoded_execution_eligible`).
        let use_encoded = encoded_execution_eligible(stmt);
        // Scatter spawns one OS thread per node: the query scope is
        // thread-local, so re-enter it in each worker (as span parents are
        // passed explicitly).
        let query_id = vdr_obs::current_query_id();
        let per_node = db.cluster().scatter(|node| -> Result<NodeResult> {
            let _q = vdr_obs::QueryScope::enter(query_id);
            let _n = vdr_obs::NodeScope::enter(node.id().0);
            let mut scan_span = vdr_obs::detail_span_with_parent("exec.scan", select_span_id);
            scan_span.set_node(node.id().0);
            // One accumulator per node per statement, fed container
            // after container.
            let mut acc = NodeAcc::new(stmt, plan.as_ref(), &def.schema)?;
            let (rows_in, rows_out) = if use_encoded {
                encoded_node_pipeline(db, stmt, table, node.id(), rec, wanted.as_ref(), &mut acc)?
            } else {
                let batches = db.storage().scan_node_projected(
                    table,
                    node.id(),
                    rec,
                    false,
                    wanted.as_ref(),
                )?;
                let (mut rows_in, mut rows_out) = (0u64, 0u64);
                for batch in batches {
                    rows_in += batch.num_rows() as u64;
                    let filtered = apply_where(stmt, &batch)?;
                    rows_out += filtered.num_rows() as u64;
                    acc.push(&filtered)?;
                }
                (rows_in, rows_out)
            };
            scan_span.record("rows_in", rows_in);
            scan_span.record("rows_out", rows_out);
            vdr_obs::counter_on("exec.scan.rows", node.id().0, rows_in);
            vdr_obs::counter_on("exec.filter.rows", node.id().0, rows_out);
            acc.finish()
        });
        // GROUP BY partials whose key contains the segmentation key are
        // already node-disjoint; everything else benefits from the
        // shuffled merge.
        let seg_aligned = match &def.segmentation {
            crate::segmentation::Segmentation::Hash { column } => stmt
                .group_by
                .iter()
                .any(|g| matches!(g, Expr::Column(c) if c.eq_ignore_ascii_case(column))),
            _ => false,
        };
        (resolved, per_node, plan, seg_aligned)
    };

    let out = gather_and_finalize(db, &stmt, plan.as_ref(), rec, per_node, seg_aligned)?;
    select_span.record("rows_out", out.num_rows());
    vdr_obs::counter("exec.output.rows", out.num_rows() as u64);
    Ok(out)
}

/// The common tail of every SELECT: gather the per-node results to the
/// initiator and finish there (sort / offset / limit of rows, or merge and
/// finalize of aggregate partials) — or, for a GROUP BY off the segmentation
/// key, repartition the partials so every node merges and finalizes a
/// disjoint key range first (shuffled two-phase merge).
fn gather_and_finalize(
    db: &VerticaDb,
    stmt: &SelectStmt,
    plan: Option<&AggPlan>,
    rec: &Arc<PhaseRecorder>,
    per_node: Vec<Result<NodeResult>>,
    groupby_seg_aligned: bool,
) -> Result<Batch> {
    let mut rows = Vec::new();
    let mut partials = Vec::new();
    for r in per_node {
        match r? {
            NodeResult::Rows(b) => rows.push(b),
            NodeResult::Partial(p) => partials.push(p),
        }
    }
    let Some(plan) = plan else {
        let bytes: Vec<u64> = rows.iter().map(Batch::byte_size).collect();
        charge_gather(rec, &bytes);
        return order_limit_rows(stmt, rows);
    };
    // The shuffle is skipped when it cannot help: a single node, a global
    // aggregate, or a group key containing the segmentation key (already
    // node-disjoint).
    let n = partials.len();
    let shuffle = n > 1 && n == db.cluster().num_nodes() && !groupby_seg_aligned && plan.has_keys();
    let batch = if shuffle {
        shuffle_group_by(db, plan, rec, &partials)?
    } else {
        let bytes: Vec<u64> = partials.iter().map(agg::Partial::byte_size).collect();
        charge_gather(rec, &bytes);
        let mut merged = Aggregator::new(plan)?;
        for p in &partials {
            merged.merge(p)?;
        }
        merged.finalize()?
    };
    order_limit_aggregate_output(stmt, batch)
}

/// Charge shipping `bytes[i]` from node `i` to the initiator.
fn charge_gather(rec: &Arc<PhaseRecorder>, bytes: &[u64]) {
    let mut gather_span = vdr_obs::span("exec.gather");
    for (i, &b) in bytes.iter().enumerate() {
        rec.net(NodeId(i), INITIATOR, b);
    }
    let total: u64 = bytes.iter().sum();
    gather_span.record("bytes", total);
    vdr_obs::counter("exec.gather.bytes", total);
}

/// Shuffled two-phase GROUP BY: repartition the per-node partials by
/// group-key hash so every node merges — and finalizes — a disjoint key
/// range in parallel, instead of the initiator merging everything
/// single-threaded. A partition is the aggregate state itself, an ordinary
/// batch per [`agg::Partial::encode`], so it crosses the exchange through the
/// block codec like a JOIN partition does. Because post-shuffle ranges are
/// disjoint, each node ships one finished row per group back to the
/// initiator rather than state (a COUNT(DISTINCT) pair set collapses to one
/// integer per group before it crosses the wire again).
fn shuffle_group_by(
    db: &VerticaDb,
    plan: &AggPlan,
    rec: &Arc<PhaseRecorder>,
    partials: &[agg::Partial],
) -> Result<Batch> {
    let n = partials.len();
    let query_id = vdr_obs::current_query_id();
    let scan_cost = db.cluster().profile().costs.db_scan_ns_per_value;
    let as_io = |e: DbError| vdr_cluster::ClusterError::Io(e.to_string());
    let finished = vdr_cluster::exchange_framed(
        db.cluster(),
        rec,
        "exec.groupby.shuffle",
        |node| {
            let _q = vdr_obs::QueryScope::enter(query_id);
            let _ns = vdr_obs::NodeScope::enter(node.id().0);
            let me = node.id().0;
            let mut own = None;
            let mut sent = 0u64;
            let mut frames: Vec<Vec<bytes::Bytes>> = Vec::with_capacity(n);
            for (dst, part) in plan
                .split(&partials[me], n)
                .map_err(as_io)?
                .into_iter()
                .enumerate()
            {
                if dst == me {
                    // The partition addressed to this node never leaves it:
                    // it rides as the exchange's local carry, skipping the
                    // codec and the loopback entirely.
                    own = Some(part);
                    frames.push(Vec::new());
                } else if part.num_groups() == 0 {
                    frames.push(Vec::new());
                } else {
                    let f = part.encode();
                    sent += f.iter().map(|b| b.len() as u64).sum::<u64>();
                    frames.push(f);
                }
            }
            // Encoding partial state is byte-proportional CPU work.
            if sent > 0 {
                rec.cpu_work(node.id(), sent as f64 / 8.0, scan_cost);
            }
            Ok((frames, own))
        },
        |node, own, recv| {
            let _q = vdr_obs::QueryScope::enter(query_id);
            let _ns = vdr_obs::NodeScope::enter(node.id().0);
            let me = node.id().0;
            let mut merged = Aggregator::new(plan).map_err(as_io)?;
            if let Some(own) = &own {
                merged.merge(own).map_err(as_io)?;
            }
            let mut rows = 0u64;
            for frames in recv.frames.iter().filter(|f| !f.is_empty()) {
                let part = plan.decode(frames).map_err(as_io)?;
                rows += part.num_groups() as u64;
                merged.merge(&part).map_err(as_io)?;
            }
            vdr_obs::counter_on("exchange.rows", me, rows);
            vdr_obs::counter_on("exchange.bytes", me, recv.bytes);
            vdr_obs::counter_on("exchange.frames", me, recv.num_frames);
            vdr_obs::counter_on("exchange.wait_ns", me, recv.wait_ns);
            // Merging the received range is this node's (not the
            // initiator's) work — that's the whole point.
            rec.cpu_work(node.id(), recv.bytes as f64 / 8.0, scan_cost);
            // The key range is disjoint across nodes after the shuffle, so
            // this node's groups are final: materialize the output rows here
            // and ship those instead of the (much heavier) aggregate states.
            merged.finalize().map_err(as_io)
        },
    )
    .map_err(DbError::from)?;
    vdr_obs::counter("exec.groupby.shuffled", 1);

    // Gather the finished row slices — every one in the planned output
    // schema — and concatenate.
    let bytes: Vec<u64> = finished.iter().map(Batch::byte_size).collect();
    charge_gather(rec, &bytes);
    Ok(Batch::concat(plan.out_schema().clone(), &finished)?)
}

/// Apply the WHERE clause, borrowing the input when nothing is filtered
/// out (no predicate, or an all-true mask) so cached batches aren't copied.
fn apply_where<'a>(stmt: &SelectStmt, batch: &'a Batch) -> Result<Cow<'a, Batch>> {
    match &stmt.where_clause {
        Some(pred) => {
            let mask = pred.eval_predicate(batch)?;
            if mask.all_set() {
                Ok(Cow::Borrowed(batch))
            } else {
                Ok(Cow::Owned(batch.filter(&mask)?))
            }
        }
        None => Ok(Cow::Borrowed(batch)),
    }
}

fn add_expr_columns(set: &mut HashSet<String>, e: &Expr) {
    for c in e.columns() {
        set.insert(c.to_ascii_lowercase());
    }
}

/// The lowercased set of table columns a SELECT references anywhere
/// (projection, WHERE, ORDER BY, GROUP BY) — the scan only needs to decode
/// these. `None` means "all columns" (a wildcard appears). An empty set is
/// legitimate (`SELECT count(*)`): the decoder keeps one cheap column to
/// preserve row counts.
fn referenced_columns(stmt: &SelectStmt) -> Option<HashSet<String>> {
    let mut cols = HashSet::new();
    for item in &stmt.items {
        match item {
            SelectItem::Wildcard => return None,
            SelectItem::Expr { expr, .. } => add_expr_columns(&mut cols, expr),
            SelectItem::Aggregate { arg, .. } => {
                if let Some(a) = arg {
                    add_expr_columns(&mut cols, a);
                }
            }
            SelectItem::Transform { args, .. } => {
                for a in args {
                    add_expr_columns(&mut cols, a);
                }
            }
        }
    }
    if let Some(w) = &stmt.where_clause {
        add_expr_columns(&mut cols, w);
    }
    for k in &stmt.order_by {
        add_expr_columns(&mut cols, &k.expr);
    }
    for g in &stmt.group_by {
        add_expr_columns(&mut cols, g);
    }
    Some(cols)
}

// -------------------------------------------------- compressed execution

/// Is `e` a predicate the encoded evaluator handles natively: an And/Or tree
/// whose leaves are boolean literals or column-vs-literal comparisons (either
/// operand order)? Anything else (LIKE, IN, col-vs-col, arithmetic inside
/// the comparison) needs fully decoded columns, so the planner keeps those
/// statements on the decoded path.
fn encodable_predicate(e: &Expr) -> bool {
    match e {
        Expr::Literal(Value::Bool(_)) => true,
        Expr::Binary {
            op: BinOp::And | BinOp::Or,
            left,
            right,
        } => encodable_predicate(left) && encodable_predicate(right),
        Expr::Binary { op, left, right } if op.is_comparison() => matches!(
            (&**left, &**right),
            (Expr::Column(_), Expr::Literal(_)) | (Expr::Literal(_), Expr::Column(_))
        ),
        _ => false,
    }
}

/// The planner's encoded-vs-decoded decision for a regular table scan.
/// Encoded execution pays off when the filter can run per-run/per-code
/// (encodable WHERE) or when a GROUP BY can aggregate over dictionary codes;
/// a bare full-table SELECT gains nothing from the detour, so it stays on
/// the decoded path (whose cache tier it already warms).
fn encoded_execution_eligible(stmt: &SelectStmt) -> bool {
    match &stmt.where_clause {
        Some(w) => encodable_predicate(w),
        None => !stmt.group_by.is_empty(),
    }
}

/// What one node's encoded pipeline did, for the cost ledger and the
/// `scan.encoded.*` counters.
#[derive(Debug, Default)]
struct EncodedScanStats {
    /// Per-row predicate evaluations avoided by run/code kernels.
    runs_skipped: u64,
    /// Runs resolved by binary-searched boundaries on sorted RLE columns.
    runs_bsearched: u64,
    /// Distinct dictionary codes a predicate actually compared.
    codes_tested: u64,
    /// Filter-surviving rows decoded out of encoded columns afterwards.
    late_materialized_rows: u64,
    /// Values expanded from encoded form (per column × row) — the decode
    /// work the ledger charges at scan cost.
    expanded_values: u64,
}

/// Per-node compressed-execution pipeline: encoded scan → encoded predicate
/// → dictionary GROUP BY or late materialization → the node's accumulator.
/// Returns `(rows scanned, rows that passed the filter)`.
fn encoded_node_pipeline(
    db: &VerticaDb,
    stmt: &SelectStmt,
    table: &str,
    node: NodeId,
    rec: &Arc<PhaseRecorder>,
    wanted: Option<&HashSet<String>>,
    acc: &mut NodeAcc<'_>,
) -> Result<(u64, u64)> {
    let batches = db
        .storage()
        .scan_node_encoded(table, node, rec, false, wanted)?;
    let scan_cost = db.cluster().profile().costs.db_scan_ns_per_value;
    let mut stats = EncodedScanStats::default();
    let mut rows_in = 0u64;
    let mut rows_out = 0u64;
    for eb in batches {
        rows_in += eb.num_rows() as u64;
        let mask = match &stmt.where_clause {
            Some(pred) => eval_predicate_encoded(pred, &eb, &mut stats)?,
            None => Bitmap::all_valid(eb.num_rows()),
        };
        rows_out += mask.count_set() as u64;
        acc.push_encoded(&eb, &mask, &mut stats)?;
    }
    // Expansion out of encoded form is the decode work this path deferred;
    // charge it at the same per-value scan cost the eager decoder pays.
    if stats.expanded_values > 0 {
        rec.cpu_work(node, stats.expanded_values as f64, scan_cost);
    }
    if stats.runs_skipped > 0 {
        vdr_obs::counter_on("scan.encoded.runs_skipped", node.0, stats.runs_skipped);
    }
    if stats.runs_bsearched > 0 {
        vdr_obs::counter_on("scan.encoded.runs_bsearched", node.0, stats.runs_bsearched);
    }
    if stats.codes_tested > 0 {
        vdr_obs::counter_on("scan.encoded.codes_tested", node.0, stats.codes_tested);
    }
    if stats.late_materialized_rows > 0 {
        vdr_obs::counter_on(
            "scan.encoded.late_materialized_rows",
            node.0,
            stats.late_materialized_rows,
        );
    }
    Ok((rows_in, rows_out))
}

/// Evaluate a WHERE predicate against an encoded batch, producing the same
/// is-TRUE selection mask [`Expr::eval_predicate`] would on decoded columns.
/// RLE columns compare once per run ([`kernels::cmp_scalar_rle`]),
/// dictionary columns once per distinct code
/// ([`kernels::cmp_scalar_dict`]); leaves outside the encoded kernels decode
/// just their own column and fall back to the decoded evaluator.
fn eval_predicate_encoded(
    e: &Expr,
    eb: &EncodedBatch,
    stats: &mut EncodedScanStats,
) -> Result<Bitmap> {
    let n = eb.num_rows();
    match e {
        Expr::Literal(Value::Bool(true)) => Ok(Bitmap::all_valid(n)),
        Expr::Literal(Value::Bool(false)) => Ok(Bitmap::all_clear(n)),
        Expr::Binary { op, left, right } if matches!(op, BinOp::And | BinOp::Or) => {
            // Same short-circuits as the decoded path: an all-false left arm
            // settles an AND, an all-true left arm an OR.
            let l = eval_predicate_encoded(left, eb, stats)?;
            match op {
                BinOp::And if !l.any_set() => Ok(l),
                BinOp::And => Ok(l.and(&eval_predicate_encoded(right, eb, stats)?)),
                _ if l.all_set() => Ok(l),
                _ => Ok(l.or(&eval_predicate_encoded(right, eb, stats)?)),
            }
        }
        Expr::Binary { op, left, right } if op.is_comparison() => {
            let cop = cmp_op(*op);
            if let (Expr::Column(name), Expr::Literal(v)) = (&**left, &**right) {
                if let Some(mask) = encoded_cmp_leaf(eb, name, cop, v, stats)? {
                    return Ok(mask);
                }
            }
            if let (Expr::Literal(v), Expr::Column(name)) = (&**left, &**right) {
                if let Some(mask) = encoded_cmp_leaf(eb, name, cop.flip(), v, stats)? {
                    return Ok(mask);
                }
            }
            decoded_predicate_leaf(e, eb)
        }
        _ => decoded_predicate_leaf(e, eb),
    }
}

/// Try the encoded comparison kernels for `column cop literal`. `Ok(None)`
/// means "no encoded kernel applies" (decoded column, bool runs, or a
/// type/kernels mismatch) and the caller falls back.
fn encoded_cmp_leaf(
    eb: &EncodedBatch,
    name: &str,
    cop: CmpOp,
    lit: &Value,
    stats: &mut EncodedScanStats,
) -> Result<Option<Bitmap>> {
    let ScanColumn::Encoded(col) = eb.column_by_name(name)? else {
        return Ok(None);
    };
    if let Some(rhs) = literal_num(lit) {
        if let Some((mask, s)) = kernels::cmp_scalar_rle(col, cop, rhs) {
            stats.runs_skipped += s.rows_skipped();
            stats.runs_bsearched += s.runs_bsearched;
            return Ok(Some(mask));
        }
    }
    if let Value::Varchar(s) = lit {
        if let Some((mask, s)) = kernels::cmp_scalar_dict(col, cop, s) {
            stats.codes_tested += s.comparisons;
            return Ok(Some(mask));
        }
    }
    Ok(None)
}

/// Fallback for a predicate leaf the encoded kernels can't take: decode only
/// the columns that leaf references (all rows — the mask isn't known yet)
/// and run the decoded evaluator over the single-purpose batch.
fn decoded_predicate_leaf(e: &Expr, eb: &EncodedBatch) -> Result<Bitmap> {
    let cols: HashSet<String> = e.columns().iter().map(|c| c.to_ascii_lowercase()).collect();
    let all = Bitmap::all_valid(eb.num_rows());
    let subset = if cols.is_empty() { None } else { Some(&cols) };
    let (batch, _) = eb.materialize(&all, subset)?;
    e.eval_predicate(&batch)
}

// --------------------------------------------------- per-node partial state

/// What a node contributes to the final answer: either projected rows (with
/// hidden ORDER BY key columns appended) or its partial aggregate state.
enum NodeResult {
    Rows(Batch),
    Partial(agg::Partial),
}

/// The aggregation plan of `stmt` over rows of schema `input`, if it
/// aggregates at all.
fn agg_plan(stmt: &SelectStmt, input: &Schema) -> Result<Option<AggPlan>> {
    (stmt.has_aggregates() || !stmt.group_by.is_empty())
        .then(|| AggPlan::new(stmt, input))
        .transpose()
}

/// One node's accumulator for one statement: filtered batches go in,
/// container after container, and a [`NodeResult`] comes out — projected rows
/// appended to one batch, or one group table updated in place.
enum NodeAcc<'a> {
    Rows(&'a SelectStmt, Batch),
    Agg(Aggregator<'a>),
}

impl<'a> NodeAcc<'a> {
    /// `input` is the schema of the batches to come: a node that holds no
    /// containers still answers in the projected schema.
    fn new(stmt: &'a SelectStmt, plan: Option<&'a AggPlan>, input: &Schema) -> Result<Self> {
        Ok(match plan {
            Some(plan) => NodeAcc::Agg(Aggregator::new(plan)?),
            None => {
                let no_rows = Batch::empty(input.clone());
                NodeAcc::Rows(stmt, project_rows_with_order_keys(stmt, &no_rows)?)
            }
        })
    }

    fn push(&mut self, batch: &Batch) -> Result<()> {
        match self {
            NodeAcc::Agg(agg) => agg.update(batch),
            NodeAcc::Rows(stmt, rows) => {
                Ok(rows.extend(&project_rows_with_order_keys(stmt, batch)?)?)
            }
        }
    }

    /// Take the `mask`-selected rows of an encoded batch. A single
    /// `GROUP BY col` over a dictionary-encoded column takes its group ids
    /// from the dictionary codes — only the aggregate-argument columns
    /// materialize, and only for mask survivors; everything else
    /// late-materializes the survivors and goes through [`NodeAcc::push`].
    fn push_encoded(
        &mut self,
        eb: &EncodedBatch,
        mask: &Bitmap,
        stats: &mut EncodedScanStats,
    ) -> Result<()> {
        if let NodeAcc::Agg(agg) = self {
            let key = agg.plan().dict_key().map(|name| eb.column_by_name(name));
            if let Some(Ok(ScanColumn::Encoded(key))) = key {
                if let Some((dict, codes)) = key.dict() {
                    let (args, expanded) = eb.materialize(mask, Some(agg.plan().arg_columns()))?;
                    stats.expanded_values += expanded;
                    let ids = agg.dict_group_ids(dict, codes, key.validity(), mask)?;
                    return agg.accumulate(&ids, &args);
                }
            }
        }
        let (batch, expanded) = eb.materialize(mask, None)?;
        stats.expanded_values += expanded;
        if expanded > 0 {
            stats.late_materialized_rows += mask.count_set() as u64;
        }
        self.push(&batch)
    }

    fn finish(self) -> Result<NodeResult> {
        Ok(match self {
            NodeAcc::Agg(agg) => NodeResult::Partial(agg.into_partial()?),
            NodeAcc::Rows(_, rows) => NodeResult::Rows(rows),
        })
    }
}

/// The [`NodeResult`] of one already-filtered batch.
fn node_result(stmt: &SelectStmt, plan: Option<&AggPlan>, batch: &Batch) -> Result<NodeResult> {
    let mut acc = NodeAcc::new(stmt, plan, batch.schema())?;
    acc.push(batch)?;
    acc.finish()
}

/// ORDER BY (over aggregate output columns, read in place when a key names
/// one) plus OFFSET/LIMIT — the shared tail of the initiator-merge and
/// shuffled local-finalization paths.
fn order_limit_aggregate_output(stmt: &SelectStmt, batch: Batch) -> Result<Batch> {
    if stmt.order_by.is_empty() {
        return Ok(apply_offset_limit(stmt, batch));
    }
    let cols = stmt.order_by.iter().map(|k| agg::eval(&k.expr, &batch));
    let cols = cols.collect::<Result<Vec<_>>>()?;
    let keys = cols.iter().zip(&stmt.order_by).map(|(col, k)| sort::Key {
        cols: vec![col.as_ref()],
        desc: k.desc,
    });
    let keys: Vec<sort::Key<'_>> = keys.collect();
    let (offset, limit) = (stmt.offset.unwrap_or(0), stmt.limit);
    sort::sort_limit(
        std::slice::from_ref(&batch),
        batch.num_columns(),
        &keys,
        offset,
        limit,
    )
}

// ------------------------------------------------------------- projections

pub(crate) fn item_name(i: usize, item: &SelectItem) -> String {
    match item {
        SelectItem::Wildcard => unreachable!("wildcard expanded before naming"),
        SelectItem::Expr { expr, alias } => alias.clone().unwrap_or_else(|| match expr {
            Expr::Column(c) => c.clone(),
            other => format!("col{i}_{other}"),
        }),
        SelectItem::Aggregate { func, alias, .. } => {
            alias.clone().unwrap_or_else(|| func.name().to_string())
        }
        SelectItem::Transform { name, .. } => name.clone(),
    }
}

/// Expand `*` into per-column expression items against `input`.
fn expand_items(stmt: &SelectStmt, input: &Schema) -> Vec<SelectItem> {
    let mut out = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Wildcard => {
                for f in input.fields() {
                    out.push(SelectItem::Expr {
                        expr: Expr::Column(f.name.clone()),
                        alias: None,
                    });
                }
            }
            other => out.push(other.clone()),
        }
    }
    out
}

/// The select item a bare ORDER BY column names by its alias.
fn aliased_item(items: &[SelectItem], key: &Expr) -> Option<usize> {
    let Expr::Column(name) = key else {
        return None;
    };
    items.iter().position(|item| match item {
        SelectItem::Expr { alias, .. } | SelectItem::Aggregate { alias, .. } => {
            alias.as_ref().is_some_and(|a| a.eq_ignore_ascii_case(name))
        }
        _ => false,
    })
}

/// Resolve the ORDER BY keys that point into the select list, once per
/// statement: a bare integer `k` is the `k`-th item (1-based, after `*`
/// expands against `input`), and a bare column naming a select alias is
/// that item — the output name wins over an input column of the same name.
/// After GROUP BY such a key becomes the item's output column; otherwise it
/// becomes the item's expression, which the hidden sort column then holds.
fn resolve_order_by<'a>(stmt: &'a SelectStmt, input: &Schema) -> Result<Cow<'a, SelectStmt>> {
    let mut out = Cow::Borrowed(stmt);
    if stmt.order_by.is_empty() {
        return Ok(out);
    }
    let items = expand_items(stmt, input);
    let aggregated = stmt.has_aggregates() || !stmt.group_by.is_empty();
    for (n, key) in stmt.order_by.iter().enumerate() {
        let i = match &key.expr {
            Expr::Literal(Value::Int64(k)) => {
                let i = usize::try_from(*k)
                    .ok()
                    .filter(|i| (1..=items.len()).contains(i));
                i.ok_or_else(|| {
                    let n = items.len();
                    DbError::Plan(format!("ORDER BY {k}: the select list has {n} items"))
                })? - 1
            }
            e => match aliased_item(&items, e) {
                Some(i) => i,
                None => continue,
            },
        };
        let expr = match &items[i] {
            item if aggregated => Expr::Column(item_name(i, item)),
            SelectItem::Expr { expr, .. } => expr.clone(),
            _ => continue,
        };
        out.to_mut().order_by[n].expr = expr;
    }
    Ok(out)
}

/// Hidden ORDER BY key columns use this prefix and follow the select items;
/// the sort reads them by position (an alias may reuse the name) and leaves
/// them out of the answer.
const HIDDEN: &str = "__sortkey_";

fn project_rows_with_order_keys(stmt: &SelectStmt, batch: &Batch) -> Result<Batch> {
    let items = expand_items(stmt, batch.schema());
    let mut fields = Vec::new();
    let mut columns = Vec::new();
    for (i, item) in items.iter().enumerate() {
        let SelectItem::Expr { expr, .. } = item else {
            return Err(DbError::Plan(
                "aggregates cannot mix with plain columns without GROUP BY".into(),
            ));
        };
        let col = expr.eval(batch)?;
        fields.push(Field::new(item_name(i, item), col.data_type()));
        columns.push(col);
    }
    for (i, key) in stmt.order_by.iter().enumerate() {
        let col = key.expr.eval(batch)?;
        fields.push(Field::new(format!("{HIDDEN}{i}"), col.data_type()));
        columns.push(col);
    }
    Ok(Batch::new(Schema::new(fields), columns)?)
}

fn project_batch(stmt: &SelectStmt, batch: &Batch) -> Result<Batch> {
    order_limit_rows(stmt, vec![project_rows_with_order_keys(stmt, batch)?])
}

/// ORDER BY / OFFSET / LIMIT over projected rows — one batch per node, in
/// node order, each ending in the hidden sort-key columns, which the answer
/// leaves out. Unordered rows are concatenated and cut.
fn order_limit_rows(stmt: &SelectStmt, mut rows: Vec<Batch>) -> Result<Batch> {
    if rows.is_empty() {
        return Err(DbError::Exec("no nodes produced results".into()));
    }
    if stmt.order_by.is_empty() {
        // Append to the first node's rows in place: no second copy of them.
        let mut gathered = rows.remove(0);
        for b in &rows {
            gathered.extend(b)?;
        }
        return Ok(apply_offset_limit(stmt, gathered));
    }
    let width = rows[0].num_columns().saturating_sub(stmt.order_by.len());
    let mut keys = Vec::with_capacity(stmt.order_by.len());
    for (i, k) in stmt.order_by.iter().enumerate() {
        let cols: Option<Vec<&Column>> = rows.iter().map(|b| b.columns().get(width + i)).collect();
        let cols = cols.ok_or_else(|| DbError::Exec("a node's rows lack a sort key".into()))?;
        keys.push(sort::Key { cols, desc: k.desc });
    }
    let (offset, limit) = (stmt.offset.unwrap_or(0), stmt.limit);
    sort::sort_limit(&rows, width, &keys, offset, limit)
}

fn apply_offset_limit(stmt: &SelectStmt, batch: Batch) -> Batch {
    if stmt.offset.is_none() && stmt.limit.is_none() {
        return batch;
    }
    let n = batch.num_rows();
    let start = stmt.offset.unwrap_or(0).min(n as u64) as usize;
    let end = match stmt.limit {
        Some(l) => (start as u64 + l).min(n as u64) as usize,
        None => n,
    };
    batch.slice(start, end)
}

// --------------------------------------------------------------- transforms

#[allow(clippy::too_many_arguments)]
fn run_transform(
    db: &VerticaDb,
    stmt: &SelectStmt,
    name: &str,
    args: &[Expr],
    params: &std::collections::BTreeMap<String, String>,
    partition: &Partition,
    rec: &Arc<PhaseRecorder>,
) -> Result<Batch> {
    let table = stmt
        .from
        .as_deref()
        .ok_or_else(|| DbError::Plan("transform functions require a FROM table".into()))?;
    let def = db.catalog().get(table)?;
    let func = db.udx().get(name)?;

    let mut tf_span = vdr_obs::span("exec.transform");
    tf_span.record("function", name);
    tf_span.record("table", table);
    let tf_span_id = tf_span.id();

    // Input schema: the evaluated argument columns, named after column refs
    // where possible.
    let arg_fields: Vec<Field> = args
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let name = match e {
                Expr::Column(c) => c.clone(),
                other => format!("arg{i}_{other}"),
            };
            // Types resolved against an empty batch of the table schema.
            let probe = Batch::empty(def.schema.clone());
            e.output_type(&probe).map(|t| Field::new(name, t))
        })
        .collect::<Result<_>>()?;
    let input_schema = Schema::new(arg_fields);
    let out_schema = func.output_schema(&input_schema, params)?;

    // PARTITION BEST: the planner is resource-aware — it spawns up to the
    // profile's export-lane count per node, bounded by the containers
    // available (an instance with no containers would idle).
    let lanes = db.cluster().profile().costs.vft_export_lanes;
    // Transforms reference a known column set — function args, WHERE, and
    // the PARTITION BY routing column — so the scan always gets a
    // projection to push down.
    let wanted: HashSet<String> = {
        let mut cols = HashSet::new();
        for a in args {
            add_expr_columns(&mut cols, a);
        }
        if let Some(w) = &stmt.where_clause {
            add_expr_columns(&mut cols, w);
        }
        if let Partition::By(col) = partition {
            cols.insert(col.to_ascii_lowercase());
        }
        cols
    };
    // Scatter workers and rayon instances run on their own threads;
    // re-enter the query scope in each so their spans stay attributed.
    let query_id = vdr_obs::current_query_id();
    let per_node_outputs: Vec<Result<Vec<Batch>>> = db.cluster().scatter(|node| {
        let _q = vdr_obs::QueryScope::enter(query_id);
        let node_id = node.id();
        let _n = vdr_obs::NodeScope::enter(node_id.0);
        let n_containers = db.storage().containers(table, node_id).len();
        let instances = match partition {
            Partition::Best => lanes.min(n_containers.max(1)),
            Partition::By(_) => lanes,
        };
        rec.set_lanes(node_id, instances);
        node.run(|| -> Result<Vec<Batch>> {
            use rayon::prelude::*;
            let results: Vec<Result<Vec<Batch>>> = (0..instances)
                .into_par_iter()
                .map(|instance| -> Result<Vec<Batch>> {
                    // Rayon pool threads are shared across queries: scope
                    // both the query id and the owning node for the spans
                    // and events this instance records.
                    let _q = vdr_obs::QueryScope::enter(query_id);
                    let _n = vdr_obs::NodeScope::enter(node_id.0);
                    let mut inst_span =
                        vdr_obs::detail_span_with_parent("exec.transform.instance", tf_span_id);
                    inst_span.set_node(node_id.0);
                    inst_span.record("instance", instance);
                    // Each instance reads a disjoint slice of the node's
                    // containers ("UDFs on each database node read a unique
                    // segment of the table stored on that node").
                    let raw = match partition {
                        Partition::Best => db.storage().scan_node_slice(
                            table,
                            node_id,
                            instance,
                            instances,
                            rec,
                            false,
                            Some(&wanted),
                        )?,
                        Partition::By(col) => {
                            // Route rows among local instances by hash(col).
                            let all = if instance == 0 {
                                db.storage().scan_node_projected(
                                    table,
                                    node_id,
                                    rec,
                                    false,
                                    Some(&wanted),
                                )?
                            } else {
                                // Re-read through the page cache: the first
                                // instance warmed it.
                                db.storage().scan_node_projected(
                                    table,
                                    node_id,
                                    rec,
                                    true,
                                    Some(&wanted),
                                )?
                            };
                            let mut mine = Vec::new();
                            for b in all {
                                let routes = hash_routes(b.column_by_name(col)?, instances);
                                mine.push(Arc::new(b.take(&routes[instance])));
                            }
                            mine
                        }
                    };
                    // WHERE + argument projection.
                    let mut input = Vec::with_capacity(raw.len());
                    for b in raw {
                        let filtered = apply_where(stmt, &b)?;
                        let cols: Vec<Column> = args
                            .iter()
                            .map(|e| e.eval(&filtered))
                            .collect::<Result<_>>()?;
                        input.push(Batch::new(input_schema.clone(), cols)?);
                    }
                    let ctx = UdxContext {
                        node: node_id,
                        instance,
                        instances_per_node: instances,
                        params,
                        dfs: db.dfs(),
                        cluster: db.cluster(),
                        rec,
                    };
                    let rows_in: u64 = input.iter().map(|b| b.num_rows() as u64).sum();
                    let mut out = Vec::new();
                    func.process_partition(&ctx, input, &mut |b| out.push(b))?;
                    let rows_out: u64 = out.iter().map(|b| b.num_rows() as u64).sum();
                    inst_span.record("rows_in", rows_in);
                    inst_span.record("rows_out", rows_out);
                    vdr_obs::counter_on("exec.transform.rows_in", node_id.0, rows_in);
                    vdr_obs::counter_on("exec.transform.rows_out", node_id.0, rows_out);
                    Ok(out)
                })
                .collect();
            let mut merged = Vec::new();
            for r in results {
                merged.extend(r?);
            }
            Ok(merged)
        })
    });

    // Collect outputs. Transform results materialize node-locally (as an
    // INSERT…SELECT would); we do not charge a gather — the paper's
    // prediction experiments measure in-database execution, not shipping a
    // billion rows to a client.
    let mut out = Batch::empty(out_schema);
    for node_batches in per_node_outputs {
        for b in node_batches? {
            out.extend(&b)?;
        }
    }
    let out = apply_offset_limit(stmt, out);
    tf_span.record("rows_out", out.num_rows());
    vdr_obs::counter("exec.output.rows", out.num_rows() as u64);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::VerticaDb;
    use vdr_cluster::SimCluster;

    fn db_with_data() -> Arc<VerticaDb> {
        let cluster = SimCluster::for_tests(3);
        let db = VerticaDb::new(cluster);
        db.query("CREATE TABLE t (id INTEGER, x FLOAT, tag VARCHAR) SEGMENTED BY HASH(id)")
            .unwrap();
        db.query(
            "INSERT INTO t VALUES (1, 1.5, 'a'), (2, 2.5, 'b'), (3, 3.5, 'a'), \
             (4, 4.5, 'b'), (5, 5.5, 'a'), (6, 6.5, 'c')",
        )
        .unwrap();
        db
    }

    #[test]
    fn select_star_returns_all_rows() {
        let db = db_with_data();
        let out = db.query("SELECT * FROM t").unwrap().batch;
        assert_eq!(out.num_rows(), 6);
        assert_eq!(out.schema().names(), vec!["id", "x", "tag"]);
    }

    #[test]
    fn where_filters_across_nodes() {
        let db = db_with_data();
        let out = db.query("SELECT id FROM t WHERE x > 3.0").unwrap().batch;
        assert_eq!(out.num_rows(), 4);
    }

    #[test]
    fn order_by_limit_offset_shapes_odbc_range_queries() {
        let db = db_with_data();
        let out = db
            .query("SELECT id FROM t ORDER BY id LIMIT 2 OFFSET 2")
            .unwrap()
            .batch;
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.column(0).get(0), Value::Int64(3));
        assert_eq!(out.column(0).get(1), Value::Int64(4));
        // DESC
        let out = db
            .query("SELECT id FROM t ORDER BY id DESC LIMIT 1")
            .unwrap()
            .batch;
        assert_eq!(out.column(0).get(0), Value::Int64(6));
    }

    #[test]
    fn order_by_column_not_in_projection() {
        let db = db_with_data();
        let out = db
            .query("SELECT tag FROM t ORDER BY x DESC LIMIT 1")
            .unwrap()
            .batch;
        assert_eq!(out.column(0).get(0), Value::Varchar("c".into()));
        assert_eq!(out.schema().names(), vec!["tag"]);
    }

    #[test]
    fn global_aggregates() {
        let db = db_with_data();
        let out = db
            .query("SELECT count(*), sum(x), avg(x), min(id), max(id) FROM t")
            .unwrap()
            .batch;
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row(0)[0], Value::Int64(6));
        assert_eq!(out.row(0)[1], Value::Float64(24.0));
        assert_eq!(out.row(0)[2], Value::Float64(4.0));
        assert_eq!(out.row(0)[3], Value::Int64(1));
        assert_eq!(out.row(0)[4], Value::Int64(6));
    }

    #[test]
    fn group_by_with_order() {
        let db = db_with_data();
        let out = db
            .query("SELECT tag, count(*) AS n, avg(x) FROM t GROUP BY tag ORDER BY n DESC")
            .unwrap()
            .batch;
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.row(0)[0], Value::Varchar("a".into()));
        assert_eq!(out.row(0)[1], Value::Int64(3));
        assert_eq!(out.row(2)[0], Value::Varchar("c".into()));
    }

    #[test]
    fn aggregate_of_empty_table_is_zero() {
        let cluster = SimCluster::for_tests(2);
        let db = VerticaDb::new(cluster);
        db.query("CREATE TABLE e (a INTEGER)").unwrap();
        let out = db.query("SELECT count(*) FROM e").unwrap().batch;
        assert_eq!(out.row(0)[0], Value::Int64(0));
        let out = db.query("SELECT sum(a) FROM e").unwrap().batch;
        assert_eq!(out.row(0)[0], Value::Null);
    }

    #[test]
    fn expressions_and_aliases_in_projection() {
        let db = db_with_data();
        let out = db
            .query("SELECT id * 2 AS double_id, sqrt(x * x) FROM t ORDER BY id LIMIT 1")
            .unwrap()
            .batch;
        assert_eq!(out.schema().names()[0], "double_id");
        assert_eq!(out.row(0)[0], Value::Int64(2));
        assert_eq!(out.row(0)[1], Value::Float64(1.5));
    }

    #[test]
    fn non_grouped_column_rejected() {
        let db = db_with_data();
        let err = db.query("SELECT tag, count(*) FROM t").unwrap_err();
        assert!(err.to_string().contains("GROUP BY"));
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let db = db_with_data();
        assert!(db.query("SELECT * FROM missing").is_err());
        assert!(db.query("SELECT nope FROM t").is_err());
    }

    #[test]
    fn fromless_select() {
        let db = db_with_data();
        let out = db.query("SELECT 1 + 2 AS three").unwrap().batch;
        assert_eq!(out.row(0)[0], Value::Int64(3));
        assert_eq!(out.schema().names(), vec!["three"]);
    }

    #[test]
    fn insert_validates_arity() {
        let db = db_with_data();
        assert!(db.query("INSERT INTO t VALUES (1, 2.0)").is_err());
    }

    #[test]
    fn drop_table_variants() {
        let db = db_with_data();
        db.query("DROP TABLE t").unwrap();
        assert!(db.query("SELECT * FROM t").is_err());
        assert!(db.query("DROP TABLE t").is_err());
        db.query("DROP TABLE IF EXISTS t").unwrap();
    }

    #[test]
    fn in_between_like_filters() {
        let db = db_with_data();
        let out = db
            .query("SELECT count(*) FROM t WHERE id IN (1, 3, 5, 99)")
            .unwrap()
            .batch;
        assert_eq!(out.row(0)[0], Value::Int64(3));
        let out = db
            .query("SELECT count(*) FROM t WHERE x BETWEEN 2.0 AND 4.5")
            .unwrap()
            .batch;
        assert_eq!(out.row(0)[0], Value::Int64(3)); // 2.5, 3.5, 4.5
        let out = db
            .query("SELECT count(*) FROM t WHERE tag LIKE 'a%' OR tag LIKE '_'")
            .unwrap()
            .batch;
        assert_eq!(out.row(0)[0], Value::Int64(6)); // every tag is 1 char
        let out = db
            .query("SELECT count(*) FROM t WHERE tag NOT LIKE 'a'")
            .unwrap()
            .batch;
        assert_eq!(out.row(0)[0], Value::Int64(3));
    }

    #[test]
    fn count_distinct_across_nodes() {
        let db = db_with_data();
        // Six rows, three distinct tags, spread over a 3-node cluster —
        // the distinct sets must merge across node partials.
        let out = db
            .query("SELECT count(DISTINCT tag), count(tag), count(*) FROM t")
            .unwrap()
            .batch;
        assert_eq!(out.row(0)[0], Value::Int64(3));
        assert_eq!(out.row(0)[1], Value::Int64(6));
        assert_eq!(out.row(0)[2], Value::Int64(6));
        // Grouped distinct.
        let out = db
            .query("SELECT tag, count(DISTINCT id) AS n FROM t GROUP BY tag ORDER BY tag")
            .unwrap()
            .batch;
        assert_eq!(out.row(0)[0], Value::Varchar("a".into()));
        assert_eq!(out.row(0)[1], Value::Int64(3));
        assert_eq!(out.row(2)[1], Value::Int64(1));
    }

    #[test]
    fn create_table_as_select_materializes_results() {
        let db = db_with_data();
        db.query("CREATE TABLE evens AS SELECT id, x FROM t WHERE id % 2 = 0")
            .unwrap();
        let out = db
            .query("SELECT count(*), sum(id) FROM evens")
            .unwrap()
            .batch;
        assert_eq!(out.row(0)[0], Value::Int64(3)); // 2, 4, 6
        assert_eq!(out.row(0)[1], Value::Float64(12.0)); // SUM widens to float
                                                         // Aggregated CTAS too.
        db.query("CREATE TABLE tag_stats AS SELECT tag, count(*) AS n FROM t GROUP BY tag")
            .unwrap();
        let out = db
            .query("SELECT n FROM tag_stats ORDER BY n DESC LIMIT 1")
            .unwrap()
            .batch;
        assert_eq!(out.row(0)[0], Value::Int64(3));
        // Name collisions fail before any data moves.
        assert!(db.query("CREATE TABLE evens AS SELECT id FROM t").is_err());
    }

    // --------------------------------------------- compressed execution

    /// `(id, grp, x, tag)` for row `i` of the `lc` table: `grp` is sorted
    /// and low-cardinality so its blocks pick RLE, `tag` has 3 values so it
    /// picks Dictionary, and both carry NULLs.
    fn lc_row(i: i64) -> (i64, Option<i64>, f64, Option<&'static str>) {
        let grp = (i % 97 != 0).then_some(i / 200);
        let tag = (i % 89 != 0).then(|| ["a", "b", "c"][(i % 3) as usize]);
        (i, grp, (i % 7) as f64 + 0.5, tag)
    }

    fn db_low_cardinality() -> Arc<VerticaDb> {
        let cluster = SimCluster::for_tests(2);
        let db = VerticaDb::new(cluster);
        db.query("CREATE TABLE lc (id INTEGER, grp INTEGER, x FLOAT, tag VARCHAR)")
            .unwrap();
        let values: Vec<String> = (0..600)
            .map(|i| {
                let (id, grp, x, tag) = lc_row(i);
                let grp = grp.map_or("NULL".to_string(), |g| g.to_string());
                let tag = tag.map_or("NULL".to_string(), |t| format!("'{t}'"));
                format!("({id}, {grp}, {x}, {tag})")
            })
            .collect();
        db.query(&format!("INSERT INTO lc VALUES {}", values.join(", ")))
            .unwrap();
        db
    }

    #[test]
    fn encoded_predicate_skips_runs_under_profile() {
        let db = db_low_cardinality();
        db.query("PROFILE SELECT count(*) FROM lc WHERE grp = 1")
            .unwrap();
        db.query("PROFILE SELECT tag, count(*) FROM lc WHERE tag = 'b' GROUP BY tag")
            .unwrap();
        let m = db
            .query(
                "SELECT name, value FROM v_monitor.metrics \
                 WHERE name LIKE 'scan.encoded.%' ORDER BY name",
            )
            .unwrap()
            .batch;
        let total = |want: &str| -> f64 {
            (0..m.num_rows())
                .filter(|&r| matches!(&m.row(r)[0], Value::Varchar(n) if n == want))
                .map(|r| m.row(r)[1].as_f64().unwrap_or(0.0))
                .sum()
        };
        // The RLE predicate evaluated per run, not per row — the acceptance
        // criterion for compressed execution.
        assert!(
            total("scan.encoded.runs_skipped") > 0.0,
            "RLE predicate must skip per-row work: {m:?}"
        );
        assert!(
            total("scan.encoded.codes_tested") > 0.0,
            "dictionary predicate must test codes"
        );
        assert!(
            total("scan.encoded.late_materialized_rows") > 0.0,
            "surviving rows must late-materialize"
        );
    }

    #[test]
    fn sorted_rle_predicates_binary_search_run_boundaries() {
        let db = VerticaDb::new(SimCluster::for_tests(2));
        db.query("CREATE TABLE st (s INTEGER, x FLOAT)").unwrap();
        // `s` is sorted with 64 runs of 40 rows: each node's round-robin
        // share keeps all 64 runs (of 20), well past the bsearch threshold.
        let values: Vec<String> = (0..2560i64)
            .map(|i| format!("({}, {}.25)", i / 40, i % 9))
            .collect();
        db.query(&format!("INSERT INTO st VALUES {}", values.join(", ")))
            .unwrap();
        let queries = [
            "SELECT count(*) FROM st WHERE s < 20",
            "SELECT count(*), sum(x) FROM st WHERE s >= 48",
            "SELECT s, count(*) FROM st WHERE s = 7 GROUP BY s",
        ];
        for sql in queries {
            db.query(sql).unwrap();
        }
        let m = db
            .query(
                "SELECT sum(value) FROM v_monitor.metrics \
                 WHERE name = 'scan.encoded.runs_bsearched'",
            )
            .unwrap()
            .batch;
        let total = m.row(0)[0].as_f64().unwrap_or(0.0);
        // 3 queries × 2 nodes × 64 runs resolved by binary search (the
        // answers are checked in `tests/agg_differential.rs`).
        assert!(
            total >= (3 * 2 * 64) as f64,
            "sorted RLE predicates should binary-search, got {total}"
        );
    }

    const ENCODED_ELIGIBLE: [&str; 3] = [
        "SELECT id FROM t WHERE grp = 1",
        "SELECT count(*) FROM t WHERE 1 <= grp AND tag = 'b'",
        "SELECT tag, count(*) FROM t GROUP BY tag",
    ];
    const ENCODED_INELIGIBLE: [&str; 5] = [
        // No WHERE, no GROUP BY: plain scans stay decoded (and keep
        // warming the decoded cache tier).
        "SELECT * FROM t",
        // Column-vs-column comparison.
        "SELECT id FROM t WHERE grp = id",
        // Arithmetic inside the comparison.
        "SELECT id FROM t WHERE grp + 1 = 2",
        // LIKE / IN need decoded values.
        "SELECT id FROM t WHERE tag LIKE 'a%'",
        "SELECT id FROM t WHERE grp IN (1, 2)",
    ];

    fn as_select(sql: &str) -> SelectStmt {
        match crate::sql::parse(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn planner_rule_picks_encoded_only_for_eligible_shapes() {
        for sql in ENCODED_ELIGIBLE {
            assert!(encoded_execution_eligible(&as_select(sql)), "{sql}");
        }
        for sql in ENCODED_INELIGIBLE {
            assert!(!encoded_execution_eligible(&as_select(sql)), "{sql}");
        }
    }
}
