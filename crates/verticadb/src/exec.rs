//! The distributed query executor: the one interpreter of every SELECT's
//! physical plan, CTAS included. [`execute`] dispatches a statement: a
//! SELECT to the plan and the interpreter, `EXPLAIN` to the plan's printer,
//! DDL and DML straight to the catalog and storage.
//!
//! # The plan and the interpreter
//!
//! `plan::build` makes every decision a SELECT needs — scan columns,
//! merge location, JOIN strategy, UDx instances per node — from the
//! statement, the catalog and the node count, and returns a tree of
//! operators. This file runs that tree and decides nothing:
//!
//! - **The per-node pipeline** (`pipeline`): [`EncodedBatch`]es through the
//!   WHERE mask into the node's one accumulator (`NodeAcc`: projected rows,
//!   a group table, or a transform's UDx instances). A table scan feeds it
//!   container after container; a JOIN the joined chunks its probe produces
//!   (`exec_join.rs`), and `Local` each node's rows the planner holds (a
//!   system table's, or the initiator's), both as all-decoded batches whose
//!   columns moved in without a copy.
//! - **The Exchange operator** (`exchange`): every node encodes what it
//!   sends each destination through the block codec, the frames cross
//!   [`vdr_cluster::exchange_framed`], and every receiver decodes them and
//!   holds each to its planned schema; what each receiver got and the
//!   ledger charges are taken here once. The shuffled GROUP BY ships
//!   partials by `AggPlan::split`; the JOIN ships sides by key hash or
//!   broadcast. Gathers to the initiator are charged by `charge_gather`.
//! - **The initiator's tail**: merge and finalize, Sort, Limit.
//! - **Transforms** (`OVER (PARTITION …)`): the pipeline's third sink, the
//!   paper's extension mechanism. The node deals each masked batch to its
//!   UDx instances (`Deal`, whose `push` says how), and each instance
//!   materializes its rows and evaluates its arguments just before it runs,
//!   so its input is still in cache when it is read.
//!
//! # Compressed execution
//!
//! Every reader of a table — the pipeline and both JOIN sides — takes the
//! one scan product of a node's whole segment, [`EncodedBatch`]es whose
//! Rle/Dictionary columns are still in run/code form
//! ([`crate::storage::SegmentStore::scan_node`]). A column-vs-literal
//! comparison over such a
//! column evaluates once per *run* or per *distinct dictionary code*
//! ([`kernels::cmp_scalar_rle`] / [`kernels::cmp_scalar_dict`]) with the
//! decoded kernel's semantics (Int64 exact, floats under IEEE 754) for any
//! literal type; every other predicate leaf decodes just its own columns
//! for the decoded evaluator. A single-column dictionary GROUP BY key and
//! a `COUNT(DISTINCT col)` over a dictionary column take their ids from the
//! codes without building or hashing decoded strings. Everything else is
//! **late-materialized**: a column some expression reads as values decodes
//! only the rows that survived the filter bitmap (`NodeAcc::push`), and an
//! eagerly decoded column is read in place when every row survived.
//!
//! The ledger follows one rule (`EncodedScanStats`): a column decoded
//! eagerly is charged per value when a scan decodes it from disk; an RLE or
//! dictionary column per surviving row when it materializes, whether it
//! came from the block cache or not; a cache hit decodes nothing.
//!
//! # Aggregation and ordering
//!
//! One columnar aggregator (`agg.rs`, whose header lists the state each
//! aggregate keeps and the merge orders) runs from scan to finalize; one
//! typed operator (`sort.rs`) orders every result. Without GROUP BY every
//! node appends one hidden column per ORDER BY key to its projected rows and
//! the gather ships them; GROUP BY output orders by its output columns.
//! `LIMIT` is applied only at the initiator, after the gather: the ODBC
//! baseline's `ORDER BY … LIMIT … OFFSET` range queries are modeled as a
//! full scan plus a gather of every node's rows.
//!
//! # Telemetry
//!
//! One writer per operator: every plan operator makes its ledger charges on
//! its own recorder, a child of the statement's (`Cx::op`), and writes down
//! once per node what it did — an [`OpActuals`] of rows in and out, bytes out
//! and wall time under its `EXPLAIN` path id (a fused Scan → Filter → sink
//! pipeline times itself on its sink; an Exchange and the gather count the
//! frame bytes they receive). At the statement's end, failed or not, each
//! entry takes its operator's usage on its node, and `fold` turns the record
//! into the operator counters — `exec.{scan,filter,output}.rows`,
//! `exec.gather.bytes`, `exec.groupby.shuffled`, `exec.join.output_rows`,
//! `exec.transform.rows_{in,out}` and `exchange.{rows,bytes,frames}` — which
//! nothing else writes. The record rides on to the query history, `PROFILE`
//! and `v_monitor.query_plan_profiles`. Kernel counters stay where the work
//! is seen: `scan.encoded.*`, `scan.cache.*`, `exec.scan.cols_skipped` and
//! `scan.decode.ns_per_value` (storage), `exchange.wait_ns` and
//! `exchange.encoded_cols` (the receive).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::agg::{AggPlan, Aggregator, Codes, Partial};
use crate::catalog::TableDef;
use crate::db::VerticaDb;
use crate::error::{DbError, Result};
use crate::expr::{BinOp, Expr};
use crate::monitor::{OpActuals, OperatorRecord};
use crate::plan::{self, Exchange, Op, PhysicalPlan, PlanNode, Transform};
use crate::segmentation::hash_routes;
use crate::sort;
use crate::sql::{OrderKey, Partition, SelectItem, SelectStmt, Statement};
use crate::udx::UdxContext;
use bytes::Bytes;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;
use vdr_cluster::{exchange_framed, ClusterError, ExchangeRecv, Node, NodeId, PhaseRecorder};
use vdr_columnar::kernels::{self, CmpOp};
use vdr_columnar::{
    decode_batch_encoded, encode_batch, Batch, Bitmap, Column, Columns, DataType, EncodedBatch,
    Field, Materialized, ScanColumn, Schema, Value,
};

#[path = "exec_join.rs"]
mod join;

/// The node that runs final merges — where the client is connected.
const INITIATOR: NodeId = NodeId(0);

// ------------------------------------------------------------ interpreter

/// What every operator of one statement reads.
#[derive(Clone, Copy)]
struct Cx<'a> {
    db: &'a VerticaDb,
    plan: &'a PhysicalPlan,
    /// The path id of the pipeline being run's sink (Project, PartialAgg or
    /// Transform), and its WHERE's path id and predicate.
    sink: usize,
    filter: Option<(usize, &'a Expr)>,
    /// The UDx the pipeline feeds, in place of projected rows.
    transform: Option<&'a Transform>,
    /// Per path id, the operator's own recorder, a child of the statement's:
    /// every ledger charge of the operator is made on it.
    ops: &'a [Arc<PhaseRecorder>],
    /// The statement's span, parent of the per-node spans.
    span: u64,
    /// The statement's operator record, appended to by every node.
    actuals: &'a Mutex<Vec<OpActuals>>,
}

impl<'a> Cx<'a> {
    /// Operator `path`'s recorder. One serves the operator on every node: a
    /// gather's and an exchange's network charges land on two nodes at once.
    fn op(&self, path: usize) -> &'a Arc<PhaseRecorder> {
        &self.ops[path]
    }

    /// Write down that operator `path` took `rows_in` rows on `node` and put
    /// out `rows_out` rows of `bytes_out` bytes, since `started` if it times
    /// itself.
    fn note(
        &self,
        node: usize,
        path: usize,
        [rows_in, rows_out, bytes_out]: [u64; 3],
        started: Option<Instant>,
    ) {
        let wall_ns = started.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let a = OpActuals {
            node,
            path_id: path,
            rows_in,
            rows_out,
            bytes_out,
            wall_ns,
            ..OpActuals::default()
        };
        self.actuals.lock().push(a);
    }

    fn agg(&self) -> Result<&AggPlan> {
        self.plan.agg.as_ref().ok_or_else(shape)
    }

    fn scan_cost(&self) -> f64 {
        self.db.cluster().profile().costs.db_scan_ns_per_value
    }
}

fn shape() -> DbError {
    DbError::Plan("the executor has no operator for this plan shape".into())
}

/// A plan node's one input.
fn input(node: &PlanNode) -> Result<&PlanNode> {
    match node.inputs.as_slice() {
        [input] => Ok(input),
        _ => Err(shape()),
    }
}

/// Execute any statement against the database, charging `rec` and writing
/// what each plan operator did into `ops`.
pub fn execute(
    db: &VerticaDb,
    stmt: &Statement,
    rec: &Arc<PhaseRecorder>,
    ops: &mut OperatorRecord,
) -> Result<Batch> {
    let mut stmt_span = vdr_obs::span("exec.statement");
    stmt_span.record("stmt", crate::db::statement_label(stmt));
    // Writing rows is the statement's `Store`, an operator numbered after
    // the plan's last so `EXPLAIN`'s numbers stay put.
    let store = |def: &TableDef, batch, ops: &mut OperatorRecord| {
        let store = rec.child();
        let loaded = db.storage().load(def, vec![batch], &store);
        ops.plan.push(("Store", def.name.clone()));
        ops.settle(ops.plan.len() - 1, &store);
        loaded
    };
    match stmt {
        Statement::Select(select) => execute_select(db, select, rec, ops),
        Statement::Explain(select) => plan::build(db, select)?.explain(),
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
            db.catalog().create_table(TableDef {
                name: name.clone(),
                schema,
                segmentation: seg,
            })?;
            status_batch(&format!("CREATE TABLE {name}"))
        }
        Statement::CreateTableAs { name, query } => {
            let result = execute_select(db, query, rec, ops)?;
            db.catalog().create_table(TableDef {
                name: name.clone(),
                schema: result.schema().clone(),
                segmentation: crate::segmentation::Segmentation::RoundRobin,
            })?;
            let n = result.num_rows();
            store(&db.catalog().get(name)?, result, ops)?;
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
            store(&def, batch, ops)?;
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

/// Plan and run one SELECT, charging `rec`, then fold its operator record
/// into the operator-level counters — whether or not it ran to the end.
fn execute_select(
    db: &VerticaDb,
    stmt: &SelectStmt,
    rec: &Arc<PhaseRecorder>,
    ops: &mut OperatorRecord,
) -> Result<Batch> {
    let plan = plan::build(db, stmt)?;
    let mut span = vdr_obs::span("exec.select");
    if let Some(table) = &stmt.from {
        span.record("table", table);
    }
    let lines = plan.lines().into_iter().map(|l| (l.name, l.detail));
    ops.plan = lines.collect();
    let children: Vec<_> = ops.plan.iter().map(|_| rec.child()).collect();
    let actuals = Mutex::new(Vec::new());
    let cx = Cx {
        db,
        plan: &plan,
        sink: 0,
        filter: None,
        transform: None,
        ops: &children,
        span: span.id(),
        actuals: &actuals,
    };
    let out = run(&cx, &plan.root);
    ops.actuals = actuals.into_inner();
    for (path, child) in children.iter().enumerate() {
        ops.settle(path, child);
    }
    fold(&plan, &ops.actuals);
    out
}

/// Turn a statement's operator record into the operator-level counters, on
/// the node each belongs to: their one writer (see the module's Telemetry).
fn fold(plan: &PhysicalPlan, actuals: &[OpActuals]) {
    let root = actuals.iter().filter(|a| a.path_id == plan.root.path);
    vdr_obs::counter("exec.output.rows", root.map(|a| a.rows_out).sum());
    fold_node(&plan.root, None, actuals);
}

fn fold_node(node: &PlanNode, parent: Option<&Op>, actuals: &[OpActuals]) {
    let mine = || actuals.iter().filter(|a| a.path_id == node.path);
    let on = |name: &str, v: fn(&OpActuals) -> u64| {
        mine().for_each(|a| vdr_obs::counter_on(name, a.node, v(a)));
    };
    let pipelined = |op: Option<&Op>| {
        matches!(
            op,
            Some(Op::Filter(_) | Op::Project | Op::PartialAgg | Op::Transform(_))
        )
    };
    let below = node.inputs.first();
    match &node.op {
        Op::Scan(_) if pipelined(parent) => on("exec.scan.rows", |a| a.rows_out),
        Op::Project | Op::PartialAgg | Op::Transform(_) => {
            let source = match below.map(|b| (&b.op, b.inputs.first())) {
                Some((Op::Filter(_), source)) => source,
                _ => below,
            };
            if let Some(Op::Scan(_)) = source.map(|s| &s.op) {
                on("exec.filter.rows", |a| a.rows_in);
            }
            if let Op::Transform(_) = node.op {
                on("exec.transform.rows_in", |a| a.rows_in);
                on("exec.transform.rows_out", |a| a.rows_out);
            }
        }
        Op::HashJoin(_) => on("exec.join.output_rows", |a| a.rows_out),
        Op::Exchange(Exchange::Gather) => {
            vdr_obs::counter("exec.gather.bytes", mine().map(|a| a.bytes_out).sum());
        }
        Op::Exchange(_) => {
            on("exchange.rows", |a| a.rows_out);
            on("exchange.bytes", |a| a.bytes_out);
            on("exchange.frames", |a| a.frames);
            if let (Some(Op::PartialAgg), Some(_)) = (below.map(|b| &b.op), mine().next()) {
                vdr_obs::counter("exec.groupby.shuffled", 1);
            }
        }
        _ => {}
    }
    for input in &node.inputs {
        fold_node(input, Some(&node.op), actuals);
    }
}

/// Run the plan to its answer on the initiator: Limit and Sort over a
/// transform's output, a gather of rows, or a merge of aggregate partials —
/// on the initiator, or on every node after a shuffle.
fn run(cx: &Cx<'_>, mut node: &PlanNode) -> Result<Batch> {
    let mut tail = Tail::default();
    if let Op::Limit { offset, limit } = &node.op {
        (tail.offset, tail.limit) = (*offset, *limit);
        tail.paths.push(node.path);
        node = input(node)?;
    }
    if let Op::Sort(keys) = &node.op {
        tail.keys = keys;
        tail.paths.insert(0, node.path);
        node = input(node)?;
    }
    match &node.op {
        Op::Transform(t) => {
            // The output stays on its node (as an INSERT…SELECT would): no
            // gather is charged — the paper measures in-database prediction.
            let mut span = vdr_obs::span("exec.transform");
            span.record("function", t.func.name());
            if let Some(table) = &cx.plan.stmt.from {
                span.record("table", table);
            }
            let mut cx = *cx;
            (cx.transform, cx.span) = (Some(t), span.id());
            let (rows, _) = split(fragment(&cx, node)?);
            tail.output(&cx, Batch::concat(t.out_schema.clone(), &rows)?)
        }
        Op::FinalAgg => {
            // FinalAgg ← Exchange(gather) ← partials: merge on the initiator.
            let gather = input(node)?;
            let (_, partials) = split(fragment(cx, input(gather)?)?);
            let sent = partials
                .iter()
                .map(|p| [p.num_groups() as u64, p.byte_size()]);
            let rows_in = charge_gather(cx, gather.path, sent);
            let started = Instant::now();
            let mut merged = Aggregator::new(cx.agg()?)?;
            for p in &partials {
                merged.merge(p)?;
            }
            let out = merged.finalize()?;
            let [rows_out, bytes_out] = size(&out);
            cx.note(0, node.path, [rows_in, rows_out, bytes_out], Some(started));
            tail.output(cx, out)
        }
        Op::Exchange(Exchange::Gather) => {
            let below = input(node)?;
            if let Op::FinalAgg = below.op {
                // Exchange(gather) ← FinalAgg ← Exchange(hash) ← partials.
                let (_, partials) = split(fragment(cx, input(input(below)?)?)?);
                return tail.output(cx, shuffle_group_by(cx, node, below, partials)?);
            }
            let (rows, _) = split(fragment(cx, below)?);
            charge_gather(cx, node.path, rows.iter().map(size));
            tail.rows(cx, rows)
        }
        _ => Err(shape()),
    }
}

/// The rows and bytes of `b`.
fn size(b: &Batch) -> [u64; 2] {
    [b.num_rows() as u64, b.byte_size()]
}

/// Charge the gather at `path` shipping every node's output — the rows and
/// bytes `sent` holds in node order — to the initiator, and write down the
/// initiator receiving them. Returns the rows.
fn charge_gather(cx: &Cx<'_>, path: usize, sent: impl Iterator<Item = [u64; 2]>) -> u64 {
    let mut gather_span = vdr_obs::span("exec.gather");
    let (mut rows, mut bytes) = (0, 0);
    for (node, [r, b]) in sent.enumerate() {
        cx.op(path).net(NodeId(node), INITIATOR, b);
        (rows, bytes) = (rows + r, bytes + b);
    }
    gather_span.record("bytes", bytes);
    cx.note(INITIATOR.0, path, [rows, rows, bytes], None);
    rows
}

/// Shuffled two-phase GROUP BY: every node ships each other node the groups
/// whose key hashes to it, merges — and finalizes — its disjoint key range
/// in parallel, and the finished rows are gathered, one row per group
/// instead of (much heavier) aggregate state. Every slice is in the planned
/// output schema.
fn shuffle_group_by(
    cx: &Cx<'_>,
    gather: &PlanNode,
    finalize: &PlanNode,
    partials: Vec<Partial>,
) -> Result<Batch> {
    let agg = cx.agg()?;
    let n = partials.len();
    let shuffle = input(finalize)?.path;
    let finished = exchange(
        cx,
        "exec.groupby.shuffle",
        agg.schemas(),
        &[shuffle],
        Payload::State,
        |node, out| {
            let me = node.id().0;
            let mut own = None;
            let mine = partials.get(me).ok_or_else(shape)?;
            for (dst, part) in agg.split(mine, n)?.into_iter().enumerate() {
                if dst == me {
                    // Its own range never leaves the node: it rides as the
                    // exchange's local carry, skipping the codec.
                    own = Some(part);
                } else if part.num_groups() > 0 {
                    part.batches().iter().for_each(|b| out.send(dst, b));
                }
            }
            Ok(own)
        },
        |node, own, received| {
            let started = Instant::now();
            let mut merged = Aggregator::new(agg)?;
            let mut rows_in = 0;
            let received = received.into_iter().filter(|b| !b.is_empty());
            for p in own.into_iter().chain(received.map(Partial::from_batches)) {
                rows_in += p.num_groups() as u64;
                merged.merge(&p)?;
            }
            let out = merged.finalize()?;
            let [rows_out, bytes_out] = size(&out);
            cx.note(
                node.id().0,
                finalize.path,
                [rows_in, rows_out, bytes_out],
                Some(started),
            );
            Ok(out)
        },
    )?;
    charge_gather(cx, gather.path, finished.iter().map(size));
    Ok(Batch::concat(agg.out_schema().clone(), &finished)?)
}

/// The initiator's Sort and Limit, and their path ids, the Sort's first.
#[derive(Default)]
struct Tail<'a> {
    keys: &'a [OrderKey],
    offset: u64,
    limit: Option<u64>,
    paths: Vec<usize>,
}

impl Tail<'_> {
    fn cut(&self, batch: Batch) -> Batch {
        if self.offset == 0 && self.limit.is_none() {
            return batch;
        }
        let n = batch.num_rows() as u64;
        let start = self.offset.min(n);
        let end = self.limit.map_or(n, |l| (start + l).min(n));
        batch.slice(start as usize, end as usize)
    }

    /// Record the Sort (it keeps every row) and the Limit on the initiator,
    /// the last of them — the plan's root — with the answer and the tail's
    /// time.
    fn note(&self, cx: &Cx<'_>, rows_in: u64, out: &Batch, started: Instant) {
        if let Some((&root, sort)) = self.paths.split_last() {
            sort.iter()
                .for_each(|&path| cx.note(0, path, [rows_in, rows_in, 0], None));
            let [rows_out, bytes_out] = size(out);
            cx.note(0, root, [rows_in, rows_out, bytes_out], Some(started));
        }
    }

    /// Projected rows — one batch per node, in node order, each ending in
    /// the hidden sort-key columns, which the answer leaves out. Unordered
    /// rows are concatenated and cut.
    fn rows(&self, cx: &Cx<'_>, mut rows: Vec<Batch>) -> Result<Batch> {
        let started = Instant::now();
        let rows_in = rows.iter().map(|b| b.num_rows() as u64).sum();
        if rows.is_empty() {
            return Err(DbError::Exec("no nodes produced results".into()));
        }
        let out = if self.keys.is_empty() {
            // Append to the first node's rows in place: no second copy.
            let mut gathered = rows.remove(0);
            for b in &rows {
                gathered.extend(b)?;
            }
            self.cut(gathered)
        } else {
            let width = rows[0].num_columns().saturating_sub(self.keys.len());
            let mut keys = Vec::with_capacity(self.keys.len());
            for (i, k) in self.keys.iter().enumerate() {
                let cols: Option<Vec<&Column>> =
                    rows.iter().map(|b| b.columns().get(width + i)).collect();
                let cols =
                    cols.ok_or_else(|| DbError::Exec("a node's rows lack a sort key".into()))?;
                keys.push(sort::Key { cols, desc: k.desc });
            }
            sort::sort_limit(&rows, width, &keys, self.offset, self.limit)?
        };
        self.note(cx, rows_in, &out, started);
        Ok(out)
    }

    /// Aggregate or transform output, its ORDER BY keys read in place when
    /// they name an output column.
    fn output(&self, cx: &Cx<'_>, batch: Batch) -> Result<Batch> {
        let (started, rows_in) = (Instant::now(), batch.num_rows() as u64);
        let out = if self.keys.is_empty() {
            self.cut(batch)
        } else {
            let batches = [batch];
            let cols = self.keys.iter().map(|k| k.expr.eval(&batches[0]));
            let cols = cols.collect::<Result<Vec<_>>>()?;
            let keys = cols.iter().zip(self.keys).map(|(col, k)| sort::Key {
                cols: vec![col.as_ref()],
                desc: k.desc,
            });
            let (keys, width) = (keys.collect::<Vec<_>>(), batches[0].num_columns());
            sort::sort_limit(&batches, width, &keys, self.offset, self.limit)?
        };
        self.note(cx, rows_in, &out, started);
        Ok(out)
    }
}

// --------------------------------------------------------------- exchange

/// What crosses an exchange, and what it costs at scan-value rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Payload {
    /// Rows: every source sends every destination one frame per planned
    /// schema, empty or not. Sending costs a unit per value serialized,
    /// receiving a unit per value expanded out of RLE/dictionary form.
    Rows,
    /// Aggregate state: a source sends a destination its partial — one
    /// frame per planned schema — or nothing when it holds no group for it.
    /// Encoding costs a unit per 8 bytes sent, merging one per 8 received.
    State,
}

/// One node's outgoing frames, per destination.
struct Outbox {
    frames: Vec<Vec<Bytes>>,
    values: u64,
    bytes: u64,
}

impl Outbox {
    /// Encode `batch` for `dst`.
    fn send(&mut self, dst: usize, batch: &Batch) {
        let frame = encode_batch(batch);
        self.values += batch.num_values();
        self.bytes += frame.len() as u64;
        self.frames[dst].push(frame);
    }

    /// Encode `batch` once for every destination: N refcounted handles.
    fn broadcast(&mut self, batch: &Batch) {
        let frame = encode_batch(batch);
        self.values += batch.num_values();
        self.bytes += frame.len() as u64 * self.frames.len() as u64;
        self.frames.iter_mut().for_each(|f| f.push(frame.clone()));
    }
}

/// The Exchange operator. On every node `send` fills an [`Outbox`] and
/// returns what stays local; `recv` then runs with that carry and, per
/// source node, the batches it sent here, decoded and held to `schemas`;
/// `paths[i]` is the plan's Exchange the `i`-th frame of every stream
/// belongs to, the last one every later frame too, and the first is charged.
/// With no schema to ship no stream opens: `send` and `recv` run back to back.
#[allow(clippy::too_many_arguments)]
fn exchange<C: Send, T: Send>(
    cx: &Cx<'_>,
    stage: &str,
    schemas: &[Schema],
    paths: &[usize],
    payload: Payload,
    send: impl Fn(&Arc<Node>, &mut Outbox) -> Result<C> + Sync,
    recv: impl Fn(&Arc<Node>, C, Vec<Vec<Batch>>) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let n = cx.db.cluster().num_nodes();
    let outbox = || Outbox {
        frames: vec![Vec::new(); n],
        values: 0,
        bytes: 0,
    };
    if schemas.is_empty() {
        let local = |node: &Arc<Node>| recv(node, send(node, &mut outbox())?, Vec::new());
        return cx.db.cluster().scatter(local)?.into_iter().collect();
    }
    let rec = cx.op(*paths.first().ok_or_else(shape)?);
    let as_io = |e: DbError| ClusterError::Io(e.to_string());
    let charge = |node: &Arc<Node>, (values, bytes): (u64, u64)| {
        let units = match payload {
            Payload::Rows => values as f64,
            Payload::State => bytes as f64 / 8.0,
        };
        if units > 0.0 {
            rec.cpu_work(node.id(), units, cx.scan_cost());
        }
    };
    let produce = |node: &Arc<Node>| {
        let mut out = outbox();
        let carry = send(node, &mut out).map_err(as_io)?;
        charge(node, (out.values, out.bytes));
        Ok((out.frames, carry))
    };
    let consume = |node: &Arc<Node>, carry: C, got: ExchangeRecv| {
        let me = node.id().0;
        let started = Instant::now();
        let (received, stats) = receive(schemas, payload, &got).map_err(as_io)?;
        // Receive-side kernel telemetry lands on the receiving node.
        vdr_obs::counter_on("exchange.wait_ns", me, got.wait_ns);
        if stats.encoded_cols > 0 {
            vdr_obs::counter_on("exchange.encoded_cols", me, stats.encoded_cols);
        }
        charge(node, (stats.expanded, got.bytes));
        // What each Exchange operator received: frame `i` of every stream is
        // `paths[i]`'s, behind an 8-byte length; the 16-byte stream headers
        // count on the first operator.
        let mut got_by: Vec<OpActuals> = (paths.iter())
            .map(|&path_id| OpActuals {
                node: me,
                path_id,
                ..OpActuals::default()
            })
            .collect();
        for (frames, batches) in got.frames.iter().zip(&received) {
            got_by[0].bytes_out += 16;
            for (i, (frame, batch)) in frames.iter().zip(batches).enumerate() {
                let a = &mut got_by[i.min(paths.len() - 1)];
                a.frames += 1;
                a.bytes_out += 8 + frame.len() as u64;
                // Aggregate state counts its groups once, on its first frame.
                if payload == Payload::Rows || i == 0 {
                    a.rows_in += batch.num_rows() as u64;
                    a.rows_out += batch.num_rows() as u64;
                }
            }
        }
        got_by[0].wall_ns = started.elapsed().as_nanos() as u64;
        cx.actuals.lock().extend(got_by);
        recv(node, carry, received).map_err(as_io)
    };
    Ok(exchange_framed(
        cx.db.cluster(),
        rec,
        stage,
        produce,
        consume,
    )?)
}

/// Receive-side decode telemetry.
#[derive(Debug, Default)]
pub(crate) struct RecvStats {
    encoded_cols: u64,
    expanded: u64,
}

/// Decode every received frame, in source order. Frames keep
/// their VCOL encodings through [`decode_batch_encoded`]; RLE/dictionary
/// columns expand only here, on the receiver. Every source must have sent
/// one frame per planned schema, in order — or, for aggregate state,
/// nothing — and each frame must decode to its schema: a crc-valid block of
/// anything else is a protocol error, not input.
pub(crate) fn receive(
    schemas: &[Schema],
    payload: Payload,
    recv: &ExchangeRecv,
) -> Result<(Vec<Vec<Batch>>, RecvStats)> {
    let mut frames = Vec::new();
    for (src, got) in recv.frames.iter().enumerate() {
        let skipped = payload == Payload::State && got.is_empty();
        let (sent, want) = (got.len(), schemas.len());
        if sent != want && !skipped {
            let what = format!("exchange stream from node {src} carried {sent} frames, not {want}");
            return Err(DbError::Exec(what));
        }
        frames.extend(got.iter().zip(schemas).map(|(f, s)| (src, f, s)));
    }
    let mut out = vec![Vec::new(); recv.frames.len()];
    let mut stats = RecvStats::default();
    for (src, bytes, schema) in frames {
        let (eb, decoded) = decode_batch_encoded(bytes, None)
            .map_err(|e| DbError::Exec(format!("exchange decode: {e}")))?;
        if eb.schema() != schema {
            return Err(DbError::Exec(format!(
                "exchange frame carries columns {:?}, planned {:?}",
                eb.schema().names(),
                schema.names()
            )));
        }
        let all = Bitmap::all_valid(eb.num_rows());
        let materialized = eb
            .materialize(&all, None)
            .and_then(|(rows, expanded)| Ok((rows.into_batch()?, expanded)));
        let (batch, expanded) =
            materialized.map_err(|e| DbError::Exec(format!("exchange materialize: {e}")))?;
        stats.encoded_cols += decoded.cols_kept_encoded as u64;
        stats.expanded += expanded;
        out[src].push(batch);
    }
    Ok((out, stats))
}

// ------------------------------------------------------- per-node pipeline

/// What a node contributes to the final answer: projected rows (with hidden
/// ORDER BY key columns appended), its UDx instances' output batches, or its
/// partial aggregate state.
enum NodeResult {
    Rows(Batch),
    Emitted(Vec<Batch>),
    Partial(Partial),
}

/// Every node's rows and partials, in node order.
fn split(results: Vec<NodeResult>) -> (Vec<Batch>, Vec<Partial>) {
    let (mut rows, mut partials) = (Vec::new(), Vec::new());
    for r in results {
        match r {
            NodeResult::Rows(b) => rows.push(b),
            NodeResult::Emitted(b) => rows.extend(b),
            NodeResult::Partial(p) => partials.push(p),
        }
    }
    (rows, partials)
}

/// Run the per-node pipeline rooted at `node` — Project, PartialAgg or
/// Transform over an optional Filter over a scan, the initiator's rows or a
/// JOIN — on every node that holds its input.
fn fragment(cx: &Cx<'_>, node: &PlanNode) -> Result<Vec<NodeResult>> {
    let (mut cx, mut source) = (*cx, input(node)?);
    cx.sink = node.path;
    if let Op::Filter(pred) = &source.op {
        (cx.filter, source) = (Some((source.path, pred)), input(source)?);
    }
    match &source.op {
        Op::Local(per_node) => {
            let local = |node: &Arc<Node>, rows: &EncodedBatch| {
                let (id, started) = (node.id(), Instant::now());
                let mut acc = NodeAcc::new(&cx, id)?;
                let one = [Ok(rows.clone())];
                let counts = pipeline(&cx, one, &mut acc, &mut EncodedScanStats::default())?;
                cx.note(id.0, source.path, [0, counts.0, rows.byte_size()], None);
                sink(&cx, id.0, acc, counts, started)
            };
            let nodes: Vec<NodeId> = (0..per_node.len()).map(NodeId).collect();
            let run = cx
                .db
                .cluster()
                .run_on(&nodes, per_node.iter().collect(), local, None);
            run?.into_iter().collect()
        }
        Op::Scan(scan) => {
            let scan_node = |node: &Arc<Node>| scan_node(&cx, node, scan, source.path);
            cx.db.cluster().scatter(scan_node)?.into_iter().collect()
        }
        Op::HashJoin(j) => join::run(&cx, j, source),
        _ => Err(shape()),
    }
}

/// The per-node pipeline: every input through the WHERE mask into `acc`.
/// The encoded predicate kernels mask each batch and the survivors
/// late-materialize. Returns the rows in and the rows that passed.
fn pipeline(
    cx: &Cx<'_>,
    inputs: impl IntoIterator<Item = Result<EncodedBatch>>,
    acc: &mut NodeAcc<'_>,
    stats: &mut EncodedScanStats,
) -> Result<(u64, u64)> {
    let (mut rows_in, mut rows_out) = (0u64, 0u64);
    let pred = cx.filter.map(|(_, pred)| pred);
    for eb in inputs {
        let eb = eb?;
        rows_in += eb.num_rows() as u64;
        let mask = filter(pred, &eb, stats)?;
        rows_out += mask.count_set() as u64;
        acc.push(&eb, &mask, stats)?;
    }
    Ok((rows_in, rows_out))
}

/// Finish node `node`'s pipeline: record its Filter and its sink, which
/// took the `passed` of the `rows_in` rows and ran since `started`.
fn sink(
    cx: &Cx<'_>,
    node: usize,
    acc: NodeAcc<'_>,
    (rows_in, passed): (u64, u64),
    started: Instant,
) -> Result<NodeResult> {
    if let Some((path, _)) = cx.filter {
        cx.note(node, path, [rows_in, passed, 0], None);
    }
    let out = acc.finish()?;
    let [rows_out, bytes_out] = match &out {
        NodeResult::Rows(b) => size(b),
        NodeResult::Emitted(bs) => bs
            .iter()
            .map(size)
            .fold([0, 0], |[r, b], [r2, b2]| [r + r2, b + b2]),
        NodeResult::Partial(p) => [p.num_groups() as u64, p.byte_size()],
    };
    cx.note(node, cx.sink, [passed, rows_out, bytes_out], Some(started));
    Ok(out)
}

/// The rows of `eb` a WHERE keeps: all of them without one.
fn filter(pred: Option<&Expr>, eb: &EncodedBatch, stats: &mut EncodedScanStats) -> Result<Bitmap> {
    match pred {
        Some(pred) => eval_predicate_encoded(pred, eb, stats),
        None => Ok(Bitmap::all_valid(eb.num_rows())),
    }
}

/// One node's scan of `scan`'s table, the plan's operator `path`, through
/// the pipeline.
fn scan_node(cx: &Cx<'_>, node: &Arc<Node>, scan: &plan::Scan, path: usize) -> Result<NodeResult> {
    let id = node.id();
    let started = Instant::now();
    let mut span = vdr_obs::detail_span_with_parent("exec.scan", cx.span);
    span.set_node(id.0);
    let (table, wanted) = (&scan.table, scan.columns.as_ref());
    let found = cx.db.storage().scan_node(table, id, cx.op(path), wanted)?;
    let bytes_out = found.iter().map(EncodedBatch::byte_size).sum();
    let mut acc = NodeAcc::new(cx, id)?;
    let mut stats = EncodedScanStats::default();
    let counts = pipeline(cx, found.into_iter().map(Ok), &mut acc, &mut stats)?;
    stats.charge(cx, path, id);
    cx.note(id.0, path, [0, counts.0, bytes_out], None);
    sink(cx, id.0, acc, counts, started)
}

// -------------------------------------------------- compressed execution

/// What one node's readers of a scan did with its encoded columns, for the
/// cost ledger and the `scan.encoded.*` counters: the pipeline and a JOIN's
/// sides each keep one.
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

impl EncodedScanStats {
    /// Count one container's late materialization of `rows` survivors as
    /// the ledger models it: the paper's engine decodes the survivors of
    /// every scanned encoded column, or under a dictionary GROUP BY key only
    /// those of `only`, the aggregate arguments' columns. It models that
    /// decode, not this code's: a `COUNT(DISTINCT)` column read as codes is
    /// charged as expanded all the same, and a column only the WHERE read
    /// is charged though it never materializes.
    fn late_materialize(&mut self, eb: &EncodedBatch, rows: usize, only: Option<&HashSet<String>>) {
        let fields = eb.schema().fields().iter().zip(eb.columns());
        let charged = fields.filter(|(f, c)| {
            let named = only.is_none_or(|set| set.contains(&f.name.to_ascii_lowercase()));
            named && matches!(c, ScanColumn::Encoded(_))
        });
        let expanded = (charged.count() * rows) as u64;
        self.expanded_values += expanded;
        if only.is_none() && expanded > 0 {
            self.late_materialized_rows += rows as u64;
        }
    }

    /// Charge the deferred decode to operator `path` at the per-value scan
    /// cost the eager decoder pays, and count the encoded kernels' work.
    fn charge(&self, cx: &Cx<'_>, path: usize, node: NodeId) {
        if self.expanded_values > 0 {
            let values = self.expanded_values as f64;
            cx.op(path).cpu_work(node, values, cx.scan_cost());
        }
        for (name, n) in [
            ("scan.encoded.runs_skipped", self.runs_skipped),
            ("scan.encoded.runs_bsearched", self.runs_bsearched),
            ("scan.encoded.codes_tested", self.codes_tested),
            (
                "scan.encoded.late_materialized_rows",
                self.late_materialized_rows,
            ),
        ] {
            if n > 0 {
                vdr_obs::counter_on(name, node.0, n);
            }
        }
    }
}

/// Evaluate a WHERE predicate against an encoded batch, producing the same
/// is-TRUE selection mask [`Expr::eval_predicate`] would on decoded columns.
/// A column-vs-literal comparison over an encoded column runs once per RLE
/// run ([`kernels::cmp_scalar_rle`]) or once per distinct dictionary code
/// ([`kernels::cmp_scalar_dict`]); any other leaf decodes just its own
/// columns for the decoded evaluator.
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
        Expr::Binary { op, left, right } => {
            let Some(cop) = op.cmp_op() else {
                return decoded_predicate_leaf(e, eb);
            };
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

/// The encoded comparison kernels for `column cop literal`. `Ok(None)` means
/// the scan decoded the column (Plain or DeltaVarint), so the caller
/// evaluates the leaf on its values.
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
    if col.dict().is_some() {
        let (mask, s) = kernels::cmp_scalar_dict(col, cop, lit.clone())?;
        stats.codes_tested += s.comparisons;
        return Ok(Some(mask));
    }
    let (mask, s) = kernels::cmp_scalar_rle(col, cop, lit.clone())?;
    stats.runs_skipped += s.rows_skipped();
    stats.runs_bsearched += s.runs_bsearched;
    Ok(Some(mask))
}

/// A predicate leaf the encoded kernels don't take: decode only
/// the columns that leaf references (all rows — the mask isn't known yet)
/// and run the decoded evaluator over the single-purpose batch.
fn decoded_predicate_leaf(e: &Expr, eb: &EncodedBatch) -> Result<Bitmap> {
    let cols: HashSet<String> = e.columns().iter().map(|c| c.to_ascii_lowercase()).collect();
    let all = Bitmap::all_valid(eb.num_rows());
    let subset = if cols.is_empty() { None } else { Some(&cols) };
    let (batch, _) = eb.materialize(&all, subset)?;
    e.eval_predicate(&batch)
}

// --------------------------------------------------- per-node accumulator

/// One node's accumulator for one statement: masked batches go in,
/// container after container, and a [`NodeResult`] comes out — projected rows
/// appended to one batch, one group table updated in place, or the rows a
/// node's UDx instances emitted.
enum NodeAcc<'a> {
    Rows(&'a SelectStmt, Batch),
    Agg(Aggregator<'a>),
    Transform(Deal<'a>),
}

impl<'a> NodeAcc<'a> {
    /// A node that holds no input still answers in the projected schema.
    fn new(cx: &Cx<'a>, node: NodeId) -> Result<Self> {
        if let Some(t) = cx.transform {
            let n = t.instances.get(node.0).copied().filter(|&n| n > 0);
            let shares = vec![Vec::new(); n.ok_or_else(shape)?];
            let deal = Deal {
                cx: *cx,
                t,
                node,
                shares,
            };
            return Ok(NodeAcc::Transform(deal));
        }
        let (stmt, input) = (&cx.plan.stmt, &cx.plan.input);
        Ok(match &cx.plan.agg {
            Some(plan) => NodeAcc::Agg(Aggregator::new(plan)?),
            None => {
                let none = EncodedBatch::from(Batch::empty(input.clone()));
                let (rows, _) = none.materialize(&Bitmap::all_valid(0), None)?;
                NodeAcc::Rows(stmt, project(stmt, rows)?)
            }
        })
    }

    /// Take the `mask`-selected rows of `eb`. One rule decides what
    /// materializes: a column, for the survivors only, when some expression
    /// reads it other than as dictionary codes. A group table reads codes
    /// for a single dictionary GROUP BY key and for every `COUNT(DISTINCT
    /// col)` over a dictionary column ([`AggPlan::value_columns`]);
    /// projected rows and a transform's arguments read every column.
    fn push(
        &mut self,
        eb: &EncodedBatch,
        mask: &Bitmap,
        stats: &mut EncodedScanStats,
    ) -> Result<()> {
        let codes = |name: &str| match eb.column_by_name(name) {
            Ok(ScanColumn::Encoded(col)) => col.dict().map(|(dict, codes)| Codes {
                dict,
                codes,
                validity: col.validity(),
                mask,
            }),
            _ => None,
        };
        let rows = mask.count_set();
        match self {
            NodeAcc::Agg(agg) => {
                let plan = agg.plan();
                let values = plan.value_columns(|c| codes(c).is_some());
                let (selected, _) = eb.materialize(mask, values.as_ref())?;
                let key_codes = plan.dict_key().is_some_and(|k| codes(k).is_some());
                stats.late_materialize(eb, rows, key_codes.then(|| plan.arg_columns()));
                agg.update_selected(&selected, rows, codes)
            }
            NodeAcc::Rows(stmt, out) => {
                let (selected, _) = eb.materialize(mask, None)?;
                stats.late_materialize(eb, rows, None);
                Ok(out.extend(&project(stmt, selected)?)?)
            }
            NodeAcc::Transform(deal) => {
                stats.late_materialize(eb, rows, None);
                deal.push(eb, mask)
            }
        }
    }

    fn finish(self) -> Result<NodeResult> {
        Ok(match self {
            NodeAcc::Agg(agg) => NodeResult::Partial(agg.into_partial()?),
            NodeAcc::Rows(_, rows) => NodeResult::Rows(rows),
            NodeAcc::Transform(deal) => NodeResult::Emitted(deal.run()?),
        })
    }
}

/// Hidden ORDER BY key columns use this prefix and follow the select items;
/// the sort reads them by position (an alias may reuse the name) and leaves
/// them out of the answer.
const HIDDEN: &str = "__sortkey_";

/// The select list over `rows`, then one hidden column per ORDER BY key.
fn project(stmt: &SelectStmt, rows: Materialized<'_>) -> Result<Batch> {
    let mut names = Vec::new();
    let mut exprs = Vec::new();
    for (name, item) in plan::named_items(&stmt.items, rows.schema()) {
        let SelectItem::Expr { expr, .. } = item else {
            return Err(DbError::Plan(
                "aggregates cannot mix with plain columns without GROUP BY".into(),
            ));
        };
        names.push(name);
        exprs.push(expr);
    }
    for (i, key) in stmt.order_by.iter().enumerate() {
        names.push(format!("{HIDDEN}{i}"));
        exprs.push(key.expr.clone());
    }
    let columns = owned_columns(&exprs, rows)?;
    let fields = names.into_iter().zip(&columns);
    let fields = fields.map(|(name, col)| Field::new(name, col.data_type()));
    Ok(Batch::new(Schema::new(fields.collect()), columns)?)
}

/// Each of `exprs` over `rows` as an owned column. A bare column reference
/// takes its column out of `rows` unless a later one names it too, so a
/// column materialized for these rows moves and one borrowed from the scan
/// is copied once.
fn owned_columns(exprs: &[Expr], rows: Materialized<'_>) -> Result<Vec<Column>> {
    let mut out = Vec::with_capacity(exprs.len());
    for e in exprs {
        out.push(match e {
            Expr::Column(_) => None,
            e => Some(e.eval(&rows)?.into_owned()),
        });
    }
    let (schema, cols) = rows.into_parts();
    let mut cols: Vec<Option<Cow<'_, Column>>> = cols.into_iter().map(Some).collect();
    for (i, e) in exprs.iter().enumerate() {
        let Expr::Column(name) = e else { continue };
        let slot = cols.get_mut(schema.index_of(name)?).ok_or_else(shape)?;
        let same = |later: &Expr| matches!(later, Expr::Column(n) if n.eq_ignore_ascii_case(name));
        out[i] = if exprs[i + 1..].iter().any(same) {
            slot.as_deref().cloned()
        } else {
            slot.take().map(Cow::into_owned)
        };
    }
    out.into_iter().map(|c| c.ok_or_else(shape)).collect()
}

// --------------------------------------------------------------- transforms

/// One node's UDx instances, the planned number of them, and the batches
/// dealt to each so far.
struct Deal<'a> {
    cx: Cx<'a>,
    t: &'a Transform,
    node: NodeId,
    shares: Vec<Share>,
}

/// The batches dealt to one instance, in order, each with the rows it takes.
type Share = Vec<(EncodedBatch, Bitmap)>;

impl Deal<'_> {
    /// Deal the `mask`-selected rows of `eb`. Under `PARTITION BEST` the
    /// node's `j`-th batch goes whole to instance `j mod n`: over a scan,
    /// each instance holds a disjoint strided share of the node's containers
    /// ("UDFs on each database node read a unique segment of the table stored
    /// on that node"). Under `PARTITION BY` every row goes to the instance its
    /// routing column hashes to.
    fn push(&mut self, eb: &EncodedBatch, mask: &Bitmap) -> Result<()> {
        let n = self.shares.len();
        match &self.t.partition {
            Partition::Best => {
                let dealt: usize = self.shares.iter().map(Vec::len).sum();
                self.shares[dealt % n].push((eb.clone(), mask.clone()));
            }
            Partition::By(col) => {
                let all = Bitmap::all_valid(eb.num_rows());
                let (key, _) = eb.materialize(&all, Some(&HashSet::from([col.clone()])))?;
                let routes = hash_routes(key.column_by_name(col)?, n);
                for (share, rows) in self.shares.iter_mut().zip(routes) {
                    let mut mine = Bitmap::all_clear(eb.num_rows());
                    rows.into_iter().for_each(|r| mine.set(r));
                    share.push((eb.clone(), mine.and(mask)));
                }
            }
        }
        Ok(())
    }

    /// Run every instance over its share; their output in instance order,
    /// each in its emit order.
    fn run(mut self) -> Result<Vec<Batch>> {
        let shares = std::mem::take(&mut self.shares);
        let n = shares.len();
        self.cx.op(self.cx.sink).set_lanes(self.node, n);
        let mut out = Vec::new();
        for (i, share) in shares.into_iter().enumerate() {
            out.extend(self.instance(i, n, share)?);
        }
        Ok(out)
    }

    /// Instance `i` of `n` over the rows dealt to it, its arguments
    /// evaluated over them just before it runs.
    fn instance(&self, i: usize, n: usize, share: Share) -> Result<Vec<Batch>> {
        let (cx, t, node) = (&self.cx, self.t, self.node);
        let mut span = vdr_obs::detail_span_with_parent("exec.transform.instance", cx.span);
        span.set_node(node.0);
        span.record("instance", i);
        let mut input = Vec::with_capacity(share.len());
        for (eb, mask) in share {
            let (rows, _) = eb.materialize(&mask, None)?;
            let args = owned_columns(&t.args, rows)?;
            input.push(Batch::new(t.arg_schema.clone(), args)?);
        }
        let ctx = UdxContext {
            node,
            instance: i,
            instances_per_node: n,
            params: &t.params,
            dfs: cx.db.dfs(),
            cluster: cx.db.cluster(),
            rec: cx.op(cx.sink),
        };
        let mut out = Vec::new();
        t.func
            .process_partition(&ctx, input, &mut |b| out.push(b))?;
        Ok(out)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
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

    /// Per input batch, one row per argument row: the node and the instance
    /// it ran on, the batch's place in the instance's input, and the row's
    /// `id`.
    struct Shares;

    impl crate::udx::TransformFunction for Shares {
        fn name(&self) -> &str {
            "Shares"
        }

        fn output_schema(
            &self,
            _: &Schema,
            _: &std::collections::BTreeMap<String, String>,
        ) -> Result<Schema> {
            let names = ["node", "instance", "part", "id"];
            Ok(Schema::of(&names.map(|n| (n, DataType::Int64))))
        }

        fn process_partition(
            &self,
            ctx: &UdxContext<'_>,
            input: Vec<Batch>,
            emit: &mut dyn FnMut(Batch),
        ) -> Result<()> {
            for (part, b) in input.iter().enumerate() {
                let tag = |v: usize| Column::from_i64(vec![v as i64; b.num_rows()]);
                let cols = vec![tag(ctx.node.0), tag(ctx.instance), tag(part)];
                let cols = cols.into_iter().chain([b.column(0).clone()]);
                emit(Batch::new(
                    self.output_schema(b.schema(), ctx.params)?,
                    cols.collect(),
                )?);
            }
            Ok(())
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    /// `PARTITION BEST` deals a node's containers to its instances: instance
    /// `i` of `n` gets containers `i, i + n, …` whole and in container order,
    /// so the shares are disjoint and cover every row once — on a node with
    /// more containers than lanes and on one with fewer. The answer is in
    /// node order, then instance order, then each instance's emit order.
    #[test]
    fn partition_best_deals_strided_container_shares() {
        let db = VerticaDb::new(SimCluster::for_tests(2));
        db.register_transform(Arc::new(Shares));
        db.query("CREATE TABLE d (id INTEGER)").unwrap();
        let lanes = db.cluster().profile().costs.vft_export_lanes;
        let rec = PhaseRecorder::new("load", vdr_cluster::PhaseKind::Sequential, 2);
        // Per node, its containers' ids in container order: `lanes + 3`
        // containers on node 0 and 3 (fewer than lanes) on node 1, container
        // `c` holding `c + 1` rows.
        let (mut next, mut containers) = (0i64, vec![Vec::new(), Vec::new()]);
        for (node, count) in [(0, lanes + 3), (1, 3)] {
            for c in 0..count as i64 {
                let ids: Vec<i64> = (next..next + c + 1).collect();
                next += c + 1;
                let schema = Schema::of(&[("id", DataType::Int64)]);
                let batch = Batch::new(schema, vec![Column::from_i64(ids.clone())]).unwrap();
                db.storage()
                    .append("d", NodeId(node), &batch, &rec)
                    .unwrap();
                containers[node].push(ids);
            }
        }
        let sql = "SELECT Shares(id) OVER (PARTITION BEST) FROM d";
        let out = db.query(sql).unwrap().batch;
        // Each instance's input batches, keyed by (node, instance, part).
        let mut got: Vec<([i64; 3], Vec<i64>)> = Vec::new();
        for r in 0..out.num_rows() {
            let row: Vec<i64> = out.row(r).iter().map(|v| v.as_i64().unwrap()).collect();
            let key = [row[0], row[1], row[2]];
            match got.last_mut() {
                Some((k, ids)) if *k == key => ids.push(row[3]),
                _ => got.push((key, vec![row[3]])),
            }
        }
        let mut want = Vec::new();
        for (node, shares) in containers.iter().enumerate() {
            let n = lanes.min(shares.len());
            for i in 0..n {
                let mine = shares.iter().skip(i).step_by(n).enumerate();
                want.extend(
                    mine.map(|(part, ids)| ([node, i, part].map(|v| v as i64), ids.clone())),
                );
            }
        }
        assert_eq!(got, want);
        let mut every: Vec<i64> = got.into_iter().flat_map(|(_, ids)| ids).collect();
        every.sort_unstable();
        assert_eq!(every, (0..next).collect::<Vec<_>>());
    }

    /// What `receive` refuses, each case as a `DbError::Exec`: a source that
    /// sent another number of frames than the plan's schemas, a frame with a
    /// flipped bit, and a crc-valid frame of another schema. An empty stream
    /// is aggregate state with no group for the node, but missing rows.
    #[test]
    fn receive_refuses_what_the_plan_did_not_ship() {
        let schema = Schema::of(&[("k", DataType::Int64)]);
        let batch = |s: &Schema, c| encode_batch(&Batch::new(s.clone(), vec![c]).unwrap());
        let good = batch(&schema, Column::from_i64(vec![1, 2, 3]));
        let varchar = Schema::of(&[("k", DataType::Varchar)]);
        let other = batch(&varchar, Column::from_strings(vec!["a"]));
        let mut flipped = good.to_vec();
        flipped[good.len() / 2] ^= 1;
        let got = |payload, frames: Vec<Vec<Bytes>>| {
            let recv = ExchangeRecv {
                frames,
                wait_ns: 0,
                bytes: 0,
            };
            receive(std::slice::from_ref(&schema), payload, &recv)
        };
        let refused = |res: Result<_>| matches!(res, Err(DbError::Exec(_)));
        for payload in [Payload::Rows, Payload::State] {
            let two = vec![good.clone(), good.clone()];
            assert!(refused(got(payload, vec![vec![good.clone()], two])));
            let bad = vec![vec![good.clone()], vec![Bytes::from(flipped.clone())]];
            assert!(refused(got(payload, bad)));
            assert!(refused(got(
                payload,
                vec![vec![good.clone()], vec![other.clone()]]
            )));
            assert!(got(payload, vec![vec![good.clone()]; 2]).is_ok());
        }
        let empty = || vec![vec![good.clone()], vec![]];
        let (state, _) = got(Payload::State, empty()).unwrap();
        assert_eq!(state.iter().map(Vec::len).collect::<Vec<_>>(), [1, 0]);
        assert!(refused(got(Payload::Rows, empty())));
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
}
