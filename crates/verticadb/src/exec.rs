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
//!   holds each to its planned schema; the `exchange.*` counters and the
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

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::agg::{AggPlan, Aggregator, Codes, Partial};
use crate::db::VerticaDb;
use crate::error::{DbError, Result};
use crate::expr::{BinOp, Expr};
use crate::plan::{self, Exchange, Op, PhysicalPlan, PlanNode, Transform};
use crate::segmentation::hash_routes;
use crate::sort;
use crate::sql::{OrderKey, Partition, SelectItem, SelectStmt, Statement};
use crate::udx::UdxContext;
use bytes::Bytes;
use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::Arc;
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
    /// The WHERE of the pipeline being run.
    filter: Option<&'a Expr>,
    /// The UDx the pipeline feeds, in place of projected rows.
    transform: Option<&'a Transform>,
    rec: &'a Arc<PhaseRecorder>,
    /// The statement's span, parent of the per-node spans.
    span: u64,
    query: u64,
}

impl Cx<'_> {
    /// Re-enter the query and node scopes on a worker thread, so spans and
    /// counters stay attributed.
    fn enter(&self, node: usize) -> (vdr_obs::QueryScope, vdr_obs::NodeScope) {
        (
            vdr_obs::QueryScope::enter(self.query),
            vdr_obs::NodeScope::enter(node),
        )
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

/// Execute any statement against the database, charging `rec`.
pub fn execute(db: &VerticaDb, stmt: &Statement, rec: &Arc<PhaseRecorder>) -> Result<Batch> {
    let mut stmt_span = vdr_obs::span("exec.statement");
    stmt_span.record("stmt", crate::db::statement_label(stmt));
    match stmt {
        Statement::Select(select) => execute_select(db, select, rec),
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

/// Plan and run one SELECT, charging `rec`.
fn execute_select(db: &VerticaDb, stmt: &SelectStmt, rec: &Arc<PhaseRecorder>) -> Result<Batch> {
    let plan = plan::build(db, stmt)?;
    let mut span = vdr_obs::span("exec.select");
    if let Some(table) = &stmt.from {
        span.record("table", table);
    }
    let cx = Cx {
        db,
        plan: &plan,
        filter: None,
        transform: None,
        rec,
        span: span.id(),
        query: vdr_obs::current_query_id(),
    };
    let out = run(&cx, &plan.root)?;
    span.record("rows_out", out.num_rows());
    vdr_obs::counter("exec.output.rows", out.num_rows() as u64);
    Ok(out)
}

/// Run the plan to its answer on the initiator: Limit and Sort over a
/// transform's output, a gather of rows, or a merge of aggregate partials —
/// on the initiator, or on every node after a shuffle.
fn run(cx: &Cx<'_>, mut node: &PlanNode) -> Result<Batch> {
    let mut tail = Tail::default();
    if let Op::Limit { offset, limit } = &node.op {
        (tail.offset, tail.limit) = (*offset, *limit);
        node = input(node)?;
    }
    if let Op::Sort(keys) = &node.op {
        tail.keys = keys;
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
            let out = Batch::concat(t.out_schema.clone(), &rows)?;
            span.record("rows_out", out.num_rows());
            tail.output(out)
        }
        Op::FinalAgg => {
            // FinalAgg ← Exchange(gather) ← partials: merge on the initiator.
            let (_, partials) = split(fragment(cx, input(input(node)?)?)?);
            charge_gather(cx.rec, partials.iter().map(Partial::byte_size));
            let mut merged = Aggregator::new(cx.agg()?)?;
            for p in &partials {
                merged.merge(p)?;
            }
            tail.output(merged.finalize()?)
        }
        Op::Exchange(Exchange::Gather) => {
            let below = input(node)?;
            if let Op::FinalAgg = below.op {
                // Exchange(gather) ← FinalAgg ← Exchange(hash) ← partials.
                let (_, partials) = split(fragment(cx, input(input(below)?)?)?);
                return tail.output(shuffle_group_by(cx, partials)?);
            }
            let (rows, _) = split(fragment(cx, below)?);
            charge_gather(cx.rec, rows.iter().map(Batch::byte_size));
            tail.rows(rows)
        }
        _ => Err(shape()),
    }
}

/// Charge shipping the `i`-th node's bytes to the initiator.
fn charge_gather(rec: &Arc<PhaseRecorder>, bytes: impl Iterator<Item = u64>) {
    let mut gather_span = vdr_obs::span("exec.gather");
    let mut total = 0;
    for (i, b) in bytes.enumerate() {
        rec.net(NodeId(i), INITIATOR, b);
        total += b;
    }
    gather_span.record("bytes", total);
    vdr_obs::counter("exec.gather.bytes", total);
}

/// Shuffled two-phase GROUP BY: every node ships each other node the groups
/// whose key hashes to it, merges — and finalizes — its disjoint key range
/// in parallel, and the finished rows are gathered, one row per group
/// instead of (much heavier) aggregate state. Every slice is in the planned
/// output schema.
fn shuffle_group_by(cx: &Cx<'_>, partials: Vec<Partial>) -> Result<Batch> {
    let agg = cx.agg()?;
    let n = partials.len();
    let finished = exchange(
        cx,
        "exec.groupby.shuffle",
        agg.schemas(),
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
        |_, own, received| {
            let mut merged = Aggregator::new(agg)?;
            if let Some(own) = &own {
                merged.merge(own)?;
            }
            for batches in received.into_iter().filter(|b| !b.is_empty()) {
                merged.merge(&Partial::from_batches(batches))?;
            }
            merged.finalize()
        },
    )?;
    vdr_obs::counter("exec.groupby.shuffled", 1);
    charge_gather(cx.rec, finished.iter().map(Batch::byte_size));
    Ok(Batch::concat(agg.out_schema().clone(), &finished)?)
}

/// The initiator's Sort and Limit.
#[derive(Default)]
struct Tail<'a> {
    keys: &'a [OrderKey],
    offset: u64,
    limit: Option<u64>,
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

    /// Projected rows — one batch per node, in node order, each ending in
    /// the hidden sort-key columns, which the answer leaves out. Unordered
    /// rows are concatenated and cut.
    fn rows(&self, mut rows: Vec<Batch>) -> Result<Batch> {
        if rows.is_empty() {
            return Err(DbError::Exec("no nodes produced results".into()));
        }
        if self.keys.is_empty() {
            // Append to the first node's rows in place: no second copy.
            let mut gathered = rows.remove(0);
            for b in &rows {
                gathered.extend(b)?;
            }
            return Ok(self.cut(gathered));
        }
        let width = rows[0].num_columns().saturating_sub(self.keys.len());
        let mut keys = Vec::with_capacity(self.keys.len());
        for (i, k) in self.keys.iter().enumerate() {
            let cols: Option<Vec<&Column>> =
                rows.iter().map(|b| b.columns().get(width + i)).collect();
            let cols = cols.ok_or_else(|| DbError::Exec("a node's rows lack a sort key".into()))?;
            keys.push(sort::Key { cols, desc: k.desc });
        }
        sort::sort_limit(&rows, width, &keys, self.offset, self.limit)
    }

    /// Aggregate output, its ORDER BY keys read in place when they name an
    /// output column.
    fn output(&self, batch: Batch) -> Result<Batch> {
        if self.keys.is_empty() {
            return Ok(self.cut(batch));
        }
        let batches = [batch];
        let cols = self.keys.iter().map(|k| k.expr.eval(&batches[0]));
        let cols = cols.collect::<Result<Vec<_>>>()?;
        let keys = cols.iter().zip(self.keys).map(|(col, k)| sort::Key {
            cols: vec![col.as_ref()],
            desc: k.desc,
        });
        let (keys, width) = (keys.collect::<Vec<_>>(), batches[0].num_columns());
        sort::sort_limit(&batches, width, &keys, self.offset, self.limit)
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
/// source node, the batches it sent here, decoded and held to `schemas`.
/// With no schema to ship no stream opens: each node runs `send` and `recv`
/// back to back.
fn exchange<C: Send, T: Send>(
    cx: &Cx<'_>,
    stage: &str,
    schemas: &[Schema],
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
        let local = |node: &Arc<Node>| {
            let _s = cx.enter(node.id().0);
            recv(node, send(node, &mut outbox())?, Vec::new())
        };
        return cx.db.cluster().scatter(local).into_iter().collect();
    }
    let as_io = |e: DbError| ClusterError::Io(e.to_string());
    let charge = |node: &Arc<Node>, (values, bytes): (u64, u64)| {
        let units = match payload {
            Payload::Rows => values as f64,
            Payload::State => bytes as f64 / 8.0,
        };
        if units > 0.0 {
            cx.rec.cpu_work(node.id(), units, cx.scan_cost());
        }
    };
    let produce = |node: &Arc<Node>| {
        let _s = cx.enter(node.id().0);
        let mut out = outbox();
        let carry = send(node, &mut out).map_err(as_io)?;
        charge(node, (out.values, out.bytes));
        Ok((out.frames, carry))
    };
    let consume = |node: &Arc<Node>, carry: C, got: ExchangeRecv| {
        let me = node.id().0;
        let _s = cx.enter(me);
        let (received, stats) = receive(schemas, payload, &got).map_err(as_io)?;
        // Receive-side telemetry lands on the receiving node.
        vdr_obs::counter_on("exchange.rows", me, stats.rows);
        vdr_obs::counter_on("exchange.bytes", me, got.bytes);
        vdr_obs::counter_on("exchange.frames", me, got.num_frames);
        vdr_obs::counter_on("exchange.wait_ns", me, got.wait_ns);
        if stats.encoded_cols > 0 {
            vdr_obs::counter_on("exchange.encoded_cols", me, stats.encoded_cols);
        }
        charge(node, (stats.expanded, got.bytes));
        recv(node, carry, received).map_err(as_io)
    };
    Ok(exchange_framed(
        cx.db.cluster(),
        cx.rec,
        stage,
        produce,
        consume,
    )?)
}

/// Receive-side decode telemetry.
#[derive(Debug, Default)]
pub(crate) struct RecvStats {
    /// Rows received: every frame's, or each aggregate partial's groups.
    rows: u64,
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
    let counted = match payload {
        Payload::Rows => schemas.len(),
        Payload::State => 1,
    };
    let rows = out.iter().flat_map(|b| b.iter().take(counted));
    stats.rows = rows.map(|b| b.num_rows() as u64).sum();
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
    if let Op::Filter(pred) = &source.op {
        (cx.filter, source) = (Some(pred), input(source)?);
    }
    match &source.op {
        Op::Local(per_node) => {
            let local = |(n, rows): (usize, &EncodedBatch)| {
                let _s = cx.enter(n);
                let mut acc = NodeAcc::new(&cx, NodeId(n))?;
                let one = [Ok(rows.clone())];
                pipeline(&cx, one, &mut acc, &mut EncodedScanStats::default())?;
                acc.finish()
            };
            per_node.iter().enumerate().map(local).collect()
        }
        Op::Scan(scan) => {
            let scan_node = |node: &Arc<Node>| scan_node(&cx, node, scan);
            cx.db.cluster().scatter(scan_node).into_iter().collect()
        }
        Op::HashJoin(j) => join::run(&cx, j, &source.inputs),
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
    for eb in inputs {
        let eb = eb?;
        rows_in += eb.num_rows() as u64;
        let mask = filter(cx.filter, &eb, stats)?;
        rows_out += mask.count_set() as u64;
        acc.push(&eb, &mask, stats)?;
    }
    Ok((rows_in, rows_out))
}

/// The rows of `eb` a WHERE keeps: all of them without one.
fn filter(pred: Option<&Expr>, eb: &EncodedBatch, stats: &mut EncodedScanStats) -> Result<Bitmap> {
    match pred {
        Some(pred) => eval_predicate_encoded(pred, eb, stats),
        None => Ok(Bitmap::all_valid(eb.num_rows())),
    }
}

/// One node's scan of `scan`'s table through the pipeline.
fn scan_node(cx: &Cx<'_>, node: &Arc<Node>, scan: &plan::Scan) -> Result<NodeResult> {
    let id = node.id();
    let _s = cx.enter(id.0);
    let mut span = vdr_obs::detail_span_with_parent("exec.scan", cx.span);
    span.set_node(id.0);
    let (table, wanted) = (&scan.table, scan.columns.as_ref());
    let found = cx.db.storage().scan_node(table, id, cx.rec, wanted)?;
    let mut acc = NodeAcc::new(cx, id)?;
    let mut stats = EncodedScanStats::default();
    let (rows_in, rows_out) = pipeline(cx, found.into_iter().map(Ok), &mut acc, &mut stats)?;
    stats.charge(cx, id);
    span.record("rows_in", rows_in);
    span.record("rows_out", rows_out);
    vdr_obs::counter_on("exec.scan.rows", id.0, rows_in);
    vdr_obs::counter_on("exec.filter.rows", id.0, rows_out);
    acc.finish()
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

    /// Charge the deferred decode at the per-value scan cost the eager
    /// decoder pays, and count the encoded kernels' work.
    fn charge(&self, cx: &Cx<'_>, node: NodeId) {
        if self.expanded_values > 0 {
            cx.rec
                .cpu_work(node, self.expanded_values as f64, cx.scan_cost());
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
        self.cx.rec.set_lanes(self.node, n);
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
        // Attribute the instance's spans and counters to the query and node.
        let _s = cx.enter(node.0);
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
            rec: cx.rec,
        };
        let rows_in: u64 = input.iter().map(|b| b.num_rows() as u64).sum();
        let mut out = Vec::new();
        t.func
            .process_partition(&ctx, input, &mut |b| out.push(b))?;
        let rows_out: u64 = out.iter().map(|b| b.num_rows() as u64).sum();
        span.record("rows_in", rows_in);
        span.record("rows_out", rows_out);
        vdr_obs::counter_on("exec.transform.rows_in", node.0, rows_in);
        vdr_obs::counter_on("exec.transform.rows_out", node.0, rows_out);
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
