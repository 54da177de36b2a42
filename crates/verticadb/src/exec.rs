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
//! When a query's shape allows it ([`encoded_execution_eligible`]), the scan
//! returns [`EncodedBatch`]es whose Rle/Dictionary columns are still in
//! run/code form. Predicates then evaluate per *run* or per *distinct
//! dictionary code* ([`vdr_columnar::kernels::cmp_scalar_rle`] /
//! [`cmp_scalar_dict`]), a single-column dictionary GROUP BY aggregates into
//! a dense per-code table without hashing decoded strings, and everything
//! else is **late-materialized**: non-predicate columns decode only the rows
//! that survived the filter bitmap. The whole path is an executor-internal
//! optimization — results are bit-for-bit those of the decoded path.

use crate::db::VerticaDb;
use crate::error::{DbError, Result};
use crate::expr::{cmp_op, compare_values, literal_num, BinOp, Expr};
use crate::segmentation::hash_value;
use crate::sql::{AggFunc, Partition, SelectItem, SelectStmt, Statement};
use crate::udx::UdxContext;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use vdr_cluster::{NodeId, PhaseRecorder};
use vdr_columnar::kernels::{self, CmpOp};
use vdr_columnar::{
    Batch, Bitmap, Column, ColumnBuilder, DataType, EncodedBatch, Field, ScanColumn, Schema, Value,
};

#[path = "exec_join.rs"]
mod join;

/// The node that runs final merges — where the client is connected.
const INITIATOR: NodeId = NodeId(0);

/// Process-wide compressed-execution toggle (on by default). Off forces
/// every scan down the decoded path — used by equivalence tests and as an
/// escape hatch.
static COMPRESSED_EXECUTION: AtomicBool = AtomicBool::new(true);

/// Enable or disable compressed execution for subsequent queries.
pub fn set_compressed_execution(on: bool) {
    COMPRESSED_EXECUTION.store(on, Ordering::Relaxed);
}

/// Whether compressed execution is currently enabled.
pub fn compressed_execution() -> bool {
    COMPRESSED_EXECUTION.load(Ordering::Relaxed)
}

/// Process-wide shuffled-GROUP-BY toggle (on by default). When on, a
/// multi-node GROUP BY whose key is not the segmentation key repartitions
/// partial aggregates by group-key hash so the final merge is distributed
/// instead of initiator-bound. Off forces the initiator-only merge — used by
/// the A/B bench and equivalence tests.
static GROUP_BY_SHUFFLE: AtomicBool = AtomicBool::new(true);

/// Enable or disable the shuffled two-phase GROUP BY for subsequent queries.
pub fn set_group_by_shuffle(on: bool) {
    GROUP_BY_SHUFFLE.store(on, Ordering::Relaxed);
}

/// Whether the shuffled two-phase GROUP BY is currently enabled. The
/// `VDR_GROUP_BY_SHUFFLE` environment variable, when set, overrides the
/// in-process toggle ("0"/"off" disables, anything else enables) so
/// benchmark harnesses can A/B the strategy through the public SQL surface
/// alone.
pub fn group_by_shuffle() -> bool {
    match std::env::var("VDR_GROUP_BY_SHUFFLE") {
        Ok(v) => !(v == "0" || v.eq_ignore_ascii_case("off")),
        Err(_) => GROUP_BY_SHUFFLE.load(Ordering::Relaxed),
    }
}

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
        return project_batch(stmt, &one);
    };

    // Per-node pipelines.
    let per_node: Vec<Result<NodeResult>> = if let Some(sys) =
        crate::monitor::v_monitor_table(table)
    {
        // System tables materialize cluster-wide: every node contributes its
        // rows (framed and streamed to the initiator, charged to `rec`),
        // the union gains a `node_name` column, then the ordinary
        // WHERE/projection/ORDER BY machinery runs over it like any
        // gathered result.
        select_span.record("table", table);
        let batch = db.monitor().materialize_cluster(sys, db, rec)?;
        let filtered = apply_where(stmt, &batch)?;
        vec![Ok(node_result(stmt, &filtered)?)]
    } else if table.eq_ignore_ascii_case("r_models") {
        // The metadata table lives on the initiator.
        let models = db.models().as_batch();
        let filtered = apply_where(stmt, &models)?;
        vec![Ok(node_result(stmt, &filtered)?)]
    } else {
        let def = db.catalog().get(table)?;
        let _ = def; // existence check; schema validated during evaluation
        select_span.record("table", table);
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
        db.cluster().scatter(|node| -> Result<NodeResult> {
            let _q = vdr_obs::QueryScope::enter(query_id);
            let _n = vdr_obs::NodeScope::enter(node.id().0);
            let mut scan_span = vdr_obs::detail_span_with_parent("exec.scan", select_span_id);
            scan_span.set_node(node.id().0);
            if use_encoded {
                return encoded_node_pipeline(
                    db,
                    stmt,
                    table,
                    node.id(),
                    rec,
                    wanted.as_ref(),
                    &mut scan_span,
                );
            }
            let batches =
                db.storage()
                    .scan_node_projected(table, node.id(), rec, false, wanted.as_ref())?;
            let mut rows_in = 0u64;
            let mut rows_out = 0u64;
            let mut combined: Option<NodeResult> = None;
            for batch in batches {
                rows_in += batch.num_rows() as u64;
                let filtered = apply_where(stmt, &batch)?;
                rows_out += filtered.num_rows() as u64;
                let nr = node_result(stmt, &filtered)?;
                combined = Some(match combined {
                    None => nr,
                    Some(acc) => acc.merge(nr)?,
                });
            }
            scan_span.record("rows_in", rows_in);
            scan_span.record("rows_out", rows_out);
            vdr_obs::counter_on("exec.scan.rows", node.id().0, rows_in);
            vdr_obs::counter_on("exec.filter.rows", node.id().0, rows_out);
            match combined {
                Some(c) => Ok(c),
                // Node holds no containers: contribute an empty result.
                None => node_result(stmt, &empty_table_batch(db, table)?),
            }
        })
    };

    // GROUP BY partials whose key contains the segmentation key are already
    // node-disjoint; everything else benefits from the shuffled merge.
    let seg_aligned = db
        .catalog()
        .get(table)
        .ok()
        .map(|def| match &def.segmentation {
            crate::segmentation::Segmentation::Hash { column } => stmt
                .group_by
                .iter()
                .any(|g| matches!(g, Expr::Column(c) if c.eq_ignore_ascii_case(column))),
            _ => false,
        })
        .unwrap_or(true);

    let out = gather_and_finalize(db, stmt, rec, per_node, seg_aligned)?;
    select_span.record("rows_out", out.num_rows());
    vdr_obs::counter("exec.output.rows", out.num_rows() as u64);
    Ok(out)
}

/// The common tail of every SELECT: optionally repartition GROUP BY partials
/// across the cluster (shuffled two-phase merge), then gather the per-node
/// results to the initiator, merge, and finalize.
fn gather_and_finalize(
    db: &VerticaDb,
    stmt: &SelectStmt,
    rec: &Arc<PhaseRecorder>,
    per_node: Vec<Result<NodeResult>>,
    groupby_seg_aligned: bool,
) -> Result<Batch> {
    let mut partials = Vec::with_capacity(per_node.len());
    for r in per_node {
        partials.push(r?);
    }
    let partials = match maybe_shuffle_group_by(db, stmt, rec, partials, groupby_seg_aligned)? {
        GroupByMerge::Local(batch) => return order_limit_aggregate_output(stmt, batch),
        GroupByMerge::Gather(p) => p,
    };

    // Gather partial results to the initiator, charging the network.
    let mut gather_span = vdr_obs::span("exec.gather");
    let mut gathered: Vec<NodeResult> = Vec::with_capacity(partials.len());
    let mut gather_bytes = 0u64;
    let mut merge_bytes = 0u64;
    for (i, nr) in partials.into_iter().enumerate() {
        gather_bytes += nr.byte_size();
        rec.net(NodeId(i), INITIATOR, nr.byte_size());
        if i != INITIATOR.0
            && !groupby_seg_aligned
            && !stmt.group_by.is_empty()
            && matches!(nr, NodeResult::Aggregated { .. })
        {
            merge_bytes += nr.byte_size();
        }
        gathered.push(nr);
    }
    // Merging shipped GROUP BY partials whose key ranges overlap is the
    // initiator's CPU work — the serial bottleneck the shuffled two-phase
    // merge exists to remove. Segmentation-aligned partials are key-disjoint
    // (merging them is mere concatenation) and scalar aggregates merge O(n)
    // states, so neither is charged. The charge mirrors the per-byte rate
    // receivers pay in the shuffled path, so the two strategies are costed
    // symmetrically.
    if merge_bytes > 0 {
        let scan_cost = db.cluster().profile().costs.db_scan_ns_per_value;
        rec.cpu_work(INITIATOR, merge_bytes as f64 / 8.0, scan_cost);
    }
    gather_span.record("bytes", gather_bytes);
    vdr_obs::counter("exec.gather.bytes", gather_bytes);
    drop(gather_span);
    let merged = gathered
        .into_iter()
        .reduce(|a, b| a.merge(b).expect("schemas identical across nodes"))
        .ok_or_else(|| DbError::Exec("no nodes produced results".into()))?;

    merged.finalize(stmt)
}

// ------------------------------------------------- shuffled two-phase GROUP BY

/// Combine the per-value segmentation hashes of a group key into one routing
/// hash (FNV-style fold, matching [`hash_value`]'s constants).
fn group_key_hash(k: &GroupKey) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in &k.0 {
        h ^= hash_value(v);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// How the GROUP BY partials reach their final form.
enum GroupByMerge {
    /// The shuffle ran: every node finalized its disjoint key range locally
    /// and the initiator already concatenated the finished row batches —
    /// only the global ORDER BY / OFFSET / LIMIT remain.
    Local(Batch),
    /// No shuffle: partials flow to the classic gather-and-merge path.
    Gather(Vec<NodeResult>),
}

/// Repartition per-node GROUP BY partials by group-key hash so every node
/// merges — and finalizes — a disjoint key range in parallel, instead of the
/// initiator merging everything single-threaded. Because post-shuffle ranges
/// are disjoint, each node ships one finished row per group back to the
/// initiator rather than raw aggregate states (a COUNT(DISTINCT) set
/// collapses to a single integer before it crosses the wire). Skipped when
/// it cannot help: single node, partials that aren't grouped aggregates, a
/// group key containing the segmentation key (already node-disjoint), or
/// the toggle off.
fn maybe_shuffle_group_by(
    db: &VerticaDb,
    stmt: &SelectStmt,
    rec: &Arc<PhaseRecorder>,
    partials: Vec<NodeResult>,
    seg_aligned: bool,
) -> Result<GroupByMerge> {
    let n = partials.len();
    if n <= 1
        || n != db.cluster().num_nodes()
        || seg_aligned
        || stmt.group_by.is_empty()
        || !group_by_shuffle()
        || !partials
            .iter()
            .all(|p| matches!(p, NodeResult::Aggregated { .. }))
    {
        return Ok(GroupByMerge::Gather(partials));
    }
    // One slot per node: the scatter closure takes its node's partial map
    // exactly once, so the Mutex<Option<…>> is just a Sync-safe hand-off.
    type PartialSlot = std::sync::Mutex<Option<HashMap<GroupKey, Vec<AggState>>>>;
    let mut num_aggs = 0usize;
    let slots: Vec<PartialSlot> = partials
        .into_iter()
        .map(|p| match p {
            NodeResult::Aggregated {
                groups,
                num_aggs: na,
            } => {
                num_aggs = na;
                std::sync::Mutex::new(Some(groups))
            }
            NodeResult::Rows(_) => unreachable!("checked above"),
        })
        .collect();
    let query_id = vdr_obs::current_query_id();
    let scan_cost = db.cluster().profile().costs.db_scan_ns_per_value;
    let as_io = |e: DbError| vdr_cluster::ClusterError::Io(e.to_string());
    let merged = vdr_cluster::exchange_framed(
        db.cluster(),
        rec,
        "exec.groupby.shuffle",
        |node| {
            let _q = vdr_obs::QueryScope::enter(query_id);
            let _ns = vdr_obs::NodeScope::enter(node.id().0);
            let groups = slots[node.id().0]
                .lock()
                .expect("slot")
                .take()
                .expect("each node's partial is taken once");
            let mut parts: Vec<Vec<(GroupKey, Vec<AggState>)>> =
                (0..n).map(|_| Vec::new()).collect();
            for (k, s) in groups {
                parts[(group_key_hash(&k) % n as u64) as usize].push((k, s));
            }
            // The partition addressed to this node never leaves it: it rides
            // as the exchange's local carry, skipping ser/de through the
            // loopback entirely.
            let own = std::mem::take(&mut parts[node.id().0]);
            let mut sent = 0u64;
            let frames: Vec<Vec<bytes::Bytes>> = parts
                .iter()
                .map(|p| {
                    if p.is_empty() {
                        return Vec::new();
                    }
                    let f = serialize_group_partition(p, num_aggs);
                    sent += f.len() as u64;
                    vec![f]
                })
                .collect();
            // Serializing partial states is byte-proportional CPU work.
            if sent > 0 {
                rec.cpu_work(node.id(), sent as f64 / 8.0, scan_cost);
            }
            Ok((frames, own))
        },
        |node, own, recv| {
            let _q = vdr_obs::QueryScope::enter(query_id);
            let _ns = vdr_obs::NodeScope::enter(node.id().0);
            let me = node.id().0;
            let mut groups: HashMap<GroupKey, Vec<AggState>> = own.into_iter().collect();
            let mut rows = 0u64;
            for frames in &recv.frames {
                for f in frames {
                    for (k, states) in deserialize_group_partition(f).map_err(as_io)? {
                        rows += 1;
                        match groups.get_mut(&k) {
                            Some(mine) => {
                                for (m, o) in mine.iter_mut().zip(states) {
                                    m.merge_owned(o);
                                }
                            }
                            None => {
                                groups.insert(k, states);
                            }
                        }
                    }
                }
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
            finalize_aggregates(stmt, groups).map_err(as_io)
        },
    )
    .map_err(DbError::from)?;
    vdr_obs::counter("exec.groupby.shuffled", 1);

    // Gather the finished row slices — one row per group, so a shuffled
    // COUNT(DISTINCT) never ships its sets twice — and concatenate.
    let mut gather_span = vdr_obs::span("exec.gather");
    let mut gather_bytes = 0u64;
    for (i, b) in merged.iter().enumerate() {
        gather_bytes += b.byte_size();
        rec.net(NodeId(i), INITIATOR, b.byte_size());
    }
    gather_span.record("bytes", gather_bytes);
    vdr_obs::counter("exec.gather.bytes", gather_bytes);
    drop(gather_span);
    Ok(GroupByMerge::Local(concat_group_slices(merged)?))
}

/// Concatenate per-node finalized GROUP BY slices into one batch.
///
/// Each node inferred output dtypes from the first group of *its* slice, so
/// a slice whose every value in some column is NULL (e.g. the NULL group key
/// landed alone on one node) falls back to `Float64` while its peers carry
/// the real dtype. Those all-NULL columns are retyped to the consensus
/// schema before appending; empty slices are skipped outright.
fn concat_group_slices(mut slices: Vec<Batch>) -> Result<Batch> {
    if slices.iter().all(|b| b.num_rows() == 0) {
        // No groups anywhere: every node produced the same empty fallback
        // schema, so any one of them is the correct empty result.
        return Ok(slices.swap_remove(0));
    }
    let mut nonempty: Vec<Batch> = slices.into_iter().filter(|b| b.num_rows() > 0).collect();
    // Consensus dtype per column: the first slice holding a non-NULL value.
    let mut fields: Vec<Field> = nonempty[0].schema().fields().to_vec();
    for (ci, f) in fields.iter_mut().enumerate() {
        if let Some(b) = nonempty
            .iter()
            .find(|b| (0..b.num_rows()).any(|r| !b.column(ci).get(r).is_null()))
        {
            f.dtype = b.schema().fields()[ci].dtype;
        }
    }
    let schema = Schema::new(fields.clone());
    let mut out = Batch::empty(schema.clone());
    for b in nonempty.drain(..) {
        if *b.schema() == schema {
            out.extend(&b)?;
        } else {
            // Retype all-NULL columns to the consensus dtype row-by-row;
            // only slices that hit the fallback take this path.
            let mut builders: Vec<ColumnBuilder> =
                fields.iter().map(|f| ColumnBuilder::new(f.dtype)).collect();
            for row in 0..b.num_rows() {
                for (ci, builder) in builders.iter_mut().enumerate() {
                    builder.push(b.column(ci).get(row))?;
                }
            }
            let cols: Vec<Column> = builders.into_iter().map(|bld| bld.finish()).collect();
            out.extend(&Batch::new(schema.clone(), cols)?)?;
        }
    }
    Ok(out)
}

/// Wire format for one shuffled partition of GROUP BY partials:
/// `[num_groups u64][num_keys u64][num_aggs u64]` then per group its key
/// values and aggregate states. Values serialize as a tag byte plus payload
/// (the [`value_key`] shape, with explicit lengths for strings).
fn serialize_group_partition(
    groups: &[(GroupKey, Vec<AggState>)],
    num_aggs: usize,
) -> bytes::Bytes {
    let num_keys = groups.first().map_or(0, |(k, _)| k.0.len());
    let mut out = Vec::new();
    out.extend_from_slice(&(groups.len() as u64).to_le_bytes());
    out.extend_from_slice(&(num_keys as u64).to_le_bytes());
    out.extend_from_slice(&(num_aggs as u64).to_le_bytes());
    for (key, states) in groups {
        debug_assert_eq!(key.0.len(), num_keys);
        debug_assert_eq!(states.len(), num_aggs);
        for v in &key.0 {
            ser_value(&mut out, v);
        }
        for s in states {
            s.serialize_into(&mut out);
        }
    }
    bytes::Bytes::from(out)
}

fn deserialize_group_partition(buf: &[u8]) -> Result<Vec<(GroupKey, Vec<AggState>)>> {
    let mut r = WireReader { buf, pos: 0 };
    let num_groups = r.u64()? as usize;
    let num_keys = r.u64()? as usize;
    let num_aggs = r.u64()? as usize;
    let mut out = Vec::with_capacity(num_groups);
    for _ in 0..num_groups {
        let mut key = Vec::with_capacity(num_keys);
        for _ in 0..num_keys {
            key.push(de_value(&mut r)?);
        }
        let mut states = Vec::with_capacity(num_aggs);
        for _ in 0..num_aggs {
            states.push(AggState::deserialize_from(&mut r)?);
        }
        out.push((GroupKey(key), states));
    }
    if r.pos != buf.len() {
        return Err(DbError::Exec(format!(
            "group partition frame has {} trailing bytes",
            buf.len() - r.pos
        )));
    }
    Ok(out)
}

/// Bounds-checked cursor over a received frame.
struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl WireReader<'_> {
    fn bytes(&mut self, n: usize) -> Result<&[u8]> {
        if self.pos + n > self.buf.len() {
            return Err(DbError::Exec("truncated group partition frame".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8")))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
}

fn ser_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Int64(x) => {
            out.push(1);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Float64(x) => {
            out.push(2);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Bool(b) => {
            out.push(3);
            out.push(*b as u8);
        }
        Value::Varchar(s) => {
            out.push(4);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
}

fn de_value(r: &mut WireReader<'_>) -> Result<Value> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => Value::Int64(i64::from_le_bytes(r.bytes(8)?.try_into().expect("8"))),
        2 => Value::Float64(r.f64()?),
        3 => Value::Bool(r.u8()? != 0),
        4 => {
            let len = r.u32()? as usize;
            let s = std::str::from_utf8(r.bytes(len)?)
                .map_err(|_| DbError::Exec("non-UTF8 string in group partition".into()))?;
            Value::Varchar(s.to_string())
        }
        t => {
            return Err(DbError::Exec(format!(
                "bad value tag {t} in group partition"
            )))
        }
    })
}

impl AggState {
    /// Append this state's wire form: the three fixed counters, a presence
    /// flag byte, then min/max values and the distinct key set if carried.
    fn serialize_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.rows.to_le_bytes());
        out.extend_from_slice(&self.non_null.to_le_bytes());
        out.extend_from_slice(&self.sum.to_bits().to_le_bytes());
        let flags = u8::from(self.min.is_some())
            | (u8::from(self.max.is_some()) << 1)
            | (u8::from(self.distinct.is_some()) << 2);
        out.push(flags);
        if let Some(v) = &self.min {
            ser_value(out, v);
        }
        if let Some(v) = &self.max {
            ser_value(out, v);
        }
        if let Some(set) = &self.distinct {
            out.extend_from_slice(&(set.len() as u64).to_le_bytes());
            for k in set {
                out.extend_from_slice(&(k.len() as u32).to_le_bytes());
                out.extend_from_slice(k);
            }
        }
    }

    fn deserialize_from(r: &mut WireReader<'_>) -> Result<AggState> {
        let rows = r.u64()?;
        let non_null = r.u64()?;
        let sum = r.f64()?;
        let flags = r.u8()?;
        let min = (flags & 1 != 0).then(|| de_value(r)).transpose()?;
        let max = (flags & 2 != 0).then(|| de_value(r)).transpose()?;
        let distinct = if flags & 4 != 0 {
            let count = r.u64()? as usize;
            // Entries were written in BTreeSet iteration order, so the
            // sorted bulk-build path applies instead of n ordered inserts.
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let len = r.u32()? as usize;
                entries.push(r.bytes(len)?.to_vec());
            }
            Some(entries.into_iter().collect())
        } else {
            None
        };
        Ok(AggState {
            rows,
            non_null,
            sum,
            min,
            max,
            distinct,
        })
    }
}

fn empty_table_batch(db: &VerticaDb, table: &str) -> Result<Batch> {
    Ok(Batch::empty(db.catalog().get(table)?.schema))
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
    if !compressed_execution() {
        return false;
    }
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
/// → dictionary GROUP BY or late materialization → partial result.
fn encoded_node_pipeline(
    db: &VerticaDb,
    stmt: &SelectStmt,
    table: &str,
    node: NodeId,
    rec: &Arc<PhaseRecorder>,
    wanted: Option<&HashSet<String>>,
    scan_span: &mut vdr_obs::SpanGuard<'static>,
) -> Result<NodeResult> {
    let batches = db
        .storage()
        .scan_node_encoded(table, node, rec, false, wanted)?;
    let scan_cost = db.cluster().profile().costs.db_scan_ns_per_value;
    let mut stats = EncodedScanStats::default();
    let mut rows_in = 0u64;
    let mut rows_out = 0u64;
    let mut combined: Option<NodeResult> = None;
    for eb in batches {
        rows_in += eb.num_rows() as u64;
        let mask = match &stmt.where_clause {
            Some(pred) => eval_predicate_encoded(pred, &eb, &mut stats)?,
            None => Bitmap::all_valid(eb.num_rows()),
        };
        rows_out += mask.count_set() as u64;
        let nr = encoded_node_result(stmt, &eb, &mask, &mut stats)?;
        combined = Some(match combined {
            None => nr,
            Some(acc) => acc.merge(nr)?,
        });
    }
    // Expansion out of encoded form is the decode work this path deferred;
    // charge it at the same per-value scan cost the eager decoder pays.
    if stats.expanded_values > 0 {
        rec.cpu_work(node, stats.expanded_values as f64, scan_cost);
    }
    scan_span.record("rows_in", rows_in);
    scan_span.record("rows_out", rows_out);
    vdr_obs::counter_on("exec.scan.rows", node.0, rows_in);
    vdr_obs::counter_on("exec.filter.rows", node.0, rows_out);
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
    match combined {
        Some(c) => Ok(c),
        None => node_result(stmt, &empty_table_batch(db, table)?),
    }
}

/// Turn one filtered encoded batch into a partial result: the dictionary
/// GROUP BY fast path when it applies, otherwise late materialization of the
/// survivors followed by the ordinary per-node operators.
fn encoded_node_result(
    stmt: &SelectStmt,
    eb: &EncodedBatch,
    mask: &Bitmap,
    stats: &mut EncodedScanStats,
) -> Result<NodeResult> {
    if stmt.has_aggregates() || !stmt.group_by.is_empty() {
        if let Some(nr) = aggregate_partial_dict(stmt, eb, mask, stats)? {
            return Ok(nr);
        }
    }
    let (batch, expanded) = eb.materialize(mask, None)?;
    stats.expanded_values += expanded;
    if expanded > 0 {
        stats.late_materialized_rows += mask.count_set() as u64;
    }
    node_result(stmt, &batch)
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

/// Dictionary-code GROUP BY: a single `GROUP BY col` over a
/// dictionary-encoded column aggregates into a dense per-code table (slot =
/// code, one extra slot for NULL) instead of hashing decoded strings. Only
/// the aggregate-argument columns materialize, and only for mask survivors.
/// Returns `Ok(None)` when the shape doesn't fit and the caller should late-
/// materialize instead.
fn aggregate_partial_dict(
    stmt: &SelectStmt,
    eb: &EncodedBatch,
    mask: &Bitmap,
    stats: &mut EncodedScanStats,
) -> Result<Option<NodeResult>> {
    let [Expr::Column(key_name)] = stmt.group_by.as_slice() else {
        return Ok(None);
    };
    let Ok(ScanColumn::Encoded(key)) = eb.column_by_name(key_name) else {
        return Ok(None);
    };
    let Some((dict, codes)) = key.dict() else {
        return Ok(None);
    };
    let specs = agg_specs(stmt)?;
    let mut arg_cols_set = HashSet::new();
    for (_, arg, _) in &specs {
        if let Some(a) = arg {
            add_expr_columns(&mut arg_cols_set, a);
        }
    }
    let (arg_batch, expanded) = eb.materialize(mask, Some(&arg_cols_set))?;
    stats.expanded_values += expanded;
    let arg_cols: Vec<Option<Column>> = specs
        .iter()
        .map(|(_, arg, _)| arg.as_ref().map(|e| e.eval(&arg_batch)).transpose())
        .collect::<Result<_>>()?;
    let validity = key.validity();
    // Dense per-code accumulators; the last slot collects NULL keys.
    let mut dense: Vec<Option<Vec<AggState>>> = vec![None; dict.len() + 1];
    let mut dense_row = 0usize;
    mask.for_each_set(|row| {
        let slot = if validity.get(row) {
            codes[row] as usize
        } else {
            dict.len()
        };
        let states = dense[slot].get_or_insert_with(|| {
            specs
                .iter()
                .map(|(_, _, d)| AggState::for_spec(*d))
                .collect()
        });
        for (s, col) in states.iter_mut().zip(&arg_cols) {
            s.update(col.as_ref().map(|c| c.get(dense_row)).as_ref());
        }
        dense_row += 1;
    });
    // Re-key into the merge-compatible hash form; codes map back to their
    // dictionary strings exactly as a decoded GROUP BY would produce them.
    let mut groups: HashMap<GroupKey, Vec<AggState>> = HashMap::new();
    for (slot, states) in dense.into_iter().enumerate() {
        let Some(states) = states else { continue };
        let key_val = if slot == dict.len() {
            Value::Null
        } else {
            Value::Varchar(dict[slot].clone())
        };
        groups.insert(GroupKey(vec![key_val]), states);
    }
    Ok(Some(NodeResult::Aggregated {
        groups,
        num_aggs: specs.len(),
    }))
}

// --------------------------------------------------- per-node partial state

/// What a node contributes to the final answer: either projected rows (with
/// hidden ORDER BY key columns appended) or partial aggregate states.
enum NodeResult {
    Rows(Batch),
    Aggregated {
        /// key → (group key values, per-aggregate partial state)
        groups: HashMap<GroupKey, Vec<AggState>>,
        num_aggs: usize,
    },
}

fn node_result(stmt: &SelectStmt, batch: &Batch) -> Result<NodeResult> {
    if stmt.has_aggregates() || !stmt.group_by.is_empty() {
        aggregate_partial(stmt, batch)
    } else {
        Ok(NodeResult::Rows(project_rows_with_order_keys(stmt, batch)?))
    }
}

impl NodeResult {
    fn byte_size(&self) -> u64 {
        match self {
            NodeResult::Rows(b) => b.byte_size(),
            // Each group ships its key values plus per-aggregate state —
            // a COUNT(DISTINCT) state carrying thousands of keys costs
            // what it actually weighs on the wire.
            NodeResult::Aggregated { groups, .. } => groups
                .iter()
                .map(|(key, states)| {
                    key.0.iter().map(value_size).sum::<u64>()
                        + states.iter().map(AggState::byte_size).sum::<u64>()
                })
                .sum(),
        }
    }

    fn merge(self, other: NodeResult) -> Result<NodeResult> {
        match (self, other) {
            (NodeResult::Rows(mut a), NodeResult::Rows(b)) => {
                a.extend(&b)?;
                Ok(NodeResult::Rows(a))
            }
            (
                NodeResult::Aggregated {
                    mut groups,
                    num_aggs,
                },
                NodeResult::Aggregated { groups: og, .. },
            ) => {
                for (k, states) in og {
                    match groups.get_mut(&k) {
                        Some(mine) => {
                            for (m, o) in mine.iter_mut().zip(states) {
                                m.merge_owned(o);
                            }
                        }
                        None => {
                            groups.insert(k, states);
                        }
                    }
                }
                Ok(NodeResult::Aggregated { groups, num_aggs })
            }
            _ => Err(DbError::Exec("mixed partial result kinds".into())),
        }
    }

    /// Build the final batch on the initiator: final aggregation or
    /// sort/offset/limit of gathered rows.
    fn finalize(self, stmt: &SelectStmt) -> Result<Batch> {
        match self {
            NodeResult::Rows(batch) => {
                let sorted = apply_order_by_hidden(stmt, batch)?;
                Ok(apply_offset_limit(stmt, sorted))
            }
            NodeResult::Aggregated { groups, .. } => {
                let batch = finalize_aggregates(stmt, groups)?;
                order_limit_aggregate_output(stmt, batch)
            }
        }
    }
}

/// ORDER BY (over aggregate output column names) plus OFFSET/LIMIT — the
/// shared tail of the initiator-merge and shuffled local-finalization paths.
fn order_limit_aggregate_output(stmt: &SelectStmt, batch: Batch) -> Result<Batch> {
    let sorted = if stmt.order_by.is_empty() {
        batch
    } else {
        sort_by_exprs(
            batch,
            &stmt
                .order_by
                .iter()
                .map(|k| (k.expr.clone(), k.desc))
                .collect::<Vec<_>>(),
        )?
    };
    Ok(apply_offset_limit(stmt, sorted))
}

// ------------------------------------------------------------- projections

fn item_name(i: usize, item: &SelectItem) -> String {
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

/// Expand `*` into per-column expression items against `batch`'s schema.
fn expand_items(stmt: &SelectStmt, batch: &Batch) -> Vec<SelectItem> {
    let mut out = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Wildcard => {
                for f in batch.schema().fields() {
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

/// Hidden ORDER BY key columns use this prefix and are stripped after the
/// final sort.
const HIDDEN: &str = "__sortkey_";

fn project_rows_with_order_keys(stmt: &SelectStmt, batch: &Batch) -> Result<Batch> {
    let items = expand_items(stmt, batch);
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
    let projected = project_rows_with_order_keys(stmt, batch)?;
    let sorted = apply_order_by_hidden(stmt, projected)?;
    Ok(apply_offset_limit(stmt, sorted))
}

fn apply_order_by_hidden(stmt: &SelectStmt, batch: Batch) -> Result<Batch> {
    if stmt.order_by.is_empty() {
        return Ok(batch);
    }
    let keys: Vec<(Expr, bool)> = stmt
        .order_by
        .iter()
        .enumerate()
        .map(|(i, k)| (Expr::col(&format!("{HIDDEN}{i}")), k.desc))
        .collect();
    let sorted = sort_by_exprs(batch, &keys)?;
    // Strip hidden columns.
    let visible: Vec<&str> = sorted
        .schema()
        .names()
        .into_iter()
        .filter(|n| !n.starts_with(HIDDEN))
        .collect();
    Ok(sorted.project(&visible)?)
}

/// Stable sort of `batch` rows by the given key expressions.
fn sort_by_exprs(batch: Batch, keys: &[(Expr, bool)]) -> Result<Batch> {
    let mut key_cols = Vec::with_capacity(keys.len());
    for (e, desc) in keys {
        key_cols.push((e.eval(&batch)?, *desc));
    }
    let mut idx: Vec<usize> = (0..batch.num_rows()).collect();
    let mut sort_err = None;
    idx.sort_by(|&a, &b| {
        for (col, desc) in &key_cols {
            let va = col.get(a);
            let vb = col.get(b);
            // SQL: NULLs sort last regardless of direction.
            let ord = match (va.is_null(), vb.is_null()) {
                (true, true) => std::cmp::Ordering::Equal,
                (true, false) => std::cmp::Ordering::Greater,
                (false, true) => std::cmp::Ordering::Less,
                (false, false) => match compare_values(&va, &vb) {
                    Ok(o) => {
                        if *desc {
                            o.reverse()
                        } else {
                            o
                        }
                    }
                    Err(e) => {
                        sort_err.get_or_insert(e);
                        std::cmp::Ordering::Equal
                    }
                },
            };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    if let Some(e) = sort_err {
        return Err(e);
    }
    Ok(batch.take(&idx))
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

// -------------------------------------------------------------- aggregation

/// Group key: values compared with float-bit equality so NaN groups behave.
#[derive(Debug, Clone)]
struct GroupKey(Vec<Value>);

impl PartialEq for GroupKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len()
            && self.0.iter().zip(&other.0).all(|(a, b)| match (a, b) {
                (Value::Float64(x), Value::Float64(y)) => x.to_bits() == y.to_bits(),
                (a, b) => a == b,
            })
    }
}

impl Eq for GroupKey {}

impl std::hash::Hash for GroupKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        for v in &self.0 {
            state.write_u64(hash_value(v));
        }
    }
}

/// A partial aggregate: enough to compute COUNT/SUM/AVG/MIN/MAX after any
/// number of merges.
#[derive(Debug, Clone, Default)]
struct AggState {
    rows: u64,
    non_null: u64,
    sum: f64,
    min: Option<Value>,
    max: Option<Value>,
    /// Canonical encodings of values seen, for `COUNT(DISTINCT e)`.
    /// `None` when the aggregate isn't distinct (no memory overhead).
    distinct: Option<std::collections::BTreeSet<Vec<u8>>>,
}

/// A canonical byte encoding for grouping/distinct purposes: type tag plus
/// value bytes (floats by bit pattern so NaNs dedupe).
fn value_key(v: &Value) -> Vec<u8> {
    match v {
        Value::Null => vec![0],
        Value::Int64(x) => {
            let mut out = vec![1];
            out.extend_from_slice(&x.to_le_bytes());
            out
        }
        Value::Float64(x) => {
            let mut out = vec![2];
            out.extend_from_slice(&x.to_bits().to_le_bytes());
            out
        }
        Value::Bool(b) => vec![3, *b as u8],
        Value::Varchar(s) => {
            let mut out = vec![4];
            out.extend_from_slice(s.as_bytes());
            out
        }
    }
}

/// Serialized size of one [`Value`] in the gather wire accounting: a type
/// tag plus the payload ([`value_key`]'s shape).
fn value_size(v: &Value) -> u64 {
    match v {
        Value::Null => 1,
        Value::Int64(_) | Value::Float64(_) => 9,
        Value::Bool(_) => 2,
        Value::Varchar(s) => 1 + s.len() as u64,
    }
}

impl AggState {
    /// Wire size of this partial state: the three fixed counters, the
    /// min/max values if set, and every distinct key actually carried.
    fn byte_size(&self) -> u64 {
        let mut n = 24; // rows + non_null + sum
        if let Some(v) = &self.min {
            n += value_size(v);
        }
        if let Some(v) = &self.max {
            n += value_size(v);
        }
        if let Some(set) = &self.distinct {
            n += set.iter().map(|k| k.len() as u64).sum::<u64>();
        }
        n
    }

    fn for_spec(distinct: bool) -> AggState {
        AggState {
            distinct: distinct.then(std::collections::BTreeSet::new),
            ..Default::default()
        }
    }

    fn update(&mut self, v: Option<&Value>) {
        self.rows += 1;
        let Some(v) = v else { return };
        if v.is_null() {
            return;
        }
        self.non_null += 1;
        if let Some(set) = &mut self.distinct {
            set.insert(value_key(v));
        }
        if let Some(x) = v.as_f64() {
            self.sum += x;
        }
        let better_min = match &self.min {
            None => true,
            Some(m) => compare_values(v, m).map(|o| o.is_lt()).unwrap_or(false),
        };
        if better_min {
            self.min = Some(v.clone());
        }
        let better_max = match &self.max {
            None => true,
            Some(m) => compare_values(v, m).map(|o| o.is_gt()).unwrap_or(false),
        };
        if better_max {
            self.max = Some(v.clone());
        }
    }

    /// Merge a partial state we own: distinct keys and min/max values move
    /// instead of cloning, which matters when shuffled COUNT(DISTINCT)
    /// states carry large sets.
    fn merge_owned(&mut self, mut other: AggState) {
        self.rows += other.rows;
        self.non_null += other.non_null;
        self.sum += other.sum;
        if let (Some(mine), Some(theirs)) = (&mut self.distinct, &mut other.distinct) {
            if mine.len() < theirs.len() {
                std::mem::swap(mine, theirs);
            }
            if theirs.len() >= 16 {
                mine.append(theirs);
            } else {
                mine.extend(std::mem::take(theirs));
            }
        }
        if let Some(om) = other.min {
            let better = match &self.min {
                None => true,
                Some(m) => compare_values(&om, m).map(|o| o.is_lt()).unwrap_or(false),
            };
            if better {
                self.min = Some(om);
            }
        }
        if let Some(om) = other.max {
            let better = match &self.max {
                None => true,
                Some(m) => compare_values(&om, m).map(|o| o.is_gt()).unwrap_or(false),
            };
            if better {
                self.max = Some(om);
            }
        }
    }

    fn finalize(&self, func: AggFunc, counting_star: bool) -> Value {
        match func {
            AggFunc::Count => {
                if let Some(set) = &self.distinct {
                    Value::Int64(set.len() as i64)
                } else if counting_star {
                    Value::Int64(self.rows as i64)
                } else {
                    Value::Int64(self.non_null as i64)
                }
            }
            AggFunc::Sum => {
                if self.non_null == 0 {
                    Value::Null
                } else {
                    Value::Float64(self.sum)
                }
            }
            AggFunc::Avg => {
                if self.non_null == 0 {
                    Value::Null
                } else {
                    Value::Float64(self.sum / self.non_null as f64)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

/// Validate the select list of an aggregating statement and collect the
/// aggregate specs: every non-aggregate item must be a GROUP BY expression.
fn agg_specs(stmt: &SelectStmt) -> Result<Vec<(AggFunc, Option<Expr>, bool)>> {
    let mut specs: Vec<(AggFunc, Option<Expr>, bool)> = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Aggregate {
                func,
                arg,
                distinct,
                ..
            } => specs.push((*func, arg.clone(), *distinct)),
            SelectItem::Expr { expr, .. } => {
                if !stmt.group_by.iter().any(|g| g == expr) {
                    return Err(DbError::Plan(format!(
                        "'{expr}' must appear in GROUP BY or inside an aggregate"
                    )));
                }
            }
            SelectItem::Wildcard => {
                return Err(DbError::Plan("'*' cannot mix with aggregates".into()))
            }
            SelectItem::Transform { .. } => unreachable!("handled earlier"),
        }
    }
    Ok(specs)
}

fn aggregate_partial(stmt: &SelectStmt, batch: &Batch) -> Result<NodeResult> {
    let agg_specs = agg_specs(stmt)?;

    let key_cols: Vec<Column> = stmt
        .group_by
        .iter()
        .map(|e| e.eval(batch))
        .collect::<Result<_>>()?;
    let arg_cols: Vec<Option<Column>> = agg_specs
        .iter()
        .map(|(_, arg, _)| arg.as_ref().map(|e| e.eval(batch)).transpose())
        .collect::<Result<_>>()?;

    let mut groups: HashMap<GroupKey, Vec<AggState>> = HashMap::new();
    for row in 0..batch.num_rows() {
        let key = GroupKey(key_cols.iter().map(|c| c.get(row)).collect());
        let states = groups.entry(key).or_insert_with(|| {
            agg_specs
                .iter()
                .map(|(_, _, d)| AggState::for_spec(*d))
                .collect()
        });
        for (s, col) in states.iter_mut().zip(&arg_cols) {
            s.update(col.as_ref().map(|c| c.get(row)).as_ref());
        }
    }
    // Global aggregation (no GROUP BY) over an empty input still yields one
    // group so `SELECT count(*) FROM empty` returns 0.
    if groups.is_empty() && stmt.group_by.is_empty() {
        groups.insert(
            GroupKey(vec![]),
            agg_specs
                .iter()
                .map(|(_, _, d)| AggState::for_spec(*d))
                .collect(),
        );
    }
    Ok(NodeResult::Aggregated {
        groups,
        num_aggs: agg_specs.len(),
    })
}

fn finalize_aggregates(
    stmt: &SelectStmt,
    groups: HashMap<GroupKey, Vec<AggState>>,
) -> Result<Batch> {
    // Deterministic output: sort groups by key.
    let mut entries: Vec<(GroupKey, Vec<AggState>)> = groups.into_iter().collect();
    entries.sort_by(|(a, _), (b, _)| {
        for (x, y) in a.0.iter().zip(&b.0) {
            let ord = match (x.is_null(), y.is_null()) {
                (true, true) => std::cmp::Ordering::Equal,
                (true, false) => std::cmp::Ordering::Greater,
                (false, true) => std::cmp::Ordering::Less,
                _ => compare_values(x, y).unwrap_or(std::cmp::Ordering::Equal),
            };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });

    // Output columns follow the select list order.
    let mut builders: Vec<(String, ColumnBuilder)> = Vec::new();
    for (i, item) in stmt.items.iter().enumerate() {
        let name = item_name(i, item);
        let dtype = match item {
            SelectItem::Aggregate { func, .. } => match func {
                AggFunc::Count => DataType::Int64,
                AggFunc::Sum | AggFunc::Avg => DataType::Float64,
                // MIN/MAX keep input type; infer from the first group later.
                AggFunc::Min | AggFunc::Max => DataType::Float64,
            },
            _ => DataType::Float64,
        };
        builders.push((name, ColumnBuilder::new(dtype)));
    }

    // MIN/MAX and group keys need real types: rebuild builders by peeking at
    // the first group's values.
    if let Some((key, states)) = entries.first() {
        let mut agg_idx = 0usize;
        for (i, item) in stmt.items.iter().enumerate() {
            let dtype = match item {
                SelectItem::Aggregate { func, .. } => {
                    let v = states[agg_idx].finalize(
                        *func,
                        matches!(item, SelectItem::Aggregate { arg: None, .. }),
                    );
                    agg_idx += 1;
                    match (func, v.data_type()) {
                        (AggFunc::Count, _) => DataType::Int64,
                        (AggFunc::Sum | AggFunc::Avg, _) => DataType::Float64,
                        (_, Some(dt)) => dt,
                        (_, None) => DataType::Float64,
                    }
                }
                SelectItem::Expr { expr, .. } => {
                    let gi = stmt
                        .group_by
                        .iter()
                        .position(|g| g == expr)
                        .expect("validated in aggregate_partial");
                    key.0[gi].data_type().unwrap_or(DataType::Float64)
                }
                _ => DataType::Float64,
            };
            builders[i] = (builders[i].0.clone(), ColumnBuilder::new(dtype));
        }
    }

    for (key, states) in &entries {
        let mut agg_idx = 0usize;
        for (i, item) in stmt.items.iter().enumerate() {
            let value = match item {
                SelectItem::Aggregate { func, arg, .. } => {
                    let v = states[agg_idx].finalize(*func, arg.is_none());
                    agg_idx += 1;
                    v
                }
                SelectItem::Expr { expr, .. } => {
                    let gi = stmt
                        .group_by
                        .iter()
                        .position(|g| g == expr)
                        .expect("validated");
                    key.0[gi].clone()
                }
                _ => unreachable!(),
            };
            builders[i].1.push(value)?;
        }
    }

    let mut fields = Vec::new();
    let mut columns = Vec::new();
    for (name, b) in builders {
        let col = b.finish();
        fields.push(Field::new(name, col.data_type()));
        columns.push(col);
    }
    Ok(Batch::new(Schema::new(fields), columns)?)
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
                                let key = b.column_by_name(col)?;
                                let mask = Bitmap::from_fn(b.num_rows(), |r| {
                                    (hash_value(&key.get(r)) % instances as u64) as usize
                                        == instance
                                });
                                mine.push(Arc::new(b.filter(&mask)?));
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

    #[test]
    fn group_key_nan_equality() {
        let a = GroupKey(vec![Value::Float64(f64::NAN)]);
        let b = GroupKey(vec![Value::Float64(f64::NAN)]);
        assert_eq!(a, b);
        let c = GroupKey(vec![Value::Float64(0.0)]);
        assert_ne!(a, c);
    }

    // --------------------------------------------- compressed execution

    /// The compressed-execution toggle is process-global; tests that flip it
    /// serialize here so parallel test threads don't observe each other's
    /// setting.
    static TOGGLE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// A table whose blocks actually pick RLE (sorted low-cardinality `grp`)
    /// and Dictionary (3-value `tag`) encodings, with NULLs in both.
    fn db_low_cardinality() -> Arc<VerticaDb> {
        let cluster = SimCluster::for_tests(2);
        let db = VerticaDb::new(cluster);
        db.query("CREATE TABLE lc (id INTEGER, grp INTEGER, x FLOAT, tag VARCHAR)")
            .unwrap();
        let mut values = Vec::new();
        for i in 0..600i64 {
            let grp = if i % 97 == 0 {
                "NULL".to_string()
            } else {
                (i / 200).to_string()
            };
            let tag = if i % 89 == 0 {
                "NULL".to_string()
            } else {
                format!("'{}'", ["a", "b", "c"][(i % 3) as usize])
            };
            values.push(format!("({i}, {grp}, {}.5, {tag})", i % 7));
        }
        db.query(&format!("INSERT INTO lc VALUES {}", values.join(", ")))
            .unwrap();
        db
    }

    fn rows_of(b: &Batch) -> Vec<Vec<Value>> {
        (0..b.num_rows()).map(|r| b.row(r)).collect()
    }

    #[test]
    fn compressed_and_decoded_execution_agree() {
        let _g = TOGGLE_LOCK.lock().unwrap();
        let db = db_low_cardinality();
        let queries = [
            // RLE predicate, late-materialized projection.
            "SELECT id, x FROM lc WHERE grp = 1 ORDER BY id",
            // Dictionary predicate plus RLE predicate in an AND tree.
            "SELECT count(*), sum(x) FROM lc WHERE grp >= 1 AND tag = 'b'",
            // OR tree, flipped literal-first operand order.
            "SELECT count(*) FROM lc WHERE 2 <= grp OR tag <> 'a'",
            // Dictionary GROUP BY (dense per-code path) with NULL keys.
            "SELECT tag, count(*) AS n, avg(x), min(id), max(id) FROM lc GROUP BY tag ORDER BY tag",
            // Filtered dictionary GROUP BY with a distinct aggregate.
            "SELECT tag, count(DISTINCT grp) FROM lc WHERE id < 500 GROUP BY tag ORDER BY tag",
            // NULL-heavy predicate: NULL grp rows must drop in both paths.
            "SELECT count(*) FROM lc WHERE grp <= 2",
            // Non-dictionary GROUP BY falls back to late materialization.
            "SELECT grp, count(*) FROM lc WHERE tag = 'c' GROUP BY grp ORDER BY grp",
        ];
        for sql in queries {
            set_compressed_execution(true);
            let on = db.query(sql).unwrap().batch;
            set_compressed_execution(false);
            let off = db.query(sql).unwrap().batch;
            set_compressed_execution(true);
            assert_eq!(
                rows_of(&on),
                rows_of(&off),
                "encoded and decoded paths disagree for {sql}"
            );
        }
    }

    #[test]
    fn encoded_predicate_skips_runs_under_profile() {
        let _g = TOGGLE_LOCK.lock().unwrap();
        set_compressed_execution(true);
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
        let _g = TOGGLE_LOCK.lock().unwrap();
        set_compressed_execution(true);
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
            let on = db.query(sql).unwrap().batch;
            set_compressed_execution(false);
            let off = db.query(sql).unwrap().batch;
            set_compressed_execution(true);
            assert_eq!(rows_of(&on), rows_of(&off), "paths disagree for {sql}");
        }
        let m = db
            .query(
                "SELECT sum(value) FROM v_monitor.metrics \
                 WHERE name = 'scan.encoded.runs_bsearched'",
            )
            .unwrap()
            .batch;
        let total = m.row(0)[0].as_f64().unwrap_or(0.0);
        // 3 queries × 2 nodes × 64 runs resolved by binary search.
        assert!(
            total >= (3 * 2 * 64) as f64,
            "sorted RLE predicates should binary-search, got {total}"
        );
    }

    #[test]
    fn planner_rule_picks_encoded_only_for_eligible_shapes() {
        let eligible = [
            "SELECT id FROM t WHERE grp = 1",
            "SELECT count(*) FROM t WHERE 1 <= grp AND tag = 'b'",
            "SELECT tag, count(*) FROM t GROUP BY tag",
        ];
        let ineligible = [
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
        let as_select = |sql: &str| -> SelectStmt {
            match crate::sql::parse(sql).unwrap() {
                Statement::Select(s) => s,
                other => panic!("expected SELECT, got {other:?}"),
            }
        };
        for sql in eligible {
            assert!(encoded_execution_eligible(&as_select(sql)), "{sql}");
        }
        for sql in ineligible {
            assert!(!encoded_execution_eligible(&as_select(sql)), "{sql}");
        }
    }
}
