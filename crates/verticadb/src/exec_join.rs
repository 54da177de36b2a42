//! Distributed hash JOIN: planning, repartitioning, and the node-local
//! build table and streaming probe.
//!
//! A JOIN resolves to one of three strategies against the two tables'
//! segmentation metadata:
//!
//! - **Co-located**: both sides are `SEGMENTED BY HASH` on their join key, so
//!   equal keys already live on the same node and every node joins its local
//!   segments with no data movement at all.
//! - **Shuffle**: the side(s) not hash-segmented on the join key repartition
//!   over the [`vdr_cluster::exchange_framed`] fabric by `hash(key) % N` —
//!   the same routing [`Segmentation::Hash`] uses at load time, so shuffled
//!   rows land exactly where a hash-segmented side's matches live.
//! - **Broadcast**: when neither side is aligned and the right side is small,
//!   every node receives the whole right table (one refcounted frame fanned
//!   out N ways) and joins it against its local left segment.
//!
//! Shuffled partitions travel as VCOL blocks ([`encode_batch`]), so a
//! low-cardinality or sorted join-key column stays RLE/dictionary-encoded
//! across the wire and decodes late on the receiver
//! ([`decode_batch_encoded`] + [`EncodedBatch::materialize`]); the
//! `exchange.encoded_cols` counter reports how many columns arrived still
//! encoded.
//!
//! Each node builds one table over its right side's key column — the
//! aggregator's row hash and `HashIndex`, keys equal as GROUP BY keys are but
//! NULL never matching — holding each key's rows contiguously, ascending.
//! The left side streams through it a batch at a time (scanned containers or
//! decoded partitions, read in place); each joined chunk holds only the
//! columns the statement reads (one if none) and goes through WHERE into the
//! node's one accumulator. Parallelism is per node. Output order is node
//! order, then left rows in scan order, then matches by ascending right row,
//! unmatched LEFT rows in place: float sums repeat bit for bit.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use super::*;
use crate::agg::{typed, typed_pair, Elem, HashIndex};
use crate::segmentation::{hash_routes, row_hashes, Segmentation};
use crate::sql::JoinKind;
use bytes::Bytes;
use rayon::prelude::*;
use vdr_cluster::{exchange_framed, ClusterError, ExchangeRecv, Node};
use vdr_columnar::{decode_batch_encoded, encode_batch};

/// How the two sides meet on each node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Strategy {
    /// Both sides hash-segmented on their join keys: no movement.
    CoLocated,
    /// Repartition the flagged side(s) by `hash(key) % N`.
    Shuffle { left: bool, right: bool },
    /// Ship the whole right side to every node.
    BroadcastRight,
}

impl Strategy {
    fn name(&self) -> &'static str {
        match self {
            Strategy::CoLocated => "colocated",
            Strategy::Shuffle {
                left: true,
                right: true,
            } => "shuffle_both",
            Strategy::Shuffle { left: true, .. } => "shuffle_left",
            Strategy::Shuffle { .. } => "shuffle_right",
            Strategy::BroadcastRight => "broadcast_right",
        }
    }
}

/// Which side a qualified name resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Left,
    Right,
}

/// A bare column name's resolution in the joined namespace.
enum NameRes {
    Out(String),
    /// The bare name exists on both sides; it must be qualified.
    Ambiguous,
}

/// The resolved plan: tables, join keys (canonical, unqualified), the output
/// naming of every column, and the movement strategy.
pub(super) struct JoinPlan {
    kind: JoinKind,
    left_table: String,
    right_table: String,
    left_key: String,
    right_key: String,
    /// Per side, in schema order: the original column name and its output
    /// field. Output names are the bare column name when unique across both
    /// sides, `alias.column` otherwise.
    left_out: Vec<(String, Field)>,
    right_out: Vec<(String, Field)>,
    /// Lowercased lookup (bare and alias-qualified) → output name.
    name_map: HashMap<String, NameRes>,
    pub(super) strategy: Strategy,
}

impl JoinPlan {
    pub(super) fn resolve(db: &VerticaDb, stmt: &SelectStmt) -> Result<JoinPlan> {
        let left_table = stmt
            .from
            .clone()
            .ok_or_else(|| DbError::Plan("JOIN requires a FROM table".into()))?;
        let Some(j) = &stmt.join else {
            return Err(DbError::Plan(
                "JOIN plan for a statement without JOIN".into(),
            ));
        };
        if crate::monitor::v_monitor_table(&left_table).is_some()
            || crate::monitor::v_monitor_table(&j.table).is_some()
            || left_table.eq_ignore_ascii_case("r_models")
            || j.table.eq_ignore_ascii_case("r_models")
        {
            return Err(DbError::Plan(
                "JOIN is not supported on system tables".into(),
            ));
        }
        let left_def = db.catalog().get(&left_table)?;
        let right_def = db.catalog().get(&j.table)?;
        let left_alias = stmt
            .from_alias
            .clone()
            .unwrap_or_else(|| left_def.name.clone());
        let right_alias = j.alias.clone().unwrap_or_else(|| right_def.name.clone());
        if left_alias.eq_ignore_ascii_case(&right_alias) {
            return Err(DbError::Plan(format!(
                "both JOIN sides are named '{left_alias}'; alias one of them"
            )));
        }

        let resolve_side = |key: &str| -> Result<(Side, String)> {
            if let Some((q, c)) = key.split_once('.') {
                let (side, def) = if q.eq_ignore_ascii_case(&left_alias)
                    || q.eq_ignore_ascii_case(&left_def.name)
                {
                    (Side::Left, &left_def)
                } else if q.eq_ignore_ascii_case(&right_alias)
                    || q.eq_ignore_ascii_case(&right_def.name)
                {
                    (Side::Right, &right_def)
                } else {
                    return Err(DbError::Plan(format!(
                        "unknown table qualifier '{q}' in ON clause"
                    )));
                };
                let i = def.schema.index_of(c).map_err(|_| {
                    DbError::Plan(format!("no column '{c}' in table '{}'", def.name))
                })?;
                Ok((side, def.schema.fields()[i].name.clone()))
            } else {
                let l = left_def.schema.index_of(key).ok();
                let r = right_def.schema.index_of(key).ok();
                match (l, r) {
                    (Some(_), Some(_)) => Err(DbError::Plan(format!(
                        "join key '{key}' is ambiguous; qualify it"
                    ))),
                    (Some(i), None) => Ok((Side::Left, left_def.schema.fields()[i].name.clone())),
                    (None, Some(i)) => Ok((Side::Right, right_def.schema.fields()[i].name.clone())),
                    (None, None) => Err(DbError::Plan(format!(
                        "join key '{key}' not found on either side"
                    ))),
                }
            }
        };
        let k1 = resolve_side(&j.left_key)?;
        let k2 = resolve_side(&j.right_key)?;
        let (left_key, right_key) = match (k1, k2) {
            ((Side::Left, l), (Side::Right, r)) | ((Side::Right, r), (Side::Left, l)) => (l, r),
            _ => {
                return Err(DbError::Plan(
                    "ON condition must reference one column from each side".into(),
                ))
            }
        };
        let ldt = left_def.schema.fields()[left_def.schema.index_of(&left_key)?].dtype;
        let rdt = right_def.schema.fields()[right_def.schema.index_of(&right_key)?].dtype;
        if ldt != rdt {
            return Err(DbError::Plan(format!(
                "join key type mismatch: {left_key} is {ldt:?}, {right_key} is {rdt:?}"
            )));
        }

        // Output naming: bare when unique, alias-qualified otherwise.
        let mut name_map: HashMap<String, NameRes> = HashMap::new();
        let mut side_out = |def: &crate::catalog::TableDef,
                            other: &crate::catalog::TableDef,
                            alias: &str|
         -> Vec<(String, Field)> {
            let mut out = Vec::new();
            for f in def.schema.fields() {
                let unique = other.schema.index_of(&f.name).is_err();
                let out_name = if unique {
                    f.name.clone()
                } else {
                    format!("{alias}.{}", f.name)
                };
                let qualified = |table: &str| format!("{table}.{}", f.name).to_ascii_lowercase();
                name_map.insert(qualified(alias), NameRes::Out(out_name.clone()));
                if !alias.eq_ignore_ascii_case(&def.name) {
                    name_map.insert(qualified(&def.name), NameRes::Out(out_name.clone()));
                }
                let bare = if unique {
                    NameRes::Out(out_name.clone())
                } else {
                    NameRes::Ambiguous
                };
                name_map.insert(f.name.to_ascii_lowercase(), bare);
                out.push((f.name.clone(), Field::new(out_name, f.dtype)));
            }
            out
        };
        let left_out = side_out(&left_def, &right_def, &left_alias);
        let right_out = side_out(&right_def, &left_def, &right_alias);

        let aligned = |def: &crate::catalog::TableDef, key: &str| {
            matches!(&def.segmentation,
                Segmentation::Hash { column } if column.eq_ignore_ascii_case(key))
        };
        // On one node everything is local; any movement would be a
        // self-send through the loopback.
        let single_node = db.cluster().num_nodes() == 1;
        let left_aligned = single_node || aligned(&left_def, &left_key);
        let right_aligned = single_node || aligned(&right_def, &right_key);
        let strategy = if left_aligned && right_aligned {
            Strategy::CoLocated
        } else if left_aligned {
            Strategy::Shuffle {
                left: false,
                right: true,
            }
        } else if right_aligned {
            Strategy::Shuffle {
                left: true,
                right: false,
            }
        } else {
            let n = db.cluster().num_nodes() as u64;
            let lrows: u64 = db.storage().segment_rows(&left_table).iter().sum();
            let rrows: u64 = db.storage().segment_rows(&j.table).iter().sum();
            // Broadcast ships the right side N ways; a shuffle ships both
            // sides once. Pick whichever moves fewer rows.
            if rrows.saturating_mul(n) <= lrows + rrows {
                Strategy::BroadcastRight
            } else {
                Strategy::Shuffle {
                    left: true,
                    right: true,
                }
            }
        };

        Ok(JoinPlan {
            kind: j.kind,
            left_table: left_def.name.clone(),
            right_table: right_def.name.clone(),
            left_key,
            right_key,
            left_out,
            right_out,
            name_map,
            strategy,
        })
    }

    /// Rewrite the statement into the joined namespace: every column
    /// reference (projection, WHERE, GROUP BY, ORDER BY) becomes its output
    /// name, and the join clause is dropped — downstream the statement
    /// behaves like a single-table SELECT over the joined batch.
    pub(super) fn rewrite(&self, stmt: &SelectStmt) -> Result<SelectStmt> {
        let mut out = stmt.clone();
        out.join = None;
        for item in &mut out.items {
            match item {
                SelectItem::Wildcard => {}
                SelectItem::Expr { expr, .. } => self.rewrite_expr(expr)?,
                SelectItem::Aggregate { arg, .. } => {
                    if let Some(a) = arg {
                        self.rewrite_expr(a)?;
                    }
                }
                SelectItem::Transform { args, .. } => {
                    for a in args {
                        self.rewrite_expr(a)?;
                    }
                }
            }
        }
        if let Some(w) = &mut out.where_clause {
            self.rewrite_expr(w)?;
        }
        for g in &mut out.group_by {
            self.rewrite_expr(g)?;
        }
        for k in &mut out.order_by {
            // A select alias names an output column, not a joined one; the
            // executor resolves it after the rewrite.
            if aliased_item(&stmt.items, &k.expr).is_none() {
                self.rewrite_expr(&mut k.expr)?;
            }
        }
        Ok(out)
    }

    fn rewrite_expr(&self, e: &mut Expr) -> Result<()> {
        match e {
            Expr::Column(name) => match self.name_map.get(&name.to_ascii_lowercase()) {
                Some(NameRes::Out(o)) => {
                    *name = o.clone();
                    Ok(())
                }
                Some(NameRes::Ambiguous) => Err(DbError::Plan(format!(
                    "column '{name}' is ambiguous in this JOIN; qualify it"
                ))),
                None => Err(DbError::Plan(format!(
                    "unknown column '{name}' in JOIN query"
                ))),
            },
            Expr::Literal(_) => Ok(()),
            Expr::Neg(a) | Expr::Not(a) | Expr::IsNull(a) | Expr::IsNotNull(a) => {
                self.rewrite_expr(a)
            }
            Expr::InList { expr, list, .. } => {
                self.rewrite_expr(expr)?;
                list.iter_mut().try_for_each(|x| self.rewrite_expr(x))
            }
            Expr::Like { expr, pattern, .. } => {
                self.rewrite_expr(expr)?;
                self.rewrite_expr(pattern)
            }
            Expr::Binary { left, right, .. } => {
                self.rewrite_expr(left)?;
                self.rewrite_expr(right)
            }
            Expr::Func { args, .. } => args.iter_mut().try_for_each(|x| self.rewrite_expr(x)),
        }
    }

    /// The joined columns a statement reads (`reads`, from
    /// [`referenced_columns`]), left then right in table order: all of them
    /// under `*`, the left key alone when it names none — the joined batch
    /// must still carry the row count.
    fn joined(&self, reads: Option<&HashSet<String>>) -> Joined<'_> {
        let sides = [(Side::Left, &self.left_out), (Side::Right, &self.right_out)];
        let all = sides
            .into_iter()
            .flat_map(|(side, out)| out.iter().map(move |(orig, f)| (side, orig.as_str(), f)));
        let read = |f: &Field| reads.is_none_or(|r| r.contains(&f.name.to_ascii_lowercase()));
        let mut cols: Vec<_> = all.clone().filter(|c| read(c.2)).collect();
        if cols.is_empty() {
            cols.extend(all.filter(|c| c.0 == Side::Left && c.1 == self.left_key));
        }
        let wanted = |side: Side, key: &str| {
            let names = cols.iter().filter(|c| c.0 == side).map(|c| c.1);
            reads.map(|_| names.chain([key]).map(str::to_ascii_lowercase).collect())
        };
        Joined {
            wanted: [
                wanted(Side::Left, &self.left_key),
                wanted(Side::Right, &self.right_key),
            ],
            schema: Schema::new(cols.iter().map(|c| c.2.clone()).collect()),
            cols: cols.iter().map(|c| (c.0, c.1)).collect(),
        }
    }
}

/// The joined batch's columns — the side each is read from and its name
/// there — and their schema in the output namespace: what joining no rows
/// produces, so the rest of the statement is planned on it.
struct Joined<'p> {
    cols: Vec<(Side, &'p str)>,
    schema: Schema,
    /// Per side, what its scan decodes: its joined columns and its key, or
    /// every column (`None`) under `*`.
    wanted: [Option<HashSet<String>>; 2],
}

// ------------------------------------------------------------- entry point

pub(super) fn execute_join_select(
    db: &VerticaDb,
    stmt: &SelectStmt,
    rec: &Arc<PhaseRecorder>,
) -> Result<Batch> {
    let plan = JoinPlan::resolve(db, stmt)?;
    let rewritten = plan.rewrite(stmt)?;
    // An ORDER BY position counts the joined columns only under `*`, where
    // every column is joined.
    let inner = resolve_order_by(&rewritten, &plan.joined(None).schema)?;
    let inner: &SelectStmt = &inner;
    let joined = plan.joined(referenced_columns(inner).as_ref());
    let agg = agg_plan(inner, &joined.schema)?;
    let mut join_span = vdr_obs::span("exec.join");
    join_span.record("strategy", plan.strategy.name());
    join_span.record("left", &plan.left_table);
    join_span.record("right", &plan.right_table);
    let q = Query {
        db,
        plan: &plan,
        joined: &joined,
        inner,
        agg: agg.as_ref(),
        rec,
        span_id: join_span.id(),
    };
    let per_node = match plan.strategy {
        Strategy::CoLocated => colocated(&q),
        Strategy::Shuffle { left, right } => shuffled(&q, left, right, false)?,
        Strategy::BroadcastRight => shuffled(&q, false, true, true)?,
    };
    drop(join_span);
    // The joined per-node partials flow through the ordinary gather / merge /
    // finalize machinery (including the shuffled two-phase GROUP BY — a
    // joined GROUP BY key is never segmentation-aligned).
    gather_and_finalize(db, inner, agg.as_ref(), rec, per_node, false)
}

/// What every node of one JOIN statement shares.
struct Query<'a> {
    db: &'a VerticaDb,
    plan: &'a JoinPlan,
    joined: &'a Joined<'a>,
    inner: &'a SelectStmt,
    agg: Option<&'a AggPlan>,
    rec: &'a Arc<PhaseRecorder>,
    span_id: u64,
}

impl Query<'_> {
    /// One side's containers on `node`, read in place.
    fn scan(&self, side: Side, node: &Arc<Node>) -> Result<Vec<Arc<Batch>>> {
        let (table, wanted) = self.side(side);
        self.db
            .storage()
            .scan_node_projected(table, node.id(), self.rec, false, wanted)
    }

    /// One side's table and the columns its scan decodes.
    fn side(&self, side: Side) -> (&str, Option<&HashSet<String>>) {
        let table = [&self.plan.left_table, &self.plan.right_table][side as usize];
        (table, self.joined.wanted[side as usize].as_ref())
    }

    /// The schema one side is planned to carry: the table's columns its scan
    /// decodes, in table order.
    fn schema(&self, side: Side) -> Result<Schema> {
        let (table, wanted) = self.side(side);
        let def = self.db.catalog().get(table)?;
        let keep = |name: &&str| wanted.is_none_or(|set| set.contains(&name.to_ascii_lowercase()));
        let names: Vec<&str> = def.schema.names().into_iter().filter(keep).collect();
        Ok(def.schema.project(&names)?)
    }

    /// Scanned batches of one side as one batch of its planned schema. The
    /// block cache may serve a wider batch than was asked for, and an empty
    /// segment serves none: every node must still ship the same columns.
    fn planned(&self, side: Side, batches: &[Arc<Batch>]) -> Result<Batch> {
        let schema = self.schema(side)?;
        let names = schema.names();
        let mut out = Batch::empty(schema.clone());
        for b in batches {
            if b.schema() == out.schema() {
                out.extend(b)?;
            } else {
                out.extend(&b.project(&names)?)?;
            }
        }
        Ok(out)
    }
}

/// Co-located fast path: plain scatter, both sides scanned locally, no
/// serialization and no wire traffic at all.
fn colocated(q: &Query<'_>) -> Vec<Result<NodeResult>> {
    let query_id = vdr_obs::current_query_id();
    q.db.cluster().scatter(|node| -> Result<NodeResult> {
        let _q = vdr_obs::QueryScope::enter(query_id);
        let _n = vdr_obs::NodeScope::enter(node.id().0);
        let left = q.scan(Side::Left, node)?;
        let right = q.planned(Side::Right, &q.scan(Side::Right, node)?)?;
        join_node(q, node, left.iter().map(Arc::as_ref), &right)
    })
}

/// Shuffle / broadcast path: one all-to-all exchange moves the flagged
/// side(s); the non-shuffled side rides along locally as the exchange carry.
fn shuffled(
    q: &Query<'_>,
    ship_left: bool,
    ship_right: bool,
    broadcast: bool,
) -> Result<Vec<Result<NodeResult>>> {
    let (db, plan, rec) = (q.db, q.plan, q.rec);
    let n = db.cluster().num_nodes();
    let query_id = vdr_obs::current_query_id();
    let scan_cost = db.cluster().profile().costs.db_scan_ns_per_value;
    let as_io = |e: DbError| ClusterError::Io(e.to_string());
    // The sides that cross the wire, in the frame order senders use, each
    // with the schema receivers hold its frames to.
    let mut shipped = Vec::new();
    if ship_left {
        shipped.push((Side::Left, q.schema(Side::Left)?));
    }
    if ship_right || broadcast {
        shipped.push((Side::Right, q.schema(Side::Right)?));
    }
    type Carry = (Option<Vec<Arc<Batch>>>, Option<Batch>);
    let results = exchange_framed(
        db.cluster(),
        rec,
        "exec.join.shuffle",
        |node| -> vdr_cluster::Result<(Vec<Vec<Bytes>>, Carry)> {
            let _q = vdr_obs::QueryScope::enter(query_id);
            let _n = vdr_obs::NodeScope::enter(node.id().0);
            let left = q.scan(Side::Left, node).map_err(as_io)?;
            let right = q.scan(Side::Right, node).map_err(as_io)?;
            let right = q.planned(Side::Right, &right).map_err(as_io)?;
            let mut parts: Vec<Vec<Bytes>> = (0..n).map(|_| Vec::new()).collect();
            let mut sent_values = 0u64;
            // Positional frame protocol per destination: the left partition
            // frame (if the left ships), then the right one (if it ships).
            // Every destination gets a frame per shipped side even when its
            // partition is empty, so receivers never guess.
            let mut carry: Carry = (None, None);
            if ship_left {
                let left = q.planned(Side::Left, &left).map_err(as_io)?;
                sent_values += partition(&left, &plan.left_key, &mut parts).map_err(as_io)?;
            } else {
                carry.0 = Some(left);
            }
            if broadcast {
                // One encoded block, fanned out as N refcounted handles.
                sent_values += right.num_values();
                let frame = encode_batch(&right);
                for p in parts.iter_mut() {
                    p.push(frame.clone());
                }
            } else if ship_right {
                sent_values += partition(&right, &plan.right_key, &mut parts).map_err(as_io)?;
            } else {
                carry.1 = Some(right);
            }
            // Serializing partitions is scan-shaped work on the sender.
            if sent_values > 0 {
                rec.cpu_work(node.id(), sent_values as f64, scan_cost);
            }
            Ok((parts, carry))
        },
        |node, carry, recv| -> vdr_cluster::Result<NodeResult> {
            let _q = vdr_obs::QueryScope::enter(query_id);
            let _n = vdr_obs::NodeScope::enter(node.id().0);
            let me = node.id().0;
            let (left_parts, right_parts, stats) =
                decode_received(node, &shipped, &recv).map_err(as_io)?;
            // Receive-side telemetry and cost: rows/bytes/frames/wait land on
            // the *receiving* node, so PROFILE shows the probe side too.
            vdr_obs::counter_on("exchange.rows", me, stats.rows);
            vdr_obs::counter_on("exchange.bytes", me, recv.bytes);
            vdr_obs::counter_on("exchange.frames", me, recv.num_frames);
            vdr_obs::counter_on("exchange.wait_ns", me, recv.wait_ns);
            if stats.encoded_cols > 0 {
                vdr_obs::counter_on("exchange.encoded_cols", me, stats.encoded_cols);
            }
            if stats.expanded_values > 0 {
                rec.cpu_work(node.id(), stats.expanded_values as f64, scan_cost);
            }
            let right = match carry.1 {
                Some(b) => b,
                None => concat_parts(right_parts).map_err(as_io)?,
            };
            match carry.0 {
                Some(left) => join_node(q, node, left.iter().map(Arc::as_ref), &right),
                None => join_node(q, node, &left_parts, &right),
            }
            .map_err(as_io)
        },
    )
    .map_err(DbError::from)?;
    Ok(results.into_iter().map(Ok).collect())
}

/// Receive-side decode telemetry.
#[derive(Default)]
struct RecvStats {
    rows: u64,
    encoded_cols: u64,
    expanded_values: u64,
}

/// Decode every received frame in parallel on the node's pool. Frames keep
/// their VCOL encodings through [`decode_batch_encoded`]; RLE/dictionary
/// columns expand only here, on the receiver (late materialization across
/// the wire). Every source must have sent exactly one frame per `shipped`
/// side, in that order, and each frame must decode to that side's planned
/// schema — a crc-valid block of anything else is a protocol error, not
/// join input.
fn decode_received(
    node: &Arc<Node>,
    shipped: &[(Side, Schema)],
    recv: &ExchangeRecv,
) -> Result<(Vec<Batch>, Vec<Batch>, RecvStats)> {
    let mut tagged: Vec<(Side, &Schema, &Bytes)> = Vec::new();
    for (src, frames) in recv.frames.iter().enumerate() {
        if frames.len() != shipped.len() {
            return Err(DbError::Exec(format!(
                "exchange stream from node {src} carried {} frames, expected {}",
                frames.len(),
                shipped.len()
            )));
        }
        tagged.extend(
            shipped
                .iter()
                .zip(frames)
                .map(|((side, schema), frame)| (*side, schema, frame)),
        );
    }
    let decoded: Vec<Result<(Side, Batch, u64, u64)>> = node.run(|| {
        tagged
            .par_iter()
            .map(|&(side, schema, bytes)| {
                let (eb, dstats) = decode_batch_encoded(bytes, None)
                    .map_err(|e| DbError::Exec(format!("exchange decode: {e}")))?;
                if eb.schema() != schema {
                    return Err(DbError::Exec(format!(
                        "exchange frame for the {side:?} side carries columns {:?}, planned {:?}",
                        eb.schema().names(),
                        schema.names()
                    )));
                }
                let mask = Bitmap::all_valid(eb.num_rows());
                let (batch, expanded) = eb
                    .materialize(&mask, None)
                    .map_err(|e| DbError::Exec(format!("exchange materialize: {e}")))?;
                Ok((side, batch, dstats.cols_kept_encoded as u64, expanded))
            })
            .collect()
    });
    let mut stats = RecvStats::default();
    let mut left_parts = Vec::new();
    let mut right_parts = Vec::new();
    for d in decoded {
        let (side, batch, kept, expanded) = d?;
        stats.rows += batch.num_rows() as u64;
        stats.encoded_cols += kept;
        stats.expanded_values += expanded;
        match side {
            Side::Left => left_parts.push(batch),
            Side::Right => right_parts.push(batch),
        }
    }
    Ok((left_parts, right_parts, stats))
}

/// The received partitions of one side as one batch, in source order.
fn concat_parts(parts: Vec<Batch>) -> Result<Batch> {
    let mut parts = parts.into_iter();
    let Some(mut out) = parts.next() else {
        return Err(DbError::Exec("exchange produced no partitions".into()));
    };
    for b in parts {
        out.extend(&b)?;
    }
    Ok(out)
}

/// Split `batch` by `hash(key) % n` — the exact routing
/// [`Segmentation::Hash`] applies at load time, so a shuffled side lands
/// co-resident with a hash-segmented one — and append each partition's
/// frame to its destination's `parts`. Returns the values encoded.
fn partition(batch: &Batch, key: &str, parts: &mut [Vec<Bytes>]) -> Result<u64> {
    let routes = hash_routes(batch.column_by_name(key)?, parts.len());
    let mut sent = 0;
    for (rows, frames) in routes.iter().zip(parts) {
        let part = batch.take(rows);
        sent += part.num_values();
        frames.push(encode_batch(&part));
    }
    Ok(sent)
}

// -------------------------------------------------------- local hash join

/// Build the node's table over `right`, stream every `left` batch through it
/// — probe, gather the joined columns, WHERE — into the node's one
/// accumulator, and charge the node's build + probe work once.
fn join_node<'b>(
    q: &Query<'_>,
    node: &Arc<Node>,
    left: impl IntoIterator<Item = &'b Batch>,
    right: &Batch,
) -> Result<NodeResult> {
    let mut span = vdr_obs::detail_span_with_parent("exec.join.node", q.span_id);
    span.set_node(node.id().0);
    let table = BuildTable::new(right.column_by_name(&q.plan.right_key)?)?;
    let mut acc = NodeAcc::new(q.inner, q.agg, &q.joined.schema)?;
    let (mut left_rows, mut out_rows) = (0, 0);
    for batch in left {
        let (li, ri) = table.probe(q.plan.kind, batch.column_by_name(&q.plan.left_key)?)?;
        left_rows += batch.num_rows();
        out_rows += li.len();
        let cols = q.joined.cols.iter().map(|&(side, name)| match side {
            Side::Left => Ok(gather(batch.column_by_name(name)?, &li)),
            Side::Right => Ok(gather(right.column_by_name(name)?, &ri)),
        });
        let chunk = Batch::new(q.joined.schema.clone(), cols.collect::<Result<_>>()?)?;
        acc.push(&*apply_where(q.inner, &chunk)?)?;
    }
    // Build + probe cost: one hash/compare per build row and per probe row,
    // plus per-output-row materialization, at scan-value cost.
    let scan_cost = q.db.cluster().profile().costs.db_scan_ns_per_value;
    let work = (left_rows + right.num_rows() + out_rows) as f64;
    q.rec.cpu_work(node.id(), work, scan_cost);
    vdr_obs::counter_on("exec.join.output_rows", node.id().0, out_rows as u64);
    span.record("rows_out", out_rows);
    acc.finish()
}

/// A right row id that names no row: the right side of an unmatched LEFT
/// JOIN row.
const NO_ROW: u32 = u32::MAX;

/// Row ids are `u32`s short of [`NO_ROW`]: a longer side is an error, not a
/// truncation.
fn row_ids(col: &Column) -> Result<usize> {
    match u32::try_from(col.len()) {
        Ok(n) if n != NO_ROW => Ok(col.len()),
        _ => Err(DbError::Exec(format!(
            "a JOIN side of {} rows: more than a u32 row id can name",
            col.len()
        ))),
    }
}

/// The build side's key column as a hash table: a [`HashIndex`] over its
/// distinct non-NULL keys by the aggregator's row hash, and the right rows
/// of key `id` at `rows[starts[id]..starts[id + 1]]`, ascending — the first
/// of them holds the key.
struct BuildTable<'a> {
    key: &'a Column,
    index: HashIndex,
    starts: Vec<u32>,
    rows: Vec<u32>,
}

impl<'a> BuildTable<'a> {
    fn new(key: &'a Column) -> Result<BuildTable<'a>> {
        let n = row_ids(key)?;
        let hashes = row_hashes(&[key], n);
        let mut index = HashIndex::new();
        // Per row its key id (NULL: none), per key id its first row.
        let (mut ids, mut first) = (vec![NO_ROW; n], Vec::<usize>::new());
        typed!(key, |data, validity| {
            for (r, &h) in hashes.iter().enumerate().filter(|(r, _)| validity.get(*r)) {
                let same = |id: usize| data[first[id]].same(&data[r]);
                let (id, new) = index.find_or_insert(h, same)?;
                if new {
                    first.push(r);
                }
                ids[r] = id;
            }
        });
        // A stable counting sort of the rows by key id.
        let mut starts = vec![0u32; first.len() + 1];
        for &id in ids.iter().filter(|&&id| id != NO_ROW) {
            starts[id as usize + 1] += 1;
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        let (mut next, mut rows) = (starts.clone(), vec![0u32; n - key.null_count()]);
        for (r, &id) in ids.iter().enumerate().filter(|(_, &id)| id != NO_ROW) {
            rows[next[id as usize] as usize] = r as u32;
            next[id as usize] += 1;
        }
        Ok(BuildTable {
            key,
            index,
            starts,
            rows,
        })
    }

    /// Every row of `probe` against the table, as row id pairs: each probe
    /// row's matches by ascending right row, in probe row order; under LEFT
    /// a row without one (a NULL key included) pairs with [`NO_ROW`].
    fn probe(&self, kind: JoinKind, probe: &Column) -> Result<(Vec<u32>, Vec<u32>)> {
        let n = row_ids(probe)?;
        let hashes = row_hashes(&[probe], n);
        let (starts, rows) = (&self.starts, &self.rows);
        let (mut li, mut ri) = (Vec::with_capacity(n), Vec::with_capacity(n));
        typed_pair!(
            self.key,
            probe,
            |keys, _kv, data, validity| {
                for (l, &h) in hashes.iter().enumerate() {
                    let same = |id: usize| keys[rows[starts[id] as usize] as usize].same(&data[l]);
                    let hit = validity.get(l).then(|| self.index.find(h, same)).flatten();
                    let range = match hit {
                        Some(id) => starts[id as usize] as usize..starts[id as usize + 1] as usize,
                        None if kind == JoinKind::Left => {
                            li.push(l as u32);
                            ri.push(NO_ROW);
                            continue;
                        }
                        None => continue,
                    };
                    li.extend(std::iter::repeat_n(l as u32, range.len()));
                    ri.extend_from_slice(&rows[range]);
                }
            },
            return Err(DbError::Exec("JOIN key columns differ in type".into()))
        );
        Ok((li, ri))
    }
}

/// `col`'s rows at `ids`, NULL where an id is [`NO_ROW`]: one typed gather
/// for the left side, INNER's right side and LEFT's NULL-filled one.
fn gather(col: &Column, ids: &[u32]) -> Column {
    fn rows<T: Clone + Default>(data: &[T], validity: &Bitmap, ids: &[u32]) -> (Vec<T>, Bitmap) {
        if validity.all_set() && !ids.contains(&NO_ROW) {
            let out = ids.iter().map(|&i| data[i as usize].clone()).collect();
            return (out, Bitmap::all_valid(ids.len()));
        }
        // A NULL holds the type's default value, as `Column::take` leaves it.
        let mut valid = Bitmap::all_clear(ids.len());
        let mut out = Vec::with_capacity(ids.len());
        for (o, i) in ids.iter().map(|&i| i as usize).enumerate() {
            if i != NO_ROW as usize && validity.get(i) {
                valid.set(o);
                out.push(data[i].clone());
            } else {
                out.push(T::default());
            }
        }
        (out, valid)
    }
    let mut out = Column::empty(col.data_type());
    typed_pair!(
        &mut out,
        col,
        |to, valid, data, validity| (*to, *valid) = rows(data, validity, ids),
        ()
    );
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use vdr_cluster::SimCluster;
    use vdr_columnar::ColumnBuilder;

    fn recv_of(frames: Vec<Vec<Bytes>>) -> ExchangeRecv {
        ExchangeRecv {
            frames,
            wait_ns: 0,
            num_frames: 0,
            bytes: 0,
        }
    }

    /// Whatever bytes arrive on JOIN's receive side, the outcome is the
    /// planned partitions or a `DbError` — never a panic, and never a join
    /// over fewer or other rows than were shipped.
    #[test]
    fn hostile_exchange_frames_are_errors_not_joins() {
        let cluster = SimCluster::for_tests(2);
        let node = cluster.node(NodeId(0));
        let left = Batch::from_rows(
            Schema::of(&[("k", DataType::Int64), ("v", DataType::Float64)]),
            &[
                vec![Value::Int64(1), Value::Float64(0.5)],
                vec![Value::Int64(1), Value::Null],
                vec![Value::Int64(2), Value::Float64(2.5)],
            ],
        )
        .unwrap();
        // Same key column as the left side, so only the schema check can
        // tell a misplaced frame from join input.
        let right = Batch::from_rows(
            Schema::of(&[("k", DataType::Int64), ("name", DataType::Varchar)]),
            &[
                vec![Value::Int64(1), Value::Varchar("one".into())],
                vec![Value::Int64(2), Value::Varchar("two".into())],
            ],
        )
        .unwrap();
        let (lf, rf) = (encode_batch(&left), encode_batch(&right));
        let shipped = [
            (Side::Left, left.schema().clone()),
            (Side::Right, right.schema().clone()),
        ];
        let decode = |frames: Vec<Vec<Bytes>>| decode_received(node, &shipped, &recv_of(frames));
        let rows = |parts: &[Batch]| parts.iter().map(Batch::num_rows).sum::<usize>();

        // Two sources, one frame per shipped side each.
        let (l, r, stats) = decode(vec![vec![lf.clone(), rf.clone()]; 2]).unwrap();
        assert_eq!((rows(&l), rows(&r), stats.rows), (6, 4, 10));
        assert!(l.iter().all(|b| b.schema() == left.schema()));
        assert!(r.iter().all(|b| b.schema() == right.schema()));
        // A side that did not ship is not expected on the wire.
        let right_only = [(Side::Right, right.schema().clone())];
        let (l, r, _) =
            decode_received(node, &right_only, &recv_of(vec![vec![rf.clone()]; 2])).unwrap();
        assert_eq!((rows(&l), rows(&r)), (0, 4));

        let is_exec_err = |res: Result<(Vec<Batch>, Vec<Batch>, RecvStats)>, what: &str| match res {
            Err(DbError::Exec(_)) => {}
            Err(other) => panic!("{what}: unexpected error kind {other}"),
            Ok((l, r, _)) => panic!("{what}: joined {} + {} rows", rows(&l), rows(&r)),
        };

        // Truncated at every offset, in either position.
        for cut in 0..lf.len() {
            let frames = vec![
                vec![lf.slice(..cut), rf.clone()],
                vec![lf.clone(), rf.clone()],
            ];
            is_exec_err(decode(frames), &format!("left frame cut at {cut}"));
        }
        for cut in 0..rf.len() {
            let frames = vec![
                vec![lf.clone(), rf.clone()],
                vec![lf.clone(), rf.slice(..cut)],
            ];
            is_exec_err(decode(frames), &format!("right frame cut at {cut}"));
        }
        // Any one bit flipped.
        for bit in 0..rf.len() * 8 {
            let mut bad = rf.to_vec();
            bad[bit / 8] ^= 1 << (bit % 8);
            let frames = vec![
                vec![lf.clone(), Bytes::from(bad)],
                vec![lf.clone(), rf.clone()],
            ];
            is_exec_err(decode(frames), &format!("bit {bit} flipped"));
        }
        // The wrong number of frames from one source: none, one short, one
        // over.
        for bad in [
            vec![],
            vec![lf.clone()],
            vec![lf.clone(), rf.clone(), rf.clone()],
        ] {
            let what = format!("{} frames from one source", bad.len());
            is_exec_err(decode(vec![vec![lf.clone(), rf.clone()], bad]), &what);
        }
        // Crc-valid blocks of the other side's schema.
        is_exec_err(
            decode(vec![
                vec![rf.clone(), lf.clone()],
                vec![lf.clone(), rf.clone()],
            ]),
            "sides swapped",
        );
        is_exec_err(
            decode(vec![vec![lf.clone(), lf.clone()]; 2]),
            "left block in the right slot",
        );
    }

    /// A key column of `dtype` from pool indices; index 0 is NULL. The pools
    /// hold the equalities that matter: both NaN signs, ±0.0 (equal by bit
    /// pattern, so not equal), `i64::MIN`/`MAX`, the empty string.
    fn key_column(dtype: DataType, picks: &[usize]) -> Column {
        let value = |i: usize| match dtype {
            DataType::Int64 => Value::Int64([i64::MIN, i64::MAX, -1, 0, 1, 7][i % 6]),
            DataType::Float64 => {
                let floats = [f64::NAN, -f64::NAN, 0.0, -0.0, 1.5, f64::INFINITY];
                Value::Float64(floats[i % 6])
            }
            DataType::Bool => Value::Bool(i % 2 == 1),
            DataType::Varchar => Value::Varchar(["", "a", "b", "é", "ab", "ba"][i % 6].into()),
        };
        let mut b = ColumnBuilder::new(dtype);
        for &p in picks {
            b.push(if p == 0 { Value::Null } else { value(p - 1) })
                .unwrap();
        }
        b.finish()
    }

    /// The nested loop: every (left, right) pair of equal non-NULL keys in
    /// left-then-right order, floats equal by bit pattern; under LEFT a left
    /// row with no pair pairs with `None`.
    fn nested_loop(left: &Column, right: &Column, kind: JoinKind) -> Vec<(usize, Option<usize>)> {
        let same = |a: Value, b: Value| match (a, b) {
            (Value::Null, _) | (_, Value::Null) => false,
            (Value::Float64(x), Value::Float64(y)) => x.to_bits() == y.to_bits(),
            (a, b) => a == b,
        };
        let mut out = Vec::new();
        for l in 0..left.len() {
            let hits = (0..right.len()).filter(|&r| same(left.get(l), right.get(r)));
            let before = out.len();
            out.extend(hits.map(|r| (l, Some(r))));
            if out.len() == before && kind == JoinKind::Left {
                out.push((l, None));
            }
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(200))]

        /// One build over the right keys, the left keys probed in batches
        /// split at random points: the row id pairs, offset by each batch's
        /// start, are the nested loop's, pair for pair and in its order.
        #[test]
        fn build_and_probe_is_the_nested_loop(
            right in proptest::collection::vec(0..8usize, 0..40),
            left in proptest::collection::vec(0..8usize, 0..60),
            cuts in proptest::collection::vec(0..61usize, 0..4),
            outer in proptest::arbitrary::any::<bool>(),
        ) {
            let kind = if outer { JoinKind::Left } else { JoinKind::Inner };
            for dtype in [DataType::Int64, DataType::Float64, DataType::Bool, DataType::Varchar] {
                let (rk, lk) = (key_column(dtype, &right), key_column(dtype, &left));
                let table = BuildTable::new(&rk).unwrap();
                let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(lk.len())).collect();
                bounds.extend([0, lk.len()]);
                bounds.sort_unstable();
                let mut got = Vec::new();
                for w in bounds.windows(2) {
                    let (li, ri) = table.probe(kind, &lk.slice(w[0], w[1])).unwrap();
                    let pairs = li.iter().zip(&ri);
                    got.extend(pairs.map(|(&l, &r)| (w[0] + l as usize, (r != NO_ROW).then_some(r as usize))));
                }
                let want = nested_loop(&lk, &rk, kind);
                proptest::prop_assert!(got == want, "{dtype:?}: got {got:?}, want {want:?}");
            }
        }
    }

    /// The gather behind every joined column: rows by id, NULL where the id
    /// is `NO_ROW` or the source row is NULL; and probing with a key of
    /// another type is an error, not a join.
    #[test]
    fn gather_fills_null_and_probe_checks_the_key_type() {
        let col = key_column(DataType::Varchar, &[2, 0, 3]);
        let got = gather(&col, &[2, NO_ROW, 1, 0, 2]);
        let want = key_column(DataType::Varchar, &[3, 0, 0, 2, 3]);
        assert_eq!(got, want);
        let ints = key_column(DataType::Int64, &[1, 2]);
        assert_eq!(gather(&ints, &[1, 0]), key_column(DataType::Int64, &[2, 1]));
        let table = BuildTable::new(&ints).unwrap();
        let probe = table.probe(JoinKind::Inner, &col);
        assert!(matches!(probe, Err(DbError::Exec(_))), "{probe:?}");
    }
}
