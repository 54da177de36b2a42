//! Physical planning: the one place a SELECT's execution is decided.
//!
//! [`build`] turns a statement, the catalog (segmentation, container
//! metadata) and the node count into one [`PhysicalPlan`] — a tree of
//! operators in the shape of Vertica's per-node pipelines joined by
//! exchanges (PlanBuilder → StagePlan → Interpreter). Every choice lives
//! here and only here:
//!
//! - **Scan columns.** A scan reads only the columns the statement reads.
//! - **Merge location.** A GROUP BY whose key holds the table's segmentation
//!   column merges on the initiator (its partials are node-disjoint); so do
//!   global aggregates and one-node clusters. Any other GROUP BY ships its
//!   partials by key hash, every node finishes a key range, and the finished
//!   rows are gathered.
//! - **JOIN strategy.** A side segmented by hash on its join key stays put;
//!   a small enough right side is broadcast; otherwise the unaligned sides
//!   shuffle by key hash.
//! - **UDx instances.** A transform sits where Project → Gather would, over
//!   any pipeline source, Sort and Limit above it. `PARTITION BEST` runs up
//!   to the profile's export lanes per node, no more than the FROM table's
//!   containers there; `PARTITION BY` runs every lane.
//!
//! `exec.rs` interprets the tree; `EXPLAIN` prints it ([`PhysicalPlan::explain`]).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::agg::AggPlan;
use crate::catalog::TableDef;
use crate::db::VerticaDb;
use crate::error::{DbError, Result};
use crate::expr::Expr;
use crate::segmentation::Segmentation;
use crate::sql::{JoinClause, JoinKind, OrderKey, Partition, SelectItem, SelectStmt};
use crate::udx::TransformFunction;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use vdr_columnar::{Batch, DataType, EncodedBatch, Field, Schema, Value};

/// One SELECT's physical plan: the operator tree and the statement its
/// operators evaluate.
pub(crate) struct PhysicalPlan {
    pub(crate) root: PlanNode,
    /// ORDER BY keys resolved against the select list; under a JOIN every
    /// column is named in the joined namespace.
    pub(crate) stmt: SelectStmt,
    /// Schema of the rows the per-node pipeline accumulates: the table's,
    /// the initiator-held batch's, or the joined columns'.
    pub(crate) input: Schema,
    pub(crate) agg: Option<AggPlan>,
}

pub(crate) struct PlanNode {
    pub(crate) op: Op,
    pub(crate) inputs: Vec<PlanNode>,
    /// The operator's number in pre-order, the root 0: the `path_id` of
    /// `EXPLAIN`, `PROFILE` and the statement's operator record.
    pub(crate) path: usize,
}

pub(crate) enum Op {
    /// Rows the planner already holds, node *n*'s at index *n*: a
    /// `v_monitor` table's on every node, a FROM-less SELECT's one row or
    /// `R_Models` on the initiator alone.
    Local(Vec<EncodedBatch>),
    Scan(Scan),
    Filter(Expr),
    /// The select list, plus one hidden column per ORDER BY key.
    Project,
    PartialAgg,
    Exchange(Exchange),
    FinalAgg,
    HashJoin(Join),
    Transform(Transform),
    Sort(Vec<OrderKey>),
    Limit {
        offset: u64,
        limit: Option<u64>,
    },
}

/// A table scan on every node.
pub(crate) struct Scan {
    pub(crate) table: String,
    /// The lowercased columns it reads; `None` reads every column.
    pub(crate) columns: Option<HashSet<String>>,
    /// The table's rows and stored bytes, from its container metadata.
    pub(crate) rows: u64,
    pub(crate) bytes: u64,
}

/// Where an exchange sends each node's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Exchange {
    /// To the initiator.
    Gather,
    /// To node `hash(key) % N`: the GROUP BY keys above a PartialAgg, the
    /// side's join key under a HashJoin.
    Hash,
    /// To every node.
    Broadcast,
}

/// A JOIN side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    Left,
    Right,
}

/// A hash JOIN; its inputs are the left and the right side, each under an
/// Exchange when it moves.
pub(crate) struct Join {
    pub(crate) kind: JoinKind,
    /// The left and the right key column.
    pub(crate) keys: [String; 2],
    /// The joined columns: the side each is read from and its name there.
    pub(crate) cols: Vec<(Side, String)>,
    /// The schema each side's rows are held to: the table columns its scan
    /// decodes, in table order.
    pub(crate) sides: [Schema; 2],
}

/// A UDx transform over its input's rows.
pub(crate) struct Transform {
    pub(crate) func: Arc<dyn TransformFunction>,
    pub(crate) args: Vec<Expr>,
    pub(crate) params: BTreeMap<String, String>,
    pub(crate) partition: Partition,
    /// UDx instances per node.
    pub(crate) instances: Vec<usize>,
    /// The evaluated arguments' schema, and the function's output schema.
    pub(crate) arg_schema: Schema,
    pub(crate) out_schema: Schema,
}

fn node(op: Op, inputs: Vec<PlanNode>) -> PlanNode {
    PlanNode {
        op,
        inputs,
        path: 0,
    }
}

/// Number `plan`'s operators in pre-order from `next`.
fn number(plan: &mut PlanNode, next: &mut usize) {
    plan.path = *next;
    *next += 1;
    plan.inputs.iter_mut().for_each(|input| number(input, next));
}

fn refuse<T>(why: impl Into<String>) -> Result<T> {
    Err(DbError::Plan(why.into()))
}

/// Plan `stmt`. A `v_monitor` table materializes here, every node's rows:
/// its columns are known only from them.
pub(crate) fn build(db: &VerticaDb, stmt: &SelectStmt) -> Result<PhysicalPlan> {
    if stmt.transform_item().is_some() {
        if stmt.items.len() != 1 {
            return refuse("a transform function must be the only select item");
        }
        if !stmt.group_by.is_empty() {
            return refuse("a transform function cannot be combined with GROUP BY");
        }
    }
    if let Some(join) = &stmt.join {
        return build_join(db, stmt, join);
    }
    // Rows already held: the schema is node 0's, which every node shares.
    let local = |batches: Vec<Batch>| {
        let first = batches.first();
        let first = first.ok_or_else(|| DbError::Plan("a source with no node's rows".into()))?;
        let schema = first.schema().clone();
        let stmt = resolve_order_by(stmt, &schema)?.into_owned();
        let source = Op::Local(batches.into_iter().map(EncodedBatch::from).collect());
        finish(db, stmt, schema, node(source, vec![]), true)
    };
    let Some(table) = stmt.from.as_deref() else {
        let one = Schema::of(&[("dummy", DataType::Int64)]);
        return local(vec![Batch::from_rows(one, &[vec![Value::Int64(0)]])?]);
    };
    if let Some(sys) = crate::monitor::v_monitor_table(table) {
        return local(db.monitor().batches(sys, db)?);
    }
    if table.eq_ignore_ascii_case("r_models") {
        return local(vec![db.models().as_batch()]);
    }
    let def = db.catalog().get(table)?;
    let stmt = resolve_order_by(stmt, &def.schema)?.into_owned();
    let scan = scan(db, &def, referenced_columns(&stmt));
    let aligned = match &def.segmentation {
        Segmentation::Hash { column } => stmt
            .group_by
            .iter()
            .any(|g| matches!(g, Expr::Column(c) if c.eq_ignore_ascii_case(column))),
        _ => false,
    };
    finish(db, stmt, def.schema.clone(), scan, aligned)
}

fn scan(db: &VerticaDb, def: &TableDef, columns: Option<HashSet<String>>) -> PlanNode {
    let scan = Scan {
        rows: db.storage().segment_rows(&def.name).iter().sum(),
        bytes: db.storage().segment_bytes(&def.name).iter().sum(),
        table: def.name.clone(),
        columns,
    };
    node(Op::Scan(scan), vec![])
}

/// Stack the per-node pipeline (Filter, then Project, PartialAgg or
/// Transform) on `source`, then the merge, Sort and Limit. `disjoint`: the
/// partials need no shuffle — there is one, or the GROUP BY key holds the
/// segmentation column.
fn finish(
    db: &VerticaDb,
    mut stmt: SelectStmt,
    input: Schema,
    source: PlanNode,
    disjoint: bool,
) -> Result<PhysicalPlan> {
    let agg = (stmt.has_aggregates() || !stmt.group_by.is_empty())
        .then(|| AggPlan::new(&stmt, &input))
        .transpose()?;
    let mut plan = match &stmt.where_clause {
        Some(pred) => node(Op::Filter(pred.clone()), vec![source]),
        None => source,
    };
    let gather = |input| node(Op::Exchange(Exchange::Gather), vec![input]);
    plan = match &agg {
        None => match transform(db, &stmt, &input)? {
            Some(t) => {
                output_order(&mut stmt.order_by, &t.out_schema)?;
                node(Op::Transform(t), vec![plan])
            }
            None => gather(node(Op::Project, vec![plan])),
        },
        Some(a) if db.cluster().num_nodes() > 1 && !disjoint && a.has_keys() => {
            let shuffle = node(
                Op::Exchange(Exchange::Hash),
                vec![node(Op::PartialAgg, vec![plan])],
            );
            gather(node(Op::FinalAgg, vec![shuffle]))
        }
        Some(_) => node(Op::FinalAgg, vec![gather(node(Op::PartialAgg, vec![plan]))]),
    };
    if !stmt.order_by.is_empty() {
        plan = node(Op::Sort(stmt.order_by.clone()), vec![plan]);
    }
    if stmt.offset.is_some() || stmt.limit.is_some() {
        let (offset, limit) = (stmt.offset.unwrap_or(0), stmt.limit);
        plan = node(Op::Limit { offset, limit }, vec![plan]);
    }
    number(&mut plan, &mut 0);
    Ok(PhysicalPlan {
        root: plan,
        stmt,
        input,
        agg,
    })
}

/// The statement's transform over the pipeline's `input`: its arguments
/// typed against that schema and named after column refs where possible,
/// and its UDx instances per node (an instance with no container idles).
fn transform(db: &VerticaDb, stmt: &SelectStmt, input: &Schema) -> Result<Option<Transform>> {
    let Some(SelectItem::Transform {
        name,
        args,
        params,
        partition,
    }) = stmt.transform_item()
    else {
        return Ok(None);
    };
    let func = db.udx().get(name)?;
    let probe = Batch::empty(input.clone());
    let mut arg_fields = Vec::with_capacity(args.len());
    for (i, e) in args.iter().enumerate() {
        let name = match e {
            Expr::Column(c) => c.clone(),
            other => format!("arg{i}_{other}"),
        };
        arg_fields.push(Field::new(name, e.output_type(&probe)?));
    }
    let arg_schema = Schema::new(arg_fields);
    let out_schema = func.output_schema(&arg_schema, params)?;
    let lanes = db.cluster().profile().costs.vft_export_lanes;
    let table = stmt.from.as_deref().unwrap_or_default();
    let instances = db
        .cluster()
        .node_ids()
        .into_iter()
        .map(|n| match partition {
            Partition::Best => lanes.min(db.storage().containers(table, n).len().max(1)),
            Partition::By(_) => lanes,
        });
    Ok(Some(Transform {
        func,
        args: args.clone(),
        params: params.clone(),
        partition: partition.clone(),
        instances: instances.collect(),
        arg_schema,
        out_schema,
    }))
}

/// A transform's ORDER BY keys over its output columns: a bare integer `k`
/// is the `k`-th (1-based), and any other key reads only them.
fn output_order(keys: &mut [OrderKey], out: &Schema) -> Result<()> {
    for key in keys {
        if let Expr::Literal(Value::Int64(k)) = key.expr {
            let nth = usize::try_from(k).ok().and_then(|k| k.checked_sub(1));
            let field = nth.and_then(|i| out.fields().get(i));
            key.expr = Expr::Column(field.map_or(format!("#{k}"), |f| f.name.clone()));
        }
        let (cols, names) = (key.expr.columns(), out.names());
        if let Some(c) = cols.iter().find(|c| out.index_of(c).is_err()) {
            return refuse(format!("ORDER BY {c}: the transform outputs {names:?}"));
        }
    }
    Ok(())
}

// ------------------------------------------------------------------- JOIN

fn build_join(db: &VerticaDb, stmt: &SelectStmt, j: &JoinClause) -> Result<PhysicalPlan> {
    let left_table = stmt
        .from
        .as_deref()
        .ok_or_else(|| DbError::Plan("JOIN requires a FROM table".into()))?;
    let system = |t: &str| {
        crate::monitor::v_monitor_table(t).is_some() || t.eq_ignore_ascii_case("r_models")
    };
    if system(left_table) || system(&j.table) {
        return refuse("JOIN is not supported on system tables");
    }
    let defs = [db.catalog().get(left_table)?, db.catalog().get(&j.table)?];
    let aliases = [&stmt.from_alias, &j.alias].map(|a| a.as_deref());
    let aliases = [0, 1].map(|s| aliases[s].unwrap_or(&defs[s].name).to_string());
    if aliases[0].eq_ignore_ascii_case(&aliases[1]) {
        let alias = &aliases[0];
        return refuse(format!(
            "both JOIN sides are named '{alias}'; alias one of them"
        ));
    }
    let side_of = |s: Side| s as usize;

    // Output naming: bare when unique across both sides, alias-qualified
    // otherwise. `all` holds every column, left then right in table order:
    // its side, its name there and its output field. `names` maps a bare or
    // qualified name to its entry (`None`: a bare name on both sides, which
    // must be qualified; a qualifier naming both sides means the left one).
    // The ON keys and the statement resolve through it.
    let mut names: HashMap<String, Option<usize>> = HashMap::new();
    let mut all = Vec::new();
    for (side, s) in [(Side::Left, 0), (Side::Right, 1)] {
        let (def, other, alias) = (&defs[s], &defs[1 - s], &aliases[s]);
        for f in def.schema.fields() {
            let unique = other.schema.index_of(&f.name).is_err();
            let out = if unique {
                f.name.clone()
            } else {
                format!("{alias}.{}", f.name)
            };
            for table in [alias, &def.name] {
                let qualified = format!("{table}.{}", f.name).to_ascii_lowercase();
                names.entry(qualified).or_insert(Some(all.len()));
            }
            names.insert(f.name.to_ascii_lowercase(), unique.then_some(all.len()));
            all.push((side, f.name.clone(), Field::new(out, f.dtype)));
        }
    }
    let resolve = |name: &str| match names.get(&name.to_ascii_lowercase()) {
        Some(Some(i)) => Ok(&all[*i]),
        Some(None) => refuse(format!(
            "column '{name}' is ambiguous in this JOIN; qualify it"
        )),
        None => refuse(format!("unknown column '{name}' in JOIN query")),
    };
    let (l, r) = match (resolve(&j.left_key)?, resolve(&j.right_key)?) {
        (l, r) | (r, l) if l.0 == Side::Left && r.0 == Side::Right => (l, r),
        _ => return refuse("ON condition must reference one column from each side"),
    };
    let (ldt, rdt) = (l.2.dtype, r.2.dtype);
    if ldt != rdt {
        let (l, r) = (&l.1, &r.1);
        return refuse(format!(
            "join key type mismatch: {l} is {ldt:?}, {r} is {rdt:?}"
        ));
    }
    let keys = [l.1.clone(), r.1.clone()];

    // The statement in the joined namespace: every column reference
    // becomes its output name, and the join clause goes. An ORDER BY
    // position counts the joined columns only under `*`, where every column
    // is joined.
    let mut inner = stmt.clone();
    inner.join = None;
    let rename = |e: &mut Expr| {
        e.rename_columns(&mut |name| {
            *name = resolve(name)?.2.name.clone();
            Ok(())
        })
    };
    for item in &mut inner.items {
        match item {
            SelectItem::Wildcard => {}
            SelectItem::Expr { expr, .. } => rename(expr)?,
            SelectItem::Aggregate { arg, .. } => arg.iter_mut().try_for_each(rename)?,
            SelectItem::Transform {
                args, partition, ..
            } => {
                args.iter_mut().try_for_each(rename)?;
                if let Partition::By(col) = partition {
                    *col = resolve(col)?.2.name.clone();
                }
            }
        }
    }
    inner.where_clause.iter_mut().try_for_each(rename)?;
    inner.group_by.iter_mut().try_for_each(rename)?;
    // A select alias names an output column, not a joined one; so does
    // every key of a transform's ORDER BY.
    let transform = stmt.transform_item().is_some();
    for k in &mut inner.order_by {
        if !transform && aliased_item(&stmt.items, &k.expr).is_none() {
            rename(&mut k.expr)?;
        }
    }
    let every = Schema::new(all.iter().map(|c| c.2.clone()).collect());
    let inner = resolve_order_by(&inner, &every)?.into_owned();

    // The joined columns the statement reads, left then right in table
    // order — the left key alone when it reads none: the joined batch must
    // still carry the row count.
    let reads = referenced_columns(&inner);
    let read = |f: &Field| {
        reads
            .as_ref()
            .is_none_or(|r| r.contains(&f.name.to_ascii_lowercase()))
    };
    let mut cols: Vec<_> = all.iter().filter(|c| read(&c.2)).collect();
    if cols.is_empty() {
        cols.extend(all.iter().filter(|c| c.0 == Side::Left && c.1 == keys[0]));
    }
    let input = Schema::new(cols.iter().map(|c| c.2.clone()).collect());
    // Per side, what its scan decodes: its joined columns and its key, or
    // every column under `*`.
    let wanted = |side: Side| {
        let names = cols.iter().filter(|c| c.0 == side).map(|c| c.1.as_str());
        let key = keys[side_of(side)].as_str();
        reads.as_ref().map(|_| {
            names
                .chain([key])
                .map(str::to_ascii_lowercase)
                .collect::<HashSet<_>>()
        })
    };
    let wanted = [wanted(Side::Left), wanted(Side::Right)];
    let side_schema = |s: usize| {
        let keep = |n: &&str| {
            wanted[s]
                .as_ref()
                .is_none_or(|w| w.contains(&n.to_ascii_lowercase()))
        };
        let names: Vec<&str> = defs[s].schema.names().into_iter().filter(keep).collect();
        defs[s].schema.project(&names)
    };

    let aligned = |s: usize| {
        matches!(&defs[s].segmentation,
            Segmentation::Hash { column } if column.eq_ignore_ascii_case(&keys[s]))
    };
    // On one node everything is local; any movement would be a self-send
    // through the loopback.
    let n = db.cluster().num_nodes() as u64;
    let rows = |s: usize| -> u64 { db.storage().segment_rows(&defs[s].name).iter().sum() };
    // Which sides move, and how: an unaligned one by key hash, unless the
    // right is small enough to broadcast — broadcast ships it N ways, a
    // shuffle ships both sides once; whichever moves fewer rows wins.
    let (hash, broadcast) = (Some(Exchange::Hash), Some(Exchange::Broadcast));
    let moves = match (n == 1 || aligned(0), n == 1 || aligned(1)) {
        (true, true) => [None, None],
        (true, false) => [None, hash],
        (false, true) => [hash, None],
        _ if rows(1).saturating_mul(n) <= rows(0) + rows(1) => [None, broadcast],
        _ => [hash, hash],
    };
    let sides = [0, 1].map(|s| {
        let side = scan(db, &defs[s], wanted[s].clone());
        match moves[s] {
            Some(to) => node(Op::Exchange(to), vec![side]),
            None => side,
        }
    });
    let join = Join {
        kind: j.kind,
        sides: [side_schema(0)?, side_schema(1)?],
        cols: cols.iter().map(|c| (c.0, c.1.clone())).collect(),
        keys,
    };
    // A joined GROUP BY key is never segmentation-aligned.
    finish(
        db,
        inner,
        input,
        node(Op::HashJoin(join), sides.into()),
        false,
    )
}

// ------------------------------------------------------------ planner rules

fn add_expr_columns(set: &mut HashSet<String>, e: &Expr) {
    set.extend(e.columns().iter().map(|c| c.to_ascii_lowercase()));
}

/// The lowercased set of columns a SELECT references anywhere (projection,
/// a transform's arguments and `PARTITION BY` column, WHERE, ORDER BY, GROUP
/// BY) — the scan decodes only these. A transform's ORDER BY reads its
/// output, not its input. `None` means every column (a wildcard appears).
/// An empty set is legitimate (`SELECT count(*)`): the decoder keeps one
/// cheap column to preserve row counts.
fn referenced_columns(stmt: &SelectStmt) -> Option<HashSet<String>> {
    let mut cols = HashSet::new();
    for item in &stmt.items {
        match item {
            SelectItem::Wildcard => return None,
            SelectItem::Expr { expr, .. } => add_expr_columns(&mut cols, expr),
            SelectItem::Aggregate { arg, .. } => {
                arg.iter().for_each(|a| add_expr_columns(&mut cols, a))
            }
            SelectItem::Transform {
                args, partition, ..
            } => {
                args.iter().for_each(|a| add_expr_columns(&mut cols, a));
                if let Partition::By(col) = partition {
                    cols.insert(col.to_ascii_lowercase());
                }
            }
        }
    }
    let transform = stmt.transform_item().is_some();
    let keys = stmt.order_by.iter().filter(|_| !transform).map(|k| &k.expr);
    for e in stmt.where_clause.iter().chain(keys).chain(&stmt.group_by) {
        add_expr_columns(&mut cols, e);
    }
    Some(cols)
}

/// The select list with `*` expanded against `input`, every item with its
/// output name: its alias, else a column's own name, an aggregate's function
/// name, or `col{i}_{expr}`.
pub(crate) fn named_items(items: &[SelectItem], input: &Schema) -> Vec<(String, SelectItem)> {
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let i = out.len();
        let name = match item {
            SelectItem::Wildcard => {
                for f in input.fields() {
                    let expr = Expr::Column(f.name.clone());
                    out.push((f.name.clone(), SelectItem::Expr { expr, alias: None }));
                }
                continue;
            }
            SelectItem::Expr { expr, alias } => alias.clone().unwrap_or_else(|| match expr {
                Expr::Column(c) => c.clone(),
                other => format!("col{i}_{other}"),
            }),
            SelectItem::Aggregate { func, alias, .. } => {
                alias.clone().unwrap_or_else(|| func.name().to_string())
            }
            SelectItem::Transform { name, .. } => name.clone(),
        };
        out.push((name, item.clone()));
    }
    out
}

/// The select item a bare ORDER BY column names by its alias.
fn aliased_item<'a>(items: impl IntoIterator<Item = &'a SelectItem>, key: &Expr) -> Option<usize> {
    let Expr::Column(name) = key else {
        return None;
    };
    items.into_iter().position(|item| match item {
        SelectItem::Expr { alias, .. } | SelectItem::Aggregate { alias, .. } => {
            alias.as_ref().is_some_and(|a| a.eq_ignore_ascii_case(name))
        }
        _ => false,
    })
}

/// Resolve the ORDER BY keys that point into the select list: a bare
/// integer `k` is the `k`-th item (1-based, after `*` expands against
/// `input`), and a bare column naming a select alias is that item — the
/// output name wins over an input column of the same name. After GROUP BY
/// such a key becomes the item's output column; otherwise it becomes the
/// item's expression, which the hidden sort column then holds.
fn resolve_order_by<'a>(stmt: &'a SelectStmt, input: &Schema) -> Result<Cow<'a, SelectStmt>> {
    let mut out = Cow::Borrowed(stmt);
    if stmt.order_by.is_empty() || stmt.transform_item().is_some() {
        return Ok(out);
    }
    let items = named_items(&stmt.items, input);
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
            e => match aliased_item(items.iter().map(|(_, item)| item), e) {
                Some(i) => i,
                None => continue,
            },
        };
        let expr = match &items[i] {
            (name, _) if aggregated => Expr::Column(name.clone()),
            (_, SelectItem::Expr { expr, .. }) => expr.clone(),
            _ => continue,
        };
        out.to_mut().order_by[n].expr = expr;
    }
    Ok(out)
}

// ------------------------------------------------------------------ EXPLAIN

/// One operator as `EXPLAIN` prints it: its depth, name and what it decided.
pub(crate) struct Line<'a> {
    pub(crate) depth: usize,
    pub(crate) name: &'static str,
    pub(crate) detail: String,
    pub(crate) node: &'a PlanNode,
}

impl PhysicalPlan {
    /// Every operator in pre-order, so the `i`-th is path id `i`.
    pub(crate) fn lines(&self) -> Vec<Line<'_>> {
        let mut lines = Vec::new();
        let group_by: Vec<String> = self.stmt.group_by.iter().map(Expr::to_string).collect();
        explain_rows(&self.root, 0, &group_by, &mut lines);
        lines
    }

    /// The tree, one row per operator in pre-order: its depth, its name, what
    /// it decided (scan columns, exchange kind, JOIN strategy, UDx instances),
    /// for a scan the rows and stored bytes its container metadata records,
    /// and its path id.
    pub(crate) fn explain(&self) -> Result<Batch> {
        let size = |n: u64| Value::Int64(n as i64);
        let mut rows = Vec::new();
        for l in self.lines() {
            let (n, bytes) = match &l.node.op {
                Op::Scan(s) => (size(s.rows), size(s.bytes)),
                Op::Local(b) => (
                    size(b.iter().map(|b| b.num_rows() as u64).sum()),
                    size(b.iter().map(EncodedBatch::byte_size).sum()),
                ),
                _ => (Value::Null, Value::Null),
            };
            let (depth, path) = (size(l.depth as u64), size(l.node.path as u64));
            rows.push(vec![depth, l.name.into(), l.detail.into(), n, bytes, path]);
        }
        let schema = Schema::of(&[
            ("depth", DataType::Int64),
            ("operator", DataType::Varchar),
            ("detail", DataType::Varchar),
            ("rows", DataType::Int64),
            ("bytes", DataType::Int64),
            ("path_id", DataType::Int64),
        ]);
        Ok(Batch::from_rows(schema, &rows)?)
    }
}

/// How a JOIN's sides meet, named after which of them an Exchange moves.
fn join_strategy(sides: &[PlanNode]) -> &'static str {
    let moved = |s: usize| match sides.get(s).map(|n| &n.op) {
        Some(Op::Exchange(to)) => Some(*to),
        _ => None,
    };
    match (moved(0), moved(1)) {
        (None, None) => "colocated",
        (None, Some(Exchange::Broadcast)) => "broadcast_right",
        (None, Some(_)) => "shuffle_right",
        (Some(_), None) => "shuffle_left",
        _ => "shuffle_both",
    }
}

/// `plan`'s line, then its inputs'; `keys` is what a hash Exchange at
/// `plan` routes by.
fn explain_rows<'a>(plan: &'a PlanNode, depth: usize, keys: &[String], out: &mut Vec<Line<'a>>) {
    let list = |items: &[String]| items.join(", ");
    let (name, detail) = match &plan.op {
        Op::Local(b) => (
            "Local",
            format!("nodes {:?}", (0..b.len()).collect::<Vec<_>>()),
        ),
        Op::Scan(s) => {
            let mut cols: Vec<String> = s.columns.iter().flatten().cloned().collect();
            cols.sort_unstable();
            let cols = s.columns.as_ref().map_or("*".into(), |_| list(&cols));
            ("Scan", format!("{} ({cols})", s.table))
        }
        Op::Filter(e) => ("Filter", e.to_string()),
        Op::Project => ("Project", String::new()),
        Op::PartialAgg => ("PartialAgg", String::new()),
        Op::FinalAgg => ("FinalAgg", String::new()),
        Op::Exchange(Exchange::Gather) => ("Exchange", "gather".into()),
        Op::Exchange(Exchange::Hash) => ("Exchange", format!("hash({})", list(keys))),
        Op::Exchange(Exchange::Broadcast) => ("Exchange", "broadcast".into()),
        Op::HashJoin(j) => {
            let kind = format!("{:?}", j.kind).to_ascii_lowercase();
            let ([l, r], strategy) = (&j.keys, join_strategy(&plan.inputs));
            ("HashJoin", format!("{kind} {strategy} on {l} = {r}"))
        }
        Op::Transform(t) => {
            let partition = match &t.partition {
                Partition::Best => "best".to_string(),
                Partition::By(c) => format!("by {c}"),
            };
            let (f, n) = (t.func.name(), &t.instances);
            (
                "Transform",
                format!("{f} partition {partition} instances {n:?}"),
            )
        }
        Op::Sort(keys) => {
            let key = |k: &OrderKey| format!("{}{}", k.expr, if k.desc { " DESC" } else { "" });
            ("Sort", list(&keys.iter().map(key).collect::<Vec<_>>()))
        }
        Op::Limit { offset, limit } => {
            let limit = limit.map_or("all".into(), |l| l.to_string());
            ("Limit", format!("offset {offset} limit {limit}"))
        }
    };
    out.push(Line {
        depth,
        name,
        detail,
        node: plan,
    });
    for (s, input) in plan.inputs.iter().enumerate() {
        let keys = match &plan.op {
            Op::HashJoin(j) => &j.keys[s..=s],
            _ => keys,
        };
        explain_rows(input, depth + 1, keys, out);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::sql::Statement;
    use crate::udx::UdxContext;
    use vdr_cluster::SimCluster;

    /// A transform that passes its first argument through.
    struct Echo;

    impl TransformFunction for Echo {
        fn name(&self) -> &str {
            "Echo"
        }

        fn output_schema(&self, input: &Schema, _: &BTreeMap<String, String>) -> Result<Schema> {
            Ok(Schema::new(input.fields()[..1].to_vec()))
        }

        fn process_partition(
            &self,
            _: &UdxContext<'_>,
            input: Vec<Batch>,
            emit: &mut dyn FnMut(Batch),
        ) -> Result<()> {
            for b in input {
                emit(b.project(&[b.schema().fields()[0].name.as_str()])?);
            }
            Ok(())
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    /// `fact_rr` (round-robin) and `fact_seg` (`HASH(k)`) of `(k, grp, tag,
    /// v)` on four nodes, two containers per node each, and a small
    /// round-robin `small`.
    fn db() -> Arc<VerticaDb> {
        let db = VerticaDb::new(SimCluster::for_tests(4));
        db.register_transform(Arc::new(Echo));
        let schema = Schema::of(&[
            ("k", DataType::Int64),
            ("grp", DataType::Int64),
            ("tag", DataType::Varchar),
            ("v", DataType::Float64),
        ]);
        let hash_k = Segmentation::Hash { column: "k".into() };
        for (name, seg, rows) in [
            ("fact_rr", Segmentation::RoundRobin, 256),
            ("fact_seg", hash_k, 128),
            ("small", Segmentation::RoundRobin, 8),
        ] {
            db.create_table(TableDef {
                name: name.into(),
                schema: schema.clone(),
                segmentation: seg,
            })
            .unwrap();
            let row = |i: i64| {
                let tag = ["ant", "bee", "cat"][i as usize % 3];
                vec![i.into(), (i / 64).into(), tag.into(), (i as f64).into()]
            };
            for half in [0..rows / 2, rows / 2..rows] {
                let rows: Vec<Vec<Value>> = half.map(row).collect();
                db.copy(name, [Batch::from_rows(schema.clone(), &rows).unwrap()])
                    .unwrap();
            }
        }
        db
    }

    /// The plan of `sql`, one line per operator, indented by depth.
    fn tree(db: &VerticaDb, sql: &str) -> Vec<String> {
        let Statement::Select(select) = crate::sql::parse(sql).unwrap() else {
            panic!("{sql} is not a SELECT");
        };
        let plan = build(db, &select).unwrap().explain().unwrap();
        let rows = (0..plan.num_rows()).map(|i| plan.row(i));
        let line = |row: Vec<Value>| {
            let (Value::Int64(depth), Value::Varchar(op), Value::Varchar(detail)) =
                (&row[0], &row[1], &row[2])
            else {
                panic!("an EXPLAIN row: {row:?}");
            };
            format!("{}{op} {detail}", "  ".repeat(*depth as usize))
                .trim_end()
                .to_string()
        };
        rows.map(line).collect()
    }

    /// One plan per shape the loop's statements take: the scan columns, the
    /// merge location, the JOIN strategy and the UDx instances each names.
    #[test]
    fn every_statement_shape_plans_as_designed() {
        let db = db();
        let cases: [(&str, &[&str]); 19] = [
            (
                "SELECT count(*), sum(v) FROM fact_rr WHERE grp = 3",
                &[
                    "FinalAgg",
                    "  Exchange gather",
                    "    PartialAgg",
                    "      Filter (grp = 3)",
                    "        Scan fact_rr (grp, v)",
                ],
            ),
            (
                "SELECT count(*), sum(v) FROM fact_rr WHERE v < 25.0",
                &[
                    "FinalAgg",
                    "  Exchange gather",
                    "    PartialAgg",
                    "      Filter (v < 25)",
                    "        Scan fact_rr (v)",
                ],
            ),
            (
                "SELECT v, k FROM fact_rr ORDER BY v DESC, k LIMIT 10",
                &[
                    "Limit offset 0 limit 10",
                    "  Sort v DESC, k",
                    "    Exchange gather",
                    "      Project",
                    "        Scan fact_rr (k, v)",
                ],
            ),
            (
                "SELECT tag, count(*), sum(v) FROM fact_rr GROUP BY tag",
                &[
                    "Exchange gather",
                    "  FinalAgg",
                    "    Exchange hash(tag)",
                    "      PartialAgg",
                    "        Scan fact_rr (tag, v)",
                ],
            ),
            (
                "SELECT k, count(*), sum(v) FROM fact_seg GROUP BY k",
                &[
                    "FinalAgg",
                    "  Exchange gather",
                    "    PartialAgg",
                    "      Scan fact_seg (k, v)",
                ],
            ),
            (
                "SELECT k, count(DISTINCT tag), sum(v) FROM fact_rr GROUP BY k",
                &[
                    "Exchange gather",
                    "  FinalAgg",
                    "    Exchange hash(k)",
                    "      PartialAgg",
                    "        Scan fact_rr (k, tag, v)",
                ],
            ),
            (
                "SELECT count(*), sum(a.v) FROM fact_rr a JOIN fact_rr b ON a.k = b.k",
                &[
                    "FinalAgg",
                    "  Exchange gather",
                    "    PartialAgg",
                    "      HashJoin inner shuffle_both on k = k",
                    "        Exchange hash(k)",
                    "          Scan fact_rr (k, v)",
                    "        Exchange hash(k)",
                    "          Scan fact_rr (k)",
                ],
            ),
            (
                "SELECT count(*) FROM fact_rr a JOIN fact_seg b ON a.k = b.k",
                &[
                    "FinalAgg",
                    "  Exchange gather",
                    "    PartialAgg",
                    "      HashJoin inner shuffle_left on k = k",
                    "        Exchange hash(k)",
                    "          Scan fact_rr (k)",
                    "        Scan fact_seg (k)",
                ],
            ),
            (
                "SELECT a.tag, count(*) FROM fact_seg a JOIN fact_seg b ON a.k = b.k \
                 GROUP BY a.tag",
                &[
                    "Exchange gather",
                    "  FinalAgg",
                    "    Exchange hash(a.tag)",
                    "      PartialAgg",
                    "        HashJoin inner colocated on k = k",
                    "          Scan fact_seg (k, tag)",
                    "          Scan fact_seg (k)",
                ],
            ),
            (
                "SELECT f.v, s.grp FROM fact_rr f JOIN small s ON f.k = s.k WHERE f.v > 1.0",
                &[
                    "Exchange gather",
                    "  Project",
                    "    Filter (f.v > 1)",
                    "      HashJoin inner broadcast_right on k = k",
                    "        Scan fact_rr (k, v)",
                    "        Exchange broadcast",
                    "          Scan small (grp, k)",
                ],
            ),
            (
                "SELECT count(*) FROM fact_seg f LEFT JOIN small s ON f.k = s.k",
                &[
                    "FinalAgg",
                    "  Exchange gather",
                    "    PartialAgg",
                    "      HashJoin left shuffle_right on k = k",
                    "        Scan fact_seg (k)",
                    "        Exchange hash(k)",
                    "          Scan small (k)",
                ],
            ),
            (
                "SELECT k, v FROM fact_seg WHERE k < 8",
                &[
                    "Exchange gather",
                    "  Project",
                    "    Filter (k < 8)",
                    "      Scan fact_seg (k, v)",
                ],
            ),
            (
                "SELECT Echo(v USING PARAMETERS p='1') OVER (PARTITION BEST) FROM fact_rr",
                &[
                    "Transform Echo partition best instances [2, 2, 2, 2]",
                    "  Scan fact_rr (v)",
                ],
            ),
            (
                "SELECT Echo(v) OVER (PARTITION BY k) FROM fact_rr WHERE grp > 1 LIMIT 5",
                &[
                    "Limit offset 0 limit 5",
                    "  Transform Echo partition by k instances [12, 12, 12, 12]",
                    "    Filter (grp > 1)",
                    "      Scan fact_rr (grp, k, v)",
                ],
            ),
            (
                "SELECT Echo(k) OVER (PARTITION BEST) FROM fact_rr ORDER BY k DESC LIMIT 3",
                &[
                    "Limit offset 0 limit 3",
                    "  Sort k DESC",
                    "    Transform Echo partition best instances [2, 2, 2, 2]",
                    "      Scan fact_rr (k)",
                ],
            ),
            (
                "SELECT Echo(s.grp) OVER (PARTITION BY f.tag) FROM fact_rr f \
                 JOIN small s ON f.k = s.k WHERE f.v > 1.0",
                &[
                    "Transform Echo partition by f.tag instances [12, 12, 12, 12]",
                    "  Filter (f.v > 1)",
                    "    HashJoin inner broadcast_right on k = k",
                    "      Scan fact_rr (k, tag, v)",
                    "      Exchange broadcast",
                    "        Scan small (grp, k)",
                ],
            ),
            (
                "SELECT 1 + 2 AS three",
                &["Exchange gather", "  Project", "    Local nodes [0]"],
            ),
            (
                "SELECT model FROM R_Models ORDER BY 1",
                &[
                    "Sort model",
                    "  Exchange gather",
                    "    Project",
                    "      Local nodes [0]",
                ],
            ),
            (
                "SELECT node, phase FROM v_monitor.execution_engine_profiles WHERE node = 2",
                &[
                    "Exchange gather",
                    "  Project",
                    "    Filter (node = 2)",
                    "      Local nodes [0, 1, 2, 3]",
                ],
            ),
        ];
        for (sql, want) in cases {
            assert_eq!(tree(&db, sql), want, "{sql}");
        }
    }

    /// A transform is the pipeline's sink: ORDER BY and LIMIT apply to its
    /// output, an ORDER BY key names an output column, and GROUP BY or an
    /// aggregate next to it is a plan error.
    #[test]
    fn a_transform_sorts_and_cuts_its_output() {
        let db = db();
        let sql = "SELECT Echo(k) OVER (PARTITION BEST) FROM fact_rr";
        let top = db.query(&format!("{sql} ORDER BY k DESC LIMIT 3")).unwrap();
        let ids: Vec<Value> = (0..top.batch.num_rows())
            .map(|r| top.batch.row(r)[0].clone())
            .collect();
        assert_eq!(ids, [255, 254, 253].map(Value::Int64));
        let first = db
            .query(&format!("{sql} ORDER BY 1 LIMIT 2 OFFSET 1"))
            .unwrap();
        assert_eq!(first.batch.row(0)[0], Value::Int64(1));
        assert_eq!(first.batch.num_rows(), 2);
        for (bad, why) in [
            (format!("{sql} GROUP BY k"), "GROUP BY"),
            (
                "SELECT Echo(k) OVER (PARTITION BEST), count(*) FROM fact_rr".into(),
                "only select item",
            ),
            (format!("{sql} ORDER BY v"), "ORDER BY v"),
            (format!("{sql} ORDER BY 2"), "ORDER BY #2"),
        ] {
            match db.query(&bad) {
                Err(DbError::Plan(e)) => assert!(e.contains(why), "{bad}: {e}"),
                other => panic!("{bad}: {:?}", other.map(|o| o.batch)),
            }
        }
    }

    /// A one-node cluster moves nothing: its JOIN is co-located and its
    /// GROUP BY merges where it ran.
    #[test]
    fn one_node_plans_move_nothing() {
        let db = VerticaDb::new(SimCluster::for_tests(1));
        for sql in [
            "CREATE TABLE a (k INTEGER, v FLOAT)",
            "CREATE TABLE b (k INTEGER, w FLOAT)",
        ] {
            db.query(sql).unwrap();
        }
        let got = tree(
            &db,
            "SELECT a.k, count(*) FROM a JOIN b ON a.k = b.k GROUP BY a.k",
        );
        let want = [
            "FinalAgg",
            "  Exchange gather",
            "    PartialAgg",
            "      HashJoin inner colocated on k = k",
            "        Scan a (k)",
            "        Scan b (k)",
        ];
        assert_eq!(got, want);
    }

    /// The ON keys resolve through the same names as the statement: bare
    /// when unique, qualified by alias or table name in any case — the left
    /// side when a qualifier names both — and every miss is a plan error.
    #[test]
    fn join_keys_and_columns_resolve_through_one_namespace() {
        let db = db();
        let plan = |sql: &str| {
            let Statement::Select(select) = crate::sql::parse(sql).unwrap() else {
                panic!("{sql} is not a SELECT");
            };
            build(&db, &select)
        };
        let join = |sql: &str| {
            let mut node = plan(sql).unwrap().root;
            loop {
                match node.op {
                    Op::HashJoin(j) => return (j.keys, j.cols),
                    _ => node = node.inputs.into_iter().next().unwrap(),
                }
            }
        };
        let (keys, cols) = join("SELECT fact_rr.v FROM fact_rr JOIN fact_rr b ON b.k = fact_rr.k");
        assert_eq!(keys, ["k", "k"]);
        assert_eq!(cols, [(Side::Left, "v".to_string())]);
        let (keys, cols) = join("SELECT s.TAG, F.v FROM small s JOIN fact_seg f ON s.grp = f.K");
        assert_eq!(keys, ["grp", "k"]);
        let want = [(Side::Left, "tag"), (Side::Right, "v")];
        assert_eq!(cols, want.map(|(s, c)| (s, c.to_string())));
        for (sql, why) in [
            (
                "SELECT v FROM fact_rr f JOIN small s ON f.k = s.k",
                "ambiguous",
            ),
            (
                "SELECT f.v FROM fact_rr f JOIN small s ON k = s.k",
                "ambiguous",
            ),
            (
                "SELECT f.v FROM fact_rr f JOIN small s ON f.k = s.nope",
                "unknown column 's.nope'",
            ),
            (
                "SELECT f.v FROM fact_rr f JOIN small s ON f.k = x.k",
                "unknown column 'x.k'",
            ),
            (
                "SELECT f.v FROM fact_rr f JOIN small s ON f.k = f.grp",
                "one column from each side",
            ),
            (
                "SELECT f.v FROM fact_rr f JOIN small s ON f.k = s.tag",
                "type mismatch",
            ),
        ] {
            let err = plan(sql).err().unwrap().to_string();
            assert!(err.contains(why), "{sql}: {err}");
        }
    }

    /// `EXPLAIN` returns the same tree, with the scans' container rows and
    /// bytes, and runs nothing.
    #[test]
    fn explain_prints_the_plan_and_scan_sizes() {
        let db = db();
        let sql = "SELECT tag, count(*) FROM fact_rr GROUP BY tag";
        let out = db.query(&format!("EXPLAIN {sql}")).unwrap();
        assert_eq!(
            out.batch.schema().names(),
            ["depth", "operator", "detail", "rows", "bytes", "path_id"]
        );
        let rows: Vec<Vec<Value>> = (0..out.batch.num_rows())
            .map(|r| out.batch.row(r))
            .collect();
        assert_eq!(rows.len(), tree(&db, sql).len());
        let scan = rows.last().unwrap();
        assert_eq!(scan[..3], [4.into(), "Scan".into(), "fact_rr (tag)".into()]);
        let bytes: u64 = db.storage().segment_bytes("fact_rr").iter().sum();
        assert_eq!(scan[3..5], [256.into(), (bytes as i64).into()]);
        assert!(rows[..4].iter().all(|r| r[3].is_null() && r[4].is_null()));
        let paths: Vec<Value> = rows.iter().map(|r| r[5].clone()).collect();
        assert_eq!(
            paths,
            (0..5).map(Value::Int64).collect::<Vec<_>>(),
            "pre-order"
        );
        assert_eq!(out.sim_time.as_secs(), 0.0, "EXPLAIN reads no container");
    }
}
