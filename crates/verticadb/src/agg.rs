//! Columnar hash aggregation: one typed group table from scan to finalize.
//!
//! [`AggPlan`] derives, once per statement, the state columns each aggregate
//! needs and the output schema. [`Aggregator`] is one node's group table —
//! typed key columns, a hash → group-id index and one state column per plan
//! entry — fed container after container. [`Partial`] is that state as
//! ordinary [`Batch`]es: what crosses the exchange through the block codec
//! and what the gather hands to the initiator. Merging a partial is the same
//! table taking state rows instead of input rows; finalizing is a projection
//! of the state columns. The state columns per function, and why DISTINCT
//! ships as normalized pairs, are in the executor's module header.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::error::{DbError, Result};
use crate::expr::Expr;
use crate::segmentation::row_hashes;
use crate::sort::{self, TotalOrder};
use crate::sql::{AggFunc, SelectItem, SelectStmt};
use bytes::Bytes;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashSet;
use vdr_columnar::{decode_batch, encode_batch, Batch, Bitmap, Column, DataType, Field, Schema};

/// Evaluate `$body` with `$d` / `$v` bound to the data and validity of
/// `$col`, whatever its type.
macro_rules! typed {
    ($col:expr, |$d:ident, $v:ident| $body:expr) => {
        typed!(@ Int64 Float64 Bool Varchar; $col, $d, $v, $body)
    };
    (@ $($t:ident)*; $col:expr, $d:ident, $v:ident, $body:expr) => {
        match $col {
            $(Column::$t { data: $d, validity: $v } => $body,)*
        }
    };
}
pub(crate) use typed;

/// [`typed!`] over two columns of one type; `$else` when the types differ.
macro_rules! typed_pair {
    ($a:expr, $b:expr, |$da:ident, $va:ident, $db:ident, $vb:ident| $body:expr, $else:expr) => {
        typed_pair!(@ Int64 Float64 Bool Varchar; $a, $b, $da, $va, $db, $vb, $body, $else)
    };
    (@ $($t:ident)*; $a:expr, $b:expr, $da:ident, $va:ident, $db:ident, $vb:ident, $body:expr, $else:expr) => {
        match ($a, $b) {
            $((Column::$t { data: $da, validity: $va }, Column::$t { data: $db, validity: $vb }) => $body,)*
            _ => $else,
        }
    };
}
pub(crate) use typed_pair;

/// What the kernels need of a column's element type; `MIN`/`MAX` compare in
/// the ORDER BY total order ([`TotalOrder`]).
pub(crate) trait Elem: TotalOrder + Clone + Default {
    /// Key, DISTINCT and JOIN key equality: floats by bit pattern, so NaN is
    /// one group.
    fn same(&self, other: &Self) -> bool;
    /// `SUM`'s view: integers widen, booleans are 0/1, strings add nothing.
    fn as_f64(&self) -> f64;
}

macro_rules! elem {
    ($t:ty, $same:expr, $as_f64:expr) => {
        impl Elem for $t {
            fn same(&self, other: &Self) -> bool {
                $same(self, other)
            }
            fn as_f64(&self) -> f64 {
                $as_f64(self)
            }
        }
    };
}
elem!(i64, |a, b| a == b, |x: &i64| *x as f64);
elem!(
    f64,
    |a: &f64, b: &f64| a.to_bits() == b.to_bits(),
    |x: &f64| *x
);
elem!(bool, |a, b| a == b, |x: &bool| *x as u8 as f64);
elem!(String, |a, b| a == b, |_| 0.0);

fn state_error() -> DbError {
    DbError::Exec("aggregate state does not match the plan".into())
}

// ------------------------------------------------------------------- plan

/// What one aggregate keeps per group.
#[derive(Debug, Clone, Copy)]
enum StateKind {
    /// `COUNT(*)`: `rows`.
    Rows,
    /// `COUNT(e)`: `non_null`.
    NonNull,
    /// `SUM` / `AVG`: `sum`, then `non_null`.
    Sum { avg: bool },
    /// `MIN` / `MAX`: the best value so far; `want` is how a better value
    /// compares with it.
    Extreme { want: Ordering },
    /// `COUNT(DISTINCT e)`: no state column; the `set`-th DISTINCT set.
    Distinct { set: usize },
}

#[derive(Debug)]
struct AggSpec {
    kind: StateKind,
    arg: Option<Expr>,
    /// Index of this aggregate's first state column.
    col: usize,
}

#[derive(Debug)]
enum OutCol {
    Key(usize),
    Agg(usize),
}

/// The aggregation of one statement: group keys, per-aggregate state columns
/// and the output schema — all derived from the statement and the input
/// schema, never from the data.
#[derive(Debug)]
pub(crate) struct AggPlan {
    keys: Vec<Expr>,
    aggs: Vec<AggSpec>,
    out: Vec<OutCol>,
    out_schema: Schema,
    /// Schemas of a partial's batches: `key columns ++ state columns`, then
    /// per `COUNT(DISTINCT)` its `(group, value_id)` pairs and its `value`s.
    schemas: Vec<Schema>,
    /// Whether each state column starts NULL (`MIN`/`MAX`) or zero.
    state_starts_null: Vec<bool>,
    arg_columns: HashSet<String>,
}

impl AggPlan {
    /// Plan `stmt`'s aggregation over rows of schema `input`, validating the
    /// select list: every non-aggregate item must be a GROUP BY expression.
    pub(crate) fn new(stmt: &SelectStmt, input: &Schema) -> Result<AggPlan> {
        use DataType::{Float64, Int64};
        let probe = Batch::empty(input.clone());
        let mut state = Vec::new();
        for (i, e) in stmt.group_by.iter().enumerate() {
            state.push(Field::new(format!("k{i}"), e.output_type(&probe)?));
        }
        let nk = state.len();
        let (mut aggs, mut out, mut out_fields) = (Vec::new(), Vec::new(), Vec::new());
        let (mut state_starts_null, mut distinct) = (Vec::new(), Vec::new());
        for (i, item) in stmt.items.iter().enumerate() {
            let (col, dtype) = match item {
                SelectItem::Aggregate {
                    func,
                    arg,
                    distinct: is_distinct,
                    ..
                } => {
                    let arg_type = arg.as_ref().map(|a| a.output_type(&probe)).transpose()?;
                    let (kind, states, out_type) = match (func, arg_type) {
                        (AggFunc::Count, None) => (StateKind::Rows, vec![("rows", Int64)], Int64),
                        (AggFunc::Count, Some(value)) if *is_distinct => {
                            let set = distinct.len() / 2;
                            distinct.push(Schema::of(&[("group", Int64), ("value_id", Int64)]));
                            distinct.push(Schema::of(&[("value", value)]));
                            (StateKind::Distinct { set }, vec![], Int64)
                        }
                        (AggFunc::Count, Some(_)) => {
                            (StateKind::NonNull, vec![("non_null", Int64)], Int64)
                        }
                        (AggFunc::Sum | AggFunc::Avg, Some(_)) => {
                            let avg = *func == AggFunc::Avg;
                            let states = vec![("sum", Float64), ("non_null", Int64)];
                            (StateKind::Sum { avg }, states, Float64)
                        }
                        (AggFunc::Min, Some(value)) => {
                            let want = Ordering::Less;
                            (StateKind::Extreme { want }, vec![("best", value)], value)
                        }
                        (AggFunc::Max, Some(value)) => {
                            let want = Ordering::Greater;
                            (StateKind::Extreme { want }, vec![("best", value)], value)
                        }
                        (_, None) => {
                            let name = func.name();
                            return Err(DbError::Plan(format!("{name} needs an argument")));
                        }
                    };
                    let col = state.len() - nk;
                    for (name, dtype) in states {
                        state.push(Field::new(format!("a{i}.{name}"), dtype));
                        state_starts_null.push(matches!(kind, StateKind::Extreme { .. }));
                    }
                    aggs.push(AggSpec {
                        kind,
                        arg: arg.clone(),
                        col,
                    });
                    (OutCol::Agg(aggs.len() - 1), out_type)
                }
                SelectItem::Expr { expr, .. } => {
                    let Some(gi) = stmt.group_by.iter().position(|g| g == expr) else {
                        return Err(DbError::Plan(format!(
                            "'{expr}' must appear in GROUP BY or inside an aggregate"
                        )));
                    };
                    (OutCol::Key(gi), state[gi].dtype)
                }
                SelectItem::Wildcard => {
                    return Err(DbError::Plan("'*' cannot mix with aggregates".into()))
                }
                SelectItem::Transform { name, .. } => {
                    return Err(DbError::Plan(format!(
                        "transform {name} cannot mix with aggregates"
                    )))
                }
            };
            out.push(col);
            out_fields.push(Field::new(crate::exec::item_name(i, item), dtype));
        }
        let mut schemas = vec![Schema::new(state)];
        schemas.extend(distinct);
        let args = aggs.iter().filter_map(|a: &AggSpec| a.arg.as_ref());
        let arg_columns = args.flat_map(|e| e.columns());
        Ok(AggPlan {
            arg_columns: arg_columns.map(|c| c.to_ascii_lowercase()).collect(),
            keys: stmt.group_by.clone(),
            aggs,
            out,
            out_schema: Schema::new(out_fields),
            schemas,
            state_starts_null,
        })
    }

    /// Whether the statement has a GROUP BY (a keyless plan is one group).
    pub(crate) fn has_keys(&self) -> bool {
        !self.keys.is_empty()
    }

    /// Schema of the finalized output.
    pub(crate) fn out_schema(&self) -> &Schema {
        &self.out_schema
    }

    /// The key column's name when the dictionary path applies: one plain
    /// column as the key, and every aggregate argument reads at least one
    /// column (so the argument batch carries the surviving row count).
    pub(crate) fn dict_key(&self) -> Option<&str> {
        let [Expr::Column(name)] = self.keys.as_slice() else {
            return None;
        };
        let reads_rows = |e: &Expr| !e.columns().is_empty();
        let fits = self
            .aggs
            .iter()
            .all(|a| a.arg.as_ref().is_none_or(reads_rows));
        fits.then_some(name)
    }

    /// Columns the aggregate arguments read (lowercased).
    pub(crate) fn arg_columns(&self) -> &HashSet<String> {
        &self.arg_columns
    }

    /// A partial must carry exactly the planned schemas — the check between
    /// bytes off the wire and the typed merge kernels. Returns its group
    /// count: its state rows, or the one group of a keyless plan (whose
    /// state batch may have no columns at all).
    fn check(&self, p: &Partial) -> Result<usize> {
        let planned = p.batches.len() == self.schemas.len()
            && p.batches
                .iter()
                .zip(&self.schemas)
                .all(|(b, s)| b.schema() == s);
        let rows = p.batches.first().map_or(0, Batch::num_rows);
        let one_group = self.has_keys() || rows == 1 || self.state_starts_null.is_empty();
        if !planned || !one_group {
            let want = &self.schemas[0];
            return Err(DbError::Exec(format!(
                "aggregate partial does not match the planned state [{want}]"
            )));
        }
        Ok(if self.has_keys() { rows } else { 1 })
    }

    /// Split a partial into `n` by `hash(key columns) % n` — the hash the
    /// group table probes with, so equal keys meet on one node. Pairs follow
    /// their group, renumbered to the rows of the partition they land in.
    pub(crate) fn split(&self, p: &Partial, n: usize) -> Result<Vec<Partial>> {
        let groups = self.check(p)?;
        let keys: Vec<&Column> = p.batches[0].columns()[..self.keys.len()].iter().collect();
        // Per group: its destination and its row there.
        let mut place = Vec::with_capacity(groups);
        let mut rows_of: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (g, h) in row_hashes(&keys, groups).into_iter().enumerate() {
            let dst = (h % n as u64) as usize;
            place.push((dst, rows_of[dst].len() as i64));
            rows_of[dst].push(g);
        }
        let mut parts: Vec<Partial> = rows_of
            .iter()
            .map(|rows| Partial {
                batches: vec![p.batches[0].take(rows)],
            })
            .collect();
        for set in p.batches[1..].chunks_exact(2) {
            let (pairs, values) = (&set[0], &set[1]);
            let (gids, vids) = pair_ids(pairs, groups, values.num_rows())?;
            // A partition carries only the values its pairs name, renumbered
            // in first-use order.
            let mut new_vid = vec![vec![EMPTY; values.num_rows()]; n];
            let mut used: Vec<Vec<usize>> = vec![Vec::new(); n];
            let mut out: Vec<[Vec<i64>; 2]> = vec![Default::default(); n];
            for (&g, &v) in gids.iter().zip(vids) {
                let (dst, row) = place[g as usize];
                let id = &mut new_vid[dst][v as usize];
                if *id == EMPTY {
                    *id = used[dst].len() as u32;
                    used[dst].push(v as usize);
                }
                out[dst][0].push(row);
                out[dst][1].push(*id as i64);
            }
            for ((part, [g, v]), used) in parts.iter_mut().zip(out).zip(&used) {
                let cols = vec![Column::from_i64(g), Column::from_i64(v)];
                part.batches.push(Batch::new(pairs.schema().clone(), cols)?);
                part.batches.push(values.take(used));
            }
        }
        Ok(parts)
    }

    /// Decode what [`Partial::encode`] wrote, every block crc-checked by the
    /// block decoder and the whole held to the planned schemas.
    pub(crate) fn decode(&self, frames: &[Bytes]) -> Result<Partial> {
        let batches = frames.iter().map(|f| decode_batch(f));
        let p = Partial {
            batches: batches.collect::<vdr_columnar::Result<_>>()?,
        };
        self.check(&p)?;
        Ok(p)
    }
}

/// Aggregate state as ordinary batches: `key columns ++ state columns`, one
/// row per group; then per `COUNT(DISTINCT)` the deduplicated
/// `(group, value_id)` pairs — row numbers of the state batch and of the
/// `value` batch that follows.
#[derive(Debug, Clone)]
pub(crate) struct Partial {
    batches: Vec<Batch>,
}

impl Partial {
    pub(crate) fn byte_size(&self) -> u64 {
        self.batches.iter().map(Batch::byte_size).sum()
    }

    /// Rows of group state (one per group).
    pub(crate) fn num_groups(&self) -> usize {
        self.batches.first().map_or(0, Batch::num_rows)
    }

    /// One block per batch, state first.
    pub(crate) fn encode(&self) -> Vec<Bytes> {
        self.batches.iter().map(encode_batch).collect()
    }
}

// ------------------------------------------------------------ group table

const EMPTY: u32 = u32::MAX;

/// Open-addressing index from a 64-bit hash to a dense id, ids assigned in
/// insertion order. What an entry *is* lives with the caller, who supplies
/// the equality check: the group table, DISTINCT pair sets and the JOIN
/// build table all index with it.
#[derive(Debug)]
pub(crate) struct HashIndex {
    /// Hash of every entry, by id.
    hashes: Vec<u64>,
    /// Entry id per slot, [`EMPTY`] when free; length is a power of two.
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: the slot is the top bits of the mixed hash.
    shift: u32,
}

impl HashIndex {
    pub(crate) fn new() -> HashIndex {
        HashIndex {
            hashes: Vec::new(),
            slots: vec![EMPTY; 16],
            shift: 60,
        }
    }

    /// Home slot of `h`. Fibonacci mixing: after a shuffle every key on this
    /// node shares `h % n`, so the low bits alone would cluster.
    fn home(&self, h: u64) -> usize {
        (h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The id of the entry with hash `h` that `same(id)` accepts, or — with
    /// `true` — the id just given to a new entry.
    pub(crate) fn find_or_insert(
        &mut self,
        h: u64,
        same: impl Fn(usize) -> bool,
    ) -> Result<(u32, bool)> {
        if (self.hashes.len() + 1) * 2 > self.slots.len() {
            self.slots = vec![EMPTY; self.slots.len() * 2];
            self.shift -= 1;
            for id in 0..self.hashes.len() {
                let s = self.free_slot(self.hashes[id], |_| false).0;
                self.slots[s] = id as u32;
            }
        }
        let (s, found) = self.free_slot(h, same);
        if let Some(id) = found {
            return Ok((id, false));
        }
        let id = u32::try_from(self.hashes.len())
            .ok()
            .filter(|&id| id != EMPTY);
        let id = id.ok_or_else(|| DbError::Exec("too many groups".into()))?;
        self.slots[s] = id;
        self.hashes.push(h);
        Ok((id, true))
    }

    /// The id of the entry with hash `h` that `same(id)` accepts, if any.
    pub(crate) fn find(&self, h: u64, same: impl Fn(usize) -> bool) -> Option<u32> {
        self.free_slot(h, same).1
    }

    /// Probe from `h`'s home slot: the slot of the entry `same` accepts (and
    /// its id), or the first free slot.
    fn free_slot(&self, h: u64, same: impl Fn(usize) -> bool) -> (usize, Option<u32>) {
        let mut s = self.home(h);
        loop {
            let id = self.slots[s];
            if id == EMPTY {
                return (s, None);
            }
            if self.hashes[id as usize] == h && same(id as usize) {
                return (s, Some(id));
            }
            s = (s + 1) & (self.slots.len() - 1);
        }
    }
}

/// Typed key columns, one row per group, indexed by row hash. Group ids are
/// dense and assigned in first-seen order.
#[derive(Debug)]
struct GroupTable {
    keys: Vec<Column>,
    index: HashIndex,
}

impl GroupTable {
    fn new(dtypes: impl Iterator<Item = DataType>) -> GroupTable {
        GroupTable {
            keys: dtypes.map(Column::empty).collect(),
            index: HashIndex::new(),
        }
    }

    fn len(&self) -> usize {
        self.index.hashes.len()
    }

    /// The group id of every row of `cols` (one column per key, `rows`
    /// long), creating groups on first sight. NULL is a key value like any
    /// other.
    fn intern(&mut self, cols: &[&Column], rows: usize) -> Result<Vec<u32>> {
        let fits = |(c, k): (&&Column, &Column)| c.data_type() == k.data_type() && c.len() == rows;
        if cols.len() != self.keys.len() || !cols.iter().zip(&self.keys).all(fits) {
            return Err(DbError::Exec(
                "group key columns do not match the planned key types".into(),
            ));
        }
        let mut ids = Vec::with_capacity(rows);
        for (r, h) in row_hashes(cols, rows).into_iter().enumerate() {
            let keys = &self.keys;
            let same = |g: usize| {
                keys.iter().zip(cols).all(|(key, col)| {
                    typed_pair!(
                        key,
                        *col,
                        |kd, kv, d, v| match (kv.get(g), v.get(r)) {
                            (true, true) => kd[g].same(&d[r]),
                            (a, b) => a == b,
                        },
                        false
                    )
                })
            };
            let (id, new) = self.index.find_or_insert(h, same)?;
            if new {
                for (key, col) in self.keys.iter_mut().zip(cols) {
                    typed_pair!(
                        key,
                        *col,
                        |kd, kv, d, v| {
                            // A NULL key holds the type's default value.
                            kd.push(Default::default());
                            if v.get(r) {
                                kd[id as usize].clone_from(&d[r]);
                            }
                            kv.push(v.get(r));
                        },
                        ()
                    );
                }
            }
            ids.push(id);
        }
        Ok(ids)
    }

    /// Group indices in key order: the ORDER BY of every key ascending.
    fn order(&self) -> Result<Vec<usize>> {
        sort::sorted_rows(&self.keys.iter().collect::<Vec<_>>())
    }
}

// ---------------------------------------------------------- state kernels

/// `e` over `batch`, borrowing when `e` is a plain column reference.
pub(crate) fn eval<'a>(e: &Expr, batch: &'a Batch) -> Result<Cow<'a, Column>> {
    Ok(match e {
        Expr::Column(name) => Cow::Borrowed(batch.column_by_name(name)?),
        other => Cow::Owned(other.eval(batch)?),
    })
}

/// `step(&mut state[ids[r]], &data[r])` for every non-NULL row `r` — the one
/// loop every counting and summing transition and merge is.
fn fold<S, T>(
    state: &mut [S],
    ids: &[u32],
    (data, validity): (&[T], &Bitmap),
    step: impl Fn(&mut S, &T),
) {
    let no_nulls = validity.all_set();
    for (r, (&g, x)) in ids.iter().zip(data).enumerate() {
        if no_nulls || validity.get(r) {
            step(&mut state[g as usize], x);
        }
    }
}

/// `state[ids[r]] = arg[r]` wherever `arg[r]` is non-NULL and compares as
/// `want` against the value held (or none is held yet) — `MIN` / `MAX`'s
/// transition and, over another table's state column, their merge.
fn keep_best(state: &mut Column, ids: &[u32], arg: &Column, want: Ordering) -> Result<()> {
    typed_pair!(
        state,
        arg,
        |best, seen, data, validity| {
            for (r, (&g, x)) in ids.iter().zip(data).enumerate() {
                let g = g as usize;
                if validity.get(r) && (!seen.get(g) || x.order(&best[g]) == want) {
                    best[g].clone_from(x);
                    seen.set(g);
                }
            }
            Ok(())
        },
        Err(state_error())
    )
}

/// The data of a count state column.
fn counts(state: &mut Column) -> Result<&mut Vec<i64>> {
    match state {
        Column::Int64 { data, .. } => Ok(data),
        _ => Err(state_error()),
    }
}

/// The data of a sum state column.
fn sums(state: &mut Column) -> Result<&mut Vec<f64>> {
    match state {
        Column::Float64 { data, .. } => Ok(data),
        _ => Err(state_error()),
    }
}

// --------------------------------------------------------------- DISTINCT

/// The `group` and `value_id` columns of a DISTINCT pairs batch, every entry
/// checked to name a row of the state batch and of the value batch.
fn pair_ids(pairs: &Batch, groups: usize, values: usize) -> Result<(&[i64], &[i64])> {
    let [Column::Int64 { data: gids, .. }, Column::Int64 { data: vids, .. }] = pairs.columns()
    else {
        return Err(state_error());
    };
    let within = |ids: &[i64], rows: usize| ids.iter().all(|&i| (i as u64) < rows as u64);
    if !within(gids, groups) || !within(vids, values) {
        return Err(DbError::Exec(
            "DISTINCT pair names a row past its state or value batch".into(),
        ));
    }
    Ok((gids, vids))
}

/// A `(group id, value id)` pair as one word — its own hash in the pair set.
fn pack(gid: u32, vid: u32) -> u64 {
    (gid as u64) << 32 | vid as u64
}

fn unpack(pair: u64) -> (i64, i64) {
    ((pair >> 32) as i64, (pair & 0xFFFF_FFFF) as i64)
}

/// One `COUNT(DISTINCT e)`'s state: each distinct value once (its row in
/// `values` is its id) and the set of [`pack`]ed `(group id, value id)` pairs,
/// which the index's hash list holds in first-seen order.
#[derive(Debug)]
struct DistinctSet {
    values: GroupTable,
    pairs: HashIndex,
}

impl DistinctSet {
    /// Add the non-NULL `(ids[r], values[r])` pairs.
    fn add(&mut self, ids: &[u32], values: &Column) -> Result<()> {
        let validity = values.validity();
        let non_null;
        let values = if validity.all_set() {
            values
        } else {
            non_null = values.filter(validity)?;
            &non_null
        };
        let vids = self.values.intern(&[values], values.len())?;
        let rows = (0..ids.len()).filter(|&r| validity.get(r));
        for (r, v) in rows.zip(vids) {
            self.pairs.find_or_insert(pack(ids[r], v), |_| true)?;
        }
        Ok(())
    }

    /// Add another table's pairs: pair `i` is row `gids[i]` of that table's
    /// state batch — group `ids[gids[i]]` here — with row `vids[i]` of its
    /// `values`.
    fn merge(&mut self, ids: &[u32], gids: &[i64], vids: &[i64], values: &Column) -> Result<()> {
        if values.null_count() > 0 {
            return Err(DbError::Exec("NULL in a DISTINCT value batch".into()));
        }
        let local = self.values.intern(&[values], values.len())?;
        for (&g, &v) in gids.iter().zip(vids) {
            let pair = pack(ids[g as usize], local[v as usize]);
            self.pairs.find_or_insert(pair, |_| true)?;
        }
        Ok(())
    }
}

// ------------------------------------------------------------- aggregator

/// One node's aggregation state for one statement.
#[derive(Debug)]
pub(crate) struct Aggregator<'p> {
    plan: &'p AggPlan,
    table: GroupTable,
    /// One column per planned state column, one row per group.
    states: Vec<Column>,
    distinct: Vec<DistinctSet>,
}

impl<'p> Aggregator<'p> {
    pub(crate) fn new(plan: &'p AggPlan) -> Result<Aggregator<'p>> {
        let (keys, states) = plan.schemas[0].fields().split_at(plan.keys.len());
        let distinct = plan.schemas[1..].chunks_exact(2).map(|set| DistinctSet {
            values: GroupTable::new(set[1].fields().iter().map(|f| f.dtype)),
            pairs: HashIndex::new(),
        });
        let mut agg = Aggregator {
            plan,
            table: GroupTable::new(keys.iter().map(|f| f.dtype)),
            states: states.iter().map(|f| Column::empty(f.dtype)).collect(),
            distinct: distinct.collect(),
        };
        if keys.is_empty() {
            // A global aggregate is one group even over no rows, so
            // `SELECT count(*) FROM empty` answers 0.
            agg.group_ids(&[], 1)?;
        }
        Ok(agg)
    }

    pub(crate) fn plan(&self) -> &'p AggPlan {
        self.plan
    }

    /// Intern key rows and give every new group its initial state: zero, or
    /// NULL for `MIN` / `MAX`.
    fn group_ids(&mut self, keys: &[&Column], rows: usize) -> Result<Vec<u32>> {
        let ids = self.table.intern(keys, rows)?;
        let groups = self.table.len();
        for (col, &null) in self.states.iter_mut().zip(&self.plan.state_starts_null) {
            typed!(col, |data, validity| {
                let add = groups - data.len();
                data.resize(groups, Default::default());
                validity.extend(&Bitmap::from_fn(add, |_| !null));
            });
        }
        Ok(ids)
    }

    /// Fold one batch of input rows into the table.
    pub(crate) fn update(&mut self, batch: &Batch) -> Result<()> {
        let keys = self.plan.keys.iter().map(|e| eval(e, batch));
        let keys: Vec<Cow<'_, Column>> = keys.collect::<Result<_>>()?;
        let keys: Vec<&Column> = keys.iter().map(|c| c.as_ref()).collect();
        let ids = self.group_ids(&keys, batch.num_rows())?;
        self.accumulate(&ids, batch)
    }

    /// Group ids for the `mask`-selected rows of a dictionary-encoded key
    /// column. Each code in use is interned once (NULL as its own entry) and
    /// rows then map code → group id, so no string is hashed per row.
    pub(crate) fn dict_group_ids(
        &mut self,
        dict: &[String],
        codes: &[u32],
        validity: &Bitmap,
        mask: &Bitmap,
    ) -> Result<Vec<u32>> {
        let null_slot = dict.len();
        let mut slots = Vec::with_capacity(mask.count_set());
        mask.for_each_set(|row| {
            slots.push(if validity.get(row) {
                codes[row] as usize
            } else {
                null_slot
            })
        });
        let mut id_of_slot = vec![EMPTY; null_slot + 1];
        let mut used = Vec::new();
        for &slot in &slots {
            let id = id_of_slot.get_mut(slot);
            let id = id.ok_or_else(|| DbError::Exec("dictionary code out of range".into()))?;
            if *id == EMPTY {
                *id = 0;
                used.push(slot);
            }
        }
        let entries = Column::Varchar {
            data: used
                .iter()
                .map(|&s| dict.get(s).cloned().unwrap_or_default())
                .collect(),
            validity: Bitmap::from_fn(used.len(), |i| used[i] != null_slot),
        };
        for (&slot, id) in used.iter().zip(self.group_ids(&[&entries], used.len())?) {
            id_of_slot[slot] = id;
        }
        Ok(slots.into_iter().map(|slot| id_of_slot[slot]).collect())
    }

    /// Run every aggregate's transition over `batch`, whose row `r` belongs
    /// to group `ids[r]`: one loop per state column.
    pub(crate) fn accumulate(&mut self, ids: &[u32], batch: &Batch) -> Result<()> {
        for spec in &self.plan.aggs {
            let arg = spec.arg.as_ref().map(|e| eval(e, batch)).transpose()?;
            if arg.as_ref().is_some_and(|a| a.len() != ids.len()) {
                return Err(DbError::Exec("aggregate argument length".into()));
            }
            let states = &mut self.states[spec.col..];
            match (spec.kind, arg.as_deref()) {
                (StateKind::Rows, _) => {
                    let rows = counts(&mut states[0])?;
                    ids.iter().for_each(|&g| rows[g as usize] += 1);
                }
                (StateKind::NonNull, Some(a)) => {
                    typed!(a, |d, v| fold(
                        counts(&mut states[0])?,
                        ids,
                        (d, v),
                        |n, _| *n += 1
                    ))
                }
                (StateKind::Sum { .. }, Some(a)) => typed!(a, |d, v| {
                    fold(sums(&mut states[0])?, ids, (d, v), |s, x| *s += x.as_f64());
                    fold(counts(&mut states[1])?, ids, (d, v), |n, _| *n += 1);
                }),
                (StateKind::Extreme { want }, Some(a)) => keep_best(&mut states[0], ids, a, want)?,
                (StateKind::Distinct { set }, Some(a)) => self.distinct[set].add(ids, a)?,
                // `AggPlan::new` gives every kind but `Rows` an argument.
                (_, None) => return Err(state_error()),
            }
        }
        Ok(())
    }

    /// Fold another table's state into this one: counts and sums add,
    /// `MIN`/`MAX` keep the better of the two, DISTINCT pairs re-deduplicate.
    pub(crate) fn merge(&mut self, p: &Partial) -> Result<()> {
        let rows = self.plan.check(p)?;
        let (keys, theirs) = p.batches[0].columns().split_at(self.plan.keys.len());
        let ids = self.group_ids(&keys.iter().collect::<Vec<_>>(), rows)?;
        let add_counts = |mine: &mut Column, theirs: &Column| -> Result<()> {
            let Column::Int64 { data, validity } = theirs else {
                return Err(state_error());
            };
            let add = |n: &mut i64, x: &i64| *n = n.wrapping_add(*x);
            fold(counts(mine)?, &ids, (data, validity), add);
            Ok(())
        };
        for spec in &self.plan.aggs {
            let (mine, theirs) = (&mut self.states[spec.col..], &theirs[spec.col..]);
            match spec.kind {
                StateKind::Rows | StateKind::NonNull => add_counts(&mut mine[0], &theirs[0])?,
                StateKind::Sum { .. } => {
                    let Column::Float64 { data, validity } = &theirs[0] else {
                        return Err(state_error());
                    };
                    fold(sums(&mut mine[0])?, &ids, (data, validity), |s, x| *s += x);
                    add_counts(&mut mine[1], &theirs[1])?;
                }
                StateKind::Extreme { want } => keep_best(&mut mine[0], &ids, &theirs[0], want)?,
                StateKind::Distinct { set } => {
                    let (pairs, values) = (&p.batches[1 + 2 * set], &p.batches[2 + 2 * set]);
                    let (gids, vids) = pair_ids(pairs, rows, values.num_rows())?;
                    self.distinct[set].merge(&ids, gids, vids, values.column(0))?;
                }
            }
        }
        Ok(())
    }

    /// The table's state as batches, ready to ship or merge.
    pub(crate) fn into_partial(self) -> Result<Partial> {
        let mut schemas = self.plan.schemas.iter().cloned();
        let mut batch = |cols| -> Result<Batch> {
            Ok(Batch::new(schemas.next().ok_or_else(state_error)?, cols)?)
        };
        let mut cols = self.table.keys;
        cols.extend(self.states);
        let mut batches = vec![batch(cols)?];
        for set in self.distinct {
            let (gids, vids) = set.pairs.hashes.iter().map(|&p| unpack(p)).unzip();
            batches.push(batch(vec![Column::from_i64(gids), Column::from_i64(vids)])?);
            batches.push(batch(set.values.keys)?);
        }
        Ok(Partial { batches })
    }

    /// Project the state columns into the statement's output columns, one
    /// row per group, in key order with NULL last.
    pub(crate) fn finalize(self) -> Result<Batch> {
        let groups = self.table.len();
        let mut cols = Vec::with_capacity(self.plan.out.len());
        for out in &self.plan.out {
            cols.push(match out {
                OutCol::Key(i) => self.table.keys[*i].clone(),
                OutCol::Agg(j) => self.final_column(&self.plan.aggs[*j], groups)?,
            });
        }
        let batch = Batch::new(self.plan.out_schema.clone(), cols)?;
        Ok(if groups > 1 {
            batch.take(&self.table.order()?)
        } else {
            batch
        })
    }

    fn final_column(&self, spec: &AggSpec, groups: usize) -> Result<Column> {
        let states = &self.states[spec.col..];
        Ok(match spec.kind {
            StateKind::Rows | StateKind::NonNull | StateKind::Extreme { .. } => states[0].clone(),
            StateKind::Sum { avg } => {
                let (Column::Float64 { data: sum, .. }, Column::Int64 { data: n, .. }) =
                    (&states[0], &states[1])
                else {
                    return Err(state_error());
                };
                let mean = |(s, &n): (&f64, &i64)| s / n as f64;
                Column::Float64 {
                    data: if avg {
                        sum.iter().zip(n).map(mean).collect()
                    } else {
                        sum.clone()
                    },
                    // SUM / AVG over no non-NULL value is NULL.
                    validity: Bitmap::from_fn(groups, |g| n[g] > 0),
                }
            }
            StateKind::Distinct { set } => {
                let mut pairs_of = vec![0i64; groups];
                for &pair in &self.distinct[set].pairs.hashes {
                    pairs_of[unpack(pair).0 as usize] += 1;
                }
                Column::from_i64(pairs_of)
            }
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use vdr_columnar::Value;

    fn schema() -> Schema {
        Schema::of(&[
            ("k", DataType::Int64),
            ("v", DataType::Float64),
            ("tag", DataType::Varchar),
        ])
    }

    fn plan(sql: &str) -> AggPlan {
        match crate::sql::parse(sql).unwrap() {
            crate::sql::Statement::Select(s) => AggPlan::new(&s, &schema()).unwrap(),
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    fn input() -> Batch {
        let v = |k: i64, v: f64, tag: Option<&str>| {
            let tag = tag.map_or(Value::Null, |t| Value::Varchar(t.into()));
            vec![Value::Int64(k), Value::Float64(v), tag]
        };
        let rows = [
            v(1, 1.0, Some("a")),
            v(2, 2.0, Some("b")),
            v(1, 3.0, Some("a")),
            v(3, 4.0, None),
            v(2, 5.0, Some("a")),
            v(1, 6.0, Some("c")),
        ];
        Batch::from_rows(schema(), &rows).unwrap()
    }

    const SQL: &str = "SELECT k, count(*), sum(v), min(tag), count(DISTINCT tag) FROM t GROUP BY k";

    fn rows_of(b: &Batch) -> Vec<Vec<Value>> {
        (0..b.num_rows()).map(|r| b.row(r)).collect()
    }

    fn finalized(plan: &AggPlan, partials: &[Partial]) -> Result<Vec<Vec<Value>>> {
        let mut agg = Aggregator::new(plan)?;
        for p in partials {
            agg.merge(p)?;
        }
        Ok(rows_of(&agg.finalize()?))
    }

    fn partial_of(plan: &AggPlan, batch: &Batch) -> Partial {
        let mut agg = Aggregator::new(plan).unwrap();
        agg.update(batch).unwrap();
        agg.into_partial().unwrap()
    }

    #[test]
    fn state_survives_split_encode_decode_merge() {
        let plan = plan(SQL);
        let whole = partial_of(&plan, &input());
        let want = finalized(&plan, std::slice::from_ref(&whole)).unwrap();
        let s = |t: &str| Value::Varchar(t.into());
        assert_eq!(
            want,
            vec![
                vec![
                    Value::Int64(1),
                    Value::Int64(3),
                    Value::Float64(10.0),
                    s("a"),
                    Value::Int64(2)
                ],
                vec![
                    Value::Int64(2),
                    Value::Int64(2),
                    Value::Float64(7.0),
                    s("a"),
                    Value::Int64(2)
                ],
                vec![
                    Value::Int64(3),
                    Value::Int64(1),
                    Value::Float64(4.0),
                    Value::Null,
                    Value::Int64(0)
                ],
            ]
        );
        // Two tables over halves of the input, each split three ways and
        // shipped through the codec, merge back to the same answer.
        let halves = [input().slice(0, 3), input().slice(3, 6)];
        let mut shipped = Vec::new();
        for half in &halves {
            for part in plan.split(&partial_of(&plan, half), 3).unwrap() {
                shipped.push(plan.decode(&part.encode()).unwrap());
            }
        }
        assert_eq!(finalized(&plan, &shipped).unwrap(), want);
    }

    #[test]
    fn float_keys_group_by_bit_pattern() {
        let schema = Schema::of(&[("f", DataType::Float64)]);
        let plan = match crate::sql::parse("SELECT f, count(*) FROM t GROUP BY f").unwrap() {
            crate::sql::Statement::Select(s) => AggPlan::new(&s, &schema).unwrap(),
            other => panic!("{other:?}"),
        };
        let col = Column::from_f64(vec![f64::NAN, 0.0, -0.0, f64::NAN, 0.0]);
        let batch = Batch::new(schema, vec![col]).unwrap();
        let mut agg = Aggregator::new(&plan).unwrap();
        agg.update(&batch).unwrap();
        let out = agg.finalize().unwrap();
        // -0.0 before 0.0 before NaN (IEEE total order), NaN one group.
        let keys: Vec<u64> = out
            .column(0)
            .f64_data()
            .unwrap()
            .iter()
            .map(|f| f.to_bits())
            .collect();
        assert_eq!(
            keys,
            vec![(-0.0f64).to_bits(), 0.0f64.to_bits(), f64::NAN.to_bits()]
        );
        assert_eq!(out.column(1).i64_data().unwrap(), &[1, 2, 2]);
    }

    /// The shuffled partial rides the block codec: whatever arrives, the
    /// receive side answers with an error — never a panic, never a count.
    #[test]
    fn hostile_partition_bytes_are_errors() {
        let plan = plan(SQL);
        let good = partial_of(&plan, &input());
        let frames = good.encode();
        assert_eq!(frames.len(), 3);
        assert!(plan.decode(&frames).is_ok());
        let with = |i: usize, bytes: Vec<u8>| {
            let mut f = frames.clone();
            f[i] = Bytes::from(bytes);
            f
        };
        for (i, frame) in frames.iter().enumerate() {
            for cut in 0..frame.len() {
                let got = plan.decode(&with(i, frame[..cut].to_vec()));
                assert!(got.is_err(), "frame {i} truncated at {cut} decoded");
            }
            for bit in 0..frame.len() * 8 {
                let mut bytes = frame.to_vec();
                bytes[bit / 8] ^= 1 << (bit % 8);
                let got = plan.decode(&with(i, bytes));
                assert!(got.is_err(), "frame {i} with bit {bit} flipped decoded");
            }
        }

        // Crc-valid blocks that are not the planned state.
        let state = &good.batches[0];
        let names = state.schema().names();
        let missing_column = state.project(&names[..names.len() - 1]).unwrap();
        let mut cols = state.columns().to_vec();
        cols[2] = Column::from_i64(vec![0; state.num_rows()]); // `sum` as Int64
        let mut fields = state.schema().fields().to_vec();
        fields[2].dtype = DataType::Int64;
        let wrong_dtype = Batch::new(Schema::new(fields), cols).unwrap();
        for bad in [missing_column, wrong_dtype] {
            let got = plan.decode(&with(0, encode_batch(&bad).to_vec()));
            assert!(matches!(got, Err(DbError::Exec(_))), "{got:?}");
        }
        for absent in [&frames[..1], &frames[..2], &frames[..0]] {
            assert!(matches!(plan.decode(absent), Err(DbError::Exec(_))));
        }

        // Planned schema, hostile content: pairs naming rows that do not
        // exist, and a NULL among the DISTINCT values.
        let pairs = |g: i64, v: i64| {
            let cols = vec![Column::from_i64(vec![g]), Column::from_i64(vec![v])];
            Batch::new(good.batches[1].schema().clone(), cols).unwrap()
        };
        for (g, v) in [(3, 0), (-1, 0), (0, 3), (0, i64::MIN)] {
            let p = plan.decode(&with(1, encode_batch(&pairs(g, v)).to_vec()));
            let p = p.unwrap();
            let merged = finalized(&plan, std::slice::from_ref(&p));
            assert!(matches!(merged, Err(DbError::Exec(_))), "{merged:?}");
            assert!(matches!(plan.split(&p, 2), Err(DbError::Exec(_))));
        }
        let null_value = Batch::from_rows(good.batches[2].schema().clone(), &[vec![Value::Null]]);
        let p = plan.decode(&with(2, encode_batch(&null_value.unwrap()).to_vec()));
        let merged = finalized(&plan, &[p.unwrap()]);
        assert!(matches!(merged, Err(DbError::Exec(_))), "{merged:?}");
    }
}
