//! Typed ORDER BY … OFFSET … LIMIT over column vectors.
//!
//! One operator orders every result that is ordered: the gathered per-node
//! rows of a plain, JOIN or FROM-less SELECT (by their hidden sort-key
//! columns), the finalized rows of a GROUP BY (by output columns), and the
//! group table's groups. Rows compare key by key in the engine's one total
//! order, [`TotalOrder`] — integers as integers, floats in the IEEE total
//! order, `false` before `true`, strings bytewise — with NULL after every
//! value in both directions. Rows equal on every key keep their gather
//! order (batch by batch, row by row), so the result is exactly a stable
//! sort's.
//!
//! The first key is materialized next to each row's position, so the
//! comparator reads a contiguous array rather than chasing an index into
//! the columns; later keys are read from their columns only on a tie. Under
//! `LIMIT` only the first `OFFSET + LIMIT` rows are ordered:
//! `select_nth_unstable_by` keeps the best of a buffer at most twice that
//! size, in linear time, and only they are sorted. The answer gathers
//! straight from the input batches, which are never concatenated.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::error::{DbError, Result};
use std::cmp::Ordering;
use vdr_columnar::{Batch, Bitmap, Column, DataType, Schema};

/// The engine's total order within one column type: GROUP BY output,
/// `MIN`/`MAX` and ORDER BY all compare values with it.
pub(crate) trait TotalOrder {
    fn order(&self, other: &Self) -> Ordering;
}

macro_rules! total_order {
    ($($t:ty: $cmp:path),*) => {$(
        impl TotalOrder for $t {
            fn order(&self, other: &Self) -> Ordering {
                $cmp(self, other)
            }
        }
    )*};
}
total_order!(i64: Ord::cmp, f64: f64::total_cmp, bool: Ord::cmp, String: Ord::cmp);

impl<T: TotalOrder> TotalOrder for &T {
    fn order(&self, other: &Self) -> Ordering {
        (**self).order(*other)
    }
}

/// Two cells of one key, `None` for NULL: values in the total order
/// (reversed if `desc`), NULL after every value either way.
fn cmp_cells<T: TotalOrder>(a: Option<T>, b: Option<T>, desc: bool) -> Ordering {
    match (a, b) {
        (Some(a), Some(b)) if desc => b.order(&a),
        (Some(a), Some(b)) => a.order(&b),
        (a, b) => a.is_none().cmp(&b.is_none()),
    }
}

/// An element type of [`Column`].
trait Cell: TotalOrder + Clone + Default {
    /// What a sort entry holds of a value: the value, or a borrow of a
    /// string.
    type Key<'a>: TotalOrder + Copy
    where
        Self: 'a;
    fn key(&self) -> Self::Key<'_>;
    /// The column's data and validity, if it holds this type.
    fn view(col: &Column) -> Option<(&[Self], &Bitmap)>;
    fn column(data: Vec<Self>, validity: Bitmap) -> Column;
}

macro_rules! cell {
    ($t:ty, $variant:ident, $lt:lifetime, $key:ty, |$x:ident| $to_key:expr) => {
        impl Cell for $t {
            type Key<$lt> = $key;
            fn key(&self) -> Self::Key<'_> {
                let $x = self;
                $to_key
            }
            fn view(col: &Column) -> Option<(&[Self], &Bitmap)> {
                match col {
                    Column::$variant { data, validity } => Some((data, validity)),
                    _ => None,
                }
            }
            fn column(data: Vec<Self>, validity: Bitmap) -> Column {
                Column::$variant { data, validity }
            }
        }
    };
}
cell!(i64, Int64, 'k, i64, |x| *x);
cell!(f64, Float64, 'k, f64, |x| *x);
cell!(bool, Bool, 'k, bool, |x| *x);
cell!(String, Varchar, 'k, &'k String, |x| x);

/// `$body` with `$t` naming the element type of `$dtype`.
macro_rules! with_type {
    ($dtype:expr, $t:ident => $body:expr) => {
        match $dtype {
            DataType::Int64 => {
                type $t = i64;
                $body
            }
            DataType::Float64 => {
                type $t = f64;
                $body
            }
            DataType::Bool => {
                type $t = bool;
                $body
            }
            DataType::Varchar => {
                type $t = String;
                $body
            }
        }
    };
}

/// A row of the input: its batch in the high half, its row in the low
/// half, so positions compare in gather order.
type Pos = u64;

fn pos(batch: usize, row: usize) -> Pos {
    (batch as u64) << 32 | row as u64
}

fn batch_row(p: Pos) -> (usize, usize) {
    ((p >> 32) as usize, (p & 0xFFFF_FFFF) as usize)
}

/// One ORDER BY key: its column in every input batch, in batch order.
pub(crate) struct Key<'a> {
    pub(crate) cols: Vec<&'a Column>,
    pub(crate) desc: bool,
}

impl Key<'_> {
    fn cell<T: Cell>(&self, p: Pos) -> Option<&T> {
        let (b, r) = batch_row(p);
        let (data, validity) = T::view(self.cols.get(b)?)?;
        validity.get(r).then(|| data.get(r)).flatten()
    }

    /// Rows `a` and `b` on this key.
    fn cmp(&self, a: Pos, b: Pos) -> Ordering {
        let dtype = self.cols.first().map(|c| c.data_type());
        let Some(dtype) = dtype else {
            return Ordering::Equal;
        };
        with_type!(dtype, T => cmp_cells(self.cell::<T>(a), self.cell::<T>(b), self.desc))
    }
}

/// Rows `a` and `b` on `keys`, the first unequal key deciding.
fn cmp_rest(keys: &[Key<'_>], a: Pos, b: Pos) -> Ordering {
    let by_key = keys.iter().map(|key| key.cmp(a, b));
    by_key
        .into_iter()
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

fn sort_error(what: &str) -> DbError {
    DbError::Exec(format!("cannot sort: {what}"))
}

/// Every key holds one column per batch, as long as the batch and of one
/// type, and every position fits a [`Pos`].
fn check(keys: &[Key<'_>], lens: &[usize]) -> Result<()> {
    let fits = |n: usize| u32::try_from(n).is_ok();
    if !fits(lens.len()) || !lens.iter().all(|&n| fits(n)) {
        return Err(sort_error("more than 2^32 batches or rows per batch"));
    }
    for key in keys {
        let dtype = key.cols.first().map(|c| c.data_type());
        let shaped = key.cols.len() == lens.len()
            && key
                .cols
                .iter()
                .zip(lens)
                .all(|(c, &n)| c.len() == n && Some(c.data_type()) == dtype);
        if !shaped {
            return Err(sort_error("key columns do not match the input batches"));
        }
    }
    Ok(())
}

/// One row's first key, materialized next to its position.
#[derive(Clone, Copy)]
struct Entry<K> {
    key: K,
    null: bool,
    pos: Pos,
}

/// The positions of the first `k` rows in key order.
fn first_k(keys: &[Key<'_>], lens: &[usize], k: usize) -> Result<Vec<Pos>> {
    check(keys, lens)?;
    let Some((first, rest)) = keys.split_first() else {
        return Err(sort_error("no sort key"));
    };
    let Some(dtype) = first.cols.first().map(|c| c.data_type()) else {
        return Ok(Vec::new());
    };
    with_type!(dtype, T => first_k_by::<T>(first, rest, k))
}

fn first_k_by<'a, T: Cell + 'a>(first: &Key<'a>, rest: &[Key<'_>], k: usize) -> Result<Vec<Pos>> {
    if k == 0 {
        return Ok(Vec::new());
    }
    let cmp = |a: &Entry<T::Key<'a>>, b: &Entry<T::Key<'a>>| {
        let cell = |e: &Entry<T::Key<'a>>| (!e.null).then_some(e.key);
        cmp_cells(cell(a), cell(b), first.desc)
            .then_with(|| cmp_rest(rest, a.pos, b.pos))
            .then(a.pos.cmp(&b.pos))
    };
    // Under LIMIT the entries stay within twice the rows kept: a full
    // buffer is cut to its best `k`, and the k-th of those bounds every
    // later row.
    let rows = first.cols.iter().map(|c| c.len()).sum::<usize>();
    let cap = rows.min(k.saturating_mul(2));
    let mut entries = Vec::with_capacity(cap);
    let mut bound = None;
    for (b, &col) in first.cols.iter().enumerate() {
        let (data, validity) = T::view(col).ok_or_else(|| sort_error("mixed key types"))?;
        let no_nulls = validity.all_set();
        for (r, x) in data.iter().enumerate() {
            let e = Entry {
                key: x.key(),
                null: !no_nulls && !validity.get(r),
                pos: pos(b, r),
            };
            if bound.is_some_and(|kth| cmp(&e, &kth).is_gt()) {
                continue;
            }
            entries.push(e);
            if entries.len() == cap && k < cap {
                entries.select_nth_unstable_by(k - 1, cmp);
                entries.truncate(k);
                bound = entries.last().copied();
            }
        }
    }
    if k < entries.len() {
        entries.select_nth_unstable_by(k - 1, cmp);
        entries.truncate(k);
    }
    // Positions are unique, so no two entries compare equal and the
    // unstable sort's order is the stable one.
    entries.sort_unstable_by(cmp);
    Ok(entries.into_iter().map(|e| e.pos).collect())
}

/// Rows at `at` of `cols` (one column per batch), NULL slots holding the
/// type's default as [`Column::take`] writes them.
fn gather<T: Cell>(cols: &[&Column], at: &[Pos]) -> Result<Column> {
    let views: Option<Vec<_>> = cols.iter().map(|c| T::view(c)).collect();
    let views = views.ok_or_else(|| sort_error("batches disagree on a column type"))?;
    let mut data = Vec::with_capacity(at.len());
    let mut valid = Bitmap::all_clear(at.len());
    for (o, &p) in at.iter().enumerate() {
        let (b, r) = batch_row(p);
        let cell = views.get(b).and_then(|(d, v)| Some((d.get(r)?, v.get(r))));
        match cell.ok_or_else(|| sort_error("position past the input"))? {
            (x, true) => {
                valid.set(o);
                data.push(x.clone());
            }
            (_, false) => data.push(T::default()),
        }
    }
    Ok(T::column(data, valid))
}

/// Rows `offset .. offset + limit` of `batches` — concatenated in order — in
/// the order of `keys`, ties in gather order, keeping the first `width`
/// columns. The batches share a schema; each key holds one column per
/// batch.
pub(crate) fn sort_limit(
    batches: &[Batch],
    width: usize,
    keys: &[Key<'_>],
    offset: u64,
    limit: Option<u64>,
) -> Result<Batch> {
    let Some(head) = batches.first() else {
        return Err(sort_error("no input batches"));
    };
    let fields = head.schema().fields().get(..width);
    let fields = fields.ok_or_else(|| sort_error("output wider than the input"))?;
    let lens: Vec<usize> = batches.iter().map(Batch::num_rows).collect();
    let rows = lens.iter().sum::<usize>() as u64;
    let end = limit.map_or(rows, |l| offset.saturating_add(l).min(rows));
    let at = if offset >= end {
        Vec::new()
    } else {
        first_k(keys, &lens, end as usize)?
    };
    let at = at.get(offset as usize..).unwrap_or_default();
    let mut columns = Vec::with_capacity(width);
    for (c, field) in fields.iter().enumerate() {
        let cols: Option<Vec<&Column>> = batches.iter().map(|b| b.columns().get(c)).collect();
        let cols = cols.ok_or_else(|| sort_error("batches disagree on their width"))?;
        columns.push(with_type!(field.dtype, T => gather::<T>(&cols, at))?);
    }
    Ok(Batch::new(Schema::new(fields.to_vec()), columns)?)
}

/// Row indices of columns `keys` (one batch) in ascending key order.
pub(crate) fn sorted_rows(keys: &[&Column]) -> Result<Vec<usize>> {
    let rows = keys.first().map_or(0, |c| c.len());
    let keys: Vec<Key<'_>> = keys
        .iter()
        .map(|&c| Key {
            cols: vec![c],
            desc: false,
        })
        .collect();
    let at = first_k(&keys, &[rows], rows)?;
    Ok(at.into_iter().map(|p| batch_row(p).1).collect())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vdr_columnar::{Field, Value};

    fn batch(cols: Vec<Column>) -> Batch {
        let fields = cols
            .iter()
            .enumerate()
            .map(|(i, c)| Field::new(format!("c{i}"), c.data_type()))
            .collect();
        Batch::new(Schema::new(fields), cols).unwrap()
    }

    /// Column `c` of every batch as a key.
    fn key(batches: &[Batch], c: usize, desc: bool) -> Key<'_> {
        let cols = batches.iter().map(|b| b.column(c)).collect();
        Key { cols, desc }
    }

    #[test]
    fn nulls_last_both_ways_and_ties_in_gather_order() {
        let col = |v: Vec<Option<i64>>| {
            let validity = Bitmap::from_fn(v.len(), |i| v[i].is_some());
            let data = v.iter().map(|x| x.unwrap_or_default()).collect();
            Column::Int64 { data, validity }
        };
        let tag = |t: &[&str]| Column::from_strings(t.to_vec());
        let batches = [
            batch(vec![
                col(vec![Some(2), None, Some(1)]),
                tag(&["a", "b", "c"]),
            ]),
            batch(vec![col(vec![Some(1), None]), tag(&["d", "e"])]),
        ];
        let tags = |desc: bool, offset: u64, limit: Option<u64>| -> Vec<Value> {
            let keys = [key(&batches, 0, desc)];
            let out = sort_limit(&batches, 2, &keys, offset, limit).unwrap();
            (0..out.num_rows()).map(|r| out.column(1).get(r)).collect()
        };
        let s = |t: &str| Value::Varchar(t.into());
        assert_eq!(tags(false, 0, None), ["c", "d", "a", "b", "e"].map(s));
        assert_eq!(tags(true, 0, None), ["a", "c", "d", "b", "e"].map(s));
        assert_eq!(tags(true, 1, Some(2)), ["c", "d"].map(s));
        assert_eq!(tags(false, 4, Some(9)), ["e"].map(s));
        assert!(tags(false, 5, None).is_empty());
        assert!(tags(false, 0, Some(0)).is_empty());
    }

    #[test]
    fn mismatched_inputs_are_errors() {
        let a = batch(vec![Column::from_i64(vec![1, 2])]);
        let b = batch(vec![Column::from_f64(vec![1.0])]);
        let batches = [a, b];
        let keys = [key(&batches, 0, false)];
        assert!(matches!(
            sort_limit(&batches, 1, &keys, 0, None),
            Err(DbError::Exec(_))
        ));
        let short = Key {
            cols: vec![batches[0].column(0)],
            desc: false,
        };
        assert!(sort_limit(&batches[..1], 2, &[], 0, None).is_err());
        assert!(sort_limit(&batches, 1, &[short], 0, None).is_err());
        assert!(sort_limit(&[], 0, &[], 0, None).is_err());
    }

    /// A cell from a small pool per type, so keys repeat; 0 is NULL.
    fn cell(dtype: usize, pick: usize) -> Value {
        if pick == 0 {
            return Value::Null;
        }
        let floats = [-0.0, 0.0, 1.5, f64::NAN, -f64::NAN, f64::INFINITY];
        match dtype {
            0 => Value::Int64([i64::MIN, -1, 0, 1 << 53, (1 << 53) + 1, i64::MAX][pick - 1]),
            1 => Value::Float64(floats[pick - 1]),
            2 => Value::Bool(pick > 3),
            _ => Value::Varchar(["", "a", "ab", "b", "é", "B"][pick - 1].into()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The top-N result is the first `OFFSET + LIMIT` rows of a full
        /// stable sort, position for position.
        #[test]
        fn top_n_is_a_prefix_of_the_stable_sort(
            dtypes in prop::collection::vec(0..4usize, 1..4),
            picks in prop::collection::vec(prop::collection::vec(0..7usize, 3..4), 0..60),
            cuts in prop::collection::vec(0..60usize, 0..3),
            desc in prop::collection::vec(any::<bool>(), 3..4),
            offset in 0..20u64,
            limit in prop::option::of(0..20u64),
        ) {
            let schema = Schema::new(
                dtypes
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| {
                        let dtype = [DataType::Int64, DataType::Float64, DataType::Bool, DataType::Varchar][t];
                        Field::new(format!("k{i}"), dtype)
                    })
                    .collect(),
            );
            let rows: Vec<Vec<Value>> = picks
                .iter()
                .map(|p| dtypes.iter().zip(p).map(|(&t, &v)| cell(t, v)).collect())
                .collect();
            // Split the rows into batches at `cuts`, empty batches included.
            let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(rows.len())).collect();
            bounds.sort_unstable();
            bounds.insert(0, 0);
            bounds.push(rows.len());
            let batches: Vec<Batch> = bounds
                .windows(2)
                .map(|w| Batch::from_rows(schema.clone(), &rows[w[0]..w[1]]).unwrap())
                .collect();
            let keys: Vec<Key<'_>> = (0..dtypes.len()).map(|c| key(&batches, c, desc[c])).collect();

            let mut all: Vec<Pos> = batches
                .iter()
                .enumerate()
                .flat_map(|(b, batch)| (0..batch.num_rows()).map(move |r| pos(b, r)))
                .collect();
            all.sort_by(|&a, &b| cmp_rest(&keys, a, b));
            let end = limit.map_or(all.len(), |l| (offset + l).min(all.len() as u64) as usize);
            let want: &[Pos] = all.get(offset as usize..end).unwrap_or_default();

            let lens: Vec<usize> = batches.iter().map(Batch::num_rows).collect();
            let got = if (offset as usize) < end { first_k(&keys, &lens, end).unwrap() } else { Vec::new() };
            prop_assert_eq!(got.get(offset as usize..).unwrap_or_default(), want);

            let out = sort_limit(&batches, dtypes.len(), &keys, offset, limit).unwrap();
            let want_rows: Vec<Vec<Value>> = want
                .iter()
                .map(|&p| { let (b, r) = batch_row(p); batches[b].row(r) })
                .collect();
            let got_rows: Vec<Vec<Value>> = (0..out.num_rows()).map(|r| out.row(r)).collect();
            prop_assert_eq!(format!("{got_rows:?}"), format!("{want_rows:?}"));
        }
    }
}
