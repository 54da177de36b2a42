//! Distributed hash JOIN: moving the sides, and the node-local build table
//! and streaming probe.
//!
//! The plan says which side moves how (`plan.rs`): nothing when both sides
//! are hash-segmented on their keys (co-located), the unaligned side(s) by
//! `hash(key) % N` — the routing hash segmentation uses at load time, so
//! shuffled rows land where an aligned side's matches live — or the whole
//! right side to every node when it is small (broadcast: one refcounted
//! frame fanned out N ways). The moving sides cross one Exchange as VCOL
//! blocks, so RLE/dictionary key columns stay encoded on the wire.
//!
//! Each node builds one table over its right side's key column — the
//! aggregator's row hash and `HashIndex`, keys equal as GROUP BY keys are but
//! NULL never matching — holding each key's rows contiguously, ascending.
//! The left side streams through it a batch at a time (scanned containers,
//! whose eagerly decoded columns are read in place, or received
//! partitions); each joined chunk holds only the
//! columns the statement reads (one if none) and goes through the per-node
//! pipeline into the node's one accumulator. Output order is node order,
//! then left rows in scan order, then matches by ascending right row,
//! unmatched LEFT rows in place: float sums repeat bit for bit.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use super::*;
use crate::agg::{typed, typed_pair, Elem, HashIndex};
use crate::plan::{Join, Side};
use crate::segmentation::row_hashes;
use crate::sql::JoinKind;

/// Run the JOIN `node` on every node: scan both sides, ship the sides the
/// plan moves through one exchange — the others ride along locally — then
/// join what each node holds.
pub(super) fn run(cx: &Cx<'_>, j: &Join, node: &PlanNode) -> Result<Vec<NodeResult>> {
    let mut parts = Vec::with_capacity(2);
    for side in &node.inputs {
        parts.push(match &side.op {
            Op::Scan(scan) => ((scan, side.path), None),
            Op::Exchange(to) => match input(side)? {
                PlanNode {
                    op: Op::Scan(scan),
                    path,
                    ..
                } => ((scan, *path), Some((to, side.path))),
                _ => return Err(shape()),
            },
            _ => return Err(shape()),
        });
    }
    let [(left, to_left), (right, to_right)] = parts.as_slice() else {
        return Err(shape());
    };
    let join_path = node.path;
    // The moving sides, in the frame order every destination receives.
    let moving: Vec<(usize, usize)> = [to_left, to_right]
        .iter()
        .enumerate()
        .filter_map(|(s, to)| to.map(|(_, path)| (s, path)))
        .collect();
    let schemas: Vec<Schema> = moving.iter().map(|&(s, _)| j.sides[s].clone()).collect();
    let paths: Vec<usize> = moving.iter().map(|&(_, path)| path).collect();
    type Carry = (Option<Vec<EncodedBatch>>, Option<Batch>);
    exchange(
        cx,
        "exec.join.shuffle",
        &schemas,
        &paths,
        Payload::Rows,
        |node, out| -> Result<Carry> {
            let scan = |&(s, path): &(&plan::Scan, usize)| -> Result<Vec<EncodedBatch>> {
                let (storage, wanted) = (cx.db.storage(), s.columns.as_ref());
                let found = storage.scan_node(&s.table, node.id(), cx.op(path), wanted)?;
                let rows = found.iter().map(|eb| eb.num_rows() as u64).sum();
                let bytes = found.iter().map(EncodedBatch::byte_size).sum();
                cx.note(node.id().0, path, [0, rows, bytes], None);
                Ok(found)
            };
            let mut stats = EncodedScanStats::default();
            let left_rows = scan(left)?;
            let right_rows = planned(&j.sides[1], &scan(right)?, &mut stats)?;
            let mut carry: Carry = (None, None);
            match to_left {
                Some(_) => {
                    let rows = planned(&j.sides[0], &left_rows, &mut stats)?;
                    partition(&rows, &j.keys[0], out)?;
                }
                None => carry.0 = Some(left_rows),
            }
            match to_right {
                Some((Exchange::Broadcast, _)) => out.broadcast(&right_rows),
                Some(_) => partition(&right_rows, &j.keys[1], out)?,
                None => carry.1 = Some(right_rows),
            }
            // Both sides' materialization, on the right side's scan.
            stats.charge(cx, right.1, node.id());
            Ok(carry)
        },
        |node, carry, received| {
            // Per side, what every source sent here, in source order.
            let mut got = [Vec::new(), Vec::new()];
            for batches in received {
                for (&(s, _), b) in moving.iter().zip(batches) {
                    got[s].push(b);
                }
            }
            let [got_left, got_right] = got;
            let right = match carry.1 {
                Some(b) => b,
                None => Batch::concat(j.sides[1].clone(), &got_right)?,
            };
            let left = match carry.0 {
                Some(left) => left,
                None => got_left.into_iter().map(EncodedBatch::from).collect(),
            };
            join_node(cx, node, j, join_path, left, &right)
        },
    )
}

/// One side's scanned containers as one batch of its planned schema, which
/// every node ships whole, an empty segment included. An encoded column
/// materializes here, once.
fn planned(
    schema: &Schema,
    scanned: &[EncodedBatch],
    stats: &mut EncodedScanStats,
) -> Result<Batch> {
    let mut out = Batch::empty(schema.clone());
    for eb in scanned {
        let all = Bitmap::all_valid(eb.num_rows());
        stats.late_materialize(eb, eb.num_rows(), None);
        out.extend(&eb.materialize(&all, None)?.0)?;
    }
    Ok(out)
}

/// Split `batch` by `hash(key) % n` — the exact routing hash segmentation
/// applies at load time — one frame per destination.
fn partition(batch: &Batch, key: &str, out: &mut Outbox) -> Result<()> {
    let routes = hash_routes(batch.column_by_name(key)?, out.frames.len());
    for (dst, rows) in routes.iter().enumerate() {
        out.send(dst, &batch.take(rows));
    }
    Ok(())
}

// -------------------------------------------------------- local hash join

/// Build the node's table over `right`, stream every `left` batch through it
/// — probe, gather the joined columns — into the per-node pipeline, and
/// charge the node's build + probe work once. A left batch's decoded columns
/// are read in place; an encoded key or joined column materializes once.
/// The JOIN is the plan's operator `path`.
fn join_node(
    cx: &Cx<'_>,
    node: &Arc<Node>,
    j: &Join,
    path: usize,
    left: Vec<EncodedBatch>,
    right: &Batch,
) -> Result<NodeResult> {
    let (me, started) = (node.id().0, Instant::now());
    let mut span = vdr_obs::detail_span_with_parent("exec.join.node", cx.span);
    span.set_node(me);
    let table = BuildTable::new(right.column_by_name(&j.keys[1])?)?;
    let mut acc = NodeAcc::new(cx, node.id())?;
    let mut stats = EncodedScanStats::default();
    for eb in &left {
        stats.late_materialize(eb, eb.num_rows(), None);
    }
    let (mut left_rows, mut out_rows) = (0, 0);
    let chunks = left.iter().map(|eb| {
        let (rows, _) = eb.materialize(&Bitmap::all_valid(eb.num_rows()), None)?;
        let (li, ri) = table.probe(j.kind, rows.column_by_name(&j.keys[0])?)?;
        left_rows += eb.num_rows();
        out_rows += li.len();
        let cols = j.cols.iter().map(|(side, name)| match side {
            Side::Left => Ok(gather(rows.column_by_name(name)?, &li)),
            Side::Right => Ok(gather(right.column_by_name(name)?, &ri)),
        });
        let chunk = Batch::new(cx.plan.input.clone(), cols.collect::<Result<_>>()?)?;
        Ok(EncodedBatch::from(chunk))
    });
    let counts = pipeline(cx, chunks, &mut acc, &mut stats)?;
    stats.charge(cx, path, node.id());
    // Build + probe cost: one hash/compare per build row and per probe row,
    // plus per-output-row materialization, at scan-value cost.
    let rows_in = left_rows + right.num_rows();
    let work = (rows_in + out_rows) as f64;
    cx.op(path).cpu_work(node.id(), work, cx.scan_cost());
    cx.note(me, path, [rows_in as u64, out_rows as u64, 0], None);
    sink(cx, me, acc, counts, started)
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
    use vdr_columnar::{ColumnBuilder, DataType};

    fn recv_of(frames: Vec<Vec<Bytes>>) -> ExchangeRecv {
        ExchangeRecv {
            frames,
            wait_ns: 0,
            bytes: 0,
        }
    }

    /// Whatever bytes arrive on JOIN's receive side, the outcome is the
    /// planned partitions or a `DbError` — never a panic, and never a join
    /// over fewer or other rows than were shipped.
    #[test]
    fn hostile_exchange_frames_are_errors_not_joins() {
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
        let shipped = [left.schema().clone(), right.schema().clone()];
        let decode = |frames| receive(&shipped, Payload::Rows, &recv_of(frames));
        let rows = |got: &[Vec<Batch>], side: usize| -> usize {
            got.iter().map(|b| b[side].num_rows()).sum()
        };

        // Two sources, one frame per shipped side each, in side order.
        let (got, _) = decode(vec![vec![lf.clone(), rf.clone()]; 2]).unwrap();
        assert_eq!((rows(&got, 0), rows(&got, 1)), (6, 4));
        assert!(got.iter().all(|b| b[0].schema() == left.schema()));
        assert!(got.iter().all(|b| b[1].schema() == right.schema()));
        // A side that did not ship is not expected on the wire.
        let right_only = [right.schema().clone()];
        let frames = recv_of(vec![vec![rf.clone()]; 2]);
        let (got, _) = receive(&right_only, Payload::Rows, &frames).unwrap();
        assert_eq!(rows(&got, 0), 4);

        let is_exec_err = |res: Result<(Vec<Vec<Batch>>, RecvStats)>, what: &str| match res {
            Err(DbError::Exec(_)) => {}
            Err(other) => panic!("{what}: unexpected error kind {other}"),
            Ok((got, _)) => panic!("{what}: received {} frame sets", got.len()),
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
