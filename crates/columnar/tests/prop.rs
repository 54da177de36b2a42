//! Property-based tests: every encoding round-trips arbitrary data, and the
//! block format survives arbitrary batches.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::HashSet;
use vdr_columnar::encoding::{decode_column, encode_column, Encoding};
use vdr_columnar::kernels::{cmp_scalar, cmp_scalar_dict, cmp_scalar_rle, CmpOp};
use vdr_columnar::{
    decode_batch, decode_batch_columns, encode_batch, encode_batch_v1, encode_batch_v1_with,
    encode_batch_with, Batch, Bitmap, Column, ColumnBuilder, DataType, EncodedColumn, Schema,
    Value,
};

const ALL_CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// Encode `col` with `enc` and parse it back into run/code form. `None`
/// when the encoding has no encoded-execution representation.
fn encoded_of(col: &Column, enc: Encoding) -> Option<EncodedColumn> {
    let mut buf = Vec::new();
    encode_column(col, enc, &mut buf).unwrap();
    let mut pos = 0;
    let e = EncodedColumn::from_payload(col.data_type(), enc, col.len(), &buf, &mut pos).unwrap();
    if e.is_some() {
        assert_eq!(pos, buf.len(), "encoded parse must consume the payload");
    }
    e
}

/// Expand `(run_len, value)` pairs into a column — arbitrary run lengths
/// and NULL patterns, the shapes RLE kernels must stay exact over.
fn runs_to_column(dtype: DataType, runs: &[(u64, Option<Value>)]) -> Column {
    let mut b = ColumnBuilder::new(dtype);
    for (len, v) in runs {
        for _ in 0..*len {
            match v {
                Some(v) => b.push(v.clone()).unwrap(),
                None => b.push_null(),
            }
        }
    }
    b.finish()
}

fn int_column() -> impl Strategy<Value = Column> {
    prop::collection::vec(prop::option::of(any::<i64>()), 0..300).prop_map(|vals| {
        let mut b = ColumnBuilder::new(DataType::Int64);
        for v in vals {
            match v {
                Some(x) => b.push(Value::Int64(x)).unwrap(),
                None => b.push_null(),
            }
        }
        b.finish()
    })
}

fn float_column() -> impl Strategy<Value = Column> {
    prop::collection::vec(prop::option::of(any::<f64>()), 0..300).prop_map(|vals| {
        let mut b = ColumnBuilder::new(DataType::Float64);
        for v in vals {
            match v {
                Some(x) => b.push(Value::Float64(x)).unwrap(),
                None => b.push_null(),
            }
        }
        b.finish()
    })
}

fn string_column() -> impl Strategy<Value = Column> {
    prop::collection::vec(prop::option::of("[a-z]{0,12}"), 0..200).prop_map(|vals| {
        let mut b = ColumnBuilder::new(DataType::Varchar);
        for v in vals {
            match v {
                Some(x) => b.push(Value::Varchar(x)).unwrap(),
                None => b.push_null(),
            }
        }
        b.finish()
    })
}

/// NaN-free floats, so the derived `Column == Column` (which also compares
/// the data parked under NULL slots) can be used on the result.
fn finite_float_column() -> impl Strategy<Value = Column> {
    prop::collection::vec(prop::option::of(-1.0e9f64..1.0e9), 0..300).prop_map(|vals| {
        let mut b = ColumnBuilder::new(DataType::Float64);
        for v in vals {
            match v {
                Some(x) => b.push(Value::Float64(x)).unwrap(),
                None => b.push_null(),
            }
        }
        b.finish()
    })
}

fn bool_column() -> impl Strategy<Value = Column> {
    prop::collection::vec(prop::option::of(any::<bool>()), 0..300).prop_map(|vals| {
        let mut b = ColumnBuilder::new(DataType::Bool);
        for v in vals {
            match v {
                Some(x) => b.push(Value::Bool(x)).unwrap(),
                None => b.push_null(),
            }
        }
        b.finish()
    })
}

/// `Bitmap` built one `push` at a time — the reference the word-wise
/// `extend` / `slice` must equal, padding bits included.
fn bitmap_by_push(bits: impl IntoIterator<Item = bool>) -> Bitmap {
    let mut out = Bitmap::new();
    for b in bits {
        out.push(b);
    }
    out
}

/// `==` (which sees stray padding bits), `count_set` and `all_set` all
/// agree with the reference.
fn assert_same_bitmap(fast: &Bitmap, reference: &Bitmap) -> Result<(), TestCaseError> {
    prop_assert_eq!(fast, reference);
    prop_assert_eq!(fast.count_set(), reference.count_set());
    prop_assert_eq!(fast.all_set(), reference.all_set());
    Ok(())
}

/// Compare columns treating NaN bit patterns as equal (PartialEq on f64
/// rejects NaN == NaN).
fn columns_equivalent(a: &Column, b: &Column) -> bool {
    if a.len() != b.len() || a.data_type() != b.data_type() {
        return false;
    }
    (0..a.len()).all(|i| match (a.get(i), b.get(i)) {
        (Value::Float64(x), Value::Float64(y)) => x.to_bits() == y.to_bits(),
        (x, y) => x == y,
    })
}

proptest! {
    #[test]
    fn int_encodings_roundtrip(col in int_column()) {
        for enc in [Encoding::Plain, Encoding::Rle, Encoding::DeltaVarint] {
            let mut buf = Vec::new();
            encode_column(&col, enc, &mut buf).unwrap();
            let mut pos = 0;
            let back = decode_column(DataType::Int64, enc, col.len(), &buf, &mut pos).unwrap();
            prop_assert_eq!(pos, buf.len());
            prop_assert!(columns_equivalent(&col, &back));
        }
    }

    #[test]
    fn float_encodings_roundtrip(col in float_column()) {
        for enc in [Encoding::Plain, Encoding::Rle] {
            let mut buf = Vec::new();
            encode_column(&col, enc, &mut buf).unwrap();
            let mut pos = 0;
            let back = decode_column(DataType::Float64, enc, col.len(), &buf, &mut pos).unwrap();
            prop_assert!(columns_equivalent(&col, &back));
        }
    }

    #[test]
    fn string_encodings_roundtrip(col in string_column()) {
        for enc in [Encoding::Plain, Encoding::Dictionary] {
            let mut buf = Vec::new();
            encode_column(&col, enc, &mut buf).unwrap();
            let mut pos = 0;
            let back = decode_column(DataType::Varchar, enc, col.len(), &buf, &mut pos).unwrap();
            prop_assert!(columns_equivalent(&col, &back));
        }
    }

    #[test]
    fn blocks_roundtrip_arbitrary_batches(
        ints in int_column(),
        strs in string_column(),
    ) {
        // Equalize lengths by truncation.
        let n = ints.len().min(strs.len());
        let schema = Schema::of(&[("i", DataType::Int64), ("s", DataType::Varchar)]);
        let batch = Batch::new(schema, vec![ints.slice(0, n), strs.slice(0, n)]).unwrap();
        let back = decode_batch(&encode_batch(&batch)).unwrap();
        prop_assert_eq!(back.num_rows(), n);
        prop_assert!(columns_equivalent(batch.column(0), back.column(0)));
        prop_assert!(columns_equivalent(batch.column(1), back.column(1)));
    }

    #[test]
    fn decode_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..200)) {
        // Must error or succeed, never panic.
        let _ = decode_batch(&data);
    }

    /// Projection pushdown is an optimization, never a semantic change:
    /// decoding only the wanted columns must equal a full decode followed
    /// by projection — across v1 and v2 layouts, heuristic and forced
    /// encodings (RLE/dictionary paths), NULL-bearing columns, and 0-row
    /// batches.
    #[test]
    fn projected_decode_equals_full_decode_then_project(
        ints in int_column(),
        floats in float_column(),
        strs in string_column(),
        mask in prop::collection::vec(any::<bool>(), 3..4),
        force_plain in any::<bool>(),
    ) {
        let n = ints.len().min(floats.len()).min(strs.len());
        let schema = Schema::of(&[
            ("i", DataType::Int64),
            ("f", DataType::Float64),
            ("s", DataType::Varchar),
        ]);
        let batch = Batch::new(
            schema,
            vec![ints.slice(0, n), floats.slice(0, n), strs.slice(0, n)],
        )
        .unwrap();
        let wanted: HashSet<String> = ["i", "f", "s"]
            .iter()
            .zip(&mask)
            .filter(|(_, keep)| **keep)
            .map(|(name, _)| name.to_string())
            .collect();
        let force = force_plain.then_some(Encoding::Plain);
        let blocks = [encode_batch_with(&batch, force), encode_batch_v1(&batch)];
        for bytes in &blocks {
            let full = decode_batch(bytes).unwrap();
            let (projected, stats) = decode_batch_columns(bytes, Some(&wanted)).unwrap();
            prop_assert_eq!(stats.cols_total, 3);
            prop_assert_eq!(stats.rows, n);
            // Projection must keep the row count.
            prop_assert_eq!(projected.num_rows(), n);
            if wanted.is_empty() {
                // Degenerate projection (SELECT count(*)): one cheap
                // column survives to carry the row count.
                prop_assert_eq!(projected.num_columns(), 1);
                prop_assert_eq!(stats.cols_decoded, 1);
                continue;
            }
            prop_assert_eq!(stats.cols_decoded, wanted.len());
            let names: Vec<&str> = projected.schema().names();
            prop_assert_eq!(names.len(), wanted.len());
            for name in names {
                prop_assert!(wanted.contains(name));
                let full_col = full.column(full.schema().index_of(name).unwrap());
                let proj_col = projected.column(projected.schema().index_of(name).unwrap());
                prop_assert!(columns_equivalent(full_col, proj_col));
            }
        }
    }

    /// Same equivalence, steered at low-cardinality data so the heuristic
    /// encoder actually takes the RLE and dictionary paths, and the
    /// *skipped* column is the compressed one.
    #[test]
    fn projected_decode_skips_rle_and_dictionary_columns(
        vals in prop::collection::vec(prop::option::of(0..3i64), 0..300),
        tags in prop::collection::vec(prop::option::of("[ab]"), 0..300),
        keep_ints in any::<bool>(),
    ) {
        let n = vals.len().min(tags.len());
        let mut ib = ColumnBuilder::new(DataType::Int64);
        let mut tb = ColumnBuilder::new(DataType::Varchar);
        for v in vals.iter().take(n) {
            match v {
                Some(x) => ib.push(Value::Int64(*x)).unwrap(),
                None => ib.push_null(),
            }
        }
        for t in tags.iter().take(n) {
            match t {
                Some(s) => tb.push(Value::Varchar(s.clone())).unwrap(),
                None => tb.push_null(),
            }
        }
        let schema = Schema::of(&[("v", DataType::Int64), ("t", DataType::Varchar)]);
        let batch = Batch::new(schema, vec![ib.finish(), tb.finish()]).unwrap();
        let wanted: HashSet<String> =
            [if keep_ints { "v" } else { "t" }.to_string()].into_iter().collect();
        for bytes in &[encode_batch(&batch), encode_batch_v1(&batch)] {
            let full = decode_batch(bytes).unwrap();
            let (projected, stats) = decode_batch_columns(bytes, Some(&wanted)).unwrap();
            prop_assert_eq!(stats.cols_decoded, 1);
            prop_assert_eq!(stats.cols_skipped(), 1);
            prop_assert_eq!(projected.num_rows(), n);
            let name = if keep_ints { "v" } else { "t" };
            let full_col = full.column(full.schema().index_of(name).unwrap());
            prop_assert!(columns_equivalent(full_col, projected.column(0)));
        }
    }

    /// Compressed-execution kernels are optimizations, never semantic
    /// changes: comparing an RLE integer column per run must produce the
    /// exact selection mask the decoded kernel produces per row, for every
    /// operator, across arbitrary run lengths and NULL patterns.
    #[test]
    fn rle_int_cmp_kernel_matches_decoded_kernel(
        runs in prop::collection::vec(
            (1u64..25, prop::option::of(-3i64..4)),
            1..40,
        ),
        rhs in prop::option::of(-3i64..4),
    ) {
        let spec: Vec<(u64, Option<Value>)> = runs
            .iter()
            .map(|(l, v)| (*l, v.map(Value::Int64)))
            .collect();
        let col = runs_to_column(DataType::Int64, &spec);
        let e = encoded_of(&col, Encoding::Rle).unwrap();
        let rhs_f = rhs.map(|x| x as f64);
        for op in ALL_CMP_OPS {
            let (enc_mask, stats) = cmp_scalar_rle(&e, op, rhs_f).unwrap();
            let (dec_mask, _) = cmp_scalar(&col, op, rhs_f).unwrap();
            prop_assert_eq!(&enc_mask, &dec_mask);
            prop_assert_eq!(stats.rows, col.len() as u64);
            // One comparison per run, never per row.
            prop_assert!(stats.comparisons <= runs.len() as u64);
        }
    }

    /// Float RLE comparisons, including NaN and signed-zero runs (runs
    /// compare bit patterns; predicate semantics must still match the
    /// decoded kernel's f64 behavior).
    #[test]
    fn rle_float_cmp_kernel_matches_decoded_kernel(
        runs in prop::collection::vec(
            (1u64..20, prop::option::of(0usize..6)),
            1..30,
        ),
        rhs_idx in prop::option::of(0usize..3),
    ) {
        const PALETTE: [f64; 6] = [0.0, -0.0, 1.5, -2.25, f64::NAN, f64::INFINITY];
        let rhs = rhs_idx.map(|i| [0.0f64, 1.5, f64::NAN][i]);
        let spec: Vec<(u64, Option<Value>)> = runs
            .iter()
            .map(|(l, v)| (*l, v.map(|i| Value::Float64(PALETTE[i]))))
            .collect();
        let col = runs_to_column(DataType::Float64, &spec);
        let e = encoded_of(&col, Encoding::Rle).unwrap();
        for op in ALL_CMP_OPS {
            let (enc_mask, _) = cmp_scalar_rle(&e, op, rhs).unwrap();
            let (dec_mask, _) = cmp_scalar(&col, op, rhs).unwrap();
            prop_assert_eq!(&enc_mask, &dec_mask);
        }
    }

    /// Dictionary comparisons evaluate once per distinct code; the mask must
    /// equal a per-row `str::cmp` over the decoded strings with NULLs
    /// collapsed to false.
    #[test]
    fn dict_cmp_kernel_matches_decoded_strings(
        vals in prop::collection::vec(prop::option::of("[abc]{0,2}"), 1..200),
        rhs in "[abc]{0,2}",
    ) {
        let mut b = ColumnBuilder::new(DataType::Varchar);
        for v in &vals {
            match v {
                Some(s) => b.push(Value::Varchar(s.clone())).unwrap(),
                None => b.push_null(),
            }
        }
        let col = b.finish();
        let e = encoded_of(&col, Encoding::Dictionary).unwrap();
        let distinct: HashSet<&String> = vals.iter().flatten().collect();
        for op in ALL_CMP_OPS {
            let (enc_mask, stats) = cmp_scalar_dict(&e, op, &rhs).unwrap();
            let expected = Bitmap::from_fn(col.len(), |i| match col.get(i) {
                Value::Varchar(s) => match op {
                    CmpOp::Eq => s == rhs,
                    CmpOp::Ne => s != rhs,
                    CmpOp::Lt => s < rhs,
                    CmpOp::Le => s <= rhs,
                    CmpOp::Gt => s > rhs,
                    CmpOp::Ge => s >= rhs,
                },
                _ => false,
            });
            prop_assert_eq!(&enc_mask, &expected);
            prop_assert_eq!(stats.comparisons, distinct.len() as u64);
        }
    }

    /// Late materialization: filtering an encoded column through an
    /// arbitrary mask must equal decode-then-filter, for RLE and dictionary
    /// forms alike.
    #[test]
    fn encoded_filter_matches_decode_then_filter(
        runs in prop::collection::vec(
            (1u64..15, prop::option::of(0i64..5)),
            1..30,
        ),
        tags in prop::collection::vec(prop::option::of("[abcd]"), 1..150),
        mask_seed in prop::collection::vec(any::<bool>(), 1..400),
    ) {
        let spec: Vec<(u64, Option<Value>)> = runs
            .iter()
            .map(|(l, v)| (*l, v.map(Value::Int64)))
            .collect();
        let ints = runs_to_column(DataType::Int64, &spec);
        let mut tb = ColumnBuilder::new(DataType::Varchar);
        for t in &tags {
            match t {
                Some(s) => tb.push(Value::Varchar(s.clone())).unwrap(),
                None => tb.push_null(),
            }
        }
        let strs = tb.finish();
        for (col, enc) in [(&ints, Encoding::Rle), (&strs, Encoding::Dictionary)] {
            let e = encoded_of(col, enc).unwrap();
            let mask = Bitmap::from_fn(col.len(), |i| mask_seed[i % mask_seed.len()]);
            let fast = e.filter(&mask);
            let slow = e.decode().filter(&mask).unwrap();
            prop_assert!(columns_equivalent(&fast, &slow), "enc {:?}", enc);
        }
    }

    /// Both block layouts round-trip every `Encoding` variant: a mixed-type
    /// batch forced to each encoding (columns the encoding doesn't apply to
    /// fall back to plain) decodes identically under v1 and v2.
    #[test]
    fn blocks_roundtrip_every_encoding_in_both_versions(
        ints in int_column(),
        floats in float_column(),
        strs in string_column(),
        bools in prop::collection::vec(prop::option::of(any::<bool>()), 0..200),
    ) {
        let mut bb = ColumnBuilder::new(DataType::Bool);
        for v in &bools {
            match v {
                Some(x) => bb.push(Value::Bool(*x)).unwrap(),
                None => bb.push_null(),
            }
        }
        let bools = bb.finish();
        let n = ints.len().min(floats.len()).min(strs.len()).min(bools.len());
        let schema = Schema::of(&[
            ("i", DataType::Int64),
            ("f", DataType::Float64),
            ("s", DataType::Varchar),
            ("b", DataType::Bool),
        ]);
        let batch = Batch::new(
            schema,
            vec![
                ints.slice(0, n),
                floats.slice(0, n),
                strs.slice(0, n),
                bools.slice(0, n),
            ],
        )
        .unwrap();
        for enc in [
            Encoding::Plain,
            Encoding::Rle,
            Encoding::Dictionary,
            Encoding::DeltaVarint,
        ] {
            for bytes in [
                encode_batch_with(&batch, Some(enc)),
                encode_batch_v1_with(&batch, Some(enc)),
            ] {
                let back = decode_batch(&bytes).unwrap();
                prop_assert_eq!(back.num_rows(), n);
                for c in 0..batch.num_columns() {
                    prop_assert!(
                        columns_equivalent(batch.column(c), back.column(c)),
                        "enc {:?} col {}", enc, c
                    );
                }
            }
        }
    }

    /// Word-wise `extend` ≡ pushing every bit, for every alignment of the
    /// seam (lengths straddle 0–4 words), and stays so when chained.
    #[test]
    fn bitmap_extend_matches_bit_by_bit(
        a in prop::collection::vec(any::<bool>(), 0..260),
        b in prop::collection::vec(any::<bool>(), 0..260),
        ones in 0usize..200,
    ) {
        let mut fast = Bitmap::from_bools(&a);
        fast.extend(&Bitmap::from_bools(&b));
        let mut all: Vec<bool> = a.iter().chain(&b).copied().collect();
        assert_same_bitmap(&fast, &bitmap_by_push(all.iter().copied()))?;
        // All-ones input is where a dirty carry or padding bit would show.
        fast.extend(&Bitmap::all_valid(ones));
        all.resize(all.len() + ones, true);
        fast.extend(&Bitmap::from_bools(&a));
        all.extend_from_slice(&a);
        assert_same_bitmap(&fast, &bitmap_by_push(all.iter().copied()))?;
    }

    /// Word-wise `slice` ≡ pushing bits `[from, to)`, including ends that
    /// are not multiples of 64, and the result is clean enough to extend.
    #[test]
    fn bitmap_slice_matches_bit_by_bit(
        bits in prop::collection::vec(any::<bool>(), 0..400),
        dense in any::<bool>(),
        x in any::<usize>(),
        y in any::<usize>(),
    ) {
        // Half the cases run on an all-set bitmap: every padding bit a
        // sloppy slice leaves behind is then a set bit.
        let bits: Vec<bool> = if dense { vec![true; bits.len()] } else { bits };
        let (x, y) = (x % (bits.len() + 1), y % (bits.len() + 1));
        let (from, to) = (x.min(y), x.max(y));
        let source = Bitmap::from_bools(&bits);
        let mut fast = source.slice(from, to);
        prop_assert_eq!(fast.len(), to - from);
        assert_same_bitmap(&fast, &bitmap_by_push(bits[from..to].iter().copied()))?;
        fast.extend(&source.slice(0, from));
        let rotated = bits[from..to].iter().chain(&bits[..from]).copied();
        assert_same_bitmap(&fast, &bitmap_by_push(rotated))?;
    }

    /// Bitmap wire form round-trips, and a reader never trusts padding bits
    /// it was handed.
    #[test]
    fn bitmap_bytes_roundtrip(bits in prop::collection::vec(any::<bool>(), 0..300)) {
        let bm = Bitmap::from_bools(&bits);
        let mut buf = Vec::new();
        bm.to_bytes(&mut buf);
        prop_assert_eq!(buf.len(), 8 + 8 * bits.len().div_ceil(64));
        let mut pos = 0;
        prop_assert_eq!(&Bitmap::from_bytes(&buf, &mut pos).unwrap(), &bm);
        prop_assert_eq!(pos, buf.len());
        if let Some(last) = buf.last_mut().filter(|_| bits.len() % 64 != 0) {
            *last |= 0x80; // a set bit past `len`
            let mut pos = 0;
            prop_assert_eq!(&Bitmap::from_bytes(&buf, &mut pos).unwrap(), &bm);
        }
    }

    /// Typed `Column::take` ≡ the boxed `get` + `ColumnBuilder::push` path it
    /// replaced — for all four types, with NULLs (whose slots must hold the
    /// type's default, or the derived `==` fails) and duplicate indices.
    #[test]
    fn take_matches_builder_path(
        ints in int_column(),
        floats in finite_float_column(),
        bools in bool_column(),
        strs in string_column(),
        picks in prop::collection::vec(any::<usize>(), 0..400),
    ) {
        for col in [ints, floats, bools, strs] {
            let indices: Vec<usize> = if col.is_empty() {
                Vec::new()
            } else {
                picks.iter().map(|p| p % col.len()).collect()
            };
            let mut reference = ColumnBuilder::new(col.data_type());
            for &i in &indices {
                reference.push(col.get(i)).unwrap();
            }
            prop_assert_eq!(col.take(&indices), reference.finish());
        }
    }

    #[test]
    fn truncated_blocks_error_not_panic(col in int_column()) {
        let schema = Schema::of(&[("i", DataType::Int64)]);
        let n = col.len();
        let batch = Batch::new(schema, vec![col.slice(0, n)]).unwrap();
        let bytes = encode_batch(&batch);
        for cut in [0, 4, 8, 9, bytes.len().saturating_sub(1)] {
            if cut < bytes.len() {
                prop_assert!(decode_batch(&bytes[..cut]).is_err());
            }
        }
    }
}
