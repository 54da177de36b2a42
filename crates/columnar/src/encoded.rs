//! Encoded column representations that survive block read into the executor.
//!
//! [`crate::decode_batch_columns`] flattens every payload to a plain
//! [`Column`] before any kernel sees it. For Rle and Dictionary payloads that
//! throws away exactly the structure compressed execution wants:
//!
//! * an RLE run lets a predicate be evaluated **once per run** instead of
//!   once per row ([`crate::kernels::cmp_scalar_rle`]),
//! * a dictionary lets a string predicate be evaluated **once per distinct
//!   code** ([`crate::kernels::cmp_scalar_dict`]), and a GROUP BY key can be
//!   aggregated through a dense per-code table instead of hashing strings,
//! * both forms support **late materialization** — [`EncodedColumn::filter`]
//!   expands values only for the rows that survived the filter bitmap.
//!
//! [`EncodedColumn`] holds the parsed run/code form (not raw payload bytes),
//! so every downstream pass is branch-light; [`EncodedBatch`] is the scan
//! product: a mix of [`ScanColumn::Encoded`] and [`ScanColumn::Decoded`]
//! columns chosen per column by [`crate::decode_batch_encoded`].

use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::encoding::{
    check_count, read_dictionary, read_i64_le, read_run_length, read_uvarint, unzigzag, Encoding,
};
use crate::error::{ColumnarError, Result};
use crate::schema::Schema;
use crate::value::DataType;
use std::collections::HashSet;

/// The run/code form of an encoded payload.
#[derive(Debug, Clone, PartialEq)]
pub enum EncodedValues {
    /// `(run length, value)` pairs; lengths sum to the row count.
    RleI64(Vec<(u64, i64)>),
    /// `(run length, f64 bit pattern)` pairs — bits so NaN/-0.0 round-trip.
    RleF64(Vec<(u64, u64)>),
    /// `(run length, value)` pairs.
    RleBool(Vec<(u64, bool)>),
    /// Distinct strings plus one code per row.
    Dict { dict: Vec<String>, codes: Vec<u32> },
}

/// A column still in encoded (run/code) form, with its validity bitmap.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedColumn {
    rows: usize,
    validity: Bitmap,
    values: EncodedValues,
    /// Row offset where each run begins (length runs+1, last entry = rows),
    /// kept only when the stored run values are non-decreasing with no NaN —
    /// the precondition for binary-searching predicate boundaries.
    sorted_starts: Option<Vec<u64>>,
}

impl EncodedColumn {
    /// Parse an encoded payload into run/code form. Returns `Ok(None)` for
    /// `(dtype, enc)` pairs that have no run/code structure worth keeping
    /// (Plain, DeltaVarint) — the caller decodes those eagerly. The payload
    /// layout is identical to what [`crate::encoding::decode_column`] reads;
    /// `*pos` advances past the payload on success.
    pub fn from_payload(
        dtype: DataType,
        enc: Encoding,
        rows: usize,
        bytes: &[u8],
        pos: &mut usize,
    ) -> Result<Option<EncodedColumn>> {
        match (dtype, enc) {
            (DataType::Int64, Encoding::Rle)
            | (DataType::Float64, Encoding::Rle)
            | (DataType::Bool, Encoding::Rle)
            | (DataType::Varchar, Encoding::Dictionary) => {}
            _ => return Ok(None),
        }
        let validity = Bitmap::from_bytes(bytes, pos)
            .ok_or_else(|| ColumnarError::Corrupt("validity bitmap truncated".into()))?;
        if validity.len() != rows {
            return Err(ColumnarError::Corrupt(format!(
                "validity length {} != row count {rows}",
                validity.len()
            )));
        }
        let values = match (dtype, enc) {
            (DataType::Int64, Encoding::Rle) => {
                EncodedValues::RleI64(read_runs(rows, bytes, pos, |b, p| {
                    Ok(unzigzag(read_uvarint(b, p)?))
                })?)
            }
            (DataType::Float64, Encoding::Rle) => {
                EncodedValues::RleF64(read_runs(rows, bytes, pos, |b, p| {
                    read_i64_le(b, p).map(|v| v as u64)
                })?)
            }
            (DataType::Bool, Encoding::Rle) => {
                EncodedValues::RleBool(read_runs(rows, bytes, pos, |b, p| {
                    let byte = *b
                        .get(*p)
                        .ok_or_else(|| ColumnarError::Corrupt("rle bool past end".into()))?;
                    *p += 1;
                    Ok(byte != 0)
                })?)
            }
            (DataType::Varchar, Encoding::Dictionary) => {
                let dict = read_dictionary(bytes, pos)?;
                let dict_len = dict.len();
                if dict_len > u32::MAX as usize {
                    return Err(ColumnarError::Corrupt("dictionary too large".into()));
                }
                check_count(rows, bytes, *pos, "dictionary codes")?;
                let mut codes = Vec::with_capacity(rows);
                for _ in 0..rows {
                    let code = read_uvarint(bytes, pos)?;
                    if code as usize >= dict_len {
                        return Err(ColumnarError::Corrupt(format!(
                            "dict code {code} out of range"
                        )));
                    }
                    codes.push(code as u32);
                }
                EncodedValues::Dict { dict, codes }
            }
            _ => unreachable!("filtered above"),
        };
        let sorted_starts = sorted_run_starts(&values);
        Ok(Some(EncodedColumn {
            rows,
            validity,
            values,
            sorted_starts,
        }))
    }

    /// Per-run row offsets when the run values are sorted (see field docs),
    /// or `None` when predicates must walk the runs linearly.
    pub fn sorted_run_starts(&self) -> Option<&[u64]> {
        self.sorted_starts.as_deref()
    }

    pub fn len(&self) -> usize {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    pub fn data_type(&self) -> DataType {
        match &self.values {
            EncodedValues::RleI64(_) => DataType::Int64,
            EncodedValues::RleF64(_) => DataType::Float64,
            EncodedValues::RleBool(_) => DataType::Bool,
            EncodedValues::Dict { .. } => DataType::Varchar,
        }
    }

    pub fn validity(&self) -> &Bitmap {
        &self.validity
    }

    pub fn values(&self) -> &EncodedValues {
        &self.values
    }

    /// The dictionary and per-row codes, if this is a Dictionary column.
    pub fn dict(&self) -> Option<(&[String], &[u32])> {
        match &self.values {
            EncodedValues::Dict { dict, codes } => Some((dict, codes)),
            _ => None,
        }
    }

    /// The encoded in-memory footprint — what an encoded cache tier charges.
    pub fn byte_size(&self) -> u64 {
        let validity = self.rows.div_ceil(8) as u64;
        let values = match &self.values {
            EncodedValues::RleI64(r) => (r.len() * 16) as u64,
            EncodedValues::RleF64(r) => (r.len() * 16) as u64,
            EncodedValues::RleBool(r) => (r.len() * 9) as u64,
            EncodedValues::Dict { dict, codes } => {
                dict.iter().map(|s| s.len() as u64 + 4).sum::<u64>() + (codes.len() * 4) as u64
            }
        };
        validity + values
    }

    /// Fully materialize the plain column (the eager path an encoded scan
    /// falls back to when every row survives or a kernel declines).
    pub fn decode(&self) -> Column {
        let validity = self.validity.clone();
        match &self.values {
            EncodedValues::RleI64(runs) => {
                let mut data = Vec::with_capacity(self.rows);
                for &(count, v) in runs {
                    data.resize(data.len() + count as usize, v);
                }
                Column::Int64 { data, validity }
            }
            EncodedValues::RleF64(runs) => {
                let mut data = Vec::with_capacity(self.rows);
                for &(count, bits) in runs {
                    data.resize(data.len() + count as usize, f64::from_bits(bits));
                }
                Column::Float64 { data, validity }
            }
            EncodedValues::RleBool(runs) => {
                let mut data = Vec::with_capacity(self.rows);
                for &(count, v) in runs {
                    data.resize(data.len() + count as usize, v);
                }
                Column::Bool { data, validity }
            }
            EncodedValues::Dict { dict, codes } => Column::Varchar {
                data: codes.iter().map(|&c| dict[c as usize].clone()).collect(),
                validity,
            },
        }
    }

    /// Late materialization: decode only the rows whose bit is set in
    /// `mask`. Runs are walked with a monotone cursor, so the cost is
    /// O(selected + runs) rather than O(rows).
    pub fn filter(&self, mask: &Bitmap) -> Column {
        assert_eq!(mask.len(), self.rows, "filter mask length mismatch");
        let selected = mask.count_set();
        let mut validity = Bitmap::all_clear(selected);
        let mut out_i = 0usize;
        match &self.values {
            EncodedValues::RleI64(runs) => {
                let mut data = Vec::with_capacity(selected);
                let mut cursor = RunCursor::new(runs);
                mask.for_each_set(|i| {
                    data.push(cursor.value_at(i));
                    if self.validity.get(i) {
                        validity.set(out_i);
                    }
                    out_i += 1;
                });
                Column::Int64 { data, validity }
            }
            EncodedValues::RleF64(runs) => {
                let mut data = Vec::with_capacity(selected);
                let mut cursor = RunCursor::new(runs);
                mask.for_each_set(|i| {
                    data.push(f64::from_bits(cursor.value_at(i)));
                    if self.validity.get(i) {
                        validity.set(out_i);
                    }
                    out_i += 1;
                });
                Column::Float64 { data, validity }
            }
            EncodedValues::RleBool(runs) => {
                let mut data = Vec::with_capacity(selected);
                let mut cursor = RunCursor::new(runs);
                mask.for_each_set(|i| {
                    data.push(cursor.value_at(i));
                    if self.validity.get(i) {
                        validity.set(out_i);
                    }
                    out_i += 1;
                });
                Column::Bool { data, validity }
            }
            EncodedValues::Dict { dict, codes } => {
                let mut data = Vec::with_capacity(selected);
                mask.for_each_set(|i| {
                    data.push(dict[codes[i] as usize].clone());
                    if self.validity.get(i) {
                        validity.set(out_i);
                    }
                    out_i += 1;
                });
                Column::Varchar { data, validity }
            }
        }
    }
}

/// Monotone run-to-row cursor: `value_at` must be called with ascending row
/// indices (exactly what [`Bitmap::for_each_set`] yields).
struct RunCursor<'a, T: Copy> {
    runs: &'a [(u64, T)],
    idx: usize,
    end: u64,
}

impl<'a, T: Copy> RunCursor<'a, T> {
    fn new(runs: &'a [(u64, T)]) -> Self {
        let end = runs.first().map_or(0, |r| r.0);
        RunCursor { runs, idx: 0, end }
    }

    #[inline]
    fn value_at(&mut self, row: usize) -> T {
        while row as u64 >= self.end {
            self.idx += 1;
            self.end += self.runs[self.idx].0;
        }
        self.runs[self.idx].1
    }
}

/// One column as a scan produced it: decoded eagerly, or kept encoded for
/// compressed execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ScanColumn {
    Decoded(Column),
    Encoded(EncodedColumn),
}

impl ScanColumn {
    pub fn len(&self) -> usize {
        match self {
            ScanColumn::Decoded(c) => c.len(),
            ScanColumn::Encoded(e) => e.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn data_type(&self) -> DataType {
        match self {
            ScanColumn::Decoded(c) => c.data_type(),
            ScanColumn::Encoded(e) => e.data_type(),
        }
    }

    /// In-memory footprint at whatever form the column is held in.
    pub fn byte_size(&self) -> u64 {
        match self {
            ScanColumn::Decoded(c) => c.byte_size(),
            ScanColumn::Encoded(e) => e.byte_size(),
        }
    }
}

/// The product of an encoded scan: per-column encoded-or-decoded data plus
/// the schema. Mirrors [`crate::Batch`] closely enough that the executor can
/// filter, late-materialize, or hand columns to encoded kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedBatch {
    schema: Schema,
    rows: usize,
    cols: Vec<ScanColumn>,
}

impl EncodedBatch {
    pub fn new(schema: Schema, rows: usize, cols: Vec<ScanColumn>) -> Result<EncodedBatch> {
        if schema.len() != cols.len() {
            return Err(ColumnarError::LengthMismatch {
                expected: schema.len(),
                found: cols.len(),
            });
        }
        for (f, c) in schema.fields().iter().zip(&cols) {
            if c.len() != rows {
                return Err(ColumnarError::LengthMismatch {
                    expected: rows,
                    found: c.len(),
                });
            }
            if c.data_type() != f.dtype {
                return Err(ColumnarError::TypeMismatch {
                    expected: f.dtype,
                    found: c.data_type(),
                });
            }
        }
        Ok(EncodedBatch { schema, rows, cols })
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn num_rows(&self) -> usize {
        self.rows
    }

    pub fn num_columns(&self) -> usize {
        self.cols.len()
    }

    pub fn columns(&self) -> &[ScanColumn] {
        &self.cols
    }

    /// Column lookup by name (case-insensitive, like [`Schema::index_of`]).
    pub fn column_by_name(&self, name: &str) -> Result<&ScanColumn> {
        let idx = self.schema.index_of(name)?;
        Ok(&self.cols[idx])
    }

    /// Number of columns held in encoded form.
    pub fn num_encoded(&self) -> usize {
        self.cols
            .iter()
            .filter(|c| matches!(c, ScanColumn::Encoded(_)))
            .count()
    }

    /// In-memory footprint with encoded columns at encoded size — what the
    /// encoded cache tier charges.
    pub fn byte_size(&self) -> u64 {
        self.cols.iter().map(|c| c.byte_size()).sum()
    }

    /// Materialize a plain [`crate::Batch`] of the rows selected by `mask`,
    /// restricted to `subset` columns when given (names matched
    /// case-insensitively). Returns the batch plus the number of values that
    /// had to be expanded out of *encoded* columns — the late-materialization
    /// work the cost ledger charges (already-decoded columns just gather).
    pub fn materialize(
        &self,
        mask: &Bitmap,
        subset: Option<&HashSet<String>>,
    ) -> Result<(crate::Batch, u64)> {
        assert_eq!(mask.len(), self.rows, "materialize mask length mismatch");
        let keep = |name: &str| match subset {
            None => true,
            Some(set) => set.iter().any(|w| w.eq_ignore_ascii_case(name)),
        };
        let selected = mask.count_set();
        let all = mask.all_set();
        let mut fields = Vec::new();
        let mut columns = Vec::new();
        let mut encoded_values = 0u64;
        for (f, c) in self.schema.fields().iter().zip(&self.cols) {
            if !keep(&f.name) {
                continue;
            }
            let col = match c {
                ScanColumn::Decoded(col) => {
                    if all {
                        col.clone()
                    } else {
                        col.filter(mask)?
                    }
                }
                ScanColumn::Encoded(e) => {
                    encoded_values += selected as u64;
                    if all {
                        e.decode()
                    } else {
                        e.filter(mask)
                    }
                }
            };
            fields.push(crate::Field::new(f.name.clone(), f.dtype));
            columns.push(col);
        }
        let batch = crate::Batch::new(Schema::new(fields), columns)?;
        Ok((batch, encoded_values))
    }
}

/// If `values` is an RLE column whose run values are non-decreasing (no NaN
/// for floats), the per-run row start offsets; otherwise `None`. One pass at
/// parse time buys predicate kernels binary-searched run boundaries.
fn sorted_run_starts(values: &EncodedValues) -> Option<Vec<u64>> {
    fn starts_of<T, F: Fn(&T) -> u64>(runs: &[T], count: F) -> Vec<u64> {
        let mut starts = Vec::with_capacity(runs.len() + 1);
        let mut acc = 0u64;
        starts.push(0);
        for r in runs {
            acc += count(r);
            starts.push(acc);
        }
        starts
    }
    match values {
        EncodedValues::RleI64(rs) => {
            if !rs.windows(2).all(|w| w[0].1 <= w[1].1) {
                return None;
            }
            Some(starts_of(rs, |r| r.0))
        }
        EncodedValues::RleF64(rs) => {
            if rs.iter().any(|(_, b)| f64::from_bits(*b).is_nan()) {
                return None;
            }
            if !rs
                .windows(2)
                .all(|w| f64::from_bits(w[0].1) <= f64::from_bits(w[1].1))
            {
                return None;
            }
            Some(starts_of(rs, |r| r.0))
        }
        _ => None,
    }
}

fn read_runs<T: Copy>(
    rows: usize,
    bytes: &[u8],
    pos: &mut usize,
    mut read_value: impl FnMut(&[u8], &mut usize) -> Result<T>,
) -> Result<Vec<(u64, T)>> {
    let mut runs = Vec::new();
    let mut total = 0usize;
    while total < rows {
        let count = read_run_length(bytes, pos, rows - total, total)?;
        let v = read_value(bytes, pos)?;
        runs.push((count as u64, v));
        total += count;
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnBuilder;
    use crate::encoding::encode_column;
    use crate::value::Value;

    fn encode_and_parse(col: &Column, enc: Encoding) -> EncodedColumn {
        let mut buf = Vec::new();
        encode_column(col, enc, &mut buf).unwrap();
        let mut pos = 0;
        let ec = EncodedColumn::from_payload(col.data_type(), enc, col.len(), &buf, &mut pos)
            .unwrap()
            .expect("rle/dict payloads parse to encoded form");
        assert_eq!(pos, buf.len(), "parser must consume the payload exactly");
        ec
    }

    #[test]
    fn rle_int_parse_decode_roundtrip() {
        let col = Column::from_i64(vec![5, 5, 5, -2, -2, 9, 9, 9, 9]);
        let ec = encode_and_parse(&col, Encoding::Rle);
        assert!(matches!(ec.values(), EncodedValues::RleI64(runs) if runs.len() == 3));
        assert_eq!(ec.decode(), col);
    }

    #[test]
    fn dict_parse_decode_roundtrip() {
        let col = Column::from_strings(vec!["a", "b", "a", "a", "c", "b"]);
        let ec = encode_and_parse(&col, Encoding::Dictionary);
        assert_eq!(ec.dict().map(|(dict, _)| dict.len()), Some(3));
        assert_eq!(ec.decode(), col);
    }

    #[test]
    fn plain_and_delta_payloads_stay_decoded() {
        let col = Column::from_i64(vec![1, 2, 3]);
        for enc in [Encoding::Plain, Encoding::DeltaVarint] {
            let mut buf = Vec::new();
            encode_column(&col, enc, &mut buf).unwrap();
            let mut pos = 0;
            assert!(
                EncodedColumn::from_payload(DataType::Int64, enc, 3, &buf, &mut pos)
                    .unwrap()
                    .is_none(),
                "{enc:?}"
            );
        }
    }

    #[test]
    fn filter_matches_decode_then_filter() {
        let mut b = ColumnBuilder::new(DataType::Float64);
        for i in 0..50 {
            if i % 7 == 3 {
                b.push_null();
            } else {
                b.push(Value::Float64((i / 10) as f64)).unwrap();
            }
        }
        let col = b.finish();
        let ec = encode_and_parse(&col, Encoding::Rle);
        let mask = Bitmap::from_fn(50, |i| i % 3 == 0);
        assert_eq!(ec.filter(&mask), col.filter(&mask).unwrap());
        // Empty mask and full mask edges.
        assert_eq!(ec.filter(&Bitmap::all_clear(50)).len(), 0);
        assert_eq!(ec.filter(&Bitmap::all_valid(50)), col);
    }

    #[test]
    fn dict_filter_matches_decode_then_filter() {
        let col = Column::from_strings((0..40).map(|i| format!("g{}", i % 4)).collect());
        let ec = encode_and_parse(&col, Encoding::Dictionary);
        let mask = Bitmap::from_fn(40, |i| i % 5 != 0);
        assert_eq!(ec.filter(&mask), col.filter(&mask).unwrap());
    }

    #[test]
    fn encoded_byte_size_beats_decoded_on_low_cardinality() {
        let col = Column::from_i64(vec![7; 10_000]);
        let ec = encode_and_parse(&col, Encoding::Rle);
        assert!(ec.byte_size() * 20 < col.byte_size());
    }

    #[test]
    fn corrupt_runs_and_codes_rejected() {
        let col = Column::from_i64(vec![1, 1, 1]);
        let mut buf = Vec::new();
        encode_column(&col, Encoding::Rle, &mut buf).unwrap();
        buf[16] = 200; // run length beyond the row count
        let mut pos = 0;
        assert!(
            EncodedColumn::from_payload(DataType::Int64, Encoding::Rle, 3, &buf, &mut pos).is_err()
        );
    }

    #[test]
    fn batch_materialize_filters_subset() {
        let schema = Schema::of(&[("g", DataType::Varchar), ("x", DataType::Int64)]);
        let g = Column::from_strings(vec!["a", "b", "a", "b"]);
        let x = Column::from_i64(vec![1, 2, 3, 4]);
        let eg = encode_and_parse(&g, Encoding::Dictionary);
        let eb = EncodedBatch::new(
            schema,
            4,
            vec![ScanColumn::Encoded(eg), ScanColumn::Decoded(x.clone())],
        )
        .unwrap();
        assert_eq!(eb.num_encoded(), 1);
        let mask = Bitmap::from_bools(&[true, false, false, true]);
        let subset: HashSet<String> = ["X".to_string()].into_iter().collect();
        let (narrow, enc_vals) = eb.materialize(&mask, Some(&subset)).unwrap();
        assert_eq!(narrow.schema().names(), vec!["x"]);
        assert_eq!(enc_vals, 0, "only the decoded column was gathered");
        assert_eq!(narrow.column(0).get(1), Value::Int64(4));
        let (full, enc_vals) = eb.materialize(&mask, None).unwrap();
        assert_eq!(enc_vals, 2, "two surviving rows expanded from the dict");
        assert_eq!(
            full.column_by_name("g").unwrap().get(0),
            Value::Varchar("a".into())
        );
    }
}
