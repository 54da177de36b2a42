//! Column encodings.
//!
//! Vertica stores columns encoded and compressed; part of the export cost the
//! paper describes is "read data from the local filesystem, deserialize and
//! decompress" (Section 7.3.2). Four encodings are supported:
//!
//! * [`Encoding::Plain`] — raw little-endian values (strings length-prefixed),
//! * [`Encoding::Rle`] — run-length `(count, value)` pairs; wins on low-
//!   cardinality or sorted columns,
//! * [`Encoding::Dictionary`] — distinct values + varint indices; wins on
//!   repeated strings,
//! * [`Encoding::DeltaVarint`] — zig-zag varint deltas; wins on
//!   near-monotonic integers (row ids, timestamps).
//!
//! Every encoded payload starts with the validity bitmap, so NULLs survive
//! any encoding. [`choose_encoding`] samples the column and picks the
//! smallest estimate.
//!
//! # Compressed execution
//!
//! Decoding is not the only way out of an encoded payload. The
//! [`crate::encoded`] module parses Rle and Dictionary payloads into their
//! *run/code* form ([`crate::EncodedColumn`]) so predicate kernels can
//! evaluate once per run / once per distinct code, and so columns can be
//! **late-materialized** — expanded only for rows that survived the filter.
//! The decision rule lives at the scan ([`crate::decode_batch_encoded`]):
//! Rle and Dictionary columns stay encoded, Plain and DeltaVarint columns
//! (whose run structure is already gone) decode eagerly as before. Both
//! paths read the identical payload bytes, so the choice is per-column and
//! invisible to results.

use crate::bitmap::{read_u64s_le, write_u64s_le, Bitmap};
use crate::column::Column;
use crate::error::{ColumnarError, Result};
use crate::value::DataType;

/// Available encodings. The numeric discriminants are part of the block
/// format and must not change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    Plain = 0,
    Rle = 1,
    Dictionary = 2,
    DeltaVarint = 3,
}

impl Encoding {
    pub fn from_u8(v: u8) -> Result<Encoding> {
        match v {
            0 => Ok(Encoding::Plain),
            1 => Ok(Encoding::Rle),
            2 => Ok(Encoding::Dictionary),
            3 => Ok(Encoding::DeltaVarint),
            other => Err(ColumnarError::Corrupt(format!("unknown encoding {other}"))),
        }
    }
}

// ---------------------------------------------------------------- varints

pub(crate) fn write_uvarint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Bytes [`write_uvarint`] emits for `v`.
pub(crate) fn uvarint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

pub(crate) fn read_uvarint(bytes: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes
            .get(*pos)
            .ok_or_else(|| ColumnarError::Corrupt("varint past end".into()))?;
        *pos += 1;
        if shift >= 64 {
            return Err(ColumnarError::Corrupt("varint too long".into()));
        }
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// --------------------------------------------------------------- encoding

/// Whether `enc` can represent a column of `dtype`.
pub fn supports(dtype: DataType, enc: Encoding) -> bool {
    matches!(
        (dtype, enc),
        (_, Encoding::Plain)
            | (
                DataType::Int64 | DataType::Float64 | DataType::Bool,
                Encoding::Rle
            )
            | (DataType::Varchar, Encoding::Dictionary)
            | (DataType::Int64, Encoding::DeltaVarint)
    )
}

/// Encode `col` with `enc`, appending to `out` (untouched on error).
pub fn encode_column(col: &Column, enc: Encoding, out: &mut Vec<u8>) -> Result<()> {
    if !supports(col.data_type(), enc) {
        return Err(ColumnarError::Corrupt(format!(
            "encoding {enc:?} not supported for {:?}",
            col.data_type()
        )));
    }
    col.validity().to_bytes(out);
    match (col, enc) {
        (Column::Int64 { data, .. }, Encoding::Plain) => {
            write_u64s_le(data.iter().map(|&v| v as u64), out);
        }
        (Column::Int64 { data, .. }, Encoding::Rle) => {
            encode_runs(data.iter().copied(), out, |v, o| {
                write_uvarint(zigzag(v), o)
            });
        }
        (Column::Int64 { data, .. }, Encoding::DeltaVarint) => {
            let mut prev = 0i64;
            for &v in data {
                write_uvarint(zigzag(v.wrapping_sub(prev)), out);
                prev = v;
            }
        }
        (Column::Float64 { data, .. }, Encoding::Plain) => {
            write_u64s_le(data.iter().map(|v| v.to_bits()), out);
        }
        (Column::Float64 { data, .. }, Encoding::Rle) => {
            // Runs compare bit patterns so NaNs and -0.0 round-trip exactly.
            encode_runs(data.iter().map(|v| v.to_bits()), out, |v, o| {
                o.extend_from_slice(&v.to_le_bytes())
            });
        }
        (Column::Bool { data, .. }, Encoding::Plain) => {
            Bitmap::from_bools(data).to_bytes(out);
        }
        (Column::Bool { data, .. }, Encoding::Rle) => {
            encode_runs(data.iter().copied(), out, |v, o| o.push(v as u8));
        }
        (Column::Varchar { data, .. }, Encoding::Plain) => {
            for s in data {
                write_uvarint(s.len() as u64, out);
                out.extend_from_slice(s.as_bytes());
            }
        }
        (Column::Varchar { data, .. }, Encoding::Dictionary) => {
            let mut dict: Vec<&str> = Vec::new();
            let mut index = std::collections::HashMap::new();
            let mut codes = Vec::with_capacity(data.len());
            for s in data {
                let code = *index.entry(s.as_str()).or_insert_with(|| {
                    dict.push(s.as_str());
                    dict.len() - 1
                });
                codes.push(code as u64);
            }
            write_uvarint(dict.len() as u64, out);
            for s in &dict {
                write_uvarint(s.len() as u64, out);
                out.extend_from_slice(s.as_bytes());
            }
            for c in codes {
                write_uvarint(c, out);
            }
        }
        _ => unreachable!("supports() checked above"),
    }
    Ok(())
}

/// How many bytes [`encode_column`] appends for `(col, enc)`, computed
/// without encoding: exact for every encoding except Dictionary, where it is
/// an upper bound (as if every string were distinct). The block writer sizes
/// its one output buffer from this.
pub(crate) fn encoded_len_bound(col: &Column, enc: Encoding) -> usize {
    let rows = col.len();
    let bitmap = 8 + 8 * rows.div_ceil(64);
    let strings = |data: &[String]| -> usize {
        data.iter()
            .map(|s| uvarint_len(s.len() as u64) + s.len())
            .sum()
    };
    let mut values = 0usize;
    match (col, enc) {
        (Column::Int64 { .. } | Column::Float64 { .. }, Encoding::Plain) => values = 8 * rows,
        (Column::Bool { .. }, Encoding::Plain) => values = bitmap,
        (Column::Varchar { data, .. }, Encoding::Plain) => values = strings(data),
        (Column::Int64 { data, .. }, Encoding::Rle) => {
            for_each_run(data.iter().copied(), |v, n| {
                values += uvarint_len(n) + uvarint_len(zigzag(v))
            })
        }
        (Column::Float64 { data, .. }, Encoding::Rle) => {
            for_each_run(data.iter().map(|v| v.to_bits()), |_, n| {
                values += uvarint_len(n) + 8
            })
        }
        (Column::Bool { data, .. }, Encoding::Rle) => {
            for_each_run(data.iter().copied(), |_, n| values += uvarint_len(n) + 1)
        }
        (Column::Int64 { data, .. }, Encoding::DeltaVarint) => {
            let mut prev = 0i64;
            for &v in data {
                values += uvarint_len(zigzag(v.wrapping_sub(prev)));
                prev = v;
            }
        }
        (Column::Varchar { data, .. }, Encoding::Dictionary) => {
            values = uvarint_len(rows as u64) + strings(data) + rows * uvarint_len(rows as u64)
        }
        // Unsupported pair: `encode_column` writes nothing.
        _ => return 0,
    }
    bitmap + values
}

/// Call `f(value, length)` for each maximal run of equal adjacent values.
fn for_each_run<T: PartialEq + Copy>(values: impl Iterator<Item = T>, mut f: impl FnMut(T, u64)) {
    let mut current: Option<(T, u64)> = None;
    for v in values {
        match &mut current {
            Some((cv, count)) if *cv == v => *count += 1,
            _ => {
                if let Some((cv, count)) = current.replace((v, 1)) {
                    f(cv, count);
                }
            }
        }
    }
    if let Some((cv, count)) = current {
        f(cv, count);
    }
}

fn encode_runs<T: PartialEq + Copy>(
    values: impl Iterator<Item = T>,
    out: &mut Vec<u8>,
    mut write_value: impl FnMut(T, &mut Vec<u8>),
) {
    for_each_run(values, |v, count| {
        write_uvarint(count, out);
        write_value(v, out);
    });
}

// --------------------------------------------------------------- decoding

/// Decode a column of `rows` values of `dtype` encoded with `enc` from
/// `bytes`, starting at `*pos`.
pub fn decode_column(
    dtype: DataType,
    enc: Encoding,
    rows: usize,
    bytes: &[u8],
    pos: &mut usize,
) -> Result<Column> {
    let validity = Bitmap::from_bytes(bytes, pos)
        .ok_or_else(|| ColumnarError::Corrupt("validity bitmap truncated".into()))?;
    if validity.len() != rows {
        return Err(ColumnarError::Corrupt(format!(
            "validity length {} != row count {rows}",
            validity.len()
        )));
    }
    let col = match (dtype, enc) {
        (DataType::Int64, Encoding::Plain) => Column::Int64 {
            data: read_plain_words(bytes, pos, rows)?
                .map(|v| v as i64)
                .collect(),
            validity,
        },
        (DataType::Int64, Encoding::Rle) => {
            let data = decode_runs(rows, bytes, pos, |b, p| Ok(unzigzag(read_uvarint(b, p)?)))?;
            Column::Int64 { data, validity }
        }
        (DataType::Int64, Encoding::DeltaVarint) => {
            check_count(rows, bytes, *pos, "delta values")?;
            let mut data = Vec::with_capacity(rows);
            let mut prev = 0i64;
            for _ in 0..rows {
                prev = prev.wrapping_add(unzigzag(read_uvarint(bytes, pos)?));
                data.push(prev);
            }
            Column::Int64 { data, validity }
        }
        (DataType::Float64, Encoding::Plain) => Column::Float64 {
            data: read_plain_words(bytes, pos, rows)?
                .map(f64::from_bits)
                .collect(),
            validity,
        },
        (DataType::Float64, Encoding::Rle) => {
            let bits = decode_runs(rows, bytes, pos, |b, p| read_i64_le(b, p).map(|v| v as u64))?;
            Column::Float64 {
                data: bits.into_iter().map(f64::from_bits).collect(),
                validity,
            }
        }
        (DataType::Bool, Encoding::Plain) => {
            let bits = Bitmap::from_bytes(bytes, pos)
                .ok_or_else(|| ColumnarError::Corrupt("bool bitmap truncated".into()))?;
            if bits.len() != rows {
                return Err(ColumnarError::Corrupt("bool bitmap length mismatch".into()));
            }
            Column::Bool {
                data: (0..rows).map(|i| bits.get(i)).collect(),
                validity,
            }
        }
        (DataType::Bool, Encoding::Rle) => {
            let data = decode_runs(rows, bytes, pos, |b, p| {
                let byte = *b
                    .get(*p)
                    .ok_or_else(|| ColumnarError::Corrupt("rle bool past end".into()))?;
                *p += 1;
                Ok(byte != 0)
            })?;
            Column::Bool { data, validity }
        }
        (DataType::Varchar, Encoding::Plain) => {
            check_count(rows, bytes, *pos, "strings")?;
            let mut data = Vec::with_capacity(rows);
            for _ in 0..rows {
                data.push(read_string(bytes, pos)?);
            }
            Column::Varchar { data, validity }
        }
        (DataType::Varchar, Encoding::Dictionary) => {
            let dict = read_dictionary(bytes, pos)?;
            check_count(rows, bytes, *pos, "dictionary codes")?;
            let mut data = Vec::with_capacity(rows);
            for _ in 0..rows {
                let code = read_uvarint(bytes, pos)? as usize;
                let s = dict.get(code).ok_or_else(|| {
                    ColumnarError::Corrupt(format!("dict code {code} out of range"))
                })?;
                data.push(s.clone());
            }
            Column::Varchar { data, validity }
        }
        (dt, e) => {
            return Err(ColumnarError::Corrupt(format!(
                "encoding {e:?} not supported for {dt:?}"
            )))
        }
    };
    Ok(col)
}

/// Expand `(count, value)` runs into `rows` values. `rows` has already been
/// matched against the validity bitmap the payload carries, so it is backed
/// by `rows / 8` bytes of input.
fn decode_runs<T: Copy>(
    rows: usize,
    bytes: &[u8],
    pos: &mut usize,
    mut read_value: impl FnMut(&[u8], &mut usize) -> Result<T>,
) -> Result<Vec<T>> {
    let mut data = Vec::with_capacity(rows);
    while data.len() < rows {
        let count = read_run_length(bytes, pos, rows - data.len(), data.len())?;
        let v = read_value(bytes, pos)?;
        data.resize(data.len() + count, v);
    }
    Ok(data)
}

/// One run's length: non-zero and no longer than the `remaining` rows
/// (compared without adding, so a 2⁶⁴-sized count cannot wrap past the check).
pub(crate) fn read_run_length(
    bytes: &[u8],
    pos: &mut usize,
    remaining: usize,
    at_row: usize,
) -> Result<usize> {
    let count = read_uvarint(bytes, pos)?;
    if count == 0 || count > remaining as u64 {
        return Err(ColumnarError::Corrupt(format!(
            "bad run length {count} at row {at_row}"
        )));
    }
    Ok(count as usize)
}

/// A count read from (or implied by) the bytes must be backed by the bytes
/// that are left — every counted item here takes at least one byte — before
/// anything is allocated for it. A crc only proves the bytes are the ones
/// that were written, not that whoever wrote them was honest.
pub(crate) fn check_count(count: usize, bytes: &[u8], pos: usize, what: &str) -> Result<()> {
    let left = bytes.len().saturating_sub(pos);
    if count > left {
        return Err(ColumnarError::Corrupt(format!(
            "{count} {what} claimed with {left} bytes left"
        )));
    }
    Ok(())
}

/// `rows` fixed-width plain values: one bounds check for the whole run.
fn read_plain_words<'a>(
    bytes: &'a [u8],
    pos: &mut usize,
    rows: usize,
) -> Result<impl ExactSizeIterator<Item = u64> + 'a> {
    read_u64s_le(bytes, pos, rows)
        .ok_or_else(|| ColumnarError::Corrupt("plain values past end".into()))
}

/// A dictionary payload's distinct strings (length-checked before the
/// allocation it sizes).
pub(crate) fn read_dictionary(bytes: &[u8], pos: &mut usize) -> Result<Vec<String>> {
    let dict_len = usize::try_from(read_uvarint(bytes, pos)?)
        .map_err(|_| ColumnarError::Corrupt("dictionary too large".into()))?;
    check_count(dict_len, bytes, *pos, "dictionary entries")?;
    let mut dict = Vec::with_capacity(dict_len);
    for _ in 0..dict_len {
        dict.push(read_string(bytes, pos)?);
    }
    Ok(dict)
}

pub(crate) fn read_i64_le(bytes: &[u8], pos: &mut usize) -> Result<i64> {
    let end = *pos + 8;
    let slice = bytes
        .get(*pos..end)
        .ok_or_else(|| ColumnarError::Corrupt("i64 past end".into()))?;
    *pos = end;
    Ok(i64::from_le_bytes(slice.try_into().expect("8 bytes")))
}

pub(crate) fn read_string(bytes: &[u8], pos: &mut usize) -> Result<String> {
    let len = read_uvarint(bytes, pos)? as usize;
    let end = pos
        .checked_add(len)
        .ok_or_else(|| ColumnarError::Corrupt("string length overflow".into()))?;
    let slice = bytes
        .get(*pos..end)
        .ok_or_else(|| ColumnarError::Corrupt("string past end".into()))?;
    *pos = end;
    String::from_utf8(slice.to_vec())
        .map_err(|_| ColumnarError::Corrupt("invalid utf8 in string".into()))
}

// -------------------------------------------------------------- selection

/// Pick an encoding by sampling up to 1024 values: count runs and distinct
/// strings, and estimate each candidate's size.
pub fn choose_encoding(col: &Column) -> Encoding {
    let n = col.len();
    if n == 0 {
        return Encoding::Plain;
    }
    let sample = n.min(1024);
    match col {
        Column::Int64 { data, .. } => {
            let runs = count_runs(&data[..sample]);
            // Sorted-ish? deltas small ⇒ delta-varint.
            let sorted = data[..sample].windows(2).filter(|w| w[1] >= w[0]).count();
            if runs * 8 < sample {
                Encoding::Rle
            } else if sorted * 10 >= (sample.saturating_sub(1)) * 9 {
                Encoding::DeltaVarint
            } else {
                Encoding::Plain
            }
        }
        Column::Float64 { data, .. } => {
            let bits: Vec<u64> = data[..sample].iter().map(|v| v.to_bits()).collect();
            if count_runs(&bits) * 8 < sample {
                Encoding::Rle
            } else {
                Encoding::Plain
            }
        }
        Column::Bool { data, .. } => {
            if count_runs(&data[..sample]) * 4 < sample {
                Encoding::Rle
            } else {
                Encoding::Plain
            }
        }
        Column::Varchar { data, .. } => {
            let distinct: std::collections::HashSet<&str> =
                data[..sample].iter().map(String::as_str).collect();
            if distinct.len() * 4 < sample {
                Encoding::Dictionary
            } else {
                Encoding::Plain
            }
        }
    }
}

fn count_runs<T: PartialEq>(data: &[T]) -> usize {
    if data.is_empty() {
        return 0;
    }
    1 + data.windows(2).filter(|w| w[0] != w[1]).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnBuilder;
    use crate::value::Value;

    fn roundtrip(col: &Column, enc: Encoding) -> Column {
        let mut buf = Vec::new();
        encode_column(col, enc, &mut buf).unwrap();
        let mut pos = 0;
        let back = decode_column(col.data_type(), enc, col.len(), &buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len(), "decoder must consume the payload exactly");
        back
    }

    #[test]
    fn int_roundtrips_all_encodings() {
        let col = Column::from_i64(vec![5, 5, 5, -9, 0, i64::MAX, i64::MIN, 7, 7]);
        for enc in [Encoding::Plain, Encoding::Rle, Encoding::DeltaVarint] {
            assert_eq!(roundtrip(&col, enc), col, "{enc:?}");
        }
    }

    #[test]
    fn float_roundtrips_including_nan() {
        let col = Column::from_f64(vec![1.5, 1.5, f64::NAN, -0.0, f64::INFINITY]);
        for enc in [Encoding::Plain, Encoding::Rle] {
            let back = roundtrip(&col, enc);
            // NaN != NaN under PartialEq; compare bit patterns.
            let a: Vec<u64> = col
                .f64_data()
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let b: Vec<u64> = back
                .f64_data()
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(a, b, "{enc:?}");
        }
    }

    #[test]
    fn bool_and_string_roundtrips() {
        let col = Column::from_bool(vec![true, true, false, true]);
        for enc in [Encoding::Plain, Encoding::Rle] {
            assert_eq!(roundtrip(&col, enc), col);
        }
        let col = Column::from_strings(vec!["a", "bb", "a", "", "ccc", "a"]);
        for enc in [Encoding::Plain, Encoding::Dictionary] {
            assert_eq!(roundtrip(&col, enc), col);
        }
    }

    #[test]
    fn nulls_survive_every_encoding() {
        let mut b = ColumnBuilder::new(DataType::Int64);
        b.push(Value::Int64(1)).unwrap();
        b.push_null();
        b.push(Value::Int64(1)).unwrap();
        let col = b.finish();
        for enc in [Encoding::Plain, Encoding::Rle, Encoding::DeltaVarint] {
            let back = roundtrip(&col, enc);
            assert_eq!(back.get(1), Value::Null, "{enc:?}");
            assert_eq!(back.null_count(), 1);
        }
    }

    #[test]
    fn rle_compresses_constant_columns() {
        let col = Column::from_i64(vec![42; 10_000]);
        let mut plain = Vec::new();
        encode_column(&col, Encoding::Plain, &mut plain).unwrap();
        let mut rle = Vec::new();
        encode_column(&col, Encoding::Rle, &mut rle).unwrap();
        assert!(
            rle.len() * 10 < plain.len(),
            "rle {} plain {}",
            rle.len(),
            plain.len()
        );
    }

    #[test]
    fn delta_compresses_sequential_ids() {
        let col = Column::from_i64((0..10_000).collect());
        let mut plain = Vec::new();
        encode_column(&col, Encoding::Plain, &mut plain).unwrap();
        let mut delta = Vec::new();
        encode_column(&col, Encoding::DeltaVarint, &mut delta).unwrap();
        // Each delta is one varint byte vs eight plain bytes; the shared
        // validity bitmap caps the overall ratio near 5×.
        assert!(delta.len() * 5 < plain.len());
    }

    #[test]
    fn heuristic_picks_sensible_encodings() {
        assert_eq!(
            choose_encoding(&Column::from_i64(vec![7; 5000])),
            Encoding::Rle
        );
        assert_eq!(
            choose_encoding(&Column::from_i64((0..5000).collect())),
            Encoding::DeltaVarint
        );
        let random: Vec<i64> = (0..5000)
            .map(|i| (i * 2_654_435_761i64) % 4999 - 2500)
            .collect();
        assert_eq!(choose_encoding(&Column::from_i64(random)), Encoding::Plain);
        assert_eq!(
            choose_encoding(&Column::from_strings(vec!["x"; 1000])),
            Encoding::Dictionary
        );
        assert_eq!(
            choose_encoding(&Column::empty(DataType::Int64)),
            Encoding::Plain
        );
    }

    #[test]
    fn unsupported_combination_errors() {
        let col = Column::from_f64(vec![1.0]);
        let mut buf = Vec::new();
        assert!(encode_column(&col, Encoding::Dictionary, &mut buf).is_err());
    }

    #[test]
    fn corrupt_run_lengths_rejected() {
        let col = Column::from_i64(vec![1, 1, 1]);
        let mut buf = Vec::new();
        encode_column(&col, Encoding::Rle, &mut buf).unwrap();
        // Patch the run length (first byte after the 8+8-byte bitmap header)
        // to exceed the row count.
        let bitmap_len = 16;
        buf[bitmap_len] = 200;
        let mut pos = 0;
        assert!(decode_column(DataType::Int64, Encoding::Rle, 3, &buf, &mut pos).is_err());
        // A run length near 2^64 must not wrap past the "fits in the rows
        // left" check after the first, honest run.
        let mut buf = buf[..bitmap_len].to_vec();
        for (count, value) in [(1, 1i64), (u64::MAX, 1)] {
            write_uvarint(count, &mut buf);
            write_uvarint(zigzag(value), &mut buf);
        }
        let mut pos = 0;
        assert!(decode_column(DataType::Int64, Encoding::Rle, 3, &buf, &mut pos).is_err());
    }

    #[test]
    fn encoded_len_bound_is_exact_except_for_dictionaries() {
        let mut nullable = ColumnBuilder::new(DataType::Int64);
        for i in 0..130 {
            if i % 7 == 0 {
                nullable.push_null();
            } else {
                nullable.push(Value::Int64(i / 9 * 1_000_003)).unwrap();
            }
        }
        let columns = [
            nullable.finish(),
            Column::from_i64(vec![i64::MIN, i64::MAX, 0, -1, -1, 63, 64, 8192]),
            Column::from_i64(vec![]),
            Column::from_f64(vec![0.0, -0.0, f64::NAN, f64::NAN, 2.5, 2.5]),
            Column::from_bool((0..100).map(|i| i / 30 % 2 == 0).collect()),
            Column::from_strings(vec!["", "a", "a", "bb", &"x".repeat(300)]),
        ];
        for col in &columns {
            for enc in [
                Encoding::Plain,
                Encoding::Rle,
                Encoding::Dictionary,
                Encoding::DeltaVarint,
            ] {
                let mut buf = Vec::new();
                if encode_column(col, enc, &mut buf).is_err() {
                    assert!(buf.is_empty(), "a refused encoding writes nothing");
                    continue;
                }
                let bound = encoded_len_bound(col, enc);
                if enc == Encoding::Dictionary {
                    assert!(bound >= buf.len(), "{enc:?} {:?}", col.data_type());
                } else {
                    assert_eq!(bound, buf.len(), "{enc:?} {:?}", col.data_type());
                }
            }
        }
    }

    #[test]
    fn varint_roundtrip_extremes() {
        for v in [0u64, 1, 127, 128, u64::MAX, 1 << 35] {
            let mut buf = Vec::new();
            write_uvarint(v, &mut buf);
            let mut pos = 0;
            assert_eq!(read_uvarint(&buf, &mut pos).unwrap(), v);
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
