//! Typed columns with validity bitmaps.

use crate::bitmap::Bitmap;
use crate::error::{ColumnarError, Result};
use crate::value::{DataType, Value};

/// A column of values, stored contiguously by type, with a validity bitmap
/// marking NULLs. NULL slots hold a default value in the data vector; readers
/// must consult the bitmap.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    Int64 { data: Vec<i64>, validity: Bitmap },
    Float64 { data: Vec<f64>, validity: Bitmap },
    Bool { data: Vec<bool>, validity: Bitmap },
    Varchar { data: Vec<String>, validity: Bitmap },
}

impl Column {
    /// An empty column of the given type.
    pub fn empty(dtype: DataType) -> Self {
        match dtype {
            DataType::Int64 => Column::Int64 {
                data: vec![],
                validity: Bitmap::new(),
            },
            DataType::Float64 => Column::Float64 {
                data: vec![],
                validity: Bitmap::new(),
            },
            DataType::Bool => Column::Bool {
                data: vec![],
                validity: Bitmap::new(),
            },
            DataType::Varchar => Column::Varchar {
                data: vec![],
                validity: Bitmap::new(),
            },
        }
    }

    /// Build a non-null Int64 column.
    pub fn from_i64(data: Vec<i64>) -> Self {
        let validity = Bitmap::all_valid(data.len());
        Column::Int64 { data, validity }
    }

    /// Build a non-null Float64 column.
    pub fn from_f64(data: Vec<f64>) -> Self {
        let validity = Bitmap::all_valid(data.len());
        Column::Float64 { data, validity }
    }

    /// Build a non-null Bool column.
    pub fn from_bool(data: Vec<bool>) -> Self {
        let validity = Bitmap::all_valid(data.len());
        Column::Bool { data, validity }
    }

    /// Build a non-null Varchar column.
    pub fn from_strings<S: Into<String>>(data: Vec<S>) -> Self {
        let data: Vec<String> = data.into_iter().map(Into::into).collect();
        let validity = Bitmap::all_valid(data.len());
        Column::Varchar { data, validity }
    }

    /// A column of `n` copies of `value` — the constant-column path for
    /// literal expressions, built with `vec!` fills instead of `n` boxed
    /// [`Value`] pushes through a type-checking builder. A NULL literal
    /// becomes an all-NULL Varchar column (the same default type the
    /// builder-based path used for untyped NULLs).
    pub fn from_value(value: &Value, n: usize) -> Column {
        match value {
            Value::Int64(v) => Column::Int64 {
                data: vec![*v; n],
                validity: Bitmap::all_valid(n),
            },
            Value::Float64(v) => Column::Float64 {
                data: vec![*v; n],
                validity: Bitmap::all_valid(n),
            },
            Value::Bool(v) => Column::Bool {
                data: vec![*v; n],
                validity: Bitmap::all_valid(n),
            },
            Value::Varchar(s) => Column::Varchar {
                data: vec![s.clone(); n],
                validity: Bitmap::all_valid(n),
            },
            Value::Null => Column::Varchar {
                data: vec![String::new(); n],
                validity: Bitmap::all_clear(n),
            },
        }
    }

    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int64 { .. } => DataType::Int64,
            Column::Float64 { .. } => DataType::Float64,
            Column::Bool { .. } => DataType::Bool,
            Column::Varchar { .. } => DataType::Varchar,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Column::Int64 { data, .. } => data.len(),
            Column::Float64 { data, .. } => data.len(),
            Column::Bool { data, .. } => data.len(),
            Column::Varchar { data, .. } => data.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn validity(&self) -> &Bitmap {
        match self {
            Column::Int64 { validity, .. }
            | Column::Float64 { validity, .. }
            | Column::Bool { validity, .. }
            | Column::Varchar { validity, .. } => validity,
        }
    }

    pub fn null_count(&self) -> usize {
        self.validity().count_null()
    }

    /// Value at row `i`. Panics past the end.
    pub fn get(&self, i: usize) -> Value {
        if !self.validity().get(i) {
            return Value::Null;
        }
        match self {
            Column::Int64 { data, .. } => Value::Int64(data[i]),
            Column::Float64 { data, .. } => Value::Float64(data[i]),
            Column::Bool { data, .. } => Value::Bool(data[i]),
            Column::Varchar { data, .. } => Value::Varchar(data[i].clone()),
        }
    }

    /// Numeric view of the whole column (ints widen, bools become 0/1,
    /// NULLs become NaN). This is the bridge into the ML layer, which works
    /// on dense doubles.
    pub fn to_f64_vec(&self) -> Vec<f64> {
        let n = self.len();
        let mut out = Vec::with_capacity(n);
        match self {
            Column::Int64 { data, validity } => {
                for i in 0..n {
                    out.push(if validity.get(i) {
                        data[i] as f64
                    } else {
                        f64::NAN
                    });
                }
            }
            Column::Float64 { data, validity } => {
                for i in 0..n {
                    out.push(if validity.get(i) { data[i] } else { f64::NAN });
                }
            }
            Column::Bool { data, validity } => {
                for i in 0..n {
                    out.push(if validity.get(i) {
                        data[i] as u8 as f64
                    } else {
                        f64::NAN
                    });
                }
            }
            Column::Varchar { .. } => out.resize(n, f64::NAN),
        }
        out
    }

    /// Direct access to Float64 data (fast path for vectorized kernels).
    pub fn f64_data(&self) -> Option<&[f64]> {
        match self {
            Column::Float64 { data, .. } => Some(data),
            _ => None,
        }
    }

    /// Direct access to Int64 data.
    pub fn i64_data(&self) -> Option<&[i64]> {
        match self {
            Column::Int64 { data, .. } => Some(data),
            _ => None,
        }
    }

    /// Zero-copy borrow of the column as `&[f64]`.
    ///
    /// Unlike [`Column::f64_data`] this is safe to hand to numeric kernels:
    /// it refuses columns with NULLs (whose data slots hold a placeholder
    /// 0.0 that [`Column::to_f64_vec`] would have turned into NaN), so a
    /// `Some` here reads exactly like the copying path.
    pub fn as_f64_slice(&self) -> Option<&[f64]> {
        match self {
            Column::Float64 { data, validity } if validity.count_null() == 0 => Some(data),
            _ => None,
        }
    }

    /// Zero-copy borrow of the column as `&[i64]`; `None` if the column is
    /// not Int64 or has NULLs (same contract as [`Column::as_f64_slice`]).
    pub fn as_i64_slice(&self) -> Option<&[i64]> {
        match self {
            Column::Int64 { data, validity } if validity.count_null() == 0 => Some(data),
            _ => None,
        }
    }

    /// Numeric view that borrows when it can: NULL-free Float64 columns
    /// come back as `Cow::Borrowed` (zero copy), everything else falls back
    /// to the [`Column::to_f64_vec`] copy (ints widen, bools become 0/1,
    /// NULLs become NaN).
    pub fn to_f64_cow(&self) -> std::borrow::Cow<'_, [f64]> {
        match self.as_f64_slice() {
            Some(s) => std::borrow::Cow::Borrowed(s),
            None => std::borrow::Cow::Owned(self.to_f64_vec()),
        }
    }

    /// Rows `[from, to)` as a new column.
    pub fn slice(&self, from: usize, to: usize) -> Column {
        assert!(from <= to && to <= self.len(), "slice out of range");
        match self {
            Column::Int64 { data, validity } => Column::Int64 {
                data: data[from..to].to_vec(),
                validity: validity.slice(from, to),
            },
            Column::Float64 { data, validity } => Column::Float64 {
                data: data[from..to].to_vec(),
                validity: validity.slice(from, to),
            },
            Column::Bool { data, validity } => Column::Bool {
                data: data[from..to].to_vec(),
                validity: validity.slice(from, to),
            },
            Column::Varchar { data, validity } => Column::Varchar {
                data: data[from..to].to_vec(),
                validity: validity.slice(from, to),
            },
        }
    }

    /// Append all rows of `other` (same type required).
    pub fn extend(&mut self, other: &Column) -> Result<()> {
        if self.data_type() != other.data_type() {
            return Err(ColumnarError::TypeMismatch {
                expected: self.data_type(),
                found: other.data_type(),
            });
        }
        match (self, other) {
            (
                Column::Int64 { data, validity },
                Column::Int64 {
                    data: od,
                    validity: ov,
                },
            ) => {
                data.extend_from_slice(od);
                validity.extend(ov);
            }
            (
                Column::Float64 { data, validity },
                Column::Float64 {
                    data: od,
                    validity: ov,
                },
            ) => {
                data.extend_from_slice(od);
                validity.extend(ov);
            }
            (
                Column::Bool { data, validity },
                Column::Bool {
                    data: od,
                    validity: ov,
                },
            ) => {
                data.extend_from_slice(od);
                validity.extend(ov);
            }
            (
                Column::Varchar { data, validity },
                Column::Varchar {
                    data: od,
                    validity: ov,
                },
            ) => {
                data.extend_from_slice(od);
                validity.extend(ov);
            }
            _ => unreachable!("type equality checked above"),
        }
        Ok(())
    }

    /// Keep rows where the selection `mask` is set. Typed gather loops —
    /// no boxed [`Value`]s — driven by [`Bitmap::for_each_set`], which
    /// skips all-clear words wholesale.
    pub fn filter(&self, mask: &Bitmap) -> Result<Column> {
        if mask.len() != self.len() {
            return Err(ColumnarError::LengthMismatch {
                expected: self.len(),
                found: mask.len(),
            });
        }
        let keep = mask.count_set();
        fn gather_validity(src: &Bitmap, mask: &Bitmap, keep: usize) -> Bitmap {
            if src.all_set() {
                return Bitmap::all_valid(keep);
            }
            let mut out = Bitmap::new();
            mask.for_each_set(|i| out.push(src.get(i)));
            out
        }
        Ok(match self {
            Column::Int64 { data, validity } => {
                let mut out = Vec::with_capacity(keep);
                mask.for_each_set(|i| out.push(data[i]));
                Column::Int64 {
                    data: out,
                    validity: gather_validity(validity, mask, keep),
                }
            }
            Column::Float64 { data, validity } => {
                let mut out = Vec::with_capacity(keep);
                mask.for_each_set(|i| out.push(data[i]));
                Column::Float64 {
                    data: out,
                    validity: gather_validity(validity, mask, keep),
                }
            }
            Column::Bool { data, validity } => {
                let mut out = Vec::with_capacity(keep);
                mask.for_each_set(|i| out.push(data[i]));
                Column::Bool {
                    data: out,
                    validity: gather_validity(validity, mask, keep),
                }
            }
            Column::Varchar { data, validity } => {
                let mut out = Vec::with_capacity(keep);
                mask.for_each_set(|i| out.push(data[i].clone()));
                Column::Varchar {
                    data: out,
                    validity: gather_validity(validity, mask, keep),
                }
            }
        })
    }

    /// Gather rows at `indices` (in order, duplicates allowed; panics past
    /// the end). Typed loops — no boxed [`Value`] per cell. A NULL source
    /// slot lands as the type's default value, exactly what
    /// [`ColumnBuilder::push`] writes for `Value::Null`: `Column`'s derived
    /// `PartialEq` compares the data under NULLs too.
    pub fn take(&self, indices: &[usize]) -> Column {
        fn gather<T: Clone + Default>(
            data: &[T],
            validity: &Bitmap,
            indices: &[usize],
        ) -> (Vec<T>, Bitmap) {
            if validity.all_set() {
                let out = indices.iter().map(|&i| data[i].clone()).collect();
                return (out, Bitmap::all_valid(indices.len()));
            }
            let mut valid = Bitmap::all_clear(indices.len());
            let out = indices
                .iter()
                .enumerate()
                .map(|(o, &i)| {
                    if validity.get(i) {
                        valid.set(o);
                        data[i].clone()
                    } else {
                        T::default()
                    }
                })
                .collect();
            (out, valid)
        }
        match self {
            Column::Int64 { data, validity } => {
                let (data, validity) = gather(data, validity, indices);
                Column::Int64 { data, validity }
            }
            Column::Float64 { data, validity } => {
                let (data, validity) = gather(data, validity, indices);
                Column::Float64 { data, validity }
            }
            Column::Bool { data, validity } => {
                let (data, validity) = gather(data, validity, indices);
                Column::Bool { data, validity }
            }
            Column::Varchar { data, validity } => {
                let (data, validity) = gather(data, validity, indices);
                Column::Varchar { data, validity }
            }
        }
    }

    /// Approximate in-memory footprint, in bytes. Drives the ledger's
    /// byte accounting for raw (unencoded) data.
    pub fn byte_size(&self) -> u64 {
        let values: u64 = match self {
            Column::Int64 { data, .. } => 8 * data.len() as u64,
            Column::Float64 { data, .. } => 8 * data.len() as u64,
            Column::Bool { data, .. } => data.len() as u64,
            Column::Varchar { data, .. } => data.iter().map(|s| s.len() as u64 + 4).sum(),
        };
        values + (self.len() as u64).div_ceil(8)
    }
}

/// Incremental column construction with type checking.
#[derive(Debug)]
pub struct ColumnBuilder {
    column: Column,
}

impl ColumnBuilder {
    pub fn new(dtype: DataType) -> Self {
        ColumnBuilder {
            column: Column::empty(dtype),
        }
    }

    pub fn with_capacity(dtype: DataType, cap: usize) -> Self {
        let column = match dtype {
            DataType::Int64 => Column::Int64 {
                data: Vec::with_capacity(cap),
                validity: Bitmap::new(),
            },
            DataType::Float64 => Column::Float64 {
                data: Vec::with_capacity(cap),
                validity: Bitmap::new(),
            },
            DataType::Bool => Column::Bool {
                data: Vec::with_capacity(cap),
                validity: Bitmap::new(),
            },
            DataType::Varchar => Column::Varchar {
                data: Vec::with_capacity(cap),
                validity: Bitmap::new(),
            },
        };
        ColumnBuilder { column }
    }

    pub fn data_type(&self) -> DataType {
        self.column.data_type()
    }

    pub fn len(&self) -> usize {
        self.column.len()
    }

    pub fn is_empty(&self) -> bool {
        self.column.is_empty()
    }

    /// Append a value. `Value::Null` appends a NULL; otherwise the type must
    /// match the builder's.
    pub fn push(&mut self, value: Value) -> Result<()> {
        match (&mut self.column, value) {
            (Column::Int64 { data, validity }, Value::Int64(v)) => {
                data.push(v);
                validity.push(true);
            }
            (Column::Float64 { data, validity }, Value::Float64(v)) => {
                data.push(v);
                validity.push(true);
            }
            // Ints widen into float columns (SQL numeric literals).
            (Column::Float64 { data, validity }, Value::Int64(v)) => {
                data.push(v as f64);
                validity.push(true);
            }
            (Column::Bool { data, validity }, Value::Bool(v)) => {
                data.push(v);
                validity.push(true);
            }
            (Column::Varchar { data, validity }, Value::Varchar(v)) => {
                data.push(v);
                validity.push(true);
            }
            (col, Value::Null) => match col {
                Column::Int64 { data, validity } => {
                    data.push(0);
                    validity.push(false);
                }
                Column::Float64 { data, validity } => {
                    data.push(0.0);
                    validity.push(false);
                }
                Column::Bool { data, validity } => {
                    data.push(false);
                    validity.push(false);
                }
                Column::Varchar { data, validity } => {
                    data.push(String::new());
                    validity.push(false);
                }
            },
            (col, v) => {
                return Err(ColumnarError::TypeMismatch {
                    expected: col.data_type(),
                    found: v.data_type().expect("null handled above"),
                })
            }
        }
        Ok(())
    }

    pub fn push_null(&mut self) {
        self.push(Value::Null).expect("null always accepted");
    }

    pub fn finish(self) -> Column {
        self.column
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_enforce_types() {
        let mut b = ColumnBuilder::new(DataType::Int64);
        b.push(Value::Int64(1)).unwrap();
        b.push_null();
        b.push(Value::Int64(3)).unwrap();
        let err = b.push(Value::Varchar("x".into())).unwrap_err();
        assert!(matches!(err, ColumnarError::TypeMismatch { .. }));
        let col = b.finish();
        assert_eq!(col.len(), 3);
        assert_eq!(col.null_count(), 1);
        assert_eq!(col.get(0), Value::Int64(1));
        assert_eq!(col.get(1), Value::Null);
    }

    #[test]
    fn int_literals_widen_into_float_columns() {
        let mut b = ColumnBuilder::new(DataType::Float64);
        b.push(Value::Int64(2)).unwrap();
        b.push(Value::Float64(0.5)).unwrap();
        let col = b.finish();
        assert_eq!(col.get(0), Value::Float64(2.0));
    }

    #[test]
    fn to_f64_with_nulls_yields_nan() {
        let mut b = ColumnBuilder::new(DataType::Float64);
        b.push(Value::Float64(1.5)).unwrap();
        b.push_null();
        let v = b.finish().to_f64_vec();
        assert_eq!(v[0], 1.5);
        assert!(v[1].is_nan());
    }

    #[test]
    fn slice_extend_roundtrip() {
        let mut col = Column::from_i64(vec![1, 2, 3, 4, 5]);
        let tail = col.slice(3, 5);
        assert_eq!(tail.get(0), Value::Int64(4));
        col.extend(&tail).unwrap();
        assert_eq!(col.len(), 7);
        assert_eq!(col.get(6), Value::Int64(5));
        let err = col.extend(&Column::from_f64(vec![1.0])).unwrap_err();
        assert!(matches!(err, ColumnarError::TypeMismatch { .. }));
    }

    #[test]
    fn filter_and_take() {
        let col = Column::from_strings(vec!["a", "b", "c", "d"]);
        let filtered = col
            .filter(&Bitmap::from_bools(&[true, false, false, true]))
            .unwrap();
        assert_eq!(filtered.len(), 2);
        assert_eq!(filtered.get(1), Value::Varchar("d".into()));
        let taken = col.take(&[3, 3, 0]);
        assert_eq!(taken.get(0), Value::Varchar("d".into()));
        assert_eq!(taken.get(2), Value::Varchar("a".into()));
        assert!(col.filter(&Bitmap::from_bools(&[true])).is_err());
    }

    #[test]
    fn filter_preserves_nulls() {
        let mut b = ColumnBuilder::new(DataType::Float64);
        for i in 0..130 {
            if i % 3 == 0 {
                b.push_null();
            } else {
                b.push(Value::Float64(i as f64)).unwrap();
            }
        }
        let col = b.finish();
        let mask = Bitmap::from_fn(130, |i| i % 2 == 0);
        let f = col.filter(&mask).unwrap();
        assert_eq!(f.len(), 65);
        // Row 2i of the source lands at row i of the result.
        for i in 0..65 {
            assert_eq!(f.get(i), col.get(2 * i), "row {i}");
        }
    }

    #[test]
    fn from_value_builds_constant_columns() {
        let c = Column::from_value(&Value::Float64(2.5), 3);
        assert_eq!(c.as_f64_slice(), Some(&[2.5, 2.5, 2.5][..]));
        let c = Column::from_value(&Value::Varchar("hi".into()), 2);
        assert_eq!(c.get(1), Value::Varchar("hi".into()));
        let c = Column::from_value(&Value::Null, 4);
        assert_eq!(c.len(), 4);
        assert_eq!(c.null_count(), 4);
        assert_eq!(c.get(0), Value::Null);
        assert_eq!(c.data_type(), DataType::Varchar);
        assert!(Column::from_value(&Value::Bool(true), 0).is_empty());
    }

    #[test]
    fn byte_size_scales_with_rows() {
        let small = Column::from_f64(vec![0.0; 10]).byte_size();
        let big = Column::from_f64(vec![0.0; 1000]).byte_size();
        assert!(big > small * 50);
        assert!(Column::from_bool(vec![true; 8]).byte_size() >= 8);
    }

    #[test]
    fn zero_copy_slices_require_matching_type_and_no_nulls() {
        let floats = Column::from_f64(vec![1.5, 2.5]);
        // Borrowed view points into the column's own storage.
        assert_eq!(
            floats.as_f64_slice().unwrap().as_ptr(),
            floats.f64_data().unwrap().as_ptr()
        );
        assert!(floats.as_i64_slice().is_none());

        let ints = Column::from_i64(vec![7, 8]);
        assert_eq!(ints.as_i64_slice(), Some(&[7i64, 8][..]));
        assert!(ints.as_f64_slice().is_none());

        // NULLs poison the borrow: raw data holds placeholder 0.0 / 0 that
        // must become NaN through the copying path instead.
        let mut b = ColumnBuilder::new(DataType::Float64);
        b.push(Value::Float64(1.0)).unwrap();
        b.push_null();
        let nullable = b.finish();
        assert!(nullable.as_f64_slice().is_none());
        let mut b = ColumnBuilder::new(DataType::Int64);
        b.push_null();
        assert!(b.finish().as_i64_slice().is_none());
    }

    #[test]
    fn cow_borrows_clean_floats_and_copies_everything_else() {
        use std::borrow::Cow;
        let floats = Column::from_f64(vec![1.0, 2.0, 3.0]);
        match floats.to_f64_cow() {
            Cow::Borrowed(s) => assert_eq!(s, floats.f64_data().unwrap()),
            Cow::Owned(_) => panic!("clean float column must borrow"),
        }

        // Int, bool, varchar, and nullable columns all fall back to the
        // copying path and must agree with to_f64_vec exactly.
        let mut b = ColumnBuilder::new(DataType::Float64);
        b.push(Value::Float64(4.0)).unwrap();
        b.push_null();
        for col in [
            Column::from_i64(vec![1, 2, 3]),
            Column::from_bool(vec![true, false]),
            Column::from_strings(vec!["x"]),
            b.finish(),
        ] {
            match col.to_f64_cow() {
                Cow::Owned(v) => {
                    let reference = col.to_f64_vec();
                    assert_eq!(v.len(), reference.len());
                    for (a, b) in v.iter().zip(&reference) {
                        assert!(*a == *b || (a.is_nan() && b.is_nan()));
                    }
                }
                Cow::Borrowed(_) => panic!("fallback column must copy"),
            }
        }
    }

    #[test]
    fn encoded_roundtrip_restores_zero_copy_eligibility() {
        use crate::encoding::{decode_column, encode_column, Encoding};
        // A repetitive float column survives an RLE encode/decode cycle and
        // the decoded plain column is again eligible for the borrowed view.
        let col = Column::from_f64(vec![5.0; 64]);
        let mut bytes = Vec::new();
        encode_column(&col, Encoding::Rle, &mut bytes).unwrap();
        let mut pos = 0;
        let back = decode_column(DataType::Float64, Encoding::Rle, 64, &bytes, &mut pos).unwrap();
        assert_eq!(back.as_f64_slice(), Some(&[5.0; 64][..]));

        // A nullable column round-trips its bitmap, so the decoded column
        // still refuses the borrow and takes the copying fallback.
        let mut b = ColumnBuilder::new(DataType::Float64);
        for i in 0..16 {
            if i % 4 == 0 {
                b.push_null();
            } else {
                b.push(Value::Float64(2.0)).unwrap();
            }
        }
        let nullable = b.finish();
        let mut bytes = Vec::new();
        encode_column(&nullable, Encoding::Rle, &mut bytes).unwrap();
        let mut pos = 0;
        let back = decode_column(DataType::Float64, Encoding::Rle, 16, &bytes, &mut pos).unwrap();
        assert!(back.as_f64_slice().is_none());
        assert!(matches!(back.to_f64_cow(), std::borrow::Cow::Owned(_)));
        assert!(back.to_f64_cow()[0].is_nan());
        assert_eq!(back.to_f64_cow()[1], 2.0);
    }

    #[test]
    fn empty_columns() {
        for dt in [
            DataType::Int64,
            DataType::Float64,
            DataType::Bool,
            DataType::Varchar,
        ] {
            let c = Column::empty(dt);
            assert!(c.is_empty());
            assert_eq!(c.data_type(), dt);
            assert_eq!(c.null_count(), 0);
        }
    }
}
