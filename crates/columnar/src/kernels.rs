//! Vectorized comparison and arithmetic kernels: the one implementation of
//! SQL's comparison and arithmetic operators.
//!
//! Every kernel runs a typed loop over column data and validity bitmaps. An
//! operand is a column of the batch's `n` rows or a one-row column that
//! stands for a constant ([`step`]), so a literal is never copied out to
//! `n` rows. Semantics:
//!
//! * **Comparisons** take Int64 with Int64 exactly as `i64`, Float64 under
//!   IEEE 754 (a NaN operand is false under every operator but `<>`, and
//!   `-0.0 = 0.0`), Bool with Bool (`false < true`), Varchar with Varchar
//!   in `str` order, and numeric/Bool mixes widened to `f64` (Bool as 0/1).
//! * **Arithmetic**: `Int64 ⊕ Int64` for `+ - * %` is exact `i64`, and an
//!   overflow is a [`KernelError::Overflow`]; `/`, POWER and every mix are
//!   Float64. `/` and `%` by zero give NULL.
//! * **NULL**: a row with a NULL operand is NULL. An operand with no value
//!   at all (the NULL literal, or a column of NULLs) has every type, so it
//!   never raises a type
//!   error; any other type pair no operator takes is a
//!   [`KernelError::Types`].
//!
//! Comparison results come back as a pair of [`Bitmap`]s:
//!
//! * **truth** — set iff both operands are valid *and* the comparison holds
//!   (exactly the SQL "is TRUE" selection mask a WHERE clause needs), and
//! * **validity** — set iff both operands are valid (what a materialized
//!   three-valued `Bool` column needs for its NULLs).

//! # Encoded kernels
//!
//! [`cmp_scalar_rle`] and [`cmp_scalar_dict`] are the compressed-execution
//! counterparts: they take an [`EncodedColumn`] and evaluate the comparison
//! once per RLE run (filling the selection mask a word at a time via
//! [`Bitmap::set_range`]) or once per distinct dictionary code, without ever
//! materializing the plain column. They return the same truth bitmap
//! [`cmp_scalar`] returns on the decoded column, plus an [`EncodedCmpStats`]
//! of how much per-row work was skipped.

use crate::bitmap::Bitmap;
use crate::column::{Column, ColumnBuilder};
use crate::encoded::{EncodedColumn, EncodedValues};
use crate::value::{DataType, Value};
use std::fmt;

/// Why a kernel refused its operands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// No operator `op` takes operands of these types (`right` is `None`
    /// for a unary operator).
    Types {
        op: String,
        left: DataType,
        right: Option<DataType>,
    },
    /// An Int64 result does not fit in 64 bits.
    Overflow { op: &'static str },
    /// An operand is neither `rows` long nor a one-row constant.
    Length { rows: usize, len: usize },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Types { op, left, right } => match right {
                Some(right) => write!(f, "{op} does not apply to {left} and {right}"),
                None => write!(f, "{op} does not apply to {left}"),
            },
            KernelError::Overflow { op } => write!(f, "INTEGER overflow in {op}"),
            KernelError::Length { rows, len } => write!(f, "{len}-row operand in {rows} rows"),
        }
    }
}

impl std::error::Error for KernelError {}

type Result<T> = std::result::Result<T, KernelError>;

impl KernelError {
    /// `op` refusing operands of `left`'s and `right`'s types.
    pub fn types(op: &str, left: DataType, right: Option<DataType>) -> KernelError {
        let op = op.to_string();
        KernelError::Types { op, left, right }
    }
}

fn mismatch(op: &str, l: &Column, r: &Column) -> KernelError {
    KernelError::types(op, l.data_type(), Some(r.data_type()))
}

/// Comparison operators the kernels implement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// The operator with its operands swapped (`a < b` ⇔ `b > a`), for
    /// normalizing literal-on-the-left comparisons.
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// `a op b` by `PartialOrd`, which on floats is IEEE 754.
    #[inline]
    pub fn holds<T: PartialOrd>(self, a: T, b: T) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// Arithmetic operators the kernels implement (POWER is one too).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Pow,
}

impl ArithOp {
    pub fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
            ArithOp::Mod => "%",
            ArithOp::Pow => "POWER",
        }
    }

    /// `a op b` in `i64`; `None` on overflow or a zero divisor.
    fn int(self, a: i64, b: i64) -> Option<i64> {
        match self {
            ArithOp::Add => a.checked_add(b),
            ArithOp::Sub => a.checked_sub(b),
            ArithOp::Mul => a.checked_mul(b),
            // `i64::MIN % -1` is 0, not an overflow.
            ArithOp::Mod => (b != 0).then(|| a.wrapping_rem(b)),
            // Float64 operators: `arith` never computes them in `i64`.
            ArithOp::Div | ArithOp::Pow => None,
        }
    }

    /// `a op b` in `f64`; a zero divisor gives 0.0 (its row is NULL).
    fn float(self, a: f64, b: f64) -> f64 {
        match self {
            ArithOp::Add => a + b,
            ArithOp::Sub => a - b,
            ArithOp::Mul => a * b,
            ArithOp::Div | ArithOp::Mod if b == 0.0 => 0.0,
            ArithOp::Div => a / b,
            ArithOp::Mod => a % b,
            ArithOp::Pow => a.powf(b),
        }
    }
}

/// A numeric or Bool column read as `f64` (Bool as 0/1): the widening of
/// mixed comparisons and of Float64 arithmetic.
enum Num<'a> {
    I64(&'a [i64]),
    F64(&'a [f64]),
    Bool(&'a [bool]),
}

impl Num<'_> {
    fn of(col: &Column) -> Option<Num<'_>> {
        match col {
            Column::Int64 { data, .. } => Some(Num::I64(data)),
            Column::Float64 { data, .. } => Some(Num::F64(data)),
            Column::Bool { data, .. } => Some(Num::Bool(data)),
            Column::Varchar { .. } => None,
        }
    }

    #[inline]
    fn at(&self, i: usize) -> f64 {
        match self {
            Num::I64(d) => d[i] as f64,
            Num::F64(d) => d[i],
            Num::Bool(d) => f64::from(u8::from(d[i])),
        }
    }
}

/// The index step of an operand over `n` rows: 1 for a column of `n` rows,
/// 0 for a one-row constant.
pub fn step(col: &Column, n: usize) -> Result<usize> {
    match col.len() {
        len if len == n => Ok(1),
        1 => Ok(0),
        len => Err(KernelError::Length { rows: n, len }),
    }
}

/// The rows of `n` where every operand is non-NULL.
pub fn valid_rows(cols: &[&Column], n: usize) -> Result<Bitmap> {
    let mut out = Bitmap::all_valid(n);
    for col in cols {
        if step(col, n)? == 1 {
            out = out.and(col.validity());
        } else if !col.validity().get(0) {
            out = Bitmap::all_clear(n);
        }
    }
    Ok(out)
}

/// Whether some operand has no value at all, which makes every row NULL
/// whatever the operand types.
pub fn no_value(cols: &[&Column]) -> bool {
    cols.iter().any(|c| !c.validity().any_set())
}

/// `n` NULLs of `dtype`.
fn nulls(dtype: DataType, n: usize) -> Column {
    let mut b = ColumnBuilder::with_capacity(dtype, n);
    (0..n).for_each(|_| b.push_null());
    b.finish()
}

/// `l op r` over `n` rows, each operand a column of `n` rows or a one-row
/// constant: `(truth, validity)`.
pub fn cmp(l: &Column, r: &Column, op: CmpOp, n: usize) -> Result<(Bitmap, Bitmap)> {
    let (sl, sr) = (step(l, n)?, step(r, n)?);
    let valid = valid_rows(&[l, r], n)?;
    if no_value(&[l, r]) {
        return Ok((valid.clone(), valid));
    }
    let holds = match (l, r) {
        (Column::Int64 { data: a, .. }, Column::Int64 { data: b, .. }) => {
            Bitmap::from_fn(n, |i| op.holds(a[i * sl], b[i * sr]))
        }
        (Column::Float64 { data: a, .. }, Column::Float64 { data: b, .. }) => {
            Bitmap::from_fn(n, |i| op.holds(a[i * sl], b[i * sr]))
        }
        (Column::Bool { data: a, .. }, Column::Bool { data: b, .. }) => {
            Bitmap::from_fn(n, |i| op.holds(a[i * sl], b[i * sr]))
        }
        (Column::Varchar { data: a, .. }, Column::Varchar { data: b, .. }) => {
            Bitmap::from_fn(n, |i| op.holds(&a[i * sl], &b[i * sr]))
        }
        _ => match (Num::of(l), Num::of(r)) {
            (Some(a), Some(b)) => Bitmap::from_fn(n, |i| op.holds(a.at(i * sl), b.at(i * sr))),
            _ => return Err(mismatch(op.symbol(), l, r)),
        },
    };
    let truth = if valid.all_set() {
        holds
    } else {
        holds.and(&valid)
    };
    Ok((truth, valid))
}

/// `col op rhs` against one constant; `rhs` is a [`Value`] or anything that
/// converts into one (`None` is NULL).
pub fn cmp_scalar(col: &Column, op: CmpOp, rhs: impl Into<Value>) -> Result<(Bitmap, Bitmap)> {
    cmp(col, &Column::from_value(&rhs.into(), 1), op, col.len())
}

/// `l op r` over `n` rows: Int64 when both sides are Int64 and `op` is
/// `+ - * %` (checked), Float64 otherwise; `/` and `%` by zero are NULL.
pub fn arith(l: &Column, r: &Column, op: ArithOp, n: usize) -> Result<Column> {
    let (sl, sr) = (step(l, n)?, step(r, n)?);
    let dtype = match (l.data_type(), r.data_type(), op) {
        (_, _, ArithOp::Div | ArithOp::Pow) => DataType::Float64,
        (DataType::Int64, DataType::Int64, _) => DataType::Int64,
        _ => DataType::Float64,
    };
    if no_value(&[l, r]) {
        return Ok(nulls(dtype, n));
    }
    let (Some(a), Some(b)) = (Num::of(l), Num::of(r)) else {
        return Err(mismatch(op.symbol(), l, r));
    };
    let mut validity = valid_rows(&[l, r], n)?;
    if matches!(op, ArithOp::Div | ArithOp::Mod) {
        validity = validity.and(&Bitmap::from_fn(n, |i| b.at(i * sr) != 0.0));
    }
    Ok(match (a, b) {
        (Num::I64(a), Num::I64(b)) if dtype == DataType::Int64 => {
            let overflow = KernelError::Overflow { op: op.symbol() };
            let data = (0..n).map(|i| match op.int(a[i * sl], b[i * sr]) {
                Some(v) => Ok(v),
                None if validity.get(i) => Err(overflow.clone()),
                None => Ok(0),
            });
            Column::Int64 {
                data: data.collect::<Result<_>>()?,
                validity,
            }
        }
        (a, b) => Column::Float64 {
            data: (0..n)
                .map(|i| op.float(a.at(i * sl), b.at(i * sr)))
                .collect(),
            validity,
        },
    })
}

/// Unary minus: Float64 negated (so `-0.0` keeps its sign), anything else
/// `0 - x` (Int64 checked).
pub fn neg(col: &Column) -> Result<Column> {
    match col {
        Column::Float64 { data, validity } => Ok(Column::Float64 {
            data: data.iter().map(|v| -v).collect(),
            validity: validity.clone(),
        }),
        _ => arith(&Column::from_i64(vec![0]), col, ArithOp::Sub, col.len()),
    }
}

/// `f` over a numeric or Bool column read as `f64` (the maths functions);
/// `name` is the function's, for the type error.
pub fn map_f64(col: &Column, name: &str, f: impl Fn(f64) -> f64) -> Result<Column> {
    if no_value(&[col]) {
        return Ok(nulls(DataType::Float64, col.len()));
    }
    let a = Num::of(col).ok_or_else(|| KernelError::types(name, col.data_type(), None))?;
    Ok(Column::Float64 {
        data: (0..col.len()).map(|i| f(a.at(i))).collect(),
        validity: col.validity().clone(),
    })
}

// ------------------------------------------------------- encoded kernels

/// What an encoded predicate kernel did: `comparisons` scalar compares for
/// `rows` rows of output. The gap is the per-row work compressed execution
/// skipped (`scan.encoded.runs_skipped` counts it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodedCmpStats {
    /// Rows the resulting truth bitmap covers.
    pub rows: u64,
    /// Scalar comparisons actually evaluated (runs, distinct codes, or
    /// binary-search probes).
    pub comparisons: u64,
    /// Runs resolved by binary-searching a sorted column's boundaries
    /// instead of walking them (zero on the linear path).
    pub runs_bsearched: u64,
}

impl EncodedCmpStats {
    /// Per-row evaluations avoided relative to the decoded kernel.
    pub fn rows_skipped(&self) -> u64 {
        self.rows.saturating_sub(self.comparisons)
    }
}

/// The answer when the constant or the column is all NULL: no run to test,
/// so no row is true.
fn none_true(col: &EncodedColumn) -> (Bitmap, EncodedCmpStats) {
    runs_mask::<()>(col, CmpOp::Eq, &[], |_, _| false)
}

/// Compare a run-length-encoded column against a constant, evaluating once
/// per run and filling the truth bitmap a run at a time. Same answer as
/// [`cmp_scalar`] on the decoded column. A dictionary column goes to
/// [`cmp_scalar_dict`].
pub fn cmp_scalar_rle(
    col: &EncodedColumn,
    op: CmpOp,
    rhs: impl Into<Value>,
) -> Result<(Bitmap, EncodedCmpStats)> {
    let rhs = rhs.into();
    let wide = || {
        let err = || KernelError::types(op.symbol(), col.data_type(), rhs.data_type());
        rhs.as_f64().ok_or_else(err)
    };
    Ok(match (col.values(), &rhs) {
        _ if rhs.is_null() || !col.validity().any_set() => none_true(col),
        (EncodedValues::Dict { .. }, _) => return cmp_scalar_dict(col, op, rhs.clone()),
        (EncodedValues::RleI64(rs), Value::Int64(c)) => {
            runs_mask(col, op, rs, |o, v| o.holds(v, *c))
        }
        (EncodedValues::RleBool(rs), Value::Bool(c)) => {
            runs_mask(col, op, rs, |o, v| o.holds(v, *c))
        }
        (EncodedValues::RleI64(rs), _) => {
            let c = wide()?;
            runs_mask(col, op, rs, |o, v| o.holds(v as f64, c))
        }
        (EncodedValues::RleF64(rs), _) => {
            let c = wide()?;
            runs_mask(col, op, rs, |o, v| o.holds(f64::from_bits(v), c))
        }
        (EncodedValues::RleBool(rs), _) => {
            let c = wide()?;
            runs_mask(col, op, rs, |o, v| o.holds(f64::from(u8::from(v)), c))
        }
    })
}

/// The truth bitmap of `test(op, value)` over `runs`: one test per run, or,
/// when the run values are sorted, binary searches for the one row range
/// (or, for `<>`, its complement) where `op` holds.
fn runs_mask<T: Copy>(
    col: &EncodedColumn,
    op: CmpOp,
    runs: &[(u64, T)],
    test: impl Fn(CmpOp, T) -> bool,
) -> (Bitmap, EncodedCmpStats) {
    // Worth it only when the searches (≤ 2·log₂ runs probes) beat the walk;
    // below this the linear path is already a handful of compares.
    const MIN_BSEARCH_RUNS: usize = 16;
    let n = col.len();
    let mut truth = Bitmap::all_clear(n);
    let (mut comparisons, mut runs_bsearched) = (0u64, 0u64);
    match col.sorted_run_starts() {
        Some(starts) if runs.len() > MIN_BSEARCH_RUNS => {
            // The first row of the first run where `test(o, v) != holds`.
            let mut end = |o: CmpOp, holds: bool| {
                let (mut lo, mut hi) = (0, runs.len());
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    comparisons += 1;
                    (lo, hi) = if test(o, runs[mid].1) == holds {
                        (mid + 1, hi)
                    } else {
                        (lo, mid)
                    };
                }
                starts[lo] as usize
            };
            // `<`/`<=` hold on a prefix, `>`/`>=` on a suffix, `=` between
            // the `<` and `<=` prefixes — all empty against NaN.
            let (from, to) = match op {
                CmpOp::Lt | CmpOp::Le => (0, end(op, true)),
                CmpOp::Gt | CmpOp::Ge => (end(op, false), n),
                CmpOp::Eq | CmpOp::Ne => (end(CmpOp::Lt, true), end(CmpOp::Le, true)),
            };
            if op == CmpOp::Ne {
                truth.set_range(0, from);
                truth.set_range(to, n);
            } else {
                truth.set_range(from, to);
            }
            runs_bsearched = runs.len() as u64;
        }
        _ => {
            let mut pos = 0usize;
            for &(count, v) in runs {
                comparisons += 1;
                let end = pos + count as usize;
                if test(op, v) {
                    truth.set_range(pos, end);
                }
                pos = end;
            }
        }
    }
    let truth = if col.validity().all_set() {
        truth
    } else {
        truth.and(col.validity())
    };
    let stats = EncodedCmpStats {
        rows: n as u64,
        comparisons,
        runs_bsearched,
    };
    (truth, stats)
}

/// Compare a dictionary-encoded string column against a constant,
/// evaluating once per distinct code and then mapping codes to bits. Same
/// answer as [`cmp_scalar`] on the decoded column. A run-length column goes
/// to [`cmp_scalar_rle`].
pub fn cmp_scalar_dict(
    col: &EncodedColumn,
    op: CmpOp,
    rhs: impl Into<Value>,
) -> Result<(Bitmap, EncodedCmpStats)> {
    let rhs = rhs.into();
    let Some((dict, codes)) = col.dict() else {
        return cmp_scalar_rle(col, op, rhs);
    };
    let rhs = match rhs {
        Value::Varchar(s) => s,
        _ if rhs.is_null() || !col.validity().any_set() => return Ok(none_true(col)),
        _ => {
            return Err(KernelError::types(
                op.symbol(),
                DataType::Varchar,
                rhs.data_type(),
            ))
        }
    };
    let code_truth: Vec<bool> = dict.iter().map(|s| op.holds(s, &rhs)).collect();
    let n = col.len();
    let valid = col.validity();
    let truth = if valid.all_set() {
        Bitmap::from_fn(n, |i| code_truth[codes[i] as usize])
    } else {
        Bitmap::from_fn(n, |i| valid.get(i) && code_truth[codes[i] as usize])
    };
    let stats = EncodedCmpStats {
        rows: n as u64,
        comparisons: dict.len() as u64,
        runs_bsearched: 0,
    };
    Ok((truth, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnBuilder;

    const ALL_OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    fn nullable_f64(vals: &[Option<f64>]) -> Column {
        let mut b = ColumnBuilder::new(DataType::Float64);
        for v in vals {
            match v {
                Some(x) => b.push(Value::Float64(*x)).unwrap(),
                None => b.push_null(),
            }
        }
        b.finish()
    }

    fn bits(b: &Bitmap) -> Vec<bool> {
        (0..b.len()).map(|i| b.get(i)).collect()
    }

    #[test]
    fn scalar_compare_respects_validity() {
        let col = nullable_f64(&[Some(1.0), None, Some(3.0)]);
        let (truth, validity) = cmp_scalar(&col, CmpOp::Gt, Some(2.0)).unwrap();
        assert_eq!(bits(&truth), [false, false, true]);
        assert!(!validity.get(1));
        // NULL scalar: nothing is true, nothing is valid.
        let (truth, validity) = cmp_scalar(&col, CmpOp::Gt, Value::Null).unwrap();
        assert!(!truth.any_set());
        assert!(!validity.any_set());
    }

    #[test]
    fn int64_compares_exactly_and_mixes_widen() {
        let big = 1i64 << 53;
        let col = Column::from_i64(vec![big, big + 1, i64::MIN, i64::MAX]);
        let (truth, _) = cmp_scalar(&col, CmpOp::Eq, big + 1).unwrap();
        assert_eq!(bits(&truth), [false, true, false, false]);
        let (truth, _) = cmp_scalar(&col, CmpOp::Gt, big).unwrap();
        assert_eq!(bits(&truth), [false, true, false, true]);
        // Int64 against Float64 or Bool widens to f64, where 2^53 + 1 ties.
        let (truth, _) = cmp_scalar(&col, CmpOp::Eq, (big + 1) as f64).unwrap();
        assert_eq!(bits(&truth), [true, true, false, false]);
        let ones = Column::from_i64(vec![0, 1, 2]);
        let (truth, _) = cmp_scalar(&ones, CmpOp::Eq, true).unwrap();
        assert_eq!(bits(&truth), [false, true, false]);
        let r = Column::from_f64(vec![0.5, 1.0, 100.0]);
        let (truth, _) = cmp(&ones, &r, CmpOp::Lt, 3).unwrap();
        assert_eq!(bits(&truth), [true, false, true]);
    }

    #[test]
    fn floats_compare_under_ieee_754() {
        let col = Column::from_f64(vec![f64::NAN, 1.5, -0.0]);
        let answer = |op, rhs: f64| bits(&cmp_scalar(&col, op, rhs).unwrap().0);
        assert_eq!(answer(CmpOp::Eq, 1.5), [false, true, false]);
        assert_eq!(answer(CmpOp::Eq, 0.0), [false, false, true]);
        assert_eq!(answer(CmpOp::Ne, 1.5), [true, false, true]);
        assert_eq!(answer(CmpOp::Lt, 0.0), [false, false, false]);
        assert_eq!(answer(CmpOp::Ge, f64::NAN), [false, false, false]);
        assert_eq!(answer(CmpOp::Ne, f64::NAN), [true, true, true]);
    }

    #[test]
    fn bool_and_varchar_compare_within_their_type() {
        let b = Column::from_bool(vec![false, true]);
        assert_eq!(
            bits(&cmp_scalar(&b, CmpOp::Lt, true).unwrap().0),
            [true, false]
        );
        let s = Column::from_strings(vec!["a", "b", "é"]);
        let (truth, _) = cmp_scalar(&s, CmpOp::Gt, "a").unwrap();
        assert_eq!(bits(&truth), [false, true, true]);
        let err = cmp_scalar(&s, CmpOp::Eq, 1i64).unwrap_err();
        assert!(matches!(err, KernelError::Types { .. }), "{err}");
        assert!(cmp(&s, &b, CmpOp::Eq, 2).is_err());
        // The NULL literal has every type.
        let null = Column::from_value(&Value::Null, 1);
        assert!(!cmp(&b, &null, CmpOp::Eq, 2).unwrap().1.any_set());
    }

    #[test]
    fn flip_is_an_involution_that_swaps_operands() {
        let l = Column::from_i64(vec![1, 2, 3]);
        let r = Column::from_i64(vec![2, 2, 2]);
        for op in ALL_OPS {
            assert_eq!(op.flip().flip(), op);
            let (a, _) = cmp(&l, &r, op, 3).unwrap();
            let (b, _) = cmp(&r, &l, op.flip(), 3).unwrap();
            assert_eq!(a, b, "{op:?}");
        }
    }

    #[test]
    fn one_row_operands_stand_for_every_row() {
        let col = Column::from_i64(vec![1, 2, 3]);
        let two = Column::from_i64(vec![2]);
        assert_eq!(
            bits(&cmp(&two, &col, CmpOp::Lt, 3).unwrap().0),
            [false, false, true]
        );
        assert_eq!(
            arith(&col, &two, ArithOp::Mul, 3).unwrap(),
            Column::from_i64(vec![2, 4, 6])
        );
        // A constant over an empty batch, and two constants over one row.
        assert_eq!(
            cmp(&Column::from_i64(vec![]), &two, CmpOp::Eq, 0)
                .unwrap()
                .0
                .len(),
            0
        );
        assert_eq!(
            arith(&two, &two, ArithOp::Add, 1).unwrap(),
            Column::from_i64(vec![4])
        );
        let err = cmp(&col, &Column::from_i64(vec![1, 2]), CmpOp::Eq, 3).unwrap_err();
        assert_eq!(err, KernelError::Length { rows: 3, len: 2 });
    }

    #[test]
    fn arithmetic_types_and_zero_division() {
        let l = Column::from_i64(vec![7, 8, 9]);
        let r = Column::from_i64(vec![2, 0, 3]);
        // Int + Int stays Int.
        let sum = arith(&l, &r, ArithOp::Add, 3).unwrap();
        assert_eq!(sum.data_type(), DataType::Int64);
        assert_eq!(sum.get(0), Value::Int64(9));
        // Int / Int widens to Float, and /0 is NULL.
        let div = arith(&l, &r, ArithOp::Div, 3).unwrap();
        assert_eq!(div.data_type(), DataType::Float64);
        assert_eq!(div.get(0), Value::Float64(3.5));
        assert_eq!(div.get(1), Value::Null);
        // Mod by zero is NULL even on the Int64 output path.
        let m = arith(&l, &r, ArithOp::Mod, 3).unwrap();
        assert_eq!(m.data_type(), DataType::Int64);
        assert_eq!(m.get(1), Value::Null);
        assert_eq!(m.get(2), Value::Int64(0));
        let s = Column::from_strings(vec!["a", "b", "c"]);
        assert!(matches!(
            arith(&s, &l, ArithOp::Add, 3),
            Err(KernelError::Types { .. })
        ));
    }

    #[test]
    fn int64_arithmetic_is_exact_and_checked() {
        let big = 1i64 << 53;
        let col = Column::from_i64(vec![big, big + 1]);
        let zero = Column::from_i64(vec![0]);
        assert_eq!(arith(&col, &zero, ArithOp::Add, 2).unwrap(), col);
        assert_eq!(neg(&col).unwrap(), Column::from_i64(vec![-big, -big - 1]));
        let k = Column::from_i64(vec![1024]);
        let err = arith(&col, &k, ArithOp::Mul, 2).unwrap_err();
        assert_eq!(err, KernelError::Overflow { op: "*" });
        let min = Column::from_i64(vec![i64::MIN]);
        assert!(neg(&min).is_err());
        let m1 = Column::from_i64(vec![-1]);
        assert_eq!(
            arith(&min, &m1, ArithOp::Mod, 1).unwrap().get(0),
            Value::Int64(0)
        );
        // Overflow in a NULL row is no error.
        let mut b = ColumnBuilder::new(DataType::Int64);
        b.push(Value::Int64(i64::MAX)).unwrap();
        b.push_null();
        let l = b.finish();
        let r = Column::from_i64(vec![0, 1]);
        assert_eq!(arith(&l, &r, ArithOp::Add, 2).unwrap().get(1), Value::Null);
    }

    #[test]
    fn arithmetic_propagates_nulls() {
        let l = nullable_f64(&[Some(1.0), None]);
        let r = Column::from_f64(vec![2.0, 2.0]);
        let out = arith(&l, &r, ArithOp::Mul, 2).unwrap();
        assert_eq!(out.get(0), Value::Float64(2.0));
        assert_eq!(out.get(1), Value::Null);
    }

    fn encoded(col: &Column, enc: crate::encoding::Encoding) -> EncodedColumn {
        let mut buf = Vec::new();
        crate::encoding::encode_column(col, enc, &mut buf).unwrap();
        let mut pos = 0;
        EncodedColumn::from_payload(col.data_type(), enc, col.len(), &buf, &mut pos)
            .unwrap()
            .unwrap()
    }

    #[test]
    fn rle_kernel_matches_decoded_kernel() {
        let mut vals = Vec::new();
        for run in 0..20i64 {
            vals.extend(std::iter::repeat_n(run / 3, 17));
        }
        let col = Column::from_i64(vals);
        let ec = encoded(&col, crate::encoding::Encoding::Rle);
        for op in ALL_OPS {
            for rhs in [Value::Float64(3.0), Value::Int64(3), Value::Bool(true)] {
                let (fast, stats) = cmp_scalar_rle(&ec, op, rhs.clone()).unwrap();
                let (slow, _) = cmp_scalar(&col, op, rhs).unwrap();
                assert_eq!(fast, slow, "{op:?}");
                assert!(stats.comparisons < stats.rows, "{op:?}");
                assert!(stats.rows_skipped() > 0);
            }
        }
        // NULL scalar: nothing true, zero comparisons.
        let (truth, stats) = cmp_scalar_rle(&ec, CmpOp::Eq, Value::Null).unwrap();
        assert!(!truth.any_set());
        assert_eq!(stats.comparisons, 0);
    }

    #[test]
    fn sorted_rle_kernel_binary_searches_run_boundaries() {
        // 40 sorted runs of 9 rows: well past the bsearch threshold.
        let mut vals = Vec::new();
        for run in 0..40i64 {
            vals.extend(std::iter::repeat_n(run, 9));
        }
        let col = Column::from_i64(vals);
        let ec = encoded(&col, crate::encoding::Encoding::Rle);
        assert!(ec.sorted_run_starts().is_some());
        for op in ALL_OPS {
            // Boundary values, interior values, out-of-range values, NaN.
            for rhs in [-1.0, 0.0, 7.0, 7.5, 39.0, 99.0, f64::NAN] {
                let (fast, stats) = cmp_scalar_rle(&ec, op, rhs).unwrap();
                let (slow, _) = cmp_scalar(&col, op, rhs).unwrap();
                assert_eq!(fast, slow, "{op:?} {rhs}");
                assert_eq!(stats.runs_bsearched, 40, "{op:?} {rhs}");
                // Binary searches over 40 runs, not a 40-run walk.
                assert!(stats.comparisons <= 12, "{op:?} {rhs}: {stats:?}");
            }
        }
    }

    #[test]
    fn sorted_starts_detection() {
        // Unsorted runs: no starts.
        let col = Column::from_i64([vec![5i64; 20], vec![1; 20], vec![9; 20]].concat());
        let ec = encoded(&col, crate::encoding::Encoding::Rle);
        assert!(ec.sorted_run_starts().is_none());
        // Sorted floats: starts with the right offsets.
        let col = Column::from_f64([vec![1.0f64; 30], vec![2.0; 10], vec![3.5; 5]].concat());
        let ec = encoded(&col, crate::encoding::Encoding::Rle);
        assert_eq!(ec.sorted_run_starts().unwrap(), &[0, 30, 40, 45]);
        // A NaN run disqualifies the column (NaN breaks the ordering the
        // binary search relies on).
        let col = Column::from_f64([vec![1.0f64; 20], vec![f64::NAN; 20]].concat());
        let ec = encoded(&col, crate::encoding::Encoding::Rle);
        assert!(ec.sorted_run_starts().is_none());
    }

    #[test]
    fn rle_kernel_respects_validity_and_nan() {
        let mut b = ColumnBuilder::new(DataType::Float64);
        for i in 0..30 {
            if i % 5 == 1 {
                b.push_null();
            } else if i < 10 {
                b.push(Value::Float64(f64::NAN)).unwrap();
            } else {
                b.push(Value::Float64(2.0)).unwrap();
            }
        }
        let col = b.finish();
        let ec = encoded(&col, crate::encoding::Encoding::Rle);
        for op in ALL_OPS {
            let (fast, _) = cmp_scalar_rle(&ec, op, Some(2.0)).unwrap();
            let (slow, _) = cmp_scalar(&col, op, Some(2.0)).unwrap();
            assert_eq!(fast, slow, "{op:?}");
        }
    }

    #[test]
    fn dict_kernel_compares_once_per_code() {
        let col = Column::from_strings((0..200).map(|i| format!("g{}", i % 4)).collect());
        let ec = encoded(&col, crate::encoding::Encoding::Dictionary);
        let (truth, stats) = cmp_scalar_dict(&ec, CmpOp::Eq, "g2").unwrap();
        assert_eq!(stats.comparisons, 4);
        assert_eq!(truth.count_set(), 50);
        // Ordering comparisons use str order, as on the decoded column.
        let (truth, _) = cmp_scalar_dict(&ec, CmpOp::Lt, "g2").unwrap();
        assert_eq!(truth.count_set(), 100); // g0, g1
    }

    #[test]
    fn encoded_kernels_take_every_form() {
        let b = Column::from_bool([vec![true; 8], vec![false; 8]].concat());
        let eb = encoded(&b, crate::encoding::Encoding::Rle);
        for rhs in [Value::Bool(true), Value::Int64(0), Value::Float64(0.5)] {
            let (fast, _) = cmp_scalar_dict(&eb, CmpOp::Ge, rhs.clone()).unwrap();
            assert_eq!(fast, cmp_scalar(&b, CmpOp::Ge, rhs).unwrap().0);
        }
        assert!(cmp_scalar_rle(&eb, CmpOp::Eq, "x").is_err());
        let s = Column::from_strings(vec!["a"; 8]);
        let es = encoded(&s, crate::encoding::Encoding::Dictionary);
        assert_eq!(
            cmp_scalar_rle(&es, CmpOp::Eq, "a").unwrap().0.count_set(),
            8
        );
        assert!(cmp_scalar_dict(&es, CmpOp::Eq, 1.0).is_err());
    }
}
