//! Scalar expressions and their vectorized evaluation over batches.
//!
//! One evaluator: every operator is a typed loop over column data, and
//! comparisons and arithmetic are `vdr_columnar::kernels`. An operand is a
//! column of the batch, borrowed when the expression names one, or a
//! constant computed once as a one-row column that the kernels read for
//! every row. A boolean evaluates to two masks, is TRUE and is FALSE (a row
//! in neither is NULL), so NOT swaps them and AND/OR are word-level ops
//! under three-valued logic.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::error::{DbError, Result};
use std::borrow::Cow;
use std::fmt;
use vdr_columnar::kernels::{self, ArithOp, CmpOp, KernelError};
use vdr_columnar::{Batch, Bitmap, Column, DataType, Value};

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        }
    }

    pub(crate) fn is_comparison(self) -> bool {
        self.cmp_op().is_some()
    }

    /// The kernel operator of a comparison.
    pub(crate) fn cmp_op(self) -> Option<CmpOp> {
        Some(match self {
            BinOp::Eq => CmpOp::Eq,
            BinOp::Ne => CmpOp::Ne,
            BinOp::Lt => CmpOp::Lt,
            BinOp::Le => CmpOp::Le,
            BinOp::Gt => CmpOp::Gt,
            BinOp::Ge => CmpOp::Ge,
            _ => return None,
        })
    }

    /// The kernel operator of an arithmetic operator.
    fn arith_op(self) -> Option<ArithOp> {
        Some(match self {
            BinOp::Add => ArithOp::Add,
            BinOp::Sub => ArithOp::Sub,
            BinOp::Mul => ArithOp::Mul,
            BinOp::Div => ArithOp::Div,
            BinOp::Mod => ArithOp::Mod,
            _ => return None,
        })
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Column(String),
    Literal(Value),
    Neg(Box<Expr>),
    Not(Box<Expr>),
    IsNull(Box<Expr>),
    IsNotNull(Box<Expr>),
    /// `expr [NOT] IN (e1, e2, …)`.
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern` with SQL wildcards `%` and `_`.
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// Scalar function call (ABS, SQRT, LN, EXP, POWER, FLOOR, CEIL).
    Func {
        name: String,
        args: Vec<Expr>,
    },
}

impl Expr {
    pub fn col(name: &str) -> Expr {
        Expr::Column(name.to_string())
    }

    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    pub fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Column names referenced by this expression, in first-use order.
    pub fn columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut Vec<String>) {
        match self {
            Expr::Column(name) => {
                if !out.iter().any(|n| n == name) {
                    out.push(name.clone());
                }
            }
            Expr::Literal(_) => {}
            Expr::Neg(e) | Expr::Not(e) | Expr::IsNull(e) | Expr::IsNotNull(e) => {
                e.collect_columns(out)
            }
            Expr::InList { expr, list, .. } => {
                expr.collect_columns(out);
                for e in list {
                    e.collect_columns(out);
                }
            }
            Expr::Like { expr, pattern, .. } => {
                expr.collect_columns(out);
                pattern.collect_columns(out);
            }
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::Func { args, .. } => {
                for a in args {
                    a.collect_columns(out);
                }
            }
        }
    }

    /// Rewrite every column reference in place with `f`, stopping at its
    /// first error.
    pub(crate) fn rename_columns(
        &mut self,
        f: &mut dyn FnMut(&mut String) -> Result<()>,
    ) -> Result<()> {
        match self {
            Expr::Column(name) => f(name),
            Expr::Literal(_) => Ok(()),
            Expr::Neg(e) | Expr::Not(e) | Expr::IsNull(e) | Expr::IsNotNull(e) => {
                e.rename_columns(f)
            }
            Expr::InList { expr, list, .. } => {
                expr.rename_columns(f)?;
                list.iter_mut().try_for_each(|e| e.rename_columns(f))
            }
            Expr::Like { expr, pattern, .. } => {
                expr.rename_columns(f)?;
                pattern.rename_columns(f)
            }
            Expr::Binary { left, right, .. } => {
                left.rename_columns(f)?;
                right.rename_columns(f)
            }
            Expr::Func { args, .. } => args.iter_mut().try_for_each(|e| e.rename_columns(f)),
        }
    }

    /// The output type of this expression against `batch`'s schema.
    pub fn output_type(&self, batch: &Batch) -> Result<DataType> {
        Ok(match self {
            Expr::Column(name) => batch.column_by_name(name)?.data_type(),
            Expr::Literal(v) => v.data_type().unwrap_or(DataType::Varchar),
            Expr::Neg(e) => match e.output_type(batch)? {
                DataType::Int64 => DataType::Int64,
                _ => DataType::Float64,
            },
            Expr::Not(_)
            | Expr::IsNull(_)
            | Expr::IsNotNull(_)
            | Expr::InList { .. }
            | Expr::Like { .. } => DataType::Bool,
            Expr::Binary { op, left, right } => {
                if op.is_comparison() || matches!(op, BinOp::And | BinOp::Or) {
                    DataType::Bool
                } else if *op == BinOp::Div {
                    DataType::Float64
                } else {
                    match (left.output_type(batch)?, right.output_type(batch)?) {
                        (DataType::Int64, DataType::Int64) => DataType::Int64,
                        _ => DataType::Float64,
                    }
                }
            }
            Expr::Func { .. } => DataType::Float64,
        })
    }

    /// Evaluate over every row of `batch`, producing a column of the same
    /// length, borrowed when the expression names a column.
    pub fn eval<'a>(&self, batch: &'a Batch) -> Result<Cow<'a, Column>> {
        Ok(match self.datum(batch)? {
            Datum::Col(col) => col,
            // The one broadcast: a constant result, as in `SELECT 1`.
            Datum::Const(one) => Cow::Owned(one.take(&vec![0; batch.num_rows()])),
        })
    }

    /// Evaluate as a filter predicate: a selection [`Bitmap`] set where the
    /// predicate is TRUE — NULL counts as false (SQL three-valued logic
    /// collapses at the WHERE clause).
    ///
    /// AND/OR combine the arms' masks with word-level bit ops, which is
    /// sound because `is-TRUE(a AND b) = is-TRUE(a) ∧ is-TRUE(b)` and
    /// `is-TRUE(a OR b) = is-TRUE(a) ∨ is-TRUE(b)` even with NULLs. An
    /// all-false left arm short-circuits an AND (and an all-true left arm
    /// an OR) without evaluating the right arm. Every other predicate is
    /// its is-TRUE mask from the one evaluator.
    pub fn eval_predicate(&self, batch: &Batch) -> Result<Bitmap> {
        match self {
            Expr::Binary {
                op: op @ (BinOp::And | BinOp::Or),
                left,
                right,
            } => {
                let l = left.eval_predicate(batch)?;
                match op {
                    BinOp::And if !l.any_set() => Ok(l),
                    BinOp::And => Ok(l.and(&right.eval_predicate(batch)?)),
                    _ if l.all_set() => Ok(l),
                    _ => Ok(l.or(&right.eval_predicate(batch)?)),
                }
            }
            _ => Ok(self.logic(batch)?.0),
        }
    }

    /// This expression over `batch` as an operand.
    fn datum<'a>(&self, batch: &'a Batch) -> Result<Datum<'a>> {
        let n = batch.num_rows();
        match self {
            Expr::Column(name) => Ok(Datum::Col(Cow::Borrowed(batch.column_by_name(name)?))),
            Expr::Literal(v) => Ok(Datum::Const(Column::from_value(v, 1))),
            Expr::Neg(e) => e.datum(batch)?.map(kernels::neg),
            Expr::Binary { op, left, right } => match op.arith_op() {
                Some(aop) => Datum::zip(left.datum(batch)?, right.datum(batch)?, n, |l, r, n| {
                    kernels::arith(l, r, aop, n)
                }),
                None => self.bool_datum(batch),
            },
            Expr::Func { name, args } => {
                let upper = name.to_ascii_uppercase();
                let arity = |k: usize| {
                    DbError::Plan(format!(
                        "{upper} expects {k} argument(s), got {}",
                        args.len()
                    ))
                };
                let f: fn(f64) -> f64 = match upper.as_str() {
                    "ABS" => f64::abs,
                    "SQRT" => f64::sqrt,
                    "LN" => f64::ln,
                    "EXP" => f64::exp,
                    "FLOOR" => f64::floor,
                    "CEIL" | "CEILING" => f64::ceil,
                    "POWER" | "POW" => {
                        let [base, exp] = args.as_slice() else {
                            return Err(arity(2));
                        };
                        let (base, exp) = (base.datum(batch)?, exp.datum(batch)?);
                        return Datum::zip(base, exp, n, |b, e, n| {
                            kernels::arith(b, e, ArithOp::Pow, n)
                        });
                    }
                    _ => return Err(DbError::Plan(format!("unknown function {name}"))),
                };
                let [arg] = args.as_slice() else {
                    return Err(arity(1));
                };
                arg.datum(batch)?.map(|c| kernels::map_f64(c, &upper, f))
            }
            Expr::Not(_)
            | Expr::IsNull(_)
            | Expr::IsNotNull(_)
            | Expr::InList { .. }
            | Expr::Like { .. } => self.bool_datum(batch),
        }
    }

    /// A boolean expression as a Bool column.
    fn bool_datum<'a>(&self, batch: &Batch) -> Result<Datum<'a>> {
        let (t, f) = self.logic(batch)?;
        let mut data = vec![false; t.len()];
        t.for_each_set(|i| data[i] = true);
        let validity = t.or(&f);
        Ok(Datum::Col(Cow::Owned(Column::Bool { data, validity })))
    }

    /// A boolean expression over every row of `batch` as its (is TRUE,
    /// is FALSE) masks.
    fn logic(&self, batch: &Batch) -> Result<(Bitmap, Bitmap)> {
        let n = batch.num_rows();
        let negate =
            |(t, f): (Bitmap, Bitmap), negated: bool| if negated { (f, t) } else { (t, f) };
        match self {
            Expr::Binary {
                op: op @ (BinOp::And | BinOp::Or),
                left,
                right,
            } => {
                let ((lt, lf), (rt, rf)) = (left.logic(batch)?, right.logic(batch)?);
                Ok(match op {
                    BinOp::And => (lt.and(&rt), lf.or(&rf)),
                    _ => (lt.or(&rt), lf.and(&rf)),
                })
            }
            Expr::Binary { op, left, right } => match op.cmp_op() {
                Some(cop) => {
                    let (l, r) = (left.datum(batch)?, right.datum(batch)?);
                    let (truth, valid) = kernels::cmp(l.column(), r.column(), cop, n)?;
                    Ok(split(truth, valid))
                }
                None => truth_of(self.datum(batch)?.column(), n),
            },
            Expr::Not(e) => Ok(negate(e.logic(batch)?, true)),
            Expr::IsNull(e) | Expr::IsNotNull(e) => {
                let valid = kernels::valid_rows(&[e.datum(batch)?.column()], n)?;
                let null = Bitmap::all_valid(n).and_not(&valid);
                Ok(negate((null, valid), matches!(self, Expr::IsNotNull(_))))
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                // `x IN (a, b)` is `x = a OR x = b`.
                let x = expr.datum(batch)?;
                let (mut t, mut f) = (Bitmap::all_clear(n), Bitmap::all_valid(n));
                for item in list {
                    let item = item.datum(batch)?;
                    let (truth, valid) = kernels::cmp(x.column(), item.column(), CmpOp::Eq, n)?;
                    let (it, ifalse) = split(truth, valid);
                    (t, f) = (t.or(&it), f.and(&ifalse));
                }
                Ok(negate((t, f), *negated))
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let (s, p) = (expr.datum(batch)?, pattern.datum(batch)?);
                let (s, p) = (s.column(), p.column());
                let valid = kernels::valid_rows(&[s, p], n)?;
                let holds = match (s, p) {
                    _ if kernels::no_value(&[s, p]) => valid.clone(),
                    (Column::Varchar { data: sd, .. }, Column::Varchar { data: pd, .. }) => {
                        let (ss, ps) = (kernels::step(s, n)?, kernels::step(p, n)?);
                        let pats: Vec<Like> = pd.iter().map(|p| Like::new(p)).collect();
                        Bitmap::from_fn(n, |i| pats[ps * i].matches(&sd[ss * i]))
                    }
                    _ => {
                        let (l, r) = (s.data_type(), Some(p.data_type()));
                        return Err(KernelError::types("LIKE", l, r).into());
                    }
                };
                Ok(negate(split(holds, valid), *negated))
            }
            _ => truth_of(self.datum(batch)?.column(), n),
        }
    }
}

/// An evaluated operand: a column of the batch, or a constant computed once
/// as a one-row column (so a NULL keeps its type) that kernels read for
/// every row.
enum Datum<'a> {
    Col(Cow<'a, Column>),
    Const(Column),
}

type KernelResult = std::result::Result<Column, KernelError>;

impl<'a> Datum<'a> {
    fn column(&self) -> &Column {
        match self {
            Datum::Col(col) => col,
            Datum::Const(one) => one,
        }
    }

    /// `f` of this operand; a constant stays one.
    fn map(self, f: impl FnOnce(&Column) -> KernelResult) -> Result<Datum<'a>> {
        Ok(match self {
            Datum::Col(col) => Datum::Col(Cow::Owned(f(&col)?)),
            Datum::Const(one) => Datum::Const(f(&one)?),
        })
    }

    /// `f` of two operands over `n` rows, or over one when both are
    /// constants.
    fn zip(
        l: Datum<'_>,
        r: Datum<'_>,
        n: usize,
        f: impl FnOnce(&Column, &Column, usize) -> KernelResult,
    ) -> Result<Datum<'a>> {
        Ok(match (&l, &r) {
            (Datum::Const(a), Datum::Const(b)) => Datum::Const(f(a, b, 1)?),
            _ => Datum::Col(Cow::Owned(f(l.column(), r.column(), n)?)),
        })
    }
}

/// (is TRUE, is FALSE) from where a test holds and where its operands are
/// non-NULL.
fn split(holds: Bitmap, valid: Bitmap) -> (Bitmap, Bitmap) {
    (holds.and(&valid), valid.and_not(&holds))
}

/// A Bool operand's (is TRUE, is FALSE) masks over `n` rows.
fn truth_of(col: &Column, n: usize) -> Result<(Bitmap, Bitmap)> {
    let valid = kernels::valid_rows(&[col], n)?;
    match col {
        _ if kernels::no_value(&[col]) => Ok((valid.clone(), valid)),
        Column::Bool { data, .. } => {
            let s = kernels::step(col, n)?;
            Ok(split(Bitmap::from_fn(n, |i| data[s * i]), valid))
        }
        other => Err(DbError::Plan(format!(
            "predicate must be boolean, got {:?}",
            other.data_type()
        ))),
    }
}

/// A LIKE pattern, compiled once: `%` matches any run of characters
/// (including none), `_` any single character.
struct Like(Vec<char>);

impl Like {
    fn new(pattern: &str) -> Like {
        Like(pattern.chars().collect())
    }

    /// Iterative backtracking over the last `%`, the classic glob match;
    /// `si` is a byte offset into `s`.
    fn matches(&self, s: &str) -> bool {
        let p = &self.0;
        let (mut si, mut pi) = (0usize, 0usize);
        let mut star: Option<(usize, usize)> = None; // (pattern idx after %, matched s offset)
        while let Some(c) = s[si..].chars().next() {
            if pi < p.len() && (p[pi] == '_' || p[pi] == c) {
                si += c.len_utf8();
                pi += 1;
            } else if pi < p.len() && p[pi] == '%' {
                star = Some((pi + 1, si));
                pi += 1;
            } else if let Some((spi, ssi)) = star {
                // Backtrack: let the last % swallow one more character.
                let skip = s[ssi..].chars().next().map_or(1, char::len_utf8);
                pi = spi;
                si = ssi + skip;
                star = Some((spi, si));
            } else {
                return false;
            }
        }
        p[pi..].iter().all(|&c| c == '%')
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(name) => f.write_str(name),
            Expr::Literal(Value::Varchar(s)) => write!(f, "'{s}'"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Neg(e) => write!(f, "-({e})"),
            Expr::Not(e) => write!(f, "NOT ({e})"),
            Expr::IsNull(e) => write!(f, "({e}) IS NULL"),
            Expr::IsNotNull(e) => write!(f, "({e}) IS NOT NULL"),
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "({expr}) {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "({expr}) {}LIKE {pattern}",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Binary { op, left, right } => {
                write!(f, "({left} {} {right})", op.symbol())
            }
            Expr::Func { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use std::cmp::Ordering;
    use vdr_columnar::Schema;

    fn like_match(s: &str, pattern: &str) -> bool {
        Like::new(pattern).matches(s)
    }

    /// Predicate mask as plain bools, for readable assertions.
    fn pred(e: &Expr, b: &Batch) -> Vec<bool> {
        let m = e.eval_predicate(b).unwrap();
        (0..m.len()).map(|i| m.get(i)).collect()
    }

    fn batch() -> Batch {
        let schema = Schema::of(&[
            ("a", DataType::Int64),
            ("b", DataType::Float64),
            ("s", DataType::Varchar),
        ]);
        Batch::new(
            schema,
            vec![
                Column::from_i64(vec![1, 2, 3, 4]),
                Column::from_f64(vec![0.5, 1.5, 2.5, 3.5]),
                Column::from_strings(vec!["x", "y", "x", "z"]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn arithmetic_types() {
        let b = batch();
        // Int + Int → Int
        let e = Expr::binary(BinOp::Add, Expr::col("a"), Expr::lit(10i64));
        let c = e.eval(&b).unwrap();
        assert_eq!(c.data_type(), DataType::Int64);
        assert_eq!(c.get(3), Value::Int64(14));
        // Int / Int → Float
        let e = Expr::binary(BinOp::Div, Expr::col("a"), Expr::lit(2i64));
        let c = e.eval(&b).unwrap();
        assert_eq!(c.data_type(), DataType::Float64);
        assert_eq!(c.get(0), Value::Float64(0.5));
        // Mixed → Float
        let e = Expr::binary(BinOp::Mul, Expr::col("a"), Expr::col("b"));
        assert_eq!(e.eval(&b).unwrap().get(1), Value::Float64(3.0));
    }

    #[test]
    fn division_by_zero_yields_null() {
        let b = batch();
        let e = Expr::binary(BinOp::Div, Expr::col("a"), Expr::lit(0i64));
        assert_eq!(e.eval(&b).unwrap().get(0), Value::Null);
        let e = Expr::binary(BinOp::Mod, Expr::col("a"), Expr::lit(0i64));
        assert_eq!(e.eval(&b).unwrap().get(0), Value::Null);
    }

    #[test]
    fn comparisons_and_logic() {
        let b = batch();
        let e = Expr::binary(
            BinOp::And,
            Expr::binary(BinOp::Gt, Expr::col("a"), Expr::lit(1i64)),
            Expr::binary(BinOp::Lt, Expr::col("b"), Expr::lit(3.0)),
        );
        assert_eq!(pred(&e, &b), vec![false, true, true, false]);
        // String equality.
        let e = Expr::binary(BinOp::Eq, Expr::col("s"), Expr::lit("x"));
        assert_eq!(pred(&e, &b), vec![true, false, true, false]);
    }

    #[test]
    fn null_handling_in_predicates() {
        let schema = Schema::of(&[("v", DataType::Int64)]);
        let rows = vec![
            vec![Value::Int64(1)],
            vec![Value::Null],
            vec![Value::Int64(3)],
        ];
        let b = Batch::from_rows(schema, &rows).unwrap();
        // NULL > 1 is NULL → excluded from the filter.
        let e = Expr::binary(BinOp::Gt, Expr::col("v"), Expr::lit(0i64));
        assert_eq!(pred(&e, &b), vec![true, false, true]);
        let e = Expr::IsNull(Box::new(Expr::col("v")));
        assert_eq!(pred(&e, &b), vec![false, true, false]);
        let e = Expr::IsNotNull(Box::new(Expr::col("v")));
        assert_eq!(pred(&e, &b), vec![true, false, true]);
    }

    #[test]
    fn three_valued_logic_short_circuits() {
        let schema = Schema::of(&[("v", DataType::Bool)]);
        let rows = vec![vec![Value::Null], vec![Value::Bool(true)]];
        let b = Batch::from_rows(schema, &rows).unwrap();
        // NULL OR TRUE = TRUE; NULL AND FALSE = FALSE.
        let e = Expr::binary(BinOp::Or, Expr::col("v"), Expr::lit(true));
        assert_eq!(e.eval(&b).unwrap().get(0), Value::Bool(true));
        let e = Expr::binary(BinOp::And, Expr::col("v"), Expr::lit(false));
        assert_eq!(e.eval(&b).unwrap().get(0), Value::Bool(false));
        // NULL AND TRUE = NULL.
        let e = Expr::binary(BinOp::And, Expr::col("v"), Expr::lit(true));
        assert_eq!(e.eval(&b).unwrap().get(0), Value::Null);
    }

    #[test]
    fn functions() {
        let b = batch();
        let e = Expr::Func {
            name: "sqrt".into(),
            args: vec![Expr::binary(BinOp::Mul, Expr::col("a"), Expr::col("a"))],
        };
        let c = e.eval(&b).unwrap();
        assert_eq!(c.get(2), Value::Float64(3.0));
        let e = Expr::Func {
            name: "POWER".into(),
            args: vec![Expr::col("a"), Expr::lit(2.0)],
        };
        assert_eq!(e.eval(&b).unwrap().get(3), Value::Float64(16.0));
        let bad = Expr::Func {
            name: "nope".into(),
            args: vec![],
        };
        assert!(bad.eval(&b).is_err());
        let wrong_arity = Expr::Func {
            name: "ABS".into(),
            args: vec![],
        };
        assert!(wrong_arity.eval(&b).is_err());
    }

    #[test]
    fn columns_collection_and_display() {
        let e = Expr::binary(
            BinOp::Add,
            Expr::col("a"),
            Expr::binary(BinOp::Mul, Expr::col("b"), Expr::col("a")),
        );
        assert_eq!(e.columns(), vec!["a", "b"]);
        assert_eq!(e.to_string(), "(a + (b * a))");
    }

    #[test]
    fn non_boolean_predicate_rejected() {
        let b = batch();
        assert!(Expr::col("a").eval_predicate(&b).is_err());
    }

    #[test]
    fn like_match_wildcards() {
        assert!(like_match("hello", "hello"));
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "%ell%"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("hello", "%"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(!like_match("hello", "h_llx"));
        assert!(!like_match("hello", "hell"));
        assert!(!like_match("hell", "hello"));
        // Backtracking cases.
        assert!(like_match("aaab", "%ab"));
        assert!(like_match("abcabc", "%abc"));
        assert!(!like_match("abcabd", "%abc"));
        assert!(like_match("xay", "%a%"));
        // `_` is one character, not one byte.
        assert!(like_match("é", "_"));
        assert!(like_match("aéb", "a_b"));
        assert!(like_match("ééx", "%éx"));
        assert!(!like_match("éé", "_"));
    }

    #[test]
    fn in_list_null_semantics() {
        let schema = Schema::of(&[("v", DataType::Int64)]);
        let rows = vec![
            vec![Value::Int64(1)],
            vec![Value::Int64(9)],
            vec![Value::Null],
        ];
        let b = Batch::from_rows(schema, &rows).unwrap();
        let e = Expr::InList {
            expr: Box::new(Expr::col("v")),
            list: vec![Expr::lit(1i64), Expr::Literal(Value::Null)],
            negated: false,
        };
        let col = e.eval(&b).unwrap();
        assert_eq!(col.get(0), Value::Bool(true)); // matched
        assert_eq!(col.get(1), Value::Null); // no match but NULL in list
        assert_eq!(col.get(2), Value::Null); // NULL subject
                                             // Predicates treat NULL as excluded.
        assert_eq!(pred(&e, &b), vec![true, false, false]);
    }

    #[test]
    fn neg_and_not() {
        let b = batch();
        let e = Expr::Neg(Box::new(Expr::col("a")));
        assert_eq!(e.eval(&b).unwrap().get(0), Value::Int64(-1));
        let e = Expr::Not(Box::new(Expr::binary(
            BinOp::Eq,
            Expr::col("s"),
            Expr::lit("x"),
        )));
        assert_eq!(pred(&e, &b), vec![false, true, false, true]);
    }

    /// Row-at-a-time SQL: Int64 pairs compare as integers, other numbers
    /// as IEEE doubles, NULL propagates, AND/OR/NOT/IN are three-valued.
    fn row_ref(e: &Expr, b: &Batch, i: usize) -> Value {
        let val = |e: &Expr| row_ref(e, b, i);
        let eq = |l: &Value, r: &Value| cmp_ref(BinOp::Eq, l, r);
        match e {
            Expr::Column(name) => b.column_by_name(name).unwrap().get(i),
            Expr::Literal(v) => v.clone(),
            Expr::Neg(e) => match val(e) {
                Value::Int64(v) => Value::Int64(-v),
                Value::Float64(v) => Value::Float64(-v),
                other => other,
            },
            Expr::Not(e) => match val(e) {
                Value::Bool(v) => Value::Bool(!v),
                other => other,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let x = val(expr);
                let hits: Vec<Value> = list.iter().map(|item| eq(&x, &val(item))).collect();
                if hits.contains(&Value::Bool(true)) {
                    Value::Bool(!negated)
                } else if hits.contains(&Value::Null) {
                    Value::Null
                } else {
                    Value::Bool(*negated)
                }
            }
            Expr::Binary { op, left, right } => {
                let (l, r) = (val(left), val(right));
                let (lb, rb) = (l.as_bool(), r.as_bool());
                match op {
                    BinOp::And if lb == Some(false) || rb == Some(false) => Value::Bool(false),
                    BinOp::Or if lb == Some(true) || rb == Some(true) => Value::Bool(true),
                    BinOp::And | BinOp::Or if l.is_null() || r.is_null() => Value::Null,
                    BinOp::And | BinOp::Or => Value::Bool(lb.unwrap()),
                    _ => cmp_ref(*op, &l, &r),
                }
            }
            other => panic!("no reference for {other}"),
        }
    }

    fn cmp_ref(op: BinOp, l: &Value, r: &Value) -> Value {
        if l.is_null() || r.is_null() {
            return Value::Null;
        }
        let ord = match (l, r) {
            (Value::Int64(x), Value::Int64(y)) => Some(x.cmp(y)),
            _ => l.as_f64().unwrap().partial_cmp(&r.as_f64().unwrap()),
        };
        Value::Bool(match op {
            BinOp::Eq => ord == Some(Ordering::Equal),
            BinOp::Ne => ord != Some(Ordering::Equal),
            BinOp::Lt => ord == Some(Ordering::Less),
            BinOp::Le => matches!(ord, Some(Ordering::Less | Ordering::Equal)),
            BinOp::Gt => ord == Some(Ordering::Greater),
            BinOp::Ge => matches!(ord, Some(Ordering::Greater | Ordering::Equal)),
            _ => panic!("{op:?} is not a comparison"),
        })
    }

    #[test]
    fn predicates_match_a_row_at_a_time_reference() {
        // Nullable Int64 with values past 2^53 and a Float64 with NaN, ±0.
        let big = 1i64 << 53;
        let schema = Schema::of(&[("v", DataType::Int64), ("w", DataType::Float64)]);
        let rows: Vec<Vec<Value>> = (0..60i64)
            .map(|i| {
                let v = match i % 7 {
                    0 => Value::Null,
                    1 => Value::Int64(big + i % 2),
                    _ => Value::Int64(i - 25),
                };
                let w = match i % 11 {
                    0 => Value::Null,
                    1 => Value::Float64(f64::NAN),
                    2 => Value::Float64(-0.0),
                    _ => Value::Float64((i as f64) / 3.0 - 8.0),
                };
                vec![v, w]
            })
            .collect();
        let b = Batch::from_rows(schema, &rows).unwrap();
        let (v, w) = (|| Expr::col("v"), || Expr::col("w"));
        let cmp = |op, l, r| Expr::binary(op, l, r);
        let in_list = |negated| Expr::InList {
            expr: Box::new(v()),
            list: vec![
                Expr::lit(big + 1),
                Expr::lit(-3i64),
                Expr::Literal(Value::Null),
            ],
            negated,
        };
        let exprs = [
            cmp(BinOp::Gt, v(), Expr::lit(0i64)),
            cmp(BinOp::Le, Expr::lit(1.5), w()),
            cmp(BinOp::Eq, v(), v()),
            cmp(BinOp::Eq, v(), Expr::lit(big + 1)),
            cmp(BinOp::Gt, v(), Expr::lit(big)),
            cmp(BinOp::Ne, v(), Expr::lit(big + 1)),
            cmp(BinOp::Ne, w(), Expr::lit(1.5)),
            cmp(BinOp::Eq, w(), Expr::lit(0.0)),
            cmp(BinOp::Gt, w(), Expr::Neg(Box::new(Expr::lit(0.5)))),
            cmp(BinOp::Ge, v(), w()),
            cmp(
                BinOp::And,
                cmp(BinOp::Ge, v(), Expr::lit(-10i64)),
                cmp(BinOp::Lt, w(), Expr::lit(5.0)),
            ),
            cmp(
                BinOp::Or,
                cmp(BinOp::Lt, v(), Expr::lit(-20i64)),
                cmp(BinOp::Gt, w(), v()),
            ),
            Expr::Not(Box::new(cmp(BinOp::Lt, w(), Expr::lit(0.0)))),
            in_list(false),
            in_list(true),
        ];
        for e in &exprs {
            let want: Vec<Value> = (0..b.num_rows()).map(|i| row_ref(e, &b, i)).collect();
            let got = e.eval(&b).unwrap();
            let got: Vec<Value> = (0..b.num_rows()).map(|i| got.get(i)).collect();
            assert_eq!(got, want, "{e}");
            let is_true: Vec<bool> = want.iter().map(|v| *v == Value::Bool(true)).collect();
            assert_eq!(pred(e, &b), is_true, "{e}");
        }
    }

    #[test]
    fn int64_is_exact_and_overflow_is_an_error() {
        let big = 1i64 << 53;
        let schema = Schema::of(&[("id", DataType::Int64)]);
        let b = Batch::new(schema, vec![Column::from_i64(vec![big, big + 1])]).unwrap();
        let id = || Expr::col("id");
        let ints = |e: Expr| e.eval(&b).unwrap().i64_data().unwrap().to_vec();
        assert_eq!(
            ints(Expr::binary(BinOp::Add, id(), Expr::lit(0i64))),
            [big, big + 1]
        );
        assert_eq!(ints(Expr::Neg(Box::new(id()))), [-big, -big - 1]);
        assert_eq!(
            ints(Expr::binary(BinOp::Mod, id(), Expr::lit(7i64))),
            [big % 7, (big + 1) % 7]
        );
        let times = Expr::binary(BinOp::Mul, id(), Expr::lit(1024i64));
        assert!(matches!(times.eval(&b), Err(DbError::Exec(_))));
        let min = Expr::Neg(Box::new(Expr::lit(i64::MIN)));
        assert!(matches!(min.eval(&b), Err(DbError::Exec(_))));
    }

    #[test]
    fn constants_evaluate_once_and_null_has_every_type() {
        let b = batch();
        // A constant result is one value for every row, typed as planned.
        let e = Expr::binary(BinOp::Add, Expr::lit(1i64), Expr::lit(2i64));
        assert_eq!(
            e.eval(&b).unwrap().into_owned(),
            Column::from_i64(vec![3; 4])
        );
        let e = Expr::binary(BinOp::Add, Expr::col("a"), Expr::Literal(Value::Null));
        let c = e.eval(&b).unwrap();
        assert_eq!(c.data_type(), e.output_type(&b).unwrap());
        assert_eq!(c.null_count(), 4);
        let e = Expr::binary(BinOp::Eq, Expr::col("s"), Expr::Literal(Value::Null));
        assert_eq!(pred(&e, &b), vec![false; 4]);
        // A type pair no operator takes is an error, whatever the rows.
        let e = Expr::binary(BinOp::Lt, Expr::col("s"), Expr::lit(1i64));
        assert!(matches!(e.eval_predicate(&b), Err(DbError::Exec(_))));
        // Borrowed, not copied: a column reference.
        assert!(matches!(Expr::col("a").eval(&b).unwrap(), Cow::Borrowed(_)));
    }
}
