//! Scalar expressions and their vectorized evaluation over batches.

use crate::error::{DbError, Result};
use std::fmt;
use vdr_columnar::kernels::{self, ArithOp, CmpOp};
use vdr_columnar::{Batch, Bitmap, Column, ColumnBuilder, DataType, Value};

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
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
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
    /// length.
    pub fn eval(&self, batch: &Batch) -> Result<Column> {
        let n = batch.num_rows();
        match self {
            Expr::Column(name) => Ok(batch.column_by_name(name)?.clone()),
            Expr::Literal(v) => Ok(Column::from_value(v, n)),
            Expr::Neg(e) => {
                let col = e.eval(batch)?;
                map_numeric(&col, n, |v| -v)
            }
            Expr::Not(e) => {
                let col = e.eval(batch)?;
                let mut b = ColumnBuilder::with_capacity(DataType::Bool, n);
                for i in 0..n {
                    match col.get(i) {
                        Value::Bool(v) => b.push(Value::Bool(!v))?,
                        Value::Null => b.push_null(),
                        other => return Err(type_err("NOT", &other)),
                    }
                }
                Ok(b.finish())
            }
            Expr::IsNull(e) => {
                let col = e.eval(batch)?;
                Ok(Column::from_bool(
                    (0..n).map(|i| col.get(i).is_null()).collect(),
                ))
            }
            Expr::IsNotNull(e) => {
                let col = e.eval(batch)?;
                Ok(Column::from_bool(
                    (0..n).map(|i| !col.get(i).is_null()).collect(),
                ))
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let col = expr.eval(batch)?;
                let items: Vec<Column> =
                    list.iter().map(|e| e.eval(batch)).collect::<Result<_>>()?;
                let mut b = ColumnBuilder::with_capacity(DataType::Bool, n);
                for i in 0..n {
                    let v = col.get(i);
                    if v.is_null() {
                        b.push_null();
                        continue;
                    }
                    let mut found = false;
                    let mut saw_null = false;
                    for item in &items {
                        let iv = item.get(i);
                        if iv.is_null() {
                            saw_null = true;
                            continue;
                        }
                        if compare_values(&v, &iv)? == std::cmp::Ordering::Equal {
                            found = true;
                            break;
                        }
                    }
                    // SQL three-valued IN: no match but a NULL present → NULL.
                    match (found, saw_null) {
                        (true, _) => b.push(Value::Bool(!negated))?,
                        (false, true) => b.push_null(),
                        (false, false) => b.push(Value::Bool(*negated))?,
                    }
                }
                Ok(b.finish())
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let col = expr.eval(batch)?;
                let pat = pattern.eval(batch)?;
                let mut b = ColumnBuilder::with_capacity(DataType::Bool, n);
                for i in 0..n {
                    match (col.get(i), pat.get(i)) {
                        (Value::Varchar(s), Value::Varchar(p)) => {
                            b.push(Value::Bool(like_match(&s, &p) != *negated))?
                        }
                        (v, p) if v.is_null() || p.is_null() => b.push_null(),
                        (v, _) => {
                            return Err(DbError::Exec(format!("LIKE requires strings, got {v:?}")))
                        }
                    }
                }
                Ok(b.finish())
            }
            Expr::Binary { op, left, right } => {
                let l = left.eval(batch)?;
                let r = right.eval(batch)?;
                eval_binary(*op, &l, &r, n)
            }
            Expr::Func { name, args } => eval_func(name, args, batch, n),
        }
    }

    /// Evaluate as a filter predicate: a selection [`Bitmap`] set where the
    /// predicate is TRUE — NULL counts as false (SQL three-valued logic
    /// collapses at the WHERE clause).
    ///
    /// This is the vectorized filter path: numeric comparisons run through
    /// the typed kernels in `vdr_columnar::kernels`, and AND/OR combine
    /// masks with word-level bit ops. The composition is sound under
    /// three-valued logic because `is-TRUE` masks obey
    /// `is-TRUE(a AND b) = is-TRUE(a) ∧ is-TRUE(b)` and
    /// `is-TRUE(a OR b) = is-TRUE(a) ∨ is-TRUE(b)` even with NULLs. An
    /// all-false left arm short-circuits an AND (and an all-true left arm
    /// an OR) without evaluating the right arm. Everything outside the fast
    /// path (NOT, LIKE, IN, Varchar comparisons, …) falls back to the boxed
    /// evaluator and collapses its three-valued Bool column to a mask.
    pub fn eval_predicate(&self, batch: &Batch) -> Result<Bitmap> {
        let n = batch.num_rows();
        match self {
            Expr::Literal(Value::Bool(true)) => Ok(Bitmap::all_valid(n)),
            Expr::Literal(Value::Bool(false)) => Ok(Bitmap::all_clear(n)),
            Expr::Binary { op, left, right } if matches!(op, BinOp::And | BinOp::Or) => {
                let l = left.eval_predicate(batch)?;
                match op {
                    BinOp::And if !l.any_set() => Ok(l),
                    BinOp::And => Ok(l.and(&right.eval_predicate(batch)?)),
                    _ if l.all_set() => Ok(l),
                    _ => Ok(l.or(&right.eval_predicate(batch)?)),
                }
            }
            Expr::Binary { op, left, right } if op.is_comparison() => {
                let cop = cmp_op(*op);
                // Column-vs-literal: scalar kernel, no constant column.
                if let (Expr::Column(name), Expr::Literal(v)) = (&**left, &**right) {
                    if let Some(rhs) = literal_num(v) {
                        let col = batch.column_by_name(name)?;
                        if let Some((truth, _)) = kernels::cmp_scalar(col, cop, rhs) {
                            return Ok(truth);
                        }
                    }
                }
                if let (Expr::Literal(v), Expr::Column(name)) = (&**left, &**right) {
                    if let Some(lhs) = literal_num(v) {
                        let col = batch.column_by_name(name)?;
                        if let Some((truth, _)) = kernels::cmp_scalar(col, cop.flip(), lhs) {
                            return Ok(truth);
                        }
                    }
                }
                let l = left.eval(batch)?;
                let r = right.eval(batch)?;
                if let Some((truth, _)) = kernels::cmp_columns(&l, &r, cop) {
                    return Ok(truth);
                }
                collapse_is_true(&eval_binary(*op, &l, &r, n)?)
            }
            _ => collapse_is_true(&self.eval(batch)?),
        }
    }
}

/// Map a comparison [`BinOp`] onto the kernel operator. Callers must have
/// checked `op.is_comparison()`.
pub(crate) fn cmp_op(op: BinOp) -> CmpOp {
    match op {
        BinOp::Eq => CmpOp::Eq,
        BinOp::Ne => CmpOp::Ne,
        BinOp::Lt => CmpOp::Lt,
        BinOp::Le => CmpOp::Le,
        BinOp::Gt => CmpOp::Gt,
        BinOp::Ge => CmpOp::Ge,
        _ => unreachable!("comparison checked by caller"),
    }
}

/// A literal as a numeric kernel scalar: `Some(Some(x))` for numbers,
/// `Some(None)` for NULL (comparison result is all-NULL), `None` for
/// non-numeric literals (kernel doesn't apply).
pub(crate) fn literal_num(v: &Value) -> Option<Option<f64>> {
    match v {
        Value::Int64(i) => Some(Some(*i as f64)),
        Value::Float64(f) => Some(Some(*f)),
        Value::Null => Some(None),
        _ => None,
    }
}

/// Collapse a three-valued Bool column to its `is-TRUE` selection mask.
fn collapse_is_true(col: &Column) -> Result<Bitmap> {
    match col {
        Column::Bool { data, validity } => Ok(Bitmap::from_bools(data).and(validity)),
        other => Err(DbError::Plan(format!(
            "predicate must be boolean, got {:?}",
            other.data_type()
        ))),
    }
}

fn type_err(op: &str, v: &Value) -> DbError {
    DbError::Exec(format!("{op} not applicable to {v:?}"))
}

fn map_numeric(col: &Column, n: usize, f: impl Fn(f64) -> f64) -> Result<Column> {
    match col {
        Column::Int64 { data, validity } => {
            let mut b = ColumnBuilder::with_capacity(DataType::Int64, n);
            for i in 0..n {
                if validity.get(i) {
                    b.push(Value::Int64(f(data[i] as f64) as i64))?;
                } else {
                    b.push_null();
                }
            }
            Ok(b.finish())
        }
        Column::Float64 { data, validity } => {
            let mut b = ColumnBuilder::with_capacity(DataType::Float64, n);
            for i in 0..n {
                if validity.get(i) {
                    b.push(Value::Float64(f(data[i])))?;
                } else {
                    b.push_null();
                }
            }
            Ok(b.finish())
        }
        other => Err(DbError::Exec(format!(
            "numeric operation on non-numeric column {:?}",
            other.data_type()
        ))),
    }
}

fn eval_binary(op: BinOp, l: &Column, r: &Column, n: usize) -> Result<Column> {
    match op {
        BinOp::And | BinOp::Or => {
            let mut b = ColumnBuilder::with_capacity(DataType::Bool, n);
            for i in 0..n {
                let lv = l.get(i);
                let rv = r.get(i);
                let out = match (op, lv.as_bool(), rv.as_bool()) {
                    // SQL three-valued logic short circuits.
                    (BinOp::And, Some(false), _) | (BinOp::And, _, Some(false)) => Some(false),
                    (BinOp::Or, Some(true), _) | (BinOp::Or, _, Some(true)) => Some(true),
                    (_, Some(a), Some(b)) => Some(match op {
                        BinOp::And => a && b,
                        _ => a || b,
                    }),
                    (_, _, _) if lv.is_null() || rv.is_null() => None,
                    _ => return Err(type_err(op.symbol(), &lv)),
                };
                match out {
                    Some(v) => b.push(Value::Bool(v))?,
                    None => b.push_null(),
                }
            }
            Ok(b.finish())
        }
        _ if op.is_comparison() => {
            // Numeric columns take the vectorized kernel; the truth/validity
            // bitmap pair is exactly a three-valued Bool column.
            if let Some((truth, validity)) = kernels::cmp_columns(l, r, cmp_op(op)) {
                return Ok(Column::Bool {
                    data: (0..n).map(|i| truth.get(i)).collect(),
                    validity,
                });
            }
            let mut b = ColumnBuilder::with_capacity(DataType::Bool, n);
            for i in 0..n {
                let lv = l.get(i);
                let rv = r.get(i);
                if lv.is_null() || rv.is_null() {
                    b.push_null();
                    continue;
                }
                let ord = compare_values(&lv, &rv)?;
                let keep = match op {
                    BinOp::Eq => ord == std::cmp::Ordering::Equal,
                    BinOp::Ne => ord != std::cmp::Ordering::Equal,
                    BinOp::Lt => ord == std::cmp::Ordering::Less,
                    BinOp::Le => ord != std::cmp::Ordering::Greater,
                    BinOp::Gt => ord == std::cmp::Ordering::Greater,
                    BinOp::Ge => ord != std::cmp::Ordering::Less,
                    _ => unreachable!(),
                };
                b.push(Value::Bool(keep))?;
            }
            Ok(b.finish())
        }
        _ => {
            // Numeric columns take the vectorized arithmetic kernel.
            let aop = match op {
                BinOp::Add => Some(ArithOp::Add),
                BinOp::Sub => Some(ArithOp::Sub),
                BinOp::Mul => Some(ArithOp::Mul),
                BinOp::Div => Some(ArithOp::Div),
                BinOp::Mod => Some(ArithOp::Mod),
                _ => None,
            };
            if let Some(aop) = aop {
                if let Some(col) = kernels::arith_columns(l, r, aop) {
                    return Ok(col);
                }
            }
            // Arithmetic. Int ⊕ Int stays Int except division.
            let int_out = l.data_type() == DataType::Int64
                && r.data_type() == DataType::Int64
                && op != BinOp::Div;
            let dtype = if int_out {
                DataType::Int64
            } else {
                DataType::Float64
            };
            let mut b = ColumnBuilder::with_capacity(dtype, n);
            for i in 0..n {
                let lv = l.get(i);
                let rv = r.get(i);
                match (lv.as_f64(), rv.as_f64()) {
                    (Some(a), Some(c)) => {
                        if matches!(op, BinOp::Div | BinOp::Mod) && c == 0.0 {
                            b.push_null(); // SQL: division by zero → NULL here
                            continue;
                        }
                        let out = match op {
                            BinOp::Add => a + c,
                            BinOp::Sub => a - c,
                            BinOp::Mul => a * c,
                            BinOp::Div => a / c,
                            BinOp::Mod => a % c,
                            _ => unreachable!(),
                        };
                        if int_out {
                            b.push(Value::Int64(out as i64))?;
                        } else {
                            b.push(Value::Float64(out))?;
                        }
                    }
                    _ if lv.is_null() || rv.is_null() => b.push_null(),
                    _ => return Err(type_err(op.symbol(), &lv)),
                }
            }
            Ok(b.finish())
        }
    }
}

/// Total order across comparable values (numerics inter-compare; strings and
/// bools compare within type). Used by comparisons and `IN` lists; ORDER BY
/// orders typed columns instead (`sort.rs`).
pub fn compare_values(a: &Value, b: &Value) -> Result<std::cmp::Ordering> {
    use std::cmp::Ordering;
    match (a, b) {
        (Value::Varchar(x), Value::Varchar(y)) => Ok(x.cmp(y)),
        (Value::Bool(x), Value::Bool(y)) => Ok(x.cmp(y)),
        // Not through f64: integers at or above 2^53 would tie.
        (Value::Int64(x), Value::Int64(y)) => Ok(x.cmp(y)),
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => Ok(x.partial_cmp(&y).unwrap_or(Ordering::Equal)),
            _ => Err(DbError::Exec(format!("cannot compare {a:?} with {b:?}"))),
        },
    }
}

/// SQL LIKE matching: `%` matches any run (including empty), `_` any single
/// character. Iterative backtracking over the last `%`, the classic
/// glob-match algorithm.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let (mut si, mut pi) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None; // (pattern idx after %, matched s idx)
    while si < s.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star = Some((pi + 1, si));
            pi += 1;
        } else if let Some((spi, ssi)) = star {
            // Backtrack: let the last % swallow one more character.
            pi = spi;
            si = ssi + 1;
            star = Some((spi, ssi + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

fn eval_func(name: &str, args: &[Expr], batch: &Batch, n: usize) -> Result<Column> {
    let upper = name.to_ascii_uppercase();
    let want_args = |k: usize| -> Result<()> {
        if args.len() != k {
            return Err(DbError::Plan(format!(
                "{upper} expects {k} argument(s), got {}",
                args.len()
            )));
        }
        Ok(())
    };
    let unary = |f: fn(f64) -> f64| -> Result<Column> {
        want_args(1)?;
        let col = args[0].eval(batch)?;
        let mut b = ColumnBuilder::with_capacity(DataType::Float64, n);
        for i in 0..n {
            match col.get(i).as_f64() {
                Some(v) => b.push(Value::Float64(f(v)))?,
                None => b.push_null(),
            }
        }
        Ok(b.finish())
    };
    match upper.as_str() {
        "ABS" => unary(f64::abs),
        "SQRT" => unary(f64::sqrt),
        "LN" => unary(f64::ln),
        "EXP" => unary(f64::exp),
        "FLOOR" => unary(f64::floor),
        "CEIL" | "CEILING" => unary(f64::ceil),
        "POWER" | "POW" => {
            want_args(2)?;
            let base = args[0].eval(batch)?;
            let exp = args[1].eval(batch)?;
            let mut b = ColumnBuilder::with_capacity(DataType::Float64, n);
            for i in 0..n {
                match (base.get(i).as_f64(), exp.get(i).as_f64()) {
                    (Some(x), Some(y)) => b.push(Value::Float64(x.powf(y)))?,
                    _ => b.push_null(),
                }
            }
            Ok(b.finish())
        }
        _ => Err(DbError::Plan(format!("unknown function {name}"))),
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
mod tests {
    use super::*;
    use vdr_columnar::Schema;

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

    #[test]
    fn kernel_and_boxed_predicates_agree() {
        // Nullable numeric batch exercising both kernels and fallbacks.
        let schema = Schema::of(&[("v", DataType::Int64), ("w", DataType::Float64)]);
        let rows: Vec<Vec<Value>> = (0..50)
            .map(|i| {
                vec![
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Int64(i - 25)
                    },
                    if i % 11 == 0 {
                        Value::Null
                    } else {
                        Value::Float64((i as f64) / 3.0 - 8.0)
                    },
                ]
            })
            .collect();
        let b = Batch::from_rows(schema, &rows).unwrap();
        let exprs = [
            Expr::binary(BinOp::Gt, Expr::col("v"), Expr::lit(0i64)),
            Expr::binary(BinOp::Le, Expr::lit(1.5), Expr::col("w")),
            Expr::binary(BinOp::Eq, Expr::col("v"), Expr::col("v")),
            Expr::binary(
                BinOp::And,
                Expr::binary(BinOp::Ge, Expr::col("v"), Expr::lit(-10i64)),
                Expr::binary(BinOp::Lt, Expr::col("w"), Expr::lit(5.0)),
            ),
            Expr::binary(
                BinOp::Or,
                Expr::binary(BinOp::Lt, Expr::col("v"), Expr::lit(-20i64)),
                Expr::binary(BinOp::Gt, Expr::col("w"), Expr::col("v")),
            ),
        ];
        for e in &exprs {
            // Reference: materialize the 3VL Bool column row-at-a-time and
            // collapse NULL→false, the pre-vectorization definition.
            let col = e.eval(&b).unwrap();
            let reference: Vec<bool> = (0..b.num_rows())
                .map(|i| matches!(col.get(i), Value::Bool(true)))
                .collect();
            assert_eq!(pred(e, &b), reference, "{e}");
        }
    }
}
