//! SQL abstract syntax tree.

use crate::expr::Expr;
use std::collections::BTreeMap;
use vdr_columnar::DataType;

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // Select dominates in practice; boxing it would cost a deref on the hot path
pub enum Statement {
    Select(SelectStmt),
    CreateTable {
        name: String,
        columns: Vec<(String, DataType)>,
        segmentation: Option<SegSpec>,
    },
    /// `CREATE TABLE name AS SELECT …` — materialize a query's result (e.g.
    /// store in-database predictions as a table).
    CreateTableAs {
        name: String,
        query: Box<SelectStmt>,
    },
    Insert {
        table: String,
        rows: Vec<Vec<Expr>>,
    },
    DropTable {
        name: String,
        if_exists: bool,
    },
    /// `PROFILE <statement>` — execute the inner statement and return its
    /// per-node/per-phase profile rows instead of its result.
    Profile(Box<Statement>),
    /// `TRACE <statement>` — execute the inner statement with span
    /// recording forced on and return its span rows (one per closed span)
    /// instead of its result.
    Trace(Box<Statement>),
    /// `EXPLAIN <select>` — plan the query without running it and return
    /// its physical plan, one row per operator.
    Explain(Box<SelectStmt>),
}

/// `SEGMENTED BY …` clause of CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub enum SegSpec {
    Hash(String),
    RoundRobin,
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectStmt {
    pub items: Vec<SelectItem>,
    /// `FROM table` — optional so `SELECT 1+1` works.
    pub from: Option<String>,
    /// `FROM table [AS] alias` — lets ON/projection qualify columns.
    pub from_alias: Option<String>,
    /// `[INNER | LEFT [OUTER]] JOIN t [alias] ON a.x = b.y`.
    pub join: Option<JoinClause>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub order_by: Vec<OrderKey>,
    pub limit: Option<u64>,
    pub offset: Option<u64>,
}

/// Join flavor. `JOIN` with no qualifier parses as `Inner`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    Left,
}

/// One equi-join against a second table: `JOIN t [alias] ON l = r`. The keys
/// are kept as written (possibly `alias.column`-qualified); the planner
/// resolves each to a side.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    pub kind: JoinKind,
    pub table: String,
    pub alias: Option<String>,
    pub left_key: String,
    pub right_key: String,
}

/// One element of the projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// An expression with an optional alias.
    Expr { expr: Expr, alias: Option<String> },
    /// `COUNT(*) | COUNT([DISTINCT] e) | SUM(e) | AVG(e) | MIN(e) | MAX(e)`.
    Aggregate {
        func: AggFunc,
        arg: Option<Expr>,
        /// `COUNT(DISTINCT e)`.
        distinct: bool,
        alias: Option<String>,
    },
    /// A user-defined transform function:
    /// `f(args USING PARAMETERS k='v', …) OVER (PARTITION BEST | BY col)`.
    Transform {
        name: String,
        args: Vec<Expr>,
        params: BTreeMap<String, String>,
        partition: Partition,
    },
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    pub fn from_name(name: &str) -> Option<AggFunc> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "AVG" => Some(AggFunc::Avg),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }
}

/// The OVER clause of a transform invocation. `PARTITION BEST` lets the
/// planner split data resource-consciously across UDx instances; `PARTITION
/// BY col` routes rows by a column's hash (Section 3.1).
#[derive(Debug, Clone, PartialEq)]
pub enum Partition {
    Best,
    By(String),
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    pub expr: Expr,
    pub desc: bool,
}

impl SelectStmt {
    /// Whether any item is a transform invocation (transform selects are
    /// planned entirely differently).
    pub fn transform_item(&self) -> Option<&SelectItem> {
        self.items
            .iter()
            .find(|i| matches!(i, SelectItem::Transform { .. }))
    }

    /// Whether any item is an aggregate.
    pub fn has_aggregates(&self) -> bool {
        self.items
            .iter()
            .any(|i| matches!(i, SelectItem::Aggregate { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_func_names_roundtrip() {
        for (s, f) in [
            ("count", AggFunc::Count),
            ("SUM", AggFunc::Sum),
            ("Avg", AggFunc::Avg),
            ("MIN", AggFunc::Min),
            ("max", AggFunc::Max),
        ] {
            assert_eq!(AggFunc::from_name(s), Some(f));
        }
        assert_eq!(AggFunc::from_name("median"), None);
        assert_eq!(AggFunc::Sum.name(), "sum");
    }

    #[test]
    fn select_helpers() {
        let mut s = SelectStmt::default();
        assert!(s.transform_item().is_none());
        assert!(!s.has_aggregates());
        s.items.push(SelectItem::Aggregate {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
            alias: None,
        });
        assert!(s.has_aggregates());
    }
}
