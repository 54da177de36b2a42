//! Scalar values and data types.

use std::fmt;

/// The column types the engine supports — the set the paper's workloads need
/// (numeric features, labels, identifiers, and names/descriptions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Int64,
    Float64,
    Bool,
    Varchar,
}

impl DataType {
    /// The SQL spelling accepted by the parser and printed by `DESCRIBE`.
    pub fn sql_name(self) -> &'static str {
        match self {
            DataType::Int64 => "INTEGER",
            DataType::Float64 => "FLOAT",
            DataType::Bool => "BOOLEAN",
            DataType::Varchar => "VARCHAR",
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql_name())
    }
}

/// A single (possibly NULL) scalar.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Int64(i64),
    Float64(f64),
    Bool(bool),
    Varchar(String),
}

impl Value {
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int64(_) => Some(DataType::Int64),
            Value::Float64(_) => Some(DataType::Float64),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Varchar(_) => Some(DataType::Varchar),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view used by expression evaluation and the ML bridge
    /// (ints widen to doubles, booleans to 0/1).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int64(v) => Some(*v as f64),
            Value::Float64(v) => Some(*v),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Null | Value::Varchar(_) => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int64(v) => Some(*v),
            Value::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Varchar(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    /// The ODBC-style text rendering used by the row-oriented wire format.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int64(v) => write!(f, "{v}"),
            Value::Float64(v) => write!(f, "{v}"),
            Value::Bool(b) => f.write_str(if *b { "t" } else { "f" }),
            Value::Varchar(s) => f.write_str(s),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Varchar(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Varchar(v)
    }
}

/// `None` is NULL.
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_names() {
        assert_eq!(DataType::Int64.sql_name(), "INTEGER");
    }

    #[test]
    fn numeric_coercions() {
        assert_eq!(Value::Int64(3).as_f64(), Some(3.0));
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::Float64(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Varchar("x".into()).as_f64(), None);
        assert_eq!(Value::Null.as_f64(), None);
        assert_eq!(Value::Bool(true).as_i64(), Some(1));
    }

    #[test]
    fn display_matches_odbc_text_conventions() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int64(-7).to_string(), "-7");
        assert_eq!(Value::Bool(false).to_string(), "f");
        assert_eq!(Value::Varchar("abc".into()).to_string(), "abc");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(1i64), Value::Int64(1));
        assert_eq!(Value::from(1.5f64), Value::Float64(1.5));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("s"), Value::Varchar("s".into()));
        assert!(Value::Null.data_type().is_none());
        assert_eq!(Value::from(2i64).data_type(), Some(DataType::Int64));
    }
}
