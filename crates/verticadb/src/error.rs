//! Database error type.

use std::fmt;
use vdr_cluster::ClusterError;
use vdr_columnar::kernels::KernelError;
use vdr_columnar::ColumnarError;

pub type Result<T> = std::result::Result<T, DbError>;

/// Anything the database can fail with, from parse errors to storage faults.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    /// SQL text failed to lex/parse; includes position context.
    Parse(String),
    /// The statement parsed but is semantically invalid (unknown table,
    /// column, function, type error, …).
    Plan(String),
    /// Runtime execution failure.
    Exec(String),
    /// A catalog object already exists / does not exist.
    Catalog(String),
    /// DFS blob errors (missing blob, all replicas down, …).
    Dfs(String),
    /// Model store errors (unknown model, permission denied, …).
    Model(String),
    /// Underlying columnar layer failure.
    Columnar(ColumnarError),
    /// Underlying simulated-hardware failure.
    Cluster(ClusterError),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Parse(m) => write!(f, "parse error: {m}"),
            DbError::Plan(m) => write!(f, "planning error: {m}"),
            DbError::Exec(m) => write!(f, "execution error: {m}"),
            DbError::Catalog(m) => write!(f, "catalog error: {m}"),
            DbError::Dfs(m) => write!(f, "dfs error: {m}"),
            DbError::Model(m) => write!(f, "model error: {m}"),
            DbError::Columnar(e) => write!(f, "columnar error: {e}"),
            DbError::Cluster(e) => write!(f, "cluster error: {e}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<ColumnarError> for DbError {
    fn from(e: ColumnarError) -> Self {
        DbError::Columnar(e)
    }
}

/// An operator refusing its operands' types, or an Int64 overflow, is an
/// execution error.
impl From<KernelError> for DbError {
    fn from(e: KernelError) -> Self {
        DbError::Exec(e.to_string())
    }
}

impl From<ClusterError> for DbError {
    fn from(e: ClusterError) -> Self {
        DbError::Cluster(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: DbError = ColumnarError::NoSuchColumn("x".into()).into();
        assert!(e.to_string().contains("no such column"));
        let e: DbError = ClusterError::StreamClosed.into();
        assert!(e.to_string().contains("stream closed"));
        assert!(DbError::Parse("near 'FROM'".into())
            .to_string()
            .contains("near 'FROM'"));
    }
}
