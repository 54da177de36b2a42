//! Error type for the distributed runtime.

use std::fmt;

pub type Result<T> = std::result::Result<T, DistrError>;

/// Failures of the Distributed R runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistrError {
    /// Referenced a partition index past `npartitions`.
    NoSuchPartition { index: usize, npartitions: usize },
    /// A partition fill or operation broke shape conformity ("each partition
    /// may have variable number of rows, but the same number of columns").
    Conformity(String),
    /// Two arrays were expected to be co-partitioned (same partition count,
    /// sizes, and placement) but are not.
    NotCoPartitioned(String),
    /// An operation needed a fully materialized object but some partitions
    /// are still empty.
    PartitionEmpty { index: usize },
    /// The cluster's aggregate memory would be exceeded ("Distributed R
    /// currently handles only data that fits in the aggregate memory").
    OutOfMemory {
        worker: usize,
        requested: u64,
        available: u64,
    },
    /// A task shipped to `worker` panicked instead of returning.
    TaskPanicked { worker: usize },
    /// Generic invalid-argument error.
    Invalid(String),
}

impl fmt::Display for DistrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistrError::NoSuchPartition { index, npartitions } => {
                write!(
                    f,
                    "partition {index} out of range ({npartitions} partitions)"
                )
            }
            DistrError::Conformity(m) => write!(f, "conformity violation: {m}"),
            DistrError::NotCoPartitioned(m) => write!(f, "arrays not co-partitioned: {m}"),
            DistrError::PartitionEmpty { index } => {
                write!(f, "partition {index} has not been filled")
            }
            DistrError::OutOfMemory {
                worker,
                requested,
                available,
            } => write!(
                f,
                "worker {worker} out of memory: requested {requested} B, {available} B available"
            ),
            DistrError::TaskPanicked { worker } => write!(f, "a task on worker {worker} panicked"),
            DistrError::Invalid(m) => write!(f, "invalid argument: {m}"),
        }
    }
}

impl std::error::Error for DistrError {}
