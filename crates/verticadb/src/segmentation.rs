//! Table segmentation: how rows are distributed across database nodes.
//!
//! "Initially data resides as tables in Vertica and is stored as *segments*
//! on the database nodes" (Section 3.1). The segmentation scheme decides
//! which node owns each row, which in turn decides how even the partitions
//! are when the locality-preserving transfer policy is used (Section 3.2
//! discusses skewed segmentation causing stragglers).

use crate::error::{DbError, Result};

use vdr_columnar::{Batch, Column, Value};

/// A segmentation scheme.
#[derive(Debug, Clone, PartialEq)]
pub enum Segmentation {
    /// `SEGMENTED BY HASH(column)` — rows routed by a hash of one column.
    /// Even for high-cardinality columns.
    Hash { column: String },
    /// Round-robin over nodes — always even (Vertica's auto-segmentation for
    /// tables with no natural key).
    RoundRobin,
    /// Deliberately skewed: node `i` receives a share proportional to
    /// `weights[i]`. Models the "skewed segmentation" scenario of Section
    /// 3.2 for the policy experiments; not real Vertica DDL.
    Skewed { weights: Vec<f64> },
}

impl Segmentation {
    /// Split a batch into one sub-batch per node, preserving relative row
    /// order within each sub-batch. `start_row` is the global index of the
    /// batch's first row (round-robin and skew need global positions to stay
    /// deterministic across batches).
    pub fn split(&self, batch: &Batch, num_nodes: usize, start_row: u64) -> Result<Vec<Batch>> {
        let n = batch.num_rows();
        let mut routes: Vec<Vec<usize>> = vec![Vec::new(); num_nodes];
        match self {
            Segmentation::Hash { column } => {
                routes = hash_routes(batch.column_by_name(column)?, num_nodes);
            }
            Segmentation::RoundRobin => {
                for i in 0..n {
                    routes[((start_row + i as u64) % num_nodes as u64) as usize].push(i);
                }
            }
            Segmentation::Skewed { weights } => {
                if weights.len() != num_nodes {
                    return Err(DbError::Plan(format!(
                        "skew weights ({}) must match node count ({num_nodes})",
                        weights.len()
                    )));
                }
                let total: f64 = weights.iter().sum();
                if total <= 0.0 || weights.iter().any(|w| *w < 0.0) {
                    return Err(DbError::Plan(
                        "skew weights must be non-negative, sum > 0".into(),
                    ));
                }
                // Deterministic proportional routing: walk the cumulative
                // distribution with a low-discrepancy position per row.
                let cumulative: Vec<f64> = weights
                    .iter()
                    .scan(0.0, |acc, w| {
                        *acc += w / total;
                        Some(*acc)
                    })
                    .collect();
                for i in 0..n {
                    let g = start_row + i as u64;
                    // Golden-ratio sequence in [0,1): even coverage, no RNG.
                    let u = (g as f64 * 0.618_033_988_749_894_9).fract();
                    let node = cumulative
                        .iter()
                        .position(|&c| u < c)
                        .unwrap_or(num_nodes - 1);
                    routes[node].push(i);
                }
            }
        }
        Ok(routes.into_iter().map(|idx| batch.take(&idx)).collect())
    }

    /// The DDL rendering (used by `SHOW CREATE`-style output and tests).
    pub fn describe(&self) -> String {
        match self {
            Segmentation::Hash { column } => format!("SEGMENTED BY HASH({column})"),
            Segmentation::RoundRobin => "SEGMENTED ROUND ROBIN".to_string(),
            Segmentation::Skewed { weights } => format!("SEGMENTED SKEWED {weights:?}"),
        }
    }
}

/// Deterministic 64-bit hash of a value (FNV-1a over a canonical byte form).
/// Independent of Rust's `Hash` so the routing is stable across releases —
/// it is part of the storage layout.
pub fn hash_value(v: &Value) -> u64 {
    match v {
        Value::Null => fnv1a(TAG_NULL, &[]),
        Value::Int64(x) => fnv1a(TAG_INT64, &x.to_le_bytes()),
        Value::Float64(x) => fnv1a(TAG_FLOAT64, &x.to_bits().to_le_bytes()),
        Value::Bool(b) => fnv1a(TAG_BOOL, &[*b as u8]),
        Value::Varchar(s) => fnv1a(TAG_VARCHAR, s.as_bytes()),
    }
}

// The canonical byte form is a type tag followed by the value's bytes.
const TAG_NULL: u8 = 0;
const TAG_INT64: u8 = 1;
const TAG_FLOAT64: u8 = 2;
const TAG_BOOL: u8 = 3;
const TAG_VARCHAR: u8 = 4;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv1a(tag: u8, payload: &[u8]) -> u64 {
    let mut h = (FNV_OFFSET ^ tag as u64).wrapping_mul(FNV_PRIME);
    for &b in payload {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Call `f(row, hash_value(row))` for every row of `col`, computed over the
/// typed column so no [`Value`] (and no `String` clone) is built per row.
fn for_each_hash(col: &Column, mut f: impl FnMut(usize, u64)) {
    let validity = col.validity();
    let no_nulls = validity.all_set();
    let null_hash = fnv1a(TAG_NULL, &[]);
    let mut emit = |i: usize, tag: u8, payload: &[u8]| {
        if no_nulls || validity.get(i) {
            f(i, fnv1a(tag, payload));
        } else {
            f(i, null_hash);
        }
    };
    match col {
        Column::Int64 { data, .. } => {
            for (i, x) in data.iter().enumerate() {
                emit(i, TAG_INT64, &x.to_le_bytes());
            }
        }
        Column::Float64 { data, .. } => {
            for (i, x) in data.iter().enumerate() {
                emit(i, TAG_FLOAT64, &x.to_bits().to_le_bytes());
            }
        }
        Column::Bool { data, .. } => {
            for (i, b) in data.iter().enumerate() {
                emit(i, TAG_BOOL, &[*b as u8]);
            }
        }
        Column::Varchar { data, .. } => {
            for (i, s) in data.iter().enumerate() {
                emit(i, TAG_VARCHAR, s.as_bytes());
            }
        }
    }
}

/// Row indices of `col` grouped by `hash_value(row) % n` — the routing of
/// [`Segmentation::Hash`].
pub(crate) fn hash_routes(col: &Column, n: usize) -> Vec<Vec<usize>> {
    let mut routes: Vec<Vec<usize>> = vec![Vec::new(); n];
    for_each_hash(col, |i, h| routes[(h % n as u64) as usize].push(i));
    routes
}

/// One 64-bit hash per row over several key columns: each column's
/// [`hash_value`] folded FNV-style, a column at a time. The aggregator probes
/// its group table and routes shuffled partials with this one hash.
pub(crate) fn row_hashes(cols: &[&Column], rows: usize) -> Vec<u64> {
    let mut acc = vec![FNV_OFFSET; rows];
    for col in cols {
        for_each_hash(col, |i, h| acc[i] = (acc[i] ^ h).wrapping_mul(FNV_PRIME));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdr_columnar::{Column, DataType, Schema};

    fn batch(n: usize) -> Batch {
        let schema = Schema::of(&[("id", DataType::Int64), ("x", DataType::Float64)]);
        Batch::new(
            schema,
            vec![
                Column::from_i64((0..n as i64).collect()),
                Column::from_f64((0..n).map(|i| i as f64).collect()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn round_robin_is_perfectly_even() {
        let b = batch(100);
        let parts = Segmentation::RoundRobin.split(&b, 4, 0).unwrap();
        assert_eq!(parts.len(), 4);
        for p in &parts {
            assert_eq!(p.num_rows(), 25);
        }
        // Continuation across batches: starting at row 2 shifts the pattern.
        let parts = Segmentation::RoundRobin.split(&b, 4, 2).unwrap();
        assert_eq!(parts[2].column(0).get(0), Value::Int64(0));
    }

    #[test]
    fn hash_split_is_deterministic_and_complete() {
        let b = batch(500);
        let seg = Segmentation::Hash {
            column: "id".into(),
        };
        let parts1 = seg.split(&b, 3, 0).unwrap();
        let parts2 = seg.split(&b, 3, 0).unwrap();
        let total: usize = parts1.iter().map(Batch::num_rows).sum();
        assert_eq!(total, 500);
        for (a, b) in parts1.iter().zip(&parts2) {
            assert_eq!(a, b);
        }
        // Reasonably even for sequential ids.
        for p in &parts1 {
            assert!(p.num_rows() > 100, "{}", p.num_rows());
        }
    }

    #[test]
    fn hash_on_missing_column_errors() {
        let b = batch(10);
        let seg = Segmentation::Hash {
            column: "zz".into(),
        };
        assert!(seg.split(&b, 2, 0).is_err());
    }

    #[test]
    fn skewed_split_matches_weights() {
        let b = batch(10_000);
        let seg = Segmentation::Skewed {
            weights: vec![3.0, 1.0],
        };
        let parts = seg.split(&b, 2, 0).unwrap();
        let total: usize = parts.iter().map(Batch::num_rows).sum();
        assert_eq!(total, 10_000);
        let share = parts[0].num_rows() as f64 / 10_000.0;
        assert!((0.72..0.78).contains(&share), "share {share}");
    }

    #[test]
    fn skewed_weights_validated() {
        let b = batch(10);
        assert!(Segmentation::Skewed { weights: vec![1.0] }
            .split(&b, 2, 0)
            .is_err());
        assert!(Segmentation::Skewed {
            weights: vec![0.0, 0.0]
        }
        .split(&b, 2, 0)
        .is_err());
        assert!(Segmentation::Skewed {
            weights: vec![-1.0, 2.0]
        }
        .split(&b, 2, 0)
        .is_err());
    }

    #[test]
    fn value_hash_distinguishes_types_and_values() {
        assert_ne!(
            hash_value(&Value::Int64(1)),
            hash_value(&Value::Float64(1.0))
        );
        assert_ne!(hash_value(&Value::Int64(1)), hash_value(&Value::Int64(2)));
        assert_eq!(
            hash_value(&Value::Varchar("ab".into())),
            hash_value(&Value::Varchar("ab".into()))
        );
        assert_ne!(hash_value(&Value::Null), hash_value(&Value::Bool(false)));
    }

    proptest::proptest! {
        /// The typed router is `hash_value(&col.get(i)) % n` row for row —
        /// the routing is part of the storage layout — for every key type,
        /// NULL keys included, and `split` keeps row order inside a node.
        #[test]
        fn hash_routes_match_hash_value_per_row(
            keys in proptest::collection::vec(
                proptest::option::of((proptest::arbitrary::any::<i64>(), "[a-zé]{0,9}")),
                0..200,
            ),
            n in 1usize..6,
        ) {
            use vdr_columnar::ColumnBuilder;
            type ToValue = fn(&(i64, String)) -> Value;
            let typed: [(DataType, ToValue); 4] = [
                (DataType::Int64, |k| Value::Int64(k.0)),
                (DataType::Float64, |k| Value::Float64(f64::from_bits(k.0 as u64))),
                (DataType::Bool, |k| Value::Bool(k.0 & 1 == 1)),
                (DataType::Varchar, |k| Value::Varchar(k.1.clone())),
            ];
            for (dtype, value) in typed {
                let mut b = ColumnBuilder::new(dtype);
                for k in &keys {
                    b.push(k.as_ref().map_or(Value::Null, value)).unwrap();
                }
                let col = b.finish();
                let mut want: Vec<Vec<usize>> = vec![Vec::new(); n];
                for i in 0..col.len() {
                    want[(hash_value(&col.get(i)) % n as u64) as usize].push(i);
                }
                proptest::prop_assert_eq!(&hash_routes(&col, n), &want);

                let ids = Column::from_i64((0..col.len() as i64).collect());
                let batch = Batch::new(
                    Schema::of(&[("k", dtype), ("row", DataType::Int64)]),
                    vec![col, ids],
                )
                .unwrap();
                let seg = Segmentation::Hash { column: "k".into() };
                let parts = seg.split(&batch, n, 0).unwrap();
                for (part, rows) in parts.iter().zip(&want) {
                    let got: Vec<usize> = part
                        .column(1)
                        .i64_data()
                        .unwrap()
                        .iter()
                        .map(|&r| r as usize)
                        .collect();
                    proptest::prop_assert_eq!(&got, rows);
                }
            }
        }
    }

    #[test]
    fn describe_renders_ddl() {
        assert_eq!(
            Segmentation::Hash {
                column: "id".into()
            }
            .describe(),
            "SEGMENTED BY HASH(id)"
        );
        assert_eq!(Segmentation::RoundRobin.describe(), "SEGMENTED ROUND ROBIN");
    }
}
