//! Batches: a schema plus equal-length columns.
//!
//! The unit of vectorized execution, of on-disk containers, and of VFT wire
//! transfers.

use crate::bitmap::Bitmap;
use crate::column::{Column, ColumnBuilder};
use crate::error::{ColumnarError, Result};
use crate::schema::Schema;
use crate::value::Value;

/// Named columns of one length: what an expression reads. [`Batch`] owns
/// its columns; [`crate::Materialized`] borrows the ones a scan decoded.
pub trait Columns {
    fn schema(&self) -> &Schema;
    fn num_rows(&self) -> usize;
    fn column(&self, i: usize) -> &Column;

    /// Column lookup by name (case-insensitive, like [`Schema::index_of`]).
    fn column_by_name(&self, name: &str) -> Result<&Column> {
        Ok(self.column(self.schema().index_of(name)?))
    }
}

impl Columns for Batch {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn num_rows(&self) -> usize {
        self.rows
    }

    fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }
}

/// A horizontal slice of a table: one column vector per schema field, all the
/// same length.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
}

impl Batch {
    pub fn new(schema: Schema, columns: Vec<Column>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(ColumnarError::LengthMismatch {
                expected: schema.len(),
                found: columns.len(),
            });
        }
        let rows = columns.first().map_or(0, Column::len);
        for (i, col) in columns.iter().enumerate() {
            if col.len() != rows {
                return Err(ColumnarError::LengthMismatch {
                    expected: rows,
                    found: col.len(),
                });
            }
            if col.data_type() != schema.field(i).dtype {
                return Err(ColumnarError::TypeMismatch {
                    expected: schema.field(i).dtype,
                    found: col.data_type(),
                });
            }
        }
        Ok(Batch {
            schema,
            columns,
            rows,
        })
    }

    /// An empty batch with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::empty(f.dtype))
            .collect();
        Batch {
            schema,
            columns,
            rows: 0,
        }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn num_rows(&self) -> usize {
        self.rows
    }

    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The schema and the columns, moved out.
    pub fn into_parts(self) -> (Schema, Vec<Column>) {
        (self.schema, self.columns)
    }

    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// One row as values (slow path: debugging, text encoding).
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(i)).collect()
    }

    /// Rows `[from, to)`.
    pub fn slice(&self, from: usize, to: usize) -> Batch {
        Batch {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.slice(from, to)).collect(),
            rows: to - from,
        }
    }

    /// Keep only the named columns, in order.
    pub fn project(&self, names: &[&str]) -> Result<Batch> {
        let schema = self.schema.project(names)?;
        let columns = names
            .iter()
            .map(|n| self.column_by_name(n).cloned())
            .collect::<Result<Vec<_>>>()?;
        Batch::new(schema, columns)
    }

    /// Keep rows where the selection `mask` is set.
    pub fn filter(&self, mask: &Bitmap) -> Result<Batch> {
        let columns = self
            .columns
            .iter()
            .map(|c| c.filter(mask))
            .collect::<Result<Vec<_>>>()?;
        Batch::new(self.schema.clone(), columns)
    }

    /// Gather rows at `indices`.
    pub fn take(&self, indices: &[usize]) -> Batch {
        let columns = self.columns.iter().map(|c| c.take(indices)).collect();
        Batch {
            schema: self.schema.clone(),
            columns,
            rows: indices.len(),
        }
    }

    /// Append all rows of `other` (schemas must match).
    pub fn extend(&mut self, other: &impl Columns) -> Result<()> {
        if self.schema != *other.schema() {
            return Err(ColumnarError::Corrupt(format!(
                "schema mismatch: {} vs {}",
                self.schema,
                other.schema()
            )));
        }
        for (i, a) in self.columns.iter_mut().enumerate() {
            a.extend(other.column(i))?;
        }
        self.rows += other.num_rows();
        Ok(())
    }

    /// Concatenate batches that share a schema.
    pub fn concat(schema: Schema, batches: &[Batch]) -> Result<Batch> {
        let mut out = Batch::empty(schema);
        for b in batches {
            out.extend(b)?;
        }
        Ok(out)
    }

    /// Build a batch from row-oriented values (test helper and INSERT path).
    pub fn from_rows(schema: Schema, rows: &[Vec<Value>]) -> Result<Batch> {
        let mut builders: Vec<ColumnBuilder> = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::with_capacity(f.dtype, rows.len()))
            .collect();
        for row in rows {
            if row.len() != schema.len() {
                return Err(ColumnarError::LengthMismatch {
                    expected: schema.len(),
                    found: row.len(),
                });
            }
            for (b, v) in builders.iter_mut().zip(row.iter()) {
                b.push(v.clone())?;
            }
        }
        Batch::new(
            schema,
            builders.into_iter().map(ColumnBuilder::finish).collect(),
        )
    }

    /// Approximate in-memory footprint.
    pub fn byte_size(&self) -> u64 {
        self.columns.iter().map(Column::byte_size).sum()
    }

    /// Total number of scalar values (rows × columns) — the cost-ledger unit
    /// for conversion work.
    pub fn num_values(&self) -> u64 {
        (self.rows * self.columns.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn batch() -> Batch {
        let schema = Schema::of(&[("id", DataType::Int64), ("x", DataType::Float64)]);
        Batch::new(
            schema,
            vec![
                Column::from_i64(vec![1, 2, 3]),
                Column::from_f64(vec![0.1, 0.2, 0.3]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_lengths_and_types() {
        let schema = Schema::of(&[("id", DataType::Int64), ("x", DataType::Float64)]);
        assert!(Batch::new(
            schema.clone(),
            vec![Column::from_i64(vec![1]), Column::from_f64(vec![])],
        )
        .is_err());
        assert!(Batch::new(
            schema.clone(),
            vec![Column::from_f64(vec![1.0]), Column::from_f64(vec![2.0])],
        )
        .is_err());
        assert!(Batch::new(schema, vec![Column::from_i64(vec![1])]).is_err());
    }

    #[test]
    fn row_and_column_access() {
        let b = batch();
        assert_eq!(b.num_rows(), 3);
        assert_eq!(b.num_columns(), 2);
        assert_eq!(b.num_values(), 6);
        assert_eq!(b.row(1), vec![Value::Int64(2), Value::Float64(0.2)]);
        assert_eq!(b.column_by_name("x").unwrap().get(2), Value::Float64(0.3));
        assert!(b.column_by_name("nope").is_err());
    }

    #[test]
    fn slice_project_filter_take() {
        let b = batch();
        assert_eq!(b.slice(1, 3).num_rows(), 2);
        let p = b.project(&["x"]).unwrap();
        assert_eq!(p.num_columns(), 1);
        assert_eq!(p.schema().names(), vec!["x"]);
        let f = b
            .filter(&Bitmap::from_bools(&[false, true, false]))
            .unwrap();
        assert_eq!(f.num_rows(), 1);
        assert_eq!(f.row(0), vec![Value::Int64(2), Value::Float64(0.2)]);
        let t = b.take(&[2, 0]);
        assert_eq!(t.row(0)[0], Value::Int64(3));
    }

    #[test]
    fn concat_and_extend() {
        let b = batch();
        let all = Batch::concat(b.schema().clone(), &[b.clone(), b.clone()]).unwrap();
        assert_eq!(all.num_rows(), 6);
        assert_eq!(all.row(5), b.row(2));

        let other = Batch::empty(Schema::of(&[("y", DataType::Int64)]));
        let mut c = b.clone();
        assert!(c.extend(&other).is_err());
    }

    #[test]
    fn from_rows_roundtrip() {
        let schema = Schema::of(&[("a", DataType::Varchar), ("b", DataType::Bool)]);
        let rows = vec![
            vec![Value::Varchar("x".into()), Value::Bool(true)],
            vec![Value::Null, Value::Bool(false)],
        ];
        let b = Batch::from_rows(schema, &rows).unwrap();
        assert_eq!(b.num_rows(), 2);
        assert_eq!(b.row(0), rows[0]);
        assert_eq!(b.row(1), rows[1]);
    }

    #[test]
    fn from_rows_rejects_ragged_rows() {
        let schema = Schema::of(&[("a", DataType::Int64)]);
        let rows = vec![vec![Value::Int64(1), Value::Int64(2)]];
        assert!(Batch::from_rows(schema, &rows).is_err());
    }
}
