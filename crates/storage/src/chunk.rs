//! Record chunks: the unit of vectorized execution.
//!
//! A chunk's columns share their buffers (see [`Column`]), so cloning,
//! projecting or zipping chunks copies no row.

use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::error::{Error, Result};
use crate::scalar::Scalar;
use crate::schema::SchemaRef;
use std::fmt;
use std::sync::Arc;

/// A horizontal batch of rows stored column-wise.
///
/// All physical operators consume and produce chunks, keeping the inner
/// loops over contiguous typed vectors (the "vectorized execution" lesson
/// the paper leans on).
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    schema: SchemaRef,
    columns: Vec<Column>,
    rows: usize,
}

impl Chunk {
    /// Builds a chunk, validating column count, types, and lengths against
    /// `schema`.
    pub fn new(schema: SchemaRef, columns: Vec<Column>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(Error::LengthMismatch {
                expected: schema.len(),
                actual: columns.len(),
            });
        }
        let rows = columns.first().map_or(0, |c| c.len());
        for (field, col) in schema.fields().iter().zip(&columns) {
            if field.data_type != col.data_type() {
                return Err(Error::TypeMismatch {
                    expected: field.data_type.to_string(),
                    actual: col.data_type().to_string(),
                });
            }
            if col.len() != rows {
                return Err(Error::LengthMismatch {
                    expected: rows,
                    actual: col.len(),
                });
            }
        }
        Ok(Chunk {
            schema,
            columns,
            rows,
        })
    }

    /// An empty (zero-row) chunk for `schema`.
    pub fn empty(schema: SchemaRef) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::nulls(f.data_type, 0))
            .collect();
        Chunk {
            schema,
            columns,
            rows: 0,
        }
    }

    /// The chunk's schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Whether the chunk has zero rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Approximate heap footprint in bytes (sum of column footprints),
    /// used by the query memory-budget accountant.
    pub fn memory_bytes(&self) -> usize {
        self.columns.iter().map(Column::memory_bytes).sum()
    }

    /// All columns in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The column at position `i`.
    pub fn column(&self, i: usize) -> Result<&Column> {
        self.columns.get(i).ok_or(Error::IndexOutOfBounds {
            index: i,
            len: self.columns.len(),
        })
    }

    /// The column named `name`.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        let i = self.schema.index_of(name)?;
        Ok(&self.columns[i])
    }

    /// Row `i` as a vector of scalars (for tests/display, not hot paths).
    pub fn row(&self, i: usize) -> Result<Vec<Scalar>> {
        if i >= self.rows {
            return Err(Error::IndexOutOfBounds {
                index: i,
                len: self.rows,
            });
        }
        Ok(self.columns.iter().map(|c| c.get(i)).collect())
    }

    /// A new chunk keeping only rows where `mask` is set.
    pub fn filter(&self, mask: &Bitmap) -> Result<Chunk> {
        let columns = self
            .columns
            .iter()
            .map(|c| c.filter(mask))
            .collect::<Result<Vec<_>>>()?;
        let rows = columns.first().map_or(0, |c| c.len());
        Ok(Chunk {
            schema: self.schema.clone(),
            columns,
            rows,
        })
    }

    /// A new chunk gathering rows at `indices`.
    pub fn take(&self, indices: &[usize]) -> Result<Chunk> {
        let columns = self
            .columns
            .iter()
            .map(|c| c.take(indices))
            .collect::<Result<Vec<_>>>()?;
        Ok(Chunk {
            schema: self.schema.clone(),
            columns,
            rows: indices.len(),
        })
    }

    /// The sub-chunk `[offset, offset + len)`.
    pub fn slice(&self, offset: usize, len: usize) -> Result<Chunk> {
        let columns = self
            .columns
            .iter()
            .map(|c| c.slice(offset, len))
            .collect::<Result<Vec<_>>>()?;
        Ok(Chunk {
            schema: self.schema.clone(),
            columns,
            rows: len,
        })
    }

    /// A new chunk with only the columns at `indices` (projection).
    pub fn project(&self, indices: &[usize]) -> Result<Chunk> {
        let schema = Arc::new(self.schema.project(indices)?);
        let mut columns = Vec::with_capacity(indices.len());
        for &i in indices {
            columns.push(self.column(i)?.clone());
        }
        Ok(Chunk {
            schema,
            columns,
            rows: self.rows,
        })
    }

    /// Concatenates chunks with identical schemas into one.
    pub fn concat(chunks: &[Chunk]) -> Result<Chunk> {
        let first = chunks
            .first()
            .ok_or_else(|| Error::InvalidArgument("concat of zero chunks".into()))?;
        if chunks[1..]
            .iter()
            .any(|chunk| chunk.schema.fields() != first.schema.fields())
        {
            return Err(Error::InvalidArgument(
                "concat with mismatched schemas".into(),
            ));
        }
        let columns = (0..first.columns.len())
            .map(|i| {
                let parts: Vec<&Column> = chunks.iter().map(|c| &c.columns[i]).collect();
                Column::concat_all(&parts)
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Chunk {
            schema: first.schema.clone(),
            columns,
            rows: chunks.iter().map(|c| c.rows).sum(),
        })
    }

    /// Horizontally glues two chunks with equal row counts (join output).
    pub fn zip(&self, right: &Chunk) -> Result<Chunk> {
        if self.rows != right.rows {
            return Err(Error::LengthMismatch {
                expected: self.rows,
                actual: right.rows,
            });
        }
        let schema = Arc::new(self.schema.join(&right.schema));
        let mut columns = self.columns.clone();
        columns.extend(right.columns.iter().cloned());
        Ok(Chunk {
            schema,
            columns,
            rows: self.rows,
        })
    }
}

impl fmt::Display for Chunk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for i in 0..self.rows.min(20) {
            let row: Vec<String> = self.columns.iter().map(|c| c.get(i).to_string()).collect();
            writeln!(f, "{}", row.join(" | "))?;
        }
        if self.rows > 20 {
            writeln!(f, "... ({} rows total)", self.rows)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::types::DataType;

    fn chunk() -> Chunk {
        let schema = Arc::new(Schema::new(vec![
            Field::required("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ]));
        Chunk::new(
            schema,
            vec![
                Column::from_i64(vec![1, 2, 3]),
                Column::from_strings(["a", "b", "c"]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
        // Wrong type.
        assert!(Chunk::new(schema.clone(), vec![Column::from_f64(vec![1.0])]).is_err());
        // Wrong column count.
        assert!(Chunk::new(schema.clone(), vec![]).is_err());
        // Mismatched lengths.
        let schema2 = Arc::new(Schema::new(vec![
            Field::new("x", DataType::Int64),
            Field::new("y", DataType::Int64),
        ]));
        assert!(Chunk::new(
            schema2,
            vec![Column::from_i64(vec![1]), Column::from_i64(vec![1, 2])]
        )
        .is_err());
    }

    #[test]
    fn row_access() {
        let c = chunk();
        assert_eq!(c.row(1).unwrap(), vec![Scalar::Int64(2), Scalar::from("b")]);
        assert!(c.row(3).is_err());
    }

    #[test]
    fn filter_take_slice() {
        let c = chunk();
        let mask = Bitmap::from_bools([true, false, true]);
        let f = c.filter(&mask).unwrap();
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.column(0).unwrap().i64_values().unwrap(), &[1, 3]);

        let t = c.take(&[2, 2, 0]).unwrap();
        assert_eq!(
            t.column(1).unwrap().utf8_values().unwrap(),
            &["c", "c", "a"]
        );

        let s = c.slice(1, 2).unwrap();
        assert_eq!(s.column(0).unwrap().i64_values().unwrap(), &[2, 3]);
    }

    #[test]
    fn project_reorders() {
        let c = chunk().project(&[1, 0]).unwrap();
        assert_eq!(c.schema().names(), vec!["name", "id"]);
        assert_eq!(c.num_rows(), 3);
    }

    #[test]
    fn concat_chunks() {
        let c = chunk();
        let all = Chunk::concat(&[c.clone(), c.clone()]).unwrap();
        assert_eq!(all.num_rows(), 6);
        assert!(Chunk::concat(&[]).is_err());
    }

    /// Each column's value-buffer address.
    fn buffers(c: &Chunk) -> Vec<*const u8> {
        c.columns()
            .iter()
            .map(|col| match col.data_type() {
                DataType::Int64 => col.i64_values().unwrap().as_ptr().cast(),
                _ => col.utf8_values().unwrap().as_ptr().cast(),
            })
            .collect()
    }

    #[test]
    fn clone_project_and_zip_share_buffers() {
        let c = chunk();
        let [id, name] = buffers(&c)[..] else {
            unreachable!("two columns")
        };
        assert_eq!(buffers(&c.clone()), [id, name]);
        assert_eq!(buffers(&c.project(&[1, 0]).unwrap()), [name, id]);
        assert_eq!(buffers(&c.zip(&c).unwrap()), [id, name, id, name]);
    }

    #[test]
    fn zip_joins_schemas() {
        let c = chunk();
        let z = c.zip(&c).unwrap();
        assert_eq!(z.num_columns(), 4);
        assert_eq!(
            z.schema().names(),
            vec!["id", "name", "right.id", "right.name"]
        );
    }
}
