//! In-memory tables.

use crate::chunk::Chunk;
use crate::column::Column;
use crate::error::{Error, Result};
use crate::scalar::Scalar;
use crate::schema::{Schema, SchemaRef};
use crate::DEFAULT_CHUNK_ROWS;
use std::fmt;
use std::sync::Arc;

/// An immutable in-memory table: a schema plus a list of [`Chunk`]s.
///
/// Tables are the engine's base relations. They are cheap to share
/// (`Arc<Table>`) and are scanned chunk-at-a-time by the executor.
#[derive(Debug, Clone)]
pub struct Table {
    schema: SchemaRef,
    chunks: Vec<Chunk>,
    rows: usize,
}

impl Table {
    /// An empty table with the given schema.
    pub fn empty(schema: SchemaRef) -> Self {
        Table {
            schema,
            chunks: Vec::new(),
            rows: 0,
        }
    }

    /// Builds a table from chunks (all must share the schema).
    pub fn new(schema: SchemaRef, chunks: Vec<Chunk>) -> Result<Self> {
        let mut rows = 0;
        for chunk in &chunks {
            if chunk.schema().fields() != schema.fields() {
                return Err(Error::InvalidArgument("table chunk schema mismatch".into()));
            }
            rows += chunk.num_rows();
        }
        Ok(Table {
            schema,
            chunks,
            rows,
        })
    }

    /// Builds a single-chunk table directly from columns.
    pub fn from_columns(schema: Schema, columns: Vec<Column>) -> Result<Self> {
        let schema = Arc::new(schema);
        let chunk = Chunk::new(schema.clone(), columns)?;
        let rows = chunk.num_rows();
        Ok(Table {
            schema,
            chunks: vec![chunk],
            rows,
        })
    }

    /// The table's schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Total number of rows across chunks.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The chunks backing this table.
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// Appends a chunk (schema must match).
    pub fn append(&mut self, chunk: Chunk) -> Result<()> {
        if chunk.schema().fields() != self.schema.fields() {
            return Err(Error::InvalidArgument(
                "append chunk schema mismatch".into(),
            ));
        }
        self.rows += chunk.num_rows();
        self.chunks.push(chunk);
        Ok(())
    }

    /// All rows as one chunk (copies unless the table has one chunk; for
    /// small results and tests).
    pub fn to_chunk(&self) -> Result<Chunk> {
        if self.chunks.is_empty() {
            return Ok(Chunk::empty(self.schema.clone()));
        }
        Chunk::concat(&self.chunks)
    }

    /// Re-chunks the table into batches of `rows_per_chunk` (used to control
    /// vectorized batch size in experiments).
    pub fn rechunk(&self, rows_per_chunk: usize) -> Result<Table> {
        if rows_per_chunk == 0 {
            return Err(Error::InvalidArgument("rows_per_chunk must be > 0".into()));
        }
        let all = self.to_chunk()?;
        let mut chunks = Vec::new();
        let mut offset = 0;
        while offset < all.num_rows() {
            let len = rows_per_chunk.min(all.num_rows() - offset);
            chunks.push(all.slice(offset, len)?);
            offset += len;
        }
        Table::new(self.schema.clone(), chunks)
    }

    /// Row `i` across chunk boundaries.
    pub fn row(&self, mut i: usize) -> Result<Vec<Scalar>> {
        if i >= self.rows {
            return Err(Error::IndexOutOfBounds {
                index: i,
                len: self.rows,
            });
        }
        for chunk in &self.chunks {
            if i < chunk.num_rows() {
                return chunk.row(i);
            }
            i -= chunk.num_rows();
        }
        unreachable!("row index validated above")
    }

    /// The column named `name` materialized across all chunks (copies each
    /// row once unless the table has one chunk, whose buffers it shares).
    pub fn column_by_name(&self, name: &str) -> Result<Column> {
        let idx = self.schema.index_of(name)?;
        if self.chunks.is_empty() {
            return Ok(Column::nulls(self.schema.field_at(idx)?.data_type, 0));
        }
        let parts = self
            .chunks
            .iter()
            .map(|chunk| chunk.column(idx))
            .collect::<Result<Vec<_>>>()?;
        Column::concat_all(&parts)
    }

    /// Builds a table row-wise from scalars, chunking at
    /// [`DEFAULT_CHUNK_ROWS`].
    pub fn from_rows(schema: Schema, rows: Vec<Vec<Scalar>>) -> Result<Self> {
        let schema = Arc::new(schema);
        let mut table = Table::empty(schema.clone());
        let mut builder = crate::builder::RowBuilder::new(schema.clone());
        for row in rows {
            builder.push_row(row)?;
            if builder.len() == DEFAULT_CHUNK_ROWS {
                let full = std::mem::replace(
                    &mut builder,
                    crate::builder::RowBuilder::new(schema.clone()),
                );
                table.append(full.finish()?)?;
            }
        }
        if !builder.is_empty() {
            table.append(builder.finish()?)?;
        }
        Ok(table)
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} ({} rows)", self.schema, self.rows)?;
        let limit = 20.min(self.rows);
        for i in 0..limit {
            let row = self.row(i).map_err(|_| fmt::Error)?;
            let cells: Vec<String> = row.iter().map(|s| s.to_string()).collect();
            writeln!(f, "{}", cells.join(" | "))?;
        }
        if self.rows > limit {
            writeln!(f, "... ({} more rows)", self.rows - limit)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::types::DataType;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::required("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ])
    }

    fn table() -> Table {
        Table::from_rows(
            schema(),
            (0..10)
                .map(|i| vec![Scalar::Int64(i), Scalar::Utf8(format!("row{i}"))])
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn from_rows_and_access() {
        let t = table();
        assert_eq!(t.num_rows(), 10);
        assert_eq!(t.row(7).unwrap()[0], Scalar::Int64(7));
        assert!(t.row(10).is_err());
    }

    #[test]
    fn rechunk_preserves_rows() {
        let t = table().rechunk(3).unwrap();
        assert_eq!(t.chunks().len(), 4);
        assert_eq!(t.num_rows(), 10);
        assert_eq!(t.row(9).unwrap()[1], Scalar::from("row9"));
        assert!(table().rechunk(0).is_err());
    }

    #[test]
    fn column_by_name_spans_chunks() {
        let t = table().rechunk(4).unwrap();
        let col = t.column_by_name("id").unwrap();
        assert_eq!(col.len(), 10);
        assert_eq!(col.get(9), Scalar::Int64(9));
        assert!(t.column_by_name("missing").is_err());
    }

    #[test]
    fn many_chunk_concat_equals_the_one_chunk_table() {
        let schema = Schema::new(vec![
            Field::new("b", DataType::Bool),
            Field::new("i", DataType::Int64),
            Field::new("f", DataType::Float64),
            Field::new("s", DataType::Utf8),
            Field::new("t", DataType::Timestamp),
        ]);
        // NULLs land in some chunks and not in others.
        let rows = (0..50i64)
            .map(|i| {
                if i % 7 == 3 || (20..24).contains(&i) {
                    vec![Scalar::Null; 5]
                } else {
                    vec![
                        Scalar::Bool(i % 2 == 0),
                        Scalar::Int64(i),
                        Scalar::Float64(i as f64 / 4.0),
                        Scalar::Utf8(format!("v{}", i % 9)),
                        Scalar::Timestamp(1_000 * i),
                    ]
                }
            })
            .collect();
        let whole = Table::from_rows(schema, rows).unwrap();
        assert_eq!(whole.chunks().len(), 1);
        let one = &whole.chunks()[0];
        // One chunk: the column is the chunk's own, buffers shared.
        assert_eq!(
            whole
                .column_by_name("s")
                .unwrap()
                .utf8_values()
                .unwrap()
                .as_ptr(),
            one.column(3).unwrap().utf8_values().unwrap().as_ptr()
        );
        for rows_per_chunk in [1, 3, 7, 50] {
            let t = whole.rechunk(rows_per_chunk).unwrap();
            assert_eq!(t.chunks().len(), 50usize.div_ceil(rows_per_chunk));
            for (i, field) in whole.schema().fields().iter().enumerate() {
                assert_eq!(
                    &t.column_by_name(&field.name).unwrap(),
                    one.column(i).unwrap(),
                    "{} at {rows_per_chunk} rows a chunk",
                    field.name
                );
            }
            let glued = Chunk::concat(t.chunks()).unwrap();
            assert_eq!(glued.num_rows(), 50);
            assert_eq!(glued.columns(), one.columns(), "{rows_per_chunk}");
        }
    }

    #[test]
    fn append_validates_schema() {
        let mut t = table();
        let other = Table::from_columns(
            Schema::new(vec![Field::new("x", DataType::Bool)]),
            vec![Column::from_bools(vec![true])],
        )
        .unwrap();
        assert!(t.append(other.chunks()[0].clone()).is_err());
    }

    #[test]
    fn to_chunk_of_empty_table() {
        let t = Table::empty(Arc::new(schema()));
        assert_eq!(t.to_chunk().unwrap().num_rows(), 0);
    }
}
