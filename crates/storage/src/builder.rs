//! Row-wise construction of columns and chunks.

use crate::bitmap::Bitmap;
use crate::chunk::Chunk;
use crate::column::Column;
use crate::error::{Error, Result};
use crate::scalar::Scalar;
use crate::schema::SchemaRef;
use crate::types::DataType;
use std::sync::Arc;

/// Incrementally builds one typed [`Column`] from scalars.
#[derive(Debug)]
pub struct ColumnBuilder {
    data_type: DataType,
    bools: Vec<bool>,
    ints: Vec<i64>,
    floats: Vec<f64>,
    strings: Vec<String>,
    validity: Bitmap,
    has_nulls: bool,
}

impl ColumnBuilder {
    /// A builder for a column of `data_type`.
    pub fn new(data_type: DataType) -> Self {
        ColumnBuilder {
            data_type,
            bools: Vec::new(),
            ints: Vec::new(),
            floats: Vec::new(),
            strings: Vec::new(),
            validity: Bitmap::new(0, false),
            has_nulls: false,
        }
    }

    /// Number of rows pushed so far.
    pub fn len(&self) -> usize {
        self.validity.len()
    }

    /// Whether no rows were pushed.
    pub fn is_empty(&self) -> bool {
        self.validity.is_empty()
    }

    /// Appends a scalar; `Null` is accepted for any type, other scalars must
    /// match the builder's type (Int64 coerces into Float64/Timestamp slots).
    pub fn push(&mut self, value: Scalar) -> Result<()> {
        if value.is_null() {
            self.push_null();
            return Ok(());
        }
        match (self.data_type, &value) {
            (DataType::Bool, Scalar::Bool(v)) => self.bools.push(*v),
            (DataType::Int64, Scalar::Int64(v)) => self.ints.push(*v),
            (DataType::Float64, Scalar::Float64(v)) => self.floats.push(*v),
            (DataType::Float64, Scalar::Int64(v)) => self.floats.push(*v as f64),
            (DataType::Utf8, Scalar::Utf8(v)) => self.strings.push(v.clone()),
            (DataType::Timestamp, Scalar::Timestamp(v)) => self.ints.push(*v),
            (DataType::Timestamp, Scalar::Int64(v)) => self.ints.push(*v),
            (expected, actual) => {
                return Err(Error::TypeMismatch {
                    expected: expected.to_string(),
                    actual: actual
                        .data_type()
                        .map_or("NULL".to_string(), |t| t.to_string()),
                })
            }
        }
        self.validity.push(true);
        Ok(())
    }

    /// Appends a NULL row.
    pub fn push_null(&mut self) {
        match self.data_type {
            DataType::Bool => self.bools.push(false),
            DataType::Int64 | DataType::Timestamp => self.ints.push(0),
            DataType::Float64 => self.floats.push(0.0),
            DataType::Utf8 => self.strings.push(String::new()),
        }
        self.validity.push(false);
        self.has_nulls = true;
    }

    /// Finishes the column.
    pub fn finish(self) -> Column {
        let validity = self.has_nulls.then(|| Arc::new(self.validity));
        match self.data_type {
            DataType::Bool => Column::Bool {
                values: self.bools.into(),
                validity,
            },
            DataType::Int64 => Column::Int64 {
                values: self.ints.into(),
                validity,
            },
            DataType::Float64 => Column::Float64 {
                values: self.floats.into(),
                validity,
            },
            DataType::Utf8 => Column::Utf8 {
                values: self.strings.into(),
                validity,
            },
            DataType::Timestamp => Column::Timestamp {
                values: self.ints.into(),
                validity,
            },
        }
    }
}

/// Builds a [`Chunk`] row by row against a fixed schema.
#[derive(Debug)]
pub struct RowBuilder {
    schema: SchemaRef,
    builders: Vec<ColumnBuilder>,
}

impl RowBuilder {
    /// A row builder for `schema`.
    pub fn new(schema: SchemaRef) -> Self {
        let builders = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(f.data_type))
            .collect();
        RowBuilder { schema, builders }
    }

    /// Appends one row; the scalar count must match the schema width.
    pub fn push_row(&mut self, row: Vec<Scalar>) -> Result<()> {
        if row.len() != self.builders.len() {
            return Err(Error::LengthMismatch {
                expected: self.builders.len(),
                actual: row.len(),
            });
        }
        for (builder, value) in self.builders.iter_mut().zip(row) {
            builder.push(value)?;
        }
        Ok(())
    }

    /// Number of rows pushed.
    pub fn len(&self) -> usize {
        self.builders.first().map_or(0, |b| b.len())
    }

    /// Whether no rows were pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finishes the chunk.
    pub fn finish(self) -> Result<Chunk> {
        let columns = self.builders.into_iter().map(|b| b.finish()).collect();
        Chunk::new(self.schema, columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use std::sync::Arc;

    #[test]
    fn column_builder_with_nulls() {
        let mut b = ColumnBuilder::new(DataType::Int64);
        b.push(Scalar::Int64(1)).unwrap();
        b.push(Scalar::Null).unwrap();
        b.push(Scalar::Int64(3)).unwrap();
        let col = b.finish();
        assert_eq!(col.len(), 3);
        assert_eq!(col.null_count(), 1);
        assert_eq!(col.get(2), Scalar::Int64(3));
    }

    #[test]
    fn column_builder_no_nulls_elides_bitmap() {
        let mut b = ColumnBuilder::new(DataType::Utf8);
        b.push(Scalar::from("x")).unwrap();
        let col = b.finish();
        assert!(col.validity().is_none());
    }

    #[test]
    fn int_coerces_to_float_slot() {
        let mut b = ColumnBuilder::new(DataType::Float64);
        b.push(Scalar::Int64(2)).unwrap();
        assert_eq!(b.finish().f64_values().unwrap(), &[2.0]);
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut b = ColumnBuilder::new(DataType::Bool);
        assert!(b.push(Scalar::Int64(1)).is_err());
    }

    #[test]
    fn row_builder_roundtrip() {
        let schema = Arc::new(Schema::new(vec![
            Field::required("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ]));
        let mut rb = RowBuilder::new(schema);
        rb.push_row(vec![Scalar::Int64(1), Scalar::from("a")])
            .unwrap();
        rb.push_row(vec![Scalar::Int64(2), Scalar::Null]).unwrap();
        assert_eq!(rb.len(), 2);
        let chunk = rb.finish().unwrap();
        assert_eq!(chunk.num_rows(), 2);
        assert_eq!(chunk.row(1).unwrap()[1], Scalar::Null);
    }

    #[test]
    fn row_builder_wrong_width() {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
        let mut rb = RowBuilder::new(schema);
        assert!(rb.push_row(vec![]).is_err());
    }
}
