//! Named, typed column descriptors.

use crate::error::{Error, Result};
use crate::types::DataType;
use std::fmt;
use std::sync::Arc;

/// A named, typed column slot in a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    pub name: String,
    pub data_type: DataType,
    pub nullable: bool,
}

impl Field {
    /// A nullable field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            name: name.into(),
            data_type,
            nullable: true,
        }
    }

    /// A non-nullable field.
    pub fn required(name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            name: name.into(),
            data_type,
            nullable: false,
        }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.data_type)?;
        if !self.nullable {
            f.write_str(" NOT NULL")?;
        }
        Ok(())
    }
}

/// An ordered list of fields describing the columns of a chunk or table.
///
/// Schemas are immutable and cheap to share (`Arc` internally via
/// [`SchemaRef`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
}

/// Shared schema handle.
pub type SchemaRef = Arc<Schema>;

impl Schema {
    /// Builds a schema from fields. Field names must be unique.
    pub fn new(fields: Vec<Field>) -> Self {
        debug_assert!(
            {
                let mut names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                names.sort_unstable();
                names.windows(2).all(|w| w[0] != w[1])
            },
            "duplicate field names in schema"
        );
        Schema { fields }
    }

    /// An empty schema.
    pub fn empty() -> Self {
        Schema { fields: Vec::new() }
    }

    /// The fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// The position of field `name`.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| Error::ColumnNotFound(name.to_string()))
    }

    /// The field named `name`.
    pub fn field(&self, name: &str) -> Result<&Field> {
        self.index_of(name).map(|i| &self.fields[i])
    }

    /// The field at position `i`.
    pub fn field_at(&self, i: usize) -> Result<&Field> {
        self.fields.get(i).ok_or(Error::IndexOutOfBounds {
            index: i,
            len: self.fields.len(),
        })
    }

    /// Field names in order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }

    /// Whether the schema contains a field named `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.fields.iter().any(|f| f.name == name)
    }

    /// A new schema with only the fields at `indices`, in that order.
    pub fn project(&self, indices: &[usize]) -> Result<Schema> {
        let mut fields = Vec::with_capacity(indices.len());
        for &i in indices {
            fields.push(self.field_at(i)?.clone());
        }
        Ok(Schema { fields })
    }

    /// Concatenates two schemas (e.g. join output). Name collisions on the
    /// right side are disambiguated with a `right.` prefix.
    pub fn join(&self, right: &Schema) -> Schema {
        let mut fields = self.fields.clone();
        for f in &right.fields {
            let name = if self.contains(&f.name) {
                format!("right.{}", f.name)
            } else {
                f.name.clone()
            };
            fields.push(Field { name, ..f.clone() });
        }
        Schema { fields }
    }

    /// A new schema with `field` appended.
    pub fn with_field(&self, field: Field) -> Schema {
        let mut fields = self.fields.clone();
        fields.push(field);
        Schema { fields }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{field}")?;
        }
        f.write_str("]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::required("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
            Field::new("price", DataType::Float64),
        ])
    }

    #[test]
    fn lookup() {
        let s = schema();
        assert_eq!(s.index_of("name").unwrap(), 1);
        assert!(matches!(s.index_of("nope"), Err(Error::ColumnNotFound(_))));
        assert_eq!(s.field("price").unwrap().data_type, DataType::Float64);
        assert!(s.contains("id"));
    }

    #[test]
    fn projection() {
        let s = schema().project(&[2, 0]).unwrap();
        assert_eq!(s.names(), vec!["price", "id"]);
        assert!(schema().project(&[9]).is_err());
    }

    #[test]
    fn join_disambiguates_names() {
        let left = schema();
        let right = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("qty", DataType::Int64),
        ]);
        let joined = left.join(&right);
        assert_eq!(
            joined.names(),
            vec!["id", "name", "price", "right.id", "qty"]
        );
    }

    #[test]
    fn display() {
        let s = Schema::new(vec![Field::required("id", DataType::Int64)]);
        assert_eq!(s.to_string(), "[id: INT64 NOT NULL]");
    }
}
