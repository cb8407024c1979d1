//! The logical type system.

use std::fmt;

/// Logical data types supported by the engine.
///
/// The set is intentionally small: the engine's focus is the interaction of
/// relational processing with *context-rich* (string / embedding) data, not
/// breadth of SQL types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int64,
    /// 64-bit IEEE-754 float.
    Float64,
    /// UTF-8 string.
    Utf8,
    /// Timestamp as microseconds since the UNIX epoch.
    Timestamp,
}

impl DataType {
    /// Whether the type is numeric (orderable by arithmetic comparison and
    /// usable in arithmetic expressions).
    pub fn is_numeric(&self) -> bool {
        matches!(
            self,
            DataType::Int64 | DataType::Float64 | DataType::Timestamp
        )
    }

    /// The common supertype two numeric types coerce to, if any.
    pub fn common_numeric(a: DataType, b: DataType) -> Option<DataType> {
        use DataType::*;
        match (a, b) {
            (Int64, Int64) => Some(Int64),
            (Timestamp, Timestamp) => Some(Timestamp),
            (Int64, Timestamp) | (Timestamp, Int64) => Some(Timestamp),
            (Float64, x) | (x, Float64) if x.is_numeric() || x == Float64 => Some(Float64),
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOL",
            DataType::Int64 => "INT64",
            DataType::Float64 => "FLOAT64",
            DataType::Utf8 => "UTF8",
            DataType::Timestamp => "TIMESTAMP",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_classification() {
        assert!(DataType::Int64.is_numeric());
        assert!(DataType::Float64.is_numeric());
        assert!(DataType::Timestamp.is_numeric());
        assert!(!DataType::Bool.is_numeric());
        assert!(!DataType::Utf8.is_numeric());
    }

    #[test]
    fn numeric_coercion() {
        assert_eq!(
            DataType::common_numeric(DataType::Int64, DataType::Float64),
            Some(DataType::Float64)
        );
        assert_eq!(
            DataType::common_numeric(DataType::Int64, DataType::Int64),
            Some(DataType::Int64)
        );
        assert_eq!(
            DataType::common_numeric(DataType::Timestamp, DataType::Int64),
            Some(DataType::Timestamp)
        );
        assert_eq!(
            DataType::common_numeric(DataType::Utf8, DataType::Int64),
            None
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(DataType::Utf8.to_string(), "UTF8");
        assert_eq!(DataType::Timestamp.to_string(), "TIMESTAMP");
    }
}
