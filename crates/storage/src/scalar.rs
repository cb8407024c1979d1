//! Single (scalar) values.

use crate::types::DataType;
use std::cmp::Ordering;
use std::fmt;

/// A single dynamically-typed value, the unit of row-wise access.
///
/// `Scalar` is used at plan boundaries (literals in expressions, row
/// extraction for tests and display); the hot paths operate on whole
/// [`crate::Column`]s instead.
#[derive(Debug, Clone)]
pub enum Scalar {
    /// SQL NULL (typed columns carry nullability in their validity bitmap).
    Null,
    Bool(bool),
    Int64(i64),
    Float64(f64),
    Utf8(String),
    /// Microseconds since the UNIX epoch.
    Timestamp(i64),
}

impl Scalar {
    /// The logical type of this value, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Scalar::Null => None,
            Scalar::Bool(_) => Some(DataType::Bool),
            Scalar::Int64(_) => Some(DataType::Int64),
            Scalar::Float64(_) => Some(DataType::Float64),
            Scalar::Utf8(_) => Some(DataType::Utf8),
            Scalar::Timestamp(_) => Some(DataType::Timestamp),
        }
    }

    /// Whether this value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Scalar::Null)
    }

    /// Numeric value as `f64` where the type allows it.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Scalar::Int64(v) => Some(*v as f64),
            Scalar::Float64(v) => Some(*v),
            Scalar::Timestamp(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Integral value as `i64` where the type allows it.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Scalar::Int64(v) | Scalar::Timestamp(v) => Some(*v),
            _ => None,
        }
    }

    /// String slice if this is a UTF8 value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Utf8(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value if this is a Bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Scalar::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// SQL-style comparison: NULL compares as unknown (`None`); numeric types
    /// cross-compare through `f64`.
    pub fn partial_cmp_sql(&self, other: &Scalar) -> Option<Ordering> {
        use Scalar::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Utf8(a), Utf8(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// SQL equality: NULL = anything is unknown (`None`).
    pub fn eq_sql(&self, other: &Scalar) -> Option<bool> {
        self.partial_cmp_sql(other).map(|o| o == Ordering::Equal)
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Null => f.write_str("NULL"),
            Scalar::Bool(v) => write!(f, "{v}"),
            Scalar::Int64(v) => write!(f, "{v}"),
            Scalar::Float64(v) => write!(f, "{v}"),
            Scalar::Utf8(v) => write!(f, "{v}"),
            Scalar::Timestamp(v) => write!(f, "ts:{v}"),
        }
    }
}

impl PartialEq for Scalar {
    fn eq(&self, other: &Self) -> bool {
        // Structural equality (NULL == NULL) used by tests and group-by keys;
        // SQL three-valued equality is `eq_sql`.
        use Scalar::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Int64(a), Int64(b)) => a == b,
            (Float64(a), Float64(b)) => a.to_bits() == b.to_bits(),
            (Utf8(a), Utf8(b)) => a == b,
            (Timestamp(a), Timestamp(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Scalar {}

impl std::hash::Hash for Scalar {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        core::mem::discriminant(self).hash(state);
        match self {
            Scalar::Null => {}
            Scalar::Bool(v) => v.hash(state),
            Scalar::Int64(v) => v.hash(state),
            Scalar::Float64(v) => v.to_bits().hash(state),
            Scalar::Utf8(v) => v.hash(state),
            Scalar::Timestamp(v) => v.hash(state),
        }
    }
}

impl From<bool> for Scalar {
    fn from(v: bool) -> Self {
        Scalar::Bool(v)
    }
}
impl From<i64> for Scalar {
    fn from(v: i64) -> Self {
        Scalar::Int64(v)
    }
}
impl From<f64> for Scalar {
    fn from(v: f64) -> Self {
        Scalar::Float64(v)
    }
}
impl From<&str> for Scalar {
    fn from(v: &str) -> Self {
        Scalar::Utf8(v.to_string())
    }
}
impl From<String> for Scalar {
    fn from(v: String) -> Self {
        Scalar::Utf8(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_semantics() {
        assert!(Scalar::Null.is_null());
        assert_eq!(Scalar::Null.eq_sql(&Scalar::Int64(1)), None);
        assert_eq!(Scalar::Null.partial_cmp_sql(&Scalar::Null), None);
        // Structural equality still groups NULLs together.
        assert_eq!(Scalar::Null, Scalar::Null);
    }

    #[test]
    fn cross_numeric_comparison() {
        assert_eq!(
            Scalar::Int64(2).partial_cmp_sql(&Scalar::Float64(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(Scalar::Int64(3).eq_sql(&Scalar::Float64(3.0)), Some(true));
        assert_eq!(Scalar::Timestamp(5).eq_sql(&Scalar::Int64(5)), Some(true));
    }

    #[test]
    fn string_comparison() {
        assert_eq!(
            Scalar::from("abc").partial_cmp_sql(&Scalar::from("abd")),
            Some(Ordering::Less)
        );
        // Strings and numbers do not compare.
        assert_eq!(Scalar::from("1").partial_cmp_sql(&Scalar::Int64(1)), None);
    }

    #[test]
    fn conversions() {
        assert_eq!(Scalar::from(true).as_bool(), Some(true));
        assert_eq!(Scalar::from(42i64).as_i64(), Some(42));
        assert_eq!(Scalar::from(1.5).as_f64(), Some(1.5));
        assert_eq!(Scalar::from("hi").as_str(), Some("hi"));
        assert_eq!(Scalar::from("hi").as_i64(), None);
    }

    #[test]
    fn float_hash_equality_via_bits() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Scalar::Float64(1.0));
        assert!(set.contains(&Scalar::Float64(1.0)));
        assert!(!set.contains(&Scalar::Float64(-1.0)));
    }
}
