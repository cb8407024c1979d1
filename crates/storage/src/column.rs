//! Typed column vectors over shared, immutable buffers.
//!
//! A column's values and validity live behind `Arc`s and never change once
//! built, so cloning a column (a scan handing out a table's chunk, a
//! projection, a column reference in an expression) is a refcount bump and
//! copies no row. Every operation that derives data (`filter`, `take`,
//! `slice`, `concat`, expression evaluation) builds new buffers.

use crate::bitmap::Bitmap;
use crate::error::{Error, Result};
use crate::scalar::Scalar;
use crate::types::DataType;
use std::sync::Arc;

/// A contiguous, typed column of values with an optional validity bitmap.
///
/// `validity == None` means "all rows valid"; this keeps the common non-null
/// path free of bitmap reads. Operators work on whole columns (vectorized);
/// [`Column::get`] exists for plan boundaries, tests, and display. Build the
/// buffers with `.into()` from a `Vec` and a [`Bitmap`].
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    Bool {
        values: Arc<[bool]>,
        validity: Option<Arc<Bitmap>>,
    },
    Int64 {
        values: Arc<[i64]>,
        validity: Option<Arc<Bitmap>>,
    },
    Float64 {
        values: Arc<[f64]>,
        validity: Option<Arc<Bitmap>>,
    },
    Utf8 {
        values: Arc<[String]>,
        validity: Option<Arc<Bitmap>>,
    },
    Timestamp {
        values: Arc<[i64]>,
        validity: Option<Arc<Bitmap>>,
    },
}

impl Column {
    /// A non-null boolean column.
    pub fn from_bools(values: Vec<bool>) -> Self {
        Column::Bool {
            values: values.into(),
            validity: None,
        }
    }

    /// A non-null Int64 column.
    pub fn from_i64(values: Vec<i64>) -> Self {
        Column::Int64 {
            values: values.into(),
            validity: None,
        }
    }

    /// A non-null Float64 column.
    pub fn from_f64(values: Vec<f64>) -> Self {
        Column::Float64 {
            values: values.into(),
            validity: None,
        }
    }

    /// A non-null UTF8 column.
    pub fn from_strings<S: Into<String>, I: IntoIterator<Item = S>>(values: I) -> Self {
        Column::Utf8 {
            values: values.into_iter().map(Into::into).collect(),
            validity: None,
        }
    }

    /// A non-null timestamp column (microseconds since epoch).
    pub fn from_timestamps(values: Vec<i64>) -> Self {
        Column::Timestamp {
            values: values.into(),
            validity: None,
        }
    }

    /// An all-NULL column of the given type and length.
    pub fn nulls(data_type: DataType, len: usize) -> Self {
        let validity = Some(Arc::new(Bitmap::new(len, false)));
        match data_type {
            DataType::Bool => Column::Bool {
                values: vec![false; len].into(),
                validity,
            },
            DataType::Int64 => Column::Int64 {
                values: vec![0; len].into(),
                validity,
            },
            DataType::Float64 => Column::Float64 {
                values: vec![0.0; len].into(),
                validity,
            },
            DataType::Utf8 => Column::Utf8 {
                values: vec![String::new(); len].into(),
                validity,
            },
            DataType::Timestamp => Column::Timestamp {
                values: vec![0; len].into(),
                validity,
            },
        }
    }

    /// A column of `len` copies of `scalar` (NULL scalars produce all-null
    /// columns of `hint` type).
    pub fn repeat(scalar: &Scalar, len: usize, hint: DataType) -> Self {
        match scalar {
            Scalar::Null => Column::nulls(hint, len),
            Scalar::Bool(v) => Column::from_bools(vec![*v; len]),
            Scalar::Int64(v) => Column::from_i64(vec![*v; len]),
            Scalar::Float64(v) => Column::from_f64(vec![*v; len]),
            Scalar::Utf8(v) => Column::from_strings(vec![v.clone(); len]),
            Scalar::Timestamp(v) => Column::from_timestamps(vec![*v; len]),
        }
    }

    /// The logical type of the column.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Bool { .. } => DataType::Bool,
            Column::Int64 { .. } => DataType::Int64,
            Column::Float64 { .. } => DataType::Float64,
            Column::Utf8 { .. } => DataType::Utf8,
            Column::Timestamp { .. } => DataType::Timestamp,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Bool { values, .. } => values.len(),
            Column::Int64 { values, .. } => values.len(),
            Column::Float64 { values, .. } => values.len(),
            Column::Utf8 { values, .. } => values.len(),
            Column::Timestamp { values, .. } => values.len(),
        }
    }

    /// Whether the column has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap footprint in bytes (values + string payloads +
    /// validity words), used by the query memory-budget accountant.
    pub fn memory_bytes(&self) -> usize {
        let validity_bytes = self.validity().map_or(0, |v| v.len().div_ceil(8));
        let value_bytes = match self {
            Column::Bool { values, .. } => values.len(),
            Column::Int64 { values, .. } | Column::Timestamp { values, .. } => values.len() * 8,
            Column::Float64 { values, .. } => values.len() * 8,
            Column::Utf8 { values, .. } => values
                .iter()
                .map(|s| s.len() + std::mem::size_of::<String>())
                .sum(),
        };
        value_bytes + validity_bytes
    }

    /// The validity bitmap, if any rows may be null.
    pub fn validity(&self) -> Option<&Bitmap> {
        match self {
            Column::Bool { validity, .. }
            | Column::Int64 { validity, .. }
            | Column::Float64 { validity, .. }
            | Column::Utf8 { validity, .. }
            | Column::Timestamp { validity, .. } => validity.as_deref(),
        }
    }

    /// Whether row `i` holds a valid (non-null) value.
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity().is_none_or(|v| v.get(i))
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        self.validity().map_or(0, |v| v.len() - v.count_ones())
    }

    /// Row `i` as a [`Scalar`]. Panics if out of bounds.
    pub fn get(&self, i: usize) -> Scalar {
        if !self.is_valid(i) {
            return Scalar::Null;
        }
        match self {
            Column::Bool { values, .. } => Scalar::Bool(values[i]),
            Column::Int64 { values, .. } => Scalar::Int64(values[i]),
            Column::Float64 { values, .. } => Scalar::Float64(values[i]),
            Column::Utf8 { values, .. } => Scalar::Utf8(values[i].clone()),
            Column::Timestamp { values, .. } => Scalar::Timestamp(values[i]),
        }
    }

    /// Borrowed access to the raw `i64` data (Int64 columns).
    pub fn i64_values(&self) -> Result<&[i64]> {
        match self {
            Column::Int64 { values, .. } => Ok(values),
            other => Err(Error::TypeMismatch {
                expected: "INT64".into(),
                actual: other.data_type().to_string(),
            }),
        }
    }

    /// Borrowed access to the raw `f64` data (Float64 columns).
    pub fn f64_values(&self) -> Result<&[f64]> {
        match self {
            Column::Float64 { values, .. } => Ok(values),
            other => Err(Error::TypeMismatch {
                expected: "FLOAT64".into(),
                actual: other.data_type().to_string(),
            }),
        }
    }

    /// Borrowed access to the raw string data (Utf8 columns).
    pub fn utf8_values(&self) -> Result<&[String]> {
        match self {
            Column::Utf8 { values, .. } => Ok(values),
            other => Err(Error::TypeMismatch {
                expected: "UTF8".into(),
                actual: other.data_type().to_string(),
            }),
        }
    }

    /// Borrowed access to the raw bool data (Bool columns).
    pub fn bool_values(&self) -> Result<&[bool]> {
        match self {
            Column::Bool { values, .. } => Ok(values),
            other => Err(Error::TypeMismatch {
                expected: "BOOL".into(),
                actual: other.data_type().to_string(),
            }),
        }
    }

    /// Borrowed access to the raw timestamp data (Timestamp columns).
    pub fn timestamp_values(&self) -> Result<&[i64]> {
        match self {
            Column::Timestamp { values, .. } => Ok(values),
            other => Err(Error::TypeMismatch {
                expected: "TIMESTAMP".into(),
                actual: other.data_type().to_string(),
            }),
        }
    }

    /// A new column keeping only rows where `mask` is set.
    ///
    /// The mask must have the same length as the column. NULL handling is
    /// caller-side: a NULL predicate result must already be folded to `false`
    /// in the mask (SQL semantics).
    pub fn filter(&self, mask: &Bitmap) -> Result<Column> {
        if mask.len() != self.len() {
            return Err(Error::LengthMismatch {
                expected: self.len(),
                actual: mask.len(),
            });
        }
        let indices = mask.set_indices();
        Ok(self.take_unchecked(&indices))
    }

    /// A new column gathering rows at `indices` (indices may repeat and be
    /// in any order). Errors if any index is out of bounds.
    pub fn take(&self, indices: &[usize]) -> Result<Column> {
        let len = self.len();
        if let Some(&bad) = indices.iter().find(|&&i| i >= len) {
            return Err(Error::IndexOutOfBounds { index: bad, len });
        }
        Ok(self.take_unchecked(indices))
    }

    fn take_unchecked(&self, indices: &[usize]) -> Column {
        fn gather<T: Clone>(values: &[T], indices: &[usize]) -> Arc<[T]> {
            indices.iter().map(|&i| values[i].clone()).collect()
        }
        let validity = self.validity().map(|v| Arc::new(v.take(indices)));
        match self {
            Column::Bool { values, .. } => Column::Bool {
                values: gather(values, indices),
                validity,
            },
            Column::Int64 { values, .. } => Column::Int64 {
                values: gather(values, indices),
                validity,
            },
            Column::Float64 { values, .. } => Column::Float64 {
                values: gather(values, indices),
                validity,
            },
            Column::Utf8 { values, .. } => Column::Utf8 {
                values: gather(values, indices),
                validity,
            },
            Column::Timestamp { values, .. } => Column::Timestamp {
                values: gather(values, indices),
                validity,
            },
        }
    }

    /// The sub-column `[offset, offset + len)`.
    pub fn slice(&self, offset: usize, len: usize) -> Result<Column> {
        if offset + len > self.len() {
            return Err(Error::IndexOutOfBounds {
                index: offset + len,
                len: self.len(),
            });
        }
        let indices: Vec<usize> = (offset..offset + len).collect();
        Ok(self.take_unchecked(&indices))
    }

    /// Concatenates two columns of the same type: the two-part case of
    /// [`Column::concat_all`].
    pub fn concat(&self, other: &Column) -> Result<Column> {
        Column::concat_all(&[self, other])
    }

    /// Concatenates `parts`, all of one type, in order. The buffers are
    /// sized once and each part's rows are copied once; a single part is
    /// returned as a clone, sharing its buffers.
    pub fn concat_all(parts: &[&Column]) -> Result<Column> {
        let (first, rest) = parts
            .split_first()
            .ok_or_else(|| Error::InvalidArgument("concat of zero columns".into()))?;
        if rest.is_empty() {
            return Ok((*first).clone());
        }
        let validity = parts.iter().any(|c| c.validity().is_some()).then(|| {
            Arc::new(Bitmap::from_bools(
                parts
                    .iter()
                    .flat_map(|c| (0..c.len()).map(|i| c.is_valid(i))),
            ))
        });
        // A part of another type fails its accessor with `TypeMismatch`.
        fn join<'a, T: Clone + 'a>(
            parts: &[&'a Column],
            values: fn(&'a Column) -> Result<&'a [T]>,
        ) -> Result<Arc<[T]>> {
            let mut out = Vec::with_capacity(parts.iter().map(|c| c.len()).sum());
            for part in parts {
                out.extend_from_slice(values(part)?);
            }
            Ok(out.into())
        }
        Ok(match first.data_type() {
            DataType::Bool => Column::Bool {
                values: join(parts, Column::bool_values)?,
                validity,
            },
            DataType::Int64 => Column::Int64 {
                values: join(parts, Column::i64_values)?,
                validity,
            },
            DataType::Float64 => Column::Float64 {
                values: join(parts, Column::f64_values)?,
                validity,
            },
            DataType::Utf8 => Column::Utf8 {
                values: join(parts, Column::utf8_values)?,
                validity,
            },
            DataType::Timestamp => Column::Timestamp {
                values: join(parts, Column::timestamp_values)?,
                validity,
            },
        })
    }

    /// Builds a column from scalars, inferring the type from the first
    /// non-null value (errors on mixed types or all-null without hint).
    pub fn from_scalars(scalars: &[Scalar], hint: Option<DataType>) -> Result<Column> {
        let dtype = scalars
            .iter()
            .find_map(|s| s.data_type())
            .or(hint)
            .ok_or_else(|| Error::InvalidArgument("cannot infer type of all-NULL column".into()))?;
        let mut builder = crate::builder::ColumnBuilder::new(dtype);
        for s in scalars {
            builder.push(s.clone())?;
        }
        Ok(builder.finish())
    }

    /// Iterator over rows as scalars.
    pub fn iter(&self) -> impl Iterator<Item = Scalar> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Column {
        Column::from_i64(vec![10, 20, 30, 40, 50])
    }

    #[test]
    fn basic_accessors() {
        let c = sample();
        assert_eq!(c.len(), 5);
        assert_eq!(c.data_type(), DataType::Int64);
        assert_eq!(c.get(2), Scalar::Int64(30));
        assert_eq!(c.null_count(), 0);
        assert!(c.is_valid(0));
    }

    #[test]
    fn nulls_column() {
        let c = Column::nulls(DataType::Utf8, 3);
        assert_eq!(c.len(), 3);
        assert_eq!(c.null_count(), 3);
        assert_eq!(c.get(1), Scalar::Null);
    }

    #[test]
    fn filter_by_mask() {
        let c = sample();
        let mask = Bitmap::from_bools([true, false, true, false, true]);
        let f = c.filter(&mask).unwrap();
        assert_eq!(f.i64_values().unwrap(), &[10, 30, 50]);
    }

    #[test]
    fn filter_length_mismatch_errors() {
        let c = sample();
        let mask = Bitmap::from_bools([true, false]);
        assert!(matches!(c.filter(&mask), Err(Error::LengthMismatch { .. })));
    }

    #[test]
    fn take_reorders_and_repeats() {
        let c = sample();
        let t = c.take(&[4, 0, 0, 2]).unwrap();
        assert_eq!(t.i64_values().unwrap(), &[50, 10, 10, 30]);
        assert!(matches!(
            c.take(&[5]),
            Err(Error::IndexOutOfBounds { index: 5, len: 5 })
        ));
    }

    #[test]
    fn take_preserves_validity() {
        let c = Column::Int64 {
            values: vec![1, 2, 3].into(),
            validity: Some(Bitmap::from_bools([true, false, true]).into()),
        };
        let t = c.take(&[1, 2]).unwrap();
        assert_eq!(t.get(0), Scalar::Null);
        assert_eq!(t.get(1), Scalar::Int64(3));
    }

    #[test]
    fn concat_mixed_validity() {
        let a = Column::from_i64(vec![1, 2]);
        let b = Column::Int64 {
            values: vec![3, 4].into(),
            validity: Some(Bitmap::from_bools([false, true]).into()),
        };
        let c = a.concat(&b).unwrap();
        assert_eq!(c.len(), 4);
        assert_eq!(c.get(2), Scalar::Null);
        assert_eq!(c.get(3), Scalar::Int64(4));
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn concat_type_mismatch_errors() {
        let a = Column::from_i64(vec![1]);
        let b = Column::from_f64(vec![1.0]);
        assert!(matches!(a.concat(&b), Err(Error::TypeMismatch { .. })));
    }

    #[test]
    fn slice_bounds() {
        let c = sample();
        let s = c.slice(1, 3).unwrap();
        assert_eq!(s.i64_values().unwrap(), &[20, 30, 40]);
        assert!(c.slice(3, 3).is_err());
    }

    #[test]
    fn from_scalars_inference() {
        let c = Column::from_scalars(&[Scalar::Null, Scalar::from("a"), Scalar::from("b")], None)
            .unwrap();
        assert_eq!(c.data_type(), DataType::Utf8);
        assert_eq!(c.null_count(), 1);
        assert!(Column::from_scalars(&[Scalar::Null], None).is_err());
        assert!(Column::from_scalars(&[Scalar::Null], Some(DataType::Bool)).is_ok());
    }

    /// The address of a column's value buffer.
    fn buffer(c: &Column) -> *const u8 {
        match c.data_type() {
            DataType::Bool => c.bool_values().unwrap().as_ptr().cast(),
            DataType::Int64 => c.i64_values().unwrap().as_ptr().cast(),
            DataType::Float64 => c.f64_values().unwrap().as_ptr().cast(),
            DataType::Utf8 => c.utf8_values().unwrap().as_ptr().cast(),
            DataType::Timestamp => c.timestamp_values().unwrap().as_ptr().cast(),
        }
    }

    /// A deep copy rebuilt row by row from scalars.
    fn deep_copy(c: &Column) -> Column {
        let rows: Vec<Scalar> = c.iter().collect();
        let copy = Column::from_scalars(&rows, Some(c.data_type())).unwrap();
        assert_ne!(buffer(&copy), buffer(c));
        copy
    }

    fn with_nulls() -> Column {
        Column::from_scalars(
            &[
                Scalar::from("a"),
                Scalar::Null,
                Scalar::from("a"),
                Scalar::from(""),
            ],
            None,
        )
        .unwrap()
    }

    #[test]
    fn clone_shares_buffers() {
        for c in [
            sample(),
            with_nulls(),
            Column::from_f64(vec![-0.0, f64::NAN]),
        ] {
            let copy = c.clone();
            assert_eq!(buffer(&copy), buffer(&c));
        }
    }

    #[test]
    fn clone_shares_validity() {
        let c = with_nulls();
        let copy = c.clone();
        assert!(std::ptr::eq(
            copy.validity().unwrap(),
            c.validity().unwrap()
        ));
        assert_eq!(copy.null_count(), 1);
    }

    #[test]
    fn derived_columns_get_new_buffers_and_leave_the_source_alone() {
        for c in [sample(), with_nulls()] {
            let before = deep_copy(&c);
            let mask = Bitmap::from_bools((0..c.len()).map(|i| i % 2 == 0));
            let derived = [
                c.filter(&mask).unwrap(),
                c.take(&[0, 0, 1]).unwrap(),
                c.concat(&c).unwrap(),
                c.slice(0, c.len()).unwrap(),
            ];
            for d in &derived {
                assert_ne!(buffer(d), buffer(&c));
            }
            assert_eq!(c, before);
        }
    }

    #[test]
    fn repeat_scalar() {
        let c = Column::repeat(&Scalar::from("x"), 3, DataType::Utf8);
        assert_eq!(c.utf8_values().unwrap(), &["x", "x", "x"]);
        let n = Column::repeat(&Scalar::Null, 2, DataType::Int64);
        assert_eq!(n.null_count(), 2);
    }
}
