//! Table and column statistics for optimizer decisions.

use crate::column::Column;
use crate::error::Result;
use crate::scalar::Scalar;
use crate::table::Table;
use std::collections::HashMap;
use std::collections::HashSet;

/// Number of buckets in equi-width histograms.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// An equi-width histogram over a numeric column.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    pub min: f64,
    pub max: f64,
    /// Row counts per bucket; bucket `i` covers
    /// `[min + i*width, min + (i+1)*width)` with the last bucket closed.
    pub counts: Vec<u64>,
    pub total: u64,
}

impl Histogram {
    /// Builds a histogram from numeric values (NaNs ignored).
    pub fn build(values: impl Iterator<Item = f64> + Clone) -> Option<Histogram> {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut total = 0u64;
        for v in values.clone() {
            if v.is_nan() {
                continue;
            }
            min = min.min(v);
            max = max.max(v);
            total += 1;
        }
        if total == 0 {
            return None;
        }
        let width = if max > min {
            (max - min) / HISTOGRAM_BUCKETS as f64
        } else {
            1.0
        };
        let mut counts = vec![0u64; HISTOGRAM_BUCKETS];
        for v in values {
            if v.is_nan() {
                continue;
            }
            let mut bucket = ((v - min) / width) as usize;
            if bucket >= HISTOGRAM_BUCKETS {
                bucket = HISTOGRAM_BUCKETS - 1;
            }
            counts[bucket] += 1;
        }
        Some(Histogram {
            min,
            max,
            counts,
            total,
        })
    }

    /// Estimated fraction of rows with value `< x` (linear interpolation
    /// within the bucket containing `x`).
    pub fn fraction_below(&self, x: f64) -> f64 {
        if self.total == 0 || x <= self.min {
            return 0.0;
        }
        if x > self.max {
            return 1.0;
        }
        let width = if self.max > self.min {
            (self.max - self.min) / self.counts.len() as f64
        } else {
            return if x > self.min { 1.0 } else { 0.0 };
        };
        let bucket = (((x - self.min) / width) as usize).min(self.counts.len() - 1);
        let below: u64 = self.counts[..bucket].iter().sum();
        let within_frac = ((x - self.min) - bucket as f64 * width) / width;
        (below as f64 + self.counts[bucket] as f64 * within_frac.clamp(0.0, 1.0))
            / self.total as f64
    }
}

/// Statistics for a single column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    pub null_count: u64,
    /// Minimum value (numeric columns and lexicographic min for strings).
    pub min: Option<Scalar>,
    pub max: Option<Scalar>,
    /// Estimated number of distinct values.
    pub distinct_count: u64,
    /// Histogram for numeric columns.
    pub histogram: Option<Histogram>,
    /// Average UTF-8 byte length for string columns (embedding cost driver).
    pub avg_len: Option<f64>,
}

impl ColumnStats {
    /// Computes statistics over a column.
    ///
    /// Distinct counts are exact for up to `DISTINCT_EXACT_LIMIT` distinct
    /// values, then extrapolated from a sample — good enough for the
    /// cardinality estimator while keeping stats collection linear.
    pub fn compute(column: &Column) -> ColumnStats {
        const DISTINCT_EXACT_LIMIT: usize = 1 << 16;
        let null_count = column.null_count() as u64;
        let mut min: Option<Scalar> = None;
        let mut max: Option<Scalar> = None;
        let mut distinct: HashSet<u64> = HashSet::new();
        let mut saturated = false;
        let mut seen = 0u64;
        let mut len_sum = 0u64;
        let mut len_n = 0u64;

        for i in 0..column.len() {
            if !column.is_valid(i) {
                continue;
            }
            let v = column.get(i);
            seen += 1;
            if let Scalar::Utf8(s) = &v {
                len_sum += s.len() as u64;
                len_n += 1;
            }
            min = match min.take() {
                None => Some(v.clone()),
                Some(m) => Some(if v.partial_cmp_sql(&m) == Some(std::cmp::Ordering::Less) {
                    v.clone()
                } else {
                    m
                }),
            };
            max = match max.take() {
                None => Some(v.clone()),
                Some(m) => Some(
                    if v.partial_cmp_sql(&m) == Some(std::cmp::Ordering::Greater) {
                        v.clone()
                    } else {
                        m
                    },
                ),
            };
            if !saturated {
                let mut hasher = std::collections::hash_map::DefaultHasher::new();
                use std::hash::{Hash, Hasher};
                v.hash(&mut hasher);
                distinct.insert(hasher.finish());
                if distinct.len() >= DISTINCT_EXACT_LIMIT {
                    saturated = true;
                }
            }
        }

        let distinct_count = if saturated {
            // Saw the limit within `seen` rows: extrapolate linearly, capped
            // by the number of non-null rows.
            seen
        } else {
            distinct.len() as u64
        };

        let histogram = numeric_iter(column)
            .map(|values| Histogram::build(values.into_iter()))
            .unwrap_or(None);

        ColumnStats {
            null_count,
            min,
            max,
            distinct_count,
            histogram,
            avg_len: if len_n > 0 {
                Some(len_sum as f64 / len_n as f64)
            } else {
                None
            },
        }
    }
}

fn numeric_iter(column: &Column) -> Option<Vec<f64>> {
    match column {
        Column::Int64 { values, .. } | Column::Timestamp { values, .. } => Some(
            values
                .iter()
                .enumerate()
                .filter(|(i, _)| column.is_valid(*i))
                .map(|(_, v)| *v as f64)
                .collect(),
        ),
        Column::Float64 { values, .. } => Some(
            values
                .iter()
                .enumerate()
                .filter(|(i, _)| column.is_valid(*i))
                .map(|(_, v)| *v)
                .collect(),
        ),
        _ => None,
    }
}

/// Statistics for a whole table: row count plus per-column stats.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    pub row_count: u64,
    pub columns: HashMap<String, ColumnStats>,
}

impl TableStats {
    /// Computes statistics for every column of `table`.
    pub fn compute(table: &Table) -> Result<TableStats> {
        let mut columns = HashMap::new();
        for field in table.schema().fields() {
            let col = table.column_by_name(&field.name)?;
            columns.insert(field.name.clone(), ColumnStats::compute(&col));
        }
        Ok(TableStats {
            row_count: table.num_rows() as u64,
            columns,
        })
    }

    /// Stats for column `name`, if collected.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::types::DataType;

    #[test]
    fn histogram_fractions() {
        let h = Histogram::build((0..100).map(|i| i as f64)).unwrap();
        assert_eq!(h.total, 100);
        assert!((h.fraction_below(50.0) - 0.5).abs() < 0.05);
        assert_eq!(h.fraction_below(-1.0), 0.0);
        assert_eq!(h.fraction_below(1000.0), 1.0);
    }

    #[test]
    fn histogram_constant_column() {
        let h = Histogram::build(std::iter::repeat_n(7.0, 10)).unwrap();
        assert_eq!(h.fraction_below(7.0), 0.0);
        assert_eq!(h.fraction_below(7.1), 1.0);
    }

    #[test]
    fn column_stats_numeric() {
        let col = Column::from_i64(vec![3, 1, 4, 1, 5]);
        let s = ColumnStats::compute(&col);
        assert_eq!(s.min, Some(Scalar::Int64(1)));
        assert_eq!(s.max, Some(Scalar::Int64(5)));
        assert_eq!(s.distinct_count, 4);
        assert_eq!(s.null_count, 0);
        assert!(s.histogram.is_some());
    }

    #[test]
    fn column_stats_strings() {
        let col = Column::from_strings(["aa", "bb", "aa"]);
        let s = ColumnStats::compute(&col);
        assert_eq!(s.distinct_count, 2);
        assert_eq!(s.min, Some(Scalar::from("aa")));
        assert_eq!(s.avg_len, Some(2.0));
        assert!(s.histogram.is_none());
    }

    #[test]
    fn table_stats() {
        let t = Table::from_columns(
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("name", DataType::Utf8),
            ]),
            vec![
                Column::from_i64(vec![1, 2, 3]),
                Column::from_strings(["a", "b", "b"]),
            ],
        )
        .unwrap();
        let stats = TableStats::compute(&t).unwrap();
        assert_eq!(stats.row_count, 3);
        assert_eq!(stats.column("name").unwrap().distinct_count, 2);
        assert!(stats.column("missing").is_none());
    }
}
