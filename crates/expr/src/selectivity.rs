//! Predicate selectivity estimation from table statistics.
//!
//! These estimates drive filter pushdown ordering and join-order decisions
//! in the holistic optimizer. They follow the classic System-R defaults
//! with histogram refinement where stats are available.

use crate::expr::{BinOp, Expr};
use cx_storage::{Scalar, TableStats};

/// Default selectivity when nothing is known about a predicate.
pub const DEFAULT_SELECTIVITY: f64 = 1.0 / 3.0;
/// Default selectivity for equality with unknown distinct count.
pub const DEFAULT_EQ_SELECTIVITY: f64 = 0.1;

/// Estimates the fraction of rows satisfying `expr` given `stats`.
///
/// Returns a value in `[0, 1]`. Unknown predicates fall back to
/// [`DEFAULT_SELECTIVITY`].
pub fn estimate_selectivity(expr: &Expr, stats: Option<&TableStats>) -> f64 {
    est(expr, stats).clamp(0.0, 1.0)
}

fn est(expr: &Expr, stats: Option<&TableStats>) -> f64 {
    match expr {
        Expr::Literal(Scalar::Bool(true)) => 1.0,
        Expr::Literal(Scalar::Bool(false)) => 0.0,
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            // Independence assumption.
            est(left, stats) * est(right, stats)
        }
        Expr::Binary {
            op: BinOp::Or,
            left,
            right,
        } => {
            let (l, r) = (est(left, stats), est(right, stats));
            // Inclusion-exclusion under independence.
            l + r - l * r
        }
        Expr::Not(inner) => 1.0 - est(inner, stats),
        Expr::IsNull(inner) => {
            if let (Expr::Column(name), Some(stats)) = (inner.as_ref(), stats) {
                if let Some(cs) = stats.column(name) {
                    if stats.row_count > 0 {
                        return cs.null_count as f64 / stats.row_count as f64;
                    }
                }
            }
            0.05
        }
        Expr::Binary { op, left, right } if op.is_comparison() => {
            estimate_comparison(*op, left, right, stats)
        }
        _ => DEFAULT_SELECTIVITY,
    }
}

fn estimate_comparison(op: BinOp, left: &Expr, right: &Expr, stats: Option<&TableStats>) -> f64 {
    // Normalize to (column OP literal).
    let (name, literal, op) = match (left, right) {
        (Expr::Column(name), Expr::Literal(v)) => (name, v, op),
        (Expr::Literal(v), Expr::Column(name)) => (name, v, flip(op)),
        _ => return DEFAULT_SELECTIVITY,
    };
    let Some(stats) = stats else {
        return default_for(op);
    };
    let Some(cs) = stats.column(name) else {
        return default_for(op);
    };

    match op {
        BinOp::Eq => {
            if cs.distinct_count > 0 {
                1.0 / cs.distinct_count as f64
            } else {
                DEFAULT_EQ_SELECTIVITY
            }
        }
        BinOp::NotEq => {
            if cs.distinct_count > 0 {
                1.0 - 1.0 / cs.distinct_count as f64
            } else {
                1.0 - DEFAULT_EQ_SELECTIVITY
            }
        }
        BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
            let Some(x) = literal.as_f64() else {
                return default_for(op);
            };
            let Some(h) = &cs.histogram else {
                return default_for(op);
            };
            let below = h.fraction_below(x);
            match op {
                BinOp::Lt | BinOp::LtEq => below,
                BinOp::Gt | BinOp::GtEq => 1.0 - below,
                _ => unreachable!(),
            }
        }
        _ => DEFAULT_SELECTIVITY,
    }
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::LtEq => BinOp::GtEq,
        BinOp::Gt => BinOp::Lt,
        BinOp::GtEq => BinOp::LtEq,
        other => other,
    }
}

fn default_for(op: BinOp) -> f64 {
    match op {
        BinOp::Eq => DEFAULT_EQ_SELECTIVITY,
        BinOp::NotEq => 1.0 - DEFAULT_EQ_SELECTIVITY,
        _ => DEFAULT_SELECTIVITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use cx_storage::{Column, Field, Schema, Table};

    fn stats() -> TableStats {
        let table = Table::from_columns(
            Schema::new(vec![
                Field::new("v", cx_storage::DataType::Int64),
                Field::new("cat", cx_storage::DataType::Utf8),
            ]),
            vec![
                Column::from_i64((0..100).collect()),
                Column::from_strings((0..100).map(|i| format!("c{}", i % 4))),
            ],
        )
        .unwrap();
        TableStats::compute(&table).unwrap()
    }

    #[test]
    fn range_uses_histogram() {
        let s = stats();
        let sel = estimate_selectivity(&col("v").lt(lit(50i64)), Some(&s));
        assert!((sel - 0.5).abs() < 0.06, "got {sel}");
        let sel = estimate_selectivity(&col("v").gt(lit(90i64)), Some(&s));
        assert!(sel < 0.15, "got {sel}");
        // Flipped literal side.
        let sel = estimate_selectivity(&lit(50i64).gt(col("v")), Some(&s));
        assert!((sel - 0.5).abs() < 0.06, "got {sel}");
    }

    #[test]
    fn equality_uses_distinct_count() {
        let s = stats();
        let sel = estimate_selectivity(&col("cat").eq(lit("c1")), Some(&s));
        assert!((sel - 0.25).abs() < 1e-9, "got {sel}");
        let sel = estimate_selectivity(&col("cat").not_eq(lit("c1")), Some(&s));
        assert!((sel - 0.75).abs() < 1e-9);
    }

    #[test]
    fn conjunction_multiplies() {
        let s = stats();
        let e = col("v").lt(lit(50i64)).and(col("cat").eq(lit("c1")));
        let sel = estimate_selectivity(&e, Some(&s));
        assert!((sel - 0.125).abs() < 0.05, "got {sel}");
    }

    #[test]
    fn disjunction_inclusion_exclusion() {
        let s = stats();
        let e = col("v").lt(lit(50i64)).or(col("v").gt_eq(lit(50i64)));
        let sel = estimate_selectivity(&e, Some(&s));
        assert!(sel > 0.7, "got {sel}");
    }

    #[test]
    fn fallbacks_without_stats() {
        assert_eq!(
            estimate_selectivity(&col("x").eq(lit(1i64)), None),
            DEFAULT_EQ_SELECTIVITY
        );
        assert_eq!(
            estimate_selectivity(&col("x").gt(lit(1i64)), None),
            DEFAULT_SELECTIVITY
        );
        assert_eq!(estimate_selectivity(&lit(true), None), 1.0);
        assert_eq!(estimate_selectivity(&lit(false), None), 0.0);
    }

    #[test]
    fn not_inverts() {
        let s = stats();
        let sel = estimate_selectivity(&col("v").lt(lit(50i64)).not(), Some(&s));
        assert!((sel - 0.5).abs() < 0.06);
    }
}
