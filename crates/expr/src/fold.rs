//! Constant folding: pre-evaluates literal-only sub-expressions.

use crate::expr::{BinOp, Expr};
use cx_storage::Scalar;

/// Rewrites `expr` with literal-only sub-trees evaluated, plus boolean
/// short-circuit identities (`x AND true → x`, `x OR true → true`, ...).
///
/// Folding is conservative: anything that cannot be evaluated without a row
/// (column refs, NULL-typed arithmetic) is left untouched, so
/// `eval(fold(e)) == eval(e)` on every chunk.
pub fn fold_constants(expr: &Expr) -> Expr {
    match expr {
        // Parameters are runtime-bound values: folding never sees them.
        Expr::Column(_) | Expr::Literal(_) | Expr::Parameter(_) => expr.clone(),
        Expr::Binary { op, left, right } => {
            let left = fold_constants(left);
            let right = fold_constants(right);
            if let (Expr::Literal(l), Expr::Literal(r)) = (&left, &right) {
                if let Some(v) = eval_literal_binary(*op, l, r) {
                    return Expr::Literal(v);
                }
            }
            // Boolean identities.
            match op {
                BinOp::And => {
                    if is_true(&left) {
                        return right;
                    }
                    if is_true(&right) {
                        return left;
                    }
                    if is_false(&left) || is_false(&right) {
                        return Expr::Literal(Scalar::Bool(false));
                    }
                }
                BinOp::Or => {
                    if is_false(&left) {
                        return right;
                    }
                    if is_false(&right) {
                        return left;
                    }
                    if is_true(&left) || is_true(&right) {
                        return Expr::Literal(Scalar::Bool(true));
                    }
                }
                _ => {}
            }
            Expr::Binary {
                op: *op,
                left: Box::new(left),
                right: Box::new(right),
            }
        }
        Expr::Not(inner) => {
            let inner = fold_constants(inner);
            match &inner {
                Expr::Literal(Scalar::Bool(b)) => Expr::Literal(Scalar::Bool(!b)),
                Expr::Not(nested) => (**nested).clone(),
                _ => Expr::Not(Box::new(inner)),
            }
        }
        Expr::IsNull(inner) => {
            let inner = fold_constants(inner);
            match &inner {
                Expr::Literal(Scalar::Null) => Expr::Literal(Scalar::Bool(true)),
                Expr::Literal(_) => Expr::Literal(Scalar::Bool(false)),
                _ => Expr::IsNull(Box::new(inner)),
            }
        }
    }
}

fn is_true(e: &Expr) -> bool {
    matches!(e, Expr::Literal(Scalar::Bool(true)))
}

fn is_false(e: &Expr) -> bool {
    matches!(e, Expr::Literal(Scalar::Bool(false)))
}

fn eval_literal_binary(op: BinOp, l: &Scalar, r: &Scalar) -> Option<Scalar> {
    if l.is_null() || r.is_null() {
        // NULL propagation for comparison/arithmetic; Kleene cases are left
        // to runtime for simplicity (they are rare in folded positions).
        return if op.is_logical() {
            None
        } else {
            Some(Scalar::Null)
        };
    }
    if op.is_comparison() {
        let ord = l.partial_cmp_sql(r)?;
        use std::cmp::Ordering::*;
        let b = match op {
            BinOp::Eq => ord == Equal,
            BinOp::NotEq => ord != Equal,
            BinOp::Lt => ord == Less,
            BinOp::LtEq => ord != Greater,
            BinOp::Gt => ord == Greater,
            BinOp::GtEq => ord != Less,
            _ => unreachable!(),
        };
        return Some(Scalar::Bool(b));
    }
    if op.is_logical() {
        let (a, b) = (l.as_bool()?, r.as_bool()?);
        return Some(Scalar::Bool(match op {
            BinOp::And => a && b,
            BinOp::Or => a || b,
            _ => unreachable!(),
        }));
    }
    // Arithmetic: preserve Int64 when both sides are Int64 (matching the
    // binder's inferred output type), otherwise compute in f64.
    match (l, r) {
        (Scalar::Int64(a), Scalar::Int64(b)) => Some(match op {
            BinOp::Add => Scalar::Int64(a.wrapping_add(*b)),
            BinOp::Sub => Scalar::Int64(a.wrapping_sub(*b)),
            BinOp::Mul => Scalar::Int64(a.wrapping_mul(*b)),
            BinOp::Div => {
                if *b == 0 {
                    Scalar::Null
                } else {
                    Scalar::Int64((*a as f64 / *b as f64) as i64)
                }
            }
            _ => unreachable!(),
        }),
        _ => {
            let (a, b) = (l.as_f64()?, r.as_f64()?);
            Some(match op {
                BinOp::Add => Scalar::Float64(a + b),
                BinOp::Sub => Scalar::Float64(a - b),
                BinOp::Mul => Scalar::Float64(a * b),
                BinOp::Div => {
                    if b == 0.0 {
                        Scalar::Null
                    } else {
                        Scalar::Float64(a / b)
                    }
                }
                _ => unreachable!(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};

    #[test]
    fn folds_literal_arithmetic() {
        let e = lit(2i64).add(lit(3i64)).mul(lit(4i64));
        assert_eq!(fold_constants(&e), lit(20i64));
        let e = lit(1.0).div(lit(4.0));
        assert_eq!(fold_constants(&e), lit(0.25));
    }

    #[test]
    fn folds_literal_comparison() {
        let e = lit(2i64).gt(lit(3i64));
        assert_eq!(fold_constants(&e), lit(false));
        let e = lit("a").lt(lit("b"));
        assert_eq!(fold_constants(&e), lit(true));
    }

    #[test]
    fn boolean_identities() {
        let p = col("x").gt(lit(1i64));
        assert_eq!(fold_constants(&p.clone().and(lit(true))), p);
        assert_eq!(fold_constants(&p.clone().and(lit(false))), lit(false));
        assert_eq!(fold_constants(&p.clone().or(lit(false))), p);
        assert_eq!(fold_constants(&p.clone().or(lit(true))), lit(true));
    }

    #[test]
    fn double_negation() {
        let p = col("x").gt(lit(1i64));
        assert_eq!(fold_constants(&p.clone().not().not()), p);
        assert_eq!(fold_constants(&lit(true).not()), lit(false));
    }

    #[test]
    fn is_null_of_literals() {
        assert_eq!(fold_constants(&lit(5i64).is_null()), lit(false));
        assert_eq!(
            fold_constants(&Expr::Literal(Scalar::Null).is_null()),
            lit(true)
        );
    }

    #[test]
    fn null_propagation() {
        let e = Expr::Literal(Scalar::Null).add(lit(1i64));
        assert_eq!(fold_constants(&e), Expr::Literal(Scalar::Null));
        let e = lit(0i64).div(lit(0i64));
        assert_eq!(fold_constants(&e), Expr::Literal(Scalar::Null));
    }

    #[test]
    fn leaves_columns_alone() {
        let e = col("x").add(lit(1i64)).gt(lit(2i64).mul(lit(3i64)));
        let folded = fold_constants(&e);
        assert_eq!(folded, col("x").add(lit(1i64)).gt(lit(6i64)));
    }
}
