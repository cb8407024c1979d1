//! Vectorized expression evaluation over chunks.
//!
//! Null semantics follow SQL: comparisons and arithmetic propagate NULL,
//! AND/OR use Kleene three-valued logic, and predicates fold NULL to false
//! when producing selection masks.

use crate::bind::BoundExpr;
use crate::expr::BinOp;
use cx_storage::{Bitmap, Chunk, Column, DataType, Error, Result};
use std::borrow::Cow;
use std::sync::Arc;

/// Evaluates a bound expression over a chunk, producing one column with the
/// chunk's row count.
pub fn eval(expr: &BoundExpr, chunk: &Chunk) -> Result<Column> {
    match expr {
        BoundExpr::Column { index, .. } => Ok(chunk.column(*index)?.clone()),
        BoundExpr::Literal(v) => Ok(Column::repeat(
            v,
            chunk.num_rows(),
            v.data_type().unwrap_or(DataType::Bool),
        )),
        BoundExpr::Binary {
            op,
            left,
            right,
            data_type,
        } => {
            let l = eval(left, chunk)?;
            let r = eval(right, chunk)?;
            eval_binary(*op, &l, &r, *data_type)
        }
        BoundExpr::Not(inner) => {
            let v = eval(inner, chunk)?;
            let (bools, validity) = as_bool_parts(&v)?;
            Ok(Column::Bool {
                values: bools.iter().map(|b| !b).collect(),
                validity,
            })
        }
        BoundExpr::IsNull(inner) => {
            let v = eval(inner, chunk)?;
            Ok(Column::from_bools(
                (0..v.len()).map(|i| !v.is_valid(i)).collect(),
            ))
        }
    }
}

/// Evaluates a boolean predicate into a selection [`Bitmap`]: set where the
/// predicate is true and non-NULL.
pub fn eval_predicate(expr: &BoundExpr, chunk: &Chunk) -> Result<Bitmap> {
    let col = eval(expr, chunk)?;
    let (bools, _) = as_bool_parts(&col)?;
    Ok(Bitmap::from_bools(
        bools.iter().enumerate().map(|(i, &b)| b && col.is_valid(i)),
    ))
}

fn as_bool_parts(col: &Column) -> Result<(&[bool], Option<Arc<Bitmap>>)> {
    match col {
        Column::Bool { values, validity } => Ok((values, validity.clone())),
        other => Err(Error::TypeMismatch {
            expected: "BOOL".into(),
            actual: other.data_type().to_string(),
        }),
    }
}

fn eval_binary(op: BinOp, left: &Column, right: &Column, out_type: DataType) -> Result<Column> {
    if op.is_logical() {
        return eval_logical(op, left, right);
    }
    if op.is_comparison() {
        return eval_comparison(op, left, right);
    }
    eval_arithmetic(op, left, right, out_type)
}

/// Kleene AND/OR.
fn eval_logical(op: BinOp, left: &Column, right: &Column) -> Result<Column> {
    let (lv, _) = as_bool_parts(left)?;
    let (rv, _) = as_bool_parts(right)?;
    let n = lv.len();
    let mut values = Vec::with_capacity(n);
    let mut validity = Bitmap::new(0, false);
    let mut has_null = false;
    for i in 0..n {
        let l = if left.is_valid(i) { Some(lv[i]) } else { None };
        let r = if right.is_valid(i) { Some(rv[i]) } else { None };
        let out = match op {
            BinOp::And => match (l, r) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            BinOp::Or => match (l, r) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            _ => unreachable!("non-logical op in eval_logical"),
        };
        match out {
            Some(b) => {
                values.push(b);
                validity.push(true);
            }
            None => {
                values.push(false);
                validity.push(false);
                has_null = true;
            }
        }
    }
    Ok(Column::Bool {
        values: values.into(),
        validity: has_null.then(|| Arc::new(validity)),
    })
}

fn eval_comparison(op: BinOp, left: &Column, right: &Column) -> Result<Column> {
    let n = left.len();
    // Fast typed paths for the hot combinations; fall back to scalar
    // comparison otherwise.
    let cmp_ok = |ord: std::cmp::Ordering| -> bool {
        use std::cmp::Ordering::*;
        match op {
            BinOp::Eq => ord == Equal,
            BinOp::NotEq => ord != Equal,
            BinOp::Lt => ord == Less,
            BinOp::LtEq => ord != Greater,
            BinOp::Gt => ord == Greater,
            BinOp::GtEq => ord != Less,
            _ => unreachable!("non-comparison op"),
        }
    };

    let mut values = Vec::with_capacity(n);
    let mut validity = Bitmap::new(0, false);
    let mut has_null = false;
    let mut push = |out: Option<bool>, values: &mut Vec<bool>| match out {
        Some(b) => {
            values.push(b);
            validity.push(true);
        }
        None => {
            values.push(false);
            validity.push(false);
            has_null = true;
        }
    };

    match (left, right) {
        (Column::Int64 { values: lv, .. }, Column::Int64 { values: rv, .. }) => {
            for i in 0..n {
                let out =
                    (left.is_valid(i) && right.is_valid(i)).then(|| cmp_ok(lv[i].cmp(&rv[i])));
                push(out, &mut values);
            }
        }
        (Column::Float64 { values: lv, .. }, Column::Float64 { values: rv, .. }) => {
            for i in 0..n {
                let out = if left.is_valid(i) && right.is_valid(i) {
                    lv[i].partial_cmp(&rv[i]).map(cmp_ok)
                } else {
                    None
                };
                push(out, &mut values);
            }
        }
        (Column::Utf8 { values: lv, .. }, Column::Utf8 { values: rv, .. }) => {
            for i in 0..n {
                let out =
                    (left.is_valid(i) && right.is_valid(i)).then(|| cmp_ok(lv[i].cmp(&rv[i])));
                push(out, &mut values);
            }
        }
        _ => {
            for i in 0..n {
                let out = if left.is_valid(i) && right.is_valid(i) {
                    left.get(i).partial_cmp_sql(&right.get(i)).map(cmp_ok)
                } else {
                    None
                };
                push(out, &mut values);
            }
        }
    }
    Ok(Column::Bool {
        values: values.into(),
        validity: has_null.then(|| Arc::new(validity)),
    })
}

fn eval_arithmetic(op: BinOp, left: &Column, right: &Column, out_type: DataType) -> Result<Column> {
    let n = left.len();
    // An all-NULL operand (e.g. an untyped NULL literal, which materializes
    // as a null Bool column) makes every output row NULL regardless of the
    // other side: short-circuit before demanding numeric storage.
    if left.null_count() == n || right.null_count() == n {
        return Ok(Column::nulls(out_type, n));
    }
    let lf = numeric_as_f64(left)?;
    let rf = numeric_as_f64(right)?;
    let mut validity = Bitmap::new(0, false);
    let mut has_null = false;
    let mut out_f = Vec::with_capacity(n);
    for i in 0..n {
        if !left.is_valid(i) || !right.is_valid(i) {
            out_f.push(0.0);
            validity.push(false);
            has_null = true;
            continue;
        }
        let (a, b) = (lf[i], rf[i]);
        let v = match op {
            BinOp::Add => Some(a + b),
            BinOp::Sub => Some(a - b),
            BinOp::Mul => Some(a * b),
            // SQL engines raise on division by zero; for an analytical
            // pipeline NULL is friendlier and keeps evaluation total.
            BinOp::Div => (b != 0.0).then(|| a / b),
            _ => unreachable!("non-arithmetic op"),
        };
        match v {
            Some(v) => {
                out_f.push(v);
                validity.push(true);
            }
            None => {
                out_f.push(0.0);
                validity.push(false);
                has_null = true;
            }
        }
    }
    let validity = has_null.then(|| Arc::new(validity));
    Ok(match out_type {
        DataType::Float64 => Column::Float64 {
            values: out_f.into(),
            validity,
        },
        DataType::Int64 => Column::Int64 {
            values: out_f.iter().map(|v| *v as i64).collect(),
            validity,
        },
        DataType::Timestamp => Column::Timestamp {
            values: out_f.iter().map(|v| *v as i64).collect(),
            validity,
        },
        other => {
            return Err(Error::TypeMismatch {
                expected: "numeric output".into(),
                actual: other.to_string(),
            })
        }
    })
}

/// A numeric column's values as `f64`: borrowed for Float64, converted for
/// Int64 and Timestamp.
fn numeric_as_f64(col: &Column) -> Result<Cow<'_, [f64]>> {
    Ok(match col {
        Column::Int64 { values, .. } | Column::Timestamp { values, .. } => {
            Cow::Owned(values.iter().map(|&v| v as f64).collect())
        }
        Column::Float64 { values, .. } => Cow::Borrowed(values),
        other => {
            return Err(Error::TypeMismatch {
                expected: "numeric column".into(),
                actual: other.data_type().to_string(),
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit, Expr};
    use cx_storage::Scalar;
    use cx_storage::{Field, Schema};
    use std::sync::Arc;

    fn chunk() -> Chunk {
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("price", DataType::Float64),
            Field::new("name", DataType::Utf8),
        ]));
        Chunk::new(
            schema,
            vec![
                Column::from_i64(vec![1, 2, 3, 4]),
                Column::from_f64(vec![10.0, 25.0, 30.0, 5.0]),
                Column::from_strings(["a", "b", "a", "c"]),
            ],
        )
        .unwrap()
    }

    fn run(e: Expr) -> Column {
        let c = chunk();
        let b = e.bind(&Schema::new(c.schema().fields().to_vec())).unwrap();
        eval(&b, &c).unwrap()
    }

    fn run_pred(e: Expr) -> Vec<usize> {
        let c = chunk();
        let b = e.bind(&Schema::new(c.schema().fields().to_vec())).unwrap();
        eval_predicate(&b, &c).unwrap().set_indices()
    }

    #[test]
    fn comparisons() {
        assert_eq!(run_pred(col("price").gt(lit(20.0))), vec![1, 2]);
        assert_eq!(run_pred(col("name").eq(lit("a"))), vec![0, 2]);
        assert_eq!(run_pred(col("id").lt_eq(lit(2i64))), vec![0, 1]);
        // Cross-type numeric comparison.
        assert_eq!(run_pred(col("id").gt_eq(lit(3.0))), vec![2, 3]);
    }

    #[test]
    fn logic() {
        let e = col("price").gt(lit(20.0)).and(col("name").eq(lit("a")));
        assert_eq!(run_pred(e), vec![2]);
        let e = col("price").gt(lit(29.0)).or(col("id").eq(lit(1i64)));
        assert_eq!(run_pred(e), vec![0, 2]);
        let e = col("name").eq(lit("a")).not();
        assert_eq!(run_pred(e), vec![1, 3]);
    }

    #[test]
    fn arithmetic() {
        let c = run(col("price").mul(lit(2.0)));
        assert_eq!(c.f64_values().unwrap(), &[20.0, 50.0, 60.0, 10.0]);
        let c = run(col("id").add(col("id")));
        assert_eq!(c.i64_values().unwrap(), &[2, 4, 6, 8]);
    }

    #[test]
    fn division_by_zero_is_null() {
        let c = run(col("price").div(col("id").sub(col("id"))));
        assert_eq!(c.null_count(), 4);
    }

    #[test]
    fn null_propagation_in_comparison() {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
        let chunk = Chunk::new(
            schema.clone(),
            vec![Column::Int64 {
                values: vec![1, 2, 3].into(),
                validity: Some(Bitmap::from_bools([true, false, true]).into()),
            }],
        )
        .unwrap();
        let b = col("x").gt(lit(0i64)).bind(&schema).unwrap();
        // NULL row is excluded from the mask.
        assert_eq!(
            eval_predicate(&b, &chunk).unwrap().set_indices(),
            vec![0, 2]
        );
        // But IS NULL sees it.
        let b = col("x").is_null().bind(&schema).unwrap();
        assert_eq!(eval_predicate(&b, &chunk).unwrap().set_indices(), vec![1]);
    }

    #[test]
    fn kleene_or_with_null() {
        // (x > 0) OR (x IS NULL): NULL OR TRUE must be TRUE.
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
        let chunk = Chunk::new(
            schema.clone(),
            vec![Column::Int64 {
                values: vec![5, 0].into(),
                validity: Some(Bitmap::from_bools([false, true]).into()),
            }],
        )
        .unwrap();
        let b = col("x")
            .gt(lit(0i64))
            .or(col("x").is_null())
            .bind(&schema)
            .unwrap();
        assert_eq!(eval_predicate(&b, &chunk).unwrap().set_indices(), vec![0]);
    }

    #[test]
    fn literal_broadcast() {
        let c = run(lit(7i64));
        assert_eq!(c.len(), 4);
        assert_eq!(c.get(3), Scalar::Int64(7));
    }
}
