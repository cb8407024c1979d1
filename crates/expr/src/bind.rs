//! Binding name-resolved expressions against a schema.

use crate::expr::{BinOp, Expr};
use cx_storage::{DataType, Error, Result, Scalar, Schema};

/// An expression with column references resolved to positions and the output
/// type inferred. Produced by [`Expr::bind`].
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// Column at position `index` with type `data_type`.
    Column {
        index: usize,
        data_type: DataType,
    },
    Literal(Scalar),
    Binary {
        op: BinOp,
        left: Box<BoundExpr>,
        right: Box<BoundExpr>,
        /// The inferred result type of the operation.
        data_type: DataType,
    },
    Not(Box<BoundExpr>),
    IsNull(Box<BoundExpr>),
}

impl BoundExpr {
    /// The output type of the expression, when statically known.
    ///
    /// Untyped NULL literals report `None`; every other node has a type.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            BoundExpr::Column { data_type, .. } => Some(*data_type),
            BoundExpr::Literal(s) => s.data_type(),
            BoundExpr::Binary { data_type, .. } => Some(*data_type),
            BoundExpr::Not(_) | BoundExpr::IsNull(_) => Some(DataType::Bool),
        }
    }
}

impl Expr {
    /// Resolves column names against `schema` and type-checks the tree.
    /// Parameters must already be substituted ([`Expr::bind_params`]):
    /// an [`Expr::Parameter`] has no type to check, so it is an error.
    pub fn bind(&self, schema: &Schema) -> Result<BoundExpr> {
        match self {
            Expr::Column(name) => {
                let index = schema.index_of(name)?;
                let data_type = schema.field_at(index)?.data_type;
                Ok(BoundExpr::Column { index, data_type })
            }
            Expr::Literal(v) => Ok(BoundExpr::Literal(v.clone())),
            Expr::Parameter(slot) => Err(Error::InvalidArgument(format!(
                "parameter ${slot} is unbound; bind the plan's parameters before lowering it"
            ))),
            Expr::Binary { op, left, right } => {
                let left = left.bind(schema)?;
                let right = right.bind(schema)?;
                let data_type = infer_binary_type(*op, &left, &right)?;
                Ok(BoundExpr::Binary {
                    op: *op,
                    left: Box::new(left),
                    right: Box::new(right),
                    data_type,
                })
            }
            Expr::Not(inner) => {
                let inner = inner.bind(schema)?;
                expect_bool(&inner, "NOT")?;
                Ok(BoundExpr::Not(Box::new(inner)))
            }
            Expr::IsNull(inner) => Ok(BoundExpr::IsNull(Box::new(inner.bind(schema)?))),
        }
    }
}

fn expect_bool(expr: &BoundExpr, what: &str) -> Result<()> {
    match expr.data_type() {
        Some(DataType::Bool) | None => Ok(()),
        Some(t) => Err(Error::TypeMismatch {
            expected: format!("BOOL operand for {what}"),
            actual: t.to_string(),
        }),
    }
}

fn infer_binary_type(op: BinOp, left: &BoundExpr, right: &BoundExpr) -> Result<DataType> {
    let lt = left.data_type();
    let rt = right.data_type();
    if op.is_logical() {
        expect_bool(left, "AND/OR")?;
        expect_bool(right, "AND/OR")?;
        return Ok(DataType::Bool);
    }
    if op.is_comparison() {
        // Untyped NULL compares with anything.
        let (lt, rt) = match (lt, rt) {
            (None, _) | (_, None) => return Ok(DataType::Bool),
            (Some(l), Some(r)) => (l, r),
        };
        let compatible = lt == rt || DataType::common_numeric(lt, rt).is_some();
        if !compatible {
            return Err(Error::TypeMismatch {
                expected: lt.to_string(),
                actual: rt.to_string(),
            });
        }
        return Ok(DataType::Bool);
    }
    // Arithmetic.
    let (lt, rt) = match (lt, rt) {
        (None, other) | (other, None) => {
            let t = other
                .ok_or_else(|| Error::InvalidArgument("arithmetic on two untyped NULLs".into()))?;
            (t, t)
        }
        (Some(l), Some(r)) => (l, r),
    };
    DataType::common_numeric(lt, rt).ok_or_else(|| Error::TypeMismatch {
        expected: format!("numeric operands for {op}"),
        actual: format!("{lt} {op} {rt}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use cx_storage::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("price", DataType::Float64),
            Field::new("name", DataType::Utf8),
            Field::new("active", DataType::Bool),
        ])
    }

    #[test]
    fn binds_columns_to_indices() {
        let b = col("price").bind(&schema()).unwrap();
        assert_eq!(
            b,
            BoundExpr::Column {
                index: 1,
                data_type: DataType::Float64
            }
        );
        assert!(col("missing").bind(&schema()).is_err());
    }

    #[test]
    fn comparison_types() {
        let b = col("id").gt(lit(1.5)).bind(&schema()).unwrap();
        assert_eq!(b.data_type(), Some(DataType::Bool));
        // String vs number comparison is rejected at bind time.
        assert!(col("name").gt(lit(1i64)).bind(&schema()).is_err());
        // NULL compares with anything.
        assert!(col("name")
            .eq(Expr::Literal(Scalar::Null))
            .bind(&schema())
            .is_ok());
    }

    #[test]
    fn arithmetic_types() {
        let b = col("id").add(col("price")).bind(&schema()).unwrap();
        assert_eq!(b.data_type(), Some(DataType::Float64));
        assert!(col("name").add(lit(1i64)).bind(&schema()).is_err());
    }

    #[test]
    fn logical_operands_must_be_bool() {
        assert!(col("active").and(col("active")).bind(&schema()).is_ok());
        assert!(col("id").and(col("active")).bind(&schema()).is_err());
        assert!(col("id").not().bind(&schema()).is_err());
        assert!(col("active").not().bind(&schema()).is_ok());
    }

    #[test]
    fn is_null_is_bool_for_any_input() {
        let b = col("name").is_null().bind(&schema()).unwrap();
        assert_eq!(b.data_type(), Some(DataType::Bool));
    }

    #[test]
    fn binding_reinfers_binary_types() {
        use crate::expr::param;
        // Parameters are substituted before type inference, so `id * $0`
        // bound to 0.5 types exactly like the literal `id * 0.5`: the
        // multiply widens to Float64 instead of keeping the column's Int64
        // (which would truncate prepared results where ad-hoc ones don't).
        let template = col("id").mul(param(0));
        let bound = template
            .bind_params(&[Scalar::Float64(0.5)])
            .unwrap()
            .bind(&schema())
            .unwrap();
        assert_eq!(bound.data_type(), Some(DataType::Float64));
        let adhoc = col("id")
            .mul(crate::expr::lit(0.5))
            .bind(&schema())
            .unwrap();
        assert_eq!(bound, adhoc);
        // Int binding keeps the integer type.
        let bound = template
            .bind_params(&[Scalar::Int64(2)])
            .unwrap()
            .bind(&schema())
            .unwrap();
        assert_eq!(bound.data_type(), Some(DataType::Int64));
        // A binding that makes the expression ill-typed errors instead of
        // evaluating garbage.
        let bad = template.bind_params(&[Scalar::from("nope")]).unwrap();
        assert!(bad.bind(&schema()).is_err());
    }

    #[test]
    fn unbound_parameter_fails_to_bind_naming_its_slot() {
        let err = col("id")
            .gt(crate::expr::param(3))
            .bind(&schema())
            .unwrap_err();
        assert!(matches!(err, Error::InvalidArgument(_)), "{err:?}");
        assert!(err.to_string().contains("$3"), "{err}");
    }
}
