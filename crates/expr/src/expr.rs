//! The name-resolved expression AST and its builder API.

use cx_storage::Scalar;
use std::collections::BTreeSet;
use std::fmt;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Add,
    Sub,
    Mul,
    Div,
}

impl BinOp {
    /// Whether the operator yields a boolean.
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
        )
    }

    /// Whether the operator is boolean conjunction/disjunction.
    pub fn is_logical(&self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Eq => "=",
            BinOp::NotEq => "!=",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        };
        f.write_str(s)
    }
}

/// A scalar expression over named columns.
///
/// Constructed fluently: `col("price").gt(lit(20.0)).and(col("type").eq(lit("shoes")))`.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to a column by name.
    Column(String),
    /// A constant.
    Literal(Scalar),
    /// A prepared-statement placeholder (`$slot`), bound to a concrete
    /// [`Scalar`] at execute time via [`Expr::bind_params`]. An unbound
    /// parameter cannot be bound against a schema (see [`Expr::bind`]).
    Parameter(usize),
    /// Binary operation.
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// Logical negation.
    Not(Box<Expr>),
    /// NULL test (never NULL itself).
    IsNull(Box<Expr>),
}

/// A column reference.
pub fn col(name: impl Into<String>) -> Expr {
    Expr::Column(name.into())
}

/// A literal.
pub fn lit(value: impl Into<Scalar>) -> Expr {
    Expr::Literal(value.into())
}

/// A prepared-statement parameter placeholder for `slot` (displayed as
/// `$slot`).
pub fn param(slot: usize) -> Expr {
    Expr::Parameter(slot)
}

#[allow(clippy::should_implement_trait)]
impl Expr {
    fn binary(self, op: BinOp, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// `self = other`
    pub fn eq(self, other: Expr) -> Expr {
        self.binary(BinOp::Eq, other)
    }
    /// `self != other`
    pub fn not_eq(self, other: Expr) -> Expr {
        self.binary(BinOp::NotEq, other)
    }
    /// `self < other`
    pub fn lt(self, other: Expr) -> Expr {
        self.binary(BinOp::Lt, other)
    }
    /// `self <= other`
    pub fn lt_eq(self, other: Expr) -> Expr {
        self.binary(BinOp::LtEq, other)
    }
    /// `self > other`
    pub fn gt(self, other: Expr) -> Expr {
        self.binary(BinOp::Gt, other)
    }
    /// `self >= other`
    pub fn gt_eq(self, other: Expr) -> Expr {
        self.binary(BinOp::GtEq, other)
    }
    /// `self AND other`
    pub fn and(self, other: Expr) -> Expr {
        self.binary(BinOp::And, other)
    }
    /// `self OR other`
    pub fn or(self, other: Expr) -> Expr {
        self.binary(BinOp::Or, other)
    }
    /// `self + other`
    pub fn add(self, other: Expr) -> Expr {
        self.binary(BinOp::Add, other)
    }
    /// `self - other`
    pub fn sub(self, other: Expr) -> Expr {
        self.binary(BinOp::Sub, other)
    }
    /// `self * other`
    pub fn mul(self, other: Expr) -> Expr {
        self.binary(BinOp::Mul, other)
    }
    /// `self / other`
    pub fn div(self, other: Expr) -> Expr {
        self.binary(BinOp::Div, other)
    }
    /// `NOT self`
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }
    /// `self IS NULL`
    pub fn is_null(self) -> Expr {
        Expr::IsNull(Box::new(self))
    }

    /// The set of column names the expression references.
    pub fn referenced_columns(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::Column(name) => {
                out.insert(name.clone());
            }
            Expr::Literal(_) | Expr::Parameter(_) => {}
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::Not(inner) | Expr::IsNull(inner) => inner.collect_columns(out),
        }
    }

    /// Collects every parameter slot referenced by the expression into
    /// `out`.
    pub fn collect_params(&self, out: &mut BTreeSet<usize>) {
        match self {
            Expr::Parameter(slot) => {
                out.insert(*slot);
            }
            Expr::Column(_) | Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.collect_params(out);
                right.collect_params(out);
            }
            Expr::Not(inner) | Expr::IsNull(inner) => inner.collect_params(out),
        }
    }

    /// Whether the expression contains any [`Expr::Parameter`].
    pub fn has_params(&self) -> bool {
        match self {
            Expr::Parameter(_) => true,
            Expr::Column(_) | Expr::Literal(_) => false,
            Expr::Binary { left, right, .. } => left.has_params() || right.has_params(),
            Expr::Not(inner) | Expr::IsNull(inner) => inner.has_params(),
        }
    }

    /// Substitutes every [`Expr::Parameter`] with the matching value from
    /// `params` (slot `i` takes `params[i]`). Errors on out-of-range slots.
    pub fn bind_params(&self, params: &[Scalar]) -> cx_storage::Result<Expr> {
        Ok(match self {
            Expr::Parameter(slot) => {
                Expr::Literal(params.get(*slot).cloned().ok_or_else(|| {
                    cx_storage::Error::InvalidArgument(format!(
                        "parameter ${slot} has no bound value ({} provided)",
                        params.len()
                    ))
                })?)
            }
            Expr::Column(_) | Expr::Literal(_) => self.clone(),
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(left.bind_params(params)?),
                right: Box::new(right.bind_params(params)?),
            },
            Expr::Not(inner) => Expr::Not(Box::new(inner.bind_params(params)?)),
            Expr::IsNull(inner) => Expr::IsNull(Box::new(inner.bind_params(params)?)),
        })
    }

    /// Replaces every [`Expr::Literal`] with an [`Expr::Parameter`] whose
    /// slot is the literal's position in `out`, appending the lifted
    /// scalar values to `out` in encounter order (left before right,
    /// outer before inner operands are never reordered). This is the
    /// inverse of [`Expr::bind_params`]:
    /// `e.lift_literals(&mut v).bind_params(&v) == e` for any
    /// parameter-free expression.
    ///
    /// Intended for auto-parameterization of ad-hoc statements, so the
    /// caller must ensure the expression has no pre-existing
    /// [`Expr::Parameter`]s (their slots would collide with the lifted
    /// ones); existing parameters are passed through unchanged.
    pub fn lift_literals(&self, out: &mut Vec<Scalar>) -> Expr {
        match self {
            Expr::Literal(scalar) => {
                let slot = out.len();
                out.push(scalar.clone());
                Expr::Parameter(slot)
            }
            Expr::Column(_) | Expr::Parameter(_) => self.clone(),
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(left.lift_literals(out)),
                right: Box::new(right.lift_literals(out)),
            },
            Expr::Not(inner) => Expr::Not(Box::new(inner.lift_literals(out))),
            Expr::IsNull(inner) => Expr::IsNull(Box::new(inner.lift_literals(out))),
        }
    }

    /// Rewrites column references through `map` (names absent from the map
    /// are left untouched). Used by pushdown and data-induced-predicate
    /// rules to move predicates across renaming boundaries.
    pub fn rename_columns(&self, map: &std::collections::HashMap<String, String>) -> Expr {
        match self {
            Expr::Column(name) => match map.get(name) {
                Some(new) => Expr::Column(new.clone()),
                None => self.clone(),
            },
            Expr::Literal(_) | Expr::Parameter(_) => self.clone(),
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(left.rename_columns(map)),
                right: Box::new(right.rename_columns(map)),
            },
            Expr::Not(inner) => Expr::Not(Box::new(inner.rename_columns(map))),
            Expr::IsNull(inner) => Expr::IsNull(Box::new(inner.rename_columns(map))),
        }
    }

    /// Splits a conjunction into its AND-ed factors
    /// (`a AND (b AND c)` → `[a, b, c]`).
    pub fn split_conjunction(&self) -> Vec<Expr> {
        match self {
            Expr::Binary {
                op: BinOp::And,
                left,
                right,
            } => {
                let mut out = left.split_conjunction();
                out.extend(right.split_conjunction());
                out
            }
            other => vec![other.clone()],
        }
    }

    /// AND-combines a list of predicates (`None` if empty).
    pub fn conjunction(mut exprs: Vec<Expr>) -> Option<Expr> {
        let first = if exprs.is_empty() {
            return None;
        } else {
            exprs.remove(0)
        };
        Some(exprs.into_iter().fold(first, |acc, e| acc.and(e)))
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(name) => f.write_str(name),
            Expr::Literal(Scalar::Utf8(s)) => write!(f, "'{s}'"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Parameter(slot) => write!(f, "${slot}"),
            Expr::Binary { op, left, right } => write!(f, "({left} {op} {right})"),
            Expr::Not(inner) => write!(f, "NOT ({inner})"),
            Expr::IsNull(inner) => write!(f, "({inner}) IS NULL"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_display() {
        let e = col("price").gt(lit(20.0)).and(col("type").eq(lit("shoes")));
        assert_eq!(e.to_string(), "((price > 20) AND (type = 'shoes'))");
    }

    #[test]
    fn referenced_columns() {
        let e = col("a").add(col("b")).gt(lit(1i64)).or(col("a").is_null());
        let cols = e.referenced_columns();
        assert_eq!(cols.into_iter().collect::<Vec<_>>(), vec!["a", "b"]);
    }

    #[test]
    fn split_and_rebuild_conjunction() {
        let e = col("a")
            .gt(lit(1i64))
            .and(col("b").lt(lit(2i64)))
            .and(col("c").eq(lit(3i64)));
        let parts = e.split_conjunction();
        assert_eq!(parts.len(), 3);
        let rebuilt = Expr::conjunction(parts).unwrap();
        assert_eq!(rebuilt, e);
        assert_eq!(Expr::conjunction(vec![]), None);
    }

    #[test]
    fn parameters_display_collect_and_bind() {
        let e = col("price").gt(param(1)).and(col("name").eq(param(0)));
        assert_eq!(e.to_string(), "((price > $1) AND (name = $0))");
        assert!(e.has_params());
        let mut slots = BTreeSet::new();
        e.collect_params(&mut slots);
        assert_eq!(slots.into_iter().collect::<Vec<_>>(), vec![0, 1]);
        let bound = e
            .bind_params(&[Scalar::from("boots"), Scalar::Float64(9.5)])
            .unwrap();
        assert_eq!(
            bound,
            col("price").gt(lit(9.5)).and(col("name").eq(lit("boots")))
        );
        assert!(!bound.has_params());
        // Out-of-range slot errors instead of silently passing through.
        assert!(e.bind_params(&[Scalar::from("boots")]).is_err());
    }

    #[test]
    fn lift_literals_roundtrips_through_bind() {
        let e = col("price")
            .gt(lit(20.0))
            .and(col("name").eq(lit("boots")))
            .or(col("n").add(lit(2i64)).is_null());
        let mut lifted = Vec::new();
        let template = e.lift_literals(&mut lifted);
        assert_eq!(
            lifted,
            vec![
                Scalar::Float64(20.0),
                Scalar::from("boots"),
                Scalar::Int64(2)
            ]
        );
        // Every literal became a slot, in encounter order.
        assert_eq!(
            template.to_string(),
            "(((price > $0) AND (name = $1)) OR ((n + $2)) IS NULL)"
        );
        // Lift ∘ bind is the identity.
        assert_eq!(template.bind_params(&lifted).unwrap(), e);
        // Literal-free expressions lift to themselves.
        let plain = col("a").eq(col("b"));
        let mut none = Vec::new();
        assert_eq!(plain.lift_literals(&mut none), plain);
        assert!(none.is_empty());
    }

    #[test]
    fn or_is_not_split() {
        let e = col("a").gt(lit(1i64)).or(col("b").lt(lit(2i64)));
        assert_eq!(e.split_conjunction().len(), 1);
    }
}
