//! Abstract syntax tree for the SQL dialect, with a canonical printer.
//!
//! The printer (`Display`) emits a canonical form — uppercase keywords,
//! fully parenthesized expressions, explicit `ASC`/`DESC` — that the parser
//! accepts back. The property suite asserts `parse(print(ast)) == ast` for
//! generated statements, which pins parser and printer to each other.
//!
//! Spans are positional metadata only: [`Span`] compares equal to every
//! other span, so two ASTs that differ only in source positions are `==`.
//! This is what makes the round-trip property expressible as plain
//! `assert_eq!` even though reprinting moves every token.

use std::fmt;

pub use cx_exec::logical::{AggFunc, JoinType};
pub use cx_expr::BinOp;

/// A 1-based source position. Equality is intentionally vacuous (see module
/// docs); spans exist to point errors at source, not to distinguish ASTs.
#[derive(Debug, Clone, Copy, Eq, Default)]
pub struct Span {
    pub line: u32,
    pub col: u32,
}

impl PartialEq for Span {
    fn eq(&self, _: &Span) -> bool {
        true
    }
}

/// A possibly-qualified column reference (`price`, `p.price`,
/// `cx.queries.ts` — the qualifier is everything before the last dot).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnRef {
    pub qualifier: Option<String>,
    pub name: String,
    pub span: Span,
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.name),
            None => f.write_str(&self.name),
        }
    }
}

/// A literal value as written. Integer/float distinction is preserved so the
/// binder can lower to `Scalar::Int64` vs `Scalar::Float64` exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
    Null,
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Int(v) => write!(f, "{v}"),
            // `{:?}` keeps the decimal point (`1.0`, not `1`) so the
            // reparse stays a float.
            Literal::Float(v) => write!(f, "{v:?}"),
            Literal::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Literal::Bool(b) => f.write_str(if *b { "TRUE" } else { "FALSE" }),
            Literal::Null => f.write_str("NULL"),
        }
    }
}

/// The probe of a `SEMANTIC LIKE`: a string literal or a `$n` parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum Probe {
    Text(String),
    Param(u32),
}

impl fmt::Display for Probe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Probe::Text(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Probe::Param(n) => write!(f, "${n}"),
        }
    }
}

/// Scalar-valued (or boolean-valued) expression.
#[derive(Debug, Clone, PartialEq)]
pub enum AstExpr {
    Column(ColumnRef),
    Literal {
        value: Literal,
        span: Span,
    },
    /// `$n` placeholder. Slots are 0-based, matching the engine's
    /// `Expr::Parameter` convention.
    Param {
        slot: u32,
        span: Span,
    },
    Binary {
        op: BinOp,
        left: Box<AstExpr>,
        right: Box<AstExpr>,
    },
    Not(Box<AstExpr>),
    IsNull {
        expr: Box<AstExpr>,
        negated: bool,
    },
    /// `col SEMANTIC LIKE probe [USING model] (k, threshold)` — the paper's
    /// semantic-select predicate. Only valid as a top-level `AND` conjunct
    /// of `WHERE` (enforced by the binder).
    SemanticLike {
        column: ColumnRef,
        probe: Probe,
        model: Option<String>,
        /// Optional match bound; lowers to a `Limit` directly above the
        /// `SemanticFilter`.
        k: Option<u64>,
        threshold: f64,
        span: Span,
    },
}

impl AstExpr {
    pub fn span(&self) -> Span {
        match self {
            AstExpr::Column(c) => c.span,
            AstExpr::Literal { span, .. }
            | AstExpr::Param { span, .. }
            | AstExpr::SemanticLike { span, .. } => *span,
            AstExpr::Binary { left, .. } => left.span(),
            AstExpr::Not(e) | AstExpr::IsNull { expr: e, .. } => e.span(),
        }
    }
}

fn op_str(op: BinOp) -> &'static str {
    match op {
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
    }
}

impl fmt::Display for AstExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AstExpr::Column(c) => write!(f, "{c}"),
            AstExpr::Literal { value, .. } => write!(f, "{value}"),
            AstExpr::Param { slot, .. } => write!(f, "${slot}"),
            AstExpr::Binary { op, left, right } => {
                write!(f, "({left} {} {right})", op_str(*op))
            }
            AstExpr::Not(e) => write!(f, "(NOT {e})"),
            AstExpr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            AstExpr::SemanticLike {
                column,
                probe,
                model,
                k,
                threshold,
                ..
            } => {
                write!(f, "{column} SEMANTIC LIKE {probe}")?;
                if let Some(m) = model {
                    write!(f, " USING {m}")?;
                }
                match k {
                    Some(k) => write!(f, " ({k}, {threshold:?})"),
                    None => write!(f, " ({threshold:?})"),
                }
            }
        }
    }
}

/// One entry of the select list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*` — must be the only item.
    Star,
    Expr {
        expr: AstExpr,
        alias: Option<String>,
    },
    /// `COUNT(*)`, `SUM(col)`, ... with an optional `AS` alias.
    Agg {
        func: AggFunc,
        column: Option<ColumnRef>,
        alias: Option<String>,
        span: Span,
    },
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Star => f.write_str("*"),
            SelectItem::Expr { expr, alias } => {
                write!(f, "{expr}")?;
                if let Some(a) = alias {
                    write!(f, " AS {a}")?;
                }
                Ok(())
            }
            SelectItem::Agg {
                func,
                column,
                alias,
                ..
            } => {
                match (func, column) {
                    (AggFunc::CountStar, _) => f.write_str("COUNT(*)")?,
                    (func, Some(c)) => write!(f, "{func}({c})")?,
                    (func, None) => write!(f, "{func}()")?,
                }
                if let Some(a) = alias {
                    write!(f, " AS {a}")?;
                }
                Ok(())
            }
        }
    }
}

/// A table in `FROM` or a join: dotted name plus optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    pub name: String,
    pub alias: Option<String>,
    pub span: Span,
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)?;
        if let Some(a) = &self.alias {
            write!(f, " AS {a}")?;
        }
        Ok(())
    }
}

/// A join step, applied left-to-right after `FROM`.
#[derive(Debug, Clone, PartialEq)]
pub enum Join {
    /// `[INNER|LEFT|SEMI|ANTI] JOIN t ON a = b [AND c = d ...]`
    Relational {
        join_type: JoinType,
        table: TableRef,
        on: Vec<(ColumnRef, ColumnRef)>,
    },
    /// `CROSS JOIN t`
    Cross { table: TableRef },
    /// `SEMANTIC JOIN t [USING model] ON SIM(l, r) >= threshold [SCORE name]`
    Semantic {
        table: TableRef,
        model: Option<String>,
        left: ColumnRef,
        right: ColumnRef,
        /// `>` vs `>=` as written. Both lower to the engine's inclusive
        /// threshold; the distinction is kept for faithful reprinting.
        strict: bool,
        threshold: f64,
        /// `SCORE name` — name of the appended similarity column.
        score: Option<String>,
        span: Span,
    },
}

impl fmt::Display for Join {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Join::Relational {
                join_type,
                table,
                on,
            } => {
                write!(f, "{join_type} JOIN {table} ON ")?;
                for (i, (l, r)) in on.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" AND ")?;
                    }
                    write!(f, "{l} = {r}")?;
                }
                Ok(())
            }
            Join::Cross { table } => write!(f, "CROSS JOIN {table}"),
            Join::Semantic {
                table,
                model,
                left,
                right,
                strict,
                threshold,
                score,
                ..
            } => {
                write!(f, "SEMANTIC JOIN {table}")?;
                if let Some(m) = model {
                    write!(f, " USING {m}")?;
                }
                write!(
                    f,
                    " ON SIM({left}, {right}) {} {threshold:?}",
                    if *strict { ">" } else { ">=" }
                )?;
                if let Some(s) = score {
                    write!(f, " SCORE {s}")?;
                }
                Ok(())
            }
        }
    }
}

/// `GROUP BY` clause.
#[derive(Debug, Clone, PartialEq)]
pub enum GroupBy {
    Columns(Vec<ColumnRef>),
    /// `GROUP BY SEMANTIC col [USING model] (threshold)` — on-the-fly
    /// clustering by embedding similarity.
    Semantic {
        column: ColumnRef,
        model: Option<String>,
        threshold: f64,
        span: Span,
    },
}

impl fmt::Display for GroupBy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupBy::Columns(cols) => {
                for (i, c) in cols.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{c}")?;
                }
                Ok(())
            }
            GroupBy::Semantic {
                column,
                model,
                threshold,
                ..
            } => {
                write!(f, "SEMANTIC {column}")?;
                if let Some(m) = model {
                    write!(f, " USING {m}")?;
                }
                write!(f, " ({threshold:?})")
            }
        }
    }
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    pub column: ColumnRef,
    pub ascending: bool,
}

impl fmt::Display for OrderKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}",
            self.column,
            if self.ascending { "ASC" } else { "DESC" }
        )
    }
}

/// `LIMIT n` or `LIMIT $n`.
#[derive(Debug, Clone, PartialEq)]
pub enum LimitClause {
    Fixed(u64),
    Param { slot: u32, span: Span },
}

impl fmt::Display for LimitClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LimitClause::Fixed(n) => write!(f, "{n}"),
            LimitClause::Param { slot, .. } => write!(f, "${slot}"),
        }
    }
}

/// One `SELECT` block (a union member, or the whole query).
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    pub distinct: bool,
    pub items: Vec<SelectItem>,
    pub from: TableRef,
    pub joins: Vec<Join>,
    pub selection: Option<AstExpr>,
    pub group_by: Option<GroupBy>,
    pub order_by: Vec<OrderKey>,
    pub limit: Option<LimitClause>,
    pub span: Span,
}

impl fmt::Display for Select {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SELECT ")?;
        if self.distinct {
            f.write_str("DISTINCT ")?;
        }
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, " FROM {}", self.from)?;
        for j in &self.joins {
            write!(f, " {j}")?;
        }
        if let Some(sel) = &self.selection {
            write!(f, " WHERE {sel}")?;
        }
        if let Some(g) = &self.group_by {
            write!(f, " GROUP BY {g}")?;
        }
        if !self.order_by.is_empty() {
            f.write_str(" ORDER BY ")?;
            for (i, k) in self.order_by.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{k}")?;
            }
        }
        if let Some(l) = &self.limit {
            write!(f, " LIMIT {l}")?;
        }
        Ok(())
    }
}

/// A query: one `SELECT`, or several glued with `UNION ALL`.
///
/// In a multi-member union, `ORDER BY`/`LIMIT` parse into the last member
/// (the grammar is per-select) and the binder hoists them to apply to the
/// whole union — the standard SQL reading of the unparenthesized text.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryExpr {
    pub selects: Vec<Select>,
}

impl fmt::Display for QueryExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.selects.iter().enumerate() {
            if i > 0 {
                f.write_str(" UNION ALL ")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

/// A full statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Query(QueryExpr),
    Explain {
        analyze: bool,
        query: QueryExpr,
    },
    Prepare {
        name: String,
        query: QueryExpr,
        span: Span,
    },
    /// `EXECUTE name (lit, ...)` — arguments must be literals.
    Execute {
        name: String,
        args: Vec<AstExpr>,
        span: Span,
    },
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Query(q) => write!(f, "{q}"),
            Statement::Explain { analyze, query } => {
                write!(
                    f,
                    "EXPLAIN {}{query}",
                    if *analyze { "ANALYZE " } else { "" }
                )
            }
            Statement::Prepare { name, query, .. } => write!(f, "PREPARE {name} AS {query}"),
            Statement::Execute { name, args, .. } => {
                write!(f, "EXECUTE {name}")?;
                if !args.is_empty() {
                    f.write_str(" (")?;
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            f.write_str(", ")?;
                        }
                        write!(f, "{a}")?;
                    }
                    f.write_str(")")?;
                }
                Ok(())
            }
        }
    }
}
