//! Name resolution and lowering: AST → [`LogicalPlan`].
//!
//! The binder resolves table/column/model names against a
//! [`SchemaProvider`], mirrors the engine's join-collision renaming
//! (`Schema::join` prefixes duplicate right-side columns with `right.`),
//! and lowers to exactly the plan a `Query`-builder user would construct —
//! the differential harness in the root crate holds it to that bit-for-bit.
//!
//! Lowering order for one `SELECT` (documented in README):
//! scan → joins (left-fold, in text order) → relational `Filter` (the
//! non-semantic `WHERE` conjuncts, re-folded with `AND` in text order) →
//! `SemanticFilter`s (each top-level `SEMANTIC LIKE` conjunct, in text
//! order, each with its `k` as a `Limit` directly above it) → aggregation →
//! sort-below-projection (only when the sort keys are projected away) →
//! `Project` → `Distinct` → `Sort` → `Limit`.

use crate::ast::{
    AstExpr, ColumnRef, GroupBy, Join, Literal, OrderKey, Probe, QueryExpr, Select, SelectItem,
    Span, Statement,
};
use crate::error::{SqlError, SqlErrorKind};
use cx_exec::logical::{
    AggFunc, AggSpec, JoinType, LimitCount, LogicalPlan, SemanticJoinSpec, SemanticTarget, SortKey,
};
use cx_expr::{col, BinOp, Expr};
use cx_storage::{Scalar, Schema};
use std::sync::Arc;

/// What the binder needs to know about the world: table schemas (including
/// `cx.*` system tables) and the registered embedding models.
pub trait SchemaProvider {
    /// The schema of `name`, or `None` if no such table.
    fn table_schema(&self, name: &str) -> Option<Schema>;
    /// Names of registered embedding models (order irrelevant).
    fn model_names(&self) -> Vec<String>;
}

/// A bound query: the lowered plan plus how many `$n` slots it expects.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundQuery {
    pub plan: LogicalPlan,
    pub param_count: usize,
}

/// A fully bound statement, ready for the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum Bound {
    Query(BoundQuery),
    Explain { analyze: bool, query: BoundQuery },
    Prepare { name: String, query: BoundQuery },
    Execute { name: String, args: Vec<Scalar> },
}

fn bind_err(span: Span, msg: impl Into<String>) -> SqlError {
    SqlError::new(SqlErrorKind::Bind, span.line, span.col, msg)
}

fn literal_scalar(lit: &Literal) -> Scalar {
    match lit {
        Literal::Int(v) => Scalar::Int64(*v),
        Literal::Float(v) => Scalar::Float64(*v),
        Literal::Str(s) => Scalar::Utf8(s.clone()),
        Literal::Bool(b) => Scalar::Bool(*b),
        Literal::Null => Scalar::Null,
    }
}

/// Bind a parsed statement against `provider`.
pub fn bind(stmt: &Statement, provider: &dyn SchemaProvider) -> Result<Bound, SqlError> {
    match stmt {
        Statement::Query(q) => Ok(Bound::Query(bind_query(q, provider)?)),
        Statement::Explain { analyze, query } => Ok(Bound::Explain {
            analyze: *analyze,
            query: bind_query(query, provider)?,
        }),
        Statement::Prepare { name, query, .. } => Ok(Bound::Prepare {
            name: name.clone(),
            query: bind_query(query, provider)?,
        }),
        Statement::Execute { name, args, .. } => {
            let mut scalars = Vec::with_capacity(args.len());
            for a in args {
                match a {
                    AstExpr::Literal { value, .. } => scalars.push(literal_scalar(value)),
                    other => {
                        return Err(bind_err(other.span(), "EXECUTE arguments must be literals"))
                    }
                }
            }
            Ok(Bound::Execute {
                name: name.clone(),
                args: scalars,
            })
        }
    }
}

/// Bind a query expression (one select, or a `UNION ALL` chain).
pub fn bind_query(
    query: &QueryExpr,
    provider: &dyn SchemaProvider,
) -> Result<BoundQuery, SqlError> {
    let param_count = check_params(query)?;
    let plan = if query.selects.len() == 1 {
        bind_select(&query.selects[0], provider, true)?
    } else {
        // ORDER BY / LIMIT written after the last member apply to the whole
        // union (the standard reading of the unparenthesized text); earlier
        // members may not carry them.
        for s in &query.selects[..query.selects.len() - 1] {
            if !s.order_by.is_empty() || s.limit.is_some() {
                return Err(bind_err(
                    s.span,
                    "ORDER BY/LIMIT inside a UNION ALL member is not supported \
                     (write them once, after the last member)",
                ));
            }
        }
        let last = query.selects.len() - 1;
        let mut inputs = Vec::with_capacity(query.selects.len());
        for (i, s) in query.selects.iter().enumerate() {
            inputs.push(bind_select(s, provider, i == last)?);
        }
        // Hoist the last member's ORDER BY/LIMIT above the union.
        let tail = &query.selects[last];
        let (mut order_by, mut limit) = (Vec::new(), None);
        if !tail.order_by.is_empty() || tail.limit.is_some() {
            // bind_select(.., hoist=true) left them off the member plan.
            order_by = tail.order_by.clone();
            limit = tail.limit.clone();
        }
        let first_schema = plan_schema(&inputs[0], query.selects[0].span)?;
        for (i, input) in inputs.iter().enumerate().skip(1) {
            let s = plan_schema(input, query.selects[i].span)?;
            if s != first_schema {
                return Err(bind_err(
                    query.selects[i].span,
                    format!(
                        "UNION ALL members have different schemas: {:?} vs {:?}",
                        first_schema.names(),
                        s.names()
                    ),
                ));
            }
        }
        let mut plan = LogicalPlan::Union { inputs };
        if !order_by.is_empty() {
            let mut keys = Vec::with_capacity(order_by.len());
            for k in &order_by {
                if k.column.qualifier.is_some() || !first_schema.contains(&k.column.name) {
                    return Err(bind_err(
                        k.column.span,
                        format!("unknown column `{}` in UNION ALL ORDER BY", k.column),
                    ));
                }
                keys.push(SortKey {
                    column: k.column.name.clone(),
                    ascending: k.ascending,
                });
            }
            plan = LogicalPlan::Sort {
                input: Box::new(plan),
                keys,
            };
        }
        if let Some(l) = &limit {
            plan = apply_limit(plan, l);
        }
        plan
    };
    Ok(BoundQuery { plan, param_count })
}

fn plan_schema(plan: &LogicalPlan, span: Span) -> Result<Schema, SqlError> {
    plan.schema()
        .map_err(|e| bind_err(span, format!("invalid query: {e}")))
}

fn apply_limit(plan: LogicalPlan, limit: &crate::ast::LimitClause) -> LogicalPlan {
    let n = match limit {
        crate::ast::LimitClause::Fixed(n) => LimitCount::Fixed(*n as usize),
        crate::ast::LimitClause::Param { slot, .. } => LimitCount::Param(*slot as usize),
    };
    LogicalPlan::Limit {
        input: Box::new(plan),
        n,
    }
}

/// Validate `$n` slot usage across the whole query: slots must be exactly
/// `0..n` (contiguous, 0-based). Returns the slot count.
fn check_params(query: &QueryExpr) -> Result<usize, SqlError> {
    let mut slots: Vec<(u32, Span)> = Vec::new();
    for s in &query.selects {
        for item in &s.items {
            if let SelectItem::Expr { expr, .. } = item {
                collect_expr_params(expr, &mut slots);
            }
        }
        if let Some(sel) = &s.selection {
            collect_expr_params(sel, &mut slots);
        }
        if let Some(crate::ast::LimitClause::Param { slot, span }) = &s.limit {
            slots.push((*slot, *span));
        }
    }
    let Some(&(max, _)) = slots.iter().max_by_key(|(n, _)| *n) else {
        return Ok(0);
    };
    for want in 0..max {
        if !slots.iter().any(|(n, _)| *n == want) {
            let (_, span) = slots.iter().find(|(n, _)| *n == max).unwrap();
            return Err(bind_err(
                *span,
                format!("parameter slots must be contiguous starting at $0; missing ${want}"),
            ));
        }
    }
    Ok(max as usize + 1)
}

fn collect_expr_params(e: &AstExpr, out: &mut Vec<(u32, Span)>) {
    match e {
        AstExpr::Param { slot, span } => out.push((*slot, *span)),
        AstExpr::Binary { left, right, .. } => {
            collect_expr_params(left, out);
            collect_expr_params(right, out);
        }
        AstExpr::Not(inner) | AstExpr::IsNull { expr: inner, .. } => {
            collect_expr_params(inner, out)
        }
        AstExpr::SemanticLike {
            probe: Probe::Param(slot),
            span,
            ..
        } => out.push((*slot, *span)),
        _ => {}
    }
}

// ---- scope ---------------------------------------------------------------

/// One `FROM`/`JOIN` table visible to name resolution, with the mapping
/// from its own column names to the physical (possibly `right.`-renamed)
/// names in the running plan schema.
struct ScopeEntry {
    alias: Option<String>,
    table: String,
    columns: Vec<(String, String)>,
}

impl ScopeEntry {
    fn matches(&self, qualifier: &str) -> bool {
        match &self.alias {
            Some(a) => a == qualifier,
            None => self.table == qualifier,
        }
    }

    fn display_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

struct Scope {
    entries: Vec<ScopeEntry>,
    /// Columns the plan produces beyond any base table (semantic-join score
    /// columns). Resolvable unqualified only.
    extras: Vec<String>,
    /// Running physical schema of the plan built so far.
    schema: Schema,
}

impl Scope {
    fn new(table: &crate::ast::TableRef, schema: Schema) -> Self {
        let columns = schema
            .names()
            .iter()
            .map(|n| (n.to_string(), n.to_string()))
            .collect();
        Scope {
            entries: vec![ScopeEntry {
                alias: table.alias.clone(),
                table: table.name.clone(),
                columns,
            }],
            extras: Vec::new(),
            schema,
        }
    }

    /// Extend with a joined table, mirroring `Schema::join`'s collision
    /// renaming. `visible` is false for semi/anti joins, whose right side
    /// does not appear in the output.
    fn add_join(&mut self, table: &crate::ast::TableRef, right: &Schema, visible: bool) {
        if !visible {
            return;
        }
        let mut columns = Vec::with_capacity(right.names().len());
        for n in right.names() {
            let phys = if self.schema.contains(n) {
                format!("right.{n}")
            } else {
                n.to_string()
            };
            columns.push((n.to_string(), phys));
        }
        self.schema = self.schema.join(right);
        self.entries.push(ScopeEntry {
            alias: table.alias.clone(),
            table: table.name.clone(),
            columns,
        });
    }

    /// Resolve a column reference to its physical name.
    fn resolve(&self, c: &ColumnRef) -> Result<String, SqlError> {
        if let Some(q) = &c.qualifier {
            let Some(entry) = self.entries.iter().find(|e| e.matches(q)) else {
                return Err(bind_err(c.span, format!("unknown table or alias `{q}`")));
            };
            return entry
                .columns
                .iter()
                .find(|(src, _)| src == &c.name)
                .map(|(_, phys)| phys.clone())
                .ok_or_else(|| bind_err(c.span, format!("unknown column `{c}`")));
        }
        let mut hits: Vec<(&str, String)> = Vec::new();
        for e in &self.entries {
            if let Some((_, phys)) = e.columns.iter().find(|(src, _)| src == &c.name) {
                hits.push((e.display_name(), phys.clone()));
            }
        }
        for x in &self.extras {
            if x == &c.name {
                hits.push(("", x.clone()));
            }
        }
        match hits.len() {
            0 => Err(bind_err(c.span, format!("unknown column `{}`", c.name))),
            1 => Ok(hits.pop().unwrap().1),
            _ => Err(bind_err(
                c.span,
                format!(
                    "column `{}` is ambiguous (appears in {}); qualify it",
                    c.name,
                    hits.iter()
                        .map(|(t, _)| format!("`{t}`"))
                        .collect::<Vec<_>>()
                        .join(" and ")
                ),
            )),
        }
    }
}

// ---- select lowering -----------------------------------------------------

struct Binder<'a> {
    provider: &'a dyn SchemaProvider,
}

/// Lower one `SELECT`. When `with_tail` is false, the member's ORDER BY /
/// LIMIT are left off (they are hoisted above the enclosing union).
fn bind_select(
    select: &Select,
    provider: &dyn SchemaProvider,
    with_tail: bool,
) -> Result<LogicalPlan, SqlError> {
    Binder { provider }.select(select, with_tail)
}

impl<'a> Binder<'a> {
    fn table_schema(&self, t: &crate::ast::TableRef) -> Result<Schema, SqlError> {
        self.provider
            .table_schema(&t.name)
            .ok_or_else(|| bind_err(t.span, format!("unknown table `{}`", t.name)))
    }

    fn resolve_model(&self, model: &Option<String>, span: Span) -> Result<String, SqlError> {
        let mut names = self.provider.model_names();
        names.sort();
        match model {
            Some(m) => {
                if names.iter().any(|n| n == m) {
                    Ok(m.clone())
                } else {
                    Err(bind_err(
                        span,
                        format!("unknown model `{m}` (registered: {})", names.join(", ")),
                    ))
                }
            }
            None => match names.len() {
                0 => Err(bind_err(span, "no embedding models are registered")),
                1 => Ok(names.pop().unwrap()),
                _ => Err(bind_err(
                    span,
                    format!(
                        "multiple models are registered ({}); pick one with USING",
                        names.join(", ")
                    ),
                )),
            },
        }
    }

    fn check_threshold(&self, threshold: f64, span: Span) -> Result<f32, SqlError> {
        if !threshold.is_finite() || !(-1.0..=1.0).contains(&threshold) {
            return Err(bind_err(
                span,
                format!("semantic threshold must be within [-1, 1], got {threshold}"),
            ));
        }
        Ok(threshold as f32)
    }

    fn select(&self, select: &Select, with_tail: bool) -> Result<LogicalPlan, SqlError> {
        // FROM + joins.
        let base_schema = self.table_schema(&select.from)?;
        let mut scope = Scope::new(&select.from, base_schema.clone());
        let mut plan = LogicalPlan::Scan {
            source: select.from.name.clone(),
            schema: Arc::new(base_schema),
        };
        for join in &select.joins {
            plan = self.join(plan, &mut scope, join)?;
        }

        // WHERE: relational conjuncts first, then semantic ones, text order.
        if let Some(selection) = &select.selection {
            let mut conjuncts = Vec::new();
            split_conjuncts(selection, &mut conjuncts);
            let (mut relational, mut semantic) = (Vec::new(), Vec::new());
            for c in conjuncts {
                match c {
                    AstExpr::SemanticLike { .. } => semantic.push(c),
                    other => relational.push(other),
                }
            }
            let mut predicate: Option<Expr> = None;
            for c in &relational {
                if let Some(span) = find_semantic_like(c) {
                    return Err(bind_err(
                        span,
                        "SEMANTIC LIKE must be a top-level AND conjunct of the WHERE clause",
                    ));
                }
                let bound = self.expr(c, &scope)?;
                predicate = Some(match predicate {
                    Some(p) => p.and(bound),
                    None => bound,
                });
            }
            if let Some(predicate) = predicate {
                plan = LogicalPlan::Filter {
                    predicate,
                    input: Box::new(plan),
                };
            }
            for c in &mut semantic {
                let AstExpr::SemanticLike {
                    column,
                    probe,
                    model,
                    k,
                    threshold,
                    span,
                } = c
                else {
                    unreachable!()
                };
                let phys = scope.resolve(column)?;
                let model = self.resolve_model(model, *span)?;
                let threshold = self.check_threshold(*threshold, *span)?;
                let target = match probe {
                    Probe::Text(s) => SemanticTarget::Text(s.clone()),
                    Probe::Param(slot) => SemanticTarget::Param(*slot as usize),
                };
                plan = LogicalPlan::SemanticFilter {
                    input: Box::new(plan),
                    column: phys,
                    target,
                    model,
                    threshold,
                };
                if let Some(k) = k {
                    if *k == 0 {
                        return Err(bind_err(*span, "match count k must be at least 1"));
                    }
                    plan = LogicalPlan::Limit {
                        input: Box::new(plan),
                        n: LimitCount::Fixed(*k as usize),
                    };
                }
            }
        }

        // Select list + GROUP BY → aggregation and/or projection.
        let star = select.items.iter().any(|i| matches!(i, SelectItem::Star));
        if star && select.items.len() > 1 {
            return Err(bind_err(
                select.span,
                "`*` cannot be combined with other select items",
            ));
        }
        let has_agg = select
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Agg { .. }));

        // (source physical name, output name) per item, in select order —
        // compared against the natural aggregate output to decide whether a
        // projection is needed.
        let mut project: Option<Vec<(Expr, String)>> = None;

        if let Some(group_by) = &select.group_by {
            if star {
                return Err(bind_err(select.span, "`*` cannot be used with GROUP BY"));
            }
            let (natural, aggs_out) = match group_by {
                GroupBy::Columns(cols) => {
                    let mut keys = Vec::with_capacity(cols.len());
                    for c in cols {
                        keys.push(scope.resolve(c)?);
                    }
                    let aggs = self.agg_specs(select, &scope, &keys, None)?;
                    let mut natural: Vec<String> = keys.clone();
                    natural.extend(aggs.iter().map(|a| a.alias.clone()));
                    plan = LogicalPlan::Aggregate {
                        input: Box::new(plan),
                        group_by: keys,
                        aggs: aggs.clone(),
                    };
                    (natural, aggs)
                }
                GroupBy::Semantic {
                    column,
                    model,
                    threshold,
                    span,
                } => {
                    let phys = scope.resolve(column)?;
                    let model = self.resolve_model(model, *span)?;
                    let threshold = self.check_threshold(*threshold, *span)?;
                    let aggs = self.agg_specs(
                        select,
                        &scope,
                        std::slice::from_ref(&phys),
                        Some("cluster_id"),
                    )?;
                    let natural: Vec<String> = [phys.clone(), "cluster_id".to_string()]
                        .into_iter()
                        .chain(aggs.iter().map(|a| a.alias.clone()))
                        .collect();
                    plan = LogicalPlan::SemanticGroupBy {
                        input: Box::new(plan),
                        column: phys,
                        model,
                        threshold,
                        aggs: aggs.clone(),
                    };
                    (natural, aggs)
                }
            };
            let _ = aggs_out;
            let desired = self.grouped_output(select, &scope, group_by)?;
            let natural_pairs: Vec<(String, String)> =
                natural.iter().map(|n| (n.clone(), n.clone())).collect();
            if desired != natural_pairs {
                project = Some(
                    desired
                        .into_iter()
                        .map(|(src, out)| (col(src), out))
                        .collect(),
                );
            }
        } else if has_agg {
            // Implicit global aggregate: every item must be an aggregate.
            let aggs = self.agg_specs(select, &scope, &[], None)?;
            plan = LogicalPlan::Aggregate {
                input: Box::new(plan),
                group_by: Vec::new(),
                aggs,
            };
        } else if !star {
            let mut exprs = Vec::with_capacity(select.items.len());
            for item in &select.items {
                let SelectItem::Expr { expr, alias } = item else {
                    unreachable!()
                };
                let bound = self.expr(expr, &scope)?;
                let name = match alias {
                    Some(a) => a.clone(),
                    None => match &bound {
                        Expr::Column(name) => name.clone(),
                        _ => {
                            return Err(bind_err(
                                expr.span(),
                                "a computed select item needs an alias (`AS name`)",
                            ))
                        }
                    },
                };
                exprs.push((bound, name));
            }
            project = Some(exprs);
        }

        // ORDER BY placement relative to the projection (see module docs).
        let pre_schema = plan_schema(&plan, select.span)?;
        let mut sort_below: Vec<SortKey> = Vec::new();
        let mut sort_above: Vec<SortKey> = Vec::new();
        if with_tail && !select.order_by.is_empty() {
            let output_names: Option<Vec<&str>> = project
                .as_ref()
                .map(|p| p.iter().map(|(_, n)| n.as_str()).collect());
            let keys = self.sort_keys(&select.order_by, &scope, &pre_schema, &output_names)?;
            match keys {
                SortPlacement::Above(keys) => sort_above = keys,
                SortPlacement::Below(keys) => {
                    if select.distinct {
                        return Err(bind_err(
                            select.order_by[0].column.span,
                            "with DISTINCT, ORDER BY columns must appear in the select list",
                        ));
                    }
                    sort_below = keys;
                }
            }
        }

        if !sort_below.is_empty() {
            plan = LogicalPlan::Sort {
                input: Box::new(plan),
                keys: sort_below,
            };
        }
        if let Some(exprs) = project {
            for (i, (_, name)) in exprs.iter().enumerate() {
                if exprs[..i].iter().any(|(_, earlier)| earlier == name) {
                    return Err(bind_err(
                        select.span,
                        format!("duplicate output column `{name}`; alias one of them (`AS name`)"),
                    ));
                }
            }
            plan = LogicalPlan::Project {
                exprs,
                input: Box::new(plan),
            };
        }
        if select.distinct {
            plan = LogicalPlan::Distinct {
                input: Box::new(plan),
            };
        }
        if !sort_above.is_empty() {
            plan = LogicalPlan::Sort {
                input: Box::new(plan),
                keys: sort_above,
            };
        }
        if with_tail {
            if let Some(l) = &select.limit {
                plan = apply_limit(plan, l);
            }
        }
        Ok(plan)
    }

    fn join(
        &self,
        plan: LogicalPlan,
        scope: &mut Scope,
        join: &Join,
    ) -> Result<LogicalPlan, SqlError> {
        match join {
            Join::Relational {
                join_type,
                table,
                on,
            } => {
                let right_schema = self.table_schema(table)?;
                let right = LogicalPlan::Scan {
                    source: table.name.clone(),
                    schema: Arc::new(right_schema.clone()),
                };
                let mut pairs = Vec::with_capacity(on.len());
                for (l, r) in on {
                    pairs.push(self.join_pair(scope, table, &right_schema, l, r)?);
                }
                let visible = !matches!(join_type, JoinType::LeftSemi | JoinType::LeftAnti);
                scope.add_join(table, &right_schema, visible);
                Ok(LogicalPlan::Join {
                    left: Box::new(plan),
                    right: Box::new(right),
                    on: pairs,
                    join_type: *join_type,
                })
            }
            Join::Cross { table } => {
                let right_schema = self.table_schema(table)?;
                let right = LogicalPlan::Scan {
                    source: table.name.clone(),
                    schema: Arc::new(right_schema.clone()),
                };
                scope.add_join(table, &right_schema, true);
                Ok(LogicalPlan::CrossJoin {
                    left: Box::new(plan),
                    right: Box::new(right),
                })
            }
            Join::Semantic {
                table,
                model,
                left,
                right,
                threshold,
                score,
                span,
                ..
            } => {
                let right_schema = self.table_schema(table)?;
                let right_plan = LogicalPlan::Scan {
                    source: table.name.clone(),
                    schema: Arc::new(right_schema.clone()),
                };
                let (left_col, right_col) =
                    self.join_pair(scope, table, &right_schema, left, right)?;
                let model = self.resolve_model(model, *span)?;
                let threshold = self.check_threshold(*threshold, *span)?;
                let score_column = score.clone().unwrap_or_else(|| "similarity".to_string());
                scope.add_join(table, &right_schema, true);
                if scope.schema.contains(&score_column) || scope.extras.contains(&score_column) {
                    return Err(bind_err(
                        *span,
                        format!(
                            "score column `{score_column}` already exists; \
                             name it with `SCORE <name>`"
                        ),
                    ));
                }
                scope.extras.push(score_column.clone());
                Ok(LogicalPlan::SemanticJoin {
                    left: Box::new(plan),
                    right: Box::new(right_plan),
                    spec: SemanticJoinSpec {
                        left_column: left_col,
                        right_column: right_col,
                        model,
                        threshold,
                        score_column,
                    },
                })
            }
        }
    }

    /// Resolve an ON pair: one side against the accumulated left scope, the
    /// other against the newly joined table. Order-insensitive — `ON a.x =
    /// b.y` and `ON b.y = a.x` bind identically.
    fn join_pair(
        &self,
        scope: &Scope,
        table: &crate::ast::TableRef,
        right_schema: &Schema,
        l: &ColumnRef,
        r: &ColumnRef,
    ) -> Result<(String, String), SqlError> {
        let resolve_right = |c: &ColumnRef| -> Result<String, SqlError> {
            if let Some(q) = &c.qualifier {
                let name_matches = match &table.alias {
                    Some(a) => a == q,
                    None => &table.name == q,
                };
                if !name_matches {
                    return Err(bind_err(c.span, format!("unknown table or alias `{q}`")));
                }
            }
            if right_schema.contains(&c.name) {
                Ok(c.name.clone())
            } else {
                Err(bind_err(
                    c.span,
                    format!("unknown column `{c}` in joined table `{}`", table.name),
                ))
            }
        };
        match (scope.resolve(l), resolve_right(r)) {
            (Ok(lp), Ok(rp)) => Ok((lp, rp)),
            (left_res, right_res) => {
                // Try the swapped orientation before reporting.
                if let (Ok(lp), Ok(rp)) = (scope.resolve(r), resolve_right(l)) {
                    return Ok((lp, rp));
                }
                Err(left_res.err().or(right_res.err()).unwrap())
            }
        }
    }

    /// Aggregate specs from the select list, validating non-aggregate items
    /// against the group keys (plus `extra_key`, e.g. `cluster_id`).
    fn agg_specs(
        &self,
        select: &Select,
        scope: &Scope,
        keys: &[String],
        extra_key: Option<&str>,
    ) -> Result<Vec<AggSpec>, SqlError> {
        let mut aggs = Vec::new();
        for item in &select.items {
            match item {
                SelectItem::Agg {
                    func,
                    column,
                    alias,
                    span,
                } => {
                    let (column, default_alias) = match column {
                        Some(c) => {
                            let phys = scope.resolve(c)?;
                            let default =
                                format!("{}_{}", func_name(*func), c.name.to_ascii_lowercase());
                            (Some(phys), default)
                        }
                        None => {
                            if *func != AggFunc::CountStar {
                                return Err(bind_err(*span, "aggregate needs a column argument"));
                            }
                            (None, "count".to_string())
                        }
                    };
                    aggs.push(AggSpec {
                        func: *func,
                        column,
                        alias: alias.clone().unwrap_or(default_alias),
                    });
                }
                SelectItem::Expr { expr, .. } => {
                    let AstExpr::Column(c) = expr else {
                        return Err(bind_err(
                            expr.span(),
                            "select items under GROUP BY must be group keys or aggregates",
                        ));
                    };
                    if extra_key == Some(c.name.as_str()) && c.qualifier.is_none() {
                        continue;
                    }
                    let phys = scope.resolve(c)?;
                    if keys.is_empty() {
                        return Err(bind_err(
                            c.span,
                            format!(
                                "column `{}` cannot be mixed with aggregates without GROUP BY",
                                c.name
                            ),
                        ));
                    }
                    if !keys.contains(&phys) {
                        return Err(bind_err(
                            c.span,
                            format!(
                                "column `{}` must appear in GROUP BY or inside an aggregate",
                                c.name
                            ),
                        ));
                    }
                }
                SelectItem::Star => {
                    return Err(bind_err(select.span, "`*` cannot be used with aggregates"))
                }
            }
        }
        Ok(aggs)
    }

    /// The (source, output) name pairs the select list asks for, in order —
    /// used to decide whether the natural aggregate output needs reshaping.
    fn grouped_output(
        &self,
        select: &Select,
        scope: &Scope,
        group_by: &GroupBy,
    ) -> Result<Vec<(String, String)>, SqlError> {
        let extra_key = matches!(group_by, GroupBy::Semantic { .. }).then_some("cluster_id");
        let mut out = Vec::with_capacity(select.items.len());
        for item in &select.items {
            match item {
                SelectItem::Agg {
                    func,
                    column,
                    alias,
                    ..
                } => {
                    let default = match column {
                        Some(c) => format!("{}_{}", func_name(*func), c.name.to_ascii_lowercase()),
                        None => "count".to_string(),
                    };
                    let name = alias.clone().unwrap_or(default);
                    out.push((name.clone(), name));
                }
                SelectItem::Expr { expr, alias } => {
                    let AstExpr::Column(c) = expr else {
                        unreachable!()
                    };
                    let src = if extra_key == Some(c.name.as_str()) && c.qualifier.is_none() {
                        c.name.clone()
                    } else {
                        scope.resolve(c)?
                    };
                    out.push((src.clone(), alias.clone().unwrap_or(src)));
                }
                SelectItem::Star => unreachable!(),
            }
        }
        Ok(out)
    }

    fn sort_keys(
        &self,
        order_by: &[OrderKey],
        scope: &Scope,
        pre_schema: &Schema,
        output_names: &Option<Vec<&str>>,
    ) -> Result<SortPlacement, SqlError> {
        let Some(output_names) = output_names else {
            // No projection: sort on the plan's own columns.
            let mut keys = Vec::with_capacity(order_by.len());
            for k in order_by {
                let phys = self.sort_resolve(k, scope, pre_schema)?;
                keys.push(SortKey {
                    column: phys,
                    ascending: k.ascending,
                });
            }
            return Ok(SortPlacement::Above(keys));
        };
        // With a projection, prefer sorting over the projected output (so
        // aliases are usable); fall back to sorting beneath it when the key
        // is projected away.
        let mut above = Vec::new();
        let mut below = Vec::new();
        for k in order_by {
            if k.column.qualifier.is_none() && output_names.contains(&k.column.name.as_str()) {
                above.push(SortKey {
                    column: k.column.name.clone(),
                    ascending: k.ascending,
                });
                continue;
            }
            let phys = self.sort_resolve(k, scope, pre_schema)?;
            if output_names.contains(&phys.as_str()) {
                above.push(SortKey {
                    column: phys,
                    ascending: k.ascending,
                });
            } else {
                below.push(SortKey {
                    column: phys,
                    ascending: k.ascending,
                });
            }
        }
        if below.is_empty() {
            Ok(SortPlacement::Above(above))
        } else if above.is_empty() {
            Ok(SortPlacement::Below(below))
        } else {
            Err(bind_err(
                order_by[0].column.span,
                "ORDER BY mixes projected and non-projected columns; \
                 add the missing columns to the select list",
            ))
        }
    }

    fn sort_resolve(
        &self,
        k: &OrderKey,
        scope: &Scope,
        pre_schema: &Schema,
    ) -> Result<String, SqlError> {
        // After aggregation the scope's base-table entries are stale; the
        // aggregate output schema is authoritative.
        if k.column.qualifier.is_none() && pre_schema.contains(&k.column.name) {
            return Ok(k.column.name.clone());
        }
        let phys = scope.resolve(&k.column)?;
        if pre_schema.contains(&phys) {
            Ok(phys)
        } else {
            Err(bind_err(
                k.column.span,
                format!("unknown column `{}` in ORDER BY", k.column),
            ))
        }
    }

    fn expr(&self, e: &AstExpr, scope: &Scope) -> Result<Expr, SqlError> {
        match e {
            AstExpr::Column(c) => Ok(col(scope.resolve(c)?)),
            AstExpr::Literal { value, .. } => Ok(Expr::Literal(literal_scalar(value))),
            AstExpr::Param { slot, .. } => Ok(Expr::Parameter(*slot as usize)),
            AstExpr::Binary { op, left, right } => Ok(Expr::Binary {
                op: *op,
                left: Box::new(self.expr(left, scope)?),
                right: Box::new(self.expr(right, scope)?),
            }),
            AstExpr::Not(inner) => Ok(self.expr(inner, scope)?.not()),
            AstExpr::IsNull { expr, negated } => {
                let bound = self.expr(expr, scope)?.is_null();
                Ok(if *negated { bound.not() } else { bound })
            }
            AstExpr::SemanticLike { span, .. } => Err(bind_err(
                *span,
                "SEMANTIC LIKE must be a top-level AND conjunct of the WHERE clause",
            )),
        }
    }
}

enum SortPlacement {
    Above(Vec<SortKey>),
    Below(Vec<SortKey>),
}

fn func_name(func: AggFunc) -> &'static str {
    match func {
        AggFunc::CountStar | AggFunc::Count => "count",
        AggFunc::Sum => "sum",
        AggFunc::Min => "min",
        AggFunc::Max => "max",
        AggFunc::Avg => "avg",
    }
}

fn split_conjuncts<'e>(e: &'e AstExpr, out: &mut Vec<&'e AstExpr>) {
    match e {
        AstExpr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            split_conjuncts(left, out);
            split_conjuncts(right, out);
        }
        other => out.push(other),
    }
}

/// The span of the first `SEMANTIC LIKE` nested anywhere inside `e`.
fn find_semantic_like(e: &AstExpr) -> Option<Span> {
    match e {
        AstExpr::SemanticLike { span, .. } => Some(*span),
        AstExpr::Binary { left, right, .. } => {
            find_semantic_like(left).or_else(|| find_semantic_like(right))
        }
        AstExpr::Not(inner) | AstExpr::IsNull { expr: inner, .. } => find_semantic_like(inner),
        _ => None,
    }
}
