//! The logical plan algebra: relational and semantic operators in one tree.
//!
//! Keeping the paper's semantic operators (Section IV) as first-class plan
//! nodes — rather than opaque UDFs — is what lets the optimizer push
//! filters through them, reorder joins around them, and cost them like any
//! relational operator.

use cx_expr::Expr;
use cx_storage::{DataType, Error, Field, Result, Scalar, Schema};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// The probe of a semantic filter: a fixed text literal, or a
/// prepared-statement parameter slot bound at execute time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SemanticTarget {
    /// A concrete probe string.
    Text(String),
    /// A placeholder resolved from the binding vector (`params[slot]`
    /// must be a UTF8 scalar).
    Param(usize),
}

impl SemanticTarget {
    /// The probe text, when fixed.
    pub fn text(&self) -> Option<&str> {
        match self {
            SemanticTarget::Text(s) => Some(s),
            SemanticTarget::Param(_) => None,
        }
    }

    /// Resolves the probe text against a binding vector. A `Text` target
    /// resolves to itself; a `Param` requires a UTF8 scalar at its slot.
    pub fn resolve(&self, params: &[Scalar]) -> Result<String> {
        match self {
            SemanticTarget::Text(s) => Ok(s.clone()),
            SemanticTarget::Param(slot) => match params.get(*slot) {
                Some(Scalar::Utf8(s)) => Ok(s.clone()),
                Some(other) => Err(Error::TypeMismatch {
                    expected: format!("UTF8 value for semantic probe parameter ${slot}"),
                    actual: format!("{other:?}"),
                }),
                None => Err(Error::InvalidArgument(format!(
                    "parameter ${slot} has no bound value ({} provided)",
                    params.len()
                ))),
            },
        }
    }
}

impl From<&str> for SemanticTarget {
    fn from(s: &str) -> Self {
        SemanticTarget::Text(s.to_string())
    }
}

impl From<String> for SemanticTarget {
    fn from(s: String) -> Self {
        SemanticTarget::Text(s)
    }
}

impl fmt::Display for SemanticTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemanticTarget::Text(s) => write!(f, "'{s}'"),
            SemanticTarget::Param(slot) => write!(f, "${slot}"),
        }
    }
}

/// A LIMIT row count: fixed, or a prepared-statement parameter slot bound
/// at execute time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimitCount {
    /// A concrete row count.
    Fixed(usize),
    /// A placeholder resolved from the binding vector (`params[slot]`
    /// must be a non-negative Int64 scalar).
    Param(usize),
}

impl LimitCount {
    /// The row count, when fixed.
    pub fn fixed(&self) -> Option<usize> {
        match self {
            LimitCount::Fixed(n) => Some(*n),
            LimitCount::Param(_) => None,
        }
    }

    /// Resolves the row count against a binding vector.
    pub fn resolve(&self, params: &[Scalar]) -> Result<usize> {
        match self {
            LimitCount::Fixed(n) => Ok(*n),
            LimitCount::Param(slot) => match params.get(*slot) {
                Some(Scalar::Int64(n)) if *n >= 0 => Ok(*n as usize),
                Some(other) => Err(Error::TypeMismatch {
                    expected: format!("non-negative Int64 for limit parameter ${slot}"),
                    actual: format!("{other:?}"),
                }),
                None => Err(Error::InvalidArgument(format!(
                    "parameter ${slot} has no bound value ({} provided)",
                    params.len()
                ))),
            },
        }
    }
}

impl From<usize> for LimitCount {
    fn from(n: usize) -> Self {
        LimitCount::Fixed(n)
    }
}

impl fmt::Display for LimitCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LimitCount::Fixed(n) => write!(f, "{n}"),
            LimitCount::Param(slot) => write!(f, "${slot}"),
        }
    }
}

/// Join variants supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    Inner,
    /// Left outer: unmatched left rows padded with NULLs.
    Left,
    /// Left semi: left rows with at least one match, emitted once.
    LeftSemi,
    /// Left anti: left rows with no match.
    LeftAnti,
}

impl fmt::Display for JoinType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JoinType::Inner => "INNER",
            JoinType::Left => "LEFT",
            JoinType::LeftSemi => "SEMI",
            JoinType::LeftAnti => "ANTI",
        };
        f.write_str(s)
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    CountStar,
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::CountStar => "COUNT(*)",
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        };
        f.write_str(s)
    }
}

/// One aggregate in an [`LogicalPlan::Aggregate`] or semantic group-by.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    pub func: AggFunc,
    /// Input column (`None` only for `CountStar`).
    pub column: Option<String>,
    /// Output field name.
    pub alias: String,
}

impl AggSpec {
    /// `COUNT(*) AS alias`.
    pub fn count_star(alias: impl Into<String>) -> Self {
        AggSpec {
            func: AggFunc::CountStar,
            column: None,
            alias: alias.into(),
        }
    }

    /// `func(column) AS alias`.
    pub fn new(func: AggFunc, column: impl Into<String>, alias: impl Into<String>) -> Self {
        AggSpec {
            func,
            column: Some(column.into()),
            alias: alias.into(),
        }
    }

    /// The output field this aggregate produces given the input schema.
    pub fn output_field(&self, input: &Schema) -> Result<Field> {
        let data_type = match (self.func, &self.column) {
            (AggFunc::CountStar, _) | (AggFunc::Count, _) => DataType::Int64,
            (AggFunc::Avg, Some(_)) => DataType::Float64,
            (AggFunc::Sum, Some(col)) => {
                let t = input.field(col)?.data_type;
                if t == DataType::Int64 {
                    DataType::Int64
                } else {
                    DataType::Float64
                }
            }
            (AggFunc::Min | AggFunc::Max, Some(col)) => input.field(col)?.data_type,
            (_, None) => {
                return Err(Error::InvalidArgument(format!(
                    "{} requires an input column",
                    self.func
                )))
            }
        };
        Ok(Field::new(self.alias.clone(), data_type))
    }
}

impl fmt::Display for AggSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.func, &self.column) {
            (AggFunc::CountStar, _) => write!(f, "COUNT(*) AS {}", self.alias),
            (func, Some(col)) => write!(f, "{func}({col}) AS {}", self.alias),
            (func, None) => write!(f, "{func}(?) AS {}", self.alias),
        }
    }
}

/// Parameters of a semantic join: match rows whose key embeddings are
/// within `threshold` cosine similarity under `model`.
#[derive(Debug, Clone, PartialEq)]
pub struct SemanticJoinSpec {
    pub left_column: String,
    pub right_column: String,
    /// Model name resolved through the engine's model registry.
    pub model: String,
    pub threshold: f32,
    /// Name of the appended similarity score column.
    pub score_column: String,
}

/// A sort key: column plus direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortKey {
    pub column: String,
    pub ascending: bool,
}

/// The logical plan tree.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Base relation scan. The schema is captured at plan-build time from
    /// the catalog.
    Scan { source: String, schema: Arc<Schema> },
    /// Row filter.
    Filter {
        predicate: Expr,
        input: Box<LogicalPlan>,
    },
    /// Projection / computed columns.
    Project {
        exprs: Vec<(Expr, String)>,
        input: Box<LogicalPlan>,
    },
    /// Equi-join on column name pairs.
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        on: Vec<(String, String)>,
        join_type: JoinType,
    },
    /// Cartesian product (theta joins = CrossJoin + Filter).
    CrossJoin {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
    },
    /// Semantic select (Section IV): keep rows whose `column` embedding is
    /// within `threshold` cosine of the target's embedding under `model`.
    /// The target is a [`SemanticTarget`]: a fixed probe string, or a
    /// prepared-statement parameter bound at execute time.
    SemanticFilter {
        input: Box<LogicalPlan>,
        column: String,
        target: SemanticTarget,
        model: String,
        threshold: f32,
    },
    /// Semantic join (Section IV): embedding-space threshold join.
    SemanticJoin {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        spec: SemanticJoinSpec,
    },
    /// Semantic group-by (Section IV): on-the-fly clustering of `column`
    /// by model similarity, with aggregates per cluster.
    SemanticGroupBy {
        input: Box<LogicalPlan>,
        column: String,
        model: String,
        threshold: f32,
        aggs: Vec<AggSpec>,
    },
    /// Hash aggregation.
    Aggregate {
        input: Box<LogicalPlan>,
        group_by: Vec<String>,
        aggs: Vec<AggSpec>,
    },
    /// Total sort.
    Sort {
        input: Box<LogicalPlan>,
        keys: Vec<SortKey>,
    },
    /// First `n` rows ([`LimitCount`]: fixed or parameterized).
    Limit {
        input: Box<LogicalPlan>,
        n: LimitCount,
    },
    /// Duplicate elimination over all columns.
    Distinct { input: Box<LogicalPlan> },
    /// Concatenation of same-schema inputs.
    Union { inputs: Vec<LogicalPlan> },
}

impl LogicalPlan {
    /// The output schema of this plan node.
    pub fn schema(&self) -> Result<Schema> {
        match self {
            LogicalPlan::Scan { schema, .. } => Ok((**schema).clone()),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Distinct { input } => input.schema(),
            LogicalPlan::Project { exprs, input } => {
                let in_schema = input.schema()?;
                let mut fields = Vec::with_capacity(exprs.len());
                for (expr, name) in exprs {
                    let bound = expr.bind(&in_schema)?;
                    let data_type = bound.data_type().unwrap_or(DataType::Bool);
                    fields.push(Field::new(name.clone(), data_type));
                }
                Ok(Schema::new(fields))
            }
            LogicalPlan::Join {
                left,
                right,
                join_type,
                ..
            } => {
                let l = left.schema()?;
                match join_type {
                    JoinType::LeftSemi | JoinType::LeftAnti => Ok(l),
                    JoinType::Inner => Ok(l.join(&right.schema()?)),
                    JoinType::Left => {
                        // Right-side fields become nullable.
                        let r = right.schema()?;
                        let nullable = Schema::new(
                            r.fields()
                                .iter()
                                .map(|f| Field::new(f.name.clone(), f.data_type))
                                .collect(),
                        );
                        Ok(l.join(&nullable))
                    }
                }
            }
            LogicalPlan::CrossJoin { left, right } => Ok(left.schema()?.join(&right.schema()?)),
            LogicalPlan::SemanticFilter { input, .. } => input.schema(),
            LogicalPlan::SemanticJoin { left, right, spec } => {
                let mut joined = left.schema()?.join(&right.schema()?);
                joined =
                    joined.with_field(Field::new(spec.score_column.clone(), DataType::Float64));
                Ok(joined)
            }
            LogicalPlan::SemanticGroupBy {
                input,
                column,
                aggs,
                ..
            } => {
                let in_schema = input.schema()?;
                let key_type = in_schema.field(column)?.data_type;
                let mut fields = vec![
                    Field::new(column.clone(), key_type),
                    Field::new("cluster_id", DataType::Int64),
                ];
                for agg in aggs {
                    fields.push(agg.output_field(&in_schema)?);
                }
                Ok(Schema::new(fields))
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let in_schema = input.schema()?;
                let mut fields = Vec::with_capacity(group_by.len() + aggs.len());
                for name in group_by {
                    fields.push(in_schema.field(name)?.clone());
                }
                for agg in aggs {
                    fields.push(agg.output_field(&in_schema)?);
                }
                Ok(Schema::new(fields))
            }
            LogicalPlan::Union { inputs } => inputs
                .first()
                .ok_or_else(|| Error::InvalidArgument("UNION of zero inputs".into()))?
                .schema(),
        }
    }

    /// Immediate child plans.
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::SemanticFilter { input, .. }
            | LogicalPlan::SemanticGroupBy { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => vec![input],
            LogicalPlan::Join { left, right, .. }
            | LogicalPlan::CrossJoin { left, right }
            | LogicalPlan::SemanticJoin { left, right, .. } => vec![left, right],
            LogicalPlan::Union { inputs } => inputs.iter().collect(),
        }
    }

    /// Rebuilds this node with new children (same arity required).
    pub fn with_children(&self, mut children: Vec<LogicalPlan>) -> Result<LogicalPlan> {
        let expected = self.children().len();
        if children.len() != expected {
            return Err(Error::InvalidArgument(format!(
                "with_children: expected {expected} children, got {}",
                children.len()
            )));
        }
        let mut next = || Box::new(children.remove(0));
        Ok(match self {
            LogicalPlan::Scan { .. } => self.clone(),
            LogicalPlan::Filter { predicate, .. } => LogicalPlan::Filter {
                predicate: predicate.clone(),
                input: next(),
            },
            LogicalPlan::Project { exprs, .. } => LogicalPlan::Project {
                exprs: exprs.clone(),
                input: next(),
            },
            LogicalPlan::Join { on, join_type, .. } => LogicalPlan::Join {
                left: next(),
                right: next(),
                on: on.clone(),
                join_type: *join_type,
            },
            LogicalPlan::CrossJoin { .. } => LogicalPlan::CrossJoin {
                left: next(),
                right: next(),
            },
            LogicalPlan::SemanticFilter {
                column,
                target,
                model,
                threshold,
                ..
            } => LogicalPlan::SemanticFilter {
                input: next(),
                column: column.clone(),
                target: target.clone(),
                model: model.clone(),
                threshold: *threshold,
            },
            LogicalPlan::SemanticJoin { spec, .. } => LogicalPlan::SemanticJoin {
                left: next(),
                right: next(),
                spec: spec.clone(),
            },
            LogicalPlan::SemanticGroupBy {
                column,
                model,
                threshold,
                aggs,
                ..
            } => LogicalPlan::SemanticGroupBy {
                input: next(),
                column: column.clone(),
                model: model.clone(),
                threshold: *threshold,
                aggs: aggs.clone(),
            },
            LogicalPlan::Aggregate { group_by, aggs, .. } => LogicalPlan::Aggregate {
                input: next(),
                group_by: group_by.clone(),
                aggs: aggs.clone(),
            },
            LogicalPlan::Sort { keys, .. } => LogicalPlan::Sort {
                input: next(),
                keys: keys.clone(),
            },
            LogicalPlan::Limit { n, .. } => LogicalPlan::Limit {
                input: next(),
                n: *n,
            },
            LogicalPlan::Distinct { .. } => LogicalPlan::Distinct { input: next() },
            LogicalPlan::Union { .. } => LogicalPlan::Union {
                inputs: std::mem::take(&mut children),
            },
        })
    }

    /// One-line description of this node (children excluded).
    pub fn describe(&self) -> String {
        match self {
            LogicalPlan::Scan { source, schema } => {
                format!("Scan: {source} [{} cols]", schema.len())
            }
            LogicalPlan::Filter { predicate, .. } => format!("Filter: {predicate}"),
            LogicalPlan::Project { exprs, .. } => {
                let cols: Vec<String> = exprs
                    .iter()
                    .map(|(e, n)| {
                        let es = e.to_string();
                        if &es == n {
                            es
                        } else {
                            format!("{es} AS {n}")
                        }
                    })
                    .collect();
                format!("Project: {}", cols.join(", "))
            }
            LogicalPlan::Join { on, join_type, .. } => {
                let keys: Vec<String> = on.iter().map(|(l, r)| format!("{l} = {r}")).collect();
                format!("{join_type} Join: {}", keys.join(" AND "))
            }
            LogicalPlan::CrossJoin { .. } => "CrossJoin".to_string(),
            LogicalPlan::SemanticFilter {
                column,
                target,
                model,
                threshold,
                ..
            } => format!("SemanticFilter: {column} ~ {target} (model={model}, cos>={threshold})"),
            LogicalPlan::SemanticJoin { spec, .. } => format!(
                "SemanticJoin: {} ~ {} (model={}, cos>={})",
                spec.left_column, spec.right_column, spec.model, spec.threshold
            ),
            LogicalPlan::SemanticGroupBy {
                column,
                model,
                threshold,
                aggs,
                ..
            } => {
                let aggs: Vec<String> = aggs.iter().map(|a| a.to_string()).collect();
                format!(
                    "SemanticGroupBy: {column} (model={model}, cos>={threshold}) [{}]",
                    aggs.join(", ")
                )
            }
            LogicalPlan::Aggregate { group_by, aggs, .. } => {
                let aggs: Vec<String> = aggs.iter().map(|a| a.to_string()).collect();
                format!(
                    "Aggregate: group by [{}] [{}]",
                    group_by.join(", "),
                    aggs.join(", ")
                )
            }
            LogicalPlan::Sort { keys, .. } => {
                let keys: Vec<String> = keys
                    .iter()
                    .map(|k| format!("{}{}", k.column, if k.ascending { "" } else { " DESC" }))
                    .collect();
                format!("Sort: {}", keys.join(", "))
            }
            LogicalPlan::Limit { n, .. } => format!("Limit: {n}"),
            LogicalPlan::Distinct { .. } => "Distinct".to_string(),
            LogicalPlan::Union { inputs } => format!("Union: {} inputs", inputs.len()),
        }
    }

    /// Multi-line indented plan rendering (EXPLAIN).
    pub fn display_indent(&self) -> String {
        let mut out = String::new();
        self.fmt_indent(&mut out, 0);
        out
    }

    fn fmt_indent(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.describe());
        out.push('\n');
        for child in self.children() {
            child.fmt_indent(out, depth + 1);
        }
    }

    /// Number of nodes in the plan tree.
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }

    /// A stable structural fingerprint of this plan.
    ///
    /// Two plans fingerprint equal iff they are structurally identical —
    /// same operators, in the same tree shape, with the same parameters
    /// (sources, predicates, thresholds bit-for-bit, models, limits;
    /// prepared-statement placeholders by slot). The hash is FNV-1a, not
    /// `DefaultHasher`, so the value is deterministic across processes and
    /// platforms: it can key a serving layer's plan cache and survive
    /// restarts.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.fingerprint_into(&mut h, false);
        h.finish()
    }

    /// The plan's *shape* fingerprint: like [`Self::fingerprint`], but
    /// every bindable literal position — expression literals, semantic
    /// probe texts, limit counts — is hashed as a placeholder slot
    /// (expression literals keep their type tag, since `lit(2i64)` and
    /// `lit(2.0)` produce different plans) instead of its value, while
    /// explicit parameter placeholders hash by slot as usual.
    ///
    /// Two plans shape-fingerprint equal iff they are identical up to the
    /// values a prepared statement could bind. A prepared-statement layer
    /// keys its plan cache by this hash, so every binding of one template
    /// — and every re-prepare of an equivalent template — lands on the
    /// same entry. Because the values of *unparameterized* literals are
    /// erased too, shape-keyed caches must validate candidate entries
    /// against the exact [`Self::fingerprint`] before reuse.
    pub fn shape_fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.fingerprint_into(&mut h, true);
        h.finish()
    }

    fn fingerprint_into(&self, h: &mut Fnv1a, shape: bool) {
        match self {
            LogicalPlan::Scan { source, schema } => {
                h.tag(1);
                h.str(source);
                h.u64(schema.len() as u64);
                for f in schema.fields() {
                    h.str(&f.name);
                    h.str(&f.data_type.to_string());
                }
            }
            LogicalPlan::Filter { predicate, .. } => {
                h.tag(2);
                hash_expr(h, predicate, shape);
            }
            LogicalPlan::Project { exprs, .. } => {
                h.tag(3);
                h.u64(exprs.len() as u64);
                for (e, name) in exprs {
                    hash_expr(h, e, shape);
                    h.str(name);
                }
            }
            LogicalPlan::Join { on, join_type, .. } => {
                h.tag(4);
                h.str(&join_type.to_string());
                h.u64(on.len() as u64);
                for (l, r) in on {
                    h.str(l);
                    h.str(r);
                }
            }
            LogicalPlan::CrossJoin { .. } => h.tag(5),
            LogicalPlan::SemanticFilter {
                column,
                target,
                model,
                threshold,
                ..
            } => {
                h.tag(6);
                h.str(column);
                match target {
                    SemanticTarget::Text(s) => {
                        h.tag(1);
                        if !shape {
                            h.str(s);
                        }
                    }
                    SemanticTarget::Param(slot) => {
                        h.tag(2);
                        h.u64(*slot as u64);
                    }
                }
                h.str(model);
                h.u64(threshold.to_bits() as u64);
            }
            LogicalPlan::SemanticJoin { spec, .. } => {
                h.tag(7);
                h.str(&spec.left_column);
                h.str(&spec.right_column);
                h.str(&spec.model);
                h.u64(spec.threshold.to_bits() as u64);
                h.str(&spec.score_column);
            }
            LogicalPlan::SemanticGroupBy {
                column,
                model,
                threshold,
                aggs,
                ..
            } => {
                h.tag(8);
                h.str(column);
                h.str(model);
                h.u64(threshold.to_bits() as u64);
                hash_aggs(h, aggs);
            }
            LogicalPlan::Aggregate { group_by, aggs, .. } => {
                h.tag(9);
                h.u64(group_by.len() as u64);
                for g in group_by {
                    h.str(g);
                }
                hash_aggs(h, aggs);
            }
            LogicalPlan::Sort { keys, .. } => {
                h.tag(10);
                h.u64(keys.len() as u64);
                for k in keys {
                    h.str(&k.column);
                    h.u64(k.ascending as u64);
                }
            }
            LogicalPlan::Limit { n, .. } => {
                h.tag(11);
                match n {
                    LimitCount::Fixed(n) => {
                        h.tag(1);
                        if !shape {
                            h.u64(*n as u64);
                        }
                    }
                    LimitCount::Param(slot) => {
                        h.tag(2);
                        h.u64(*slot as u64);
                    }
                }
            }
            LogicalPlan::Distinct { .. } => h.tag(12),
            LogicalPlan::Union { inputs } => {
                h.tag(13);
                h.u64(inputs.len() as u64);
            }
        }
        for child in self.children() {
            child.fingerprint_into(h, shape);
        }
    }

    /// Every parameter slot referenced anywhere in the plan — filter and
    /// projection expressions, semantic probe targets, limit counts.
    pub fn param_slots(&self) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        self.collect_param_slots(&mut out);
        out
    }

    fn collect_param_slots(&self, out: &mut BTreeSet<usize>) {
        match self {
            LogicalPlan::Filter { predicate, .. } => predicate.collect_params(out),
            LogicalPlan::Project { exprs, .. } => {
                for (e, _) in exprs {
                    e.collect_params(out);
                }
            }
            LogicalPlan::SemanticFilter {
                target: SemanticTarget::Param(slot),
                ..
            } => {
                out.insert(*slot);
            }
            LogicalPlan::Limit {
                n: LimitCount::Param(slot),
                ..
            } => {
                out.insert(*slot);
            }
            _ => {}
        }
        for child in self.children() {
            child.collect_param_slots(out);
        }
    }

    /// The number of binding values the plan requires: one per parameter
    /// slot, which must be contiguous from `$0`. Errors when slots are
    /// skipped (a prepared statement could never bind such a plan).
    pub fn required_params(&self) -> Result<usize> {
        let slots = self.param_slots();
        let n = slots.len();
        for (expect, got) in slots.into_iter().enumerate() {
            if expect != got {
                return Err(Error::InvalidArgument(format!(
                    "parameter slots must be contiguous from $0: ${expect} is unused but ${got} is referenced"
                )));
            }
        }
        Ok(n)
    }

    /// Replaces every bindable literal in the plan — expression literals
    /// in filters and projections, fixed semantic probe texts, fixed
    /// limit counts — with a parameter placeholder, returning the
    /// parameterized *template* plus the lifted values in slot order.
    /// This is the inverse of [`Self::bind_params`]:
    /// `plan.lift_literals()` gives `(template, values)` with
    /// `template.bind_params(&values) == plan` for any parameter-free
    /// plan.
    ///
    /// Slots are assigned in a deterministic pre-order walk (a node's own
    /// literals before its children, children left to right), so two
    /// plans that differ only in literal values lift to the *same*
    /// template — the foundation of auto-parameterization: the template's
    /// [`Self::fingerprint`] keys one prepared shape for the whole
    /// literal family. Values that are not bindable through
    /// [`Self::bind_params`] — semantic thresholds, models, column names,
    /// aggregate specs, sort keys — stay in the template and therefore in
    /// its fingerprint.
    ///
    /// The caller must ensure the plan has no pre-existing parameters
    /// (check [`Self::param_slots`]); lifting such a plan would produce
    /// colliding slots.
    pub fn lift_literals(&self) -> (LogicalPlan, Vec<Scalar>) {
        let mut out = Vec::new();
        let plan = self.lift_into(&mut out);
        (plan, out)
    }

    fn lift_into(&self, out: &mut Vec<Scalar>) -> LogicalPlan {
        let lifted = match self {
            LogicalPlan::Filter { predicate, input } => LogicalPlan::Filter {
                predicate: predicate.lift_literals(out),
                input: input.clone(),
            },
            LogicalPlan::Project { exprs, input } => LogicalPlan::Project {
                exprs: exprs
                    .iter()
                    .map(|(e, n)| (e.lift_literals(out), n.clone()))
                    .collect(),
                input: input.clone(),
            },
            LogicalPlan::SemanticFilter {
                input,
                column,
                target,
                model,
                threshold,
            } => {
                let target = match target {
                    SemanticTarget::Text(s) => {
                        let slot = out.len();
                        out.push(Scalar::Utf8(s.clone()));
                        SemanticTarget::Param(slot)
                    }
                    SemanticTarget::Param(slot) => SemanticTarget::Param(*slot),
                };
                LogicalPlan::SemanticFilter {
                    input: input.clone(),
                    column: column.clone(),
                    target,
                    model: model.clone(),
                    threshold: *threshold,
                }
            }
            LogicalPlan::Limit { input, n } => {
                let n = match n {
                    LimitCount::Fixed(v) => {
                        let slot = out.len();
                        out.push(Scalar::Int64(*v as i64));
                        LimitCount::Param(slot)
                    }
                    LimitCount::Param(slot) => LimitCount::Param(*slot),
                };
                LogicalPlan::Limit {
                    input: input.clone(),
                    n,
                }
            }
            other => other.clone(),
        };
        let children = lifted
            .children()
            .into_iter()
            .map(|c| c.lift_into(out))
            .collect();
        lifted
            .with_children(children)
            .expect("lift_into preserves arity")
    }

    /// Substitutes every parameter placeholder with its value from
    /// `params` (slot `i` takes `params[i]`): expression parameters become
    /// literals, a parameterized semantic target becomes its probe text,
    /// a parameterized limit becomes its row count. Errors on missing
    /// slots or type-invalid bindings (non-UTF8 probe, negative limit).
    pub fn bind_params(&self, params: &[Scalar]) -> Result<LogicalPlan> {
        let bound = match self {
            LogicalPlan::Filter { predicate, input } => LogicalPlan::Filter {
                predicate: predicate.bind_params(params)?,
                input: input.clone(),
            },
            LogicalPlan::Project { exprs, input } => LogicalPlan::Project {
                exprs: exprs
                    .iter()
                    .map(|(e, n)| Ok((e.bind_params(params)?, n.clone())))
                    .collect::<Result<Vec<_>>>()?,
                input: input.clone(),
            },
            LogicalPlan::SemanticFilter {
                input,
                column,
                target,
                model,
                threshold,
            } => LogicalPlan::SemanticFilter {
                input: input.clone(),
                column: column.clone(),
                target: SemanticTarget::Text(target.resolve(params)?),
                model: model.clone(),
                threshold: *threshold,
            },
            LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
                input: input.clone(),
                n: LimitCount::Fixed(n.resolve(params)?),
            },
            other => other.clone(),
        };
        let children = bound
            .children()
            .into_iter()
            .map(|c| c.bind_params(params))
            .collect::<Result<Vec<_>>>()?;
        bound.with_children(children)
    }
}

/// Hashes an expression structurally — NOT via `Display`, which erases
/// literal types (`Int64(2)` and `Float64(2.0)` both print `2`, yet divide
/// differently) and leaves strings unescaped. Every variant and literal
/// type gets its own tag, and strings are length-prefixed, so two
/// expressions hash equal only if they are structurally identical.
///
/// In `shape` mode, literal *values* are erased (their type tags remain,
/// since literal types change plan semantics) — the placeholder-slot view
/// backing [`LogicalPlan::shape_fingerprint`].
fn hash_expr(h: &mut Fnv1a, expr: &cx_expr::Expr, shape: bool) {
    use cx_expr::{BinOp, Expr};
    match expr {
        Expr::Column(name) => {
            h.tag(1);
            h.str(name);
        }
        Expr::Literal(scalar) => {
            h.tag(2);
            match scalar {
                cx_storage::Scalar::Null => h.tag(1),
                cx_storage::Scalar::Bool(b) => {
                    h.tag(2);
                    if !shape {
                        h.u64(*b as u64);
                    }
                }
                cx_storage::Scalar::Int64(v) => {
                    h.tag(3);
                    if !shape {
                        h.u64(*v as u64);
                    }
                }
                cx_storage::Scalar::Float64(v) => {
                    h.tag(4);
                    if !shape {
                        h.u64(v.to_bits());
                    }
                }
                cx_storage::Scalar::Utf8(s) => {
                    h.tag(5);
                    if !shape {
                        h.str(s);
                    }
                }
                cx_storage::Scalar::Timestamp(v) => {
                    h.tag(6);
                    if !shape {
                        h.u64(*v as u64);
                    }
                }
            }
        }
        Expr::Parameter(slot) => {
            h.tag(6);
            h.u64(*slot as u64);
        }
        Expr::Binary { op, left, right } => {
            h.tag(3);
            h.u64(match op {
                BinOp::Eq => 1,
                BinOp::NotEq => 2,
                BinOp::Lt => 3,
                BinOp::LtEq => 4,
                BinOp::Gt => 5,
                BinOp::GtEq => 6,
                BinOp::And => 7,
                BinOp::Or => 8,
                BinOp::Add => 9,
                BinOp::Sub => 10,
                BinOp::Mul => 11,
                BinOp::Div => 12,
            });
            hash_expr(h, left, shape);
            hash_expr(h, right, shape);
        }
        Expr::Not(inner) => {
            h.tag(4);
            hash_expr(h, inner, shape);
        }
        Expr::IsNull(inner) => {
            h.tag(5);
            hash_expr(h, inner, shape);
        }
    }
}

/// Hashes aggregate specs into a fingerprint.
fn hash_aggs(h: &mut Fnv1a, aggs: &[AggSpec]) {
    h.u64(aggs.len() as u64);
    for a in aggs {
        h.str(&a.func.to_string());
        h.str(a.column.as_deref().unwrap_or(""));
        h.str(&a.alias);
    }
}

/// Minimal FNV-1a 64-bit hasher: process- and platform-stable, unlike
/// `std::collections::hash_map::DefaultHasher` (randomly seeded).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Length-prefixed string hash (so `("ab","c")` ≠ `("a","bc")`).
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Node-kind discriminant.
    fn tag(&mut self, t: u64) {
        self.u64(t);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display_indent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_expr::{col, lit};

    fn scan(name: &str, fields: Vec<Field>) -> LogicalPlan {
        LogicalPlan::Scan {
            source: name.to_string(),
            schema: Arc::new(Schema::new(fields)),
        }
    }

    fn products() -> LogicalPlan {
        scan(
            "products",
            vec![
                Field::new("id", DataType::Int64),
                Field::new("name", DataType::Utf8),
                Field::new("price", DataType::Float64),
            ],
        )
    }

    fn labels() -> LogicalPlan {
        scan(
            "labels",
            vec![
                Field::new("label", DataType::Utf8),
                Field::new("category", DataType::Utf8),
            ],
        )
    }

    #[test]
    fn filter_preserves_schema() {
        let plan = LogicalPlan::Filter {
            predicate: col("price").gt(lit(20.0)),
            input: Box::new(products()),
        };
        assert_eq!(plan.schema().unwrap().names(), vec!["id", "name", "price"]);
    }

    #[test]
    fn project_infers_types() {
        let plan = LogicalPlan::Project {
            exprs: vec![
                (col("price").mul(lit(2.0)), "double_price".to_string()),
                (col("name"), "name".to_string()),
            ],
            input: Box::new(products()),
        };
        let schema = plan.schema().unwrap();
        assert_eq!(
            schema.field("double_price").unwrap().data_type,
            DataType::Float64
        );
        assert_eq!(schema.field("name").unwrap().data_type, DataType::Utf8);
    }

    #[test]
    fn join_schema_variants() {
        let join = |jt| LogicalPlan::Join {
            left: Box::new(products()),
            right: Box::new(labels()),
            on: vec![("name".into(), "label".into())],
            join_type: jt,
        };
        assert_eq!(join(JoinType::Inner).schema().unwrap().len(), 5);
        assert_eq!(join(JoinType::Left).schema().unwrap().len(), 5);
        assert_eq!(join(JoinType::LeftSemi).schema().unwrap().len(), 3);
        assert_eq!(
            join(JoinType::LeftAnti).schema().unwrap().names(),
            vec!["id", "name", "price"]
        );
    }

    #[test]
    fn semantic_join_appends_score() {
        let plan = LogicalPlan::SemanticJoin {
            left: Box::new(products()),
            right: Box::new(labels()),
            spec: SemanticJoinSpec {
                left_column: "name".into(),
                right_column: "label".into(),
                model: "m".into(),
                threshold: 0.9,
                score_column: "sim".into(),
            },
        };
        let schema = plan.schema().unwrap();
        assert_eq!(schema.len(), 6);
        assert_eq!(schema.field("sim").unwrap().data_type, DataType::Float64);
    }

    #[test]
    fn aggregate_schema() {
        let plan = LogicalPlan::Aggregate {
            input: Box::new(products()),
            group_by: vec!["name".into()],
            aggs: vec![
                AggSpec::count_star("n"),
                AggSpec::new(AggFunc::Sum, "price", "total"),
                AggSpec::new(AggFunc::Avg, "price", "avg_price"),
                AggSpec::new(AggFunc::Max, "id", "max_id"),
            ],
        };
        let schema = plan.schema().unwrap();
        assert_eq!(
            schema.names(),
            vec!["name", "n", "total", "avg_price", "max_id"]
        );
        assert_eq!(schema.field("n").unwrap().data_type, DataType::Int64);
        assert_eq!(schema.field("total").unwrap().data_type, DataType::Float64);
        assert_eq!(schema.field("max_id").unwrap().data_type, DataType::Int64);
    }

    #[test]
    fn semantic_group_by_schema() {
        let plan = LogicalPlan::SemanticGroupBy {
            input: Box::new(products()),
            column: "name".into(),
            model: "m".into(),
            threshold: 0.85,
            aggs: vec![AggSpec::count_star("members")],
        };
        assert_eq!(
            plan.schema().unwrap().names(),
            vec!["name", "cluster_id", "members"]
        );
    }

    #[test]
    fn with_children_roundtrip() {
        let plan = LogicalPlan::Filter {
            predicate: col("price").gt(lit(1.0)),
            input: Box::new(products()),
        };
        let rebuilt = plan.with_children(vec![products()]).unwrap();
        assert_eq!(rebuilt, plan);
        assert!(plan.with_children(vec![]).is_err());
    }

    #[test]
    fn display_tree() {
        let plan = LogicalPlan::Limit {
            n: LimitCount::Fixed(10),
            input: Box::new(LogicalPlan::Filter {
                predicate: col("price").gt(lit(20.0)),
                input: Box::new(products()),
            }),
        };
        let s = plan.display_indent();
        assert!(s.contains("Limit: 10"));
        assert!(s.contains("  Filter: (price > 20)"));
        assert!(s.contains("    Scan: products"));
        assert_eq!(plan.node_count(), 3);
    }

    #[test]
    fn agg_spec_validation() {
        let bad = AggSpec {
            func: AggFunc::Sum,
            column: None,
            alias: "x".into(),
        };
        assert!(bad.output_field(&products().schema().unwrap()).is_err());
        let missing = AggSpec::new(AggFunc::Sum, "nope", "x");
        assert!(missing.output_field(&products().schema().unwrap()).is_err());
    }

    #[test]
    fn fingerprint_stable_and_structural() {
        let build = |threshold: f32, limit: usize| LogicalPlan::Limit {
            n: LimitCount::Fixed(limit),
            input: Box::new(LogicalPlan::SemanticFilter {
                input: Box::new(products()),
                column: "name".into(),
                target: "clothes".into(),
                model: "m".into(),
                threshold,
            }),
        };
        // Identical plans fingerprint equal (and deterministically).
        assert_eq!(build(0.9, 5).fingerprint(), build(0.9, 5).fingerprint());
        // Any parameter change is a different fingerprint.
        assert_ne!(build(0.9, 5).fingerprint(), build(0.8, 5).fingerprint());
        assert_ne!(build(0.9, 5).fingerprint(), build(0.9, 6).fingerprint());
        // Different source tables differ too.
        assert_ne!(products().fingerprint(), labels().fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_literal_types() {
        // `price / 2` (Int64, truncating) vs `price / 2.0` (Float64, real
        // division) both *display* as "(price / 2)" — the fingerprint must
        // not conflate them, or a plan cache would serve wrong results.
        let by = |e: Expr| LogicalPlan::Project {
            exprs: vec![(e, "half".to_string())],
            input: Box::new(products()),
        };
        assert_ne!(
            by(col("price").div(lit(2i64))).fingerprint(),
            by(col("price").div(lit(2.0))).fingerprint()
        );
        // Unescaped-string ambiguity: a literal containing quote syntax
        // must not collide with the literal it prints like.
        let f = |s: &str| LogicalPlan::Filter {
            predicate: col("name").eq(lit(s)),
            input: Box::new(products()),
        };
        assert_ne!(f("a' OR '1").fingerprint(), f("a").fingerprint());
    }

    #[test]
    fn fingerprint_sees_tree_shape() {
        let filter = col("price").gt(lit(20.0));
        let filter_then_limit = LogicalPlan::Limit {
            n: LimitCount::Fixed(3),
            input: Box::new(LogicalPlan::Filter {
                predicate: filter.clone(),
                input: Box::new(products()),
            }),
        };
        let limit_then_filter = LogicalPlan::Filter {
            predicate: filter,
            input: Box::new(LogicalPlan::Limit {
                n: LimitCount::Fixed(3),
                input: Box::new(products()),
            }),
        };
        assert_ne!(
            filter_then_limit.fingerprint(),
            limit_then_filter.fingerprint()
        );
        // Join operand order matters.
        let ab = LogicalPlan::CrossJoin {
            left: Box::new(products()),
            right: Box::new(labels()),
        };
        let ba = LogicalPlan::CrossJoin {
            left: Box::new(labels()),
            right: Box::new(products()),
        };
        assert_ne!(ab.fingerprint(), ba.fingerprint());
    }

    #[test]
    fn lift_literals_roundtrips_and_unifies_shapes() {
        let build = |probe: &str, price: f64, limit: usize| LogicalPlan::Limit {
            n: LimitCount::Fixed(limit),
            input: Box::new(LogicalPlan::SemanticFilter {
                input: Box::new(LogicalPlan::Filter {
                    predicate: col("price").gt(lit(price)),
                    input: Box::new(products()),
                }),
                column: "name".into(),
                target: probe.into(),
                model: "m".into(),
                threshold: 0.8,
            }),
        };
        let plan = build("clothes", 20.0, 5);
        let (template, values) = plan.lift_literals();
        // Pre-order slot assignment: the limit (root) lifts before the
        // probe, which lifts before the filter literal.
        assert_eq!(
            values,
            vec![
                Scalar::Int64(5),
                Scalar::Utf8("clothes".into()),
                Scalar::Float64(20.0)
            ]
        );
        assert_eq!(template.required_params().unwrap(), 3);
        // Lift ∘ bind is the identity.
        assert_eq!(template.bind_params(&values).unwrap(), plan);
        // A different literal family lifts to the *same* template — one
        // prepared shape serves them all.
        let (other, other_values) = build("cat", 99.0, 1).lift_literals();
        assert_eq!(other.fingerprint(), template.fingerprint());
        assert_ne!(other_values, values);
        // Every lifted literal erased: exact == shape fingerprint.
        assert_eq!(template.fingerprint(), template.shape_fingerprint());
        // Structural values stay in the template: a different threshold
        // is a different shape.
        let flip = LogicalPlan::SemanticFilter {
            input: Box::new(products()),
            column: "name".into(),
            target: "x".into(),
            model: "m".into(),
            threshold: 0.9,
        };
        let flip2 = LogicalPlan::SemanticFilter {
            input: Box::new(products()),
            column: "name".into(),
            target: "x".into(),
            model: "m".into(),
            threshold: 0.5,
        };
        assert_ne!(
            flip.lift_literals().0.fingerprint(),
            flip2.lift_literals().0.fingerprint()
        );
        // Int64 and Float64 literals lift to one template (type
        // re-inference at bind time is the prepared layer's job).
        let by = |e: Expr| LogicalPlan::Filter {
            predicate: e,
            input: Box::new(products()),
        };
        assert_eq!(
            by(col("price").gt(lit(2i64)))
                .lift_literals()
                .0
                .fingerprint(),
            by(col("price").gt(lit(2.0)))
                .lift_literals()
                .0
                .fingerprint()
        );
    }

    #[test]
    fn union_schema() {
        let u = LogicalPlan::Union {
            inputs: vec![products(), products()],
        };
        assert_eq!(u.schema().unwrap().len(), 3);
        let empty = LogicalPlan::Union { inputs: vec![] };
        assert!(empty.schema().is_err());
    }
}
