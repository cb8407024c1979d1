//! Rewrite rules over the logical plan.
//!
//! Every rule is local (rewrites one node pattern); the driver applies them
//! top-down to fixpoint. Correctness notes live on each rule.

use crate::context::OptimizerContext;
use cx_exec::logical::{JoinType, LogicalPlan, SortKey};
use cx_expr::{estimate_selectivity, fold_constants, Expr};
use cx_storage::{DataType, Scalar};
use std::collections::HashMap;

/// A local rewrite rule.
pub trait Rule: Send + Sync {
    /// Rule name for the optimizer trace.
    fn name(&self) -> &'static str;

    /// Attempts to rewrite `plan` (this node only); `None` = no change.
    fn apply(&self, plan: &LogicalPlan, ctx: &OptimizerContext) -> Option<LogicalPlan>;
}

/// The phase-1 rule set in application order.
pub fn standard_rules(config: &crate::context::OptimizerConfig) -> Vec<Box<dyn Rule>> {
    let mut rules: Vec<Box<dyn Rule>> = Vec::new();
    if config.constant_folding {
        rules.push(Box::new(ConstantFoldRule));
    }
    if config.filter_pushdown {
        rules.push(Box::new(MergeFiltersRule));
        rules.push(Box::new(PushFilterThroughProjectRule));
        rules.push(Box::new(PushFilterIntoJoinRule));
        rules.push(Box::new(PushFilterIntoSemanticJoinRule));
        rules.push(Box::new(PushFilterBelowSemanticFilterRule));
        rules.push(Box::new(PushFilterBelowSortDistinctRule));
        rules.push(Box::new(PushFilterIntoUnionRule));
    }
    if config.projection_pruning {
        rules.push(Box::new(ProjectAboveLimitRule));
    }
    if config.equijoin_extraction {
        rules.push(Box::new(ExtractEquiJoinRule));
    }
    if config.data_induced_predicates {
        rules.push(Box::new(TransitivePredicateRule));
    }
    if config.semantic_dip {
        rules.push(Box::new(SemanticDipRule));
    }
    rules
}

// ---------------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------------

/// Folds literal sub-expressions in filters and projections; removes
/// always-true filters.
pub struct ConstantFoldRule;

impl Rule for ConstantFoldRule {
    fn name(&self) -> &'static str {
        "constant_fold"
    }

    fn apply(&self, plan: &LogicalPlan, _ctx: &OptimizerContext) -> Option<LogicalPlan> {
        match plan {
            LogicalPlan::Filter { predicate, input } => {
                let folded = fold_constants(predicate);
                if folded == *predicate {
                    return None;
                }
                if folded == Expr::Literal(Scalar::Bool(true)) {
                    return Some((**input).clone());
                }
                Some(LogicalPlan::Filter {
                    predicate: folded,
                    input: input.clone(),
                })
            }
            LogicalPlan::Project { exprs, input } => {
                let folded: Vec<(Expr, String)> = exprs
                    .iter()
                    .map(|(e, n)| (fold_constants(e), n.clone()))
                    .collect();
                if folded == *exprs {
                    return None;
                }
                Some(LogicalPlan::Project {
                    exprs: folded,
                    input: input.clone(),
                })
            }
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Filter pushdown family
// ---------------------------------------------------------------------------

/// `Filter(Filter(x))` → one filter with the conjunction.
pub struct MergeFiltersRule;

impl Rule for MergeFiltersRule {
    fn name(&self) -> &'static str {
        "merge_filters"
    }

    fn apply(&self, plan: &LogicalPlan, _ctx: &OptimizerContext) -> Option<LogicalPlan> {
        if let LogicalPlan::Filter { predicate, input } = plan {
            if let LogicalPlan::Filter {
                predicate: inner,
                input: grand,
            } = input.as_ref()
            {
                return Some(LogicalPlan::Filter {
                    predicate: inner.clone().and(predicate.clone()),
                    input: grand.clone(),
                });
            }
        }
        None
    }
}

/// `Filter(Project)` → `Project(Filter)` when every referenced column is a
/// plain column passthrough in the projection (rename-aware).
pub struct PushFilterThroughProjectRule;

impl Rule for PushFilterThroughProjectRule {
    fn name(&self) -> &'static str {
        "push_filter_through_project"
    }

    fn apply(&self, plan: &LogicalPlan, _ctx: &OptimizerContext) -> Option<LogicalPlan> {
        let LogicalPlan::Filter { predicate, input } = plan else {
            return None;
        };
        let LogicalPlan::Project {
            exprs,
            input: grand,
        } = input.as_ref()
        else {
            return None;
        };
        // Output name → underlying column name for passthrough expressions.
        let mut rename: HashMap<String, String> = HashMap::new();
        for (e, name) in exprs {
            if let Expr::Column(src) = e {
                rename.insert(name.clone(), src.clone());
            }
        }
        if !predicate
            .referenced_columns()
            .iter()
            .all(|c| rename.contains_key(c))
        {
            return None;
        }
        let pushed = predicate.rename_columns(&rename);
        Some(LogicalPlan::Project {
            exprs: exprs.clone(),
            input: Box::new(LogicalPlan::Filter {
                predicate: pushed,
                input: grand.clone(),
            }),
        })
    }
}

/// Classifies a column of a join's output schema to a side, handling the
/// `right.` disambiguation prefix. Returns `(side, name_on_side)` where
/// side 0 = left, 1 = right.
fn classify_column(
    name: &str,
    left_schema: &cx_storage::Schema,
    right_schema: &cx_storage::Schema,
) -> Option<(usize, String)> {
    if left_schema.contains(name) {
        return Some((0, name.to_string()));
    }
    if let Some(stripped) = name.strip_prefix("right.") {
        if right_schema.contains(stripped) {
            return Some((1, stripped.to_string()));
        }
    }
    if right_schema.contains(name) {
        return Some((1, name.to_string()));
    }
    None
}

/// Splits conjunction factors of `predicate` into (left-only, right-only,
/// remainder) relative to the join children, renaming pushed factors into
/// side-local column names.
fn split_by_side(
    predicate: &Expr,
    left: &LogicalPlan,
    right: &LogicalPlan,
) -> Option<(Vec<Expr>, Vec<Expr>, Vec<Expr>)> {
    let (ls, rs) = (left.schema().ok()?, right.schema().ok()?);
    let mut to_left = Vec::new();
    let mut to_right = Vec::new();
    let mut keep = Vec::new();
    for factor in predicate.split_conjunction() {
        let cols = factor.referenced_columns();
        let classified: Option<Vec<(usize, String, String)>> = cols
            .iter()
            .map(|c| classify_column(c, &ls, &rs).map(|(side, n)| (side, c.clone(), n)))
            .collect();
        match classified {
            Some(list) if !list.is_empty() && list.iter().all(|(s, _, _)| *s == 0) => {
                let rename: HashMap<String, String> =
                    list.into_iter().map(|(_, from, to)| (from, to)).collect();
                to_left.push(factor.rename_columns(&rename));
            }
            Some(list) if !list.is_empty() && list.iter().all(|(s, _, _)| *s == 1) => {
                let rename: HashMap<String, String> =
                    list.into_iter().map(|(_, from, to)| (from, to)).collect();
                to_right.push(factor.rename_columns(&rename));
            }
            _ => keep.push(factor),
        }
    }
    Some((to_left, to_right, keep))
}

fn wrap_filter(plan: LogicalPlan, factors: Vec<Expr>) -> LogicalPlan {
    match Expr::conjunction(factors) {
        Some(p) => LogicalPlan::Filter {
            predicate: p,
            input: Box::new(plan),
        },
        None => plan,
    }
}

/// Pushes filter factors into equi-join and cross-join sides.
///
/// Correctness: single-side factors commute with inner joins. For LEFT
/// joins only left-side factors move (right-side factors on the padded
/// output are not equivalent to pre-filtering the right input). Semi/anti
/// join outputs are left-only, so everything pushes left.
pub struct PushFilterIntoJoinRule;

impl Rule for PushFilterIntoJoinRule {
    fn name(&self) -> &'static str {
        "push_filter_into_join"
    }

    fn apply(&self, plan: &LogicalPlan, _ctx: &OptimizerContext) -> Option<LogicalPlan> {
        let LogicalPlan::Filter { predicate, input } = plan else {
            return None;
        };
        match input.as_ref() {
            LogicalPlan::Join {
                left,
                right,
                on,
                join_type,
            } => {
                let (to_left, mut to_right, mut keep) = split_by_side(predicate, left, right)?;
                if *join_type != JoinType::Inner {
                    // Right-side pushdown is only valid for inner joins.
                    keep.extend(
                        to_right
                            .drain(..)
                            .map(|f| restore_right_names(f, left, right)),
                    );
                }
                if to_left.is_empty() && to_right.is_empty() {
                    return None;
                }
                let new_join = LogicalPlan::Join {
                    left: Box::new(wrap_filter((**left).clone(), to_left)),
                    right: Box::new(wrap_filter((**right).clone(), to_right)),
                    on: on.clone(),
                    join_type: *join_type,
                };
                Some(wrap_filter(new_join, keep))
            }
            LogicalPlan::CrossJoin { left, right } => {
                let (to_left, to_right, keep) = split_by_side(predicate, left, right)?;
                if to_left.is_empty() && to_right.is_empty() {
                    return None;
                }
                let new_join = LogicalPlan::CrossJoin {
                    left: Box::new(wrap_filter((**left).clone(), to_left)),
                    right: Box::new(wrap_filter((**right).clone(), to_right)),
                };
                Some(wrap_filter(new_join, keep))
            }
            _ => None,
        }
    }
}

/// Re-applies the join-output naming to a side-local factor (inverse of the
/// rename done by `split_by_side`), for factors that end up kept above.
fn restore_right_names(factor: Expr, left: &LogicalPlan, right: &LogicalPlan) -> Expr {
    let (Ok(ls), Ok(rs)) = (left.schema(), right.schema()) else {
        return factor;
    };
    let mut rename = HashMap::new();
    for f in rs.fields() {
        if ls.contains(&f.name) {
            rename.insert(f.name.clone(), format!("right.{}", f.name));
        }
    }
    factor.rename_columns(&rename)
}

/// Pushes filter factors into semantic-join sides (inner semantics; the
/// appended score column never moves).
pub struct PushFilterIntoSemanticJoinRule;

impl Rule for PushFilterIntoSemanticJoinRule {
    fn name(&self) -> &'static str {
        "push_filter_into_semantic_join"
    }

    fn apply(&self, plan: &LogicalPlan, _ctx: &OptimizerContext) -> Option<LogicalPlan> {
        let LogicalPlan::Filter { predicate, input } = plan else {
            return None;
        };
        let LogicalPlan::SemanticJoin { left, right, spec } = input.as_ref() else {
            return None;
        };
        // Factors referencing the score column must stay above.
        let (to_left, to_right, keep) = split_by_side(predicate, left, right)?;
        if to_left.is_empty() && to_right.is_empty() {
            return None;
        }
        let new_join = LogicalPlan::SemanticJoin {
            left: Box::new(wrap_filter((**left).clone(), to_left)),
            right: Box::new(wrap_filter((**right).clone(), to_right)),
            spec: spec.clone(),
        };
        Some(wrap_filter(new_join, keep))
    }
}

/// `Filter(SemanticFilter(x))` → `SemanticFilter(Filter(x))`: both are
/// filters (commute); the relational one is orders of magnitude cheaper per
/// row, so it runs first — the paper's "filter pushdown before model
/// inference" in its simplest form.
pub struct PushFilterBelowSemanticFilterRule;

impl Rule for PushFilterBelowSemanticFilterRule {
    fn name(&self) -> &'static str {
        "push_filter_below_semantic_filter"
    }

    fn apply(&self, plan: &LogicalPlan, _ctx: &OptimizerContext) -> Option<LogicalPlan> {
        let LogicalPlan::Filter { predicate, input } = plan else {
            return None;
        };
        let LogicalPlan::SemanticFilter {
            input: grand,
            column,
            target,
            model,
            threshold,
        } = input.as_ref()
        else {
            return None;
        };
        Some(LogicalPlan::SemanticFilter {
            input: Box::new(LogicalPlan::Filter {
                predicate: predicate.clone(),
                input: grand.clone(),
            }),
            column: column.clone(),
            target: target.clone(),
            model: model.clone(),
            threshold: *threshold,
        })
    }
}

/// `Filter(Sort|Distinct)` → `Sort|Distinct(Filter)`.
pub struct PushFilterBelowSortDistinctRule;

impl Rule for PushFilterBelowSortDistinctRule {
    fn name(&self) -> &'static str {
        "push_filter_below_sort_distinct"
    }

    fn apply(&self, plan: &LogicalPlan, _ctx: &OptimizerContext) -> Option<LogicalPlan> {
        let LogicalPlan::Filter { predicate, input } = plan else {
            return None;
        };
        match input.as_ref() {
            LogicalPlan::Sort { input: grand, keys } => Some(LogicalPlan::Sort {
                input: Box::new(LogicalPlan::Filter {
                    predicate: predicate.clone(),
                    input: grand.clone(),
                }),
                keys: keys.clone(),
            }),
            LogicalPlan::Distinct { input: grand } => Some(LogicalPlan::Distinct {
                input: Box::new(LogicalPlan::Filter {
                    predicate: predicate.clone(),
                    input: grand.clone(),
                }),
            }),
            _ => None,
        }
    }
}

/// `Filter(Union)` → `Union(Filter(each))`.
pub struct PushFilterIntoUnionRule;

impl Rule for PushFilterIntoUnionRule {
    fn name(&self) -> &'static str {
        "push_filter_into_union"
    }

    fn apply(&self, plan: &LogicalPlan, _ctx: &OptimizerContext) -> Option<LogicalPlan> {
        let LogicalPlan::Filter { predicate, input } = plan else {
            return None;
        };
        let LogicalPlan::Union { inputs } = input.as_ref() else {
            return None;
        };
        Some(LogicalPlan::Union {
            inputs: inputs
                .iter()
                .map(|i| LogicalPlan::Filter {
                    predicate: predicate.clone(),
                    input: Box::new(i.clone()),
                })
                .collect(),
        })
    }
}

/// `Limit(Sort(Project))` → `Project(Limit(Sort))`, the sort keys renamed
/// to the projected columns: the projection copies `n` rows, and a sort
/// over a semantic join lowers into the join's own bound. Fires only when
/// every projected expression is a plain column (no expression error can
/// be skipped), and not over a scan: that narrowing projection is pruning's.
pub struct ProjectAboveLimitRule;

impl Rule for ProjectAboveLimitRule {
    fn name(&self) -> &'static str {
        "project_above_limit"
    }

    fn apply(&self, plan: &LogicalPlan, _ctx: &OptimizerContext) -> Option<LogicalPlan> {
        let LogicalPlan::Limit { input, n } = plan else {
            return None;
        };
        let LogicalPlan::Sort { input, keys } = input.as_ref() else {
            return None;
        };
        let LogicalPlan::Project { exprs, input } = input.as_ref() else {
            return None;
        };
        if matches!(input.as_ref(), LogicalPlan::Scan { .. }) {
            return None;
        }
        let source: HashMap<&str, &str> = exprs
            .iter()
            .map(|(e, name)| match e {
                Expr::Column(c) => Some((name.as_str(), c.as_str())),
                _ => None,
            })
            .collect::<Option<_>>()?;
        let keys = keys
            .iter()
            .map(|k| {
                let column = source.get(k.column.as_str())?.to_string();
                Some(SortKey {
                    column,
                    ascending: k.ascending,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let sort = LogicalPlan::Sort {
            input: input.clone(),
            keys,
        };
        let limit = LogicalPlan::Limit {
            input: Box::new(sort),
            n: *n,
        };
        Some(LogicalPlan::Project {
            exprs: exprs.clone(),
            input: Box::new(limit),
        })
    }
}

// ---------------------------------------------------------------------------
// Equi-join extraction
// ---------------------------------------------------------------------------

/// `Filter(CrossJoin)` with `l = r` factors across sides → equi `Join`,
/// for factors whose structural key equality is SQL `=`: both columns of
/// one type among Bool, Int64 and Utf8 (`1 = 1.0`, `-0.0 = 0.0`, NaN and
/// Timestamps, which `=` compares as f64, stay in the filter).
pub struct ExtractEquiJoinRule;

impl Rule for ExtractEquiJoinRule {
    fn name(&self) -> &'static str {
        "extract_equi_join"
    }

    fn apply(&self, plan: &LogicalPlan, _ctx: &OptimizerContext) -> Option<LogicalPlan> {
        let LogicalPlan::Filter { predicate, input } = plan else {
            return None;
        };
        let LogicalPlan::CrossJoin { left, right } = input.as_ref() else {
            return None;
        };
        let (ls, rs) = (left.schema().ok()?, right.schema().ok()?);
        let mut on: Vec<(String, String)> = Vec::new();
        let mut rest: Vec<Expr> = Vec::new();
        for factor in predicate.split_conjunction() {
            if let Expr::Binary {
                op: cx_expr::BinOp::Eq,
                left: a,
                right: b,
            } = &factor
            {
                if let (Expr::Column(ca), Expr::Column(cb)) = (a.as_ref(), b.as_ref()) {
                    let key = match (classify_column(ca, &ls, &rs), classify_column(cb, &ls, &rs)) {
                        (Some((0, l)), Some((1, r))) | (Some((1, r)), Some((0, l))) => Some((l, r)),
                        _ => None,
                    };
                    let exact = [DataType::Bool, DataType::Int64, DataType::Utf8];
                    let structural = |(l, r): &(String, String)| match (ls.field(l), rs.field(r)) {
                        (Ok(a), Ok(b)) => {
                            a.data_type == b.data_type && exact.contains(&a.data_type)
                        }
                        _ => false,
                    };
                    if let Some(key) = key.filter(structural) {
                        on.push(key);
                        continue;
                    }
                }
            }
            rest.push(factor);
        }
        if on.is_empty() {
            return None;
        }
        let join = LogicalPlan::Join {
            left: left.clone(),
            right: right.clone(),
            on,
            join_type: JoinType::Inner,
        };
        Some(wrap_filter(join, rest))
    }
}

// ---------------------------------------------------------------------------
// Data-induced predicates
// ---------------------------------------------------------------------------

/// Conjunction factors referencing exactly `{column}` found in the filter
/// chain directly above the sources of `plan` (single-input walk).
fn predicates_on_column(plan: &LogicalPlan, column: &str) -> Vec<Expr> {
    let mut out = Vec::new();
    let mut cur = plan;
    loop {
        match cur {
            LogicalPlan::Filter { predicate, input } => {
                for f in predicate.split_conjunction() {
                    let refs = f.referenced_columns();
                    if refs.len() == 1 && refs.contains(column) {
                        out.push(f);
                    }
                }
                cur = input;
            }
            LogicalPlan::SemanticFilter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Distinct { input } => cur = input,
            _ => break,
        }
    }
    out
}

/// Whether `factor` already holds somewhere in the filter chain of `plan`.
fn side_has_factor(plan: &LogicalPlan, factor: &Expr) -> bool {
    let mut cur = plan;
    loop {
        match cur {
            LogicalPlan::Filter { predicate, input } => {
                if predicate.split_conjunction().iter().any(|f| f == factor) {
                    return true;
                }
                cur = input;
            }
            LogicalPlan::SemanticFilter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Distinct { input } => cur = input,
            _ => return false,
        }
    }
}

/// Transitive predicates across equi-joins (the classical data-induced
/// predicate \[23\]): `σ(p(k_l))(L) ⋈_{k_l=k_r} R  ⟹  p(k_r)` holds on the
/// matched R rows, so it can be pre-applied to R.
pub struct TransitivePredicateRule;

impl Rule for TransitivePredicateRule {
    fn name(&self) -> &'static str {
        "data_induced_predicates"
    }

    fn apply(&self, plan: &LogicalPlan, _ctx: &OptimizerContext) -> Option<LogicalPlan> {
        let LogicalPlan::Join {
            left,
            right,
            on,
            join_type,
        } = plan
        else {
            return None;
        };
        if *join_type == JoinType::Left {
            // Pre-filtering the right side of a LEFT join is fine (it only
            // changes matches to NULL-pads — wait, it changes matched rows
            // to unmatched, which IS the same output as post-filtering
            // would not be; transferring left-derived predicates to the
            // right side preserves exactly the matching pairs, so it is
            // safe for all join types that only emit matched right rows).
        }
        let mut new_left = (**left).clone();
        let mut new_right = (**right).clone();
        let mut changed = false;
        for (lk, rk) in on {
            // Left → right.
            for f in predicates_on_column(left, lk) {
                let mut rename = HashMap::new();
                rename.insert(lk.clone(), rk.clone());
                let induced = f.rename_columns(&rename);
                if !side_has_factor(&new_right, &induced) {
                    new_right = LogicalPlan::Filter {
                        predicate: induced,
                        input: Box::new(new_right),
                    };
                    changed = true;
                }
            }
            // Right → left (valid for Inner/Semi/Anti? For anti join,
            // narrowing the left side changes results — only matched-pair
            // semantics allow transfer. Restrict to Inner and LeftSemi.)
            if matches!(join_type, JoinType::Inner | JoinType::LeftSemi) {
                for f in predicates_on_column(right, rk) {
                    let mut rename = HashMap::new();
                    rename.insert(rk.clone(), lk.clone());
                    let induced = f.rename_columns(&rename);
                    if !side_has_factor(&new_left, &induced) {
                        new_left = LogicalPlan::Filter {
                            predicate: induced,
                            input: Box::new(new_left),
                        };
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return None;
        }
        Some(LogicalPlan::Join {
            left: Box::new(new_left),
            right: Box::new(new_right),
            on: on.clone(),
            join_type: *join_type,
        })
    }
}

/// Semantic data-induced predicates: a semantic filter on one key of a
/// semantic join induces a *relaxed* semantic filter on the other key.
///
/// On the unit sphere, `angle(r, t) ≤ angle(r, l) + angle(l, t)`. If the
/// join guarantees `cos(r, l) ≥ θ_j` and the left filter guarantees
/// `cos(l, t) ≥ θ_f`, every matching right key satisfies
/// `cos(r, t) ≥ cos(acos θ_j + acos θ_f)` — a sound pre-filter.
pub struct SemanticDipRule;

/// The induced threshold (0 when the angles exceed a quarter turn —
/// useless but still sound; we skip below a floor).
pub fn induced_threshold(theta_join: f32, theta_filter: f32) -> f32 {
    let a =
        (theta_join.clamp(-1.0, 1.0) as f64).acos() + (theta_filter.clamp(-1.0, 1.0) as f64).acos();
    if a >= std::f64::consts::FRAC_PI_2 {
        0.0
    } else {
        a.cos() as f32
    }
}

/// Minimum induced threshold worth materializing as a filter.
const SEMANTIC_DIP_FLOOR: f32 = 0.3;

impl Rule for SemanticDipRule {
    fn name(&self) -> &'static str {
        "semantic_data_induced_predicates"
    }

    fn apply(&self, plan: &LogicalPlan, _ctx: &OptimizerContext) -> Option<LogicalPlan> {
        let LogicalPlan::SemanticJoin { left, right, spec } = plan else {
            return None;
        };
        // Find a semantic filter on the left join key in the chain above
        // the left source (same model only).
        let mut cur: &LogicalPlan = left;
        let found = loop {
            match cur {
                LogicalPlan::SemanticFilter {
                    input,
                    column,
                    target,
                    model,
                    threshold,
                } if *column == spec.left_column && *model == spec.model => {
                    break Some((target.clone(), *threshold));
                }
                LogicalPlan::Filter { input, .. }
                | LogicalPlan::SemanticFilter { input, .. }
                | LogicalPlan::Sort { input, .. }
                | LogicalPlan::Distinct { input } => cur = input,
                _ => break None,
            }
        };
        let (target, theta_f) = found?;
        let theta = induced_threshold(spec.threshold, theta_f);
        if theta < SEMANTIC_DIP_FLOOR {
            return None;
        }
        // Skip if an equal-or-stronger induced filter already exists.
        let mut cur: &LogicalPlan = right;
        loop {
            match cur {
                LogicalPlan::SemanticFilter {
                    input,
                    column,
                    target: t,
                    model,
                    threshold,
                } => {
                    if *column == spec.right_column
                        && *t == target
                        && *model == spec.model
                        && *threshold >= theta - 1e-6
                    {
                        return None;
                    }
                    cur = input;
                }
                LogicalPlan::Filter { input, .. }
                | LogicalPlan::Sort { input, .. }
                | LogicalPlan::Distinct { input } => cur = input,
                _ => break,
            }
        }
        Some(LogicalPlan::SemanticJoin {
            left: left.clone(),
            right: Box::new(LogicalPlan::SemanticFilter {
                input: right.clone(),
                column: spec.right_column.clone(),
                target,
                model: spec.model.clone(),
                threshold: theta,
            }),
            spec: spec.clone(),
        })
    }
}

// ---------------------------------------------------------------------------
// Predicate cascade (phase 3)
// ---------------------------------------------------------------------------

/// Splits multi-factor filters into a cascade ordered most-selective-first,
/// so later (possibly costlier) factors see fewer rows. Applied once in a
/// dedicated pass — it intentionally inverts `MergeFiltersRule`.
pub fn cascade_predicates(plan: &LogicalPlan, ctx: &OptimizerContext) -> LogicalPlan {
    let children: Vec<LogicalPlan> = plan
        .children()
        .into_iter()
        .map(|c| cascade_predicates(c, ctx))
        .collect();
    let rebuilt = plan
        .with_children(children)
        .expect("arity preserved by construction");
    if let LogicalPlan::Filter { predicate, input } = &rebuilt {
        let mut factors = predicate.split_conjunction();
        if factors.len() > 1 {
            // Stats of the scan feeding the filter, when identifiable.
            let stats = match input.as_ref() {
                LogicalPlan::Scan { source, .. } => ctx.table_stats(source),
                _ => None,
            };
            factors.sort_by(|a, b| {
                let sa = estimate_selectivity(a, stats);
                let sb = estimate_selectivity(b, stats);
                sa.partial_cmp(&sb).unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut out = (**input).clone();
            for f in factors {
                out = LogicalPlan::Filter {
                    predicate: f,
                    input: Box::new(out),
                };
            }
            return out;
        }
    }
    rebuilt
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{OptimizerConfig, OptimizerContext};
    use cx_embed::ModelRegistry;
    use cx_exec::logical::SemanticJoinSpec;
    use cx_expr::{col, lit};
    use cx_storage::{DataType, Field, Schema};
    use std::sync::Arc;

    fn ctx() -> OptimizerContext {
        OptimizerContext::new(Arc::new(ModelRegistry::new()), OptimizerConfig::all())
    }

    fn scan(name: &str, cols: &[(&str, DataType)]) -> LogicalPlan {
        LogicalPlan::Scan {
            source: name.to_string(),
            schema: Arc::new(Schema::new(
                cols.iter().map(|(n, t)| Field::new(*n, *t)).collect(),
            )),
        }
    }

    fn products() -> LogicalPlan {
        scan(
            "products",
            &[
                ("id", DataType::Int64),
                ("name", DataType::Utf8),
                ("price", DataType::Float64),
            ],
        )
    }

    fn labels() -> LogicalPlan {
        scan(
            "labels",
            &[("label", DataType::Utf8), ("category", DataType::Utf8)],
        )
    }

    #[test]
    fn merge_filters() {
        let plan = LogicalPlan::Filter {
            predicate: col("price").gt(lit(1.0)),
            input: Box::new(LogicalPlan::Filter {
                predicate: col("id").gt(lit(0i64)),
                input: Box::new(products()),
            }),
        };
        let out = MergeFiltersRule.apply(&plan, &ctx()).unwrap();
        let LogicalPlan::Filter { predicate, input } = &out else {
            panic!("expected filter");
        };
        assert_eq!(predicate.split_conjunction().len(), 2);
        assert!(matches!(input.as_ref(), LogicalPlan::Scan { .. }));
    }

    #[test]
    fn fold_removes_true_filter() {
        let plan = LogicalPlan::Filter {
            predicate: lit(1i64).lt(lit(2i64)),
            input: Box::new(products()),
        };
        let out = ConstantFoldRule.apply(&plan, &ctx()).unwrap();
        assert!(matches!(out, LogicalPlan::Scan { .. }));
    }

    #[test]
    fn push_through_project_with_rename() {
        let plan = LogicalPlan::Filter {
            predicate: col("cost").gt(lit(10.0)),
            input: Box::new(LogicalPlan::Project {
                exprs: vec![
                    (col("price"), "cost".to_string()),
                    (col("name"), "name".to_string()),
                ],
                input: Box::new(products()),
            }),
        };
        let out = PushFilterThroughProjectRule.apply(&plan, &ctx()).unwrap();
        let LogicalPlan::Project { input, .. } = &out else {
            panic!("expected project on top");
        };
        let LogicalPlan::Filter { predicate, .. } = input.as_ref() else {
            panic!("expected filter below");
        };
        assert_eq!(predicate.to_string(), "(price > 10)");
        // Computed columns block pushdown.
        let blocked = LogicalPlan::Filter {
            predicate: col("double").gt(lit(10.0)),
            input: Box::new(LogicalPlan::Project {
                exprs: vec![(col("price").mul(lit(2.0)), "double".to_string())],
                input: Box::new(products()),
            }),
        };
        assert!(PushFilterThroughProjectRule
            .apply(&blocked, &ctx())
            .is_none());
    }

    #[test]
    fn push_into_inner_join_both_sides() {
        let join = LogicalPlan::Join {
            left: Box::new(products()),
            right: Box::new(labels()),
            on: vec![("name".into(), "label".into())],
            join_type: JoinType::Inner,
        };
        let plan = LogicalPlan::Filter {
            predicate: col("price")
                .gt(lit(20.0))
                .and(col("category").eq(lit("clothes")))
                .and(col("price").lt(col("id"))),
            input: Box::new(join),
        };
        let out = PushFilterIntoJoinRule.apply(&plan, &ctx()).unwrap();
        // price>20 went left, category= went right, price<id stayed
        // (two left columns — pushable left actually! price and id are both
        // left columns, so it goes left too).
        let LogicalPlan::Join { left, right, .. } = &out else {
            panic!("join on top after full pushdown, got {out}");
        };
        assert!(matches!(left.as_ref(), LogicalPlan::Filter { .. }));
        assert!(matches!(right.as_ref(), LogicalPlan::Filter { .. }));
    }

    #[test]
    fn left_join_blocks_right_pushdown() {
        let join = LogicalPlan::Join {
            left: Box::new(products()),
            right: Box::new(labels()),
            on: vec![("name".into(), "label".into())],
            join_type: JoinType::Left,
        };
        let plan = LogicalPlan::Filter {
            predicate: col("category").eq(lit("clothes")),
            input: Box::new(join),
        };
        // The only factor is right-side: no rewrite may move it.
        assert!(PushFilterIntoJoinRule.apply(&plan, &ctx()).is_none());
    }

    #[test]
    fn push_below_semantic_filter() {
        let plan = LogicalPlan::Filter {
            predicate: col("price").gt(lit(20.0)),
            input: Box::new(LogicalPlan::SemanticFilter {
                input: Box::new(products()),
                column: "name".into(),
                target: "clothes".into(),
                model: "m".into(),
                threshold: 0.9,
            }),
        };
        let out = PushFilterBelowSemanticFilterRule
            .apply(&plan, &ctx())
            .unwrap();
        let LogicalPlan::SemanticFilter { input, .. } = &out else {
            panic!("semantic filter on top");
        };
        assert!(matches!(input.as_ref(), LogicalPlan::Filter { .. }));
    }

    #[test]
    fn push_into_semantic_join() {
        let join = LogicalPlan::SemanticJoin {
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
        let plan = LogicalPlan::Filter {
            predicate: col("price").gt(lit(20.0)).and(col("sim").gt(lit(0.95))),
            input: Box::new(join),
        };
        let out = PushFilterIntoSemanticJoinRule.apply(&plan, &ctx()).unwrap();
        // Score factor stays above; price factor moved left.
        let LogicalPlan::Filter { predicate, input } = &out else {
            panic!("score filter must remain above");
        };
        assert_eq!(predicate.to_string(), "(sim > 0.95)");
        let LogicalPlan::SemanticJoin { left, .. } = input.as_ref() else {
            panic!("semantic join below");
        };
        assert!(matches!(left.as_ref(), LogicalPlan::Filter { .. }));
    }

    #[test]
    fn extract_equi_join_from_cross() {
        let plan = LogicalPlan::Filter {
            predicate: col("name").eq(col("label")).and(col("price").gt(lit(5.0))),
            input: Box::new(LogicalPlan::CrossJoin {
                left: Box::new(products()),
                right: Box::new(labels()),
            }),
        };
        let out = ExtractEquiJoinRule.apply(&plan, &ctx()).unwrap();
        let LogicalPlan::Filter { input, .. } = &out else {
            panic!("residual filter expected");
        };
        let LogicalPlan::Join { on, join_type, .. } = input.as_ref() else {
            panic!("equi join expected");
        };
        assert_eq!(on, &vec![("name".to_string(), "label".to_string())]);
        assert_eq!(*join_type, JoinType::Inner);
    }

    #[test]
    fn equi_join_extraction_keeps_inexact_keys_in_the_filter() {
        let other = scan(
            "other",
            &[
                ("i", DataType::Int64),
                ("f", DataType::Float64),
                ("s", DataType::Utf8),
            ],
        );
        let cross = |predicate: Expr| LogicalPlan::Filter {
            predicate,
            input: Box::new(LogicalPlan::CrossJoin {
                left: Box::new(products()),
                right: Box::new(other.clone()),
            }),
        };
        // Int64 = Float64 and Float64 = Float64 answer by SQL `=`, not by
        // structural key equality: no hash key.
        for factor in [col("id").eq(col("f")), col("price").eq(col("f"))] {
            assert!(ExtractEquiJoinRule.apply(&cross(factor), &ctx()).is_none());
        }
        let out = ExtractEquiJoinRule
            .apply(
                &cross(col("id").eq(col("i")).and(col("price").eq(col("f")))),
                &ctx(),
            )
            .unwrap();
        let LogicalPlan::Filter { predicate, input } = &out else {
            panic!("residual filter expected");
        };
        assert_eq!(predicate.to_string(), "(price = f)");
        let LogicalPlan::Join { on, .. } = input.as_ref() else {
            panic!("equi join expected");
        };
        assert_eq!(on, &vec![("id".to_string(), "i".to_string())]);
    }

    /// `Limit 2 (Sort keys (Project exprs (input)))`.
    fn top_over_project(
        exprs: Vec<(Expr, String)>,
        keys: &[&str],
        input: LogicalPlan,
    ) -> LogicalPlan {
        LogicalPlan::Limit {
            n: 2.into(),
            input: Box::new(LogicalPlan::Sort {
                keys: keys
                    .iter()
                    .map(|k| SortKey {
                        column: k.to_string(),
                        ascending: false,
                    })
                    .collect(),
                input: Box::new(LogicalPlan::Project {
                    exprs,
                    input: Box::new(input),
                }),
            }),
        }
    }

    #[test]
    fn projection_lifts_above_limit_with_renamed_keys() {
        let filtered = LogicalPlan::Filter {
            predicate: col("price").gt(lit(1.0)),
            input: Box::new(products()),
        };
        let exprs = vec![
            (col("name"), "n".to_string()),
            (col("price"), "p".to_string()),
        ];
        let plan = top_over_project(exprs.clone(), &["p", "n"], filtered.clone());
        let out = ProjectAboveLimitRule.apply(&plan, &ctx()).unwrap();
        let LogicalPlan::Project {
            exprs: lifted,
            input,
        } = &out
        else {
            panic!("projection on top: {out:?}");
        };
        assert_eq!(lifted, &exprs);
        let LogicalPlan::Limit { input, .. } = input.as_ref() else {
            panic!("limit below the projection");
        };
        let LogicalPlan::Sort { keys, input } = input.as_ref() else {
            panic!("sort below the limit");
        };
        let names: Vec<&str> = keys.iter().map(|k| k.column.as_str()).collect();
        assert_eq!(names, ["price", "name"]);
        assert_eq!(input.as_ref(), &filtered);
        assert_eq!(out.schema().unwrap(), plan.schema().unwrap());

        // A computed expression, or a projection straight over a scan,
        // stays where it is.
        let computed = vec![(col("price").add(lit(1.0)), "p".to_string())];
        let computed = top_over_project(computed, &["p"], filtered);
        assert!(ProjectAboveLimitRule.apply(&computed, &ctx()).is_none());
        let narrowing = top_over_project(exprs, &["p"], products());
        assert!(ProjectAboveLimitRule.apply(&narrowing, &ctx()).is_none());
    }

    #[test]
    fn transitive_dip_copies_key_predicate() {
        let left = LogicalPlan::Filter {
            predicate: col("name").eq(lit("boots")),
            input: Box::new(products()),
        };
        let join = LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(labels()),
            on: vec![("name".into(), "label".into())],
            join_type: JoinType::Inner,
        };
        let out = TransitivePredicateRule.apply(&join, &ctx()).unwrap();
        let LogicalPlan::Join { right, .. } = &out else {
            panic!("join expected");
        };
        let LogicalPlan::Filter { predicate, .. } = right.as_ref() else {
            panic!("induced filter on right");
        };
        assert_eq!(predicate.to_string(), "(label = 'boots')");
        // Re-application is a no-op (already present).
        assert!(TransitivePredicateRule.apply(&out, &ctx()).is_none());
    }

    #[test]
    fn semantic_dip_induces_relaxed_filter() {
        let left = LogicalPlan::SemanticFilter {
            input: Box::new(products()),
            column: "name".into(),
            target: "clothes".into(),
            model: "m".into(),
            threshold: 0.9,
        };
        let join = LogicalPlan::SemanticJoin {
            left: Box::new(left),
            right: Box::new(labels()),
            spec: SemanticJoinSpec {
                left_column: "name".into(),
                right_column: "label".into(),
                model: "m".into(),
                threshold: 0.9,
                score_column: "sim".into(),
            },
        };
        let out = SemanticDipRule.apply(&join, &ctx()).unwrap();
        let LogicalPlan::SemanticJoin { right, .. } = &out else {
            panic!("semantic join expected");
        };
        let LogicalPlan::SemanticFilter {
            threshold, target, ..
        } = right.as_ref()
        else {
            panic!("induced semantic filter expected");
        };
        assert_eq!(target.text(), Some("clothes"));
        let expected = induced_threshold(0.9, 0.9);
        assert!((threshold - expected).abs() < 1e-6);
        assert!(*threshold > 0.6 && *threshold < 0.9);
        // Idempotent.
        assert!(SemanticDipRule.apply(&out, &ctx()).is_none());
    }

    #[test]
    fn induced_threshold_math() {
        // Identical directions: join at 1.0 keeps the filter threshold.
        assert!((induced_threshold(1.0, 0.9) - 0.9).abs() < 1e-6);
        // Orthogonal-ish budgets collapse to zero.
        assert_eq!(induced_threshold(0.1, 0.1), 0.0);
        // Monotone in both arguments.
        assert!(induced_threshold(0.95, 0.9) > induced_threshold(0.9, 0.9));
    }

    #[test]
    fn cascade_orders_by_selectivity() {
        let c = ctx();
        let plan = LogicalPlan::Filter {
            predicate: col("price").gt(lit(20.0)).and(col("name").eq(lit("x"))),
            input: Box::new(products()),
        };
        let out = cascade_predicates(&plan, &c);
        // Equality (default sel 0.1) runs before range (default 1/3):
        // outermost filter is the LAST to run, so the innermost (closest to
        // scan) is the equality.
        let LogicalPlan::Filter {
            input,
            predicate: outer,
        } = &out
        else {
            panic!("cascade top");
        };
        let LogicalPlan::Filter {
            predicate: inner, ..
        } = input.as_ref()
        else {
            panic!("cascade inner");
        };
        assert_eq!(inner.to_string(), "(name = 'x')");
        assert_eq!(outer.to_string(), "(price > 20)");
    }
}
