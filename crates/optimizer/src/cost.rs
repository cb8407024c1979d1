//! Abstract cost model over logical plans.
//!
//! Units are abstract nanoseconds; the constants encode *relative* operator
//! weights (model inference ≫ hashing ≫ scanning), which is what rewrite
//! decisions need. Per Section V, model-operator costs —
//! inference per distinct value, similarity kernels per candidate pair —
//! are first-class terms, not UDF black boxes.

use crate::cardinality::estimate_rows;
use crate::context::OptimizerContext;
use cx_exec::logical::LogicalPlan;

/// Per-row scan cost.
const SCAN_ROW: f64 = 2.0;
/// Per-row, per-predicate filter cost.
const FILTER_ROW: f64 = 4.0;
/// Per-row projection cost per expression.
const PROJECT_ROW: f64 = 2.0;
/// Per-row hash-table build/probe cost.
const HASH_ROW: f64 = 40.0;
/// Per-pair nested-loop cost.
const NL_PAIR: f64 = 8.0;
/// Cost of embedding one string (matches the default
/// `EmbeddingModel::cost_per_embedding` at ~15 chars).
const EMBED_VALUE: f64 = 650.0;
/// Cost of one similarity kernel evaluation at dim 100.
const SIM_PAIR: f64 = 30.0;
/// Per-row aggregation cost.
const AGG_ROW: f64 = 35.0;
/// Per-comparison sort cost.
const SORT_CMP: f64 = 12.0;

/// Estimates the total execution cost of `plan` (inclusive of children).
pub fn estimate_cost(plan: &LogicalPlan, ctx: &OptimizerContext) -> f64 {
    let children_cost: f64 = plan.children().iter().map(|c| estimate_cost(c, ctx)).sum();
    children_cost + node_cost(plan, ctx)
}

/// Distinct-value estimate for a column feeding `plan` (defaults to 10% of
/// rows when stats are missing).
fn distinct_estimate(plan: &LogicalPlan, ctx: &OptimizerContext) -> f64 {
    (estimate_rows(plan, ctx) * 0.1).max(1.0)
}

/// The cost of the node itself, excluding children.
pub fn node_cost(plan: &LogicalPlan, ctx: &OptimizerContext) -> f64 {
    match plan {
        LogicalPlan::Scan { .. } => estimate_rows(plan, ctx) * SCAN_ROW,
        LogicalPlan::Filter { predicate, input } => {
            let factors = predicate.split_conjunction().len() as f64;
            estimate_rows(input, ctx) * FILTER_ROW * factors
        }
        LogicalPlan::Project { exprs, input } => {
            estimate_rows(input, ctx) * PROJECT_ROW * exprs.len() as f64
        }
        LogicalPlan::Join { left, right, .. } => {
            (estimate_rows(left, ctx) + estimate_rows(right, ctx)) * HASH_ROW
        }
        LogicalPlan::CrossJoin { left, right } => {
            estimate_rows(left, ctx) * estimate_rows(right, ctx) * NL_PAIR
        }
        LogicalPlan::SemanticFilter { input, .. } => {
            let distinct = distinct_estimate(input, ctx);
            distinct * EMBED_VALUE + estimate_rows(input, ctx) * SIM_PAIR
        }
        LogicalPlan::SemanticJoin { left, right, .. } => {
            let dl = distinct_estimate(left, ctx);
            let dr = distinct_estimate(right, ctx);
            (dl + dr) * EMBED_VALUE + dl * dr * SIM_PAIR
        }
        LogicalPlan::SemanticGroupBy { input, .. } => {
            let rows = estimate_rows(input, ctx);
            let clusters = estimate_rows(plan, ctx);
            // Each row embeds (amortized by cache over distinct values) and
            // compares against every existing cluster centroid.
            distinct_estimate(input, ctx) * EMBED_VALUE + rows * clusters * SIM_PAIR
        }
        LogicalPlan::Aggregate { input, .. } => estimate_rows(input, ctx) * AGG_ROW,
        LogicalPlan::Sort { input, .. } => {
            let n = estimate_rows(input, ctx).max(2.0);
            n * n.log2() * SORT_CMP
        }
        LogicalPlan::Limit { .. } | LogicalPlan::Union { .. } | LogicalPlan::Distinct { .. } => {
            estimate_rows(plan, ctx) * SCAN_ROW
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{OptimizerConfig, OptimizerContext};
    use cx_embed::ModelRegistry;
    use cx_exec::logical::SemanticJoinSpec;
    use cx_expr::{col, lit};
    use cx_storage::{Column, DataType, Field, Schema, Table, TableStats};
    use std::sync::Arc;

    fn scan(name: &str, rows: i64, ctx: &mut OptimizerContext) -> LogicalPlan {
        let table = Table::from_columns(
            Schema::new(vec![
                Field::new("k", DataType::Utf8),
                Field::new("v", DataType::Int64),
            ]),
            vec![
                Column::from_strings((0..rows).map(|i| format!("k{i}"))),
                Column::from_i64((0..rows).collect()),
            ],
        )
        .unwrap();
        ctx.stats
            .insert(name.to_string(), TableStats::compute(&table).unwrap());
        LogicalPlan::Scan {
            source: name.to_string(),
            schema: Arc::new(Schema::new(vec![
                Field::new("k", DataType::Utf8),
                Field::new("v", DataType::Int64),
            ])),
        }
    }

    fn ctx() -> OptimizerContext {
        OptimizerContext::new(Arc::new(ModelRegistry::new()), OptimizerConfig::all())
    }

    #[test]
    fn pushdown_reduces_semantic_join_cost() {
        let mut c = ctx();
        let big_l = scan("l", 10_000, &mut c);
        let big_r = scan("r", 10_000, &mut c);
        let spec = SemanticJoinSpec {
            left_column: "k".into(),
            right_column: "k".into(),
            model: "m".into(),
            threshold: 0.9,
            score_column: "sim".into(),
        };
        let filter_above = LogicalPlan::Filter {
            predicate: col("v").lt(lit(100i64)),
            input: Box::new(LogicalPlan::SemanticJoin {
                left: Box::new(big_l.clone()),
                right: Box::new(big_r.clone()),
                spec: spec.clone(),
            }),
        };
        let filter_below = LogicalPlan::SemanticJoin {
            left: Box::new(LogicalPlan::Filter {
                predicate: col("v").lt(lit(100i64)),
                input: Box::new(big_l),
            }),
            right: Box::new(big_r),
            spec,
        };
        let (above, below) = (
            estimate_cost(&filter_above, &c),
            estimate_cost(&filter_below, &c),
        );
        assert!(
            below < above / 5.0,
            "below {below} should be far cheaper than above {above}"
        );
    }

    #[test]
    fn semantic_join_dominated_by_model_terms() {
        let mut c = ctx();
        let l = scan("l2", 1_000, &mut c);
        let r = scan("r2", 1_000, &mut c);
        let join = LogicalPlan::SemanticJoin {
            left: Box::new(l.clone()),
            right: Box::new(r.clone()),
            spec: SemanticJoinSpec {
                left_column: "k".into(),
                right_column: "k".into(),
                model: "m".into(),
                threshold: 0.9,
                score_column: "sim".into(),
            },
        };
        let hash = LogicalPlan::Join {
            left: Box::new(l),
            right: Box::new(r),
            on: vec![("k".into(), "k".into())],
            join_type: cx_exec::logical::JoinType::Inner,
        };
        // Embedding + kernel terms make the semantic join strictly costlier
        // than the hash join at equal cardinalities.
        assert!(node_cost(&join, &c) > 1.5 * node_cost(&hash, &c));
    }

    #[test]
    fn cost_is_monotone_in_input_size() {
        let mut c = ctx();
        let small = scan("s", 100, &mut c);
        let large = scan("L", 100_000, &mut c);
        assert!(estimate_cost(&large, &c) > estimate_cost(&small, &c));
    }
}
