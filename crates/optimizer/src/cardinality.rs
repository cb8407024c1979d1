//! Cardinality estimation across relational and semantic operators.

use crate::context::OptimizerContext;
use cx_exec::logical::LogicalPlan;
use cx_expr::estimate_selectivity;
use cx_semantic::{semantic_filter_selectivity, semantic_join_selectivity};
use std::hash::{Hash, Hasher};

/// Memo key for a sampling probe (model, sources/columns, threshold).
fn probe_key(parts: &[&str], threshold: f32) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for p in parts {
        p.hash(&mut h);
    }
    threshold.to_bits().hash(&mut h);
    h.finish()
}

/// Fallback row count for scans without statistics.
const DEFAULT_SCAN_ROWS: f64 = 1000.0;
/// Fallback selectivity for semantic filters without samples.
const DEFAULT_SEMANTIC_FILTER_SEL: f64 = 0.1;
/// Fallback selectivity for semantic joins without samples.
const DEFAULT_SEMANTIC_JOIN_SEL: f64 = 0.01;
/// Sample cap for selectivity probing.
const SAMPLE_CAP: usize = 128;

/// Finds the scan feeding `column` below `plan`, following single-input
/// nodes and descending into the join side that exposes the column.
fn source_of_column<'a>(plan: &'a LogicalPlan, column: &str) -> Option<(&'a str, String)> {
    match plan {
        LogicalPlan::Scan { source, schema } => {
            if schema.contains(column) {
                Some((source.as_str(), column.to_string()))
            } else {
                None
            }
        }
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. }
        | LogicalPlan::Distinct { input }
        | LogicalPlan::SemanticFilter { input, .. } => source_of_column(input, column),
        LogicalPlan::Join { left, right, .. }
        | LogicalPlan::CrossJoin { left, right }
        | LogicalPlan::SemanticJoin { left, right, .. } => {
            // Join output may rename right-side collisions with "right.";
            // try verbatim on both sides, then the stripped form.
            source_of_column(left, column)
                .or_else(|| source_of_column(right, column))
                .or_else(|| {
                    column
                        .strip_prefix("right.")
                        .and_then(|c| source_of_column(right, c))
                })
        }
        _ => None,
    }
}

/// Sampled values for `column` as produced by the scan beneath `plan`,
/// with the `(source, column)` they were sampled from. Selectivity memo
/// keys name the sample's source: one planning snapshot's memo serves
/// every plan, and two tables may share a column name.
fn samples_for<'p, 'a>(
    plan: &'p LogicalPlan,
    column: &str,
    ctx: &'a OptimizerContext,
) -> Option<(&'p str, String, &'a [String])> {
    let (source, col) = source_of_column(plan, column)?;
    let sample = ctx.sample(source, &col)?;
    Some((source, col, sample))
}

/// Estimates the number of output rows of `plan`.
pub fn estimate_rows(plan: &LogicalPlan, ctx: &OptimizerContext) -> f64 {
    match plan {
        LogicalPlan::Scan { source, .. } => ctx
            .table_stats(source)
            .map_or(DEFAULT_SCAN_ROWS, |s| s.row_count as f64),
        LogicalPlan::Filter { predicate, input } => {
            let rows = estimate_rows(input, ctx);
            // Use the stats of the scan below when the predicate references
            // one of its columns; selectivity falls back to defaults
            // otherwise.
            let stats = predicate
                .referenced_columns()
                .iter()
                .find_map(|c| source_of_column(input, c))
                .and_then(|(source, _)| ctx.table_stats(source));
            rows * estimate_selectivity(predicate, stats)
        }
        LogicalPlan::Project { input, .. } => estimate_rows(input, ctx),
        LogicalPlan::Join {
            left,
            right,
            on,
            join_type,
        } => {
            use cx_exec::logical::JoinType::*;
            let (l, r) = (estimate_rows(left, ctx), estimate_rows(right, ctx));
            // Classic equi-join estimate: |L||R| / max NDV over key pairs.
            let mut denom: f64 = 1.0;
            for (lc, rc) in on {
                let ndv = |side: &LogicalPlan, col: &str| -> f64 {
                    source_of_column(side, col)
                        .and_then(|(s, c)| {
                            ctx.table_stats(s)
                                .and_then(|st| st.column(&c).map(|cs| cs.distinct_count as f64))
                        })
                        .unwrap_or(10.0)
                        .max(1.0)
                };
                denom = denom.max(ndv(left, lc).max(ndv(right, rc)));
            }
            let inner = (l * r / denom).max(0.0);
            match join_type {
                Inner => inner,
                Left => inner.max(l),
                LeftSemi => (l * 0.5).min(inner).max(1.0),
                LeftAnti => (l - inner).max(0.0),
            }
        }
        LogicalPlan::CrossJoin { left, right } => {
            estimate_rows(left, ctx) * estimate_rows(right, ctx)
        }
        LogicalPlan::SemanticFilter {
            input,
            column,
            target,
            model,
            threshold,
        } => {
            let rows = estimate_rows(input, ctx);
            // A parameterized probe has no text to sample against at
            // prepare time: fall back to the default selectivity. The
            // prepared-statement layer re-estimates with the *bound*
            // literal at execute time, so admission sees the real cost.
            let sel = match (
                target.text(),
                samples_for(input, column, ctx),
                ctx.caches.get(model),
            ) {
                (Some(target), Some((source, col, sample)), Some(cache)) => {
                    let key = probe_key(&["sf", model, source, &col, target], *threshold);
                    ctx.memoized_selectivity(key, || {
                        semantic_filter_selectivity(cache, target, sample, *threshold, SAMPLE_CAP)
                    })
                }
                _ => DEFAULT_SEMANTIC_FILTER_SEL,
            };
            rows * sel
        }
        LogicalPlan::SemanticJoin { left, right, spec } => {
            let (l, r) = (estimate_rows(left, ctx), estimate_rows(right, ctx));
            let sel = match (
                samples_for(left, &spec.left_column, ctx),
                samples_for(right, &spec.right_column, ctx),
                ctx.caches.get(&spec.model),
            ) {
                (Some((lsrc, lcol, ls)), Some((rsrc, rcol, rs)), Some(cache)) => {
                    let key = probe_key(
                        &["sj", &spec.model, lsrc, &lcol, rsrc, &rcol],
                        spec.threshold,
                    );
                    ctx.memoized_selectivity(key, || {
                        semantic_join_selectivity(cache, ls, rs, spec.threshold, 64)
                    })
                }
                _ => DEFAULT_SEMANTIC_JOIN_SEL,
            };
            l * r * sel
        }
        LogicalPlan::SemanticGroupBy { input, .. } => {
            // Clusters ≈ distinct values / mean synonyms per concept.
            (estimate_rows(input, ctx) * 0.05).max(1.0)
        }
        LogicalPlan::Aggregate {
            input, group_by, ..
        } => {
            let rows = estimate_rows(input, ctx);
            if group_by.is_empty() {
                1.0
            } else {
                let mut groups: f64 = 1.0;
                for col in group_by {
                    let ndv = source_of_column(input, col)
                        .and_then(|(s, c)| {
                            ctx.table_stats(s)
                                .and_then(|st| st.column(&c).map(|cs| cs.distinct_count as f64))
                        })
                        .unwrap_or(rows * 0.1);
                    groups *= ndv.max(1.0);
                }
                groups.min(rows)
            }
        }
        LogicalPlan::Sort { input, .. } => estimate_rows(input, ctx),
        // A parameterized limit count is unknown at prepare time: assume
        // no reduction (the conservative bound for admission control).
        LogicalPlan::Limit { input, n } => match n.fixed() {
            Some(n) => estimate_rows(input, ctx).min(n as f64),
            None => estimate_rows(input, ctx),
        },
        LogicalPlan::Distinct { input } => (estimate_rows(input, ctx) * 0.5).max(1.0),
        LogicalPlan::Union { inputs } => inputs.iter().map(|i| estimate_rows(i, ctx)).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::OptimizerConfig;
    use cx_embed::ModelRegistry;
    use cx_exec::logical::LimitCount;
    use cx_expr::{col, lit};
    use cx_storage::{Column, DataType, Field, Schema, Table, TableStats};
    use std::sync::Arc;

    fn scan(name: &str) -> LogicalPlan {
        LogicalPlan::Scan {
            source: name.to_string(),
            schema: Arc::new(Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("name", DataType::Utf8),
                Field::new("v", DataType::Int64),
            ])),
        }
    }

    fn ctx_with_stats() -> OptimizerContext {
        let mut ctx = OptimizerContext::new(Arc::new(ModelRegistry::new()), OptimizerConfig::all());
        let table = Table::from_columns(
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("name", DataType::Utf8),
                Field::new("v", DataType::Int64),
            ]),
            vec![
                Column::from_i64((0..1000).collect()),
                Column::from_strings((0..1000).map(|i| format!("n{}", i % 10))),
                Column::from_i64((0..1000).map(|i| i % 100).collect()),
            ],
        )
        .unwrap();
        ctx.stats
            .insert("t".into(), TableStats::compute(&table).unwrap());
        ctx
    }

    #[test]
    fn scan_uses_stats() {
        let ctx = ctx_with_stats();
        assert_eq!(estimate_rows(&scan("t"), &ctx), 1000.0);
        assert_eq!(estimate_rows(&scan("unknown"), &ctx), DEFAULT_SCAN_ROWS);
    }

    #[test]
    fn filter_uses_histogram() {
        let ctx = ctx_with_stats();
        let plan = LogicalPlan::Filter {
            predicate: col("v").lt(lit(50i64)),
            input: Box::new(scan("t")),
        };
        let est = estimate_rows(&plan, &ctx);
        assert!((est - 500.0).abs() < 75.0, "got {est}");
    }

    #[test]
    fn equi_join_divides_by_ndv() {
        let ctx = ctx_with_stats();
        let plan = LogicalPlan::Join {
            left: Box::new(scan("t")),
            right: Box::new(scan("t")),
            on: vec![("name".into(), "name".into())],
            join_type: cx_exec::logical::JoinType::Inner,
        };
        // 1000×1000/10 = 100k.
        let est = estimate_rows(&plan, &ctx);
        assert!((est - 100_000.0).abs() < 1.0, "got {est}");
    }

    #[test]
    fn limit_caps() {
        let ctx = ctx_with_stats();
        let plan = LogicalPlan::Limit {
            input: Box::new(scan("t")),
            n: LimitCount::Fixed(10),
        };
        assert_eq!(estimate_rows(&plan, &ctx), 10.0);
    }

    #[test]
    fn semantic_defaults_without_samples() {
        let ctx = ctx_with_stats();
        let plan = LogicalPlan::SemanticFilter {
            input: Box::new(scan("t")),
            column: "name".into(),
            target: "clothes".into(),
            model: "m".into(),
            threshold: 0.9,
        };
        assert_eq!(estimate_rows(&plan, &ctx), 1000.0 * 0.1);
    }

    #[test]
    fn aggregate_group_estimate() {
        let ctx = ctx_with_stats();
        let plan = LogicalPlan::Aggregate {
            input: Box::new(scan("t")),
            group_by: vec!["name".into()],
            aggs: vec![],
        };
        assert_eq!(estimate_rows(&plan, &ctx), 10.0);
        let global = LogicalPlan::Aggregate {
            input: Box::new(scan("t")),
            group_by: vec![],
            aggs: vec![],
        };
        assert_eq!(estimate_rows(&global, &ctx), 1.0);
    }

    #[test]
    fn cross_join_is_product() {
        let ctx = ctx_with_stats();
        let plan = LogicalPlan::CrossJoin {
            left: Box::new(scan("t")),
            right: Box::new(scan("t")),
        };
        assert_eq!(estimate_rows(&plan, &ctx), 1_000_000.0);
    }
}
