//! Projection (column) pruning.
//!
//! Computes the columns each subtree must produce and narrows scans with
//! projections, so wide base tables don't flow through joins and model
//! operators ("exposing all the operators … and the input/output
//! characteristics is a necessary prerequisite", Section V).

use cx_exec::logical::LogicalPlan;
use cx_expr::Expr;
use cx_storage::Result;
use std::collections::BTreeSet;

/// Prunes unused columns below `plan`. The plan's own output schema is
/// preserved exactly; only interior data flow narrows. Returns the input
/// unchanged if anything cannot be resolved.
pub fn prune_columns(plan: &LogicalPlan) -> LogicalPlan {
    let needed: BTreeSet<String> = match plan.schema() {
        Ok(s) => s.names().into_iter().map(String::from).collect(),
        Err(_) => return plan.clone(),
    };
    prune(plan, &needed).unwrap_or_else(|_| plan.clone())
}

fn refs(exprs: &[&Expr]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for e in exprs {
        out.extend(e.referenced_columns());
    }
    out
}

fn prune(plan: &LogicalPlan, needed: &BTreeSet<String>) -> Result<LogicalPlan> {
    Ok(match plan {
        LogicalPlan::Scan { source: _, schema } => {
            let keep: Vec<usize> = schema
                .fields()
                .iter()
                .enumerate()
                .filter(|(_, f)| needed.contains(&f.name))
                .map(|(i, _)| i)
                .collect();
            if keep.len() == schema.len() {
                plan.clone()
            } else if keep.is_empty() {
                // Keep one column so downstream row counts survive
                // (COUNT(*)-style plans).
                let first = schema.field_at(0)?;
                LogicalPlan::Project {
                    exprs: vec![(Expr::Column(first.name.clone()), first.name.clone())],
                    input: Box::new(plan.clone()),
                }
            } else {
                let exprs = keep
                    .iter()
                    .map(|&i| {
                        let f = &schema.fields()[i];
                        (Expr::Column(f.name.clone()), f.name.clone())
                    })
                    .collect();
                LogicalPlan::Project {
                    exprs,
                    input: Box::new(plan.clone()),
                }
            }
        }
        LogicalPlan::Filter { predicate, input } => {
            let mut child_needed = needed.clone();
            child_needed.extend(predicate.referenced_columns());
            LogicalPlan::Filter {
                predicate: predicate.clone(),
                input: Box::new(prune(input, &child_needed)?),
            }
        }
        LogicalPlan::Project { exprs, input } => {
            // Drop unused output expressions; keep at least one.
            let mut kept: Vec<(Expr, String)> = exprs
                .iter()
                .filter(|(_, name)| needed.contains(name))
                .cloned()
                .collect();
            if kept.is_empty() {
                kept.push(exprs.first().cloned().ok_or_else(|| {
                    cx_storage::Error::InvalidArgument("empty projection".into())
                })?);
            }
            let child_needed = refs(&kept.iter().map(|(e, _)| e).collect::<Vec<_>>());
            LogicalPlan::Project {
                exprs: kept,
                input: Box::new(prune(input, &child_needed)?),
            }
        }
        LogicalPlan::Join {
            left,
            right,
            on,
            join_type,
        } => {
            let (ls, rs) = (left.schema()?, right.schema()?);
            let mut left_needed: BTreeSet<String> = BTreeSet::new();
            let mut right_needed: BTreeSet<String> = BTreeSet::new();
            for name in needed {
                // Preserve collision structure: a column kept on either
                // side keeps its counterpart so the joined names (the
                // `right.` prefix) stay stable.
                if ls.contains(name) {
                    left_needed.insert(name.clone());
                    if rs.contains(name) {
                        right_needed.insert(name.clone());
                    }
                }
                if let Some(stripped) = name.strip_prefix("right.") {
                    if rs.contains(stripped) {
                        right_needed.insert(stripped.to_string());
                        if ls.contains(stripped) {
                            left_needed.insert(stripped.to_string());
                        }
                    }
                } else if rs.contains(name) && !ls.contains(name) {
                    right_needed.insert(name.clone());
                }
            }
            for (l, r) in on {
                left_needed.insert(l.clone());
                right_needed.insert(r.clone());
                // Keys may collide too: keep both sides' key columns as-is.
                if rs.contains(l) {
                    right_needed.insert(l.clone());
                }
                if ls.contains(r) {
                    left_needed.insert(r.clone());
                }
            }
            LogicalPlan::Join {
                left: Box::new(prune(left, &left_needed)?),
                right: Box::new(prune(right, &right_needed)?),
                on: on.clone(),
                join_type: *join_type,
            }
        }
        LogicalPlan::SemanticJoin { left, right, spec } => {
            let (ls, rs) = (left.schema()?, right.schema()?);
            let mut left_needed: BTreeSet<String> = BTreeSet::new();
            let mut right_needed: BTreeSet<String> = BTreeSet::new();
            for name in needed {
                if name == &spec.score_column {
                    continue; // produced by the join itself
                }
                if ls.contains(name) {
                    left_needed.insert(name.clone());
                    if rs.contains(name) {
                        right_needed.insert(name.clone());
                    }
                }
                if let Some(stripped) = name.strip_prefix("right.") {
                    if rs.contains(stripped) {
                        right_needed.insert(stripped.to_string());
                        if ls.contains(stripped) {
                            left_needed.insert(stripped.to_string());
                        }
                    }
                } else if rs.contains(name) && !ls.contains(name) {
                    right_needed.insert(name.clone());
                }
            }
            left_needed.insert(spec.left_column.clone());
            right_needed.insert(spec.right_column.clone());
            if rs.contains(&spec.left_column) {
                right_needed.insert(spec.left_column.clone());
            }
            if ls.contains(&spec.right_column) {
                left_needed.insert(spec.right_column.clone());
            }
            LogicalPlan::SemanticJoin {
                left: Box::new(prune(left, &left_needed)?),
                right: Box::new(prune(right, &right_needed)?),
                spec: spec.clone(),
            }
        }
        LogicalPlan::SemanticFilter {
            input,
            column,
            target,
            model,
            threshold,
        } => {
            let mut child_needed = needed.clone();
            child_needed.insert(column.clone());
            LogicalPlan::SemanticFilter {
                input: Box::new(prune(input, &child_needed)?),
                column: column.clone(),
                target: target.clone(),
                model: model.clone(),
                threshold: *threshold,
            }
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let mut child_needed: BTreeSet<String> = group_by.iter().cloned().collect();
            for a in aggs {
                if let Some(c) = &a.column {
                    child_needed.insert(c.clone());
                }
            }
            if child_needed.is_empty() {
                // COUNT(*)-only: child keeps whatever its pruning defaults to.
                if let Ok(s) = input.schema() {
                    if let Some(f) = s.fields().first() {
                        child_needed.insert(f.name.clone());
                    }
                }
            }
            LogicalPlan::Aggregate {
                input: Box::new(prune(input, &child_needed)?),
                group_by: group_by.clone(),
                aggs: aggs.clone(),
            }
        }
        LogicalPlan::SemanticGroupBy {
            input,
            column,
            model,
            threshold,
            aggs,
        } => {
            let mut child_needed: BTreeSet<String> = BTreeSet::new();
            child_needed.insert(column.clone());
            for a in aggs {
                if let Some(c) = &a.column {
                    child_needed.insert(c.clone());
                }
            }
            LogicalPlan::SemanticGroupBy {
                input: Box::new(prune(input, &child_needed)?),
                column: column.clone(),
                model: model.clone(),
                threshold: *threshold,
                aggs: aggs.clone(),
            }
        }
        LogicalPlan::Sort { input, keys } => {
            let mut child_needed = needed.clone();
            for k in keys {
                child_needed.insert(k.column.clone());
            }
            LogicalPlan::Sort {
                input: Box::new(prune(input, &child_needed)?),
                keys: keys.clone(),
            }
        }
        LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
            input: Box::new(prune(input, needed)?),
            n: *n,
        },
        // Distinct semantics depend on every column of its input: no
        // pruning below.
        LogicalPlan::Distinct { .. } => plan.clone(),
        // Union branches must stay schema-identical; prune each with the
        // same needed set.
        LogicalPlan::Union { inputs } => LogicalPlan::Union {
            inputs: inputs
                .iter()
                .map(|i| prune(i, needed))
                .collect::<Result<Vec<_>>>()?,
        },
        // Cross joins: conservative (keep as-is; they are rewritten to
        // equi-joins before pruning in the standard pipeline).
        LogicalPlan::CrossJoin { .. } => plan.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_exec::logical::{AggSpec, JoinType};
    use cx_expr::{col, lit};
    use cx_storage::{DataType, Field, Schema};
    use std::sync::Arc;

    fn wide_scan(name: &str) -> LogicalPlan {
        LogicalPlan::Scan {
            source: name.to_string(),
            schema: Arc::new(Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("b", DataType::Utf8),
                Field::new("c", DataType::Float64),
                Field::new("d", DataType::Bool),
            ])),
        }
    }

    #[test]
    fn narrows_scan_under_projection() {
        let plan = LogicalPlan::Project {
            exprs: vec![(col("a"), "a".to_string())],
            input: Box::new(LogicalPlan::Filter {
                predicate: col("c").gt(lit(1.0)),
                input: Box::new(wide_scan("t")),
            }),
        };
        let pruned = prune_columns(&plan);
        // Scan now produces only {a, c}.
        let s = pruned.display_indent();
        assert!(
            s.contains("Project: a, c") || s.contains("Project: c, a"),
            "{s}"
        );
        // Output schema unchanged.
        assert_eq!(pruned.schema().unwrap().names(), vec!["a"]);
    }

    #[test]
    fn keeps_join_keys() {
        let join = LogicalPlan::Join {
            left: Box::new(wide_scan("l")),
            right: Box::new(wide_scan("r")),
            on: vec![("b".into(), "b".into())],
            join_type: JoinType::Inner,
        };
        let plan = LogicalPlan::Project {
            exprs: vec![(col("a"), "a".to_string())],
            input: Box::new(join),
        };
        let pruned = prune_columns(&plan);
        assert_eq!(pruned.schema().unwrap().names(), vec!["a"]);
        // The join keys survive inside.
        let s = pruned.display_indent();
        assert!(s.contains("Join: b = b"), "{s}");
    }

    #[test]
    fn aggregate_needs_only_inputs() {
        let plan = LogicalPlan::Aggregate {
            input: Box::new(wide_scan("t")),
            group_by: vec!["b".into()],
            aggs: vec![AggSpec::new(cx_exec::logical::AggFunc::Sum, "c", "s")],
        };
        let pruned = prune_columns(&plan);
        let s = pruned.display_indent();
        assert!(
            s.contains("Project: b, c") || s.contains("Project: c, b"),
            "{s}"
        );
    }

    #[test]
    fn no_pruning_below_distinct() {
        let plan = LogicalPlan::Distinct {
            input: Box::new(wide_scan("t")),
        };
        assert_eq!(prune_columns(&plan), plan);
    }

    #[test]
    fn full_width_scan_untouched() {
        let plan = wide_scan("t");
        assert_eq!(prune_columns(&plan), plan);
    }
}
