//! The optimizer driver: rules → pruning → cascades, with a trace.

use crate::context::OptimizerContext;
use crate::pruning::prune_columns;
use crate::rules::{cascade_predicates, standard_rules, Rule};
use cx_exec::logical::LogicalPlan;

/// Upper bound on fixpoint iterations (defensive; rules are designed to
/// converge long before this).
const MAX_PASSES: usize = 32;

/// The rule-driven logical optimizer.
pub struct Optimizer {
    rules: Vec<Box<dyn Rule>>,
}

impl Optimizer {
    /// An optimizer honouring `ctx.config`.
    pub fn new(ctx: &OptimizerContext) -> Self {
        Optimizer {
            rules: standard_rules(&ctx.config),
        }
    }

    /// Optimizes `plan`, returning the rewritten plan and the names of
    /// rules that fired (in application order, deduplicated).
    pub fn optimize(
        &self,
        plan: &LogicalPlan,
        ctx: &OptimizerContext,
    ) -> (LogicalPlan, Vec<String>) {
        let mut current = plan.clone();
        let mut trace: Vec<String> = Vec::new();

        // Phase 1: local rules to fixpoint.
        for _ in 0..MAX_PASSES {
            let (next, changed) = self.one_pass(&current, ctx, &mut trace);
            current = next;
            if !changed {
                break;
            }
        }

        // Phase 2: projection pruning (single structural pass).
        if ctx.config.projection_pruning {
            let pruned = prune_columns(&current);
            if pruned != current {
                trace.push("projection_pruning".to_string());
                current = pruned;
            }
        }

        // Phase 3: predicate cascades (intentionally inverts filter
        // merging, so it runs outside the fixpoint).
        if ctx.config.predicate_cascade {
            let cascaded = cascade_predicates(&current, ctx);
            if cascaded != current {
                trace.push("predicate_cascade".to_string());
                current = cascaded;
            }
        }

        trace.dedup();
        (current, trace)
    }

    /// One top-down pass applying every rule at every node.
    fn one_pass(
        &self,
        plan: &LogicalPlan,
        ctx: &OptimizerContext,
        trace: &mut Vec<String>,
    ) -> (LogicalPlan, bool) {
        let mut node = plan.clone();
        let mut changed = false;
        // Apply rules at this node until none fires.
        loop {
            let mut fired = false;
            for rule in &self.rules {
                if let Some(next) = rule.apply(&node, ctx) {
                    trace.push(rule.name().to_string());
                    node = next;
                    fired = true;
                    changed = true;
                }
            }
            if !fired {
                break;
            }
        }
        // Recurse into children.
        let mut new_children = Vec::new();
        let mut child_changed = false;
        for child in node.children() {
            let (c, ch) = self.one_pass(child, ctx, trace);
            child_changed |= ch;
            new_children.push(c);
        }
        if child_changed {
            node = node
                .with_children(new_children)
                .expect("arity preserved by one_pass");
            changed = true;
        }
        (node, changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{OptimizerConfig, OptimizerContext};
    use cx_embed::ModelRegistry;
    use cx_exec::logical::{JoinType, SemanticJoinSpec};
    use cx_expr::{col, lit};
    use cx_storage::{DataType, Field, Schema};
    use std::sync::Arc;

    fn scan(name: &str, cols: &[(&str, DataType)]) -> LogicalPlan {
        LogicalPlan::Scan {
            source: name.to_string(),
            schema: Arc::new(Schema::new(
                cols.iter().map(|(n, t)| Field::new(*n, *t)).collect(),
            )),
        }
    }

    fn ctx(config: OptimizerConfig) -> OptimizerContext {
        OptimizerContext::new(Arc::new(ModelRegistry::new()), config)
    }

    /// The motivating-query shape: filter over a semantic join over a
    /// semantically-filtered KB side.
    fn motivating_plan() -> LogicalPlan {
        let products = scan(
            "products",
            &[
                ("product_id", DataType::Int64),
                ("name", DataType::Utf8),
                ("price", DataType::Float64),
            ],
        );
        let kb = scan(
            "kb",
            &[("label", DataType::Utf8), ("category", DataType::Utf8)],
        );
        let join = LogicalPlan::SemanticJoin {
            left: Box::new(products),
            right: Box::new(kb),
            spec: SemanticJoinSpec {
                left_column: "name".into(),
                right_column: "label".into(),
                model: "m".into(),
                threshold: 0.9,
                score_column: "sim".into(),
            },
        };
        LogicalPlan::Filter {
            predicate: col("price")
                .gt(lit(20.0))
                .and(col("category").eq(lit("clothes"))),
            input: Box::new(join),
        }
    }

    #[test]
    fn end_to_end_pushdown_through_semantic_join() {
        let c = ctx(OptimizerConfig::all());
        let opt = Optimizer::new(&c);
        let (plan, trace) = opt.optimize(&motivating_plan(), &c);
        let s = plan.display_indent();
        // Both factors moved below the semantic join.
        assert!(
            trace.iter().any(|t| t == "push_filter_into_semantic_join"),
            "trace: {trace:?}"
        );
        // The semantic join is now the ROOT (no filter above it).
        assert!(s.starts_with("SemanticJoin"), "{s}");
        // Filters sit directly on the scans.
        let lines: Vec<&str> = s.lines().collect();
        assert!(
            lines.iter().any(|l| l.contains("Filter: (price > 20)")),
            "{s}"
        );
        assert!(
            lines
                .iter()
                .any(|l| l.contains("Filter: (category = 'clothes')")),
            "{s}"
        );
    }

    #[test]
    fn disabled_config_is_identity() {
        let c = ctx(OptimizerConfig::none());
        let opt = Optimizer::new(&c);
        let plan = motivating_plan();
        let (out, trace) = opt.optimize(&plan, &c);
        assert_eq!(out, plan);
        assert!(trace.is_empty());
    }

    #[test]
    fn optimized_plan_schema_is_preserved() {
        let c = ctx(OptimizerConfig::all());
        let opt = Optimizer::new(&c);
        let plan = motivating_plan();
        let (out, _) = opt.optimize(&plan, &c);
        assert_eq!(
            plan.schema().unwrap().names(),
            out.schema().unwrap().names()
        );
    }

    #[test]
    fn terminates_on_join_chains() {
        // Three-way join with filters: rules must reach fixpoint.
        let a = scan("a", &[("k", DataType::Utf8), ("x", DataType::Int64)]);
        let b = scan("b", &[("k2", DataType::Utf8), ("y", DataType::Int64)]);
        let cc = scan("c", &[("k3", DataType::Utf8), ("z", DataType::Int64)]);
        let j1 = LogicalPlan::Join {
            left: Box::new(a),
            right: Box::new(b),
            on: vec![("k".into(), "k2".into())],
            join_type: JoinType::Inner,
        };
        let j2 = LogicalPlan::Join {
            left: Box::new(j1),
            right: Box::new(cc),
            on: vec![("k2".into(), "k3".into())],
            join_type: JoinType::Inner,
        };
        let plan = LogicalPlan::Filter {
            predicate: col("x")
                .gt(lit(1i64))
                .and(col("z").lt(lit(5i64)))
                .and(col("k").eq(lit("boots"))),
            input: Box::new(j2),
        };
        let c = ctx(OptimizerConfig::all());
        let opt = Optimizer::new(&c);
        let (out, _) = opt.optimize(&plan, &c);
        // Schema preserved, DIP propagated the key equality across joins.
        assert_eq!(
            out.schema().unwrap().names(),
            plan.schema().unwrap().names()
        );
        let s = out.display_indent();
        assert!(s.contains("Filter: (k = 'boots')"), "{s}");
        assert!(
            s.contains("(k2 = 'boots')") || s.contains("(k3 = 'boots')"),
            "DIP expected: {s}"
        );
    }
}
