//! The physical planner: logical plan → executable operator tree.
//!
//! Implementation selection happens here: hash vs nested-loop joins, and
//! `Limit(Sort)` as one bounded sort — or, over a semantic join, as the
//! join's own bound, so only the kept pairs are materialized.

use crate::context::OptimizerContext;
use cx_exec::logical::{LogicalPlan, SemanticJoinSpec, SortKey};
use cx_exec::operators::{
    DistinctExec, FilterExec, HashAggregateExec, HashJoinExec, LimitExec, NestedLoopJoinExec,
    ProjectExec, SortExec, SystemTableScanExec, TableScanExec, UnionExec,
};
use cx_exec::PhysicalOperator;
use cx_expr::Expr;
use cx_semantic::panel::BaseColumn;
use cx_semantic::{SemanticFilterExec, SemanticGroupByExec, SemanticJoinExec};
use cx_storage::{Error, Result, SystemTableSource, Table};
use std::collections::HashMap;
use std::sync::Arc;

/// Tables the planner can scan: materialized user tables plus live
/// system-table sources (the reserved `cx.*` schema).
#[derive(Default)]
pub struct PhysicalPlannerEnv {
    tables: HashMap<String, Arc<Table>>,
    system_tables: HashMap<String, Arc<dyn SystemTableSource>>,
}

impl PhysicalPlannerEnv {
    /// An empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `table` under `name`.
    pub fn register_table(&mut self, name: impl Into<String>, table: Arc<Table>) {
        self.tables.insert(name.into(), table);
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Option<Arc<Table>> {
        self.tables.get(name).cloned()
    }

    /// Registers a live system-table source under its own name.
    pub fn register_system_table(&mut self, source: Arc<dyn SystemTableSource>) {
        self.system_tables.insert(source.name().to_string(), source);
    }

    /// Looks up a system-table source.
    pub fn system_table(&self, name: &str) -> Option<Arc<dyn SystemTableSource>> {
        self.system_tables.get(name).cloned()
    }
}

/// Lowers `plan` into a physical operator tree. The plan must be bound
/// ([`LogicalPlan::bind_params`]): a parameter placeholder anywhere in it
/// fails lowering with an error naming its slot.
pub fn create_physical_plan(
    plan: &LogicalPlan,
    ctx: &OptimizerContext,
    env: &PhysicalPlannerEnv,
) -> Result<Arc<dyn PhysicalOperator>> {
    Ok(match plan {
        LogicalPlan::Scan { source, .. } => {
            if let Some(sys) = env.system_table(source) {
                Arc::new(SystemTableScanExec::new(sys))
            } else {
                let table = env
                    .table(source)
                    .ok_or_else(|| Error::InvalidArgument(format!("unknown table: {source}")))?;
                Arc::new(TableScanExec::new(table))
            }
        }
        LogicalPlan::Filter { predicate, input } => {
            let child = create_physical_plan(input, ctx, env)?;
            Arc::new(FilterExec::new(child, predicate)?)
        }
        LogicalPlan::Project { exprs, input } => {
            let child = create_physical_plan(input, ctx, env)?;
            Arc::new(ProjectExec::new(child, exprs)?)
        }
        LogicalPlan::Join {
            left,
            right,
            on,
            join_type,
        } => {
            let l = create_physical_plan(left, ctx, env)?;
            let r = create_physical_plan(right, ctx, env)?;
            if on.is_empty() {
                Arc::new(NestedLoopJoinExec::new(l, r, None)?)
            } else {
                Arc::new(HashJoinExec::new(l, r, on, *join_type)?)
            }
        }
        LogicalPlan::CrossJoin { left, right } => {
            let l = create_physical_plan(left, ctx, env)?;
            let r = create_physical_plan(right, ctx, env)?;
            Arc::new(NestedLoopJoinExec::new(l, r, None)?)
        }
        LogicalPlan::SemanticFilter {
            input,
            column,
            target,
            model,
            threshold,
        } => {
            let target = target.text().ok_or_else(|| unbound(target))?;
            let child = create_physical_plan(input, ctx, env)?;
            let cache = ctx
                .cache_for(model)
                .ok_or_else(|| Error::InvalidArgument(format!("unknown model: {model}")))?;
            let filter = SemanticFilterExec::new(child, column, target, *threshold, cache)?;
            Arc::new(match base_column(input, column, env) {
                Some(source) => filter.with_resident_panel(source),
                None => filter,
            })
        }
        LogicalPlan::SemanticJoin { left, right, spec } => {
            Arc::new(semantic_join(left, right, spec, ctx, env)?)
        }
        LogicalPlan::SemanticGroupBy {
            input,
            column,
            model,
            threshold,
            aggs,
        } => {
            let child = create_physical_plan(input, ctx, env)?;
            let cache = ctx
                .cache_for(model)
                .ok_or_else(|| Error::InvalidArgument(format!("unknown model: {model}")))?;
            Arc::new(SemanticGroupByExec::new(
                child, column, *threshold, aggs, cache,
            )?)
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let child = create_physical_plan(input, ctx, env)?;
            Arc::new(HashAggregateExec::new(child, group_by, aggs)?)
        }
        LogicalPlan::Sort { input, keys } => {
            let child = create_physical_plan(input, ctx, env)?;
            Arc::new(SortExec::new(child, &sort_keys(keys))?)
        }
        LogicalPlan::Limit { input, n } => {
            let n = n.fixed().ok_or_else(|| unbound(n))?;
            // `ORDER BY … LIMIT n` keeps n rows: a bounded sort, or a
            // semantic join that materializes only its first n pairs.
            match input.as_ref() {
                LogicalPlan::Sort {
                    input: sorted,
                    keys,
                } => match sorted.as_ref() {
                    LogicalPlan::SemanticJoin { left, right, spec } => {
                        let join = semantic_join(left, right, spec, ctx, env)?
                            .with_limit(&sort_keys(keys), n)?;
                        Arc::new(match base_column(right, &spec.right_column, env) {
                            Some(source) => join.with_resident_build(source),
                            None => join,
                        })
                    }
                    _ => {
                        let child = create_physical_plan(sorted, ctx, env)?;
                        Arc::new(SortExec::new(child, &sort_keys(keys))?.with_limit(n))
                    }
                },
                _ => Arc::new(LimitExec::new(create_physical_plan(input, ctx, env)?, n)),
            }
        }
        LogicalPlan::Distinct { input } => {
            let child = create_physical_plan(input, ctx, env)?;
            Arc::new(DistinctExec::new(child))
        }
        LogicalPlan::Union { inputs } => {
            let children = inputs
                .iter()
                .map(|i| create_physical_plan(i, ctx, env))
                .collect::<Result<Vec<_>>>()?;
            Arc::new(UnionExec::new(children)?)
        }
    })
}

/// `(column, ascending)` pairs of sort keys.
fn sort_keys(keys: &[SortKey]) -> Vec<(String, bool)> {
    keys.iter()
        .map(|k| (k.column.clone(), k.ascending))
        .collect()
}

/// Lowers a semantic join to the panel sweep.
fn semantic_join(
    left: &LogicalPlan,
    right: &LogicalPlan,
    spec: &SemanticJoinSpec,
    ctx: &OptimizerContext,
    env: &PhysicalPlannerEnv,
) -> Result<SemanticJoinExec> {
    let l = create_physical_plan(left, ctx, env)?;
    let r = create_physical_plan(right, ctx, env)?;
    let cache = ctx
        .cache_for(&spec.model)
        .ok_or_else(|| Error::InvalidArgument(format!("unknown model: {}", spec.model)))?;
    let (lc, rc, score) = (&spec.left_column, &spec.right_column, &spec.score_column);
    let parallelism = ctx.config.parallelism;
    SemanticJoinExec::new(l, r, lc, rc, spec.threshold, score, cache, parallelism)
}

/// The base-table column that `column` of `plan` reads, when it reaches a
/// scan through filters and plain-column projections only: the column a
/// semantic filter's or a top-k semantic join's resident panel is built
/// from.
fn base_column(plan: &LogicalPlan, column: &str, env: &PhysicalPlannerEnv) -> Option<BaseColumn> {
    match plan {
        LogicalPlan::Scan { source, .. } if env.system_table(source).is_none() => {
            let table = env.table(source)?;
            let column = table.schema().index_of(column).ok()?;
            Some(BaseColumn { table, column })
        }
        LogicalPlan::Filter { input, .. } => base_column(input, column, env),
        LogicalPlan::Project { exprs, input } => match exprs.iter().find(|(_, n)| n == column)? {
            (Expr::Column(inner), _) => base_column(input, inner, env),
            _ => None,
        },
        _ => None,
    }
}

/// The lowering error for a parameter placeholder (`$slot`) left unbound.
fn unbound(placeholder: &impl std::fmt::Display) -> Error {
    Error::InvalidArgument(format!(
        "parameter {placeholder} is unbound; bind the plan's parameters before lowering it"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::OptimizerConfig;
    use cx_embed::{HashNGramModel, ModelRegistry};
    use cx_exec::collect_table;
    use cx_exec::logical::LimitCount;
    use cx_exec::physical::display_physical;
    use cx_expr::{col, lit};
    use cx_storage::{Column, DataType, Field, Schema, TableStats};

    fn env_and_ctx() -> (PhysicalPlannerEnv, OptimizerContext) {
        let table = Table::from_columns(
            Schema::new(vec![
                Field::new("k", DataType::Utf8),
                Field::new("v", DataType::Int64),
            ]),
            vec![
                Column::from_strings(["boots", "parka", "mug", "boots"]),
                Column::from_i64(vec![1, 2, 3, 4]),
            ],
        )
        .unwrap();
        let mut env = PhysicalPlannerEnv::new();
        let registry = Arc::new(ModelRegistry::new());
        registry.register(Arc::new(HashNGramModel::with_params(
            "m", 16, 1, 3, 4, 1024,
        )));
        let mut ctx = OptimizerContext::new(registry, OptimizerConfig::all());
        ctx.stats
            .insert("t".to_string(), TableStats::compute(&table).unwrap());
        env.register_table("t", Arc::new(table));
        (env, ctx)
    }

    fn scan() -> LogicalPlan {
        LogicalPlan::Scan {
            source: "t".into(),
            schema: Arc::new(Schema::new(vec![
                Field::new("k", DataType::Utf8),
                Field::new("v", DataType::Int64),
            ])),
        }
    }

    #[test]
    fn lowers_relational_pipeline() {
        let (env, ctx) = env_and_ctx();
        let plan = LogicalPlan::Limit {
            n: LimitCount::Fixed(2),
            input: Box::new(LogicalPlan::Filter {
                predicate: col("v").gt(lit(1i64)),
                input: Box::new(scan()),
            }),
        };
        let op = create_physical_plan(&plan, &ctx, &env).unwrap();
        let out = collect_table(op.as_ref()).unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn semantic_join_small_input_uses_blocked_exact_scan() {
        let (env, ctx) = env_and_ctx();
        let plan = LogicalPlan::SemanticJoin {
            left: Box::new(scan()),
            right: Box::new(scan()),
            spec: SemanticJoinSpec {
                left_column: "k".into(),
                right_column: "k".into(),
                model: "m".into(),
                threshold: 0.95,
                score_column: "sim".into(),
            },
        };
        let op = create_physical_plan(&plan, &ctx, &env).unwrap();
        // Executes and matches at least the identical strings.
        let out = collect_table(op.as_ref()).unwrap();
        assert!(out.num_rows() >= 4, "got {}", out.num_rows());
    }

    #[test]
    fn limit_over_sort_lowers_to_one_bound() {
        let (env, ctx) = env_and_ctx();
        let top = |input: LogicalPlan| LogicalPlan::Limit {
            n: LimitCount::Fixed(2),
            input: Box::new(LogicalPlan::Sort {
                input: Box::new(input),
                keys: vec![SortKey {
                    column: "v".into(),
                    ascending: false,
                }],
            }),
        };
        let op = create_physical_plan(&top(scan()), &ctx, &env).unwrap();
        let tree = display_physical(op.as_ref());
        assert_eq!(tree, "Sort [1 keys, limit 2]\n  TableScan [4 rows]\n");
        let out = collect_table(op.as_ref()).unwrap();
        assert_eq!(
            out.column_by_name("v").unwrap().i64_values().unwrap(),
            [4, 3]
        );

        let join = LogicalPlan::SemanticJoin {
            left: Box::new(scan()),
            right: Box::new(scan()),
            spec: SemanticJoinSpec {
                left_column: "k".into(),
                right_column: "k".into(),
                model: "m".into(),
                threshold: 0.95,
                score_column: "sim".into(),
            },
        };
        let op = create_physical_plan(&top(join), &ctx, &env).unwrap();
        assert!(op.name().starts_with("SemanticJoin") && op.name().ends_with("limit 2]"));
        assert_eq!(collect_table(op.as_ref()).unwrap().num_rows(), 2);
    }

    #[test]
    fn small_semantic_filter_stays_exact() {
        let (env, ctx) = env_and_ctx();
        let plan = LogicalPlan::SemanticFilter {
            input: Box::new(scan()),
            column: "k".into(),
            target: "boots".into(),
            model: "m".into(),
            threshold: 0.9,
        };
        let op = create_physical_plan(&plan, &ctx, &env).unwrap();
        // Exact f32 scores keep both identical strings.
        let out = collect_table(op.as_ref()).unwrap();
        let kept = out.column_by_name("k").unwrap();
        let boots = (0..out.num_rows())
            .filter(|&r| kept.get(r).as_str() == Some("boots"))
            .count();
        assert_eq!(boots, 2);
    }

    #[test]
    fn unknown_table_and_model_error() {
        let (env, ctx) = env_and_ctx();
        let bad = LogicalPlan::Scan {
            source: "missing".into(),
            schema: Arc::new(Schema::new(vec![Field::new("k", DataType::Utf8)])),
        };
        assert!(create_physical_plan(&bad, &ctx, &env).is_err());
        let bad_model = LogicalPlan::SemanticFilter {
            input: Box::new(scan()),
            column: "k".into(),
            target: "x".into(),
            model: "missing".into(),
            threshold: 0.9,
        };
        assert!(create_physical_plan(&bad_model, &ctx, &env).is_err());
    }
}
