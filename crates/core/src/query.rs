//! The declarative query builder.
//!
//! Users say *what* (Section II's requirement), mixing relational and
//! semantic verbs; the engine decides *how*.

use cx_exec::logical::{
    AggSpec, JoinType, LimitCount, LogicalPlan, SemanticJoinSpec, SemanticTarget, SortKey,
};
use cx_expr::Expr;
use cx_storage::Schema;
use std::sync::Arc;

/// Default name of the appended similarity column of semantic joins.
pub const DEFAULT_SCORE_COLUMN: &str = "similarity";

/// A query under construction: a thin, fluent wrapper over
/// [`LogicalPlan`]. Obtain one from [`crate::Engine::table`].
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    plan: LogicalPlan,
}

impl Query {
    /// A query scanning `source` with the given schema (normally built via
    /// [`crate::Engine::table`], which resolves the schema for you).
    pub fn scan(source: impl Into<String>, schema: Schema) -> Self {
        Query {
            plan: LogicalPlan::Scan {
                source: source.into(),
                schema: Arc::new(schema),
            },
        }
    }

    /// Wraps an existing logical plan.
    pub fn from_plan(plan: LogicalPlan) -> Self {
        Query { plan }
    }

    /// The underlying logical plan.
    pub fn plan(&self) -> &LogicalPlan {
        &self.plan
    }

    /// Keeps rows satisfying `predicate`.
    pub fn filter(self, predicate: Expr) -> Self {
        Query {
            plan: LogicalPlan::Filter {
                predicate,
                input: Box::new(self.plan),
            },
        }
    }

    /// Projects expressions under output names.
    pub fn select(self, exprs: Vec<(Expr, &str)>) -> Self {
        Query {
            plan: LogicalPlan::Project {
                exprs: exprs.into_iter().map(|(e, n)| (e, n.to_string())).collect(),
                input: Box::new(self.plan),
            },
        }
    }

    /// Projects plain columns by name.
    pub fn select_columns(self, names: &[&str]) -> Self {
        let exprs = names
            .iter()
            .map(|n| (Expr::Column(n.to_string()), n.to_string()))
            .collect();
        Query {
            plan: LogicalPlan::Project {
                exprs,
                input: Box::new(self.plan),
            },
        }
    }

    /// Equi-joins with `other` on `(left, right)` column pairs.
    pub fn join(self, other: Query, on: &[(&str, &str)], join_type: JoinType) -> Self {
        Query {
            plan: LogicalPlan::Join {
                left: Box::new(self.plan),
                right: Box::new(other.plan),
                on: on
                    .iter()
                    .map(|(l, r)| (l.to_string(), r.to_string()))
                    .collect(),
                join_type,
            },
        }
    }

    /// Cartesian product with `other`.
    pub fn cross_join(self, other: Query) -> Self {
        Query {
            plan: LogicalPlan::CrossJoin {
                left: Box::new(self.plan),
                right: Box::new(other.plan),
            },
        }
    }

    /// Semantic select (Section IV): keep rows whose `column` is within
    /// `threshold` cosine similarity of `target` under `model`.
    pub fn semantic_filter(self, column: &str, target: &str, model: &str, threshold: f32) -> Self {
        Query {
            plan: LogicalPlan::SemanticFilter {
                input: Box::new(self.plan),
                column: column.to_string(),
                target: SemanticTarget::Text(target.to_string()),
                model: model.to_string(),
                threshold,
            },
        }
    }

    /// Semantic select whose probe text is a prepared-statement parameter:
    /// `slot` is bound to a UTF8 value at execute time. The query can only
    /// run through a prepared handle (or after
    /// [`LogicalPlan::bind_params`]).
    pub fn semantic_filter_param(
        self,
        column: &str,
        slot: usize,
        model: &str,
        threshold: f32,
    ) -> Self {
        Query {
            plan: LogicalPlan::SemanticFilter {
                input: Box::new(self.plan),
                column: column.to_string(),
                target: SemanticTarget::Param(slot),
                model: model.to_string(),
                threshold,
            },
        }
    }

    /// Semantic join (Section IV): embedding-space threshold join; appends
    /// a [`DEFAULT_SCORE_COLUMN`] similarity column.
    pub fn semantic_join(
        self,
        other: Query,
        left_column: &str,
        right_column: &str,
        model: &str,
        threshold: f32,
    ) -> Self {
        self.semantic_join_scored(
            other,
            left_column,
            right_column,
            model,
            threshold,
            DEFAULT_SCORE_COLUMN,
        )
    }

    /// Semantic join with an explicit score-column name.
    pub fn semantic_join_scored(
        self,
        other: Query,
        left_column: &str,
        right_column: &str,
        model: &str,
        threshold: f32,
        score_column: &str,
    ) -> Self {
        Query {
            plan: LogicalPlan::SemanticJoin {
                left: Box::new(self.plan),
                right: Box::new(other.plan),
                spec: SemanticJoinSpec {
                    left_column: left_column.to_string(),
                    right_column: right_column.to_string(),
                    model: model.to_string(),
                    threshold,
                    score_column: score_column.to_string(),
                },
            },
        }
    }

    /// Semantic group-by (Section IV): clusters `column` by model
    /// similarity and aggregates per cluster.
    pub fn semantic_group_by(
        self,
        column: &str,
        model: &str,
        threshold: f32,
        aggs: Vec<AggSpec>,
    ) -> Self {
        Query {
            plan: LogicalPlan::SemanticGroupBy {
                input: Box::new(self.plan),
                column: column.to_string(),
                model: model.to_string(),
                threshold,
                aggs,
            },
        }
    }

    /// Hash aggregation over `group_by` keys.
    pub fn aggregate(self, group_by: &[&str], aggs: Vec<AggSpec>) -> Self {
        Query {
            plan: LogicalPlan::Aggregate {
                input: Box::new(self.plan),
                group_by: group_by.iter().map(|s| s.to_string()).collect(),
                aggs,
            },
        }
    }

    /// Sorts by `(column, ascending)` keys.
    pub fn sort(self, keys: &[(&str, bool)]) -> Self {
        Query {
            plan: LogicalPlan::Sort {
                input: Box::new(self.plan),
                keys: keys
                    .iter()
                    .map(|(c, asc)| SortKey {
                        column: c.to_string(),
                        ascending: *asc,
                    })
                    .collect(),
            },
        }
    }

    /// First `n` rows.
    pub fn limit(self, n: usize) -> Self {
        Query {
            plan: LogicalPlan::Limit {
                input: Box::new(self.plan),
                n: LimitCount::Fixed(n),
            },
        }
    }

    /// First `$slot` rows: a limit whose count is a prepared-statement
    /// parameter, bound to a non-negative Int64 at execute time.
    pub fn limit_param(self, slot: usize) -> Self {
        Query {
            plan: LogicalPlan::Limit {
                input: Box::new(self.plan),
                n: LimitCount::Param(slot),
            },
        }
    }

    /// Duplicate elimination over all columns.
    pub fn distinct(self) -> Self {
        Query {
            plan: LogicalPlan::Distinct {
                input: Box::new(self.plan),
            },
        }
    }

    /// Concatenates with `other` (schemas must match).
    pub fn union(self, other: Query) -> Self {
        Query {
            plan: LogicalPlan::Union {
                inputs: vec![self.plan, other.plan],
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_exec::logical::AggFunc;
    use cx_expr::{col, lit};
    use cx_storage::{DataType, Field};

    fn q() -> Query {
        Query::scan(
            "products",
            Schema::new(vec![
                Field::new("name", DataType::Utf8),
                Field::new("price", DataType::Float64),
            ]),
        )
    }

    #[test]
    fn fluent_composition_builds_expected_tree() {
        let query = q()
            .filter(col("price").gt(lit(20.0)))
            .semantic_filter("name", "clothes", "m", 0.9)
            .limit(5);
        let s = query.plan().display_indent();
        assert!(s.starts_with("Limit: 5"));
        assert!(s.contains("SemanticFilter"));
        assert!(s.contains("Filter: (price > 20)"));
        assert!(s.contains("Scan: products"));
    }

    #[test]
    fn semantic_join_appends_default_score() {
        let kb = Query::scan("kb", Schema::new(vec![Field::new("label", DataType::Utf8)]));
        let query = q().semantic_join(kb, "name", "label", "m", 0.85);
        let schema = query.plan().schema().unwrap();
        assert!(schema.contains(DEFAULT_SCORE_COLUMN));
    }

    #[test]
    fn aggregate_and_select() {
        let query = q()
            .aggregate(
                &["name"],
                vec![AggSpec::new(AggFunc::Avg, "price", "avg_price")],
            )
            .select(vec![(col("avg_price").mul(lit(2.0)), "double")]);
        assert_eq!(query.plan().schema().unwrap().names(), vec!["double"]);
    }

    #[test]
    fn select_columns_shorthand() {
        let query = q().select_columns(&["price"]);
        assert_eq!(query.plan().schema().unwrap().names(), vec!["price"]);
    }
}
