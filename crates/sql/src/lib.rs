//! # cx-sql — SQL front-end with semantic extensions
//!
//! A zero-dependency recursive-descent SQL front-end for the context-rich
//! analytical engine: lexer → parser → AST → binder → [`LogicalPlan`].
//! The dialect is classic single-block SQL plus the paper's semantic
//! operators:
//!
//! ```sql
//! SELECT name, price FROM products
//! WHERE price > 40 AND name SEMANTIC LIKE 'winter boots' USING m (10, 0.35)
//! ORDER BY price DESC LIMIT 5
//!
//! SELECT name, label, similarity FROM products
//! SEMANTIC JOIN labels ON SIM(name, label) >= 0.3
//!
//! SELECT name, cluster_id, COUNT(*) FROM products
//! GROUP BY SEMANTIC name USING m (0.4)
//! ```
//!
//! Plus `$n` parameters (0-based, matching the engine), `PREPARE name AS
//! ...` / `EXECUTE name (...)`, `EXPLAIN [ANALYZE]`, and `UNION ALL`.
//!
//! Semantics pinned down by the differential harness (every statement is
//! bit-identical to its hand-built `Query` twin):
//!
//! - `SEMANTIC LIKE 'probe' (k, t)` lowers to a `SemanticFilter` with
//!   inclusive threshold `t`, with `k` as a `Limit` directly above it
//!   (bounds the number of matching rows).
//! - `SIM(a, b) > t` and `>= t` both lower to the engine's inclusive
//!   `cos >= t` threshold.
//! - `USING model` is optional when exactly one model is registered.
//! - Join name collisions follow the engine: the right side's duplicate
//!   columns are reachable as `right.<name>` (or via the table alias).
//!
//! The binder is deliberately engine-agnostic: it sees the catalog through
//! the [`SchemaProvider`] trait, so `cx_serve` can feed it the live
//! `Engine` (including `cx.*` system tables) while tests use fixtures.

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;

mod binder;

pub use ast::Statement;
pub use binder::{bind, bind_query, Bound, BoundQuery, SchemaProvider};
pub use error::{SqlError, SqlErrorKind};
pub use parser::parse;

use cx_exec::logical::LogicalPlan;

/// Parse and bind in one step: SQL text → bound plan.
pub fn plan(sql: &str, provider: &dyn SchemaProvider) -> Result<Bound, SqlError> {
    bind(&parse(sql)?, provider)
}

/// Convenience for the common case: a plain query with no parameters.
/// Errors (without a position) if the statement is anything else.
pub fn plan_query(sql: &str, provider: &dyn SchemaProvider) -> Result<LogicalPlan, SqlError> {
    match plan(sql, provider)? {
        Bound::Query(q) if q.param_count == 0 => Ok(q.plan),
        Bound::Query(q) => Err(SqlError::new(
            SqlErrorKind::Bind,
            1,
            1,
            format!(
                "statement expects {} parameter(s); use PREPARE/EXECUTE to bind them",
                q.param_count
            ),
        )),
        _ => Err(SqlError::new(
            SqlErrorKind::Bind,
            1,
            1,
            "expected a plain SELECT statement",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_exec::logical::{AggSpec, JoinType, LimitCount, LogicalPlan, SemanticTarget};
    use cx_expr::col;
    use cx_storage::{DataType, Field, Scalar, Schema};

    struct Fixture;

    impl SchemaProvider for Fixture {
        fn table_schema(&self, name: &str) -> Option<Schema> {
            match name {
                "products" => Some(Schema::new(vec![
                    Field::new("product_id", DataType::Int64),
                    Field::new("name", DataType::Utf8),
                    Field::new("price", DataType::Float64),
                ])),
                "labels" => Some(Schema::new(vec![
                    Field::new("label_id", DataType::Int64),
                    Field::new("label", DataType::Utf8),
                ])),
                "cx.queries" => Some(Schema::new(vec![
                    Field::new("query_id", DataType::Int64),
                    Field::new("status", DataType::Utf8),
                ])),
                _ => None,
            }
        }

        fn model_names(&self) -> Vec<String> {
            vec!["m".to_string()]
        }
    }

    fn q(sql: &str) -> LogicalPlan {
        plan_query(sql, &Fixture).unwrap()
    }

    fn bind_fail(sql: &str) -> SqlError {
        match plan(sql, &Fixture) {
            Err(e) => e,
            Ok(b) => panic!("expected bind failure, got {b:?}"),
        }
    }

    #[test]
    fn simple_select_star_is_a_bare_scan() {
        assert!(matches!(
            q("SELECT * FROM products"),
            LogicalPlan::Scan { .. }
        ));
    }

    #[test]
    fn filter_project_order_limit() {
        let plan = q(
            "SELECT name, price FROM products WHERE price > 40 AND name != 'x' \
             ORDER BY price DESC LIMIT 3",
        );
        // Limit(Sort(Project(Filter(Scan)))) — sort above project because
        // price is projected.
        let LogicalPlan::Limit { input, n } = plan else {
            panic!("no limit: {plan:?}")
        };
        assert_eq!(n, LimitCount::Fixed(3));
        let LogicalPlan::Sort { input, keys } = *input else {
            panic!()
        };
        assert_eq!(keys.len(), 1);
        assert!(!keys[0].ascending);
        let LogicalPlan::Project { exprs, input } = *input else {
            panic!()
        };
        assert_eq!(exprs.len(), 2);
        let LogicalPlan::Filter { predicate, .. } = *input else {
            panic!()
        };
        assert_eq!(
            predicate,
            col("price")
                .gt(cx_expr::lit(40i64))
                .and(col("name").not_eq(cx_expr::lit("x")))
        );
    }

    #[test]
    fn semantic_like_lowers_with_k_as_limit() {
        let plan = q("SELECT * FROM products WHERE name SEMANTIC LIKE 'boots' (5, 0.4)");
        let LogicalPlan::Limit { input, n } = plan else {
            panic!()
        };
        assert_eq!(n, LimitCount::Fixed(5));
        let LogicalPlan::SemanticFilter {
            column,
            target,
            model,
            threshold,
            ..
        } = *input
        else {
            panic!()
        };
        assert_eq!(column, "name");
        assert_eq!(target, SemanticTarget::Text("boots".into()));
        assert_eq!(model, "m");
        assert_eq!(threshold, 0.4f32);
    }

    #[test]
    fn semantic_join_defaults_and_aliases() {
        let plan = q("SELECT * FROM products AS p SEMANTIC JOIN labels AS l \
             ON SIM(p.name, l.label) >= 0.3");
        let LogicalPlan::SemanticJoin { spec, .. } = plan else {
            panic!("{plan:?}")
        };
        assert_eq!(spec.left_column, "name");
        assert_eq!(spec.right_column, "label");
        assert_eq!(spec.score_column, "similarity");
        assert_eq!(spec.threshold, 0.3f32);
    }

    #[test]
    fn join_collision_renames_like_the_engine() {
        // Self-join: right side's product_id becomes right.product_id.
        let plan = q("SELECT b.product_id FROM products AS a \
             INNER JOIN products AS b ON a.product_id = b.product_id");
        let LogicalPlan::Project { exprs, input } = plan else {
            panic!("{plan:?}")
        };
        assert_eq!(exprs[0].1, "right.product_id");
        let LogicalPlan::Join { on, join_type, .. } = *input else {
            panic!()
        };
        assert_eq!(join_type, JoinType::Inner);
        assert_eq!(
            on,
            vec![("product_id".to_string(), "product_id".to_string())]
        );
    }

    #[test]
    fn group_by_matches_natural_output_without_projection() {
        let plan = q("SELECT name, COUNT(*) FROM products GROUP BY name");
        let LogicalPlan::Aggregate { group_by, aggs, .. } = plan else {
            panic!("{plan:?}")
        };
        assert_eq!(group_by, vec!["name".to_string()]);
        assert_eq!(aggs, vec![AggSpec::count_star("count")]);
    }

    #[test]
    fn reordered_group_output_projects() {
        let plan = q("SELECT COUNT(*) AS n, name FROM products GROUP BY name");
        let LogicalPlan::Project { exprs, .. } = plan else {
            panic!("{plan:?}")
        };
        assert_eq!(exprs[0].1, "n");
        assert_eq!(exprs[1].1, "name");
    }

    #[test]
    fn semantic_group_by_exposes_cluster_id() {
        let plan =
            q("SELECT name, cluster_id, COUNT(*) FROM products GROUP BY SEMANTIC name (0.4)");
        let LogicalPlan::SemanticGroupBy {
            column,
            model,
            threshold,
            aggs,
            ..
        } = plan
        else {
            panic!("{plan:?}")
        };
        assert_eq!(column, "name");
        assert_eq!(model, "m");
        assert_eq!(threshold, 0.4f32);
        assert_eq!(aggs.len(), 1);
    }

    #[test]
    fn system_tables_resolve() {
        let plan = q("SELECT status FROM cx.queries WHERE query_id >= 0");
        let LogicalPlan::Project { input, .. } = plan else {
            panic!("{plan:?}")
        };
        let LogicalPlan::Filter { input, .. } = *input else {
            panic!()
        };
        let LogicalPlan::Scan { source, .. } = *input else {
            panic!()
        };
        assert_eq!(source, "cx.queries");
    }

    #[test]
    fn union_all_hoists_tail_order_and_limit() {
        let plan = q(
            "SELECT name FROM products UNION ALL SELECT label AS name FROM labels \
             ORDER BY name ASC LIMIT 4",
        );
        let LogicalPlan::Limit { input, .. } = plan else {
            panic!("{plan:?}")
        };
        let LogicalPlan::Sort { input, .. } = *input else {
            panic!()
        };
        assert!(matches!(*input, LogicalPlan::Union { .. }));
    }

    #[test]
    fn params_flow_through_and_must_be_contiguous() {
        let Bound::Prepare { name, query } = plan(
            "PREPARE p AS SELECT * FROM products WHERE price > $0 LIMIT $1",
            &Fixture,
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(name, "p");
        assert_eq!(query.param_count, 2);
        let e = bind_fail("SELECT * FROM products WHERE price > $1");
        assert!(e.to_string().contains("missing $0"), "{e}");
    }

    #[test]
    fn execute_binds_literals() {
        let Bound::Execute { name, args } = plan("EXECUTE p ('boots', -2, 0.5)", &Fixture).unwrap()
        else {
            panic!()
        };
        assert_eq!(name, "p");
        assert_eq!(
            args,
            vec![
                Scalar::Utf8("boots".into()),
                Scalar::Int64(-2),
                Scalar::Float64(0.5)
            ]
        );
    }

    #[test]
    fn nested_semantic_like_is_rejected() {
        let e = bind_fail("SELECT * FROM products WHERE price > 1 OR name SEMANTIC LIKE 'x' (0.5)");
        assert!(e.to_string().contains("top-level AND conjunct"), "{e}");
    }

    #[test]
    fn ambiguity_and_unknowns_are_positioned() {
        let e = bind_fail("SELECT nope FROM products");
        assert_eq!((e.line, e.col), (1, 8));
        assert!(e.to_string().contains("unknown column `nope`"));
        let e = bind_fail("SELECT product_id FROM products AS a CROSS JOIN products AS b");
        assert!(e.to_string().contains("ambiguous"), "{e}");
        let e = bind_fail("SELECT * FROM nope");
        assert!(e.to_string().contains("unknown table `nope`"), "{e}");
    }

    #[test]
    fn sort_below_projection_when_key_projected_away() {
        let plan = q("SELECT name FROM products ORDER BY price ASC");
        let LogicalPlan::Project { input, .. } = plan else {
            panic!("{plan:?}")
        };
        assert!(matches!(*input, LogicalPlan::Sort { .. }));
    }

    #[test]
    fn explain_and_analyze_parse() {
        assert!(matches!(
            plan("EXPLAIN SELECT * FROM products", &Fixture).unwrap(),
            Bound::Explain { analyze: false, .. }
        ));
        assert!(matches!(
            plan("EXPLAIN ANALYZE SELECT * FROM products", &Fixture).unwrap(),
            Bound::Explain { analyze: true, .. }
        ));
    }
}
