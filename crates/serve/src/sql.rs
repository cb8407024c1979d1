//! SQL entry point: [`Session::sql`] — parse, bind against the live
//! catalog, and serve, with ad-hoc statements auto-parameterized into
//! prepared shapes.
//!
//! The front-end itself (lexer, parser, binder, the semantic grammar
//! extensions) lives in `cx_sql`; this module is the glue that makes SQL
//! text a first-class client of the serving stack:
//!
//! * **Binding sees everything the engine sees** — user tables, `cx.*`
//!   system tables, and the model registry, through a thin
//!   [`cx_sql::SchemaProvider`] over the shared [`Engine`].
//! * **Auto-parameterization** ([`ServeConfig::sql_auto_param`](crate::ServeConfig::sql_auto_param), on by
//!   default) — every literal in an ad-hoc statement is lifted into a
//!   parameter slot, the lifted template is served as a prepared
//!   statement (one plan-cache entry per statement *shape*: the template
//!   is all that is fingerprinted, resolved once per statement), and the
//!   literals are bound back transparently. A dashboard firing
//!   `price > 10`, `price > 20`, `price > 30` optimizes once and binds
//!   three times — prepared-statement throughput for plain text, results
//!   bit-identical to exact planning (binding re-infers expression types
//!   per value). Statements with nothing to lift are the zero-parameter
//!   case of the same call.
//! * **`PREPARE` / `EXECUTE`** — session-scoped named statements backed
//!   by the same [`Prepared`](crate::Prepared) handles the programmatic
//!   API returns.
//! * **`EXPLAIN [ANALYZE]`** — the optimizer's plan rendering, or the
//!   rendered lifecycle span tree of the statement served exactly as the
//!   plain `SELECT` would be (auto-parameterized, `sql_parse`/`sql_bind`
//!   included), traced whether or not the server traces.
//! * **Observability** — `sql_parse` / `sql_bind` spans attached to the
//!   query trace (when the statement is traced), and `cx_serve_sql_*` counters in
//!   [`Server::metrics_snapshot`] / [`Server::report`].

use crate::prepared::Statement;
use crate::server::{QueryOptions, ServeResult, Server, Session};
use context_engine::{Engine, Query};
use cx_exec::logical::LogicalPlan;
use cx_sql::{Bound, SqlError};
use cx_storage::{Error, Result, Schema};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The outcome of one SQL statement ([`Session::sql`]).
#[derive(Debug)]
pub enum SqlResponse {
    /// A query (`SELECT ...` or `EXECUTE name (...)`) produced rows.
    Rows(ServeResult),
    /// `EXPLAIN` rendered the optimized plan; `EXPLAIN ANALYZE` executed
    /// the query and rendered its lifecycle span tree.
    Explain(String),
    /// `PREPARE name AS ...` registered a named statement on this
    /// session.
    Prepared {
        /// The statement name `EXECUTE` refers to.
        name: String,
        /// Binding values every `EXECUTE` must supply.
        param_count: usize,
    },
}

cx_obs::metric_family! {
    /// SQL front-end counters (server-wide, all sessions), snapshotted by
    /// [`Server::sql_stats`].
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct SqlStats, counters pub(crate) SqlCounters {
        /// SQL statements accepted (parse attempts, all sessions).
        statements: counter "cx_serve_sql_statements_total" "SQL statements accepted",
        /// Ad-hoc statements auto-parameterized into prepared shapes.
        auto_param: counter "cx_serve_sql_auto_param_total"
            "Ad-hoc SQL statements auto-parameterized into prepared shapes",
        /// Auto-parameterized statements whose shape was already cached
        /// (no re-optimization).
        auto_param_shape_hits: counter "cx_serve_sql_auto_param_shape_hits_total"
            "Auto-parameterized statements resolved by a cached shape",
        /// Ad-hoc statements with no liftable literal, planned exactly.
        exact_fallback: counter "cx_serve_sql_exact_fallback_total"
            "Ad-hoc SQL statements with nothing to lift (exact planning)",
        /// Statements rejected at parse or bind.
        errors: counter "cx_serve_sql_errors_total" "SQL statements rejected at parse or bind",
    }
    derived {
        shape_hit_rate: gauge "cx_serve_sql_shape_hit_rate" "Auto-parameterized shape hit rate",
    }
}

impl SqlStats {
    /// Fraction of auto-parameterized statements served from an
    /// already-cached shape (1.0 when none ran).
    pub fn shape_hit_rate(&self) -> f64 {
        if self.auto_param == 0 {
            1.0
        } else {
            self.auto_param_shape_hits as f64 / self.auto_param as f64
        }
    }
}

impl Server {
    /// SQL front-end counters (statements, auto-parameterization, shape
    /// hits, errors) across every session.
    pub fn sql_stats(&self) -> SqlStats {
        self.sql.snapshot()
    }
}

/// The binder's view of the live engine: user tables, `cx.*` system
/// tables, and the model registry.
struct EngineProvider<'a> {
    engine: &'a Engine,
}

impl cx_sql::SchemaProvider for EngineProvider<'_> {
    fn table_schema(&self, name: &str) -> Option<Schema> {
        self.engine
            .table(name)
            .ok()
            .and_then(|q| q.plan().schema().ok())
    }

    fn model_names(&self) -> Vec<String> {
        self.engine.catalog().models().names()
    }
}

fn sql_error(e: &SqlError) -> Error {
    Error::Parse(e.to_string())
}

impl Session {
    /// Parses, binds, and serves one SQL statement.
    ///
    /// `SELECT` (including the semantic extensions — `SEMANTIC LIKE`,
    /// `SEMANTIC JOIN ... ON SIM(..)`, `GROUP BY SEMANTIC`) returns
    /// [`SqlResponse::Rows`]; `PREPARE name AS ...` registers a named
    /// statement on this session and `EXECUTE name (...)` binds and runs
    /// it; `EXPLAIN [ANALYZE]` returns [`SqlResponse::Explain`]. Results
    /// are bit-identical to the equivalent hand-built [`Query`] served
    /// through [`Session::execute`].
    ///
    /// With [`ServeConfig::sql_auto_param`](crate::ServeConfig::sql_auto_param) on (the default), ad-hoc
    /// statements are auto-parameterized: literals are lifted into
    /// parameter slots so every statement with the same shape resolves
    /// to one cached prepared plan, then the literals are bound back.
    /// Statements carrying explicit `$n` placeholders must go through
    /// `PREPARE`/`EXECUTE` (there is nothing to bind them with here).
    ///
    /// Parse and bind failures return [`Error::Parse`] with the
    /// `cx_sql` position (`line`/`column`) in the message.
    ///
    /// ```
    /// use context_engine::{Engine, EngineConfig};
    /// use cx_embed::HashNGramModel;
    /// use cx_serve::{ServeConfig, Server, SqlResponse};
    /// use cx_storage::{Column, DataType, Field, Schema, Table};
    /// use std::sync::Arc;
    ///
    /// let engine = Arc::new(Engine::new(EngineConfig::default()));
    /// engine.register_model(Arc::new(HashNGramModel::new(42)));
    /// let products = Table::from_columns(
    ///     Schema::new(vec![
    ///         Field::new("name", DataType::Utf8),
    ///         Field::new("price", DataType::Float64),
    ///     ]),
    ///     vec![
    ///         Column::from_strings(["boots", "mug", "parka"]),
    ///         Column::from_f64(vec![30.0, 8.0, 80.0]),
    ///     ],
    /// ).unwrap();
    /// engine.register_table("products", products).unwrap();
    ///
    /// let server = Server::new(engine, ServeConfig::default());
    /// let session = server.session();
    /// let SqlResponse::Rows(r) =
    ///     session.sql("SELECT name FROM products WHERE price > 20.0 ORDER BY name").unwrap()
    /// else { panic!() };
    /// assert_eq!(r.table.num_rows(), 2); // boots, parka
    /// // Same shape, different literal: the lifted template is already
    /// // cached, so this statement skips optimization entirely.
    /// let SqlResponse::Rows(r) =
    ///     session.sql("SELECT name FROM products WHERE price > 50.0 ORDER BY name").unwrap()
    /// else { panic!() };
    /// assert_eq!(r.table.num_rows(), 1); // parka
    /// assert!(r.plan_cache_hit);
    /// assert_eq!(server.sql_stats().auto_param_shape_hits, 1);
    /// ```
    pub fn sql(&self, text: &str) -> Result<SqlResponse> {
        let server = self.server().clone();
        server.sql.statements.fetch_add(1, Ordering::Relaxed);
        let parse_start = Instant::now();
        let stmt = cx_sql::parse(text).map_err(|e| {
            server.sql.errors.fetch_add(1, Ordering::Relaxed);
            sql_error(&e)
        })?;
        let parse_dur = parse_start.elapsed();
        let bind_start = Instant::now();
        let provider = EngineProvider {
            engine: server.engine(),
        };
        let bound = cx_sql::bind(&stmt, &provider).map_err(|e| {
            server.sql.errors.fetch_add(1, Ordering::Relaxed);
            sql_error(&e)
        })?;
        let bind_dur = bind_start.elapsed();
        match bound {
            Bound::Query(q) => {
                if q.param_count > 0 {
                    server.sql.errors.fetch_add(1, Ordering::Relaxed);
                    return Err(Error::Parse(format!(
                        "statement expects {} parameter(s); PREPARE it and \
                         EXECUTE with bindings",
                        q.param_count
                    )));
                }
                let result = self.serve_select(q.plan, false)?;
                attach_sql_spans(&result, text, parse_start, parse_dur, bind_start, bind_dur);
                Ok(SqlResponse::Rows(result))
            }
            Bound::Explain { analyze, query } => {
                if query.param_count > 0 {
                    server.sql.errors.fetch_add(1, Ordering::Relaxed);
                    return Err(Error::Parse(format!(
                        "cannot EXPLAIN a statement with {} unbound parameter(s)",
                        query.param_count
                    )));
                }
                if !analyze {
                    let rendered = server.engine().explain(&Query::from_plan(query.plan))?;
                    return Ok(SqlResponse::Explain(rendered));
                }
                let result = self.serve_select(query.plan, true)?;
                attach_sql_spans(&result, text, parse_start, parse_dur, bind_start, bind_dur);
                Ok(SqlResponse::Explain(
                    result.trace.map(|t| t.render()).unwrap_or_default(),
                ))
            }
            Bound::Prepare { name, query } => {
                let prepared = Arc::new(self.prepare(&Query::from_plan(query.plan))?);
                let param_count = prepared.param_count();
                self.statements.lock().insert(name.clone(), prepared);
                Ok(SqlResponse::Prepared { name, param_count })
            }
            Bound::Execute { name, args } => {
                let prepared = self.statements.lock().get(&name).cloned().ok_or_else(|| {
                    server.sql.errors.fetch_add(1, Ordering::Relaxed);
                    Error::Parse(format!(
                        "unknown prepared statement `{name}`; PREPARE it on this \
                         session first"
                    ))
                })?;
                let result = prepared.execute(&args)?;
                attach_sql_spans(&result, text, parse_start, parse_dur, bind_start, bind_dur);
                Ok(SqlResponse::Rows(result))
            }
        }
    }

    /// Serves a bound, parameter-free SELECT. With auto-parameterization
    /// on, its literals are lifted into parameter slots and bound back,
    /// so the plan cache sees only the template; a statement with nothing
    /// to lift (or auto-parameterization off) is the zero-parameter case.
    /// `trace_this` is `EXPLAIN ANALYZE`.
    fn serve_select(&self, plan: LogicalPlan, trace_this: bool) -> Result<ServeResult> {
        let server = self.server();
        let (plan, literals) = if server.config().sql_auto_param {
            let (template, literals) = plan.lift_literals();
            let counter = if literals.is_empty() {
                &server.sql.exact_fallback
            } else {
                &server.sql.auto_param
            };
            counter.fetch_add(1, Ordering::Relaxed);
            (template, literals)
        } else {
            (plan, Vec::new())
        };
        self.queries.fetch_add(1, Ordering::Relaxed);
        let query = Query::from_plan(plan);
        let stmt = Statement::new(&query, self.optimizer_config(), literals.len());
        let result =
            server.serve_statement(&stmt, &literals, &QueryOptions::default(), trace_this)?;
        if !literals.is_empty() && result.plan_cache_hit {
            server
                .sql
                .auto_param_shape_hits
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok(result)
    }
}

/// Attaches the front-end's parse/bind timings to the query's lifecycle
/// trace (no-op for an untraced query). The spans predate the trace clock,
/// whose offsets saturate at zero — they render first, at depth 0.
fn attach_sql_spans(
    result: &ServeResult,
    text: &str,
    parse_start: Instant,
    parse_dur: Duration,
    bind_start: Instant,
    bind_dur: Duration,
) {
    if let Some(trace) = &result.trace {
        let detail: String = text.chars().take(80).collect();
        trace.add_span("sql_parse", detail.clone(), parse_start, parse_dur, 0);
        trace.add_span("sql_bind", detail, bind_start, bind_dur, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeConfig;
    use context_engine::EngineConfig;
    use cx_embed::ClusteredTextModel;
    use cx_storage::{Column, DataType, Field, Table};

    fn server_with_data(config: ServeConfig) -> Arc<Server> {
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        let specs = cx_datagen::table1_clusters();
        let space = Arc::new(cx_datagen::build_space(&specs, 64, 42));
        engine.register_model(Arc::new(ClusteredTextModel::new("m", space, 7)));
        let products = Table::from_columns(
            Schema::new(vec![
                Field::new("product_id", DataType::Int64),
                Field::new("name", DataType::Utf8),
                Field::new("price", DataType::Float64),
            ]),
            vec![
                Column::from_i64(vec![1, 2, 3, 4, 5]),
                Column::from_strings(["boots", "parka", "kitten", "sneakers", "coat"]),
                Column::from_f64(vec![30.0, 80.0, 10.0, 55.0, 25.0]),
            ],
        )
        .unwrap();
        engine.register_table("products", products).unwrap();
        Server::new(engine, config)
    }

    fn rows(resp: SqlResponse) -> ServeResult {
        match resp {
            SqlResponse::Rows(r) => r,
            other => panic!("expected rows, got {other:?}"),
        }
    }

    #[test]
    fn sql_matches_builder_twin() {
        let server = server_with_data(ServeConfig::default());
        let session = server.session();
        let sql = rows(
            session
                .sql("SELECT name, price FROM products WHERE price > 20.0 ORDER BY name")
                .unwrap(),
        );
        let twin = session
            .table("products")
            .unwrap()
            .filter(cx_expr::col("price").gt(cx_expr::lit(20.0)))
            .select(vec![
                (cx_expr::col("name"), "name"),
                (cx_expr::col("price"), "price"),
            ])
            .sort(&[("name", true)]);
        let direct = server.engine().execute(&twin).unwrap();
        assert_eq!(sql.table.num_rows(), direct.table.num_rows());
        for r in 0..direct.table.num_rows() {
            assert_eq!(sql.table.row(r).unwrap(), direct.table.row(r).unwrap());
        }
    }

    #[test]
    fn auto_param_unifies_shapes_across_literals() {
        let server = server_with_data(ServeConfig::default());
        let session = server.session();
        for price in ["10.0", "20.0", "30.0", "40.0"] {
            rows(
                session
                    .sql(&format!("SELECT name FROM products WHERE price > {price}"))
                    .unwrap(),
            );
        }
        let stats = server.sql_stats();
        assert_eq!(stats.auto_param, 4);
        assert_eq!(stats.auto_param_shape_hits, 3, "{stats:?}");
        // One optimization for four distinct statements.
        assert_eq!(server.plan_cache_stats().misses, 1);
    }

    #[test]
    fn auto_param_off_plans_exactly() {
        let config = ServeConfig {
            sql_auto_param: false,
            ..ServeConfig::default()
        };
        let server = server_with_data(config);
        let session = server.session();
        rows(
            session
                .sql("SELECT name FROM products WHERE price > 10.0")
                .unwrap(),
        );
        rows(
            session
                .sql("SELECT name FROM products WHERE price > 20.0")
                .unwrap(),
        );
        let stats = server.sql_stats();
        assert_eq!(stats.auto_param, 0);
        // Distinct literals are distinct exact fingerprints: two misses.
        assert_eq!(server.plan_cache_stats().misses, 2);
    }

    #[test]
    fn literal_free_statement_falls_back_to_exact() {
        let server = server_with_data(ServeConfig::default());
        let session = server.session();
        rows(session.sql("SELECT * FROM products").unwrap());
        let stats = server.sql_stats();
        assert_eq!(stats.exact_fallback, 1);
        assert_eq!(stats.auto_param, 0);
    }

    #[test]
    fn prepare_execute_roundtrip() {
        let server = server_with_data(ServeConfig::default());
        let session = server.session();
        let SqlResponse::Prepared { name, param_count } = session
            .sql("PREPARE cheap AS SELECT name FROM products WHERE price < $0 ORDER BY name")
            .unwrap()
        else {
            panic!()
        };
        assert_eq!((name.as_str(), param_count), ("cheap", 1));
        let r = rows(session.sql("EXECUTE cheap (20.0)").unwrap());
        assert_eq!(r.table.num_rows(), 1); // kitten
        let r = rows(session.sql("EXECUTE cheap (60.0)").unwrap());
        assert_eq!(r.table.num_rows(), 4);
        // Unknown names and unbound ad-hoc parameters are typed errors.
        assert!(session.sql("EXECUTE nope (1)").is_err());
        assert!(session
            .sql("SELECT * FROM products WHERE price > $0")
            .is_err());
    }

    #[test]
    fn semantic_sql_serves_rows() {
        let server = server_with_data(ServeConfig::default());
        let session = server.session();
        let r = rows(
            session
                .sql(
                    "SELECT name FROM products \
                     WHERE name SEMANTIC LIKE 'clothes' (0.75) ORDER BY name",
                )
                .unwrap(),
        );
        assert_eq!(r.table.num_rows(), 4); // everything but kitten
    }

    #[test]
    fn operator_metrics_do_not_grow_with_literals() {
        let server = server_with_data(ServeConfig::default());
        let session = server.session();
        let targets = ["boots", "parka", "kitten", "coat", "clothes", "pets"];
        for i in 0..30 {
            let t = targets[i % targets.len()];
            for text in [
                format!("SELECT * FROM products WHERE price > {i}.5"),
                format!("SELECT * FROM products LIMIT {}", i + 1),
                format!(
                    "SELECT * FROM products WHERE name SEMANTIC LIKE '{t}' (0.{})",
                    50 + i
                ),
            ] {
                rows(session.sql(&text).unwrap());
            }
        }
        // Thirty literals per shape, one registry entry per operator kind.
        let kinds: Vec<String> = server
            .exec_metrics()
            .snapshot()
            .into_iter()
            .map(|(kind, ..)| kind)
            .collect();
        assert!(kinds.len() <= 3, "{kinds:?}");
        assert!(kinds.iter().all(|k| !k.contains('[')), "{kinds:?}");
    }

    #[test]
    fn explain_and_analyze_render() {
        let server = server_with_data(ServeConfig::default());
        let session = server.session();
        let SqlResponse::Explain(plan) = session
            .sql("EXPLAIN SELECT name FROM products WHERE price > 10.0")
            .unwrap()
        else {
            panic!()
        };
        assert!(plan.contains("products"), "{plan}");
        // ANALYZE serves the statement the way the plain SELECT is served
        // — literal lifted, bound back — and renders the whole statement,
        // front-end included, with tracing off server-wide.
        let SqlResponse::Explain(spans) = session
            .sql("EXPLAIN ANALYZE SELECT name FROM products WHERE price > 10.0")
            .unwrap()
        else {
            panic!()
        };
        for stage in [
            "sql_parse",
            "sql_bind",
            "plan_cache",
            "bind_params",
            "execute",
        ] {
            assert!(spans.contains(stage), "no `{stage}` in:\n{spans}");
        }
        assert!(
            server.last_trace().is_none(),
            "nothing retained with tracing off"
        );
        // It explained the plan the server serves: the plain statement
        // with another literal finds the shape ANALYZE cached.
        let stats = server.sql_stats();
        assert_eq!(
            (stats.auto_param, stats.exact_fallback),
            (1, 0),
            "{stats:?}"
        );
        let r = rows(
            session
                .sql("SELECT name FROM products WHERE price > 50.0")
                .unwrap(),
        );
        assert!(r.plan_cache_hit && r.trace.is_none());
        assert_eq!(server.plan_cache_stats().misses, 1);
    }

    #[test]
    fn traces_carry_parse_and_bind_spans() {
        let config = ServeConfig {
            tracing: true,
            ..ServeConfig::default()
        };
        let server = server_with_data(config);
        let session = server.session();
        let r = rows(
            session
                .sql("SELECT name FROM products WHERE price > 10.0")
                .unwrap(),
        );
        let rendered = r.trace.as_ref().expect("tracing on").render();
        assert!(rendered.contains("sql_parse"), "{rendered}");
        assert!(rendered.contains("sql_bind"), "{rendered}");
    }

    #[test]
    fn errors_are_positioned_and_counted() {
        let server = server_with_data(ServeConfig::default());
        let session = server.session();
        let e = session.sql("SELEC name FROM products").unwrap_err();
        assert!(e.to_string().contains("line 1"), "{e}");
        let e = session.sql("SELECT nope FROM products").unwrap_err();
        assert!(e.to_string().contains("unknown column"), "{e}");
        assert_eq!(server.sql_stats().errors, 2);
        assert!(server.report().contains("sql: 2 statements"));
    }
}
