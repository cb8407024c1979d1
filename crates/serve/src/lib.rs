//! `cx_serve` — the concurrent query-serving subsystem.
//!
//! The engine crates below this one answer *one* query fast; a production
//! deployment answers *many at once*, from many users, over the same data.
//! This crate is that layer. It shares a single [`context_engine::Engine`]
//! (which is `Send + Sync`: catalog, model registry, and embedding caches
//! are all lock-protected shared state) across any number of threads and
//! adds the mechanisms one-shot execution lacks:
//!
//! * **[`PlanCache`]** — repeated and parameterized-identical queries skip
//!   logical optimization; each execution lowers the cached plan from the
//!   engine's planning snapshot (a tree walk). Keyed by
//!   [`LogicalPlan::fingerprint`] ⊕ [`config_fingerprint`], invalidated by
//!   catalog version, LRU-bounded. Each cached plan also memoizes its
//!   result table ([`ServeConfig::cache_results`]): the engine is
//!   deterministic and the entry is pinned to one catalog version, so an
//!   exact replay is the same table and skips execution outright.
//! * **[`CostGate`]** — admission control: a cost-weighted semaphore on
//!   `cx_optimizer::estimate_cost`, bounding the total estimated work
//!   executing at once. Its waits read a clock passed at construction,
//!   so deadline expiry is tested without sleeping.
//! * **[`Prepared`]** — prepared statements with parameter binding: a
//!   template with placeholder slots ([`cx_expr::param`],
//!   `Query::semantic_filter_param`, `Query::limit_param`) is optimized
//!   once per template ⊕ config ⊕ catalog version (an ad-hoc query is
//!   the zero-parameter case of the same serving path);
//!   [`Prepared::execute`] binds values into the cached logical plan,
//!   re-costs admission with the bound literals, lowers the bound plan,
//!   and memoizes results per binding vector.
//! * **SQL** ([`Session::sql`]) — a text front-end (`cx_sql`: SELECT
//!   plus the semantic extensions `SEMANTIC LIKE`, `SEMANTIC JOIN ... ON
//!   SIM(..)`, `GROUP BY SEMANTIC`, and `PREPARE`/`EXECUTE`/`EXPLAIN`)
//!   bound against the live catalog. Ad-hoc statements are
//!   **auto-parameterized** ([`ServeConfig::sql_auto_param`]): literals
//!   lift into parameter slots so same-shaped statements
//!   ([`LogicalPlan::shape_fingerprint`]) share one plan-cache entry —
//!   prepared-statement throughput for plain text, bit-identical
//!   results.
//! * **Observability** (`cx_obs`) — per-query lifecycle traces
//!   ([`ServeConfig::tracing`], rendered EXPLAIN-ANALYZE-style and kept
//!   in a bounded ring plus an optional slow-query log), always-on
//!   latency and queue-wait histograms with p50/p95/p99, and a full
//!   counter registry exportable as Prometheus text or JSON
//!   ([`Server::metrics_snapshot`], [`Server::prometheus`]). Every metric
//!   is declared once: each counter family is a `cx_obs::metric_family!`
//!   table beside the code that bumps it (atomics, `*Stats` struct,
//!   `snapshot()`, export and descriptors all come from it), and
//!   [`metrics`] holds the exporters, the report and [`metric_inventory`].
//!
//! There is no cross-statement embed batcher: a statement embeds through
//! the engine's shared `EmbeddingCache` on its own thread, and a semantic
//! filter or top-k join over a base column reads that column's resident
//! panel, built once (see `docs/ARCHITECTURE.md`, "Embedding across
//! statements").
//!
//! ```
//! use context_engine::{Engine, EngineConfig};
//! use cx_embed::HashNGramModel;
//! use cx_serve::{ServeConfig, Server};
//! use cx_storage::{Column, DataType, Field, Schema, Table};
//! use std::sync::Arc;
//!
//! let engine = Arc::new(Engine::new(EngineConfig::default()));
//! engine.register_model(Arc::new(HashNGramModel::new(42)));
//! let names = Table::from_columns(
//!     Schema::new(vec![Field::new("name", DataType::Utf8)]),
//!     vec![Column::from_strings(["boots", "mug", "boots"])],
//! ).unwrap();
//! engine.register_table("products", names).unwrap();
//!
//! let server = Server::new(engine, ServeConfig::default());
//! let query = server.table("products").unwrap()
//!     .semantic_filter("name", "boots", "hash-ngram", 0.99);
//! // First execution optimizes and caches; the repeat is a plan hit.
//! let cold = server.execute(&query).unwrap();
//! let warm = server.execute(&query).unwrap();
//! assert_eq!(cold.table.num_rows(), 2);
//! assert!(!cold.plan_cache_hit && warm.plan_cache_hit);
//! ```
//!
//! [`LogicalPlan::fingerprint`]: cx_exec::logical::LogicalPlan::fingerprint
//! [`LogicalPlan::shape_fingerprint`]: cx_exec::logical::LogicalPlan::shape_fingerprint

#![deny(missing_docs)]
// Shared-state locks in this crate are the `parking_lot` shim's, whose
// acquisitions and condvar waits recover from poisoning: a panicked peer
// — chaos-injected or genuine — must never brick the server for every
// later query. The lint keeps `.unwrap()`s (and with them std locks) out
// of the serving path; tests assert freely.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod admission;
pub mod faults;
pub mod metrics;
pub mod plan_cache;
pub mod prepared;
pub mod server;
pub mod sql;
pub mod systab;
pub mod watchdog;

pub use admission::{AdmissionStats, CostGate, Permit};
pub use faults::{FaultKind, FaultPlan, FaultSite, FaultStats};
pub use metrics::{metric_inventory, MetricGroup};
pub use plan_cache::{
    config_fingerprint, BindingKey, CachedPlan, PlanCache, PlanCacheStats, PlanEntryInfo,
};
pub use prepared::Prepared;
pub use server::{
    LifecycleStats, ProfileTotalsStats, QueryOptions, ServeConfig, ServeResult, Server,
    ServerStats, Session,
};
pub use sql::{SqlResponse, SqlStats};
pub use watchdog::WatchdogConfig;

#[cfg(test)]
mod tests {
    use super::*;
    use context_engine::{Engine, EngineConfig};
    use cx_embed::ClusteredTextModel;
    use cx_expr::{col, lit};
    use cx_storage::{Column, DataType, Field, Schema, Table};
    use std::sync::Arc;

    fn engine_with_data() -> Arc<Engine> {
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
        let mut kb = cx_kb::KnowledgeBase::new();
        for item in ["boots", "sneakers", "oxfords"] {
            kb.assert_is_a(item, "shoes");
        }
        for item in ["parka", "coat", "windbreaker"] {
            kb.assert_is_a(item, "jacket");
        }
        kb.assert_is_a("shoes", "clothes");
        kb.assert_is_a("jacket", "clothes");
        engine.register_kb("kb", kb).unwrap();
        engine
    }

    #[test]
    fn served_results_match_direct_execution() {
        let engine = engine_with_data();
        let server = Server::new(engine.clone(), ServeConfig::default());
        let q = server
            .table("products")
            .unwrap()
            .semantic_filter("name", "clothes", "m", 0.75)
            .filter(col("price").gt(lit(20.0)))
            .sort(&[("product_id", true)]);
        let direct = engine.execute(&q).unwrap();
        let served = server.execute(&q).unwrap();
        assert_eq!(served.table.num_rows(), direct.table.num_rows());
        for r in 0..direct.table.num_rows() {
            assert_eq!(served.table.row(r).unwrap(), direct.table.row(r).unwrap());
        }
        assert_eq!(served.rules_fired, direct.rules_fired);
    }

    #[test]
    fn plan_cache_hits_on_repeat_and_differs_on_params() {
        let server = Server::new(engine_with_data(), ServeConfig::default());
        let q = |threshold| {
            server
                .table("products")
                .unwrap()
                .semantic_filter("name", "clothes", "m", threshold)
        };
        assert!(!server.execute(&q(0.75)).unwrap().plan_cache_hit);
        assert!(server.execute(&q(0.75)).unwrap().plan_cache_hit);
        // A different parameter is a different fingerprint.
        assert!(!server.execute(&q(0.8)).unwrap().plan_cache_hit);
        let stats = server.plan_cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.len, 2);
    }

    #[test]
    fn catalog_change_invalidates_cached_plans() {
        let server = Server::new(engine_with_data(), ServeConfig::default());
        let q = server
            .table("products")
            .unwrap()
            .filter(col("price").gt(lit(20.0)));
        server.execute(&q).unwrap();
        assert!(server.execute(&q).unwrap().plan_cache_hit);
        // Re-register the table: contents (and stats) may have changed.
        let replacement = Table::from_columns(
            Schema::new(vec![
                Field::new("product_id", DataType::Int64),
                Field::new("name", DataType::Utf8),
                Field::new("price", DataType::Float64),
            ]),
            vec![
                Column::from_i64(vec![9]),
                Column::from_strings(["anvil"]),
                Column::from_f64(vec![99.0]),
            ],
        )
        .unwrap();
        server
            .engine()
            .register_table("products", replacement)
            .unwrap();
        let after = server.execute(&q).unwrap();
        assert!(
            !after.plan_cache_hit,
            "stale plan served after catalog change"
        );
        assert_eq!(after.table.num_rows(), 1);
        assert!(server.plan_cache_stats().invalidations >= 1);
    }

    #[test]
    fn first_execution_embeds_each_distinct_value_once() {
        let config = ServeConfig {
            tracing: true,
            ..ServeConfig::default()
        };
        let server = Server::new(engine_with_data(), config);
        let q = server
            .table("products")
            .unwrap()
            .semantic_filter("name", "clothes", "m", 0.75);
        let trace = server.execute(&q).unwrap().trace.unwrap();
        // The plan-cache miss only optimizes: `optimize` is its one child.
        let spans = trace.spans();
        let miss = spans.iter().find(|s| s.name == "plan_cache").unwrap();
        let under: Vec<_> = spans
            .iter()
            .filter(|s| s.depth == 1 && s.start_ns < miss.start_ns + miss.dur_ns)
            .map(|s| s.name)
            .collect();
        assert_eq!((&*miss.detail, &*under), ("miss", &["optimize"][..]));
        // The 5 product names + the target, each through the shared
        // cache exactly once: the optimizer's sampling and the execution
        // read what the other embedded.
        let cache = server.engine().embedding_cache("m").unwrap();
        assert_eq!(cache.model().stats().invocations(), 6);
    }

    #[test]
    fn sessions_share_the_server() {
        let server = Server::new(engine_with_data(), ServeConfig::default());
        let a = server.session();
        let b = server.session();
        assert_ne!(a.id(), b.id());
        let q = server
            .table("kb")
            .unwrap()
            .filter(col("category").eq(lit("clothes")));
        a.execute(&q).unwrap();
        b.execute(&q).unwrap();
        assert_eq!(a.queries(), 1);
        assert_eq!(b.queries(), 1);
        let stats = server.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.sessions, 2);
        // Second execution hit the first session's cached plan.
        assert!(stats.plan_cache.hits >= 1);
        let report = server.report();
        assert!(report.contains("plan cache"));
        assert!(report.contains("operator metrics"));
    }

    #[test]
    fn result_memo_serves_replays_without_reexecuting() {
        let server = Server::new(engine_with_data(), ServeConfig::default());
        let q = server
            .table("products")
            .unwrap()
            .semantic_filter("name", "clothes", "m", 0.75)
            .sort(&[("product_id", true)]);
        let first = server.execute(&q).unwrap();
        assert!(!first.result_cache_hit);
        let replay = server.execute(&q).unwrap();
        assert!(replay.result_cache_hit && replay.plan_cache_hit);
        assert_eq!(replay.table.num_rows(), first.table.num_rows());
        for r in 0..first.table.num_rows() {
            assert_eq!(replay.table.row(r).unwrap(), first.table.row(r).unwrap());
        }
        // The replay skipped admission entirely.
        assert_eq!(server.admission_stats().admitted, 1);
        assert_eq!(server.stats().result_cache_hits, 1);
        // Catalog changes invalidate the memo along with the plan.
        let t = Table::from_columns(
            Schema::new(vec![
                Field::new("product_id", DataType::Int64),
                Field::new("name", DataType::Utf8),
                Field::new("price", DataType::Float64),
            ]),
            vec![
                Column::from_i64(vec![1]),
                Column::from_strings(["parka"]),
                Column::from_f64(vec![1.0]),
            ],
        )
        .unwrap();
        server.engine().register_table("products", t).unwrap();
        let after = server.execute(&q).unwrap();
        assert!(!after.result_cache_hit);
        assert_eq!(after.table.num_rows(), 1);
    }

    #[test]
    fn prepared_matches_adhoc_bit_for_bit() {
        let engine = engine_with_data();
        let server = Server::new(engine.clone(), ServeConfig::default());
        let session = server.session();
        let template = session
            .table("products")
            .unwrap()
            .semantic_filter_param("name", 0, "m", 0.75)
            .filter(col("price").gt(cx_expr::param(1)))
            .sort(&[("product_id", true)]);
        let prepared = session.prepare(&template).unwrap();
        assert_eq!(prepared.param_count(), 2);
        for (target, price) in [("clothes", 20.0), ("clothes", 50.0), ("cat", 5.0)] {
            let got = prepared
                .execute(&[
                    cx_storage::Scalar::from(target),
                    cx_storage::Scalar::Float64(price),
                ])
                .unwrap();
            let adhoc = engine
                .execute(
                    &engine
                        .table("products")
                        .unwrap()
                        .semantic_filter("name", target, "m", 0.75)
                        .filter(col("price").gt(lit(price)))
                        .sort(&[("product_id", true)]),
                )
                .unwrap();
            assert_eq!(
                got.table.num_rows(),
                adhoc.table.num_rows(),
                "{target}/{price}"
            );
            for r in 0..adhoc.table.num_rows() {
                assert_eq!(got.table.row(r).unwrap(), adhoc.table.row(r).unwrap());
            }
        }
        // Every post-prepare execution resolved through the cached shape.
        let stats = server.plan_cache_stats();
        assert_eq!(stats.misses, 1, "{stats:?}");
        assert!(stats.hits >= 3, "{stats:?}");
        assert_eq!(server.stats().prepared_queries, 3);
    }

    #[test]
    fn prepared_memo_is_per_binding() {
        let server = Server::new(engine_with_data(), ServeConfig::default());
        let session = server.session();
        let template = session
            .table("products")
            .unwrap()
            .semantic_filter_param("name", 0, "m", 0.75);
        let prepared = session.prepare(&template).unwrap();
        let bind = |t: &str| [cx_storage::Scalar::from(t)];
        let first = prepared.execute(&bind("clothes")).unwrap();
        assert!(!first.result_cache_hit);
        // Same binding replays from the per-binding memo without
        // re-admission; a different binding executes.
        let admitted_before = server.admission_stats().admitted;
        let replay = prepared.execute(&bind("clothes")).unwrap();
        assert!(replay.result_cache_hit);
        assert_eq!(server.admission_stats().admitted, admitted_before);
        assert_eq!(replay.table.num_rows(), first.table.num_rows());
        let other = prepared.execute(&bind("cat")).unwrap();
        assert!(!other.result_cache_hit);
        assert_ne!(other.table.num_rows(), first.table.num_rows());
    }

    #[test]
    fn same_shape_different_literals_never_share_a_plan() {
        // Two templates identical up to an *unparameterized* literal
        // share a shape fingerprint; the exact-fingerprint validation
        // must keep them from serving each other's plans.
        let server = Server::new(engine_with_data(), ServeConfig::default());
        let session = server.session();
        let template = |price: f64| {
            session
                .table("products")
                .unwrap()
                .semantic_filter_param("name", 0, "m", 0.75)
                .filter(col("price").gt(lit(price)))
        };
        let a = session.prepare(&template(20.0)).unwrap();
        let b = session.prepare(&template(50.0)).unwrap();
        assert_eq!(a.shape_fingerprint(), b.shape_fingerprint());
        let bind = [cx_storage::Scalar::from("clothes")];
        let rows_a = a.execute(&bind).unwrap().table.num_rows();
        let rows_b = b.execute(&bind).unwrap().table.num_rows();
        assert_eq!(rows_a, 4); // boots 30, parka 80, sneakers 55, coat 25
        assert_eq!(rows_b, 2); // parka, sneakers
                               // And they don't thrash each other's slots either: the exact
                               // fingerprint is part of the key, so interleaved executions with
                               // fresh bindings keep hitting their own cached plans.
        let bind2 = [cx_storage::Scalar::from("cat")];
        assert!(a.execute(&bind2).unwrap().plan_cache_hit);
        assert!(b.execute(&bind2).unwrap().plan_cache_hit);
        assert!(a.execute(&bind).unwrap().result_cache_hit);
    }

    #[test]
    fn type_changing_bindings_match_adhoc_in_projections() {
        // A parameter is untyped at prepare, so `price_id * $0`-style
        // projections freeze a schema from the other operand alone;
        // binding must re-derive both the expression types and the output
        // schema, or a Float64 binding would fail (or truncate) where the
        // literal query succeeds.
        let engine = engine_with_data();
        let server = Server::new(engine.clone(), ServeConfig::default());
        let session = server.session();
        let template = session
            .table("products")
            .unwrap()
            .filter(
                col("product_id")
                    .mul(cx_expr::param(0))
                    .gt(cx_expr::param(1)),
            )
            .select(vec![
                (col("name"), "name"),
                (col("product_id").mul(cx_expr::param(0)), "scaled"),
            ]);
        let prepared = session.prepare(&template).unwrap();
        for scale in [
            cx_storage::Scalar::Float64(0.5),
            cx_storage::Scalar::Int64(2),
        ] {
            let bind = [scale.clone(), cx_storage::Scalar::Float64(1.2)];
            let got = prepared.execute(&bind).unwrap();
            let adhoc = engine
                .execute(
                    &engine
                        .table("products")
                        .unwrap()
                        .filter(
                            col("product_id")
                                .mul(cx_expr::Expr::Literal(scale.clone()))
                                .gt(lit(1.2)),
                        )
                        .select(vec![
                            (col("name"), "name"),
                            (
                                col("product_id").mul(cx_expr::Expr::Literal(scale.clone())),
                                "scaled",
                            ),
                        ]),
                )
                .unwrap();
            assert_eq!(got.table.num_rows(), adhoc.table.num_rows(), "{scale:?}");
            assert_eq!(
                got.table.schema().fields(),
                adhoc.table.schema().fields(),
                "{scale:?}"
            );
            for r in 0..adhoc.table.num_rows() {
                assert_eq!(
                    got.table.row(r).unwrap(),
                    adhoc.table.row(r).unwrap(),
                    "{scale:?}"
                );
            }
        }
    }

    #[test]
    fn non_contiguous_param_slots_rejected_at_prepare() {
        let server = Server::new(engine_with_data(), ServeConfig::default());
        let session = server.session();
        let template = session
            .table("products")
            .unwrap()
            .semantic_filter_param("name", 1, "m", 0.75);
        assert!(session.prepare(&template).is_err());
        // Wrong arity is rejected at execute.
        let ok = session
            .table("products")
            .unwrap()
            .semantic_filter_param("name", 0, "m", 0.75);
        let prepared = session.prepare(&ok).unwrap();
        assert!(prepared.execute(&[]).is_err());
        assert!(prepared
            .execute(&[cx_storage::Scalar::from("x"), cx_storage::Scalar::from("y")])
            .is_err());
        // A non-UTF8 probe binding is a type error, not a panic.
        assert!(prepared.execute(&[cx_storage::Scalar::Int64(3)]).is_err());
    }

    #[test]
    fn semantic_statement_runs_at_once_while_another_is_in_flight() {
        use crate::admission::testing::spin_until;
        use cx_embed::{EmbeddingModel, HashNGramModel, ModelStats};
        use std::sync::atomic::{AtomicBool, Ordering};

        /// A model whose every embedding waits until `held` is cleared.
        struct Blocking {
            inner: HashNGramModel,
            held: AtomicBool,
            entered: AtomicBool,
        }
        impl EmbeddingModel for Blocking {
            fn name(&self) -> &str {
                "blocking"
            }
            fn dim(&self) -> usize {
                self.inner.dim()
            }
            fn embed_into(&self, text: &str, out: &mut [f32]) {
                self.entered.store(true, Ordering::SeqCst);
                while self.held.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                self.inner.embed_into(text, out);
            }
            fn stats(&self) -> &ModelStats {
                self.inner.stats()
            }
        }
        // Releases the model even when a spin below gives up, so a
        // failure reports instead of hanging the scope's joins.
        struct Release<'a>(&'a Blocking);
        impl Drop for Release<'_> {
            fn drop(&mut self) {
                self.0.held.store(false, Ordering::SeqCst);
            }
        }

        let engine = engine_with_data();
        let model = Arc::new(Blocking {
            inner: HashNGramModel::new(3),
            held: AtomicBool::new(true),
            entered: AtomicBool::new(false),
        });
        engine.register_model(model.clone());
        let server = Server::new(engine.clone(), ServeConfig::default());
        // Model "m" starts warm.
        let names = ["boots", "parka", "kitten", "sneakers", "coat", "clothes"];
        engine.embedding_cache("m").unwrap().prefetch(names);
        let filter = server
            .table("products")
            .unwrap()
            .semantic_filter("name", "clothes", "m", 0.75)
            .sort(&[("product_id", true)]);
        // A cold statement held in flight inside the blocked model.
        let pin = server.table("products").unwrap().semantic_group_by(
            "name",
            "blocking",
            0.9,
            vec![cx_exec::logical::AggSpec::count_star("n")],
        );
        let served = std::thread::scope(|s| {
            let release = Release(&model);
            let pinned = s.spawn(|| server.execute(&pin).unwrap());
            spin_until("the pin embeds", || model.entered.load(Ordering::SeqCst));
            // The filter waits for nobody: it returns while the pin is
            // still held.
            let filtered = s.spawn(|| server.execute(&filter).unwrap());
            spin_until("the filter returns", || filtered.is_finished());
            assert!(!pinned.is_finished(), "the pin was released early");
            drop(release);
            pinned.join().unwrap();
            filtered.join().unwrap()
        });
        let solo = engine.execute(&filter).unwrap();
        assert!(solo.table.num_rows() > 0);
        assert_eq!(served.table.num_rows(), solo.table.num_rows());
        for r in 0..solo.table.num_rows() {
            assert_eq!(served.table.row(r).unwrap(), solo.table.row(r).unwrap());
        }
    }

    #[test]
    fn admission_gate_sees_every_query() {
        // Result memo disabled so both executions actually run.
        let config = ServeConfig {
            admission_capacity: 1e12,
            cache_results: false,
            ..ServeConfig::default()
        };
        let server = Server::new(engine_with_data(), config);
        let q = server.table("products").unwrap().limit(2);
        server.execute(&q).unwrap();
        server.execute(&q).unwrap();
        let stats = server.admission_stats();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.active, 0);
        assert_eq!(stats.in_use, 0.0);
    }
}
