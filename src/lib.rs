//! # context-analytics
//!
//! A reproduction of *"Analytical Engines With Context-Rich Processing:
//! Towards Efficient Next-Generation Analytics"* (Sanca & Ailamaki, ICDE
//! 2023): an analytical engine whose optimizer and executor treat
//! model-assisted **semantic operators** — semantic select, semantic join,
//! semantic group-by — as first-class relational citizens.
//!
//! This umbrella crate re-exports the whole workspace under stable paths:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`storage`] | `cx-storage` | columns, chunks, tables, statistics |
//! | [`expr`] | `cx-expr` | expressions, folding, selectivity |
//! | [`embed`] | `cx-embed` | representation models, caches |
//! | [`vector`] | `cx-vector` | similarity kernels, the f32 arena, cone tiles |
//! | [`exec`] | `cx-exec` | logical plans, relational operators |
//! | [`sql`] | `cx-sql` | SQL front-end: lexer, parser, binder, semantic grammar |
//! | [`semantic`] | `cx-semantic` | semantic operators, consolidation |
//! | [`optimizer`] | `cx-optimizer` | rules, cardinality, cost, planning |
//! | [`kb`] | `cx-kb` | knowledge-base substrate |
//! | [`vision`] | `cx-vision` | image store + simulated detection |
//! | [`datagen`] | `cx-datagen` | deterministic workload generators |
//! | [`engine`] | `context-engine` | the end-to-end engine |
//! | [`obs`] | `cx-obs` | query traces, latency histograms, metrics export |
//! | [`serve`] | `cx-serve` | concurrent serving: plan cache, embed batching, admission |
//!
//! The paper's figure and table reproductions, with the Figure 5 placement
//! model, live in `cx-bench`, which this crate does not re-export.
//!
//! See `examples/quickstart.rs` for a five-minute tour,
//! `examples/serving.rs` for the concurrent serving layer, and
//! `examples/observability.rs` for traces, histograms, and Prometheus
//! export.

pub use context_engine as engine;
pub use cx_datagen as datagen;
pub use cx_embed as embed;
pub use cx_exec as exec;
pub use cx_expr as expr;
pub use cx_kb as kb;
pub use cx_obs as obs;
pub use cx_optimizer as optimizer;
pub use cx_semantic as semantic;
pub use cx_serve as serve;
pub use cx_sql as sql;
pub use cx_storage as storage;
pub use cx_vector as vector;
pub use cx_vision as vision;

pub use context_engine::{Engine, EngineConfig, PlannedQuery, Query, QueryResult};
pub use cx_obs::{Histogram, MetricsSnapshot, QueryTrace};
pub use cx_serve::{
    FaultKind, FaultPlan, FaultSite, FaultStats, LifecycleStats, Prepared, QueryOptions,
    ServeConfig, ServeResult, Server, Session, SqlResponse, SqlStats, WatchdogConfig,
};
