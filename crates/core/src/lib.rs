//! The context-rich analytical engine — the paper's primary contribution.
//!
//! "We envision an analytical engine that declaratively combines
//! context-rich processing with traditional data sources to hide from the
//! user the complexity of logical and physical optimization, underlying
//! hardware, and resulting on-the-fly data integration." (Section I)
//!
//! This crate assembles every substrate into that engine:
//!
//! * [`Catalog`] — the polystore surface: relational tables, knowledge
//!   bases (exported as relations), image stores with simulated detection,
//!   and named representation models,
//! * [`Query`] — the declarative builder mixing relational verbs
//!   (`filter`, `join`, `aggregate`, …) with the paper's semantic verbs
//!   (`semantic_filter`, `semantic_join`, `semantic_group_by`),
//! * [`Engine`] — end-to-end processing: statistics, holistic logical
//!   optimization, cost-based physical planning, vectorized execution,
//!   and EXPLAIN with the rule trace.
//!
//! ```
//! use context_engine::{Engine, EngineConfig};
//! use cx_expr::{col, lit};
//! use cx_storage::{Column, Field, Schema, Table, DataType};
//! use cx_embed::HashNGramModel;
//! use std::sync::Arc;
//!
//! let mut engine = Engine::new(EngineConfig::default());
//! engine.register_model(Arc::new(HashNGramModel::new(42)));
//! let products = Table::from_columns(
//!     Schema::new(vec![
//!         Field::new("name", DataType::Utf8),
//!         Field::new("price", DataType::Float64),
//!     ]),
//!     vec![
//!         Column::from_strings(["boots", "mug", "boots"]),
//!         Column::from_f64(vec![30.0, 8.0, 55.0]),
//!     ],
//! ).unwrap();
//! engine.register_table("products", products).unwrap();
//!
//! let query = engine.table("products").unwrap()
//!     .filter(col("price").gt(lit(20.0)))
//!     .semantic_filter("name", "boots", "hash-ngram", 0.99);
//! let result = engine.execute(&query).unwrap();
//! assert_eq!(result.table.num_rows(), 2);
//! ```

pub mod catalog;
pub mod engine;
pub mod query;

pub use catalog::Catalog;
pub use engine::{Engine, EngineConfig, PlannedQuery, QueryResult};
pub use query::Query;
