//! The holistic optimizer: one framework for relational *and* semantic
//! operators (Sections IV–V).
//!
//! The paper's central systems argument is that model-assisted operators
//! must be exposed to the same logical and physical optimizations as
//! relational ones — "intuitively, performing expensive model inference …
//! benefits equally, if not more, from correct join orders and filter
//! pushdowns". This crate implements that machinery:
//!
//! * [`context`] — the statistics/model context rewrites consult,
//! * [`cardinality`] — row estimates: histograms and NDV for relational
//!   predicates, embedding-sampling for semantic ones,
//! * [`cost`] — an abstract-ns cost model covering scans, joins, model
//!   inference and similarity search,
//! * [`rules`] — rewrite rules: constant folding, filter merge/pushdown
//!   (through projections, joins, *and* semantic operators), predicate
//!   cascades ordered by selectivity, equi-join extraction, and
//!   data-induced predicates — including the semantic variant that derives
//!   a relaxed semantic filter across a semantic join via the angular
//!   triangle inequality,
//! * [`pruning`] — projection (column) pruning,
//! * [`physical`] — the physical planner: operator implementation and
//!   the bounds folded into sorts and semantic joins,
//! * [`optimizer`] — the driver applying rules to fixpoint with a trace.

pub mod cardinality;
pub mod context;
pub mod cost;
pub mod optimizer;
pub mod physical;
pub mod pruning;
pub mod rules;

pub use cardinality::estimate_rows;
pub use context::{OptimizerConfig, OptimizerContext};
pub use cost::estimate_cost;
pub use optimizer::Optimizer;
pub use physical::{create_physical_plan, PhysicalPlannerEnv};
pub use pruning::prune_columns;
