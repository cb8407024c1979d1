//! The paper's new operator class: model-assisted *semantic* operators.
//!
//! Section IV proposes three operator extensions that make context-rich
//! processing declarative:
//!
//! * **Semantic Select** ([`SemanticFilterExec`]) — `column ~ 'target' USING
//!   model M WITH cosine >= θ`,
//! * **Semantic Join** ([`SemanticJoinExec`]) — join keys matched by latent-
//!   space distance instead of equality, by one panel sweep at the storage
//!   tier the planner picks (exact f32, or f16/int8 given a recall
//!   tolerance),
//! * **Semantic Group-By** ([`SemanticGroupByExec`]) — on-the-fly clustering
//!   of values by model similarity with per-cluster aggregates.
//!
//! The filter and the join — and `cx_mqo`'s shared scan over
//! either — reach the similarity kernels through one function:
//! [`sweep`](mod@sweep) owns the distinct pass, the panel build and the
//! panel sweep, so a solo scan is the one-member case of a shared one.
//!
//! On top of the join/group-by machinery, [`consolidate`](mod@consolidate) implements
//! Figure 3's automated result consolidation (deduplication / entity
//! resolution), with pairwise quality metrics against ground truth.
//!
//! [`selectivity`] provides the sampling-based cardinality hooks the
//! holistic optimizer (Section V) uses to cost these operators like any
//! relational operator.

pub mod consolidate;
pub mod filter;
pub mod groupby;
pub mod join;
pub mod selectivity;
pub mod sweep;

pub use consolidate::{consolidate, pairwise_metrics, ConsolidationResult, PairwiseMetrics};
pub use filter::SemanticFilterExec;
pub use groupby::SemanticGroupByExec;
pub use join::SemanticJoinExec;
pub use selectivity::{semantic_filter_selectivity, semantic_join_selectivity};
