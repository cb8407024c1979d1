//! Relational substrate: logical plans and vectorized physical execution.
//!
//! The paper's position is that context-rich (model-assisted) operators must
//! live *inside* a conventional analytical engine so they benefit from the
//! same logical/physical optimizations. This crate is that engine:
//!
//! * [`logical`] — the logical plan algebra. It contains both classic
//!   relational nodes (scan/filter/project/join/aggregate/…) and the
//!   paper's three semantic operator nodes (semantic select / join /
//!   group-by, Section IV), so one optimizer rewrites both families,
//! * [`physical`] — the operator trait and chunk-at-a-time executor,
//! * [`operators`] — relational physical operators (scan, filter, project,
//!   hash join, nested-loop join, hash aggregate, sort, limit, distinct,
//!   union); `ORDER BY … LIMIT k` is a sort bounded to k rows, selected
//!   by [`top_n_by`] on column cells compared in place ([`cell_cmp`]),
//! * `keys` (crate-private) — the one keying primitive behind the hash
//!   join, the hash aggregate and DISTINCT: a row's key is hashed and
//!   compared on its column cells in place, and only a key's first
//!   occurrence is materialized. Key equality is [`cx_storage::Scalar`]'s
//!   structural `Eq`: NULL groups with NULL (the join never matches it),
//!   Float64 compares by bit pattern, and Int64 never equals Float64,
//! * [`parallel`] — morsel-style parallel chunk processing on std
//!   scoped threads (the "scale-up" rung of Figure 4),
//! * [`metrics`] — per-operator row/time counters for EXPLAIN ANALYZE-style
//!   reporting.

mod keys;
pub mod logical;
pub mod metrics;
pub mod operators;
pub mod parallel;
pub mod physical;

pub use logical::{
    AggFunc, AggSpec, JoinType, LimitCount, LogicalPlan, SemanticJoinSpec, SemanticTarget,
};
pub use metrics::{ExecMetrics, OperatorMetrics};
pub use operators::{
    cell_cmp, keys_cmp, scalar_cmp, top_n_by, Accumulator, Aggregates, DistinctExec, FilterExec,
    HashAggregateExec, HashJoinExec, LimitExec, NestedLoopJoinExec, ProjectExec, SortExec,
    SystemTableScanExec, TableScanExec, UnionExec,
};
pub use parallel::parallel_map_chunks;
pub use physical::{collect, collect_table, ChunkStream, PhysicalOperator};
