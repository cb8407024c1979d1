//! Low-overhead observability for the context-analytics engine.
//!
//! Three layers, deliberately dependency-free so every crate in the
//! workspace can instrument itself without cycles:
//!
//! 1. **Query traces** ([`QueryTrace`], [`span`], [`install_trace`]) — a
//!    per-query record of timestamped, nested spans plus point-in-time
//!    events (retries, injected faults). A site records iff a trace is
//!    installed on the thread it runs on; otherwise it costs **one
//!    thread-local flag load** — no allocation, no lock, no clock read.
//!    That property is regression tested through [`span_allocations`].
//! 2. **Histograms** ([`Histogram`]) — HDR-style log-linear latency
//!    histograms with bounded relative error (32 sub-buckets per power of
//!    two, ≤ ~3.2% quantile error) and exact count/sum/min/max, safe to
//!    record into concurrently from any thread.
//! 3. **Export** ([`MetricsSnapshot`]) — a flat registry of named metrics
//!    (counters, gauges, histogram summaries) serializable to the
//!    Prometheus text exposition format and to JSON, with an in-tree
//!    exposition-format parser ([`promparse`]) used as a lint by benches
//!    and CI. A counter family is declared once, as a [`metric_family!`].
//!
//! Nothing here is switched on process-wide. Recording is armed by the
//! handle the serving layer installs on the executing thread — a
//! [`QueryTrace`] via [`install_trace`] for spans and events, an open
//! [`ProfileSpan`] for the allocator and kernel counters — so two servers
//! (or two tests) in one process with different settings never observe
//! each other.

#![deny(missing_docs)]

pub mod export;
pub mod family;
pub mod hist;
pub mod profile;
pub mod promparse;
pub mod ring;
pub mod systab;
pub mod trace;

pub use export::{Metric, MetricValue, MetricsSnapshot, STAMP_MS, STAMP_SEQUENCE};
pub use family::{MetricDesc, MetricFamily, MetricKind};
pub use hist::{BucketCount, HistSnapshot, Histogram};
pub use profile::{add_pairs, add_tiles, CountingAlloc, ProfileSpan, QueryProfile};
pub use ring::TraceRing;
pub use systab::{is_reserved_name, IncidentLog, IncidentRecord};
pub use trace::{
    event, install_trace, span, span_allocations, span_with, EventRecord, QueryTrace, Span,
    SpanRecord, TraceScope,
};
