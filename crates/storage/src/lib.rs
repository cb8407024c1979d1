//! Column-oriented in-memory storage for the context-rich analytical engine.
//!
//! This crate provides the data representation every other crate builds on:
//!
//! * [`DataType`] / [`Scalar`] — the logical type system and single values,
//! * [`Bitmap`] — packed validity (null) bitmaps,
//! * [`Column`] — typed, contiguous column vectors with optional validity,
//!   held in shared immutable buffers (a clone is a refcount bump),
//! * [`Chunk`] — a horizontal slice of a table (a batch of rows, stored
//!   column-wise) which is the unit of vectorized execution,
//! * [`Schema`] / [`Field`] — named, typed column descriptors,
//! * [`Table`] — an in-memory table as a schema plus a list of chunks,
//! * [`stats`] — per-column statistics (min/max, null count, distinct
//!   estimate, equi-width histograms) driving optimizer decisions,
//! * [`qctx`] — the query lifecycle context (deadline, cooperative
//!   cancellation, memory budget) hot loops check between chunks/tiles.
//!
//! Everything is deliberately dependency-light and deterministic so the
//! engine's experiments are reproducible.

pub mod bitmap;
pub mod builder;
pub mod chunk;
pub mod column;
pub mod error;
pub mod qctx;
pub mod scalar;
pub mod schema;
pub mod stats;
pub mod systab;
pub mod table;
pub mod types;

pub use bitmap::Bitmap;
pub use builder::{ColumnBuilder, RowBuilder};
pub use chunk::Chunk;
pub use column::Column;
pub use error::{Error, QueryError, Result};
pub use qctx::{CancelToken, MemoryBudget, QueryContext};
pub use scalar::Scalar;
pub use schema::{Field, Schema};
pub use stats::{ColumnStats, Histogram, TableStats};
pub use systab::SystemTableSource;
pub use table::Table;
pub use types::DataType;

/// Default number of rows per [`Chunk`] used by vectorized operators.
pub const DEFAULT_CHUNK_ROWS: usize = 4096;
