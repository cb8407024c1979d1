//! Error type shared by the storage layer.

use std::fmt;

/// A query-lifecycle failure: the query was stopped (or refused) for a
/// policy reason, not because its inputs were malformed.
///
/// These travel inside [`Error::Query`] so the ubiquitous [`Result`]
/// alias carries them through every operator without signature changes,
/// while servers can still `match` on the typed cause to pick a
/// degradation policy (shed, retry, give up).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The query's deadline passed before it finished. Checked
    /// cooperatively between chunks/tiles, so a query overshoots its
    /// deadline by at most one tile of work.
    DeadlineExceeded,
    /// The query's cancellation token was triggered.
    Cancelled,
    /// The query allocated more than its memory budget allows.
    /// `allocated`/`limit` are bytes; enforcement lags the offending
    /// allocation by at most one chunk/panel (the charge is recorded
    /// first, the typed error surfaces at the next cooperative check).
    MemoryBudget {
        /// Bytes the query had allocated when the budget tripped.
        allocated: u64,
        /// The configured budget in bytes.
        limit: u64,
    },
    /// The server's admission queue is at its configured depth bound;
    /// the query was shed instead of queued unboundedly.
    QueueFull {
        /// Queries already waiting for admission.
        queued: usize,
        /// The configured `max_queued` bound.
        max: usize,
    },
    /// A transient fault (injected or real: a panicked drain, a failed
    /// embedding batch). Safe to retry once at solo cost.
    Transient(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            QueryError::Cancelled => write!(f, "query cancelled"),
            QueryError::MemoryBudget { allocated, limit } => {
                write!(
                    f,
                    "query memory budget exceeded: allocated {allocated} B, limit {limit} B"
                )
            }
            QueryError::QueueFull { queued, max } => {
                write!(f, "admission queue full: {queued} waiting, bound {max}")
            }
            QueryError::Transient(msg) => write!(f, "transient fault: {msg}"),
        }
    }
}

/// Storage-layer error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A column or field name was not found in a schema.
    ColumnNotFound(String),
    /// Two values/columns had incompatible types for the attempted operation.
    TypeMismatch { expected: String, actual: String },
    /// Columns in a chunk (or chunks in a table) had inconsistent lengths.
    LengthMismatch { expected: usize, actual: usize },
    /// An index was out of bounds.
    IndexOutOfBounds { index: usize, len: usize },
    /// Malformed input (e.g. SQL text that fails to parse or bind).
    Parse(String),
    /// Catch-all for invalid arguments.
    InvalidArgument(String),
    /// A query-lifecycle failure (deadline, cancellation, budget, shed,
    /// transient fault) — see [`QueryError`].
    Query(QueryError),
}

impl Error {
    /// Whether this error is safe to retry once (transient faults are;
    /// deadline/cancel/budget/shape errors are not).
    pub fn is_transient(&self) -> bool {
        matches!(self, Error::Query(QueryError::Transient(_)))
    }

    /// The query-lifecycle cause, if this is a lifecycle error.
    pub fn as_query(&self) -> Option<&QueryError> {
        match self {
            Error::Query(q) => Some(q),
            _ => None,
        }
    }
}

impl From<QueryError> for Error {
    fn from(q: QueryError) -> Self {
        Error::Query(q)
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ColumnNotFound(name) => write!(f, "column not found: {name}"),
            Error::TypeMismatch { expected, actual } => {
                write!(f, "type mismatch: expected {expected}, got {actual}")
            }
            Error::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: expected {expected}, got {actual}")
            }
            Error::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for length {len}")
            }
            Error::Parse(msg) => write!(f, "parse error: {msg}"),
            Error::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            Error::Query(q) => write!(f, "{q}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used across the storage crate.
pub type Result<T> = std::result::Result<T, Error>;
