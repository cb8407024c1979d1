//! System-table sources: live state exposed as scannable tables.
//!
//! A [`SystemTableSource`] is the storage-level contract behind the
//! reserved `cx.*` schema: a named, schema'd source that materializes a
//! fresh snapshot of some live state into [`Chunk`]s every time it is
//! scanned. Unlike a registered [`crate::Table`] the data is not stored —
//! each scan observes the state at scan time, which is what makes
//! `SELECT`-style queries over the engine's own telemetry (recent
//! queries, histograms, incidents) meaningful while traffic is in
//! flight.
//!
//! Lock discipline for implementors: `snapshot()` runs inside query
//! execution, possibly *while the scanning query itself is being traced
//! and counted*. To make deadlock impossible, a snapshot must take at
//! most one internal lock at a time, clone out quickly, and never call
//! back into query-serving paths.

use crate::chunk::Chunk;
use crate::error::Result;
use crate::schema::Schema;
use std::sync::Arc;

/// A live source behind one reserved `cx.*` table.
pub trait SystemTableSource: Send + Sync + std::fmt::Debug {
    /// The fully qualified table name, e.g. `cx.queries`. Must start
    /// with the reserved `cx.` prefix.
    fn name(&self) -> &str;

    /// The fixed schema every snapshot conforms to.
    fn schema(&self) -> Arc<Schema>;

    /// Materializes the current state as chunks. Called once per scan;
    /// must be cheap (clone counters, format strings) and must follow
    /// the module-level lock discipline.
    fn snapshot(&self) -> Result<Vec<Chunk>>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::schema::Field;
    use crate::types::DataType;
    use std::sync::atomic::{AtomicI64, Ordering};

    #[derive(Debug)]
    struct Ticker {
        schema: Arc<Schema>,
        ticks: AtomicI64,
    }

    impl SystemTableSource for Ticker {
        fn name(&self) -> &str {
            "cx.ticks"
        }
        fn schema(&self) -> Arc<Schema> {
            self.schema.clone()
        }
        fn snapshot(&self) -> Result<Vec<Chunk>> {
            let v = self.ticks.fetch_add(1, Ordering::Relaxed);
            Ok(vec![Chunk::new(
                self.schema.clone(),
                vec![Column::from_i64(vec![v])],
            )?])
        }
    }

    #[test]
    fn snapshots_are_fresh_per_scan() {
        let src = Ticker {
            schema: Arc::new(Schema::new(vec![Field::required("tick", DataType::Int64)])),
            ticks: AtomicI64::new(0),
        };
        let a = src.snapshot().unwrap();
        let b = src.snapshot().unwrap();
        assert_eq!(a[0].column(0).unwrap().i64_values().unwrap(), &[0]);
        assert_eq!(b[0].column(0).unwrap().i64_values().unwrap(), &[1]);
    }
}
