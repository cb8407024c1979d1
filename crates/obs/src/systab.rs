//! The reserved `cx` system schema: naming rules shared by every layer,
//! plus the bounded incident log the watchdog appends to (queryable as
//! `cx.incidents`).
//!
//! This module is deliberately storage-agnostic: the actual
//! `SystemTableSource` trait (which materializes `Chunk`s) lives in
//! `cx_storage::systab`, and the providers that snapshot live server
//! state live in `cx_serve`. What belongs here is what *every* crate
//! needs to agree on — which names are reserved — and the pure-data
//! incident machinery.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The reserved schema name: user tables may not start with `cx.`.
pub const RESERVED_SCHEMA: &str = "cx";

/// True when `name` lives in the reserved system schema (`cx` itself or
/// any `cx.`-prefixed name).
pub fn is_reserved_name(name: &str) -> bool {
    name == RESERVED_SCHEMA || name.starts_with("cx.")
}

/// One structured watchdog event.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentRecord {
    /// Monotonically increasing sequence number (never reused, survives
    /// eviction from the bounded log).
    pub seq: u64,
    /// Capture time in milliseconds, from the server's injectable
    /// timestamp source (wall clock in production, a fake in tests).
    pub at_ms: u64,
    /// Incident kind: `p99_regression`, `queue_saturation`, `shed_burst`
    /// or `fault_burst`.
    pub kind: &'static str,
    /// Human-readable detail (which histogram, which counter, deltas).
    pub detail: String,
    /// The observed value that tripped the detector.
    pub value: f64,
    /// The threshold it was compared against.
    pub threshold: f64,
}

/// A bounded FIFO of [`IncidentRecord`]s with a total-appended counter.
/// The watchdog appends; `cx.incidents` snapshots. Capacity 0 disables
/// retention (appends still count).
#[derive(Debug)]
pub struct IncidentLog {
    capacity: usize,
    total: AtomicU64,
    log: Mutex<VecDeque<IncidentRecord>>,
}

impl IncidentLog {
    /// A log retaining up to `capacity` incidents.
    pub fn new(capacity: usize) -> Self {
        IncidentLog {
            capacity,
            total: AtomicU64::new(0),
            log: Mutex::new(VecDeque::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<IncidentRecord>> {
        self.log.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends an incident, evicting the oldest beyond capacity. Returns
    /// the assigned sequence number.
    pub fn append(
        &self,
        kind: &'static str,
        detail: String,
        value: f64,
        threshold: f64,
        at_ms: u64,
    ) -> u64 {
        let seq = self.total.fetch_add(1, Ordering::Relaxed);
        if self.capacity > 0 {
            let mut log = self.lock();
            if log.len() == self.capacity {
                log.pop_front();
            }
            log.push_back(IncidentRecord {
                seq,
                at_ms,
                kind,
                detail,
                value,
                threshold,
            });
        }
        seq
    }

    /// The retained incidents, oldest first.
    pub fn recent(&self) -> Vec<IncidentRecord> {
        self.lock().iter().cloned().collect()
    }

    /// Number of retained incidents.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Total incidents ever appended (monotonic, survives eviction).
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// The configured retention capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserved_names() {
        assert!(is_reserved_name("cx"));
        assert!(is_reserved_name("cx.queries"));
        assert!(is_reserved_name("cx.anything.else"));
        assert!(!is_reserved_name("cxqueries"));
        assert!(!is_reserved_name("products"));
        assert!(!is_reserved_name("CX.queries"));
    }

    #[test]
    fn incident_log_bounds_and_sequences() {
        let log = IncidentLog::new(2);
        for i in 0..4 {
            let seq = log.append("shed_burst", format!("burst {i}"), i as f64, 1.0, 100 + i);
            assert_eq!(seq, i);
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.total(), 4);
        let recent = log.recent();
        assert_eq!(recent[0].seq, 2);
        assert_eq!(recent[1].seq, 3);
        assert_eq!(recent[1].at_ms, 103);
        assert_eq!(recent[1].kind, "shed_burst");
    }

    #[test]
    fn zero_capacity_counts_without_retaining() {
        let log = IncidentLog::new(0);
        log.append("fault_burst", "x".into(), 9.0, 3.0, 1);
        assert!(log.is_empty());
        assert_eq!(log.total(), 1);
    }
}
