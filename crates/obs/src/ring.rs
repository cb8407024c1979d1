//! A bounded ring of recent query traces.

use crate::trace::QueryTrace;
use std::collections::VecDeque;
use std::sync::Mutex;

/// Keeps the `capacity` most recent finished traces; older traces are
/// evicted FIFO. `capacity == 0` disables retention entirely.
#[derive(Debug)]
pub struct TraceRing {
    capacity: usize,
    ring: Mutex<VecDeque<QueryTrace>>,
}

impl TraceRing {
    /// A ring retaining up to `capacity` traces.
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            capacity,
            ring: Mutex::new(VecDeque::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<QueryTrace>> {
        self.ring.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when no traces are retained.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Pushes a finished trace, evicting the oldest beyond capacity.
    pub fn push(&self, trace: QueryTrace) {
        if self.capacity == 0 {
            return;
        }
        let mut ring = self.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// The retained traces, oldest first.
    pub fn recent(&self) -> Vec<QueryTrace> {
        self.lock().iter().cloned().collect()
    }

    /// The most recently pushed trace, if any.
    pub fn last(&self) -> Option<QueryTrace> {
        self.lock().back().cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_fifo_eviction() {
        let ring = TraceRing::new(3);
        for i in 0..5 {
            ring.push(QueryTrace::new(format!("q{i}")));
        }
        assert_eq!(ring.len(), 3);
        let labels: Vec<String> = ring.recent().iter().map(|t| t.label()).collect();
        assert_eq!(labels, vec!["q2", "q3", "q4"]);
        assert_eq!(ring.last().unwrap().label(), "q4");
    }

    #[test]
    fn zero_capacity_disables_retention() {
        let ring = TraceRing::new(0);
        ring.push(QueryTrace::new("q"));
        assert!(ring.is_empty());
        assert!(ring.last().is_none());
    }
}
