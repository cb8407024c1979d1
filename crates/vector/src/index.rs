//! Search results and probe counters shared by the similarity indexes.

use std::sync::atomic::{AtomicU64, Ordering};

/// One match: row id and cosine similarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchResult {
    pub id: usize,
    pub score: f32,
}

/// Cumulative probe counters, exposed so the optimizer's cost model can be
/// validated against observed work (Section V: index structures "have to be
/// included in the optimization process equally as relational indexes").
#[derive(Debug, Default)]
pub struct IndexStats {
    searches: AtomicU64,
    candidates_examined: AtomicU64,
}

impl IndexStats {
    /// Records one search that examined `candidates` vectors exactly.
    pub fn record_search(&self, candidates: usize) {
        self.searches.fetch_add(1, Ordering::Relaxed);
        self.candidates_examined
            .fetch_add(candidates as u64, Ordering::Relaxed);
    }

    /// Number of searches issued.
    pub fn searches(&self) -> u64 {
        self.searches.load(Ordering::Relaxed)
    }

    /// Total candidates exactly evaluated across searches.
    pub fn candidates_examined(&self) -> u64 {
        self.candidates_examined.load(Ordering::Relaxed)
    }
}

/// Sorts results canonically: descending score, ascending id.
pub fn sort_results(results: &mut [SearchResult]) {
    results.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.id.cmp(&b.id))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accumulate_and_reset() {
        // A fresh counter starts at zero; searches accumulate from there.
        let s = IndexStats::default();
        assert_eq!((s.searches(), s.candidates_examined()), (0, 0));
        s.record_search(10);
        s.record_search(20);
        assert_eq!(s.searches(), 2);
        assert_eq!(s.candidates_examined(), 30);
    }

    #[test]
    fn canonical_sort() {
        let mut r = vec![
            SearchResult { id: 2, score: 0.5 },
            SearchResult { id: 1, score: 0.9 },
            SearchResult { id: 0, score: 0.5 },
        ];
        sort_results(&mut r);
        assert_eq!(r.iter().map(|x| x.id).collect::<Vec<_>>(), vec![1, 0, 2]);
    }
}
