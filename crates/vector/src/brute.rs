//! Exact brute-force similarity search.

use crate::arena::{RowBlock, VectorArena};
use crate::block::{dot_block_threshold, TILE};
use crate::index::{sort_results, IndexStats, SearchResult};
use crate::kernels::norm;
use crate::topk::TopK;

/// Exact scan over a normalized vector arena.
///
/// This is the baseline every approximate index is measured against, and —
/// per the optimizer's cost model — the *right* choice for small
/// cardinalities where index build cost dominates. The scan runs on the
/// blocked kernels: candidates are scored a panel at a time via
/// [`dot_block_threshold`], and top-k scans pass the current heap floor
/// so pruned candidates skip write-back. Scores are bit-identical to the
/// pairwise prenormalized kernel. Results are sorted by descending score
/// with ascending-id tie-breaks.
pub struct BruteForceIndex {
    arena: VectorArena,
    stats: IndexStats,
}

impl BruteForceIndex {
    /// Builds the index from an arena (normalizes a copy; the input arena
    /// is the universal vector currency and is typically filled straight
    /// from the embedding cache).
    pub fn build(arena: &VectorArena) -> Self {
        BruteForceIndex {
            arena: arena.normalized(),
            stats: IndexStats::default(),
        }
    }

    /// `query` scaled to unit norm (a zero query as-is) and its norm after
    /// scaling, `(row, 1.0 | 0.0)` — the one-row probe of a scan.
    fn normalized_query(&self, query: &[f32]) -> (Vec<f32>, f32) {
        assert_eq!(query.len(), self.arena.dim(), "query dimension mismatch");
        let n = norm(query);
        if n == 0.0 {
            return (query.to_vec(), 0.0);
        }
        (query.iter().map(|x| x / n).collect(), 1.0)
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// All vectors with cosine similarity ≥ `threshold` to `query`.
    pub fn search_threshold(&self, query: &[f32], threshold: f32) -> Vec<SearchResult> {
        let (q, qn) = self.normalized_query(query);
        self.stats.record_search(self.arena.len());
        let mut out = Vec::new();
        let probe = RowBlock::one(&q, &qn);
        dot_block_threshold(probe, self.arena.as_block(), threshold, |_, id, score| {
            out.push(SearchResult { id, score })
        });
        sort_results(&mut out);
        out
    }

    /// The `k` most similar vectors to `query`.
    pub fn search_topk(&self, query: &[f32], k: usize) -> Vec<SearchResult> {
        let (q, qn) = self.normalized_query(query);
        self.stats.record_search(self.arena.len());
        let mut topk = TopK::new(k);
        let n = self.arena.len();
        for t0 in (0..n).step_by(TILE) {
            let tile = self.arena.block(t0..(t0 + TILE).min(n));
            // Once the heap is full, its floor skips write-back for the
            // tile's losing candidates.
            let floor = topk.threshold().unwrap_or(f32::NEG_INFINITY);
            dot_block_threshold(RowBlock::one(&q, &qn), tile, floor, |_, r, score| {
                topk.push(t0 + r, score)
            });
        }
        topk.into_sorted()
            .into_iter()
            .map(|(id, score)| SearchResult { id, score })
            .collect()
    }

    /// Cumulative probe counters.
    pub fn stats(&self) -> &IndexStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::cosine_prenormalized;

    fn arena(dim: usize, rows: &[&[f32]]) -> VectorArena {
        let mut a = VectorArena::new(dim);
        for r in rows {
            a.push(r);
        }
        a
    }

    fn four_rows() -> VectorArena {
        // Four 4-d vectors: two near e0, one near e1, one diagonal.
        arena(
            4,
            &[&[1.0, 0.0, 0.0, 0.0], &[0.9, 0.1, 0.0, 0.0], &[0.0, 1.0, 0.0, 0.0], &[0.5; 4]],
        )
    }

    #[test]
    fn threshold_search() {
        let idx = BruteForceIndex::build(&four_rows());
        let out = idx.search_threshold(&[1.0, 0.0, 0.0, 0.0], 0.9);
        assert_eq!(out.iter().map(|r| r.id).collect::<Vec<_>>(), vec![0, 1]);
        assert!(out[0].score >= out[1].score);
    }

    #[test]
    fn topk_search() {
        let idx = BruteForceIndex::build(&four_rows());
        let out = idx.search_topk(&[1.0, 0.0, 0.0, 0.0], 3);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].id, 0);
        assert_eq!(out[1].id, 1);
        // k larger than the index returns everything.
        assert_eq!(idx.search_topk(&[1.0, 0.0, 0.0, 0.0], 10).len(), 4);
    }

    #[test]
    fn unnormalized_inputs_handled() {
        let idx = BruteForceIndex::build(&arena(2, &[&[10.0, 0.0], &[0.0, 0.2]]));
        // Scaled query matches direction, not magnitude.
        let out = idx.search_threshold(&[5.0, 0.0], 0.99);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, 0);
        assert!((out[0].score - 1.0).abs() < 1e-5);
    }

    #[test]
    fn stats_count_full_scans() {
        let idx = BruteForceIndex::build(&four_rows());
        idx.search_threshold(&[1.0, 0.0, 0.0, 0.0], 0.5);
        idx.search_topk(&[1.0, 0.0, 0.0, 0.0], 1);
        assert_eq!(idx.stats().searches(), 2);
        assert_eq!(idx.stats().candidates_examined(), 8);
    }

    #[test]
    fn empty_store() {
        let idx = BruteForceIndex::build(&VectorArena::new(3));
        assert!(idx.is_empty());
        assert!(idx.search_threshold(&[1.0, 0.0, 0.0], 0.5).is_empty());
    }

    #[test]
    fn blocked_scan_matches_pairwise_scores_bitwise() {
        use cx_embed::rng::SplitMix64;
        let mut rng = SplitMix64::new(17);
        let mut s = VectorArena::new(24);
        // Enough rows to cross several scan tiles.
        for _ in 0..(3 * TILE + 5) {
            s.push(&rng.unit_vector(24));
        }
        let idx = BruteForceIndex::build(&s);
        let q = rng.unit_vector(24);
        let qn = {
            let n = norm(&q);
            q.iter().map(|x| x / n).collect::<Vec<_>>()
        };
        for r in idx.search_threshold(&q, 0.2) {
            let exact = cosine_prenormalized(&qn, idx.arena.row(r.id));
            assert_eq!(r.score.to_bits(), exact.to_bits(), "id {}", r.id);
        }
        // Top-k with heap pruning returns the same ids as an exhaustive sort.
        let k = 7;
        let got: Vec<usize> = idx.search_topk(&q, k).iter().map(|r| r.id).collect();
        let mut all: Vec<(usize, f32)> = (0..idx.len())
            .map(|i| (i, cosine_prenormalized(&qn, idx.arena.row(i))))
            .collect();
        all.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        let want: Vec<usize> = all[..k].iter().map(|(i, _)| *i).collect();
        assert_eq!(got, want);
    }
}
