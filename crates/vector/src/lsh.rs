//! Random-hyperplane locality-sensitive hashing for cosine similarity.
//!
//! Classic SimHash construction: each table hashes a vector to a `bits`-bit
//! signature of hyperplane sign tests; vectors colliding with the query in
//! *any* table become candidates, which are then verified exactly. For two
//! vectors at angle θ the per-bit collision probability is `1 − θ/π`, so
//! high-similarity pairs collide with high probability while the index
//! prunes the vast dissimilar majority — the index-based access path the
//! paper says the optimizer must cost (Section IV).
//!
//! The index is arena-native end to end. Vectors live in a normalized
//! [`VectorArena`]; hyperplanes form one padded panel, so build-time
//! signatures come from [`scores_matrix`] tiles (row tile × every plane of
//! every table in one GEMM-shaped call) and a query's signatures from a
//! single [`dot_block`] over the plane panel. Probe-list verification
//! gathers the colliding rows into a contiguous scratch panel and scores
//! them with one [`dot_block`] call per query — never a per-candidate
//! pairwise loop — with scores bit-identical to the pairwise prenormalized
//! kernel.

use crate::arena::{VectorArena, ROW_ALIGN_FLOATS};
use crate::block::{dot_block, scores_matrix, TILE};
use crate::index::{sort_results, IndexStats, SearchResult};
use crate::kernels::norm;
use crate::topk::TopK;
use cx_embed::rng::SplitMix64;
use std::collections::HashMap;

/// Tuning parameters for [`LshIndex`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LshParams {
    /// Signature bits per table (higher = fewer, purer candidates).
    pub bits: usize,
    /// Number of independent tables (higher = better recall).
    pub tables: usize,
    /// Seed for hyperplane generation.
    pub seed: u64,
}

impl Default for LshParams {
    fn default() -> Self {
        LshParams { bits: 12, tables: 8, seed: 0x15AC }
    }
}

/// Multi-table random-hyperplane LSH index. Results are sorted by
/// descending score with ascending-id tie-breaks.
pub struct LshIndex {
    /// Normalized vectors in padded arena layout.
    arena: VectorArena,
    /// `tables × bits` hyperplanes as one padded panel: plane `p` occupies
    /// `planes[p * pstride .. p * pstride + dim]`.
    planes: Vec<f32>,
    /// Floats between consecutive plane rows.
    pstride: usize,
    params: LshParams,
    /// One bucket map per table: signature → row ids.
    buckets: Vec<HashMap<u64, Vec<u32>>>,
    stats: IndexStats,
}

impl LshIndex {
    /// Builds the index over `arena` with `params`.
    pub fn build(arena: &VectorArena, params: LshParams) -> Self {
        assert!(params.bits > 0 && params.bits <= 64, "bits must be in 1..=64");
        assert!(params.tables > 0, "at least one table required");
        let data = arena.normalized();
        let dim = data.dim();
        let pstride = dim.next_multiple_of(ROW_ALIGN_FLOATS);
        let mut rng = SplitMix64::new(params.seed);
        let total_planes = params.tables * params.bits;
        let mut planes = vec![0.0f32; total_planes * pstride];
        for p in 0..total_planes {
            planes[p * pstride..p * pstride + dim].copy_from_slice(&rng.unit_vector(dim));
        }

        // Batched signature build: score row tiles against the whole plane
        // panel at once, then split each row's sign pattern into per-table
        // signatures.
        let mut buckets: Vec<HashMap<u64, Vec<u32>>> = vec![HashMap::new(); params.tables];
        let n = data.len();
        let mut scores = vec![0.0f32; TILE * total_planes];
        for t0 in (0..n).step_by(TILE) {
            let tile = data.block(t0..(t0 + TILE).min(n));
            scores_matrix(
                tile.data,
                tile.stride,
                tile.rows,
                dim,
                &planes,
                pstride,
                total_planes,
                &mut scores[..tile.rows * total_planes],
            );
            for r in 0..tile.rows {
                let dots = &scores[r * total_planes..(r + 1) * total_planes];
                for (t, table) in buckets.iter_mut().enumerate() {
                    let sig = signature_from_dots(&dots[t * params.bits..(t + 1) * params.bits]);
                    table.entry(sig).or_default().push((t0 + r) as u32);
                }
            }
        }

        LshIndex {
            arena: data,
            planes,
            pstride,
            params,
            buckets,
            stats: IndexStats::default(),
        }
    }

    /// Builds with default parameters.
    pub fn build_default(arena: &VectorArena) -> Self {
        Self::build(arena, LshParams::default())
    }

    /// Collects unique candidate ids colliding with `query` in any table.
    /// All `tables × bits` hyperplane tests run as one blocked call.
    fn candidates(&self, query: &[f32]) -> Vec<u32> {
        let total_planes = self.params.tables * self.params.bits;
        let mut dots = vec![0.0f32; total_planes];
        dot_block(query, &self.planes, self.pstride, &mut dots);
        let mut seen: Vec<u32> = Vec::new();
        for (t, table) in self.buckets.iter().enumerate() {
            let sig =
                signature_from_dots(&dots[t * self.params.bits..(t + 1) * self.params.bits]);
            if let Some(ids) = table.get(&sig) {
                seen.extend_from_slice(ids);
            }
        }
        seen.sort_unstable();
        seen.dedup();
        seen
    }

    /// Gathers the candidate rows into a contiguous scratch panel and
    /// scores them with one blocked call: `out[k] = dot(q, row(ids[k]))`,
    /// bit-identical to the pairwise prenormalized kernel.
    fn score_candidates(&self, q: &[f32], ids: &[u32]) -> Vec<f32> {
        let panel = self.arena.gather_rows(ids);
        let view = panel.as_block();
        let mut scores = vec![0.0f32; ids.len()];
        dot_block(q, view.data, view.stride, &mut scores);
        scores
    }

    fn normalized_query(&self, query: &[f32]) -> Vec<f32> {
        assert_eq!(query.len(), self.arena.dim(), "query dimension mismatch");
        let n = norm(query);
        if n == 0.0 {
            return query.to_vec();
        }
        query.iter().map(|x| x / n).collect()
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// All vectors with cosine similarity ≥ `threshold` to `query` among
    /// the candidates colliding with it.
    pub fn search_threshold(&self, query: &[f32], threshold: f32) -> Vec<SearchResult> {
        let q = self.normalized_query(query);
        let candidates = self.candidates(&q);
        self.stats.record_search(candidates.len());
        let scores = self.score_candidates(&q, &candidates);
        let mut out = Vec::new();
        for (&id, &score) in candidates.iter().zip(&scores) {
            if score >= threshold {
                out.push(SearchResult { id: id as usize, score });
            }
        }
        sort_results(&mut out);
        out
    }

    /// The `k` most similar vectors to `query` among the candidates
    /// colliding with it.
    pub fn search_topk(&self, query: &[f32], k: usize) -> Vec<SearchResult> {
        let q = self.normalized_query(query);
        let candidates = self.candidates(&q);
        self.stats.record_search(candidates.len());
        let scores = self.score_candidates(&q, &candidates);
        let mut topk = TopK::new(k);
        for (&id, &score) in candidates.iter().zip(&scores) {
            topk.push(id as usize, score);
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

/// Packs hyperplane dot signs into a signature (bit `b` set iff
/// `dots[b] >= 0`).
#[inline]
fn signature_from_dots(dots: &[f32]) -> u64 {
    let mut sig = 0u64;
    for (b, &d) in dots.iter().enumerate() {
        if d >= 0.0 {
            sig |= 1 << b;
        }
    }
    sig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::BruteForceIndex;

    /// An arena of `n` vectors in `c` tight clusters.
    fn clustered_arena(n: usize, c: usize, dim: usize, seed: u64) -> VectorArena {
        let mut rng = SplitMix64::new(seed);
        let centroids: Vec<Vec<f32>> = (0..c).map(|_| rng.unit_vector(dim)).collect();
        let mut arena = VectorArena::new(dim);
        for i in 0..n {
            let centroid = &centroids[i % c];
            let noise = rng.unit_vector(dim);
            let v: Vec<f32> = centroid
                .iter()
                .zip(&noise)
                .map(|(c, n)| c + 0.25 * n)
                .collect();
            arena.push(&v);
        }
        arena
    }

    #[test]
    fn high_recall_on_near_duplicates() {
        let arena = clustered_arena(500, 10, 64, 3);
        let lsh = LshIndex::build_default(&arena);
        let exact = BruteForceIndex::build(&arena);
        let mut found = 0usize;
        let mut expected = 0usize;
        for probe in 0..50 {
            let q = arena.row(probe).to_vec();
            let truth = exact.search_threshold(&q, 0.9);
            let approx = lsh.search_threshold(&q, 0.9);
            let approx_ids: std::collections::HashSet<usize> =
                approx.iter().map(|r| r.id).collect();
            expected += truth.len();
            found += truth.iter().filter(|r| approx_ids.contains(&r.id)).count();
        }
        let recall = found as f64 / expected as f64;
        assert!(recall > 0.9, "recall {recall}");
    }

    #[test]
    fn prunes_candidates() {
        let arena = clustered_arena(1000, 20, 64, 5);
        let lsh = LshIndex::build_default(&arena);
        lsh.search_threshold(arena.row(0), 0.9);
        // Examined far fewer than the 1,000 indexed rows.
        assert!(
            lsh.stats().candidates_examined() < 600,
            "examined {}",
            lsh.stats().candidates_examined()
        );
    }

    #[test]
    fn no_false_positives_below_threshold() {
        let arena = clustered_arena(200, 5, 32, 9);
        let lsh = LshIndex::build_default(&arena);
        for r in lsh.search_threshold(arena.row(3), 0.95) {
            assert!(r.score >= 0.95);
        }
    }

    #[test]
    fn topk_subset_of_candidates() {
        let arena = clustered_arena(300, 6, 32, 11);
        let lsh = LshIndex::build_default(&arena);
        let out = lsh.search_topk(arena.row(0), 5);
        assert!(out.len() <= 5);
        // Self-match is the best result.
        assert_eq!(out[0].id, 0);
        assert!((out[0].score - 1.0).abs() < 1e-5);
    }

    #[test]
    fn deterministic_builds() {
        let arena = clustered_arena(100, 4, 16, 1);
        let a = LshIndex::build_default(&arena);
        let b = LshIndex::build_default(&arena);
        assert_eq!(
            a.search_threshold(arena.row(7), 0.8),
            b.search_threshold(arena.row(7), 0.8)
        );
    }

    #[test]
    fn blocked_probe_scores_match_pairwise_kernel_bitwise() {
        use crate::kernels::cosine_prenormalized;
        let arena = clustered_arena(200, 4, 24, 7);
        let lsh = LshIndex::build_default(&arena);
        let q = lsh.normalized_query(arena.row(5));
        for r in lsh.search_threshold(arena.row(5), 0.3) {
            let exact = cosine_prenormalized(&q, lsh.arena.row(r.id));
            assert_eq!(r.score.to_bits(), exact.to_bits(), "id {}", r.id);
        }
    }

    #[test]
    #[should_panic(expected = "bits must be in 1..=64")]
    fn invalid_bits_panics() {
        LshIndex::build(&VectorArena::new(4), LshParams { bits: 0, tables: 1, seed: 1 });
    }
}
