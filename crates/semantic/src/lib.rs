//! The paper's new operator class: model-assisted *semantic* operators.
//!
//! Section IV proposes three operator extensions that make context-rich
//! processing declarative:
//!
//! * **Semantic Select** ([`SemanticFilterExec`]) — `column ~ 'target' USING
//!   model M WITH cosine >= θ`,
//! * **Semantic Join** ([`SemanticJoinExec`]) — join keys matched by latent-
//!   space distance instead of equality, by one exact f32 panel sweep,
//! * **Semantic Group-By** ([`SemanticGroupByExec`]) — on-the-fly clustering
//!   of values by model similarity with per-cluster aggregates.
//!
//! Every similarity score is computed in one module: [`sweep`](mod@sweep)
//! owns the distinct pass, the panel build and the panel sweep, so a
//! filter is the one-probe case of a join; the group-by clusters its
//! distinct values there too ([`sweep::cluster`]), one probe per value
//! against its clusters' fixed leaders.
//!
//! [`consolidate`](mod@consolidate) implements Figure 3's automated
//! result consolidation (deduplication / entity resolution) with the
//! group-by's clustering, plus pairwise quality metrics against ground
//! truth.
//!
//! [`selectivity`] provides the sampling-based cardinality hooks the
//! holistic optimizer (Section V) uses to cost these operators like any
//! relational operator; its probes count matches over the sweep's tile
//! loop, outside any span.

pub mod consolidate;
pub mod filter;
pub mod groupby;
pub mod join;
pub mod panel;
pub mod selectivity;
pub mod sweep;

pub use consolidate::{consolidate, pairwise_metrics, ConsolidationResult, PairwiseMetrics};
pub use filter::SemanticFilterExec;
pub use groupby::SemanticGroupByExec;
pub use join::SemanticJoinExec;
pub use selectivity::{semantic_filter_selectivity, semantic_join_selectivity};

#[cfg(test)]
mod tests {
    use crate::sweep::sweep;
    use cx_embed::{EmbeddingCache, HashNGramModel};
    use cx_storage::QueryContext;
    use cx_vector::kernels::{dot_unrolled, norm};
    use std::sync::Arc;

    /// Unit-norm copy of `v` (a zero vector stays zero).
    fn unit(v: &[f32]) -> Vec<f32> {
        let n = norm(v);
        v.iter().map(|&x| if n > 0.0 { x / n } else { x }).collect()
    }

    #[test]
    fn filter_sweep_matches_pairwise_cosine_bit_for_bit() {
        let cache = EmbeddingCache::new(Arc::new(HashNGramModel::new(7)));
        let candidates = ["boots", "parka", "mug"];
        let ctx = QueryContext::default();
        let mut matched = 0;
        for target in ["shoe", "coat"] {
            // A semantic filter's sweep: its target is the one probe row.
            let hits = sweep(&cache, &candidates, &[target], 0.1, 1, &ctx).unwrap();
            let got: Vec<(u32, u32)> = hits.iter().map(|&(_, j, s)| (j, s.to_bits())).collect();
            // Its complete match list at the threshold, scored as the bare
            // dot of unit-normalized embeddings, in candidate order.
            let t = unit(&cache.get(target));
            let want: Vec<(u32, u32)> = candidates
                .iter()
                .enumerate()
                .map(|(j, v)| (j as u32, dot_unrolled(&t, &unit(&cache.get(v)))))
                .filter(|&(_, s)| s >= 0.1)
                .map(|(j, s)| (j, s.to_bits()))
                .collect();
            assert_eq!(got, want, "{target}");
            matched += got.len();
        }
        assert!(matched > 0, "the threshold keeps some pair");
    }
}
