//! Sampling-based selectivity estimation for semantic operators.
//!
//! Relational predicates estimate selectivity from histograms; semantic
//! predicates have no such structure, so the optimizer samples: embed a
//! bounded sample of values and measure the match fraction directly. This
//! follows the paper's own line of work on sampling-based AQP in analytical
//! engines (Sanca & Ailamaki, DaMoN'22, cited as \[28\]).

use crate::sweep::count_matches;
use cx_embed::EmbeddingCache;
use std::sync::Arc;

/// Default cap on sampled values.
pub const DEFAULT_SAMPLE: usize = 256;

/// Deterministic stride sample of up to `cap` items from `values`.
fn stride_sample(values: &[String], cap: usize) -> Vec<&str> {
    if values.is_empty() || cap == 0 {
        return Vec::new();
    }
    // Odd stride so periodic data (e.g. round-robin generators) cannot
    // alias with the sampling pattern.
    let stride = ((values.len() / cap).max(1)) | 1;
    values
        .iter()
        .step_by(stride)
        .take(cap)
        .map(|s| s.as_str())
        .collect()
}

/// Estimated fraction of `values` whose embedding is within `threshold`
/// cosine of `target`'s embedding. Returns a value in `[0, 1]`.
pub fn semantic_filter_selectivity(
    cache: &Arc<EmbeddingCache>,
    target: &str,
    values: &[String],
    threshold: f32,
    sample_cap: usize,
) -> f64 {
    let sample = stride_sample(values, sample_cap);
    if sample.is_empty() {
        return 0.0;
    }
    count_matches(cache, &sample, &[target], threshold) as f64 / sample.len() as f64
}

/// Estimated fraction of (left, right) value pairs within `threshold`
/// cosine similarity. Samples up to `sample_cap` values per side
/// (`sample_cap²` pair evaluations).
pub fn semantic_join_selectivity(
    cache: &Arc<EmbeddingCache>,
    left_values: &[String],
    right_values: &[String],
    threshold: f32,
    sample_cap: usize,
) -> f64 {
    let left = stride_sample(left_values, sample_cap);
    let right = stride_sample(right_values, sample_cap);
    if left.is_empty() || right.is_empty() {
        return 0.0;
    }
    count_matches(cache, &right, &left, threshold) as f64 / (left.len() * right.len()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_embed::{ClusterGeometry, ClusterSpec, ClusteredTextModel, SemanticSpace};

    fn cache() -> Arc<EmbeddingCache> {
        let space = SemanticSpace::build(
            &[
                ClusterSpec::new("dog", &["canine", "puppy", "hound", "mutt"]),
                ClusterSpec::new("rock", &["granite", "basalt", "quartz", "slate"]),
            ],
            64,
            42,
            ClusterGeometry::default(),
        );
        Arc::new(EmbeddingCache::new(Arc::new(ClusteredTextModel::new(
            "m",
            Arc::new(space),
            7,
        ))))
    }

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn filter_selectivity_matches_ground_truth() {
        let c = cache();
        let values = strings(&["canine", "puppy", "granite", "basalt", "quartz"]);
        let sel = semantic_filter_selectivity(&c, "dog", &values, 0.85, 100);
        assert!((sel - 0.4).abs() < 1e-9, "got {sel}");
        // Nothing matches a 1.0 threshold except exact value.
        let sel = semantic_filter_selectivity(&c, "dog", &values, 0.9999, 100);
        assert_eq!(sel, 0.0);
    }

    #[test]
    fn join_selectivity_reflects_cluster_overlap() {
        let c = cache();
        let left = strings(&["canine", "puppy", "granite"]);
        let right = strings(&["hound", "basalt", "slate"]);
        // dog-cluster pairs: 2×1; rock pairs: 1×2 → 4 of 9. Member-to-member
        // similarity within a cluster is ≈0.89 under the default geometry,
        // so probe below that boundary.
        let sel = semantic_join_selectivity(&c, &left, &right, 0.8, 100);
        assert!((sel - 4.0 / 9.0).abs() < 1e-9, "got {sel}");
    }

    #[test]
    fn empty_inputs_yield_zero() {
        let c = cache();
        assert_eq!(semantic_filter_selectivity(&c, "dog", &[], 0.9, 10), 0.0);
        assert_eq!(
            semantic_join_selectivity(&c, &strings(&["a"]), &[], 0.9, 10),
            0.0
        );
    }

    #[test]
    fn sampling_caps_work() {
        let c = cache();
        let values: Vec<String> = (0..1000)
            .map(|i| if i % 2 == 0 { "canine" } else { "granite" }.to_string())
            .collect();
        let sel = semantic_filter_selectivity(&c, "dog", &values, 0.85, 16);
        assert!((sel - 0.5).abs() < 0.1, "got {sel}");
        // Only the sample was embedded (plus the target): 2 distinct strings
        // regardless of cap.
        assert!(c.len() <= 3);
    }
}
