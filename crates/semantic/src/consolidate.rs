//! On-the-fly result consolidation (Figure 3).
//!
//! "Data cleaning, deduplication, entity resolution … a tedious and
//! domain-expert task becomes completely automated, allowing on-the-fly
//! result consolidation based on context." This module provides the greedy
//! online clusterer behind the semantic group-by, a direct consolidation
//! API over string collections, and pairwise quality metrics so experiments
//! can report purity/recall against ground truth — something the paper's
//! prototype could only eyeball.

use cx_embed::EmbeddingCache;
use cx_vector::kernels::{dot_unrolled, norm};
use std::collections::HashMap;
use std::sync::Arc;

/// Greedy online clustering in embedding space.
///
/// Values stream in; each joins the existing cluster whose *mean* embedding
/// is within `threshold` cosine similarity (best match wins), or founds a
/// new cluster. One pass, no global optimization — this is the online
/// regime the paper requires ("data cannot be cleaned ahead of time").
pub struct OnlineClusterer {
    dim: usize,
    threshold: f32,
    /// Unnormalized sums of member embeddings (cosine against the sum
    /// equals cosine against the mean).
    sums: Vec<Vec<f32>>,
    sum_norms: Vec<f32>,
    counts: Vec<usize>,
    representatives: Vec<String>,
}

impl OnlineClusterer {
    /// A clusterer over `dim`-dimensional embeddings.
    pub fn new(dim: usize, threshold: f32) -> Self {
        assert!(
            (0.0..=1.0).contains(&threshold),
            "threshold must be in [0,1]"
        );
        OnlineClusterer {
            dim,
            threshold,
            sums: Vec::new(),
            sum_norms: Vec::new(),
            counts: Vec::new(),
            representatives: Vec::new(),
        }
    }

    /// Assigns `value` (with embedding `emb`) to a cluster, returning the
    /// cluster id. The first member becomes the representative.
    pub fn assign(&mut self, value: &str, emb: &[f32]) -> usize {
        assert_eq!(emb.len(), self.dim, "embedding dimension mismatch");
        let emb_norm = norm(emb);
        let mut best: Option<(usize, f32)> = None;
        for (id, sum) in self.sums.iter().enumerate() {
            let denom = emb_norm * self.sum_norms[id];
            if denom == 0.0 {
                continue;
            }
            let sim = dot_unrolled(emb, sum) / denom;
            if sim >= self.threshold && best.is_none_or(|(_, b)| sim > b) {
                best = Some((id, sim));
            }
        }
        match best {
            Some((id, _)) => {
                for (s, &x) in self.sums[id].iter_mut().zip(emb) {
                    *s += x;
                }
                self.sum_norms[id] = norm(&self.sums[id]);
                self.counts[id] += 1;
                id
            }
            None => {
                self.sums.push(emb.to_vec());
                self.sum_norms.push(emb_norm);
                self.counts.push(1);
                self.representatives.push(value.to_string());
                self.sums.len() - 1
            }
        }
    }

    /// Number of clusters so far.
    pub fn num_clusters(&self) -> usize {
        self.sums.len()
    }

    /// Member count of cluster `id`.
    pub fn cluster_size(&self, id: usize) -> usize {
        self.counts[id]
    }

    /// Representative (first member) of cluster `id`.
    pub fn representative(&self, id: usize) -> &str {
        &self.representatives[id]
    }
}

/// The outcome of consolidating a value collection.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsolidationResult {
    /// Cluster id per input value (input order).
    pub assignments: Vec<usize>,
    /// Representative value per cluster (cluster-id order).
    pub representatives: Vec<String>,
    /// Member input positions per cluster.
    pub members: Vec<Vec<usize>>,
}

impl ConsolidationResult {
    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.representatives.len()
    }

    /// Deduplication ratio: input values per output cluster.
    pub fn dedup_ratio(&self) -> f64 {
        if self.representatives.is_empty() {
            return 1.0;
        }
        self.assignments.len() as f64 / self.representatives.len() as f64
    }
}

/// Consolidates `values`: embeds each through `cache` and clusters online at
/// `threshold`.
pub fn consolidate(
    values: &[&str],
    cache: &Arc<EmbeddingCache>,
    threshold: f32,
) -> ConsolidationResult {
    let mut clusterer = OnlineClusterer::new(cache.dim(), threshold);
    let mut assignments = Vec::with_capacity(values.len());
    for v in values {
        let emb = cache.get(v);
        assignments.push(clusterer.assign(v, &emb));
    }
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); clusterer.num_clusters()];
    for (i, &c) in assignments.iter().enumerate() {
        members[c].push(i);
    }
    ConsolidationResult {
        assignments,
        representatives: clusterer.representatives,
        members,
    }
}

/// Pairwise clustering quality versus ground-truth labels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairwiseMetrics {
    /// Of the pairs the clustering groups together, the fraction that truly
    /// belong together.
    pub precision: f64,
    /// Of the pairs that truly belong together, the fraction grouped.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
}

/// Computes pairwise precision/recall/F1 between predicted cluster ids and
/// ground-truth labels via the contingency table (O(n) space, no O(n²)
/// pair enumeration).
pub fn pairwise_metrics(predicted: &[usize], truth: &[&str]) -> PairwiseMetrics {
    assert_eq!(predicted.len(), truth.len(), "length mismatch");
    let choose2 = |n: u64| -> u64 { n * n.saturating_sub(1) / 2 };

    let mut pred_sizes: HashMap<usize, u64> = HashMap::new();
    let mut truth_sizes: HashMap<&str, u64> = HashMap::new();
    let mut cells: HashMap<(usize, &str), u64> = HashMap::new();
    for (&p, &t) in predicted.iter().zip(truth) {
        *pred_sizes.entry(p).or_default() += 1;
        *truth_sizes.entry(t).or_default() += 1;
        *cells.entry((p, t)).or_default() += 1;
    }

    let same_both: u64 = cells.values().map(|&n| choose2(n)).sum();
    let same_pred: u64 = pred_sizes.values().map(|&n| choose2(n)).sum();
    let same_truth: u64 = truth_sizes.values().map(|&n| choose2(n)).sum();

    let precision = if same_pred == 0 {
        1.0
    } else {
        same_both as f64 / same_pred as f64
    };
    let recall = if same_truth == 0 {
        1.0
    } else {
        same_both as f64 / same_truth as f64
    };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    PairwiseMetrics {
        precision,
        recall,
        f1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_embed::{ClusterGeometry, ClusterSpec, ClusteredTextModel, SemanticSpace};

    fn cache() -> Arc<EmbeddingCache> {
        let space = SemanticSpace::build(
            &[
                ClusterSpec::new("dog", &["canine", "puppy", "hound"]),
                ClusterSpec::new("cat", &["feline", "kitten"]),
                ClusterSpec::new("shoes", &["boots", "sneakers"]),
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

    #[test]
    fn consolidates_synonym_groups() {
        let c = cache();
        let values = [
            "dog", "canine", "feline", "puppy", "cat", "boots", "sneakers",
        ];
        let result = consolidate(&values, &c, 0.82);
        assert_eq!(result.num_clusters(), 3);
        // dog, canine, puppy together.
        assert_eq!(result.assignments[0], result.assignments[1]);
        assert_eq!(result.assignments[0], result.assignments[3]);
        // feline with cat.
        assert_eq!(result.assignments[2], result.assignments[4]);
        // First member is the representative.
        assert_eq!(result.representatives[result.assignments[0]], "dog");
        assert!((result.dedup_ratio() - 7.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn threshold_one_separates_everything_distinct() {
        let c = cache();
        let values = ["dog", "canine", "dog"];
        let result = consolidate(&values, &c, 0.999);
        // Only identical strings collapse.
        assert_eq!(result.num_clusters(), 2);
        assert_eq!(result.assignments[0], result.assignments[2]);
    }

    #[test]
    fn perfect_metrics_for_perfect_clustering() {
        let m = pairwise_metrics(&[0, 0, 1, 1], &["a", "a", "b", "b"]);
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.recall, 1.0);
        assert_eq!(m.f1, 1.0);
    }

    #[test]
    fn over_merging_hurts_precision_not_recall() {
        let m = pairwise_metrics(&[0, 0, 0, 0], &["a", "a", "b", "b"]);
        assert_eq!(m.recall, 1.0);
        assert!(m.precision < 0.5);
    }

    #[test]
    fn over_splitting_hurts_recall_not_precision() {
        let m = pairwise_metrics(&[0, 1, 2, 3], &["a", "a", "b", "b"]);
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.recall, 0.0);
    }

    #[test]
    fn consolidation_quality_on_ground_truth() {
        let c = cache();
        let values = [
            "dog", "canine", "puppy", "cat", "feline", "kitten", "boots", "sneakers",
        ];
        let truth = ["dog", "dog", "dog", "cat", "cat", "cat", "shoes", "shoes"];
        let result = consolidate(&values, &c, 0.82);
        let m = pairwise_metrics(&result.assignments, &truth);
        assert!(m.f1 > 0.95, "f1 = {}", m.f1);
    }

    #[test]
    fn clusterer_centroid_drift_is_bounded() {
        // Adding same-cluster members must not move the centroid out of the
        // cluster: assigning the cluster name later still joins it.
        let c = cache();
        let mut cl = OnlineClusterer::new(c.dim(), 0.85);
        let a = cl.assign("canine", &c.get("canine"));
        let b = cl.assign("puppy", &c.get("puppy"));
        let d = cl.assign("dog", &c.get("dog"));
        assert_eq!(a, b);
        assert_eq!(a, d);
        assert_eq!(cl.cluster_size(a), 3);
        assert_eq!(cl.representative(a), "canine");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn metrics_length_mismatch_panics() {
        pairwise_metrics(&[0], &["a", "b"]);
    }
}
