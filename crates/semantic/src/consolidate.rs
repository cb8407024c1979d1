//! On-the-fly result consolidation (Figure 3).
//!
//! "Data cleaning, deduplication, entity resolution … a tedious and
//! domain-expert task becomes completely automated, allowing on-the-fly
//! result consolidation based on context." This module is a direct
//! consolidation API over string collections — the semantic group-by's
//! clustering ([`crate::sweep::cluster`]) without the table around it —
//! and pairwise quality metrics so experiments can report
//! purity/recall against ground truth, something the paper's prototype
//! could only eyeball.

use crate::sweep::{cluster, Distinct};
use cx_embed::EmbeddingCache;
use cx_storage::QueryContext;
use std::collections::HashMap;
use std::sync::Arc;

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

/// Consolidates `values`: clusters their distinct values at `threshold`
/// in first-appearance order, exactly as `GROUP BY SEMANTIC` does, and
/// gives every input value its value's cluster. A representative is its
/// cluster's leader, the first value that founded it.
pub fn consolidate(
    values: &[&str],
    cache: &Arc<EmbeddingCache>,
    threshold: f32,
) -> ConsolidationResult {
    assert!(
        (0.0..=1.0).contains(&threshold),
        "threshold must be in [0,1]"
    );
    let distinct = Distinct::of_values(values);
    let clusters = cluster(cache, &distinct.values, threshold, &QueryContext::default())
        .expect("a default context never stops a scan");
    let assignments: Vec<usize> = distinct
        .row_ids
        .iter()
        .map(|id| clusters.of_value[id.expect("no NULL values") as usize] as usize)
        .collect();
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); clusters.leaders.len()];
    for (i, &c) in assignments.iter().enumerate() {
        members[c].push(i);
    }
    ConsolidationResult {
        assignments,
        representatives: clusters
            .leaders
            .iter()
            .map(|&v| distinct.values[v as usize].to_string())
            .collect(),
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
        // Later same-cluster members never move a cluster away from its
        // leader: the cluster name, arriving last, still joins it.
        let c = cache();
        let result = consolidate(&["canine", "puppy", "dog"], &c, 0.85);
        assert_eq!(result.assignments, vec![0, 0, 0]);
        assert_eq!(result.members[0].len(), 3);
        assert_eq!(result.representatives[0], "canine");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn metrics_length_mismatch_panics() {
        pairwise_metrics(&[0], &["a", "b"]);
    }
}
