//! A ground-truth semantic space of synonym clusters.
//!
//! The paper's prototype uses fastText trained on Wikipedia, whose semantic
//! neighborhoods (Table I: dog ↔ canine ↔ puppy, clothes ↔ parka ↔ boots)
//! cannot be verified — only demonstrated. This substrate *constructs* the
//! latent space instead: synonym clusters are placed at near-orthogonal
//! centroids, members are noisy copies of their centroid, and hierarchical
//! (super-)clusters sit between their children. The geometry is
//! controllable, so tests can assert exact separation properties and the
//! Table I experiment can report precision against ground truth.

use crate::hash_ngram::HashNGramModel;
use crate::model::{normalize, EmbeddingModel, ModelStats};
use crate::rng::SplitMix64;
use std::collections::HashMap;
use std::sync::Arc;

/// Declarative description of one synonym cluster.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Cluster name; also embedded as a vocabulary word sitting exactly at
    /// the cluster centroid (so `"dog"` matches the dog cluster best).
    pub name: String,
    /// Member words (synonyms, variants).
    pub members: Vec<String>,
    /// Optional parent cluster name for hierarchies
    /// (e.g. `shoes.parent = clothes`).
    pub parent: Option<String>,
}

impl ClusterSpec {
    /// A root cluster.
    pub fn new(name: impl Into<String>, members: &[&str]) -> Self {
        ClusterSpec {
            name: name.into(),
            members: members.iter().map(|s| s.to_string()).collect(),
            parent: None,
        }
    }

    /// A child cluster under `parent`.
    pub fn child_of(name: impl Into<String>, parent: impl Into<String>, members: &[&str]) -> Self {
        ClusterSpec {
            name: name.into(),
            members: members.iter().map(|s| s.to_string()).collect(),
            parent: Some(parent.into()),
        }
    }
}

/// Geometry knobs controlling cluster separation.
///
/// With unit-normalized vectors, `cos(member, centroid) ≈ 1/√(1+σ²)` and
/// `cos(child, parent) ≈ 1/√(1+β²)`; the defaults give ≈0.94 intra-cluster
/// and ≈0.87 child-to-parent similarity, with root clusters near-orthogonal
/// in high dimensions.
#[derive(Debug, Clone, Copy)]
pub struct ClusterGeometry {
    /// Noise scale for members around their cluster centroid (σ).
    pub member_sigma: f32,
    /// Offset scale of a child-cluster centroid from its parent (β).
    pub child_beta: f32,
}

impl Default for ClusterGeometry {
    fn default() -> Self {
        ClusterGeometry {
            member_sigma: 0.35,
            child_beta: 0.55,
        }
    }
}

/// The constructed space: word → unit vector, with cluster ground truth.
#[derive(Debug)]
pub struct SemanticSpace {
    dim: usize,
    vectors: HashMap<String, Arc<Vec<f32>>>,
    /// word → cluster name (cluster names map to themselves).
    cluster_of: HashMap<String, String>,
    /// cluster name → parent cluster name.
    parents: HashMap<String, String>,
    cluster_names: Vec<String>,
}

impl SemanticSpace {
    /// Builds the space from cluster specs.
    ///
    /// # Panics
    /// Panics if a `parent` references an unknown cluster or a word is
    /// assigned to two clusters.
    pub fn build(specs: &[ClusterSpec], dim: usize, seed: u64, geometry: ClusterGeometry) -> Self {
        let mut centroids: HashMap<String, Vec<f32>> = HashMap::new();
        let mut parents = HashMap::new();
        let mut cluster_names = Vec::with_capacity(specs.len());

        // Resolve centroids: roots first, then children (possibly nested).
        let mut remaining: Vec<&ClusterSpec> = specs.iter().collect();
        let mut pass = 0;
        while !remaining.is_empty() {
            pass += 1;
            assert!(
                pass <= specs.len() + 1,
                "cluster parent cycle or unknown parent"
            );
            remaining.retain(|spec| {
                let centroid = match &spec.parent {
                    None => {
                        let mut rng =
                            SplitMix64::new(seed ^ crate::rng::fnv1a(spec.name.as_bytes()));
                        rng.unit_vector(dim)
                    }
                    Some(parent) => match centroids.get(parent) {
                        None => return true, // parent not resolved yet
                        Some(pc) => {
                            let mut rng = SplitMix64::new(
                                seed ^ crate::rng::fnv1a(spec.name.as_bytes()).rotate_left(13),
                            );
                            let dir = rng.unit_vector(dim);
                            let mut c: Vec<f32> = pc
                                .iter()
                                .zip(&dir)
                                .map(|(p, d)| p + geometry.child_beta * d)
                                .collect();
                            normalize(&mut c);
                            c
                        }
                    },
                };
                if let Some(parent) = &spec.parent {
                    parents.insert(spec.name.clone(), parent.clone());
                }
                centroids.insert(spec.name.clone(), centroid);
                cluster_names.push(spec.name.clone());
                false
            });
        }

        let mut vectors: HashMap<String, Arc<Vec<f32>>> = HashMap::new();
        let mut cluster_of = HashMap::new();
        for spec in specs {
            let centroid = &centroids[&spec.name];
            // The cluster name itself sits at the centroid.
            vectors.insert(spec.name.clone(), Arc::new(centroid.clone()));
            assert!(
                cluster_of
                    .insert(spec.name.clone(), spec.name.clone())
                    .is_none(),
                "cluster name {} defined twice",
                spec.name
            );
            for member in &spec.members {
                if member == &spec.name {
                    continue;
                }
                let mut rng = SplitMix64::new(
                    seed ^ crate::rng::fnv1a(member.as_bytes()).rotate_left(29)
                        ^ crate::rng::fnv1a(spec.name.as_bytes()),
                );
                let dir = rng.unit_vector(dim);
                let mut v: Vec<f32> = centroid
                    .iter()
                    .zip(&dir)
                    .map(|(c, d)| c + geometry.member_sigma * d)
                    .collect();
                normalize(&mut v);
                vectors.insert(member.clone(), Arc::new(v));
                assert!(
                    cluster_of
                        .insert(member.clone(), spec.name.clone())
                        .is_none(),
                    "word {member} assigned to two clusters"
                );
            }
        }

        SemanticSpace {
            dim,
            vectors,
            cluster_of,
            parents,
            cluster_names,
        }
    }

    /// Dimensionality of the space.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The vector for `word` if it belongs to the space.
    pub fn vector(&self, word: &str) -> Option<Arc<Vec<f32>>> {
        self.vectors.get(word).cloned()
    }

    /// Ground-truth cluster of `word`, if any.
    pub fn cluster_of(&self, word: &str) -> Option<&str> {
        self.cluster_of.get(word).map(|s| s.as_str())
    }

    /// Parent of `cluster`, if any.
    pub fn parent_of(&self, cluster: &str) -> Option<&str> {
        self.parents.get(cluster).map(|s| s.as_str())
    }

    /// Whether `word` belongs to `cluster` or any of its descendants
    /// (i.e. should semantically match the cluster's category word).
    pub fn in_cluster_tree(&self, word: &str, cluster: &str) -> bool {
        let Some(mut c) = self.cluster_of(word) else {
            return false;
        };
        loop {
            if c == cluster {
                return true;
            }
            match self.parent_of(c) {
                Some(p) => c = p,
                None => return false,
            }
        }
    }

    /// All words in the space.
    pub fn words(&self) -> impl Iterator<Item = &str> {
        self.vectors.keys().map(|s| s.as_str())
    }

    /// All cluster names, in definition order.
    pub fn cluster_names(&self) -> &[String] {
        &self.cluster_names
    }
}

/// The model used across experiments: words of the semantic space resolve
/// to their ground-truth vectors; out-of-vocabulary text falls back to the
/// hashed n-gram model (so the model is total, like fastText with subwords).
pub struct ClusteredTextModel {
    name: String,
    space: Arc<SemanticSpace>,
    fallback: HashNGramModel,
    stats: ModelStats,
}

impl ClusteredTextModel {
    /// Composes a space with a fallback n-gram model (same dimension).
    pub fn new(name: impl Into<String>, space: Arc<SemanticSpace>, seed: u64) -> Self {
        let dim = space.dim();
        ClusteredTextModel {
            name: name.into(),
            space,
            fallback: HashNGramModel::with_params("fallback", dim, seed, 3, 6, 1 << 21),
            stats: ModelStats::default(),
        }
    }

    /// The underlying ground-truth space.
    pub fn space(&self) -> &SemanticSpace {
        &self.space
    }
}

impl EmbeddingModel for ClusteredTextModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn dim(&self) -> usize {
        self.space.dim()
    }

    fn embed_into(&self, text: &str, out: &mut [f32]) {
        self.stats.record(text.len());
        let lower = text.to_lowercase();
        if let Some(v) = self.space.vector(lower.trim()) {
            out.copy_from_slice(&v);
            return;
        }
        self.fallback.embed_into(&lower, out);
    }

    fn stats(&self) -> &ModelStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cosine(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    fn space() -> SemanticSpace {
        SemanticSpace::build(
            &[
                ClusterSpec::new("dog", &["canine", "golden retriever", "puppy"]),
                ClusterSpec::new("cat", &["maine coon", "feline", "kitten"]),
                ClusterSpec::new("quartz", &["granite"]),
                ClusterSpec::child_of("shoes", "clothes", &["boots", "sneakers"]),
                ClusterSpec::child_of("jacket", "clothes", &["parka", "coat"]),
                ClusterSpec::new("clothes", &[]),
            ],
            100,
            7,
            ClusterGeometry::default(),
        )
    }

    #[test]
    fn members_are_close_to_their_centroid() {
        let s = space();
        let dog = s.vector("dog").unwrap();
        for m in ["canine", "golden retriever", "puppy"] {
            let v = s.vector(m).unwrap();
            let sim = cosine(&dog, &v);
            assert!(sim > 0.9, "{m} vs dog: {sim}");
        }
    }

    #[test]
    fn different_clusters_are_separated() {
        let s = space();
        let dog = s.vector("dog").unwrap();
        let cat = s.vector("cat").unwrap();
        let sim = cosine(&dog, &cat);
        assert!(sim < 0.5, "dog vs cat too close: {sim}");
        let quartz = s.vector("quartz").unwrap();
        assert!(cosine(&dog, &quartz) < 0.5);
    }

    #[test]
    fn hierarchy_sits_between() {
        let s = space();
        let clothes = s.vector("clothes").unwrap();
        let boots = s.vector("boots").unwrap();
        let parka = s.vector("parka").unwrap();
        let dog = s.vector("dog").unwrap();
        // Children of clothes are clearly closer to clothes than dog is.
        assert!(cosine(&clothes, &boots) > 0.7);
        assert!(cosine(&clothes, &parka) > 0.7);
        assert!(cosine(&clothes, &dog) < 0.5);
        // And closer to their own sub-cluster than to the parent.
        let shoes = s.vector("shoes").unwrap();
        assert!(cosine(&shoes, &boots) > cosine(&clothes, &boots));
    }

    #[test]
    fn cluster_tree_membership() {
        let s = space();
        assert!(s.in_cluster_tree("boots", "shoes"));
        assert!(s.in_cluster_tree("boots", "clothes"));
        assert!(!s.in_cluster_tree("boots", "dog"));
        assert!(!s.in_cluster_tree("unknown-word", "dog"));
        assert_eq!(s.parent_of("shoes"), Some("clothes"));
        assert_eq!(s.parent_of("dog"), None);
    }

    #[test]
    fn deterministic_across_builds() {
        let a = space();
        let b = space();
        assert_eq!(*a.vector("puppy").unwrap(), *b.vector("puppy").unwrap());
    }

    #[test]
    #[should_panic(expected = "unknown parent")]
    fn unknown_parent_panics() {
        SemanticSpace::build(
            &[ClusterSpec::child_of("a", "nope", &[])],
            10,
            1,
            ClusterGeometry::default(),
        );
    }

    #[test]
    fn clustered_model_falls_back_for_oov() {
        let s = Arc::new(space());
        let m = ClusteredTextModel::new("m", s.clone(), 99);
        // In-vocabulary goes through the space.
        let dog = m.embed("dog");
        assert_eq!(dog, **s.vector("dog").unwrap());
        // Case/whitespace-insensitive lookup.
        assert_eq!(m.embed(" Dog "), dog);
        // OOV is still a unit vector (n-gram fallback).
        let oov = m.embed("zzyzx");
        let norm: f32 = oov.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
        assert_eq!(m.stats().invocations(), 3);
    }
}
