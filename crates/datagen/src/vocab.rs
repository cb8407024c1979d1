//! Synonym-cluster vocabularies and ground-truth membership.

use cx_embed::rng::SplitMix64;
use cx_embed::{ClusterGeometry, ClusterSpec, SemanticSpace};
use std::collections::HashMap;

/// The exact vocabulary of the paper's Table I, with the hierarchy its
/// rows imply: `animal ⊃ {dog, cat}` and `clothes ⊃ {shoes, jacket}`.
pub fn table1_clusters() -> Vec<ClusterSpec> {
    vec![
        ClusterSpec::new("animal", &[]),
        ClusterSpec::child_of("dog", "animal", &["canine", "golden retriever", "puppy"]),
        ClusterSpec::child_of("cat", "animal", &["maine coon", "feline", "kitten"]),
        ClusterSpec::new("clothes", &[]),
        ClusterSpec::child_of(
            "shoes",
            "clothes",
            &["boots", "sneakers", "oxfords", "lace-ups"],
        ),
        ClusterSpec::child_of(
            "jacket",
            "clothes",
            &["blazer", "coat", "parka", "windbreaker"],
        ),
    ]
}

const CONSONANTS: &[char] = &[
    'b', 'd', 'f', 'g', 'k', 'l', 'm', 'n', 'p', 'r', 's', 't', 'v', 'z',
];
const VOWELS: &[char] = &['a', 'e', 'i', 'o', 'u'];

/// A pronounceable random word of 2–4 syllables.
fn random_word(rng: &mut SplitMix64) -> String {
    let syllables = 2 + rng.next_range(3) as usize;
    let mut w = String::with_capacity(syllables * 2);
    for _ in 0..syllables {
        w.push(CONSONANTS[rng.next_range(CONSONANTS.len() as u64) as usize]);
        w.push(VOWELS[rng.next_range(VOWELS.len() as u64) as usize]);
    }
    w
}

/// Generates `n_clusters` synthetic root clusters with `members_per_cluster`
/// members each. Words are globally unique.
pub fn synthetic_clusters(
    n_clusters: usize,
    members_per_cluster: usize,
    seed: u64,
) -> Vec<ClusterSpec> {
    let mut rng = SplitMix64::new(seed);
    let mut used: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut fresh_word = |rng: &mut SplitMix64| loop {
        let mut w = random_word(rng);
        if used.contains(&w) {
            // Disambiguate rather than loop forever on a small space.
            w.push(CONSONANTS[rng.next_range(CONSONANTS.len() as u64) as usize]);
            w.push(VOWELS[rng.next_range(VOWELS.len() as u64) as usize]);
        }
        if used.insert(w.clone()) {
            return w;
        }
    };
    (0..n_clusters)
        .map(|_| {
            let name = fresh_word(&mut rng);
            let members: Vec<String> = (0..members_per_cluster)
                .map(|_| fresh_word(&mut rng))
                .collect();
            ClusterSpec {
                name,
                members,
                parent: None,
            }
        })
        .collect()
}

/// Builds the semantic space for `specs` at dimension `dim` with default
/// geometry.
pub fn build_space(specs: &[ClusterSpec], dim: usize, seed: u64) -> SemanticSpace {
    SemanticSpace::build(specs, dim, seed, ClusterGeometry::default())
}

/// All words in a spec list: cluster names plus members.
pub fn all_words(specs: &[ClusterSpec]) -> Vec<String> {
    let mut out = Vec::new();
    for spec in specs {
        out.push(spec.name.clone());
        out.extend(spec.members.iter().cloned());
    }
    out
}

/// String-level ground truth derived from cluster specs (no embeddings
/// needed): which cluster a word belongs to and the cluster hierarchy.
#[derive(Debug, Clone, Default)]
pub struct ClusterTruth {
    cluster_of: HashMap<String, String>,
    parent: HashMap<String, String>,
}

impl ClusterTruth {
    /// Builds the truth maps from specs.
    pub fn from_specs(specs: &[ClusterSpec]) -> Self {
        let mut cluster_of = HashMap::new();
        let mut parent = HashMap::new();
        for spec in specs {
            cluster_of.insert(spec.name.clone(), spec.name.clone());
            for m in &spec.members {
                cluster_of.insert(m.clone(), spec.name.clone());
            }
            if let Some(p) = &spec.parent {
                parent.insert(spec.name.clone(), p.clone());
            }
        }
        ClusterTruth { cluster_of, parent }
    }

    /// The direct cluster of `word`, if any.
    pub fn cluster_of(&self, word: &str) -> Option<&str> {
        self.cluster_of.get(word).map(|s| s.as_str())
    }

    /// Whether `word` belongs to `cluster` or any descendant of it.
    pub fn in_tree(&self, word: &str, cluster: &str) -> bool {
        let Some(mut c) = self.cluster_of(word) else {
            return false;
        };
        loop {
            if c == cluster {
                return true;
            }
            match self.parent.get(c) {
                Some(p) => c = p.as_str(),
                None => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_vocabulary() {
        let specs = table1_clusters();
        let words = all_words(&specs);
        for expected in [
            "dog",
            "canine",
            "golden retriever",
            "puppy",
            "cat",
            "maine coon",
            "feline",
            "kitten",
            "boots",
            "sneakers",
            "oxfords",
            "lace-ups",
            "blazer",
            "coat",
            "parka",
            "windbreaker",
            "animal",
            "clothes",
            "shoes",
            "jacket",
        ] {
            assert!(words.iter().any(|w| w == expected), "missing {expected}");
        }
    }

    #[test]
    fn truth_hierarchy() {
        let truth = ClusterTruth::from_specs(&table1_clusters());
        assert!(truth.in_tree("boots", "shoes"));
        assert!(truth.in_tree("boots", "clothes"));
        assert!(truth.in_tree("parka", "clothes"));
        assert!(!truth.in_tree("parka", "shoes"));
        assert!(truth.in_tree("golden retriever", "animal"));
        assert!(!truth.in_tree("boots", "animal"));
        assert!(!truth.in_tree("unknown", "clothes"));
        assert_eq!(truth.cluster_of("kitten"), Some("cat"));
    }

    #[test]
    fn synthetic_clusters_unique_and_deterministic() {
        let a = synthetic_clusters(10, 5, 42);
        let b = synthetic_clusters(10, 5, 42);
        assert_eq!(a.len(), 10);
        assert_eq!(a.iter().map(|c| c.members.len()).sum::<usize>(), 50);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.members, y.members);
        }
        // Global uniqueness.
        let words = all_words(&a);
        let set: std::collections::HashSet<&String> = words.iter().collect();
        assert_eq!(set.len(), words.len());
    }

    #[test]
    fn built_space_contains_all_words() {
        let specs = table1_clusters();
        let space = build_space(&specs, 32, 1);
        for w in all_words(&specs) {
            assert!(space.vector(&w).is_some(), "no vector for {w}");
        }
    }

    #[test]
    fn words_are_pronounceable_ascii() {
        let specs = synthetic_clusters(5, 5, 7);
        for w in all_words(&specs) {
            assert!(w.len() >= 4);
            assert!(w.chars().all(|c| c.is_ascii_lowercase()));
        }
    }
}
