//! Dirty-duplicate generation for the consolidation experiment (Figure 3).
//!
//! "The source of dirty data is less likely to be a mistake such as
//! misspelling but a word with the same semantics (synonym, alternative
//! spelling, alternative forms)" — Section I. The generator emits records
//! whose values are synonyms, case variants and typos of cluster members,
//! with ground-truth entity labels.
//!
//! Typo variants are *added to the cluster specs* the experiment builds
//! its semantic space from: this models the misspelling-oblivious
//! embeddings the paper cites (\[17\], Edizel et al.), where a trained model
//! places misspellings near the original — a property our constructed
//! space provides by construction instead of training.

use cx_embed::rng::SplitMix64;
use cx_embed::ClusterSpec;

/// Dirty-data generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct DirtyConfig {
    /// Records to generate.
    pub size: usize,
    /// Probability a record uses a typo variant.
    pub typo_rate: f64,
    /// Probability a record uses a case variant.
    pub case_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DirtyConfig {
    fn default() -> Self {
        DirtyConfig {
            size: 10_000,
            typo_rate: 0.15,
            case_rate: 0.15,
            seed: 0xD1137,
        }
    }
}

/// The generated records plus the augmented specs (original members +
/// typo variants) to build the misspelling-oblivious space from.
#[derive(Debug, Clone)]
pub struct DirtyDataset {
    /// `(value, ground-truth cluster name)` per record.
    pub records: Vec<(String, String)>,
    /// Cluster specs including every typo variant as a member.
    pub augmented_specs: Vec<ClusterSpec>,
}

/// Introduces one deterministic typo: swaps two adjacent characters.
fn typo(word: &str, rng: &mut SplitMix64) -> String {
    let chars: Vec<char> = word.chars().collect();
    if chars.len() < 3 {
        return format!("{word}x");
    }
    let i = 1 + rng.next_range((chars.len() - 2) as u64) as usize;
    let mut out = chars.clone();
    out.swap(i, i + 1);
    out.into_iter().collect()
}

/// Uppercases the first character.
fn title_case(word: &str) -> String {
    let mut c = word.chars();
    match c.next() {
        Some(first) => first.to_uppercase().collect::<String>() + c.as_str(),
        None => String::new(),
    }
}

/// Generates dirty records over `specs`.
///
/// Case variants are handled by the models' lowercasing, typo variants by
/// augmenting the specs; both therefore consolidate back onto the cluster.
pub fn generate_dirty(specs: &[ClusterSpec], config: DirtyConfig) -> DirtyDataset {
    let mut rng = SplitMix64::new(config.seed);

    // Flatten (cluster, member) pairs.
    let mut members: Vec<(String, String)> = Vec::new();
    for spec in specs {
        members.push((spec.name.clone(), spec.name.clone()));
        for m in &spec.members {
            members.push((spec.name.clone(), m.clone()));
        }
    }
    assert!(!members.is_empty(), "no cluster members to dirty");

    // Pre-generate one typo variant per member (deterministic), collecting
    // them into the augmented specs.
    let mut augmented: Vec<ClusterSpec> = specs.to_vec();
    let mut typo_of: std::collections::HashMap<String, String> = std::collections::HashMap::new();
    for (cluster, member) in &members {
        let t = typo(member, &mut rng);
        if t != *member {
            typo_of.insert(member.clone(), t.clone());
            if let Some(spec) = augmented.iter_mut().find(|s| &s.name == cluster) {
                if !spec.members.contains(&t) && spec.name != t {
                    spec.members.push(t);
                }
            }
        }
    }

    let mut records = Vec::with_capacity(config.size);
    for _ in 0..config.size {
        let (cluster, member) = &members[rng.next_range(members.len() as u64) as usize];
        let roll = rng.next_f64();
        let value = if roll < config.typo_rate {
            typo_of
                .get(member)
                .cloned()
                .unwrap_or_else(|| member.clone())
        } else if roll < config.typo_rate + config.case_rate {
            title_case(member)
        } else {
            member.clone()
        };
        records.push((value, cluster.clone()));
    }

    DirtyDataset {
        records,
        augmented_specs: augmented,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::table1_clusters;

    #[test]
    fn deterministic() {
        let specs = table1_clusters();
        let cfg = DirtyConfig {
            size: 100,
            ..Default::default()
        };
        let a = generate_dirty(&specs, cfg);
        let b = generate_dirty(&specs, cfg);
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn truth_labels_are_cluster_names() {
        let specs = table1_clusters();
        let data = generate_dirty(
            &specs,
            DirtyConfig {
                size: 500,
                ..Default::default()
            },
        );
        let names: std::collections::HashSet<&str> =
            specs.iter().map(|s| s.name.as_str()).collect();
        for (_, truth) in &data.records {
            assert!(names.contains(truth.as_str()), "unknown truth {truth}");
        }
    }

    #[test]
    fn variants_occur_at_configured_rates() {
        let specs = table1_clusters();
        let data = generate_dirty(
            &specs,
            DirtyConfig {
                size: 5_000,
                typo_rate: 0.3,
                case_rate: 0.3,
                seed: 5,
            },
        );
        let title = data
            .records
            .iter()
            .filter(|(v, _)| v.chars().next().is_some_and(|c| c.is_uppercase()))
            .count();
        let frac = title as f64 / 5_000.0;
        assert!((frac - 0.3).abs() < 0.05, "title-case fraction {frac}");
    }

    #[test]
    fn augmented_specs_cover_typos() {
        let specs = table1_clusters();
        let data = generate_dirty(
            &specs,
            DirtyConfig {
                size: 2_000,
                typo_rate: 1.0,
                case_rate: 0.0,
                seed: 5,
            },
        );
        // Every generated typo value must be a member of its truth cluster
        // in the augmented specs (so the space can resolve it).
        let truth = crate::vocab::ClusterTruth::from_specs(&data.augmented_specs);
        for (value, cluster) in data.records.iter().take(200) {
            assert!(
                truth.in_tree(value, cluster),
                "typo {value} not in augmented cluster {cluster}"
            );
        }
    }

    #[test]
    fn typo_changes_word() {
        let mut rng = SplitMix64::new(1);
        let t = typo("boots", &mut rng);
        assert_ne!(t, "boots");
        assert_eq!(t.len(), 5);
        assert_eq!(typo("ab", &mut rng), "abx");
    }

    #[test]
    fn title_case_works() {
        assert_eq!(title_case("boots"), "Boots");
        assert_eq!(title_case(""), "");
    }
}
