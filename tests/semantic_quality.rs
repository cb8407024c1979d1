//! Integration tests for semantic-match quality: Table I reproduction and
//! Figure 3 consolidation, validated against ground truth.

use cx_datagen::{generate_dirty, table1_clusters, DirtyConfig};
use cx_embed::{ClusteredTextModel, EmbeddingCache, EmbeddingModel};
use cx_semantic::{consolidate, pairwise_metrics};
use cx_vector::{BruteForceIndex, VectorArena};
use std::sync::Arc;

fn table1_model() -> (ClusteredTextModel, Vec<String>) {
    let specs = table1_clusters();
    let words = cx_datagen::vocab::all_words(&specs);
    let space = Arc::new(cx_datagen::build_space(&specs, 100, 42));
    (ClusteredTextModel::new("t1", space, 7), words)
}

/// Table I: for each category word, the nearest vocabulary words must be
/// exactly the category's cluster members (paper's "semantic matches").
#[test]
fn table1_semantic_matches_have_full_precision() {
    let (model, words) = table1_model();
    let space = model.space();
    let mut arena = VectorArena::new(model.dim());
    for w in &words {
        arena.push(&model.embed(w));
    }
    let index = BruteForceIndex::build(&arena);

    for category in ["dog", "cat", "shoes", "jacket"] {
        let query = model.embed(category);
        let expected: Vec<&String> = words
            .iter()
            .filter(|w| w.as_str() != category && space.in_cluster_tree(w, category))
            .collect();
        let k = expected.len();
        // +1 for the category word itself (always rank 0).
        let got = index.search_topk(&query, k + 1);
        assert_eq!(words[got[0].id], category, "self-match first for {category}");
        let got_words: Vec<&String> = got[1..].iter().map(|r| &words[r.id]).collect();
        for w in &got_words {
            assert!(
                space.in_cluster_tree(w, category),
                "{category}: unexpected match {w} (got {got_words:?})"
            );
        }
    }
}

/// The hierarchical rows of Table I: "animal" matches members of dog AND
/// cat clusters; "clothes" matches members of shoes AND jacket.
#[test]
fn table1_parent_categories_span_children() {
    let (model, words) = table1_model();
    let space = model.space();
    let mut arena = VectorArena::new(model.dim());
    for w in &words {
        arena.push(&model.embed(w));
    }
    let index = BruteForceIndex::build(&arena);

    for (parent, children) in [("animal", ["dog", "cat"]), ("clothes", ["shoes", "jacket"])] {
        let got = index.search_topk(&model.embed(parent), 5);
        let got_words: Vec<&String> = got[1..].iter().map(|r| &words[r.id]).collect();
        // Every near neighbour belongs to the parent's tree.
        for w in &got_words {
            assert!(
                space.in_cluster_tree(w, parent),
                "{parent}: match {w} outside tree"
            );
        }
        // Both child clusters are represented among the top matches (the
        // paper's "animal: cat, dog, golden retriever, feline" pattern).
        for child in children {
            assert!(
                got_words
                    .iter()
                    .any(|w| space.in_cluster_tree(w, child)),
                "{parent}: no match from child {child} in {got_words:?}"
            );
        }
    }
}

/// Figure 3: dirty duplicates (synonyms, case variants, typos) consolidate
/// onto their concepts with high pairwise quality.
#[test]
fn consolidation_recovers_entities_from_dirty_data() {
    let specs = table1_clusters();
    let dirty = generate_dirty(
        &specs,
        DirtyConfig { size: 2_000, typo_rate: 0.2, case_rate: 0.2, seed: 3 },
    );
    // Build the misspelling-oblivious space from the augmented specs.
    let space = Arc::new(cx_datagen::build_space(&dirty.augmented_specs, 100, 42));
    let model = ClusteredTextModel::new("m", space, 7);
    let cache = Arc::new(EmbeddingCache::new(Arc::new(model)));

    let values: Vec<&str> = dirty.records.iter().map(|(v, _)| v.as_str()).collect();
    let truth: Vec<&str> = dirty.records.iter().map(|(_, t)| t.as_str()).collect();
    let result = consolidate(&values, &cache, 0.82);
    let metrics = pairwise_metrics(&result.assignments, &truth);
    // Hierarchy words ("animal", "clothes") sit between their child
    // clusters and occasionally merge with a child, capping pairwise F1
    // slightly below the flat-cluster ideal.
    assert!(metrics.f1 > 0.85, "f1 {}", metrics.f1);
    assert!(metrics.recall > 0.9, "recall {}", metrics.recall);
    // Dedup is substantial: thousands of records, a handful of concepts.
    assert!(result.dedup_ratio() > 50.0, "ratio {}", result.dedup_ratio());
}

/// Embedding cache makes consolidation inference cost proportional to
/// distinct values, not records.
#[test]
fn consolidation_inference_bounded_by_distinct_values() {
    let specs = table1_clusters();
    let dirty = generate_dirty(
        &specs,
        DirtyConfig { size: 5_000, typo_rate: 0.2, case_rate: 0.2, seed: 5 },
    );
    let space = Arc::new(cx_datagen::build_space(&dirty.augmented_specs, 64, 42));
    let cache = Arc::new(EmbeddingCache::new(Arc::new(ClusteredTextModel::new("m", space, 7))));
    let values: Vec<&str> = dirty.records.iter().map(|(v, _)| v.as_str()).collect();
    let distinct: std::collections::HashSet<&str> = values.iter().copied().collect();
    consolidate(&values, &cache, 0.82);
    assert_eq!(cache.model().stats().invocations() as usize, distinct.len());
}
