//! Integration tests for semantic-match quality: Table I reproduction and
//! Figure 3 consolidation, validated against ground truth.

use context_analytics::{Engine, EngineConfig, ServeConfig, Server, Session, SqlResponse};
use cx_datagen::{generate_dirty, table1_clusters, DirtyConfig};
use cx_embed::{ClusteredTextModel, EmbeddingCache, EmbeddingModel, ModelStats, SemanticSpace};
use cx_semantic::{consolidate, pairwise_metrics};
use cx_storage::Scalar;
use cx_storage::{Column, DataType, Field, Schema, Table};
use std::sync::Arc;

/// The Table I vocabulary as a `labels(label_id, label)` table beside a
/// `categories(category)` table, served by one SQL session.
fn table1_session() -> (Session, Arc<SemanticSpace>, Vec<String>) {
    let specs = table1_clusters();
    let words = cx_datagen::vocab::all_words(&specs);
    let space = Arc::new(cx_datagen::build_space(&specs, 100, 42));
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    engine.register_model(Arc::new(ClusteredTextModel::new("t1", space.clone(), 7)));
    let labels = Table::from_columns(
        Schema::new(vec![
            Field::new("label_id", DataType::Int64),
            Field::new("label", DataType::Utf8),
        ]),
        vec![
            Column::from_i64((0..words.len() as i64).collect()),
            Column::from_strings(words.iter().map(String::as_str)),
        ],
    )
    .unwrap();
    engine.register_table("labels", labels).unwrap();
    let categories = Table::from_columns(
        Schema::new(vec![Field::new("category", DataType::Utf8)]),
        vec![Column::from_strings([
            "dog", "cat", "animal", "shoes", "jacket", "clothes",
        ])],
    )
    .unwrap();
    engine.register_table("categories", categories).unwrap();
    (
        Server::new(engine, ServeConfig::default()).session(),
        space,
        words,
    )
}

/// The `k` vocabulary words nearest `category`, best first.
fn top_k<'w>(session: &Session, words: &'w [String], category: &str, k: usize) -> Vec<&'w String> {
    let SqlResponse::Rows(r) = session
        .sql(&format!(
            "SELECT label_id, similarity FROM categories \
             SEMANTIC JOIN labels ON SIM(category, label) >= 0.0 \
             WHERE category = '{category}' ORDER BY similarity DESC, label_id LIMIT {k}"
        ))
        .unwrap()
    else {
        panic!("a SELECT returns rows")
    };
    let ids = r.table.column_by_name("label_id").unwrap();
    ids.i64_values()
        .unwrap()
        .iter()
        .map(|&id| &words[id as usize])
        .collect()
}

/// Table I: for each category word, the nearest vocabulary words must be
/// exactly the category's cluster members (paper's "semantic matches").
#[test]
fn table1_semantic_matches_have_full_precision() {
    let (session, space, words) = table1_session();

    for category in ["dog", "cat", "shoes", "jacket"] {
        let expected: Vec<&String> = words
            .iter()
            .filter(|w| w.as_str() != category && space.in_cluster_tree(w, category))
            .collect();
        let k = expected.len();
        // +1 for the category word itself (always rank 0).
        let got = top_k(&session, &words, category, k + 1);
        assert_eq!(got[0], category, "self-match first for {category}");
        let got_words = &got[1..];
        for w in got_words {
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
    let (session, space, words) = table1_session();

    for (parent, children) in [("animal", ["dog", "cat"]), ("clothes", ["shoes", "jacket"])] {
        let got = top_k(&session, &words, parent, 5);
        let got_words = &got[1..];
        // Every near neighbour belongs to the parent's tree.
        for w in got_words {
            assert!(
                space.in_cluster_tree(w, parent),
                "{parent}: match {w} outside tree"
            );
        }
        // Both child clusters are represented among the top matches (the
        // paper's "animal: cat, dog, golden retriever, feline" pattern).
        for child in children {
            assert!(
                got_words.iter().any(|w| space.in_cluster_tree(w, child)),
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
        DirtyConfig {
            size: 2_000,
            typo_rate: 0.2,
            case_rate: 0.2,
            seed: 3,
        },
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
    assert!(
        result.dedup_ratio() > 50.0,
        "ratio {}",
        result.dedup_ratio()
    );
}

/// Embedding cache makes consolidation inference cost proportional to
/// distinct values, not records.
#[test]
fn consolidation_inference_bounded_by_distinct_values() {
    let specs = table1_clusters();
    let dirty = generate_dirty(
        &specs,
        DirtyConfig {
            size: 5_000,
            typo_rate: 0.2,
            case_rate: 0.2,
            seed: 5,
        },
    );
    let space = Arc::new(cx_datagen::build_space(&dirty.augmented_specs, 64, 42));
    let cache = Arc::new(EmbeddingCache::new(Arc::new(ClusteredTextModel::new(
        "m", space, 7,
    ))));
    let values: Vec<&str> = dirty.records.iter().map(|(v, _)| v.as_str()).collect();
    let distinct: std::collections::HashSet<&str> = values.iter().copied().collect();
    consolidate(&values, &cache, 0.82);
    assert_eq!(cache.model().stats().invocations() as usize, distinct.len());
}

/// A hand-set 2-d model: "A" on the x axis, "B" 55° above it, "C" 50°
/// below it, so cos(A, B) ≈ 0.57 and cos(A, C) ≈ 0.64 clear θ = 0.5,
/// while B and C are 105° apart.
struct Plane(ModelStats);

impl EmbeddingModel for Plane {
    fn name(&self) -> &str {
        "plane"
    }
    fn dim(&self) -> usize {
        2
    }
    fn embed_into(&self, text: &str, out: &mut [f32]) {
        self.0.record(text.len());
        let degrees: f32 = match text {
            "A" => 0.0,
            "B" => 55.0,
            "C" => -50.0,
            other => panic!("no embedding for {other:?}"),
        };
        let (sin, cos) = degrees.to_radians().sin_cos();
        out.copy_from_slice(&[cos, sin]);
    }
    fn stats(&self) -> &ModelStats {
        &self.0
    }
}

/// A group-by puts equal keys in one group. Over A, 20× B, C, A a
/// clusterer that scores rows against a drifting member sum let the 20
/// B's pull the first cluster away from A, so the second A joined C's
/// cluster: `("A", 0, 21)`, `("C", 1, 2)`. Clustering the distinct values
/// against fixed leaders keeps both A's in A's cluster.
#[test]
fn group_by_semantic_puts_every_row_of_a_value_in_one_cluster() {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    engine.register_model(Arc::new(Plane(ModelStats::default())));
    let mut names = vec!["A"];
    names.extend(["B"; 20]);
    names.extend(["C", "A"]);
    let is_a: Vec<i64> = names.iter().map(|&n| i64::from(n == "A")).collect();
    let rows = Table::from_columns(
        Schema::new(vec![
            Field::new("name", DataType::Utf8),
            Field::new("is_a", DataType::Int64),
        ]),
        vec![Column::from_strings(names), Column::from_i64(is_a)],
    )
    .unwrap();
    engine.register_table("rows", rows).unwrap();
    let session = Server::new(engine, ServeConfig::default()).session();
    let SqlResponse::Rows(r) = session
        .sql(
            "SELECT name, cluster_id, COUNT(*) AS n, SUM(is_a) AS a_rows FROM rows \
             GROUP BY SEMANTIC name USING plane (0.5)",
        )
        .unwrap()
    else {
        panic!("a SELECT returns rows")
    };
    let out: Vec<Vec<Scalar>> = (0..r.table.num_rows())
        .map(|i| r.table.row(i).unwrap())
        .collect();
    let with_a: Vec<&Vec<Scalar>> = out
        .iter()
        .filter(|row| row[3] != Scalar::Int64(0))
        .collect();
    assert_eq!(with_a.len(), 1, "the A rows split across clusters: {out:?}");
    assert_eq!(
        out,
        vec![vec![
            Scalar::from("A"),
            Scalar::Int64(0),
            Scalar::Int64(23),
            Scalar::Int64(2)
        ]]
    );
}
