//! Reproduces the paper's Table I: context-rich labels a representation
//! model matches per category — with measurable precision, since our
//! semantic space has ground truth.
//!
//! Run with: `cargo run --release --example semantic_matching`

use cx_embed::EmbeddingModel;
use cx_embed::ClusteredTextModel;
use cx_vector::{BruteForceIndex, VectorArena};
use std::sync::Arc;

fn main() {
    let specs = cx_datagen::table1_clusters();
    let words = cx_datagen::vocab::all_words(&specs);
    let space = Arc::new(cx_datagen::build_space(&specs, 100, 42));
    let model = ClusteredTextModel::new("table1-model", space.clone(), 7);

    // The arena is the index builders' native input: padded rows the
    // blocked kernels scan directly.
    let mut arena = VectorArena::with_capacity(model.dim(), words.len());
    for w in &words {
        arena.push(&model.embed(w));
    }
    let index = BruteForceIndex::build(&arena);

    println!("TABLE I — context-rich text labels the model matches\n");
    println!("{:<10} | {:<55} | precision", "category", "semantic matches (top-4)");
    println!("{}", "-".repeat(85));

    for category in ["dog", "cat", "animal", "shoes", "jacket", "clothes"] {
        let query = model.embed(category);
        // Top-4 excluding the category word itself.
        let results = index.search_topk(&query, 5);
        let matches: Vec<(String, f32)> = results
            .iter()
            .filter(|r| words[r.id] != category)
            .take(4)
            .map(|r| (words[r.id].clone(), r.score))
            .collect();
        let correct = matches
            .iter()
            .filter(|(w, _)| space.in_cluster_tree(w, category))
            .count();
        let rendered: Vec<String> = matches
            .iter()
            .map(|(w, s)| format!("{w} ({s:.2})"))
            .collect();
        println!(
            "{:<10} | {:<55} | {}/{}",
            category,
            rendered.join(", "),
            correct,
            matches.len()
        );
    }

    println!("\n(Compare with the paper's Table I: dog → canine, golden retriever,");
    println!("puppy; clothes → boots, parka, windbreaker, coat; etc.)");
}
