//! TABLE I — example of context-rich text labels that models may output.
//!
//! Reproduces the paper's table of per-category semantic matches, and —
//! because our semantic space carries ground truth — also reports match
//! precision/recall per category, which the paper could only illustrate.
//!
//! Usage: `cargo run --release -p cx-bench --bin table1_semantic_matches`

use cx_embed::{ClusteredTextModel, EmbeddingModel};
use cx_vector::{BruteForceIndex, VectorArena};
use std::sync::Arc;

fn main() {
    let specs = cx_datagen::table1_clusters();
    let words = cx_datagen::vocab::all_words(&specs);
    let space = Arc::new(cx_datagen::build_space(&specs, 100, 42));
    let model = ClusteredTextModel::new("table1-model", space.clone(), 7);

    let mut arena = VectorArena::new(model.dim());
    for w in &words {
        arena.push(&model.embed(w));
    }
    let index = BruteForceIndex::build(&arena);

    println!("TABLE I — context-rich text labels the representation model matches");
    println!("(top-4 nearest labels per category, cosine in parentheses)\n");
    println!("{:<10} | {:<58} | prec@4 | recall", "category", "semantic matches");
    println!("{}", "-".repeat(95));

    let mut total_correct = 0usize;
    let mut total_shown = 0usize;
    for category in ["dog", "cat", "animal", "shoes", "jacket", "clothes"] {
        let query = model.embed(category);
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
        // Recall: how many of the category's true members appear in top-k
        // (k = member count).
        let members: Vec<&String> = words
            .iter()
            .filter(|w| w.as_str() != category && space.in_cluster_tree(w, category))
            .collect();
        let topm = index.search_topk(&query, members.len() + 1);
        let found = topm
            .iter()
            .filter(|r| {
                words[r.id] != category && space.in_cluster_tree(&words[r.id], category)
            })
            .count();
        let rendered: Vec<String> = matches
            .iter()
            .map(|(w, s)| format!("{w} ({s:.2})"))
            .collect();
        println!(
            "{:<10} | {:<58} | {}/4    | {}/{}",
            category,
            rendered.join(", "),
            correct,
            found,
            members.len()
        );
        total_correct += correct;
        total_shown += matches.len();
    }
    println!(
        "\noverall precision@4: {:.2} ({} of {} shown matches in-category)",
        total_correct as f64 / total_shown as f64,
        total_correct,
        total_shown
    );
    println!("model inferences: {}", model.stats().invocations());
}
