//! TABLE I — example of context-rich text labels that models may output.
//!
//! Reproduces the paper's table of per-category semantic matches, and —
//! because our semantic space carries ground truth — also reports match
//! precision/recall per category, which the paper could only illustrate.
//!
//! Each ranking is one SQL statement: the category semantic-joined to the
//! vocabulary and ordered by similarity, ties broken by label id.
//!
//! Usage: `cargo run --release -p cx-bench --bin table1_semantic_matches`

use context_engine::{Engine, EngineConfig};
use cx_embed::{ClusteredTextModel, EmbeddingModel};
use cx_serve::{ServeConfig, Server, SqlResponse};
use cx_storage::{Column, DataType, Field, Schema, Table};
use std::sync::Arc;

const CATEGORIES: [&str; 6] = ["dog", "cat", "animal", "shoes", "jacket", "clothes"];

fn main() -> cx_storage::Result<()> {
    let specs = cx_datagen::table1_clusters();
    let words = cx_datagen::vocab::all_words(&specs);
    let space = Arc::new(cx_datagen::build_space(&specs, 100, 42));
    let model = Arc::new(ClusteredTextModel::new("table1-model", space.clone(), 7));

    let engine = Arc::new(Engine::new(EngineConfig::default()));
    engine.register_model(model.clone());
    engine.register_table(
        "labels",
        Table::from_columns(
            Schema::new(vec![
                Field::new("label_id", DataType::Int64),
                Field::new("label", DataType::Utf8),
            ]),
            vec![
                Column::from_i64((0..words.len() as i64).collect()),
                Column::from_strings(words.iter().map(String::as_str)),
            ],
        )?,
    )?;
    engine.register_table(
        "categories",
        Table::from_columns(
            Schema::new(vec![Field::new("category", DataType::Utf8)]),
            vec![Column::from_strings(CATEGORIES)],
        )?,
    )?;
    let session = Server::new(engine, ServeConfig::default()).session();
    // The k vocabulary words nearest `category`, best first.
    let top_k = |category: &str, k: usize| -> cx_storage::Result<Vec<(usize, f64)>> {
        let SqlResponse::Rows(r) = session.sql(&format!(
            "SELECT label_id, similarity FROM categories \
             SEMANTIC JOIN labels ON SIM(category, label) >= 0.0 \
             WHERE category = '{category}' ORDER BY similarity DESC, label_id LIMIT {k}"
        ))?
        else {
            unreachable!("a SELECT returns rows")
        };
        let ids = r.table.column_by_name("label_id")?;
        let scores = r.table.column_by_name("similarity")?;
        let ids = ids.i64_values()?.iter().map(|&id| id as usize);
        Ok(ids.zip(scores.f64_values()?.iter().copied()).collect())
    };

    println!("TABLE I — context-rich text labels the representation model matches");
    println!("(top-4 nearest labels per category, cosine in parentheses)\n");
    println!(
        "{:<10} | {:<58} | prec@4 | recall",
        "category", "semantic matches"
    );
    println!("{}", "-".repeat(95));

    let mut total_correct = 0usize;
    let mut total_shown = 0usize;
    for category in CATEGORIES {
        let matches: Vec<(String, f64)> = top_k(category, 5)?
            .into_iter()
            .filter(|&(id, _)| words[id] != category)
            .take(4)
            .map(|(id, score)| (words[id].clone(), score))
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
        let found = top_k(category, members.len() + 1)?
            .iter()
            .filter(|&&(id, _)| {
                words[id] != category && space.in_cluster_tree(&words[id], category)
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
    Ok(())
}
