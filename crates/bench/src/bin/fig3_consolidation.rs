//! FIGURE 3 — automated, on-the-fly result consolidation.
//!
//! Dirty values (synonyms, alternative spellings/forms, typos — exactly the
//! dirt Section I says dominates context-rich sources) are consolidated by
//! `GROUP BY SEMANTIC`'s clustering. Reported across input scales: cluster
//! quality against ground truth, dedup ratio, throughput, and model
//! inferences (bounded by distinct values thanks to the embedding cache).
//!
//! Usage: `cargo run --release -p cx-bench --bin fig3_consolidation`

use cx_datagen::{generate_dirty, synthetic_clusters, table1_clusters, DirtyConfig};
use cx_embed::{ClusteredTextModel, EmbeddingCache};
use cx_semantic::{consolidate, pairwise_metrics};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    println!("FIGURE 3 — automated on-the-fly result consolidation\n");
    println!(
        "{:>8} | {:>9} | {:>9} | {:>10} | {:>6} | {:>6} | {:>6} | {:>12}",
        "records", "clusters", "dedup x", "records/s", "prec", "recall", "F1", "inferences"
    );
    println!("{}", "-".repeat(90));

    for &size in &[1_000usize, 10_000, 50_000, 100_000] {
        // Table I concepts plus synthetic clusters for scale.
        let mut specs = table1_clusters();
        specs.extend(synthetic_clusters(30, 8, 0xF133));
        let dirty = generate_dirty(
            &specs,
            DirtyConfig {
                size,
                typo_rate: 0.2,
                case_rate: 0.2,
                seed: 3,
            },
        );
        let space = Arc::new(cx_datagen::build_space(&dirty.augmented_specs, 100, 42));
        let cache = Arc::new(EmbeddingCache::new(Arc::new(ClusteredTextModel::new(
            "consolidation-model",
            space,
            7,
        ))));

        let values: Vec<&str> = dirty.records.iter().map(|(v, _)| v.as_str()).collect();
        let truth: Vec<&str> = dirty.records.iter().map(|(_, t)| t.as_str()).collect();

        let t = Instant::now();
        let result = consolidate(&values, &cache, 0.82);
        let elapsed = t.elapsed();
        let metrics = pairwise_metrics(&result.assignments, &truth);

        println!(
            "{:>8} | {:>9} | {:>9.1} | {:>10.0} | {:>6.3} | {:>6.3} | {:>6.3} | {:>12}",
            size,
            result.num_clusters(),
            result.dedup_ratio(),
            size as f64 / elapsed.as_secs_f64(),
            metrics.precision,
            metrics.recall,
            metrics.f1,
            cache.model().stats().invocations()
        );
    }

    println!("\n(shape check: quality flat across scales, inferences bounded by the");
    println!(" distinct-value count, throughput dominated by cluster comparisons)");
}
