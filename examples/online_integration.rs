//! Figure 3: automated, on-the-fly result consolidation. Dirty values
//! (synonyms, case variants, typos) stream in; the semantic group-by
//! consolidates them into concept clusters without any cleaning rules.
//!
//! Run with: `cargo run --release --example online_integration`

use cx_datagen::{generate_dirty, table1_clusters, DirtyConfig};
use cx_embed::{ClusteredTextModel, EmbeddingCache};
use cx_semantic::{consolidate, pairwise_metrics};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let specs = table1_clusters();
    let dirty = generate_dirty(
        &specs,
        DirtyConfig {
            size: 50_000,
            typo_rate: 0.2,
            case_rate: 0.2,
            seed: 3,
        },
    );
    // The space is built from typo-augmented specs: this models the
    // misspelling-oblivious embeddings the paper cites ([17]).
    let space = Arc::new(cx_datagen::build_space(&dirty.augmented_specs, 100, 42));
    let cache = Arc::new(EmbeddingCache::new(Arc::new(ClusteredTextModel::new(
        "consolidation-model",
        space,
        7,
    ))));

    let values: Vec<&str> = dirty.records.iter().map(|(v, _)| v.as_str()).collect();
    let truth: Vec<&str> = dirty.records.iter().map(|(_, t)| t.as_str()).collect();

    println!("consolidating {} dirty records...", values.len());
    let t = Instant::now();
    let result = consolidate(&values, &cache, 0.82);
    let elapsed = t.elapsed();

    let metrics = pairwise_metrics(&result.assignments, &truth);
    println!("\n== FIGURE 3 — on-the-fly result consolidation ==");
    println!("records in:        {}", values.len());
    println!("clusters out:      {}", result.num_clusters());
    println!("dedup ratio:       {:.1}x", result.dedup_ratio());
    println!("pairwise precision {:.3}", metrics.precision);
    println!("pairwise recall    {:.3}", metrics.recall);
    println!("pairwise F1        {:.3}", metrics.f1);
    println!(
        "throughput:        {:.0} records/s",
        values.len() as f64 / elapsed.as_secs_f64()
    );
    println!(
        "model inferences:  {} (distinct values only, {} cache hits)",
        cache.model().stats().invocations(),
        cache.hits()
    );

    println!("\nlargest clusters:");
    let mut sizes: Vec<(usize, usize)> = result
        .members
        .iter()
        .enumerate()
        .map(|(id, m)| (id, m.len()))
        .collect();
    sizes.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
    for (id, n) in sizes.iter().take(8) {
        println!("  '{}' <- {} records", result.representatives[*id], n);
    }
}
