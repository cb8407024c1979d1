//! FIGURE 4 — Additive effects of logical and physical optimizations on a
//! model-assisted semantic similarity join (log scale).
//!
//! Paper setup: "we join two arrays of 10k strings taken randomly from the
//! Wikipedia dataset … fastText word embeddings with a dimension of 100,
//! perform the similarity join with cosine distance where the threshold has
//! to be greater than 0.9".
//!
//! Substitutions (DESIGN.md): Zipfian synthetic corpus for Wikipedia, a
//! deterministic clustered/hashed-n-gram model for fastText, Rust
//! release-mode rungs for Python/C++. The *shape* — each optimization rung
//! improves time, pushdown dominates, interpreted-to-compiled spans orders
//! of magnitude — is the reproduction target.
//!
//! Rungs (additive, matching the paper's bars):
//!   L0 interpreted        — boxed values, per-pair dict lookups & norms
//!   L1 + prefetch         — embeddings prefetched out of the dict
//!   L2 + tight loop       — contiguous f32 rows, cached norms ("C++")
//!   L3 + SIMD-shaped      — pre-normalized, 8-wide unrolled kernel
//!   L4 + blocked kernel   — batch-at-a-time panels, one call per probe
//!   L5 + scale-up         — parallel blocked probe over all cores
//! Each rung × {no pushdown, 1% filter pushdown on both inputs}.
//!
//! Entries marked `*` were measured on a subsample and extrapolated by the
//! exact pair-count ratio (the honest way to report a 10k×10k interpreted
//! join that would run for hours). The pushdown leg is small enough to
//! repeat: it runs [`PUSH_SAMPLES`] times per rung and reports the median.
//! The table's `ns/pair` column is the no-pushdown time per candidate pair,
//! and the run ends with the active SIMD kernel dispatch.
//!
//! Usage: `cargo run --release -p cx-bench --bin fig4_optimizations`
//! (env `FIG4_N` overrides the 10_000 default).

use cx_bench::{measure_or_extrapolate, InterpretedModel, Measured};
use cx_datagen::{generate_corpus, synthetic_clusters, CorpusConfig};
use cx_embed::{ClusteredTextModel, EmbeddingModel};
use cx_vector::block::dot_block_threshold;
use cx_vector::kernels::{dot, dot_unrolled};
use cx_vector::{RowBlock, VectorArena};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

const THRESHOLD: f32 = 0.9;
const PUSHDOWN_SELECTIVITY: f64 = 0.01;
/// Samples per pushdown-sized rung; the median is reported.
const PUSH_SAMPLES: usize = 10;

/// One report row: rung label, no-pushdown and pushdown measurements.
type Rung = (&'static str, Measured, Measured);

/// Measures one rung: the full-size join (extrapolated from `sub` rows when
/// `sub < n`) and the median of [`PUSH_SAMPLES`] pushdown-sized runs.
fn rung(name: &'static str, n: usize, sub: usize, pushed: usize, f: impl Fn(usize)) -> Rung {
    let no_push = measure_or_extrapolate(n, sub, &f);
    let mut secs: Vec<f64> = (0..PUSH_SAMPLES)
        .map(|_| {
            let start = Instant::now();
            f(pushed);
            start.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(|a, b| a.partial_cmp(b).expect("sample times are finite"));
    let med = secs[secs.len() / 2];
    (name, no_push, Measured { measured_secs: med, full_secs: med, extrapolated: false })
}

fn corpus(n: usize, seed: u64) -> Vec<String> {
    let clusters = synthetic_clusters(200, 10, 0xF164);
    let vocab = cx_datagen::vocab::all_words(&clusters);
    generate_corpus(
        &vocab,
        CorpusConfig { size: n, zipf_s: 1.0, max_words: 2, seed },
    )
}

fn model() -> Arc<dyn EmbeddingModel> {
    let clusters = synthetic_clusters(200, 10, 0xF164);
    let space = Arc::new(cx_datagen::build_space(&clusters, 100, 42));
    Arc::new(ClusteredTextModel::new("fasttext-like", space, 7))
}

/// Embeds `values` into an arena once (the prefetch/materialization step
/// shared by the compiled rungs); each rung's timed closure then joins
/// zero-copy [`RowBlock`] views of its first `k` rows.
fn embed_all(model: &Arc<dyn EmbeddingModel>, values: &[String]) -> VectorArena {
    let mut arena = VectorArena::with_capacity(model.dim(), values.len());
    let mut buf = vec![0.0f32; model.dim()];
    for v in values {
        model.embed_into(v, &mut buf);
        arena.push(&buf);
    }
    arena
}

/// L1: prefetched (no dict in the loop) but unnormalized per-row `Vec`s,
/// norms recomputed per pair, plain iterator dot.
fn join_prefetched(left: &[Vec<f32>], right: &[Vec<f32>]) -> usize {
    let mut matches = 0usize;
    for l in left {
        for r in right {
            let nl = dot(l, l).sqrt();
            let nr = dot(r, r).sqrt();
            let c = if nl == 0.0 || nr == 0.0 { 0.0 } else { dot(l, r) / (nl * nr) };
            if c >= THRESHOLD {
                matches += 1;
            }
        }
    }
    matches
}

/// L2: contiguous rows, cached norms, scalar dot.
fn join_tight(left: RowBlock, right: RowBlock) -> usize {
    let mut matches = 0usize;
    for i in 0..left.rows {
        let (l, nl) = (left.row(i), left.norms[i]);
        for j in 0..right.rows {
            if cosine_with_norms_scalar(l, right.row(j), nl, right.norms[j]) >= THRESHOLD {
                matches += 1;
            }
        }
    }
    matches
}

#[inline]
fn cosine_with_norms_scalar(a: &[f32], b: &[f32], na: f32, nb: f32) -> f32 {
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot(a, b) / (na * nb)
}

/// L3: pre-normalized rows, unrolled (SIMD-shaped) dot.
fn join_simd(left: RowBlock, right: RowBlock) -> usize {
    let mut matches = 0usize;
    for i in 0..left.rows {
        for j in 0..right.rows {
            if dot_unrolled(left.row(i), right.row(j)) >= THRESHOLD {
                matches += 1;
            }
        }
    }
    matches
}

/// L4: blocked batch kernel — each probe scores the whole pre-normalized
/// build panel with one threshold-aware kernel call.
fn join_blocked(left: RowBlock, right: RowBlock) -> usize {
    let mut matches = 0usize;
    for i in 0..left.rows {
        let probe = RowBlock::one(left.row(i), &left.norms[i]);
        dot_block_threshold(probe, right, THRESHOLD, |_, _, _| matches += 1);
    }
    matches
}

/// L5: L4 parallelized over left rows with scoped threads.
fn join_parallel(left: RowBlock, right: RowBlock, threads: usize) -> usize {
    let counter = AtomicUsize::new(0);
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut local = 0usize;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= left.rows {
                        break;
                    }
                    let probe = RowBlock::one(left.row(i), &left.norms[i]);
                    dot_block_threshold(probe, right, THRESHOLD, |_, _, _| local += 1);
                }
                counter.fetch_add(local, Ordering::Relaxed);
            });
        }
    });
    counter.into_inner()
}

fn main() {
    let n: usize = std::env::var("FIG4_N").ok().and_then(|v| v.parse().ok()).unwrap_or(10_000);
    let threads = std::thread::available_parallelism().map_or(4, |p| p.get());
    let pushed = ((n as f64 * PUSHDOWN_SELECTIVITY) as usize).max(1);

    println!("FIGURE 4 — additive optimization effects on a semantic similarity join");
    println!(
        "setup: 2 x {n} strings, dim-100 embeddings, cosine >= {THRESHOLD}, {threads} threads"
    );
    println!("pushdown variant: 1% filter applied to both inputs beforehand\n");

    let left = corpus(n, 1);
    let right = corpus(n, 2);
    let m = model();

    // Interpreted-rung subsample sizes (quadratic extrapolation).
    let sub_interp = 300.min(n);
    let sub_prefetch = 2_000.min(n);

    // ---- L0: interpreted -------------------------------------------------
    let interp = InterpretedModel::load(&m, &[left.clone(), right.clone()].concat());
    let l0 = rung("L0 interpreted (Python-style)", n, sub_interp, pushed, |k| {
        std::hint::black_box(interp.similarity_join(&left[..k], &right[..k], THRESHOLD as f64));
    });

    // ---- L1: + prefetch ---------------------------------------------------
    let left_vecs: Vec<Vec<f32>> = left.iter().map(|v| m.embed(v)).collect();
    let right_vecs: Vec<Vec<f32>> = right.iter().map(|v| m.embed(v)).collect();
    let l1 = rung("L1 + prefetch (no dict in loop)", n, sub_prefetch, pushed, |k| {
        std::hint::black_box(join_prefetched(&left_vecs[..k], &right_vecs[..k]));
    });

    // ---- L2: + tight loop ("C++") ----------------------------------------
    let left_arena = embed_all(&m, &left);
    let right_arena = embed_all(&m, &right);
    let l2 = rung("L2 + tight loop, cached norms", n, n, pushed, |k| {
        std::hint::black_box(join_tight(left_arena.block(0..k), right_arena.block(0..k)));
    });

    // ---- L3..L5: pre-normalized rows ----------------------------------------
    let left_norm = left_arena.normalized();
    let right_norm = right_arena.normalized();
    let normalized = |name, join: &dyn Fn(RowBlock, RowBlock) -> usize| {
        rung(name, n, n, pushed, |k| {
            std::hint::black_box(join(left_norm.block(0..k), right_norm.block(0..k)));
        })
    };
    let l3 = normalized("L3 + SIMD-shaped unrolled kernel", &join_simd);
    let l4 = normalized("L4 + blocked batch kernel", &join_blocked);
    let l5 = normalized("L5 + parallel scale-up", &|l, r| join_parallel(l, r, threads));
    let rows: [Rung; 6] = [l0, l1, l2, l3, l4, l5];

    // ---- report ------------------------------------------------------------
    let pair_count = (n as f64) * (n as f64);
    println!(
        "{:<34} | {:>13} | {:>13} | {:>8} | {:>8} | {:>10}",
        "execution optimizations (additive)",
        "no pushdown s",
        "pushdown 1% s",
        "log10",
        "log10",
        "ns/pair"
    );
    println!("{}", "-".repeat(103));
    for (name, no_push, push) in &rows {
        println!(
            "{:<34} | {} | {} | {:>8.2} | {:>8.2} | {:>10.3}",
            name,
            no_push.render(),
            push.render(),
            no_push.log10(),
            push.log10(),
            no_push.full_secs * 1e9 / pair_count
        );
    }
    println!("\n(* = measured on a subsample, extrapolated by exact pair-count ratio)");

    let (first, last) = (&rows[0], &rows[rows.len() - 1]);
    println!(
        "\ntotal effect, no-pushdown series: {:.0}x ({:.1} orders of magnitude)",
        first.1.full_secs / last.1.full_secs,
        (first.1.full_secs / last.1.full_secs).log10()
    );
    println!("pushdown effect on naive rung:    {:.0}x", first.1.full_secs / first.2.full_secs);
    println!(
        "combined (naive no-pushdown -> all optimizations + pushdown): {:.0}x",
        first.1.full_secs / last.2.full_secs
    );
    println!("kernel dispatch: {}", cx_vector::simd::KernelDispatch::active().report());
}
