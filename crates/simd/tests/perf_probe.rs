//! Manual perf probe (ignored): min-of-N timing for the block kernel and
//! the probe-tile threshold kernel, robust against noisy shared cores. Run
//! with
//! `cargo test -p cx-simd --release --test perf_probe -- --ignored --nocapture`.

use cx_simd::{dot_block, dot_tile_threshold};
use std::time::Instant;

fn rows_f32(rows: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut s = seed;
    (0..rows * dim)
        .map(|_| {
            s = s.wrapping_add(0x9E3779B97F4A7C15);
            ((s >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        })
        .collect()
}

fn min_ns(mut f: impl FnMut(), reps: usize, inner: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        for _ in 0..inner {
            f();
        }
        best = best.min(t.elapsed().as_nanos() as f64 / inner as f64);
    }
    best
}

#[test]
#[ignore = "manual perf probe"]
fn block_kernel_floor() {
    const ROWS: usize = 1024;
    for dim in [256usize, 768] {
        let q = rows_f32(1, dim, 3);
        let block = rows_f32(ROWS, dim, 7);
        let mut out = vec![0.0f32; ROWS];

        let f32_ns = min_ns(|| dot_block(&q, &block, dim, &mut out), 200, 5);
        println!("dim {dim}: f32 {:.1} ns/pair", f32_ns / ROWS as f64);
    }

    // The join's schedule: a cache-resident 64-row build tile, probes
    // streaming over it one (P = 1) or two (P = 2) per register tile. The
    // floor admits nothing, so this is the scoring cost alone.
    const TILE: usize = 64;
    const PROBES: usize = 64;
    for dim in [128usize, 256, 768] {
        let tile = rows_f32(TILE, dim, 11);
        let probes = rows_f32(PROBES, dim, 13);
        let mut hits = 0usize;
        let mut per_pair = |p: usize| {
            let ns = min_ns(
                || {
                    for p0 in (0..PROBES).step_by(p) {
                        dot_tile_threshold(
                            &probes[p0 * dim..],
                            dim,
                            p,
                            &tile,
                            dim,
                            TILE,
                            dim,
                            f32::INFINITY,
                            |_, _, _| hits += 1,
                        );
                    }
                },
                200,
                5,
            );
            ns / (PROBES * TILE) as f64
        };
        let (one, two) = (per_pair(1), per_pair(2));
        assert_eq!(hits, 0);
        println!("dim {dim}: tile P=1 {one:.2} ns/pair, P=2 {two:.2} ns/pair (64-row L1 panel)");
    }
}
