//! Blocked (batch-at-a-time) similarity kernels: the fourth rung of the
//! Figure 4 optimization ladder.
//!
//! The pairwise kernels in [`crate::kernels`] score one `(query, candidate)`
//! pair per call; every hot path that loops over them pays per-pair call
//! and bookkeeping overhead and reloads the query from memory for each
//! candidate. The kernels here score a query — or a block of probe rows —
//! against a *panel* of candidates laid out row-major (see
//! [`crate::VectorArena`]), and panels against panels, in register tiles
//! that load each operand chunk once and reuse it across the tile.
//!
//! The panel arithmetic itself lives in `cx_simd`, which picks an AVX-512 /
//! AVX2+FMA / NEON / scalar implementation at runtime (overridable via
//! `CX_SIMD`): [`dot_block`] forwards to `cx_simd::dot_block`, and
//! [`dot_block_threshold`] to `cx_simd::dot_tile_threshold`, whose x86
//! paths score two probes against eight (AVX-512) or four (AVX2) panel
//! rows per register tile, reduce the tile's pairs in one transposed tree
//! and select survivors with one vector compare. The numerical contract is
//! *per-ISA* bit-identity: under one active path every score equals the
//! pairwise [`crate::kernels::dot_unrolled`] on the same pair, bit for bit,
//! because each pair keeps its accumulation order and its reduction tree
//! adds the same operands at every level. Tiling changes the schedule,
//! never the arithmetic. (Across paths, f32 scores may differ in the last
//! bits — FMA and lane width change rounding — which is why both pairwise
//! and blocked rungs share one dispatch.)
//!
//! Layout contract: a block is `(data, stride)` where row `r` occupies
//! `data[r * stride .. r * stride + dim]` and `stride >= dim`. Padding
//! lanes (`dim..stride`) are never read.
//!
//! There is no cosine kernel here: callers normalize both sides once
//! ([`crate::VectorArena::normalize`]), after which cosine is the bare dot
//! these kernels compute — the one similarity arithmetic of the engine's
//! semantic filter and join.

use crate::RowBlock;

/// Build-side tile edge: [`scores_matrix`] tiles both sides by it, and a
/// panel sweep streams its probes over `TILE`-row build tiles. 64 rows of
/// dim ≤ 768 stay within L2 on every x86/ARM core that matters.
pub const TILE: usize = 64;

/// Scores `query` against `out.len()` candidate rows stored row-major in
/// `block` at `stride` floats per row, writing `out[r] = dot(query, row_r)`.
///
/// Bit-identical to calling [`crate::kernels::dot_unrolled`] per row under
/// the same active SIMD path.
///
/// # Panics
/// Panics if `stride < query.len()` or `block` is too short for `out.len()`
/// rows.
#[inline]
pub fn dot_block(query: &[f32], block: &[f32], stride: usize, out: &mut [f32]) {
    cx_simd::dot_block(query, block, stride, out);
}

/// Threshold-aware tile scan: scores every row of `probes` against every
/// row of `panel` and calls `emit(probe, row, score)` only for pairs with
/// `score >= floor` — pruned pairs never leave registers. Pass the current
/// top-k floor (or the filter/join threshold) to avoid touching losers; a
/// one-query caller passes a one-row probe block ([`RowBlock::one`]).
///
/// Scores are bit-identical to [`dot_block`] and to
/// [`crate::kernels::dot_unrolled`] per pair; a NaN score never clears the
/// floor. For each probe, rows are emitted in ascending order; pairs of
/// different probes may interleave (the x86 paths score two probes per
/// register tile).
///
/// # Panics
/// Panics if the blocks' dims differ or a block is shorter than its rows.
pub fn dot_block_threshold(
    probes: RowBlock,
    panel: RowBlock,
    floor: f32,
    emit: impl FnMut(usize, usize, f32),
) {
    assert_eq!(probes.dim, panel.dim, "probe and panel dims differ");
    cx_simd::dot_tile_threshold(
        probes.data,
        probes.stride,
        probes.rows,
        panel.data,
        panel.stride,
        panel.rows,
        panel.dim,
        floor,
        emit,
    );
}

/// A GEMM-shaped score matrix: `out[i * build_rows + j] = dot(probe_i,
/// build_j)`, computed in [`TILE`]×[`TILE`] tiles so the build panel stays
/// cache-resident while a tile of probes streams over it.
///
/// `probe`/`build` are row-major blocks with their own strides; `out` must
/// hold `probe_rows * build_rows` floats. Bit-identical to the pairwise
/// loop under the same active SIMD path. Probe-row bases advance
/// incrementally — no per-cell index multiplies in the scalar fallback.
#[allow(clippy::too_many_arguments)]
pub fn scores_matrix(
    probe: &[f32],
    probe_stride: usize,
    probe_rows: usize,
    dim: usize,
    build: &[f32],
    build_stride: usize,
    build_rows: usize,
    out: &mut [f32],
) {
    assert!(
        probe_stride >= dim && build_stride >= dim,
        "stride shorter than dim"
    );
    assert_eq!(out.len(), probe_rows * build_rows, "output shape mismatch");
    if probe_rows == 0 || build_rows == 0 {
        return;
    }
    assert!(
        probe.len() >= (probe_rows - 1) * probe_stride + dim,
        "probe block too short"
    );
    assert!(
        build.len() >= (build_rows - 1) * build_stride + dim,
        "build block too short"
    );
    for i0 in (0..probe_rows).step_by(TILE) {
        let i1 = (i0 + TILE).min(probe_rows);
        for j0 in (0..build_rows).step_by(TILE) {
            let j1 = (j0 + TILE).min(build_rows);
            let tile = &build[j0 * build_stride..(j1 - 1) * build_stride + dim];
            // Hoisted row bases: advance by stride instead of multiplying
            // per (i, j0) pair.
            let mut probe_base = i0 * probe_stride;
            let mut out_base = i0 * build_rows + j0;
            for _ in i0..i1 {
                let q = &probe[probe_base..probe_base + dim];
                dot_block(
                    q,
                    tile,
                    build_stride,
                    &mut out[out_base..out_base + (j1 - j0)],
                );
                probe_base += probe_stride;
                out_base += build_rows;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::dot_unrolled;
    use cx_embed::rng::SplitMix64;

    fn random_block(rows: usize, dim: usize, stride: usize, seed: u64) -> Vec<f32> {
        let mut rng = SplitMix64::new(seed);
        let mut data = vec![0.0f32; rows * stride];
        for r in 0..rows {
            for x in &mut data[r * stride..r * stride + dim] {
                *x = rng.next_f32_symmetric();
            }
        }
        data
    }

    #[test]
    fn dot_block_is_bit_identical_to_pairwise() {
        for (dim, stride) in [(1, 8), (7, 8), (8, 8), (13, 16), (64, 64), (100, 104)] {
            let mut rng = SplitMix64::new(dim as u64);
            let q: Vec<f32> = (0..dim).map(|_| rng.next_f32_symmetric()).collect();
            let block = random_block(11, dim, stride, 42 + dim as u64);
            let mut out = vec![0.0f32; 11];
            dot_block(&q, &block, stride, &mut out);
            for r in 0..11 {
                let exact = dot_unrolled(&q, &block[r * stride..r * stride + dim]);
                assert_eq!(out[r].to_bits(), exact.to_bits(), "dim {dim} row {r}");
            }
        }
    }

    #[test]
    fn threshold_variant_prunes_and_matches() {
        let dim = 33;
        // Several register tiles of probes and rows, with remainders.
        let (probes, rows) = (5, TILE + 13);
        let probe_block = random_block(probes, dim, 40, 5);
        let block = random_block(rows, dim, dim, 6);
        let view = |data, stride, rows| RowBlock {
            data,
            stride,
            dim,
            rows,
        };
        let mut full = vec![0.0f32; probes * rows];
        for p in 0..probes {
            let q = &probe_block[p * 40..p * 40 + dim];
            dot_block(q, &block, dim, &mut full[p * rows..(p + 1) * rows]);
        }
        let floor = full[14];
        let mut emitted = Vec::new();
        let (probe_view, panel_view) = (view(&probe_block, 40, probes), view(&block, dim, rows));
        dot_block_threshold(probe_view, panel_view, floor, |p, r, s| {
            emitted.push((p, r, s))
        });
        emitted.sort_by_key(|&(p, r, _)| (p, r));
        let expected: Vec<(usize, usize, f32)> = full
            .iter()
            .enumerate()
            .filter(|(_, &s)| s >= floor)
            .map(|(i, &s)| (i / rows, i % rows, s))
            .collect();
        assert_eq!(emitted, expected);
        assert!(emitted.len() < probes * rows);
    }

    #[test]
    fn scores_matrix_matches_pairwise_loop() {
        // Cross the tile boundary in both directions, with padded strides.
        let (m, n, dim, ps, bs) = (TILE + 9, TILE + 17, 24, 24, 32);
        let probe = random_block(m, dim, ps, 1);
        let build = random_block(n, dim, bs, 2);
        let mut out = vec![0.0f32; m * n];
        scores_matrix(&probe, ps, m, dim, &build, bs, n, &mut out);
        for i in 0..m {
            for j in 0..n {
                let exact =
                    dot_unrolled(&probe[i * ps..i * ps + dim], &build[j * bs..j * bs + dim]);
                assert_eq!(out[i * n + j].to_bits(), exact.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        let mut out = [0.0f32; 0];
        dot_block(&[1.0, 2.0], &[], 2, &mut out);
        let empty = RowBlock {
            data: &[],
            stride: 2,
            dim: 2,
            rows: 0,
        };
        dot_block_threshold(RowBlock::one(&[1.0, 2.0]), empty, 0.0, |_, _, _| {
            panic!("no rows")
        });
        scores_matrix(&[], 2, 0, 2, &[], 2, 0, &mut out);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn short_block_panics() {
        let mut out = [0.0f32; 3];
        dot_block(&[1.0; 4], &[0.0; 8], 4, &mut out);
    }
}
