//! Per-ISA bit-identity sweep: every mode this host can run is forced in
//! turn and the kernel contracts are checked under it (see the crate doc
//! of `cx_simd` for the contracts themselves).
//!
//! `force_mode` is process-global, so every test here serializes on one
//! mutex and restores `Native` before releasing it.

use cx_simd::{
    available_modes, dot, dot_block, dot_tile_threshold, force_mode, KernelDispatch, SimdMode,
};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes mode-forcing tests; restores `Native` on drop.
struct ModeLock(MutexGuard<'static, ()>);

impl Drop for ModeLock {
    fn drop(&mut self) {
        force_mode(SimdMode::Native).expect("native always resolves");
        let _ = &self.0;
    }
}

fn lock_modes() -> ModeLock {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let m = LOCK.get_or_init(|| Mutex::new(()));
    ModeLock(m.lock().unwrap_or_else(|p| p.into_inner()))
}

/// Deterministic pseudo-random f32s in [-1, 1) (splitmix64 core).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 23) as f32 * 2.0 - 1.0
    }

    fn f32_vec(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| self.f32()).collect()
    }
}

/// Tail-stressing dims: every length from 0 to past 2× the widest vector
/// width (64 f32 lanes per AVX-512 chunk pair), plus production sizes.
fn dims() -> Vec<usize> {
    let mut d: Vec<usize> = (0..=130).collect();
    d.extend([192, 256, 768]);
    d
}

/// Row counts around the x86 register tiles: none, one, a partial and a
/// full 8-row (AVX-512 two-probe / AVX2 one-probe) pass, a partial and a
/// full 16-row pass, one past it, and several passes with a remainder.
const ROWS: [usize; 8] = [0, 1, 7, 8, 15, 16, 17, 77];

/// `rows` random rows of `dim` floats at `stride`, padding zeroed.
fn block_of(rng: &mut Rng, rows: usize, dim: usize, stride: usize) -> Vec<f32> {
    let mut block = vec![0.0f32; rows * stride.max(1)];
    for r in 0..rows {
        let row = rng.f32_vec(dim);
        block[r * stride..r * stride + dim].copy_from_slice(&row);
    }
    block
}

#[test]
fn blocked_equals_pairwise_bitwise_under_every_mode() {
    let _guard = lock_modes();
    for mode in available_modes() {
        force_mode(mode).expect("listed mode resolves");
        let mut rng = Rng(0xC0FFEE ^ mode as u64);
        for dim in dims() {
            let stride = dim + (dim % 5); // padded and exact strides both
            let query = rng.f32_vec(dim);
            for rows in ROWS {
                let block = block_of(&mut rng, rows, dim, stride);
                let mut out = vec![0.0f32; rows];
                dot_block(&query, &block, stride, &mut out);
                for r in 0..rows {
                    let pairwise = dot(&query, &block[r * stride..r * stride + dim]);
                    assert_eq!(
                        out[r].to_bits(),
                        pairwise.to_bits(),
                        "f32 mode={} dim={dim} rows={rows} row={r}",
                        mode.label()
                    );
                }
            }
        }
    }
}

#[test]
fn threshold_tile_equals_pairwise_under_every_mode() {
    let _guard = lock_modes();
    for mode in available_modes() {
        force_mode(mode).expect("listed mode resolves");
        let mut rng = Rng(0x711E ^ mode as u64);
        for dim in dims() {
            let (ps, bs) = (dim + (dim % 3), dim + (dim % 7)); // padded strides
            let rows = ROWS[(dim % 7) + 1];
            let mut panel = block_of(&mut rng, rows, dim, bs);
            // A NaN lane poisons its row: no floor, not even -inf, admits it.
            let nan_row = (dim > 0 && rows > 3).then_some(3);
            if let Some(r) = nan_row {
                panel[r * bs + dim / 2] = f32::NAN;
            }
            for probe_rows in [1usize, 2, 3, 5] {
                let probes = block_of(&mut rng, probe_rows, dim, ps);
                let pairwise: Vec<(usize, usize, u32)> = (0..probe_rows)
                    .flat_map(|p| (0..rows).map(move |r| (p, r)))
                    .map(|(p, r)| {
                        let s = dot(&probes[p * ps..p * ps + dim], &panel[r * bs..r * bs + dim]);
                        (p, r, s.to_bits())
                    })
                    .collect();
                let mut finite: Vec<f32> = pairwise
                    .iter()
                    .map(|&(_, _, b)| f32::from_bits(b))
                    .filter(|s| !s.is_nan())
                    .collect();
                finite.sort_by(f32::total_cmp);
                let mid = finite.get(finite.len() / 2).copied().unwrap_or(0.0);
                for floor in [f32::NEG_INFINITY, mid, f32::INFINITY] {
                    let mut want: Vec<(usize, usize, u32)> = pairwise
                        .iter()
                        .copied()
                        .filter(|&(_, _, b)| f32::from_bits(b) >= floor)
                        .collect();
                    let mut got = Vec::new();
                    dot_tile_threshold(
                        &probes,
                        ps,
                        probe_rows,
                        &panel,
                        bs,
                        rows,
                        dim,
                        floor,
                        |p, r, s| got.push((p, r, s.to_bits())),
                    );
                    let tag = format!(
                        "mode={} dim={dim} probes={probe_rows} rows={rows} floor={floor}",
                        mode.label()
                    );
                    if let Some(nan) = nan_row {
                        assert!(
                            got.iter().all(|&(_, r, _)| r != nan),
                            "NaN row emitted: {tag}"
                        );
                    }
                    got.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(got, want, "{tag}");
                }
            }
        }
    }
}

#[test]
fn zero_rows_and_empty_dims_are_inert_everywhere() {
    let _guard = lock_modes();
    for mode in available_modes() {
        force_mode(mode).expect("listed mode resolves");
        let mut out_f32: Vec<f32> = vec![];
        dot_block(&[1.0, 2.0], &[], 2, &mut out_f32);
        // Zero-dim vectors dot to exactly zero on every path.
        assert_eq!(dot(&[], &[]), 0.0, "mode={}", mode.label());
    }
}

#[test]
fn off_mode_reproduces_the_scalar_ladder_bits() {
    let _guard = lock_modes();
    force_mode(SimdMode::Off).expect("off always resolves");
    assert_eq!(KernelDispatch::active().report(), "f32=scalar");
    let mut rng = Rng(0x0DD);
    for dim in dims() {
        let a = rng.f32_vec(dim);
        let b = rng.f32_vec(dim);
        // The historical dot_unrolled ladder: eight accumulators over
        // 8-element chunks, fixed reduction tree, sequential tail. CX_SIMD=off
        // must reproduce these bits so pre-dispatch results stay reproducible.
        let mut lanes = [0.0f32; 8];
        let chunks = dim / 8;
        for c in 0..chunks {
            for l in 0..8 {
                lanes[l] += a[c * 8 + l] * b[c * 8 + l];
            }
        }
        let mut want = (lanes[0] + lanes[1])
            + (lanes[2] + lanes[3])
            + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
        for i in chunks * 8..dim {
            want += a[i] * b[i];
        }
        assert_eq!(dot(&a, &b).to_bits(), want.to_bits(), "dim={dim}");
    }
}
