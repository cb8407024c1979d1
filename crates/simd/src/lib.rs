//! Explicit-SIMD kernel layer with runtime dispatch (ROADMAP #3).
//!
//! Every semantic sweep in this engine bottoms out in one f32 panel-kernel
//! family — [`dot`], [`dot_block`], [`dot_tile_threshold`]: the blocked
//! similarity kernels of `cx_vector::block`.
//!
//! This crate holds their guarded `std::arch` implementations behind a
//! one-time-resolved [`KernelDispatch`] (CPU feature detection ⊕ the
//! `CX_SIMD` env override — see [`dispatch`]). Callers never name an ISA:
//! they call the portable entry points here and the active path is
//! consulted once per *panel* call (a relaxed atomic load), never per pair.
//!
//! # Numerical contract
//!
//! Each path fixes its accumulation-tree order: under one active path,
//! blocked ≡ tiled ≡ pairwise to the bit ([`dot_block`] row `r` and every
//! [`dot_tile_threshold`] score equal [`dot`] on the same pair). The x86
//! register tiles run each pair's accumulators in `dot`'s order, then
//! reduce sixteen (AVX-512) or eight (AVX2) pairs at once in a transposed
//! tree: each level adds, per pair, the same two operands `dot`'s reduction
//! tree adds at that level — only in another lane and possibly swapped, and
//! IEEE addition is commutative — so every lane ends with `dot`'s bits; dim
//! tails follow per lane, in order, as in `dot`. Scores may differ in the
//! last bits *across* paths (wider accumulators and FMA change rounding).
//! The scalar path reproduces the historical `dot_unrolled` ladder exactly,
//! so `CX_SIMD=off` is bit-compatible with every release before this layer
//! existed.
//!
//! Padding lanes of a strided block (`dim..stride`) are never read, on any
//! path: vector loads stay within `chunks*width <= dim` and tails run
//! element-wise.

#![warn(missing_docs)]
// Index-based loops mirror the fixed lane/accumulator structure the
// numerical contract is defined in terms of; iterator rewrites would
// obscure exactly the property the kernels guarantee.
#![allow(clippy::needless_range_loop)]

pub mod dispatch;
mod fp32;

pub use dispatch::{
    available_modes, force_mode, F32Path, KernelDispatch, SimdMode, UnsupportedSimdMode,
};
pub use fp32::{dot, dot_block, dot_tile_threshold};

/// The fixed 8-lane reduction tree shared by the f32 scalar ladder and the
/// AVX2 path: `(l0+l1)+(l2+l3)+((l4+l5)+(l6+l7))`.
#[inline]
pub(crate) fn reduce8_tree(l: &[f32; 8]) -> f32 {
    (l[0] + l[1]) + (l[2] + l[3]) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// The fixed 16-lane reduction tree of the AVX-512 path: pairwise over
/// lanes, then over quads.
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn reduce16_tree(l: &[f32; 16]) -> f32 {
    let t0 = (l[0] + l[1]) + (l[2] + l[3]);
    let t1 = (l[4] + l[5]) + (l[6] + l[7]);
    let t2 = (l[8] + l[9]) + (l[10] + l[11]);
    let t3 = (l[12] + l[13]) + (l[14] + l[15]);
    (t0 + t1) + (t2 + t3)
}

/// Validates the row-major block layout shared by every panel kernel:
/// `stride >= dim` and `block` long enough for `rows` rows. Returns `true`
/// when there is work to do (`rows > 0`).
///
/// # Panics
/// Panics on a short block or a stride below `dim` — layout bugs must not
/// become out-of-bounds vector loads.
#[inline]
pub(crate) fn check_block(block: &[f32], stride: usize, dim: usize, rows: usize) -> bool {
    assert!(stride >= dim, "stride {stride} shorter than dim {dim}");
    if rows == 0 {
        return false;
    }
    assert!(
        block.len() >= (rows - 1) * stride + dim,
        "block of {} elements too short for {rows} rows at stride {stride}",
        block.len()
    );
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_trees_are_plain_sums_on_exact_values() {
        let l8 = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        assert_eq!(reduce8_tree(&l8), 36.0);
        #[cfg(target_arch = "x86_64")]
        let l16: [f32; 16] = std::array::from_fn(|i| (i + 1) as f32);
        #[cfg(target_arch = "x86_64")]
        assert_eq!(reduce16_tree(&l16), 136.0);
    }

    #[test]
    fn check_block_accepts_exact_fit_and_rejects_short() {
        assert!(check_block(&[0.0; 3 * 8 - (8 - 5)], 8, 5, 3));
        assert!(!check_block(&[], 8, 5, 0));
        let r = std::panic::catch_unwind(|| check_block(&[0.0; 20], 8, 5, 3));
        assert!(r.is_err());
        let r = std::panic::catch_unwind(|| check_block(&[0.0; 64], 4, 5, 1));
        assert!(r.is_err());
    }
}
