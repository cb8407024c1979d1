//! f16 kernel family: IEEE binary16 rows scored against an f32 query.
//!
//! Bit-identity is *cross-ISA* here, not per-ISA: every path — scalar
//! software conversion, F16C through 256-bit registers, F16C through
//! 512-bit registers — computes the same bits for NaN-free data. Two facts
//! make that possible:
//!
//! 1. `vcvtph2ps` performs exactly the IEEE binary16 → binary32 conversion
//!    the software bit-twiddling path does (every half-precision value,
//!    subnormals included, is exactly representable in f32; the only
//!    divergence is sNaN payload quieting, and embeddings are NaN-free).
//! 2. All paths fix one accumulation order: two banks of sixteen
//!    independent lanes advanced by *fused* multiply-add — the scalar
//!    path's [`f32::mul_add`] is the same single-rounding IEEE operation
//!    the `vfmadd` units perform — then a lanewise bank merge, the shared
//!    16-lane reduction tree, and a sequential fused tail.
//!
//! So `CX_SIMD=off` and hardware runs score quantized panels identically —
//! the property tests assert it — and the tier choice never changes
//! results, only speed. The two banks exist for speed alone: a single
//! accumulator would serialize the adds behind FP latency and leave the
//! hardware path slower than f32 at cache-resident sizes.

use crate::dispatch::{F16Path, KernelDispatch};
use crate::{check_block, reduce16_tree};

/// Converts an `f32` to IEEE-754 binary16 bits (round-to-nearest-even),
/// handling subnormals, infinities and NaN. The *write* path of the f16
/// tier stays software on every ISA so stored panels are host-independent.
pub fn f32_to_f16(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let frac = bits & 0x7F_FFFF;

    if exp == 0xFF {
        // Inf / NaN.
        let nan_bit = if frac != 0 { 0x200 } else { 0 };
        return sign | 0x7C00 | nan_bit | ((frac >> 13) as u16 & 0x3FF);
    }

    // Re-bias: f32 bias 127 -> f16 bias 15.
    let unbiased = exp - 127;
    let new_exp = unbiased + 15;

    if new_exp >= 0x1F {
        // Overflow to infinity.
        return sign | 0x7C00;
    }
    if new_exp <= 0 {
        // Subnormal or zero.
        if new_exp < -10 {
            return sign; // Rounds to zero.
        }
        let mantissa = frac | 0x80_0000; // implicit leading 1
        let shift = 14 - new_exp;
        let half = 1u32 << (shift - 1);
        let rounded = (mantissa + half) >> shift;
        return sign | rounded as u16;
    }

    // Normal case with round-to-nearest-even on the dropped 13 bits.
    let mut out = ((new_exp as u32) << 10) | (frac >> 13);
    let round_bits = frac & 0x1FFF;
    if round_bits > 0x1000 || (round_bits == 0x1000 && (out & 1) == 1) {
        out += 1; // may carry into exponent, which is correct behaviour
    }
    sign | out as u16
}

/// Converts IEEE-754 binary16 bits to `f32` (software path; bit-identical
/// to `vcvtph2ps` for every non-NaN input).
pub fn f16_to_f32(bits: u16) -> f32 {
    let sign = ((bits & 0x8000) as u32) << 16;
    let exp = ((bits >> 10) & 0x1F) as u32;
    let frac = (bits & 0x3FF) as u32;

    let out = if exp == 0 {
        if frac == 0 {
            sign // +-0
        } else {
            // Subnormal: normalize.
            let mut e = 0i32;
            let mut f = frac;
            while f & 0x400 == 0 {
                f <<= 1;
                e -= 1;
            }
            let f = f & 0x3FF;
            sign | (((e + 113) as u32) << 23) | (f << 13)
        }
    } else if exp == 0x1F {
        sign | 0x7F80_0000 | (frac << 13) // Inf / NaN
    } else {
        sign | ((exp + 112) << 23) | (frac << 13)
    };
    f32::from_bits(out)
}

/// Dot of f16 row bits against an f32 query on the active f16 path.
///
/// Slices of unequal length are truncated to the shorter.
#[inline]
pub fn dot_f16(row: &[u16], query: &[f32]) -> f32 {
    let dim = row.len().min(query.len());
    match KernelDispatch::active().f16_path {
        F16Path::Scalar => dot_f16_scalar(row, query, dim),
        #[cfg(target_arch = "x86_64")]
        F16Path::F16cAvx2 => unsafe { x86::dot_f16c_avx2(row.as_ptr(), query.as_ptr(), dim) },
        #[cfg(target_arch = "x86_64")]
        F16Path::F16cAvx512 => unsafe { x86::dot_f16c_avx512(row.as_ptr(), query.as_ptr(), dim) },
        #[allow(unreachable_patterns)]
        _ => dot_f16_scalar(row, query, dim),
    }
}

/// Scores `query` against `out.len()` f16 rows stored row-major in `block`
/// at `stride` half-floats per row: `out[r] = dot(query, dequant(row_r))`,
/// bit-identical to pairwise [`dot_f16`] on every path.
///
/// # Panics
/// Panics if `stride < query.len()` or `block` is too short for the rows.
pub fn dot_block_f16(query: &[f32], block: &[u16], stride: usize, out: &mut [f32]) {
    let dim = query.len();
    if !check_block(block, stride, dim, out.len()) {
        return;
    }
    match KernelDispatch::active().f16_path {
        F16Path::Scalar => dot_block_f16_scalar(query, block, stride, out),
        #[cfg(target_arch = "x86_64")]
        F16Path::F16cAvx2 => unsafe { x86::dot_block_f16c_avx2(query, block, stride, out) },
        #[cfg(target_arch = "x86_64")]
        F16Path::F16cAvx512 => unsafe { x86::dot_block_f16c_avx512(query, block, stride, out) },
        #[allow(unreachable_patterns)]
        _ => dot_block_f16_scalar(query, block, stride, out),
    }
}

/// Converts a slice of f16 bits to f32 (hardware `vcvtph2ps` when active,
/// software otherwise — same bits either way for non-NaN input). `dst` is
/// filled up to the shorter of the two lengths.
pub fn convert_f16_slice(src: &[u16], dst: &mut [f32]) {
    let n = src.len().min(dst.len());
    match KernelDispatch::active().f16_path {
        F16Path::Scalar => convert_scalar(src, dst, n),
        #[cfg(target_arch = "x86_64")]
        F16Path::F16cAvx2 => unsafe { x86::convert_f16c_avx2(src.as_ptr(), dst.as_mut_ptr(), n) },
        #[cfg(target_arch = "x86_64")]
        F16Path::F16cAvx512 => unsafe {
            x86::convert_f16c_avx512(src.as_ptr(), dst.as_mut_ptr(), n)
        },
        #[allow(unreachable_patterns)]
        _ => convert_scalar(src, dst, n),
    }
}

// ---------------------------------------------------------------- scalar --

fn convert_scalar(src: &[u16], dst: &mut [f32], n: usize) {
    for i in 0..n {
        dst[i] = f16_to_f32(src[i]);
    }
}

/// The shared accumulation order, in software: 32-element chunks feeding
/// two 16-lane fused-multiply-add banks, a trailing 16-element half-chunk
/// into bank 0, a lanewise bank merge, the 16-lane tree, and a fused
/// sequential tail.
#[inline]
pub(crate) fn dot_f16_scalar(row: &[u16], query: &[f32], dim: usize) -> f32 {
    let mut acc0 = [0.0f32; 16];
    let mut acc1 = [0.0f32; 16];
    let chunks = dim / 32;
    for c in 0..chunks {
        let base = c * 32;
        for i in 0..16 {
            acc0[i] = f16_to_f32(row[base + i]).mul_add(query[base + i], acc0[i]);
            acc1[i] = f16_to_f32(row[base + 16 + i]).mul_add(query[base + 16 + i], acc1[i]);
        }
    }
    let mut done = chunks * 32;
    if dim - done >= 16 {
        for i in 0..16 {
            acc0[i] = f16_to_f32(row[done + i]).mul_add(query[done + i], acc0[i]);
        }
        done += 16;
    }
    let mut lanes = [0.0f32; 16];
    for i in 0..16 {
        lanes[i] = acc0[i] + acc1[i];
    }
    let mut sum = reduce16_tree(&lanes);
    for i in done..dim {
        sum = f16_to_f32(row[i]).mul_add(query[i], sum);
    }
    sum
}

/// Rows per scalar pass: four rows share the query chunk (the historical
/// code re-sliced the query per row inside `dot_f16`).
const SCALAR_MICRO: usize = 4;

fn dot_block_f16_scalar(query: &[f32], block: &[u16], stride: usize, out: &mut [f32]) {
    let dim = query.len();
    let rows = out.len();
    let chunks = dim / 32;
    let mut r = 0;
    while r + SCALAR_MICRO <= rows {
        let rs: [&[u16]; SCALAR_MICRO] =
            std::array::from_fn(|k| &block[(r + k) * stride..(r + k) * stride + dim]);
        let mut acc0 = [[0.0f32; 16]; SCALAR_MICRO];
        let mut acc1 = [[0.0f32; 16]; SCALAR_MICRO];
        for c in 0..chunks {
            let base = c * 32;
            let q: &[f32; 32] = query[base..base + 32].try_into().expect("32-wide chunk");
            for k in 0..SCALAR_MICRO {
                let x: &[u16; 32] = rs[k][base..base + 32].try_into().expect("32-wide chunk");
                for i in 0..16 {
                    acc0[k][i] = f16_to_f32(x[i]).mul_add(q[i], acc0[k][i]);
                    acc1[k][i] = f16_to_f32(x[16 + i]).mul_add(q[16 + i], acc1[k][i]);
                }
            }
        }
        let mut done = chunks * 32;
        if dim - done >= 16 {
            for k in 0..SCALAR_MICRO {
                for i in 0..16 {
                    acc0[k][i] = f16_to_f32(rs[k][done + i]).mul_add(query[done + i], acc0[k][i]);
                }
            }
            done += 16;
        }
        for k in 0..SCALAR_MICRO {
            let mut lanes = [0.0f32; 16];
            for i in 0..16 {
                lanes[i] = acc0[k][i] + acc1[k][i];
            }
            let mut sum = reduce16_tree(&lanes);
            for i in done..dim {
                sum = f16_to_f32(rs[k][i]).mul_add(query[i], sum);
            }
            out[r + k] = sum;
        }
        r += SCALAR_MICRO;
    }
    while r < rows {
        out[r] = dot_f16_scalar(&block[r * stride..r * stride + dim], query, dim);
        r += 1;
    }
}

// ------------------------------------------------------------------- x86 --

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::f16_to_f32;
    use crate::reduce16_tree;
    use std::arch::x86_64::*;

    /// F16C through 256-bit registers. Bank 0 lives in two ymm registers
    /// (lanes 0..8 and 8..16), bank 1 likewise — the exact lane mapping of
    /// the scalar path, advanced by `vfmadd` (the scalar path's
    /// `f32::mul_add` is the same fused operation).
    ///
    /// # Safety
    /// AVX2+FMA+F16C available; pointers readable for `dim` elements.
    #[target_feature(enable = "avx2,fma,f16c")]
    pub(super) unsafe fn dot_f16c_avx2(row: *const u16, query: *const f32, dim: usize) -> f32 {
        let chunks = dim / 32;
        let mut a0lo = _mm256_setzero_ps();
        let mut a0hi = _mm256_setzero_ps();
        let mut a1lo = _mm256_setzero_ps();
        let mut a1hi = _mm256_setzero_ps();
        for c in 0..chunks {
            let base = c * 32;
            let h0 = _mm_loadu_si128(row.add(base) as *const __m128i);
            let h1 = _mm_loadu_si128(row.add(base + 8) as *const __m128i);
            let h2 = _mm_loadu_si128(row.add(base + 16) as *const __m128i);
            let h3 = _mm_loadu_si128(row.add(base + 24) as *const __m128i);
            a0lo = _mm256_fmadd_ps(_mm256_cvtph_ps(h0), _mm256_loadu_ps(query.add(base)), a0lo);
            a0hi = _mm256_fmadd_ps(
                _mm256_cvtph_ps(h1),
                _mm256_loadu_ps(query.add(base + 8)),
                a0hi,
            );
            a1lo = _mm256_fmadd_ps(
                _mm256_cvtph_ps(h2),
                _mm256_loadu_ps(query.add(base + 16)),
                a1lo,
            );
            a1hi = _mm256_fmadd_ps(
                _mm256_cvtph_ps(h3),
                _mm256_loadu_ps(query.add(base + 24)),
                a1hi,
            );
        }
        let mut done = chunks * 32;
        if dim - done >= 16 {
            let h0 = _mm_loadu_si128(row.add(done) as *const __m128i);
            let h1 = _mm_loadu_si128(row.add(done + 8) as *const __m128i);
            a0lo = _mm256_fmadd_ps(_mm256_cvtph_ps(h0), _mm256_loadu_ps(query.add(done)), a0lo);
            a0hi = _mm256_fmadd_ps(
                _mm256_cvtph_ps(h1),
                _mm256_loadu_ps(query.add(done + 8)),
                a0hi,
            );
            done += 16;
        }
        let mut lanes = [0.0f32; 16];
        _mm256_storeu_ps(lanes.as_mut_ptr(), _mm256_add_ps(a0lo, a1lo));
        _mm256_storeu_ps(lanes.as_mut_ptr().add(8), _mm256_add_ps(a0hi, a1hi));
        let mut sum = reduce16_tree(&lanes);
        for i in done..dim {
            sum = f16_to_f32(*row.add(i)).mul_add(*query.add(i), sum);
        }
        sum
    }

    /// Rows per AVX2 block pass: two rows keep the eight bank registers
    /// plus four shared query registers inside the 16-ymm file.
    const MICRO_AVX2: usize = 2;

    /// # Safety
    /// AVX2+FMA+F16C available; block layout checked by the safe caller.
    #[target_feature(enable = "avx2,fma,f16c")]
    pub(super) unsafe fn dot_block_f16c_avx2(
        query: &[f32],
        block: &[u16],
        stride: usize,
        out: &mut [f32],
    ) {
        let dim = query.len();
        let rows = out.len();
        let q = query.as_ptr();
        let b = block.as_ptr();
        let chunks = dim / 32;
        let mut r = 0;
        while r + MICRO_AVX2 <= rows {
            let rowp: [*const u16; MICRO_AVX2] = std::array::from_fn(|k| b.add((r + k) * stride));
            let mut acc = [[_mm256_setzero_ps(); 4]; MICRO_AVX2];
            for c in 0..chunks {
                let base = c * 32;
                let q0 = _mm256_loadu_ps(q.add(base));
                let q1 = _mm256_loadu_ps(q.add(base + 8));
                let q2 = _mm256_loadu_ps(q.add(base + 16));
                let q3 = _mm256_loadu_ps(q.add(base + 24));
                for k in 0..MICRO_AVX2 {
                    let h0 = _mm_loadu_si128(rowp[k].add(base) as *const __m128i);
                    let h1 = _mm_loadu_si128(rowp[k].add(base + 8) as *const __m128i);
                    let h2 = _mm_loadu_si128(rowp[k].add(base + 16) as *const __m128i);
                    let h3 = _mm_loadu_si128(rowp[k].add(base + 24) as *const __m128i);
                    acc[k][0] = _mm256_fmadd_ps(_mm256_cvtph_ps(h0), q0, acc[k][0]);
                    acc[k][1] = _mm256_fmadd_ps(_mm256_cvtph_ps(h1), q1, acc[k][1]);
                    acc[k][2] = _mm256_fmadd_ps(_mm256_cvtph_ps(h2), q2, acc[k][2]);
                    acc[k][3] = _mm256_fmadd_ps(_mm256_cvtph_ps(h3), q3, acc[k][3]);
                }
            }
            let mut done = chunks * 32;
            if dim - done >= 16 {
                let q0 = _mm256_loadu_ps(q.add(done));
                let q1 = _mm256_loadu_ps(q.add(done + 8));
                for k in 0..MICRO_AVX2 {
                    let h0 = _mm_loadu_si128(rowp[k].add(done) as *const __m128i);
                    let h1 = _mm_loadu_si128(rowp[k].add(done + 8) as *const __m128i);
                    acc[k][0] = _mm256_fmadd_ps(_mm256_cvtph_ps(h0), q0, acc[k][0]);
                    acc[k][1] = _mm256_fmadd_ps(_mm256_cvtph_ps(h1), q1, acc[k][1]);
                }
                done += 16;
            }
            for k in 0..MICRO_AVX2 {
                let mut lanes = [0.0f32; 16];
                _mm256_storeu_ps(lanes.as_mut_ptr(), _mm256_add_ps(acc[k][0], acc[k][2]));
                _mm256_storeu_ps(
                    lanes.as_mut_ptr().add(8),
                    _mm256_add_ps(acc[k][1], acc[k][3]),
                );
                let mut sum = reduce16_tree(&lanes);
                for i in done..dim {
                    sum = f16_to_f32(*rowp[k].add(i)).mul_add(*q.add(i), sum);
                }
                out[r + k] = sum;
            }
            r += MICRO_AVX2;
        }
        while r < rows {
            out[r] = dot_f16c_avx2(b.add(r * stride), q, dim);
            r += 1;
        }
    }

    /// F16C widened to 512-bit registers: per 32-wide chunk, two
    /// `vcvtph2ps zmm` + two `vfmadd` into the two 16-lane banks whose
    /// lanes are exactly the scalar path's `acc0`/`acc1`.
    ///
    /// # Safety
    /// AVX-512F+F16C available; pointers readable for `dim` elements.
    #[target_feature(enable = "avx512f,f16c")]
    pub(super) unsafe fn dot_f16c_avx512(row: *const u16, query: *const f32, dim: usize) -> f32 {
        let chunks = dim / 32;
        let mut acc0 = _mm512_setzero_ps();
        let mut acc1 = _mm512_setzero_ps();
        for c in 0..chunks {
            let base = c * 32;
            let h0 = _mm256_loadu_si256(row.add(base) as *const __m256i);
            let h1 = _mm256_loadu_si256(row.add(base + 16) as *const __m256i);
            acc0 = _mm512_fmadd_ps(_mm512_cvtph_ps(h0), _mm512_loadu_ps(query.add(base)), acc0);
            acc1 = _mm512_fmadd_ps(
                _mm512_cvtph_ps(h1),
                _mm512_loadu_ps(query.add(base + 16)),
                acc1,
            );
        }
        let mut done = chunks * 32;
        if dim - done >= 16 {
            let h = _mm256_loadu_si256(row.add(done) as *const __m256i);
            acc0 = _mm512_fmadd_ps(_mm512_cvtph_ps(h), _mm512_loadu_ps(query.add(done)), acc0);
            done += 16;
        }
        let mut lanes = [0.0f32; 16];
        _mm512_storeu_ps(lanes.as_mut_ptr(), _mm512_add_ps(acc0, acc1));
        let mut sum = reduce16_tree(&lanes);
        for i in done..dim {
            sum = f16_to_f32(*row.add(i)).mul_add(*query.add(i), sum);
        }
        sum
    }

    /// Rows per AVX-512 block pass: four rows keep eight named bank
    /// registers plus two shared query registers live with no accumulator
    /// array the compiler could spill.
    const MICRO_AVX512: usize = 4;

    /// # Safety
    /// AVX-512F+F16C available; block layout checked by the safe caller.
    #[target_feature(enable = "avx512f,f16c")]
    pub(super) unsafe fn dot_block_f16c_avx512(
        query: &[f32],
        block: &[u16],
        stride: usize,
        out: &mut [f32],
    ) {
        let dim = query.len();
        let rows = out.len();
        let q = query.as_ptr();
        let b = block.as_ptr();
        let chunks = dim / 32;
        let mut r = 0;
        while r + MICRO_AVX512 <= rows {
            let r0 = b.add(r * stride);
            let r1 = b.add((r + 1) * stride);
            let r2 = b.add((r + 2) * stride);
            let r3 = b.add((r + 3) * stride);
            let mut a00 = _mm512_setzero_ps();
            let mut a01 = _mm512_setzero_ps();
            let mut a10 = _mm512_setzero_ps();
            let mut a11 = _mm512_setzero_ps();
            let mut a20 = _mm512_setzero_ps();
            let mut a21 = _mm512_setzero_ps();
            let mut a30 = _mm512_setzero_ps();
            let mut a31 = _mm512_setzero_ps();
            for c in 0..chunks {
                let base = c * 32;
                let q0 = _mm512_loadu_ps(q.add(base));
                let q1 = _mm512_loadu_ps(q.add(base + 16));
                a00 = _mm512_fmadd_ps(
                    _mm512_cvtph_ps(_mm256_loadu_si256(r0.add(base) as *const __m256i)),
                    q0,
                    a00,
                );
                a01 = _mm512_fmadd_ps(
                    _mm512_cvtph_ps(_mm256_loadu_si256(r0.add(base + 16) as *const __m256i)),
                    q1,
                    a01,
                );
                a10 = _mm512_fmadd_ps(
                    _mm512_cvtph_ps(_mm256_loadu_si256(r1.add(base) as *const __m256i)),
                    q0,
                    a10,
                );
                a11 = _mm512_fmadd_ps(
                    _mm512_cvtph_ps(_mm256_loadu_si256(r1.add(base + 16) as *const __m256i)),
                    q1,
                    a11,
                );
                a20 = _mm512_fmadd_ps(
                    _mm512_cvtph_ps(_mm256_loadu_si256(r2.add(base) as *const __m256i)),
                    q0,
                    a20,
                );
                a21 = _mm512_fmadd_ps(
                    _mm512_cvtph_ps(_mm256_loadu_si256(r2.add(base + 16) as *const __m256i)),
                    q1,
                    a21,
                );
                a30 = _mm512_fmadd_ps(
                    _mm512_cvtph_ps(_mm256_loadu_si256(r3.add(base) as *const __m256i)),
                    q0,
                    a30,
                );
                a31 = _mm512_fmadd_ps(
                    _mm512_cvtph_ps(_mm256_loadu_si256(r3.add(base + 16) as *const __m256i)),
                    q1,
                    a31,
                );
            }
            let mut done = chunks * 32;
            if dim - done >= 16 {
                let q0 = _mm512_loadu_ps(q.add(done));
                a00 = _mm512_fmadd_ps(
                    _mm512_cvtph_ps(_mm256_loadu_si256(r0.add(done) as *const __m256i)),
                    q0,
                    a00,
                );
                a10 = _mm512_fmadd_ps(
                    _mm512_cvtph_ps(_mm256_loadu_si256(r1.add(done) as *const __m256i)),
                    q0,
                    a10,
                );
                a20 = _mm512_fmadd_ps(
                    _mm512_cvtph_ps(_mm256_loadu_si256(r2.add(done) as *const __m256i)),
                    q0,
                    a20,
                );
                a30 = _mm512_fmadd_ps(
                    _mm512_cvtph_ps(_mm256_loadu_si256(r3.add(done) as *const __m256i)),
                    q0,
                    a30,
                );
                done += 16;
            }
            let banks = [
                (r0, a00, a01),
                (r1, a10, a11),
                (r2, a20, a21),
                (r3, a30, a31),
            ];
            for (k, (rp, b0, b1)) in banks.into_iter().enumerate() {
                let mut lanes = [0.0f32; 16];
                _mm512_storeu_ps(lanes.as_mut_ptr(), _mm512_add_ps(b0, b1));
                let mut sum = reduce16_tree(&lanes);
                for i in done..dim {
                    sum = f16_to_f32(*rp.add(i)).mul_add(*q.add(i), sum);
                }
                out[r + k] = sum;
            }
            r += MICRO_AVX512;
        }
        while r < rows {
            out[r] = dot_f16c_avx512(b.add(r * stride), q, dim);
            r += 1;
        }
    }

    /// # Safety
    /// AVX2+F16C available; `src` readable and `dst` writable for `n`.
    #[target_feature(enable = "avx2,f16c")]
    pub(super) unsafe fn convert_f16c_avx2(src: *const u16, dst: *mut f32, n: usize) {
        let chunks = n / 8;
        for c in 0..chunks {
            let h = _mm_loadu_si128(src.add(c * 8) as *const __m128i);
            _mm256_storeu_ps(dst.add(c * 8), _mm256_cvtph_ps(h));
        }
        for i in chunks * 8..n {
            *dst.add(i) = f16_to_f32(*src.add(i));
        }
    }

    /// # Safety
    /// AVX-512F+F16C available; `src` readable and `dst` writable for `n`.
    #[target_feature(enable = "avx512f,f16c")]
    pub(super) unsafe fn convert_f16c_avx512(src: *const u16, dst: *mut f32, n: usize) {
        let chunks = n / 16;
        for c in 0..chunks {
            let h = _mm256_loadu_si256(src.add(c * 16) as *const __m256i);
            _mm512_storeu_ps(dst.add(c * 16), _mm512_cvtph_ps(h));
        }
        for i in chunks * 16..n {
            *dst.add(i) = f16_to_f32(*src.add(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f16_row(n: usize, seed: u64) -> Vec<u16> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_add(0x9E3779B97F4A7C15);
                let u = ((s ^ (s >> 31)) >> 40) as f32 / (1u64 << 24) as f32;
                f32_to_f16(u * 2.0 - 1.0)
            })
            .collect()
    }

    fn f32_row(n: usize, seed: u64) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(7);
        (0..n)
            .map(|_| {
                s = s.wrapping_add(0x9E3779B97F4A7C15);
                let u = ((s ^ (s >> 29)) >> 40) as f32 / (1u64 << 24) as f32;
                u * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn roundtrip_and_specials_match_historical_behaviour() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0] {
            assert_eq!(f16_to_f32(f32_to_f16(v)), v, "value {v}");
        }
        assert_eq!(f16_to_f32(f32_to_f16(f32::INFINITY)), f32::INFINITY);
        assert!(f16_to_f32(f32_to_f16(f32::NAN)).is_nan());
        assert_eq!(f16_to_f32(f32_to_f16(1e6)), f32::INFINITY);
        assert_eq!(f16_to_f32(f32_to_f16(1e-10)), 0.0);
    }

    #[test]
    fn active_path_matches_scalar_bitwise() {
        // The cross-ISA contract: whatever resolved on this host equals the
        // software path to the bit, half-chunks and tails included.
        for dim in [0, 1, 7, 15, 16, 17, 31, 32, 33, 47, 48, 49, 63, 64, 65, 100] {
            let row = f16_row(dim, 1);
            let q = f32_row(dim, 2);
            let hw = dot_f16(&row, &q);
            let sw = dot_f16_scalar(&row, &q, dim);
            assert_eq!(hw.to_bits(), sw.to_bits(), "dim {dim}");
        }
    }

    #[test]
    fn block_matches_pairwise_bitwise_on_active_path() {
        for (dim, stride) in [(1, 8), (5, 8), (16, 16), (33, 40), (48, 48), (100, 104)] {
            let q = f32_row(dim, 3);
            let rows = 9usize;
            let mut block = vec![0u16; rows * stride];
            for r in 0..rows {
                block[r * stride..r * stride + dim].copy_from_slice(&f16_row(dim, 10 + r as u64));
            }
            let mut out = vec![f32::NAN; rows];
            dot_block_f16(&q, &block, stride, &mut out);
            for r in 0..rows {
                let exact = dot_f16(&block[r * stride..r * stride + dim], &q);
                assert_eq!(out[r].to_bits(), exact.to_bits(), "dim {dim} row {r}");
            }
        }
    }

    #[test]
    fn convert_slice_matches_elementwise() {
        for n in [0, 1, 7, 8, 9, 15, 16, 17, 100] {
            let src = f16_row(n, 5);
            let mut dst = vec![f32::NAN; n];
            convert_f16_slice(&src, &mut dst);
            for i in 0..n {
                assert_eq!(
                    dst[i].to_bits(),
                    f16_to_f32(src[i]).to_bits(),
                    "n {n} i {i}"
                );
            }
        }
    }

    #[test]
    fn subnormal_halfs_convert_identically() {
        // Smallest subnormal, largest subnormal, smallest normal.
        let mut dst = [0.0f32; 3];
        let src = [0x0001u16, 0x03FF, 0x0400];
        convert_f16_slice(&src, &mut dst);
        for (i, &bits) in src.iter().enumerate() {
            assert_eq!(dst[i].to_bits(), f16_to_f32(bits).to_bits());
        }
        assert!(dst[0] > 0.0 && dst[0] < dst[1] && dst[1] < dst[2]);
    }
}
