//! int8 kernel family: symmetric int8 rows accumulated in exact `i32`.
//!
//! Bit-identity is unconditional across ISAs: every path sums the same
//! integer products into an exact 32-bit accumulator, and integer addition
//! is associative — lane count and schedule cannot change the result. The
//! callers apply `q_scale * row_scale` afterwards, so the one float
//! multiply happens in one fixed place.
//!
//! The VNNI paths need one trick: `vpdpbusd` multiplies *unsigned* bytes
//! by signed bytes. We bias the row operand (`row ^ 0x80` reinterprets
//! `row + 128` as u8) and subtract the exact correction `128 * Σ query`
//! over the SIMD-covered prefix afterwards — all in i32, so exactness is
//! preserved. The panel kernel hoists that query sum out of the row loop.

use crate::check_block;
use crate::dispatch::{Int8Path, KernelDispatch};

/// Exact i32 accumulation of `Σ a[i] * b[i]` on the active int8 path.
/// Callers apply scales afterwards. Unequal lengths truncate to the
/// shorter.
#[inline]
pub fn dot_int8_i32(a: &[i8], b: &[i8]) -> i32 {
    let dim = a.len().min(b.len());
    match KernelDispatch::active().int8_path {
        Int8Path::Scalar => dot_scalar(a, b, dim),
        #[cfg(target_arch = "x86_64")]
        Int8Path::Avx2 => unsafe { x86::dot_avx2(a.as_ptr(), b.as_ptr(), dim) },
        #[cfg(target_arch = "x86_64")]
        Int8Path::Vnni256 => unsafe {
            if x86::vnni256_evex() {
                x86::dot_vnni256_evex(a.as_ptr(), b.as_ptr(), dim)
            } else {
                x86::dot_vnni256_avx(a.as_ptr(), b.as_ptr(), dim)
            }
        },
        #[cfg(target_arch = "x86_64")]
        Int8Path::Vnni512 => unsafe { x86::dot_vnni512(a.as_ptr(), b.as_ptr(), dim) },
        #[cfg(target_arch = "aarch64")]
        Int8Path::Neon => unsafe { neon::dot_neon(a.as_ptr(), b.as_ptr(), dim) },
        #[allow(unreachable_patterns)]
        _ => dot_scalar(a, b, dim),
    }
}

/// Integer panel kernel: `out[r] = Σ query[i] * row_r[i]` in exact i32 for
/// `out.len()` int8 rows stored row-major at `stride` bytes per row, on
/// the active path. Bit-identical to pairwise [`dot_int8_i32`] always.
///
/// # Panics
/// Panics if `stride < query.len()` or `block` is too short for the rows.
pub fn dot_block_int8(query: &[i8], block: &[i8], stride: usize, out: &mut [i32]) {
    let dim = query.len();
    if !check_block(block, stride, dim, out.len()) {
        return;
    }
    match KernelDispatch::active().int8_path {
        Int8Path::Scalar => dot_block_scalar(query, block, stride, out),
        #[cfg(target_arch = "x86_64")]
        Int8Path::Avx2 => unsafe { x86::dot_block_avx2(query, block, stride, out) },
        #[cfg(target_arch = "x86_64")]
        Int8Path::Vnni256 => unsafe {
            if x86::vnni256_evex() {
                x86::dot_block_vnni256_evex(query, block, stride, out)
            } else {
                x86::dot_block_vnni256_avx(query, block, stride, out)
            }
        },
        #[cfg(target_arch = "x86_64")]
        Int8Path::Vnni512 => unsafe { x86::dot_block_vnni512(query, block, stride, out) },
        #[cfg(target_arch = "aarch64")]
        Int8Path::Neon => unsafe { neon::dot_block_neon(query, block, stride, out) },
        #[allow(unreachable_patterns)]
        _ => dot_block_scalar(query, block, stride, out),
    }
}

// ---------------------------------------------------------------- scalar --

/// The historical `acc_int8` ladder: 4-wide unroll so LLVM widens it.
#[inline]
pub(crate) fn dot_scalar(a: &[i8], b: &[i8], dim: usize) -> i32 {
    let mut acc = [0i32; 4];
    let chunks = dim / 4;
    for c in 0..chunks {
        let base = c * 4;
        for i in 0..4 {
            acc[i] += a[base + i] as i32 * b[base + i] as i32;
        }
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for i in chunks * 4..dim {
        s += a[i] as i32 * b[i] as i32;
    }
    s
}

const SCALAR_MICRO: usize = 4;

fn dot_block_scalar(query: &[i8], block: &[i8], stride: usize, out: &mut [i32]) {
    let dim = query.len();
    let rows = out.len();
    let chunks = dim / 4;
    let mut r = 0;
    while r + SCALAR_MICRO <= rows {
        let rs: [&[i8]; SCALAR_MICRO] =
            std::array::from_fn(|k| &block[(r + k) * stride..(r + k) * stride + dim]);
        let mut acc = [[0i32; 4]; SCALAR_MICRO];
        for c in 0..chunks {
            let base = c * 4;
            for k in 0..SCALAR_MICRO {
                for i in 0..4 {
                    acc[k][i] += query[base + i] as i32 * rs[k][base + i] as i32;
                }
            }
        }
        for k in 0..SCALAR_MICRO {
            let mut s = (acc[k][0] + acc[k][1]) + (acc[k][2] + acc[k][3]);
            for i in chunks * 4..dim {
                s += query[i] as i32 * rs[k][i] as i32;
            }
            out[r + k] = s;
        }
        r += SCALAR_MICRO;
    }
    while r < rows {
        out[r] = dot_scalar(query, &block[r * stride..r * stride + dim], dim);
        r += 1;
    }
}

// ------------------------------------------------------------------- x86 --

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    const MICRO: usize = 4;

    /// Whether the 256-bit `vpdpbusd` should use the EVEX-encoded
    /// AVX512-VNNI+VL intrinsic (vs the VEX-encoded AVX-VNNI one). Both
    /// compute identical results; they are distinct intrinsics in
    /// `std::arch`, so the flavor is picked once at first use.
    pub(super) fn vnni256_evex() -> bool {
        static EVEX: OnceLock<bool> = OnceLock::new();
        *EVEX.get_or_init(|| {
            is_x86_feature_detected!("avx512vnni") && is_x86_feature_detected!("avx512vl")
        })
    }

    #[inline]
    unsafe fn hsum256_epi32(v: __m256i) -> i32 {
        let mut lanes = [0i32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v);
        lanes.iter().sum()
    }

    /// `vpmovsxbw` + `vpmaddwd`: widen both operands to i16, multiply-add
    /// adjacent pairs into i32 lanes. Exact at every step.
    ///
    /// # Safety
    /// AVX2 available; pointers readable for `dim` bytes.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_avx2(a: *const i8, b: *const i8, dim: usize) -> i32 {
        let chunks = dim / 16;
        let mut acc = _mm256_setzero_si256();
        for c in 0..chunks {
            let va = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.add(c * 16) as *const __m128i));
            let vb = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.add(c * 16) as *const __m128i));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
        }
        let mut sum = hsum256_epi32(acc);
        for i in chunks * 16..dim {
            sum += *a.add(i) as i32 * *b.add(i) as i32;
        }
        sum
    }

    /// # Safety
    /// AVX2 available; block layout checked by the safe caller.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_block_avx2(
        query: &[i8],
        block: &[i8],
        stride: usize,
        out: &mut [i32],
    ) {
        let dim = query.len();
        let rows = out.len();
        let q = query.as_ptr();
        let b = block.as_ptr();
        let chunks = dim / 16;
        let mut r = 0;
        while r + MICRO <= rows {
            let rowp: [*const i8; MICRO] = std::array::from_fn(|k| b.add((r + k) * stride));
            let mut acc = [_mm256_setzero_si256(); MICRO];
            for c in 0..chunks {
                // The widened query chunk is computed once and reused by
                // all four rows — the hoist the scalar path can't express.
                let va = _mm256_cvtepi8_epi16(_mm_loadu_si128(q.add(c * 16) as *const __m128i));
                for k in 0..MICRO {
                    let vb = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                        rowp[k].add(c * 16) as *const __m128i
                    ));
                    acc[k] = _mm256_add_epi32(acc[k], _mm256_madd_epi16(va, vb));
                }
            }
            for k in 0..MICRO {
                let mut sum = hsum256_epi32(acc[k]);
                for i in chunks * 16..dim {
                    sum += *q.add(i) as i32 * *rowp[k].add(i) as i32;
                }
                out[r + k] = sum;
            }
            r += MICRO;
        }
        while r < rows {
            out[r] = dot_avx2(q, b.add(r * stride), dim);
            r += 1;
        }
    }

    // The two 256-bit vpdpbusd flavors share one body: only the intrinsic
    // name and the required target features differ.
    macro_rules! vnni256_kernels {
        ($dot:ident, $block:ident, $dpbusd:ident, $feat:literal) => {
            /// 256-bit `vpdpbusd` with the row-bias trick (see module doc).
            ///
            /// # Safety
            /// The features named in `target_feature` are available;
            /// pointers readable for `dim` bytes.
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn $dot(a: *const i8, b: *const i8, dim: usize) -> i32 {
                let chunks = dim / 32;
                let sign = _mm256_set1_epi8(-128);
                let ones = _mm256_set1_epi8(1);
                let mut acc = _mm256_setzero_si256();
                let mut qsum = _mm256_setzero_si256();
                for c in 0..chunks {
                    let va = _mm256_loadu_si256(a.add(c * 32) as *const __m256i);
                    let vb = _mm256_loadu_si256(b.add(c * 32) as *const __m256i);
                    // (row + 128) as u8 × query as i8, exact in i32.
                    let vbu = _mm256_xor_si256(vb, sign);
                    acc = $dpbusd(acc, vbu, va);
                    qsum = $dpbusd(qsum, ones, va);
                }
                let mut sum = hsum256_epi32(acc) - 128 * hsum256_epi32(qsum);
                for i in chunks * 32..dim {
                    sum += *a.add(i) as i32 * *b.add(i) as i32;
                }
                sum
            }

            /// # Safety
            /// Features available; block layout checked by the safe caller.
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn $block(
                query: &[i8],
                block: &[i8],
                stride: usize,
                out: &mut [i32],
            ) {
                let dim = query.len();
                let rows = out.len();
                let q = query.as_ptr();
                let b = block.as_ptr();
                let chunks = dim / 32;
                // The bias correction 128·Σq over the SIMD prefix depends
                // only on the query: hoisted out of the row loop.
                let mut qsum: i32 = 0;
                for i in 0..chunks * 32 {
                    qsum += *q.add(i) as i32;
                }
                let correction = 128 * qsum;
                let sign = _mm256_set1_epi8(-128);
                let mut r = 0;
                while r + MICRO <= rows {
                    let rowp: [*const i8; MICRO] = std::array::from_fn(|k| b.add((r + k) * stride));
                    let mut acc = [_mm256_setzero_si256(); MICRO];
                    for c in 0..chunks {
                        let va = _mm256_loadu_si256(q.add(c * 32) as *const __m256i);
                        for k in 0..MICRO {
                            let vb = _mm256_loadu_si256(rowp[k].add(c * 32) as *const __m256i);
                            acc[k] = $dpbusd(acc[k], _mm256_xor_si256(vb, sign), va);
                        }
                    }
                    for k in 0..MICRO {
                        let mut sum = hsum256_epi32(acc[k]) - correction;
                        for i in chunks * 32..dim {
                            sum += *q.add(i) as i32 * *rowp[k].add(i) as i32;
                        }
                        out[r + k] = sum;
                    }
                    r += MICRO;
                }
                while r < rows {
                    let rowp = b.add(r * stride);
                    let mut acc = _mm256_setzero_si256();
                    for c in 0..chunks {
                        let va = _mm256_loadu_si256(q.add(c * 32) as *const __m256i);
                        let vb = _mm256_loadu_si256(rowp.add(c * 32) as *const __m256i);
                        acc = $dpbusd(acc, _mm256_xor_si256(vb, sign), va);
                    }
                    let mut sum = hsum256_epi32(acc) - correction;
                    for i in chunks * 32..dim {
                        sum += *q.add(i) as i32 * *rowp.add(i) as i32;
                    }
                    out[r] = sum;
                    r += 1;
                }
            }
        };
    }

    vnni256_kernels!(
        dot_vnni256_avx,
        dot_block_vnni256_avx,
        _mm256_dpbusd_avx_epi32,
        "avxvnni"
    );
    vnni256_kernels!(
        dot_vnni256_evex,
        dot_block_vnni256_evex,
        _mm256_dpbusd_epi32,
        "avx512vnni,avx512vl"
    );

    #[inline]
    unsafe fn hsum512_epi32(v: __m512i) -> i32 {
        let mut lanes = [0i32; 16];
        _mm512_storeu_si512(lanes.as_mut_ptr() as *mut __m512i, v);
        lanes.iter().sum()
    }

    /// 512-bit `vpdpbusd` with the row-bias trick.
    ///
    /// # Safety
    /// AVX-512F+VNNI available; pointers readable for `dim` bytes.
    #[target_feature(enable = "avx512f,avx512vnni")]
    pub(super) unsafe fn dot_vnni512(a: *const i8, b: *const i8, dim: usize) -> i32 {
        let chunks = dim / 64;
        let sign = _mm512_set1_epi8(-128);
        let ones = _mm512_set1_epi8(1);
        let mut acc = _mm512_setzero_si512();
        let mut qsum = _mm512_setzero_si512();
        for c in 0..chunks {
            let va = _mm512_loadu_si512(a.add(c * 64) as *const __m512i);
            let vb = _mm512_loadu_si512(b.add(c * 64) as *const __m512i);
            acc = _mm512_dpbusd_epi32(acc, _mm512_xor_si512(vb, sign), va);
            qsum = _mm512_dpbusd_epi32(qsum, ones, va);
        }
        let mut sum = hsum512_epi32(acc) - 128 * hsum512_epi32(qsum);
        for i in chunks * 64..dim {
            sum += *a.add(i) as i32 * *b.add(i) as i32;
        }
        sum
    }

    /// # Safety
    /// AVX-512F+VNNI available; block layout checked by the safe caller.
    #[target_feature(enable = "avx512f,avx512vnni")]
    pub(super) unsafe fn dot_block_vnni512(
        query: &[i8],
        block: &[i8],
        stride: usize,
        out: &mut [i32],
    ) {
        let dim = query.len();
        let rows = out.len();
        let q = query.as_ptr();
        let b = block.as_ptr();
        let chunks = dim / 64;
        let mut qsum: i32 = 0;
        for i in 0..chunks * 64 {
            qsum += *q.add(i) as i32;
        }
        let correction = 128 * qsum;
        let sign = _mm512_set1_epi8(-128);
        let mut r = 0;
        while r + MICRO <= rows {
            let rowp: [*const i8; MICRO] = std::array::from_fn(|k| b.add((r + k) * stride));
            let mut acc = [_mm512_setzero_si512(); MICRO];
            for c in 0..chunks {
                let va = _mm512_loadu_si512(q.add(c * 64) as *const __m512i);
                for k in 0..MICRO {
                    let vb = _mm512_loadu_si512(rowp[k].add(c * 64) as *const __m512i);
                    acc[k] = _mm512_dpbusd_epi32(acc[k], _mm512_xor_si512(vb, sign), va);
                }
            }
            for k in 0..MICRO {
                let mut sum = hsum512_epi32(acc[k]) - correction;
                for i in chunks * 64..dim {
                    sum += *q.add(i) as i32 * *rowp[k].add(i) as i32;
                }
                out[r + k] = sum;
            }
            r += MICRO;
        }
        while r < rows {
            let rowp = b.add(r * stride);
            let mut acc = _mm512_setzero_si512();
            for c in 0..chunks {
                let va = _mm512_loadu_si512(q.add(c * 64) as *const __m512i);
                let vb = _mm512_loadu_si512(rowp.add(c * 64) as *const __m512i);
                acc = _mm512_dpbusd_epi32(acc, _mm512_xor_si512(vb, sign), va);
            }
            let mut sum = hsum512_epi32(acc) - correction;
            for i in chunks * 64..dim {
                sum += *q.add(i) as i32 * *rowp.add(i) as i32;
            }
            out[r] = sum;
            r += 1;
        }
    }
}

// ------------------------------------------------------------------ neon --

#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::*;

    const MICRO: usize = 4;

    /// `vmull_s8` (i8×i8 → i16) + `vpadalq_s16` (pairwise widen-add into
    /// i32). Exact at every step.
    ///
    /// # Safety
    /// NEON available; pointers readable for `dim` bytes.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn dot_neon(a: *const i8, b: *const i8, dim: usize) -> i32 {
        let chunks = dim / 16;
        let mut acc = vdupq_n_s32(0);
        for c in 0..chunks {
            let va = vld1q_s8(a.add(c * 16));
            let vb = vld1q_s8(b.add(c * 16));
            acc = vpadalq_s16(acc, vmull_s8(vget_low_s8(va), vget_low_s8(vb)));
            acc = vpadalq_s16(acc, vmull_s8(vget_high_s8(va), vget_high_s8(vb)));
        }
        let mut sum = vaddvq_s32(acc);
        for i in chunks * 16..dim {
            sum += *a.add(i) as i32 * *b.add(i) as i32;
        }
        sum
    }

    /// # Safety
    /// NEON available; block layout checked by the safe caller.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn dot_block_neon(
        query: &[i8],
        block: &[i8],
        stride: usize,
        out: &mut [i32],
    ) {
        let dim = query.len();
        let rows = out.len();
        let q = query.as_ptr();
        let b = block.as_ptr();
        let chunks = dim / 16;
        let mut r = 0;
        while r + MICRO <= rows {
            let rowp: [*const i8; MICRO] = std::array::from_fn(|k| b.add((r + k) * stride));
            let mut acc = [vdupq_n_s32(0); MICRO];
            for c in 0..chunks {
                let va = vld1q_s8(q.add(c * 16));
                let (lo, hi) = (vget_low_s8(va), vget_high_s8(va));
                for k in 0..MICRO {
                    let vb = vld1q_s8(rowp[k].add(c * 16));
                    acc[k] = vpadalq_s16(acc[k], vmull_s8(lo, vget_low_s8(vb)));
                    acc[k] = vpadalq_s16(acc[k], vmull_s8(hi, vget_high_s8(vb)));
                }
            }
            for k in 0..MICRO {
                let mut sum = vaddvq_s32(acc[k]);
                for i in chunks * 16..dim {
                    sum += *q.add(i) as i32 * *rowp[k].add(i) as i32;
                }
                out[r + k] = sum;
            }
            r += MICRO;
        }
        while r < rows {
            out[r] = dot_neon(q, b.add(r * stride), dim);
            r += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i8_row(n: usize, seed: u64) -> Vec<i8> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_add(0x9E3779B97F4A7C15);
                ((s >> 33) as i64 % 255 - 127) as i8
            })
            .collect()
    }

    #[test]
    fn active_path_matches_scalar_exactly() {
        for dim in [0, 1, 3, 15, 16, 31, 32, 33, 63, 64, 65, 100, 257] {
            let a = i8_row(dim, 1);
            let b = i8_row(dim, 2);
            assert_eq!(dot_int8_i32(&a, &b), dot_scalar(&a, &b, dim), "dim {dim}");
        }
    }

    #[test]
    fn extreme_values_stay_exact() {
        // -127·-127 across a full vector plus mixed signs in the tail.
        for dim in [64, 65, 96, 127] {
            let a = vec![-127i8; dim];
            let mut b = vec![-127i8; dim];
            b[dim - 1] = 127;
            let expect: i32 = a.iter().zip(&b).map(|(&x, &y)| x as i32 * y as i32).sum();
            assert_eq!(dot_int8_i32(&a, &b), expect, "dim {dim}");
        }
    }

    #[test]
    fn block_matches_pairwise_exactly() {
        for (dim, stride) in [(1, 8), (7, 8), (32, 32), (33, 40), (100, 104)] {
            let q = i8_row(dim, 3);
            let rows = 11usize;
            let block = i8_row(rows * stride, 4);
            let mut out = vec![0i32; rows];
            dot_block_int8(&q, &block, stride, &mut out);
            for r in 0..rows {
                let row = &block[r * stride..r * stride + dim];
                let exact: i32 = q.iter().zip(row).map(|(&x, &y)| x as i32 * y as i32).sum();
                assert_eq!(out[r], exact, "dim {dim} row {r}");
            }
        }
    }
}
