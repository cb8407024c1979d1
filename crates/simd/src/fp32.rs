//! f32 kernel family: pairwise [`dot`], panel [`dot_block`] and the
//! probe-tile threshold kernel [`dot_tile_threshold`].
//!
//! Per-ISA bit-identity: under one active [`F32Path`], every panel score
//! equals `dot(probe, row)` to the bit (see the crate doc for why the x86
//! register tiles keep the bits). Across paths results may differ in the
//! last bits (lane width and FMA change rounding); the scalar path is the
//! historical `dot_unrolled` ladder, bit for bit.

use crate::dispatch::{F32Path, KernelDispatch};
use crate::{check_block, reduce8_tree};

/// Dot product of `a` and `b` on the active f32 path.
///
/// Slices of unequal length are truncated to the shorter (callers pass
/// equal lengths; the min keeps the unsafe paths in bounds regardless).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let dim = a.len().min(b.len());
    match KernelDispatch::active().f32_path {
        F32Path::Scalar => dot_scalar(a, b, dim),
        #[cfg(target_arch = "x86_64")]
        F32Path::Avx2 => unsafe { x86::dot_avx2(a.as_ptr(), b.as_ptr(), dim) },
        #[cfg(target_arch = "x86_64")]
        F32Path::Avx512 => unsafe { x86::dot_avx512(a.as_ptr(), b.as_ptr(), dim) },
        #[cfg(target_arch = "aarch64")]
        F32Path::Neon => unsafe { neon::dot_neon(a.as_ptr(), b.as_ptr(), dim) },
        #[allow(unreachable_patterns)]
        _ => dot_scalar(a, b, dim),
    }
}

/// Scores `query` against `out.len()` rows of a row-major `block`
/// (`stride >= dim` floats per row), `out[r] = dot(query, row_r)` on the
/// active path. On x86 this is the one-probe case of the
/// [`dot_tile_threshold`] micro-kernel, storing every lane.
///
/// # Panics
/// Panics if `stride < query.len()` or `block` is too short for the rows.
pub fn dot_block(query: &[f32], block: &[f32], stride: usize, out: &mut [f32]) {
    let dim = query.len();
    if !check_block(block, stride, dim, out.len()) {
        return;
    }
    match KernelDispatch::active().f32_path {
        F32Path::Scalar => dot_block_scalar(query, block, stride, out),
        #[cfg(target_arch = "x86_64")]
        F32Path::Avx2 => unsafe { x86::dot_block_avx2(query, block, stride, out) },
        #[cfg(target_arch = "x86_64")]
        F32Path::Avx512 => unsafe { x86::dot_block_avx512(query, block, stride, out) },
        #[cfg(target_arch = "aarch64")]
        F32Path::Neon => unsafe { neon::dot_block_neon(query, block, stride, out) },
        #[allow(unreachable_patterns)]
        _ => dot_block_scalar(query, block, stride, out),
    }
}

/// Scores every probe row against every panel row (`probe_rows` rows at
/// `probe_stride`, `panel_rows` at `panel_stride`, both `dim` wide) and
/// calls `emit(probe, row, score)` for each pair with `score >= floor`,
/// `score == dot(probe, row)` bit for bit; a NaN score clears no floor.
///
/// The x86 paths score two probes against eight (AVX-512) or four (AVX2)
/// panel rows per register tile, so each panel row is loaded once per
/// probe pair; scalar and NEON run [`dot_block`] once per probe. For each
/// probe, rows are emitted in ascending order; probes may interleave.
///
/// # Panics
/// Panics if a stride is shorter than `dim` or a block is too short for
/// its rows.
#[allow(clippy::too_many_arguments)]
pub fn dot_tile_threshold(
    probes: &[f32],
    probe_stride: usize,
    probe_rows: usize,
    panel: &[f32],
    panel_stride: usize,
    panel_rows: usize,
    dim: usize,
    floor: f32,
    mut emit: impl FnMut(usize, usize, f32),
) {
    if !check_block(probes, probe_stride, dim, probe_rows)
        || !check_block(panel, panel_stride, dim, panel_rows)
    {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    let (p, b) = (
        x86::Rows { ptr: probes.as_ptr(), stride: probe_stride, rows: probe_rows },
        x86::Rows { ptr: panel.as_ptr(), stride: panel_stride, rows: panel_rows },
    );
    match KernelDispatch::active().f32_path {
        #[cfg(target_arch = "x86_64")]
        F32Path::Avx2 => unsafe { x86::tile_threshold_avx2(p, b, dim, floor, &mut emit) },
        #[cfg(target_arch = "x86_64")]
        F32Path::Avx512 => unsafe { x86::tile_threshold_avx512(p, b, dim, floor, &mut emit) },
        _ => {
            // One dense strip per probe through the dispatched block kernel.
            let mut scores = [0.0f32; 64];
            for p in 0..probe_rows {
                let query = &probes[p * probe_stride..p * probe_stride + dim];
                for r0 in (0..panel_rows).step_by(64) {
                    let strip = &mut scores[..64.min(panel_rows - r0)];
                    dot_block(query, &panel[r0 * panel_stride..], panel_stride, strip);
                    let hits = strip.iter().enumerate().filter(|(_, &s)| s >= floor);
                    hits.for_each(|(k, &s)| emit(p, r0 + k, s));
                }
            }
        }
    }
}

// ---------------------------------------------------------------- scalar --

/// The historical `dot_unrolled` ladder over the first `dim` elements:
/// eight independent accumulators over 8-wide chunks, the fixed reduction
/// tree, then a sequential tail. `CX_SIMD=off` scores are these bits.
#[inline]
pub(crate) fn dot_scalar(a: &[f32], b: &[f32], dim: usize) -> f32 {
    let mut acc = [0.0f32; 8];
    let chunks = dim / 8;
    for c in 0..chunks {
        let base = c * 8;
        let ca: &[f32; 8] = a[base..base + 8].try_into().expect("8-wide chunk");
        let cb: &[f32; 8] = b[base..base + 8].try_into().expect("8-wide chunk");
        for i in 0..8 {
            acc[i] += ca[i] * cb[i];
        }
    }
    let mut sum = reduce8_tree(&acc);
    for i in chunks * 8..dim {
        sum += a[i] * b[i];
    }
    sum
}

/// Rows per scalar micro-kernel pass (the historical `MICRO_ROWS`).
const SCALAR_MICRO: usize = 8;

fn dot_block_scalar(query: &[f32], block: &[f32], stride: usize, out: &mut [f32]) {
    let dim = query.len();
    let rows = out.len();
    let chunks = dim / 8;
    let mut r = 0;
    while r + SCALAR_MICRO <= rows {
        // Eight rows × eight accumulators, query chunk loaded once per pass;
        // per-row arithmetic order is exactly dot_scalar's.
        let rs: [&[f32]; SCALAR_MICRO] =
            std::array::from_fn(|k| &block[(r + k) * stride..(r + k) * stride + dim]);
        let mut acc = [[0.0f32; 8]; SCALAR_MICRO];
        for c in 0..chunks {
            let base = c * 8;
            let q: &[f32; 8] = query[base..base + 8].try_into().expect("8-wide chunk");
            for k in 0..SCALAR_MICRO {
                let x: &[f32; 8] = rs[k][base..base + 8].try_into().expect("8-wide chunk");
                for i in 0..8 {
                    acc[k][i] += q[i] * x[i];
                }
            }
        }
        for k in 0..SCALAR_MICRO {
            let mut sum = reduce8_tree(&acc[k]);
            for i in chunks * 8..dim {
                sum += query[i] * rs[k][i];
            }
            out[r + k] = sum;
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
    use super::super::{reduce8_tree, reduce16_tree};
    use std::arch::x86_64::*;

    /// Tile rows advanced together through the dim loop: each probe chunk
    /// is loaded once per four rows and `4 × P × 2` FMA chains are in
    /// flight (the best group for P = 1 and 2 on both ISAs in the
    /// `block_kernel_floor` probe).
    const GROUP: usize = 4;

    /// A row-major block: `rows` rows at `stride` floats from `ptr`.
    #[derive(Clone, Copy)]
    pub(super) struct Rows {
        pub ptr: *const f32,
        pub stride: usize,
        pub rows: usize,
    }

    impl Rows {
        /// Rows `r..r + R` (rows past the end repeat the last one) and the
        /// mask of lanes `p * R + k`, `p < P`, whose row `r + k` exists.
        #[inline(always)]
        fn tile<const P: usize, const R: usize>(&self, r: usize) -> ([*const f32; R], u32) {
            let row = |k: usize| self.ptr.wrapping_add((r + k).min(self.rows - 1) * self.stride);
            let live = (1u32 << (self.rows - r).min(R)) - 1;
            (std::array::from_fn(row), (0..P).fold(0, |m, p| m | live << (p * R)))
        }
    }

    /// Adds the dim tail `from..dim` to every lane sum — lane `j` pairs
    /// probe `j / R` with row `j % R` — element by element, as the pairwise
    /// kernels' tail loops do.
    ///
    /// # Safety
    /// Every pointer readable for `dim` floats.
    #[inline(always)]
    unsafe fn add_tails<const R: usize>(
        sums: &mut [f32],
        q: &[*const f32],
        x: &[*const f32; R],
        from: usize,
        dim: usize,
    ) {
        for (j, sum) in sums.iter_mut().enumerate() {
            for i in from..dim {
                *sum += *q[j / R].add(i) * *x[j % R].add(i);
            }
        }
    }

    /// Emits `(p0 + j / R, r + j % R, sums[j])` for every lane `j` set in
    /// `hits`, ascending.
    #[inline(always)]
    fn emit_lanes<const R: usize>(
        mut hits: u32,
        sums: &[f32],
        (p0, r): (usize, usize),
        emit: &mut impl FnMut(usize, usize, f32),
    ) {
        while hits != 0 {
            let j = hits.trailing_zeros() as usize;
            emit(p0 + j / R, r + j % R, sums[j]);
            hits &= hits - 1;
        }
    }

    /// AVX2+FMA dot: two 8-lane FMA accumulators over 16-wide chunks,
    /// lane-wise combine, the 8-lane reduction tree, sequential tail.
    ///
    /// # Safety
    /// Caller guarantees AVX2+FMA are available and both pointers are
    /// readable for `dim` floats.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn dot_avx2(a: *const f32, b: *const f32, dim: usize) -> f32 {
        let chunks = dim / 16;
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        for c in 0..chunks {
            let base = c * 16;
            acc0 = _mm256_fmadd_ps(
                _mm256_loadu_ps(a.add(base)),
                _mm256_loadu_ps(b.add(base)),
                acc0,
            );
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(a.add(base + 8)),
                _mm256_loadu_ps(b.add(base + 8)),
                acc1,
            );
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), _mm256_add_ps(acc0, acc1));
        let mut sum = reduce8_tree(&lanes);
        for i in chunks * 16..dim {
            sum += *a.add(i) * *b.add(i);
        }
        sum
    }

    /// The eight pairs of a `P`-probe × `R`-row tile (`P * R == 8`): lane
    /// `p * R + k` is `dot_avx2(q[p], x[k])` to the bit. Each pair runs
    /// `dot_avx2`'s two accumulators; the eight combined lane vectors are
    /// then reduced together — two `hadd` levels (`reduce8_tree`'s first
    /// two, within 128-bit halves) and one add of the halves (its last).
    ///
    /// # Safety
    /// AVX2+FMA available; every pointer readable for `dim` floats.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn tile8<const P: usize, const R: usize>(
        q: [*const f32; P],
        x: [*const f32; R],
        dim: usize,
    ) -> [f32; 8] {
        let chunks = dim / 16;
        let mut v = [_mm256_setzero_ps(); 8];
        for k0 in (0..R).step_by(GROUP) {
            let mut acc = [[[_mm256_setzero_ps(); 2]; GROUP]; P];
            for base in (0..chunks * 16).step_by(16) {
                for p in 0..P {
                    let q0 = _mm256_loadu_ps(q[p].add(base));
                    let q1 = _mm256_loadu_ps(q[p].add(base + 8));
                    for (g, [a0, a1]) in acc[p].iter_mut().enumerate() {
                        let x0 = _mm256_loadu_ps(x[k0 + g].add(base));
                        let x1 = _mm256_loadu_ps(x[k0 + g].add(base + 8));
                        *a0 = _mm256_fmadd_ps(q0, x0, *a0);
                        *a1 = _mm256_fmadd_ps(q1, x1, *a1);
                    }
                }
            }
            for (p, row) in acc.iter().enumerate() {
                for (g, [a0, a1]) in row.iter().enumerate() {
                    v[p * R + k0 + g] = _mm256_add_ps(*a0, *a1);
                }
            }
        }
        let h: [__m256; 4] = std::array::from_fn(|i| _mm256_hadd_ps(v[2 * i], v[2 * i + 1]));
        let (g0, g1) = (_mm256_hadd_ps(h[0], h[1]), _mm256_hadd_ps(h[2], h[3]));
        let mut sums = [0.0f32; 8];
        _mm256_storeu_ps(
            sums.as_mut_ptr(),
            _mm256_add_ps(
                _mm256_permute2f128_ps::<0x20>(g0, g1),
                _mm256_permute2f128_ps::<0x31>(g0, g1),
            ),
        );
        add_tails(&mut sums, &q, &x, chunks * 16, dim);
        sums
    }

    /// # Safety
    /// AVX2+FMA available; `block` holds `out.len()` rows of `dim` floats
    /// at `stride` (checked by the safe caller).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn dot_block_avx2(
        query: &[f32],
        block: &[f32],
        stride: usize,
        out: &mut [f32],
    ) {
        let rows = Rows { ptr: block.as_ptr(), stride, rows: out.len() };
        for r in (0..rows.rows).step_by(8) {
            let (x, live) = rows.tile::<1, 8>(r);
            let sums = tile8([query.as_ptr()], x, query.len());
            let n = live.count_ones() as usize;
            out[r..r + n].copy_from_slice(&sums[..n]);
        }
    }

    /// # Safety
    /// AVX2+FMA available; layouts checked by the safe caller.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn tile_threshold_avx2(
        probes: Rows,
        panel: Rows,
        dim: usize,
        floor: f32,
        emit: &mut impl FnMut(usize, usize, f32),
    ) {
        /// One pass of `P` probes from `p0` over the whole panel.
        #[target_feature(enable = "avx2,fma")]
        #[inline]
        unsafe fn pass<const P: usize, const R: usize>(
            (probes, p0): (Rows, usize),
            panel: Rows,
            dim: usize,
            floor: __m256,
            emit: &mut impl FnMut(usize, usize, f32),
        ) {
            let (q, _) = probes.tile::<1, P>(p0); // probe rows p0..p0 + P
            for r in (0..panel.rows).step_by(R) {
                let (x, live) = panel.tile::<P, R>(r);
                let sums = tile8::<P, R>(q, x, dim);
                let ge = _mm256_cmp_ps::<_CMP_GE_OQ>(_mm256_loadu_ps(sums.as_ptr()), floor);
                emit_lanes::<R>(_mm256_movemask_ps(ge) as u32 & live, &sums, (p0, r), emit);
            }
        }
        let floor = _mm256_set1_ps(floor);
        let pairs = probes.rows / 2 * 2;
        for p0 in (0..pairs).step_by(2) {
            pass::<2, 4>((probes, p0), panel, dim, floor, emit);
        }
        if pairs < probes.rows {
            pass::<1, 8>((probes, pairs), panel, dim, floor, emit);
        }
    }

    /// AVX-512F dot: two 16-lane FMA accumulators over 32-wide chunks,
    /// lane-wise combine, the 16-lane reduction tree, sequential tail.
    ///
    /// # Safety
    /// AVX-512F available; pointers readable for `dim` floats.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn dot_avx512(a: *const f32, b: *const f32, dim: usize) -> f32 {
        let chunks = dim / 32;
        let mut acc0 = _mm512_setzero_ps();
        let mut acc1 = _mm512_setzero_ps();
        for c in 0..chunks {
            let base = c * 32;
            acc0 = _mm512_fmadd_ps(
                _mm512_loadu_ps(a.add(base)),
                _mm512_loadu_ps(b.add(base)),
                acc0,
            );
            acc1 = _mm512_fmadd_ps(
                _mm512_loadu_ps(a.add(base + 16)),
                _mm512_loadu_ps(b.add(base + 16)),
                acc1,
            );
        }
        let mut lanes = [0.0f32; 16];
        _mm512_storeu_ps(lanes.as_mut_ptr(), _mm512_add_ps(acc0, acc1));
        let mut sum = reduce16_tree(&lanes);
        for i in chunks * 32..dim {
            sum += *a.add(i) * *b.add(i);
        }
        sum
    }

    /// The sixteen pairs of a `P`-probe × `R`-row tile (`P * R == 16`):
    /// lane `p * R + k` is `dot_avx512(q[p], x[k])` to the bit. Each pair
    /// runs `dot_avx512`'s two accumulators; the sixteen combined lane
    /// vectors are then reduced together in four levels of even/odd
    /// `permutex2var` + add, each adding the adjacent lanes `reduce16_tree`
    /// adds.
    ///
    /// # Safety
    /// AVX-512F available; every pointer readable for `dim` floats.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn tile16<const P: usize, const R: usize>(
        q: [*const f32; P],
        x: [*const f32; R],
        dim: usize,
    ) -> [f32; 16] {
        let chunks = dim / 32;
        let mut v = [_mm512_setzero_ps(); 16];
        for k0 in (0..R).step_by(GROUP) {
            let mut acc = [[[_mm512_setzero_ps(); 2]; GROUP]; P];
            for base in (0..chunks * 32).step_by(32) {
                for p in 0..P {
                    let q0 = _mm512_loadu_ps(q[p].add(base));
                    let q1 = _mm512_loadu_ps(q[p].add(base + 16));
                    for (g, [a0, a1]) in acc[p].iter_mut().enumerate() {
                        let x0 = _mm512_loadu_ps(x[k0 + g].add(base));
                        *a0 = _mm512_fmadd_ps(q0, x0, *a0);
                        let x1 = _mm512_loadu_ps(x[k0 + g].add(base + 16));
                        *a1 = _mm512_fmadd_ps(q1, x1, *a1);
                    }
                }
            }
            for (p, row) in acc.iter().enumerate() {
                for (g, [a0, a1]) in row.iter().enumerate() {
                    v[p * R + k0 + g] = _mm512_add_ps(*a0, *a1);
                }
            }
        }
        // Each level sums adjacent lanes of (a, b), a's into the low half
        // and b's into the high half, so lane j ends as vector j's sum.
        let even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
        let odd = _mm512_setr_epi32(1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31);
        for n in [8, 4, 2, 1] {
            for i in 0..n {
                let (a, b) = (v[2 * i], v[2 * i + 1]);
                let lo = _mm512_permutex2var_ps(a, even, b);
                v[i] = _mm512_add_ps(lo, _mm512_permutex2var_ps(a, odd, b));
            }
        }
        let mut sums = [0.0f32; 16];
        _mm512_storeu_ps(sums.as_mut_ptr(), v[0]);
        add_tails(&mut sums, &q, &x, chunks * 32, dim);
        sums
    }

    /// # Safety
    /// AVX-512F available; block layout checked by the safe caller.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn dot_block_avx512(
        query: &[f32],
        block: &[f32],
        stride: usize,
        out: &mut [f32],
    ) {
        let rows = Rows { ptr: block.as_ptr(), stride, rows: out.len() };
        for r in (0..rows.rows).step_by(16) {
            let (x, live) = rows.tile::<1, 16>(r);
            let sums = tile16([query.as_ptr()], x, query.len());
            let n = live.count_ones() as usize;
            out[r..r + n].copy_from_slice(&sums[..n]);
        }
    }

    /// # Safety
    /// AVX-512F available; layouts checked by the safe caller.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn tile_threshold_avx512(
        probes: Rows,
        panel: Rows,
        dim: usize,
        floor: f32,
        emit: &mut impl FnMut(usize, usize, f32),
    ) {
        /// One pass of `P` probes from `p0` over the whole panel.
        #[target_feature(enable = "avx512f")]
        #[inline]
        unsafe fn pass<const P: usize, const R: usize>(
            (probes, p0): (Rows, usize),
            panel: Rows,
            dim: usize,
            floor: __m512,
            emit: &mut impl FnMut(usize, usize, f32),
        ) {
            let (q, _) = probes.tile::<1, P>(p0); // probe rows p0..p0 + P
            for r in (0..panel.rows).step_by(R) {
                let (x, live) = panel.tile::<P, R>(r);
                let sums = tile16::<P, R>(q, x, dim);
                let ge = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(_mm512_loadu_ps(sums.as_ptr()), floor);
                emit_lanes::<R>(ge as u32 & live, &sums, (p0, r), emit);
            }
        }
        let floor = _mm512_set1_ps(floor);
        let pairs = probes.rows / 2 * 2;
        for p0 in (0..pairs).step_by(2) {
            pass::<2, 8>((probes, p0), panel, dim, floor, emit);
        }
        if pairs < probes.rows {
            pass::<1, 16>((probes, pairs), panel, dim, floor, emit);
        }
    }
}

// ------------------------------------------------------------------ neon --

#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::*;

    const MICRO: usize = 4;

    /// NEON dot: four 4-lane FMLA accumulators over 16-wide chunks,
    /// pairwise lane combine, then the 4-lane tree `(l0+l1)+(l2+l3)`.
    ///
    /// # Safety
    /// NEON available (always on aarch64); pointers readable for `dim`
    /// floats.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn dot_neon(a: *const f32, b: *const f32, dim: usize) -> f32 {
        let chunks = dim / 16;
        let mut acc = [vdupq_n_f32(0.0); 4];
        for c in 0..chunks {
            let base = c * 16;
            for j in 0..4 {
                acc[j] = vfmaq_f32(
                    acc[j],
                    vld1q_f32(a.add(base + j * 4)),
                    vld1q_f32(b.add(base + j * 4)),
                );
            }
        }
        let v = vaddq_f32(vaddq_f32(acc[0], acc[1]), vaddq_f32(acc[2], acc[3]));
        let mut lanes = [0.0f32; 4];
        vst1q_f32(lanes.as_mut_ptr(), v);
        let mut sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        for i in chunks * 16..dim {
            sum += *a.add(i) * *b.add(i);
        }
        sum
    }

    /// # Safety
    /// NEON available; block layout checked by the safe caller.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn dot_block_neon(
        query: &[f32],
        block: &[f32],
        stride: usize,
        out: &mut [f32],
    ) {
        let dim = query.len();
        let rows = out.len();
        let q = query.as_ptr();
        let b = block.as_ptr();
        let chunks = dim / 16;
        let mut r = 0;
        while r + MICRO <= rows {
            let rowp: [*const f32; MICRO] = std::array::from_fn(|k| b.add((r + k) * stride));
            let mut acc = [[vdupq_n_f32(0.0); 4]; MICRO];
            for c in 0..chunks {
                let base = c * 16;
                let qv = [
                    vld1q_f32(q.add(base)),
                    vld1q_f32(q.add(base + 4)),
                    vld1q_f32(q.add(base + 8)),
                    vld1q_f32(q.add(base + 12)),
                ];
                for k in 0..MICRO {
                    for j in 0..4 {
                        acc[k][j] = vfmaq_f32(acc[k][j], qv[j], vld1q_f32(rowp[k].add(base + j * 4)));
                    }
                }
            }
            for k in 0..MICRO {
                let v = vaddq_f32(
                    vaddq_f32(acc[k][0], acc[k][1]),
                    vaddq_f32(acc[k][2], acc[k][3]),
                );
                let mut lanes = [0.0f32; 4];
                vst1q_f32(lanes.as_mut_ptr(), v);
                let mut sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
                for i in chunks * 16..dim {
                    sum += *q.add(i) * *rowp[k].add(i);
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

    fn vecs(n: usize, seed: u64) -> Vec<f32> {
        // SplitMix64-ish without depending on cx_embed.
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                let u = ((z ^ (z >> 31)) >> 40) as f32 / (1u64 << 24) as f32;
                u * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn scalar_block_rows_match_scalar_pairwise_bitwise() {
        for (dim, stride) in [(0, 4), (1, 8), (7, 8), (8, 8), (13, 16), (100, 104)] {
            let q = vecs(dim, 1);
            let rows = 11usize;
            let block = vecs(rows * stride, 2);
            let mut out = vec![0.0f32; rows];
            dot_block_scalar(&q, &block, stride, &mut out);
            for r in 0..rows {
                let exact = dot_scalar(&q, &block[r * stride..r * stride + dim], dim);
                assert_eq!(out[r].to_bits(), exact.to_bits(), "dim {dim} row {r}");
            }
        }
    }

    #[test]
    fn active_path_block_matches_active_pairwise_bitwise() {
        // Whatever path resolved on this host, blocked ≡ pairwise.
        for dim in [31, 32, 64, 96, 100] {
            let q = vecs(dim, 3);
            let rows = 13usize;
            let block = vecs(rows * dim, 4);
            let mut out = vec![0.0f32; rows];
            dot_block(&q, &block, dim, &mut out);
            for r in 0..rows {
                let exact = dot(&q, &block[r * dim..(r + 1) * dim]);
                assert_eq!(out[r].to_bits(), exact.to_bits(), "dim {dim} row {r}");
            }
        }
    }

    #[test]
    fn active_path_close_to_scalar() {
        for dim in [33, 256] {
            let a = vecs(dim, 7);
            let b = vecs(dim, 8);
            let fast = dot(&a, &b);
            let exact = dot_scalar(&a, &b, dim);
            assert!((fast - exact).abs() < 1e-3, "dim {dim}: {fast} vs {exact}");
        }
    }
}
