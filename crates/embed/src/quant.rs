//! Vector quantization: IEEE-754 half precision and symmetric int8.
//!
//! Section VI of the paper calls out "inference using hardware-enabled
//! half-precision (or lower) floating point formats" as an optimization the
//! engine must consider. This module provides the two standard reduced
//! formats, their pairwise dot-product kernels, and the *panel* kernels
//! ([`dot_block_f16`], [`dot_block_int8`]) that score one f32/int8 query
//! against a row-major block of quantized rows — the quantized siblings of
//! `cx_vector::block::dot_block`, consumed by `cx_vector`'s
//! `QuantizedArena`. The kernel ladder bench measures the speed/recall
//! trade-off per tier.

/// A storage/scoring precision tier for embedding panels.
///
/// The optimizer picks a tier per semantic scan: lower tiers shrink
/// bytes-per-row (f32 4 B → f16 2 B → int8 1 B) and speed up panel scoring
/// at a bounded score error, trading recall tolerance for data movement —
/// the paper's Section VI half-precision opportunity made a plan property.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QuantTier {
    /// Full precision: exact blocked kernels.
    #[default]
    F32,
    /// IEEE binary16 rows; absolute score error ≲ 1e-3 on unit vectors.
    F16,
    /// Symmetric per-row int8; absolute score error ≲ 1.2e-2 on unit
    /// vectors.
    Int8,
}

impl QuantTier {
    /// Short name for EXPLAIN output.
    pub fn label(&self) -> &'static str {
        match self {
            QuantTier::F32 => "f32",
            QuantTier::F16 => "f16",
            QuantTier::Int8 => "int8",
        }
    }

    /// The EXPLAIN suffix operators append after their own parameters:
    /// empty at full precision, `", quant=<label>"` otherwise.
    pub fn explain_suffix(&self) -> &'static str {
        match self {
            QuantTier::F32 => "",
            QuantTier::F16 => ", quant=f16",
            QuantTier::Int8 => ", quant=int8",
        }
    }

    /// Storage bytes per vector element at this tier.
    pub fn bytes_per_value(&self) -> usize {
        match self {
            QuantTier::F32 => 4,
            QuantTier::F16 => 2,
            QuantTier::Int8 => 1,
        }
    }

    /// Stable wire discriminant (for scan signatures and other
    /// dependency-light encodings). Inverse of [`Self::from_discriminant`].
    pub fn discriminant(&self) -> u8 {
        match self {
            QuantTier::F32 => 0,
            QuantTier::F16 => 1,
            QuantTier::Int8 => 2,
        }
    }

    /// The tier encoded by [`Self::discriminant`], if valid.
    pub fn from_discriminant(d: u8) -> Option<QuantTier> {
        match d {
            0 => Some(QuantTier::F32),
            1 => Some(QuantTier::F16),
            2 => Some(QuantTier::Int8),
            _ => None,
        }
    }
}

// The IEEE binary16 converters live in `cx_simd` now (the kernel layer
// needs them for scalar tails); re-exported here so quantization callers
// keep their historical import path. The *write* path stays software on
// every ISA, so stored panels are host-independent.
pub use cx_simd::{f16_to_f32, f32_to_f16};

/// A vector quantized to one of the reduced formats.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantizedVector {
    /// IEEE binary16 payloads.
    F16(Vec<u16>),
    /// Symmetric int8: `value ≈ data[i] * scale`.
    Int8 { data: Vec<i8>, scale: f32 },
}

impl QuantizedVector {
    /// Quantizes to f16.
    pub fn to_f16(v: &[f32]) -> Self {
        QuantizedVector::F16(v.iter().map(|&x| f32_to_f16(x)).collect())
    }

    /// Quantizes to symmetric int8 (scale = max|x| / 127).
    pub fn to_int8(v: &[f32]) -> Self {
        let max_abs = v.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
        let data = v
            .iter()
            .map(|&x| (x / scale).round().clamp(-127.0, 127.0) as i8)
            .collect();
        QuantizedVector::Int8 { data, scale }
    }

    /// Vector length.
    pub fn len(&self) -> usize {
        match self {
            QuantizedVector::F16(d) => d.len(),
            QuantizedVector::Int8 { data, .. } => data.len(),
        }
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of storage per vector (the compression the paper's data
    /// movement discussion cares about).
    pub fn storage_bytes(&self) -> usize {
        match self {
            QuantizedVector::F16(d) => d.len() * 2,
            QuantizedVector::Int8 { data, .. } => data.len() + 4,
        }
    }

    /// Dequantizes back to f32.
    pub fn dequantize(&self) -> Vec<f32> {
        match self {
            QuantizedVector::F16(d) => d.iter().map(|&b| f16_to_f32(b)).collect(),
            QuantizedVector::Int8 { data, scale } => {
                data.iter().map(|&x| x as f32 * scale).collect()
            }
        }
    }

    /// Approximate dot product with an f32 query.
    ///
    /// The f16 arm runs the dispatched `cx_simd::dot_f16` kernel, so it is
    /// bit-identical to the panel kernel [`dot_block_f16`] on every ISA.
    /// The int8 arm keeps its f32-accumulating 4-wide ladder: it scores
    /// *unquantized* queries (no query-side scale), a shape outside the
    /// exact-i32 kernel family.
    pub fn dot(&self, query: &[f32]) -> f32 {
        match self {
            QuantizedVector::F16(d) => dot_f16(d, query),
            QuantizedVector::Int8 { data, scale } => {
                let mut acc = [0.0f32; 4];
                let chunks = data.len().min(query.len()) / 4;
                for c in 0..chunks {
                    let base = c * 4;
                    for i in 0..4 {
                        acc[i] += data[base + i] as f32 * query[base + i];
                    }
                }
                let mut s = reduce4(&acc);
                for i in chunks * 4..data.len().min(query.len()) {
                    s += data[i] as f32 * query[i];
                }
                s * scale
            }
        }
    }
}

#[inline]
fn reduce4(acc: &[f32; 4]) -> f32 {
    // The panel kernels reuse this exact reduction tree per row.
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Dot of f16 row bits against an f32 query on the active SIMD path
/// (hardware `vcvtph2ps` when F16C is active, software otherwise — same
/// bits either way).
#[inline]
fn dot_f16(row: &[u16], query: &[f32]) -> f32 {
    cx_simd::dot_f16(row, query)
}

/// Dot product between two int8 vectors with scales (integer accumulate,
/// the kernel shape TPU-class hardware runs natively). The accumulator is
/// exact (i32) — `cx_simd::dot_int8_i32` dispatches to `vpdpbusd` /
/// `vpmaddwd` / NEON / scalar, all bit-identical because integer addition
/// is associative.
pub fn dot_int8(a: &[i8], a_scale: f32, b: &[i8], b_scale: f32) -> f32 {
    cx_simd::dot_int8_i32(a, b) as f32 * a_scale * b_scale
}

/// Quantizes an f32 query to symmetric int8 (scale = max|x| / 127), the
/// query-side companion of [`QuantizedVector::to_int8`] for the int8 panel
/// kernel.
pub fn quantize_query_int8(q: &[f32]) -> (Vec<i8>, f32) {
    match QuantizedVector::to_int8(q) {
        QuantizedVector::Int8 { data, scale } => (data, scale),
        _ => unreachable!("to_int8 returns Int8"),
    }
}

/// Scores `query` against `out.len()` f16 rows stored row-major in `block`
/// at `stride` half-floats per row: `out[r] = dot(query, dequant(row_r))`.
///
/// Forwards to `cx_simd::dot_block_f16`: F16C hardware conversion when
/// active, software otherwise — bit-identical either way, and always
/// bit-identical to the pairwise [`QuantizedVector::dot`] f16 arm.
///
/// # Panics
/// Panics if `stride < query.len()` or `block` is too short for
/// `out.len()` rows.
#[inline]
pub fn dot_block_f16(query: &[f32], block: &[u16], stride: usize, out: &mut [f32]) {
    cx_simd::dot_block_f16(query, block, stride, out);
}

/// Integer panel kernel: accumulates `query · row_r` in exact i32 for
/// `out.len()` int8 rows stored row-major at `stride` bytes per row.
/// Callers apply scales afterwards (`acc as f32 * q_scale * row_scale`,
/// the order of [`dot_int8`]).
///
/// Forwards to `cx_simd::dot_block_int8` (`vpdpbusd` / `vpmaddwd` / NEON /
/// scalar); integer addition is exact, so results are bit-identical to
/// pairwise [`dot_int8`] accumulation on every path.
///
/// # Panics
/// Panics if `stride < query.len()` or `block` is too short for
/// `out.len()` rows.
#[inline]
pub fn dot_block_int8(query: &[i8], block: &[i8], stride: usize, out: &mut [i32]) {
    cx_simd::dot_block_int8(query, block, stride, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_roundtrip_exact_values() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0] {
            assert_eq!(f16_to_f32(f32_to_f16(v)), v, "value {v}");
        }
    }

    #[test]
    fn f16_roundtrip_relative_error() {
        let mut x = 1e-3f32;
        while x < 1e3 {
            let rt = f16_to_f32(f32_to_f16(x));
            let rel = ((rt - x) / x).abs();
            assert!(rel < 1e-3, "x={x} rt={rt} rel={rel}");
            x *= 1.7;
        }
    }

    #[test]
    fn f16_specials() {
        assert_eq!(f16_to_f32(f32_to_f16(f32::INFINITY)), f32::INFINITY);
        assert_eq!(f16_to_f32(f32_to_f16(f32::NEG_INFINITY)), f32::NEG_INFINITY);
        assert!(f16_to_f32(f32_to_f16(f32::NAN)).is_nan());
        // Overflow saturates to infinity.
        assert_eq!(f16_to_f32(f32_to_f16(1e6)), f32::INFINITY);
        // Tiny values flush toward zero.
        assert_eq!(f16_to_f32(f32_to_f16(1e-10)), 0.0);
    }

    #[test]
    fn f16_subnormals() {
        let smallest_normal = 6.104e-5f32;
        let sub = 3.1e-5f32;
        let rt = f16_to_f32(f32_to_f16(sub));
        assert!((rt - sub).abs() / sub < 0.01, "sub {sub} -> {rt}");
        let rt = f16_to_f32(f32_to_f16(smallest_normal));
        assert!((rt - smallest_normal).abs() / smallest_normal < 1e-3);
    }

    #[test]
    fn int8_quantization_error_bounded() {
        let v: Vec<f32> = (0..100).map(|i| ((i as f32) * 0.37).sin() * 0.2).collect();
        let q = QuantizedVector::to_int8(&v);
        let back = q.dequantize();
        for (a, b) in v.iter().zip(&back) {
            assert!((a - b).abs() <= 0.2 / 127.0 + 1e-6, "{a} vs {b}");
        }
        assert_eq!(q.storage_bytes(), 104);
    }

    #[test]
    fn quantized_dot_close_to_exact() {
        let a: Vec<f32> = (0..100)
            .map(|i| ((i * 7 % 13) as f32 - 6.0) / 20.0)
            .collect();
        let b: Vec<f32> = (0..100)
            .map(|i| ((i * 5 % 11) as f32 - 5.0) / 20.0)
            .collect();
        let exact: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let f16 = QuantizedVector::to_f16(&a).dot(&b);
        let i8v = QuantizedVector::to_int8(&a).dot(&b);
        assert!((exact - f16).abs() < 0.01, "f16 {f16} vs {exact}");
        assert!((exact - i8v).abs() < 0.02, "int8 {i8v} vs {exact}");
    }

    #[test]
    fn int8_pair_dot() {
        let a: Vec<f32> = vec![0.1, -0.2, 0.3];
        let b: Vec<f32> = vec![0.3, 0.2, -0.1];
        let (qa, qb) = (QuantizedVector::to_int8(&a), QuantizedVector::to_int8(&b));
        let (
            QuantizedVector::Int8 {
                data: da,
                scale: sa,
            },
            QuantizedVector::Int8 {
                data: db,
                scale: sb,
            },
        ) = (&qa, &qb)
        else {
            panic!("expected int8");
        };
        let exact: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let approx = dot_int8(da, *sa, db, *sb);
        assert!((exact - approx).abs() < 0.01, "{approx} vs {exact}");
    }

    #[test]
    fn zero_vector_int8() {
        let q = QuantizedVector::to_int8(&[0.0, 0.0]);
        assert_eq!(q.dequantize(), vec![0.0, 0.0]);
        assert_eq!(q.dot(&[1.0, 1.0]), 0.0);
    }

    #[test]
    fn tier_labels_and_bytes() {
        assert_eq!(QuantTier::default(), QuantTier::F32);
        assert_eq!(QuantTier::F16.label(), "f16");
        assert_eq!(
            [QuantTier::F32, QuantTier::F16, QuantTier::Int8].map(|t| t.bytes_per_value()),
            [4, 2, 1]
        );
    }

    /// Deterministic pseudo-random f32 in roughly [-0.6, 0.6].
    fn val(i: usize, salt: u64) -> f32 {
        let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
        ((h >> 40) as f32 / (1u64 << 24) as f32) - 0.5
    }

    #[test]
    fn f16_panel_bit_identical_to_pairwise_dot() {
        // Odd dims exercise the 4-wide tail; stride > dim exercises padding.
        for (dim, stride) in [(1, 8), (5, 8), (8, 8), (13, 16), (100, 104)] {
            let q: Vec<f32> = (0..dim).map(|i| val(i, 1)).collect();
            let rows = 9;
            let mut block = vec![0u16; rows * stride];
            let mut pairwise = Vec::new();
            for r in 0..rows {
                let v: Vec<f32> = (0..dim).map(|i| val(r * dim + i, 2)).collect();
                let QuantizedVector::F16(bits) = QuantizedVector::to_f16(&v) else {
                    unreachable!()
                };
                block[r * stride..r * stride + dim].copy_from_slice(&bits);
                pairwise.push(QuantizedVector::F16(bits).dot(&q));
            }
            let mut out = vec![f32::NAN; rows];
            dot_block_f16(&q, &block, stride, &mut out);
            for r in 0..rows {
                assert_eq!(out[r].to_bits(), pairwise[r].to_bits(), "dim {dim} row {r}");
            }
        }
    }

    #[test]
    fn int8_panel_accumulators_are_exact() {
        for (dim, stride) in [(1, 8), (7, 8), (8, 8), (29, 32), (100, 104)] {
            let qf: Vec<f32> = (0..dim).map(|i| val(i, 3)).collect();
            let (q, q_scale) = quantize_query_int8(&qf);
            // Cross the 4-row micro-kernel boundary.
            let rows = 11;
            let mut block = vec![0i8; rows * stride];
            let mut scales = vec![0.0f32; rows];
            for r in 0..rows {
                let v: Vec<f32> = (0..dim).map(|i| val(r * dim + i, 4)).collect();
                let QuantizedVector::Int8 { data, scale } = QuantizedVector::to_int8(&v) else {
                    unreachable!()
                };
                block[r * stride..r * stride + dim].copy_from_slice(&data);
                scales[r] = scale;
            }
            let mut acc = vec![0i32; rows];
            dot_block_int8(&q, &block, stride, &mut acc);
            for r in 0..rows {
                let row = &block[r * stride..r * stride + dim];
                let exact: i32 = q.iter().zip(row).map(|(&x, &y)| x as i32 * y as i32).sum();
                assert_eq!(acc[r], exact, "dim {dim} row {r}");
                // Scaled score matches the pairwise kernel to the bit.
                let scaled = acc[r] as f32 * q_scale * scales[r];
                assert_eq!(
                    scaled.to_bits(),
                    dot_int8(&q, q_scale, row, scales[r]).to_bits(),
                    "dim {dim} row {r} scaled"
                );
            }
        }
    }

    #[test]
    fn panel_kernels_handle_empty_and_short_inputs() {
        let mut out_f = [0.0f32; 0];
        dot_block_f16(&[1.0, 2.0], &[], 2, &mut out_f);
        let mut out_i = [0i32; 0];
        dot_block_int8(&[1, 2], &[], 2, &mut out_i);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn short_f16_block_panics() {
        let mut out = [0.0f32; 3];
        dot_block_f16(&[1.0; 4], &[0u16; 8], 4, &mut out);
    }

    #[test]
    fn quantize_query_roundtrip() {
        let q = [0.5f32, -1.0, 0.25];
        let (data, scale) = quantize_query_int8(&q);
        assert_eq!(data.len(), 3);
        for (x, &d) in q.iter().zip(&data) {
            assert!((x - d as f32 * scale).abs() <= scale * 0.5 + 1e-6);
        }
    }
}
