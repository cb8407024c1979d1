//! Quantized sibling of [`crate::VectorArena`]: padded f16 or int8 panels.
//!
//! A [`QuantizedArena`] holds the same row-major, padded layout as
//! [`VectorArena`] but at a reduced precision tier
//! ([`QuantTier::F16`]/[`QuantTier::Int8`]), shrinking bytes-per-row 2–4×
//! so more candidate rows fit per cache line and panel scans stream less
//! data — the paper's Section VI half-precision opportunity.
//!
//! Scoring goes through the quantized panel kernels
//! ([`cx_embed::quant::dot_block_f16`], [`cx_embed::quant::dot_block_int8`]):
//! one query against the whole panel per call, never a per-candidate loop.
//! Scores carry a bounded absolute error versus the f32 blocked kernels
//! (see the tier docs); int8 scoring is bit-identical to the pairwise
//! [`cx_embed::quant::dot_int8`] kernel because its accumulator is exact.
//!
//! Like [`VectorArena::from_texts`], [`QuantizedArena::from_texts`] fills
//! straight from an [`EmbeddingCache`] batch call, then quantizes row by
//! row — the embed → arena → quantize path never materializes per-string
//! vectors.

use crate::arena::{VectorArena, ROW_ALIGN_FLOATS};
use cx_embed::quant::{
    dot_block_f16, dot_block_int8, f32_to_f16, quantize_query_int8, QuantTier, QuantizedVector,
};
use cx_embed::EmbeddingCache;
use std::fmt;

/// Error for tiers a [`QuantizedArena`] cannot hold ([`QuantTier::F32`]:
/// full precision lives in [`VectorArena`]).
///
/// A typed error — not a panic — so a mis-planned tier degrades to a
/// failed query instead of aborting a long-lived server process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsupportedTier(pub QuantTier);

impl fmt::Display for UnsupportedTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "QuantizedArena holds f16/int8 tiers; tier {:?} belongs in VectorArena",
            self.0
        )
    }
}

impl std::error::Error for UnsupportedTier {}

impl From<UnsupportedTier> for cx_storage::Error {
    fn from(e: UnsupportedTier) -> Self {
        cx_storage::Error::InvalidArgument(e.to_string())
    }
}

/// Tier-specific row storage.
#[derive(Debug, Clone, PartialEq)]
enum QuantizedRows {
    /// IEEE binary16 bits, row-major at the arena stride.
    F16(Vec<u16>),
    /// Symmetric int8 rows with one scale per row (`value ≈ data * scale`).
    Int8 { data: Vec<i8>, scales: Vec<f32> },
}

/// A row-major `len × dim` quantized matrix with padded rows.
///
/// Padding lanes are zero and never read; `stride` matches
/// [`VectorArena`]'s ([`ROW_ALIGN_FLOATS`]-aligned) so a quantized panel
/// mirrors its f32 source row for row.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedArena {
    dim: usize,
    stride: usize,
    rows: usize,
    data: QuantizedRows,
}

impl QuantizedArena {
    /// Quantizes every row of `arena` to `tier`.
    ///
    /// # Errors
    /// Returns [`UnsupportedTier`] for [`QuantTier::F32`] — full precision
    /// lives in [`VectorArena`]; this type only holds reduced tiers.
    pub fn from_arena(arena: &VectorArena, tier: QuantTier) -> Result<Self, UnsupportedTier> {
        let dim = arena.dim();
        let stride = arena.stride();
        let rows = arena.len();
        let data = match tier {
            QuantTier::F32 => return Err(UnsupportedTier(tier)),
            QuantTier::F16 => {
                cx_storage::QueryContext::current().charge(rows * stride * 2);
                let mut data = vec![0u16; rows * stride];
                for r in 0..rows {
                    for (i, &x) in arena.row(r).iter().enumerate() {
                        data[r * stride + i] = f32_to_f16(x);
                    }
                }
                QuantizedRows::F16(data)
            }
            QuantTier::Int8 => {
                cx_storage::QueryContext::current().charge(rows * (stride + 4));
                let mut data = vec![0i8; rows * stride];
                let mut scales = vec![0.0f32; rows];
                for r in 0..rows {
                    let QuantizedVector::Int8 { data: row, scale } =
                        QuantizedVector::to_int8(arena.row(r))
                    else {
                        unreachable!("to_int8 returns Int8");
                    };
                    data[r * stride..r * stride + dim].copy_from_slice(&row);
                    scales[r] = scale;
                }
                QuantizedRows::Int8 { data, scales }
            }
        };
        Ok(QuantizedArena {
            dim,
            stride,
            rows,
            data,
        })
    }

    /// Embeds `texts` through `cache` into a padded f32 batch
    /// ([`VectorArena::from_texts`], i.e. [`EmbeddingCache::get_batch_into`])
    /// and quantizes it to `tier`.
    ///
    /// # Errors
    /// Returns [`UnsupportedTier`] for [`QuantTier::F32`], like
    /// [`Self::from_arena`].
    pub fn from_texts<S: AsRef<str>>(
        cache: &EmbeddingCache,
        texts: &[S],
        tier: QuantTier,
    ) -> Result<Self, UnsupportedTier> {
        Self::from_arena(&VectorArena::from_texts(cache, texts), tier)
    }

    /// The precision tier of the stored rows.
    pub fn tier(&self) -> QuantTier {
        match self.data {
            QuantizedRows::F16(_) => QuantTier::F16,
            QuantizedRows::Int8 { .. } => QuantTier::Int8,
        }
    }

    /// Number of vectors.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Logical dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Elements between consecutive row starts.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Dequantized copy of row `i` (test/debug path, not the scan path).
    pub fn dequantize_row(&self, i: usize) -> Vec<f32> {
        assert!(i < self.rows, "row out of bounds");
        match &self.data {
            QuantizedRows::F16(d) => d[i * self.stride..i * self.stride + self.dim]
                .iter()
                .map(|&b| cx_embed::f16_to_f32(b))
                .collect(),
            QuantizedRows::Int8 { data, scales } => data
                [i * self.stride..i * self.stride + self.dim]
                .iter()
                .map(|&x| x as f32 * scales[i])
                .collect(),
        }
    }

    /// Scores `query` against every row via the quantized panel kernels:
    /// `out[r] ≈ dot(query, row_r)` within the tier's error bound.
    ///
    /// One kernel call per panel (int8 quantizes the query once, then runs
    /// the exact-integer block kernel and applies scales in
    /// [`cx_embed::quant::dot_int8`]'s multiply order).
    ///
    /// # Panics
    /// Panics if `query.len() != dim` or `out.len() != len()`.
    pub fn scores_into(&self, query: &[f32], out: &mut [f32]) {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        assert_eq!(out.len(), self.rows, "output length mismatch");
        match &self.data {
            QuantizedRows::F16(d) => dot_block_f16(query, d, self.stride, out),
            QuantizedRows::Int8 { data, scales } => {
                let (q, q_scale) = quantize_query_int8(query);
                let mut acc = vec![0i32; self.rows];
                dot_block_int8(&q, data, self.stride, &mut acc);
                // Scale application zips the per-row scales directly — no
                // indexed lookup in the inner loop.
                for ((&a, &scale), o) in acc.iter().zip(scales).zip(out.iter_mut()) {
                    *o = a as f32 * q_scale * scale;
                }
            }
        }
    }

    /// Convenience allocation wrapper over [`Self::scores_into`].
    pub fn scores(&self, query: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.rows];
        self.scores_into(query, &mut out);
        out
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        match &self.data {
            QuantizedRows::F16(d) => d.len() * 2,
            QuantizedRows::Int8 { data, scales } => data.len() + scales.len() * 4,
        }
    }
}

// Re-exported here so arena callers see the alignment contract in one place.
const _: () = assert!(ROW_ALIGN_FLOATS == 8);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::dot_block;
    use cx_embed::rng::SplitMix64;
    use cx_embed::HashNGramModel;
    use std::sync::Arc;

    fn random_arena(rows: usize, dim: usize, seed: u64) -> VectorArena {
        let mut rng = SplitMix64::new(seed);
        let mut arena = VectorArena::with_capacity(dim, rows);
        for _ in 0..rows {
            arena.push(&rng.unit_vector(dim));
        }
        arena
    }

    #[test]
    fn mirrors_source_layout_and_shrinks_memory() {
        let arena = random_arena(10, 13, 5);
        let f16 = QuantizedArena::from_arena(&arena, QuantTier::F16).unwrap();
        let i8a = QuantizedArena::from_arena(&arena, QuantTier::Int8).unwrap();
        assert_eq!(f16.len(), 10);
        assert_eq!(f16.dim(), 13);
        assert_eq!(f16.stride(), arena.stride());
        assert_eq!(f16.tier(), QuantTier::F16);
        assert_eq!(i8a.tier(), QuantTier::Int8);
        assert!(f16.memory_bytes() < arena.memory_bytes());
        assert!(i8a.memory_bytes() < f16.memory_bytes());
    }

    #[test]
    fn scores_close_to_f32_blocked_kernel() {
        let mut arena = random_arena(37, 29, 11);
        arena.normalize();
        let mut rng = SplitMix64::new(99);
        let q = rng.unit_vector(29);
        let view = arena.as_block();
        let mut exact = vec![0.0f32; arena.len()];
        dot_block(&q, view.data, view.stride, &mut exact);
        for (tier, bound) in [(QuantTier::F16, 1e-3f32), (QuantTier::Int8, 1.2e-2)] {
            let qa = QuantizedArena::from_arena(&arena, tier).unwrap();
            let got = qa.scores(&q);
            for (r, (g, e)) in got.iter().zip(&exact).enumerate() {
                assert!((g - e).abs() <= bound, "{tier:?} row {r}: {g} vs {e}");
            }
        }
    }

    #[test]
    fn int8_scores_match_pairwise_quantized_dot_bitwise() {
        let arena = random_arena(9, 21, 3);
        let qa = QuantizedArena::from_arena(&arena, QuantTier::Int8).unwrap();
        let mut rng = SplitMix64::new(8);
        let q = rng.unit_vector(21);
        let (qi, qs) = quantize_query_int8(&q);
        let got = qa.scores(&q);
        for (r, g) in got.iter().enumerate() {
            let QuantizedVector::Int8 { data, scale } = QuantizedVector::to_int8(arena.row(r))
            else {
                unreachable!()
            };
            let want = cx_embed::dot_int8(&qi, qs, &data, scale);
            assert_eq!(g.to_bits(), want.to_bits(), "row {r}");
        }
    }

    #[test]
    fn zero_rows_score_zero() {
        let mut arena = VectorArena::new(6);
        arena.push(&[0.0; 6]);
        arena.push(&[0.5, 0.0, 0.0, 0.0, 0.0, 0.0]);
        for tier in [QuantTier::F16, QuantTier::Int8] {
            let qa = QuantizedArena::from_arena(&arena, tier).unwrap();
            let s = qa.scores(&[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
            assert_eq!(s[0], 0.0, "{tier:?}");
            assert!(s[1] > 0.0);
            assert_eq!(qa.dequantize_row(0), vec![0.0; 6]);
        }
    }

    #[test]
    fn from_texts_goes_through_cache_batch() {
        let cache = EmbeddingCache::new(Arc::new(HashNGramModel::new(2)));
        let texts = ["boots", "parka", "boots"];
        let qa = QuantizedArena::from_texts(&cache, &texts, QuantTier::F16).unwrap();
        assert_eq!(qa.len(), 3);
        assert_eq!(qa.dim(), cache.dim());
        // Duplicate strings still cost one model invocation each.
        assert_eq!(cache.model().stats().invocations(), 2);
        // Rows dequantize close to the cached f32 embedding.
        let exact = cache.get("boots");
        for (a, b) in qa.dequantize_row(0).iter().zip(exact.iter()) {
            assert!((a - b).abs() <= 1e-3 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn f32_tier_rejected_with_typed_error() {
        let err = QuantizedArena::from_arena(&VectorArena::new(4), QuantTier::F32).unwrap_err();
        assert_eq!(err, UnsupportedTier(QuantTier::F32));
        assert!(err.to_string().contains("f16/int8 tiers"));
        assert!(QuantizedArena::from_texts(
            &EmbeddingCache::new(std::sync::Arc::new(HashNGramModel::new(2))),
            &["x"],
            QuantTier::F32,
        )
        .is_err());
    }

    #[test]
    fn empty_arena_scores_cleanly() {
        let qa = QuantizedArena::from_arena(&VectorArena::new(4), QuantTier::Int8).unwrap();
        assert!(qa.is_empty());
        assert!(qa.scores(&[0.0; 4]).is_empty());
    }
}
