//! Contiguous, padded row-major embedding arena for blocked kernels.
//!
//! [`VectorArena`] is the crate's one dense f32 container: rows are padded
//! to a multiple of eight floats ([`ROW_ALIGN_FLOATS`]) so every row
//! starts on a 32-byte-aligned offset within the buffer and the 8-wide
//! kernels never straddle a row boundary; padding lanes are zero and never
//! read. Norms are cached per
//! row, and [`VectorArena::block`] hands out zero-copy `(data, stride)`
//! views the [`crate::block`] kernels consume directly.
//!
//! [`VectorArena::from_texts`] fills the arena straight from an
//! [`EmbeddingCache`] via [`EmbeddingCache::get_batch_into`], so the
//! semantic hot path goes string → arena row without materializing a
//! per-string `Arc<Vec<f32>>`.

use crate::kernels::norm;
use cx_embed::EmbeddingCache;
use cx_storage::QueryContext;

/// Charges `floats` f32s (plus per-row norm floats) to the ambient
/// query's memory budget. Panel construction is the dominant allocator
/// on the semantic hot path, so arenas account for themselves rather
/// than relying on every caller to remember.
fn charge_floats(floats: usize) {
    QueryContext::current().charge(floats * std::mem::size_of::<f32>());
}

/// Rows are padded to this many floats (32 bytes), the blocked kernels'
/// natural vector width.
pub const ROW_ALIGN_FLOATS: usize = 8;

/// A zero-copy view of consecutive arena rows, the unit the
/// blocked kernels operate on.
#[derive(Debug, Clone, Copy)]
pub struct RowBlock<'a> {
    /// Row-major floats; row `r` is `data[r * stride .. r * stride + dim]`.
    pub data: &'a [f32],
    /// Floats between consecutive row starts (`>= dim`).
    pub stride: usize,
    /// Logical row width.
    pub dim: usize,
    /// Number of rows in the view.
    pub rows: usize,
    /// Cached L2 norm per row.
    pub norms: &'a [f32],
}

impl<'a> RowBlock<'a> {
    /// A one-row view of `row` (norm `norm`): the probe block of a
    /// one-query kernel call.
    pub fn one(row: &'a [f32], norm: &'a f32) -> Self {
        let dim = row.len();
        RowBlock { data: row, stride: dim, dim, rows: 1, norms: std::slice::from_ref(norm) }
    }

    /// Row `r` of the view as a `dim`-length slice.
    #[inline]
    pub fn row(&self, r: usize) -> &'a [f32] {
        &self.data[r * self.stride..r * self.stride + self.dim]
    }
}

/// A row-major `len × dim` matrix with padded rows and cached norms.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorArena {
    dim: usize,
    stride: usize,
    data: Vec<f32>,
    norms: Vec<f32>,
}

impl VectorArena {
    /// An empty arena of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        let stride = dim.next_multiple_of(ROW_ALIGN_FLOATS);
        VectorArena { dim, stride, data: Vec::new(), norms: Vec::new() }
    }

    /// An empty arena with room for `rows` vectors.
    pub fn with_capacity(dim: usize, rows: usize) -> Self {
        let mut arena = Self::new(dim);
        charge_floats(rows * (arena.stride + 1));
        arena.data.reserve(rows * arena.stride);
        arena.norms.reserve(rows);
        arena
    }

    /// Builds an arena by embedding `texts` through `cache` directly into
    /// the padded row-major buffer — one copy per string, no intermediate
    /// per-string allocation on the batch path.
    pub fn from_texts<S: AsRef<str>>(cache: &EmbeddingCache, texts: &[S]) -> Self {
        let dim = cache.dim();
        let mut arena = Self::new(dim);
        charge_floats(texts.len() * (arena.stride + 1));
        arena.data = vec![0.0f32; texts.len() * arena.stride];
        cache.get_batch_into(texts, arena.stride, &mut arena.data);
        arena.norms = (0..texts.len())
            .map(|r| norm(&arena.data[r * arena.stride..r * arena.stride + dim]))
            .collect();
        arena
    }

    /// Appends one vector, returning its row id.
    pub fn push(&mut self, v: &[f32]) -> usize {
        assert_eq!(v.len(), self.dim, "vector has wrong dimension");
        self.data.extend_from_slice(v);
        self.data.extend(std::iter::repeat_n(0.0, self.stride - self.dim));
        self.norms.push(norm(v));
        self.norms.len() - 1
    }

    /// Number of vectors.
    pub fn len(&self) -> usize {
        self.norms.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.norms.is_empty()
    }

    /// Logical dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Floats between consecutive row starts.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Row `i` as a `dim`-length slice (padding excluded).
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.stride..i * self.stride + self.dim]
    }

    /// Cached L2 norm of row `i`.
    #[inline]
    pub fn row_norm(&self, i: usize) -> f32 {
        self.norms[i]
    }

    /// All cached norms.
    pub fn norms(&self) -> &[f32] {
        &self.norms
    }

    /// Zero-copy view of rows `range.start..range.end`.
    pub fn block(&self, range: std::ops::Range<usize>) -> RowBlock<'_> {
        assert!(range.end <= self.len(), "block range out of bounds");
        RowBlock {
            data: &self.data[range.start * self.stride..range.end * self.stride],
            stride: self.stride,
            dim: self.dim,
            rows: range.len(),
            norms: &self.norms[range.clone()],
        }
    }

    /// Zero-copy view of the whole arena.
    pub fn as_block(&self) -> RowBlock<'_> {
        self.block(0..self.len())
    }

    /// Gathers `rows` (by id, repeats allowed) into a new contiguous
    /// arena — the gather step that turns an id list (an index probe's
    /// candidates, a shared scan's per-query probe rows) into a
    /// kernel-ready panel. Norms are copied, not recomputed.
    ///
    /// # Panics
    /// Panics if any id is out of bounds.
    pub fn gather_rows(&self, rows: &[u32]) -> VectorArena {
        charge_floats(rows.len() * (self.stride + 1));
        let mut data = vec![0.0f32; rows.len() * self.stride];
        let mut norms = Vec::with_capacity(rows.len());
        for (k, &id) in rows.iter().enumerate() {
            let id = id as usize;
            data[k * self.stride..(k + 1) * self.stride]
                .copy_from_slice(&self.data[id * self.stride..(id + 1) * self.stride]);
            norms.push(self.norms[id]);
        }
        VectorArena { dim: self.dim, stride: self.stride, data, norms }
    }

    /// A copy with every row scaled to unit norm (zero rows left as-is),
    /// enabling prenormalized blocked scoring.
    pub fn normalized(&self) -> VectorArena {
        charge_floats(self.data.len() + self.norms.len());
        let mut data = self.data.clone();
        for (row, &n) in data.chunks_exact_mut(self.stride).zip(&self.norms) {
            if n > 0.0 {
                for x in &mut row[..self.dim] {
                    *x /= n;
                }
            }
        }
        VectorArena {
            dim: self.dim,
            stride: self.stride,
            data,
            norms: self.norms.iter().map(|&n| if n > 0.0 { 1.0 } else { 0.0 }).collect(),
        }
    }

    /// Approximate heap footprint in bytes (data + norms).
    pub fn memory_bytes(&self) -> usize {
        (self.data.len() + self.norms.len()) * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::dot_block;
    use crate::kernels::dot_unrolled;
    use cx_embed::HashNGramModel;
    use std::sync::Arc;

    #[test]
    fn padded_stride_and_zero_padding() {
        let mut a = VectorArena::new(5);
        assert_eq!(a.stride(), 8);
        a.push(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(a.row(0), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        // Padding lanes are zero.
        assert_eq!(&a.data[5..8], &[0.0, 0.0, 0.0]);
        // Already-aligned dims get no padding.
        assert_eq!(VectorArena::new(16).stride(), 16);
    }

    #[test]
    fn block_views_are_zero_copy_slices() {
        let mut a = VectorArena::new(3);
        for i in 0..6 {
            a.push(&[i as f32, 0.0, 0.0]);
        }
        let b = a.block(2..5);
        assert_eq!(b.rows, 3);
        assert_eq!(b.row(0), &[2.0, 0.0, 0.0]);
        assert_eq!(b.norms, &[2.0, 3.0, 4.0]);
        // Full view covers everything.
        assert_eq!(a.as_block().rows, 6);
    }

    #[test]
    fn from_texts_matches_per_string_cache_gets() {
        let cache = EmbeddingCache::new(Arc::new(HashNGramModel::new(1)));
        let texts = ["boots", "parka", "boots", "mug"];
        let arena = VectorArena::from_texts(&cache, &texts);
        assert_eq!(arena.len(), 4);
        assert_eq!(arena.dim(), cache.dim());
        for (i, t) in texts.iter().enumerate() {
            assert_eq!(arena.row(i), &cache.get(t)[..], "row {i}");
        }
        // Duplicate strings cost one model invocation each.
        assert_eq!(cache.model().stats().invocations(), 3);
    }

    #[test]
    fn blocked_kernel_over_arena_matches_pairwise() {
        let cache = EmbeddingCache::new(Arc::new(HashNGramModel::new(2)));
        let arena = VectorArena::from_texts(&cache, &["a", "bb", "ccc", "dddd", "eeeee"]);
        let q = cache.get("query");
        let view = arena.as_block();
        let mut out = vec![0.0f32; view.rows];
        dot_block(&q, view.data, view.stride, &mut out);
        for (i, got) in out.iter().enumerate() {
            assert_eq!(got.to_bits(), dot_unrolled(&q, arena.row(i)).to_bits());
        }
    }

    #[test]
    fn gather_rows_copies_rows_and_norms() {
        let mut a = VectorArena::new(3);
        for i in 0..5 {
            a.push(&[i as f32, 0.0, 0.0]);
        }
        let g = a.gather_rows(&[4, 1, 1]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.dim(), 3);
        assert_eq!(g.row(0), &[4.0, 0.0, 0.0]);
        assert_eq!(g.row(1), &[1.0, 0.0, 0.0]);
        assert_eq!(g.row(2), &[1.0, 0.0, 0.0]);
        assert_eq!(g.norms(), &[4.0, 1.0, 1.0]);
        // Padding lanes stay zero so blocked kernels can run over it.
        let view = g.as_block();
        assert_eq!(view.stride, a.stride());
        assert_eq!(a.gather_rows(&[]).len(), 0);
    }

    #[test]
    fn normalized_rows_are_unit() {
        let mut a = VectorArena::new(2);
        a.push(&[3.0, 4.0]);
        a.push(&[0.0, 0.0]);
        let n = a.normalized();
        assert!((norm(n.row(0)) - 1.0).abs() < 1e-6);
        assert_eq!(n.row(1), &[0.0, 0.0]);
        assert_eq!(n.row_norm(0), 1.0);
        assert_eq!(n.row_norm(1), 0.0);
    }

    #[test]
    fn memory_accounts_for_padding() {
        let mut a = VectorArena::new(5);
        a.push(&[0.0; 5]);
        assert_eq!(a.memory_bytes(), (8 + 1) * 4);
    }
}
