//! Contiguous, padded row-major embedding arena for blocked kernels.
//!
//! [`VectorArena`] is the crate's one dense f32 container: rows are padded
//! to a multiple of eight floats ([`ROW_ALIGN_FLOATS`]) so every row
//! starts on a 32-byte-aligned offset within the buffer and the 8-wide
//! kernels never straddle a row boundary; padding lanes are zero and never
//! read. [`VectorArena::block`] hands out zero-copy `(data, stride)` views
//! the [`crate::block`] kernels consume directly.
//!
//! The arena caches no norms: every similarity the engine computes is a
//! bare dot over unit rows, so a panel is scaled once, in place, by
//! [`VectorArena::normalize`] and never copied for it.
//!
//! [`VectorArena::from_texts`] fills the arena straight from an
//! [`EmbeddingCache`] via [`EmbeddingCache::get_batch_into`], so the
//! semantic hot path goes string → arena row without materializing a
//! per-string `Arc<Vec<f32>>`.

use crate::kernels::norm;
use cx_embed::EmbeddingCache;
use cx_storage::QueryContext;

/// Charges `floats` f32s to the ambient query's memory budget. Panel
/// construction is the dominant allocator on the semantic hot path, so
/// arenas account for themselves rather than relying on every caller to
/// remember.
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
}

impl<'a> RowBlock<'a> {
    /// A one-row view of `row`: the probe block of a one-query kernel
    /// call.
    pub fn one(row: &'a [f32]) -> Self {
        let dim = row.len();
        RowBlock {
            data: row,
            stride: dim,
            dim,
            rows: 1,
        }
    }

    /// Row `r` of the view as a `dim`-length slice.
    #[inline]
    pub fn row(&self, r: usize) -> &'a [f32] {
        &self.data[r * self.stride..r * self.stride + self.dim]
    }
}

/// A row-major `len × dim` matrix with padded rows.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorArena {
    dim: usize,
    stride: usize,
    data: Vec<f32>,
}

impl VectorArena {
    /// An empty arena of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        let stride = dim.next_multiple_of(ROW_ALIGN_FLOATS);
        VectorArena {
            dim,
            stride,
            data: Vec::new(),
        }
    }

    /// An empty arena with room for `rows` vectors.
    pub fn with_capacity(dim: usize, rows: usize) -> Self {
        let mut arena = Self::new(dim);
        charge_floats(rows * arena.stride);
        arena.data.reserve(rows * arena.stride);
        arena
    }

    /// Builds an arena by embedding `texts` through `cache` directly into
    /// the padded row-major buffer — one copy per string, no intermediate
    /// per-string allocation on the batch path.
    pub fn from_texts<S: AsRef<str>>(cache: &EmbeddingCache, texts: &[S]) -> Self {
        let mut arena = Self::new(cache.dim());
        charge_floats(texts.len() * arena.stride);
        arena.data = vec![0.0f32; texts.len() * arena.stride];
        cache.get_batch_into(texts, arena.stride, &mut arena.data);
        arena
    }

    /// Appends one vector, returning its row id.
    pub fn push(&mut self, v: &[f32]) -> usize {
        assert_eq!(v.len(), self.dim, "vector has wrong dimension");
        self.data.extend_from_slice(v);
        self.data
            .extend(std::iter::repeat_n(0.0, self.stride - self.dim));
        self.len() - 1
    }

    /// Number of vectors.
    pub fn len(&self) -> usize {
        self.data.len() / self.stride
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
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

    /// Zero-copy view of rows `range.start..range.end`.
    pub fn block(&self, range: std::ops::Range<usize>) -> RowBlock<'_> {
        assert!(range.end <= self.len(), "block range out of bounds");
        RowBlock {
            data: &self.data[range.start * self.stride..range.end * self.stride],
            stride: self.stride,
            dim: self.dim,
            rows: range.len(),
        }
    }

    /// Zero-copy view of the whole arena.
    pub fn as_block(&self) -> RowBlock<'_> {
        self.block(0..self.len())
    }

    /// Scales every row to unit L2 norm in place (zero rows stay zero and
    /// so score 0.0 against anything): after this, a bare dot of two rows
    /// is their cosine.
    pub fn normalize(&mut self) {
        for row in self.data.chunks_exact_mut(self.stride) {
            let row = &mut row[..self.dim];
            let n = norm(row);
            if n > 0.0 {
                for x in row {
                    *x /= n;
                }
            }
        }
    }

    /// Reorders the rows in place so that new row `i` is old row
    /// `order[i]` (`order` a permutation of `0..len`), following each
    /// cycle through one spare row: the panel is never copied.
    pub fn reorder(&mut self, order: &[u32]) {
        assert_eq!(
            order.len(),
            self.len(),
            "order is not a permutation of the rows"
        );
        let stride = self.stride;
        let mut placed = vec![false; order.len()];
        let mut spare = vec![0.0f32; stride];
        for start in 0..order.len() {
            if placed[start] {
                continue;
            }
            spare.copy_from_slice(&self.data[start * stride..(start + 1) * stride]);
            let mut i = start;
            loop {
                placed[i] = true;
                let src = order[i] as usize;
                if src == start {
                    self.data[i * stride..(i + 1) * stride].copy_from_slice(&spare);
                    break;
                }
                self.data
                    .copy_within(src * stride..(src + 1) * stride, i * stride);
                i = src;
            }
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
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
        assert_eq!(b.row(2), &[4.0, 0.0, 0.0]);
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
    fn normalized_rows_are_unit() {
        let mut a = VectorArena::new(2);
        a.push(&[3.0, 4.0]);
        a.push(&[0.0, 0.0]);
        a.normalize();
        assert_eq!(a.row(0), &[3.0 / 5.0, 4.0 / 5.0]);
        assert!((norm(a.row(0)) - 1.0).abs() < 1e-6);
        assert_eq!(a.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn reorder_moves_whole_rows() {
        let mut a = VectorArena::new(3);
        for i in 0..6 {
            a.push(&[i as f32, -(i as f32), 0.5]);
        }
        let order = [3u32, 0, 5, 4, 1, 2];
        let before = a.clone();
        a.reorder(&order);
        for (i, &src) in order.iter().enumerate() {
            assert_eq!(a.row(i), before.row(src as usize), "row {i}");
        }
    }

    #[test]
    fn memory_accounts_for_padding() {
        let mut a = VectorArena::new(5);
        a.push(&[0.0; 5]);
        assert_eq!(a.memory_bytes(), 8 * 4);
    }
}
