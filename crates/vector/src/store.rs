//! Contiguous embedding storage with cached norms.

use crate::arena::RowBlock;
use crate::kernels::norm;

/// A row-major matrix of `len × dim` embeddings with per-row norms.
///
/// Materializing embeddings contiguously (instead of chasing per-string
/// hash-table entries pair-by-pair) is the "prefetch" rung of Figure 4: it
/// converts the inner join loop into streaming reads the hardware prefetcher
/// can follow, and caches norms so cosine becomes a single dot product.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorStore {
    dim: usize,
    data: Vec<f32>,
    norms: Vec<f32>,
}

impl VectorStore {
    /// An empty store of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        VectorStore { dim, data: Vec::new(), norms: Vec::new() }
    }

    /// Builds a store from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `dim`.
    pub fn from_flat(dim: usize, data: Vec<f32>) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(data.len() % dim, 0, "flat buffer not a multiple of dim");
        let norms = data.chunks_exact(dim).map(norm).collect();
        VectorStore { dim, data, norms }
    }

    /// Appends one vector, returning its row id.
    pub fn push(&mut self, v: &[f32]) -> usize {
        assert_eq!(v.len(), self.dim, "vector has wrong dimension");
        self.data.extend_from_slice(v);
        self.norms.push(norm(v));
        self.norms.len() - 1
    }

    /// Number of vectors.
    pub fn len(&self) -> usize {
        self.norms.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.norms.is_empty()
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Cached L2 norm of row `i`.
    #[inline]
    pub fn row_norm(&self, i: usize) -> f32 {
        self.norms[i]
    }

    /// The flat row-major buffer.
    pub fn flat(&self) -> &[f32] {
        &self.data
    }

    /// Zero-copy view of rows `range.start..range.end` for the blocked
    /// kernels (stride equals `dim`: store rows are unpadded).
    pub fn block(&self, range: std::ops::Range<usize>) -> RowBlock<'_> {
        assert!(range.end <= self.len(), "block range out of bounds");
        RowBlock {
            data: &self.data[range.start * self.dim..range.end * self.dim],
            stride: self.dim,
            dim: self.dim,
            rows: range.len(),
            norms: &self.norms[range],
        }
    }

    /// Zero-copy view of the whole store.
    pub fn as_block(&self) -> RowBlock<'_> {
        self.block(0..self.len())
    }

    /// Iterator over `(id, row)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[f32])> {
        self.data.chunks_exact(self.dim).enumerate()
    }

    /// A copy with every row scaled to unit norm (zero rows left as-is),
    /// enabling the pre-normalized cosine kernel.
    pub fn normalized(&self) -> VectorStore {
        let mut data = self.data.clone();
        for (row, &n) in data.chunks_exact_mut(self.dim).zip(&self.norms) {
            if n > 0.0 {
                for x in row {
                    *x /= n;
                }
            }
        }
        let norms = vec![1.0; self.norms.len()];
        VectorStore { dim: self.dim, data, norms }
    }

    /// Approximate heap footprint in bytes (data + norms).
    pub fn memory_bytes(&self) -> usize {
        (self.data.len() + self.norms.len()) * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_row_access() {
        let mut s = VectorStore::new(3);
        assert!(s.is_empty());
        let id0 = s.push(&[1.0, 0.0, 0.0]);
        let id1 = s.push(&[0.0, 3.0, 4.0]);
        assert_eq!((id0, id1), (0, 1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(1), &[0.0, 3.0, 4.0]);
        assert!((s.row_norm(1) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn from_flat_checks_shape() {
        let s = VectorStore::from_flat(2, vec![1.0, 0.0, 0.0, 2.0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.row_norm(0), 1.0);
        assert_eq!(s.row_norm(1), 2.0);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn from_flat_bad_shape_panics() {
        VectorStore::from_flat(3, vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn push_wrong_dim_panics() {
        VectorStore::new(2).push(&[1.0]);
    }

    #[test]
    fn normalized_rows_are_unit() {
        let mut s = VectorStore::new(2);
        s.push(&[3.0, 4.0]);
        s.push(&[0.0, 0.0]);
        let n = s.normalized();
        assert!((crate::kernels::norm(n.row(0)) - 1.0).abs() < 1e-6);
        assert_eq!(n.row(1), &[0.0, 0.0]);
        assert_eq!(n.row_norm(0), 1.0);
    }

    #[test]
    fn iter_yields_all_rows() {
        let s = VectorStore::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]);
        let rows: Vec<(usize, &[f32])> = s.iter().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].1, &[3.0, 4.0]);
    }

    #[test]
    fn memory_accounting() {
        let s = VectorStore::from_flat(4, vec![0.0; 16]);
        assert_eq!(s.memory_bytes(), (16 + 4) * 4);
    }
}
