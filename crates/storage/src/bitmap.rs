//! Packed validity bitmaps.

/// A packed bitmap storing one bit per row, used for column validity (null
/// tracking) and filter selection masks.
///
/// Bits beyond `len` are kept zero so that word-wise operations (count,
/// and/or) need no edge handling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// A bitmap of `len` bits, all set to `value`.
    pub fn new(len: usize, value: bool) -> Self {
        let n_words = len.div_ceil(64);
        let mut words = vec![if value { u64::MAX } else { 0 }; n_words];
        if value {
            Self::mask_tail(&mut words, len);
        }
        Bitmap { words, len }
    }

    /// Builds a bitmap from an iterator of booleans.
    pub fn from_bools<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut bm = Bitmap {
            words: Vec::new(),
            len: 0,
        };
        for b in iter {
            bm.push(b);
        }
        bm
    }

    fn mask_tail(words: &mut [u64], len: usize) {
        let rem = len % 64;
        if rem != 0 {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`. Panics if out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of bounds ({})", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `value`. Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of bounds ({})", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Appends one bit.
    pub fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if value {
            let i = self.len;
            self.words[i / 64] |= 1u64 << (i % 64);
        }
        self.len += 1;
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether all bits are set.
    pub fn all(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Whether no bits are set.
    pub fn none(&self) -> bool {
        self.count_ones() == 0
    }

    /// Word-wise logical AND. Panics on length mismatch.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a & b)
            .collect();
        Bitmap {
            words,
            len: self.len,
        }
    }

    /// Word-wise logical OR. Panics on length mismatch.
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a | b)
            .collect();
        Bitmap {
            words,
            len: self.len,
        }
    }

    /// Word-wise logical NOT (within `len` bits).
    pub fn not(&self) -> Bitmap {
        let mut words: Vec<u64> = self.words.iter().map(|w| !w).collect();
        Self::mask_tail(&mut words, self.len);
        Bitmap {
            words,
            len: self.len,
        }
    }

    /// Iterator over all bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Indices of set bits, in ascending order.
    pub fn set_indices(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.count_ones());
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                out.push(wi * 64 + bit);
                w &= w - 1;
            }
        }
        out
    }

    /// A new bitmap with bits gathered from positions `indices`.
    pub fn take(&self, indices: &[usize]) -> Bitmap {
        Bitmap::from_bools(indices.iter().map(|&i| self.get(i)))
    }

    /// The sub-bitmap `[offset, offset + len)`.
    pub fn slice(&self, offset: usize, len: usize) -> Bitmap {
        assert!(offset + len <= self.len, "slice out of bounds");
        Bitmap::from_bools((offset..offset + len).map(|i| self.get(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_read() {
        let bm = Bitmap::new(70, true);
        assert_eq!(bm.len(), 70);
        assert_eq!(bm.count_ones(), 70);
        assert!(bm.all());
        let bm = Bitmap::new(70, false);
        assert!(bm.none());
    }

    #[test]
    fn push_and_get_across_word_boundary() {
        let mut bm = Bitmap::new(0, false);
        for i in 0..130 {
            bm.push(i % 3 == 0);
        }
        for i in 0..130 {
            assert_eq!(bm.get(i), i % 3 == 0, "bit {i}");
        }
        assert_eq!(bm.count_ones(), (0..130).filter(|i| i % 3 == 0).count());
    }

    #[test]
    fn set_and_clear() {
        let mut bm = Bitmap::new(100, false);
        bm.set(63, true);
        bm.set(64, true);
        assert!(bm.get(63) && bm.get(64));
        bm.set(63, false);
        assert!(!bm.get(63));
        assert_eq!(bm.count_ones(), 1);
    }

    #[test]
    fn boolean_algebra() {
        let a = Bitmap::from_bools([true, true, false, false]);
        let b = Bitmap::from_bools([true, false, true, false]);
        assert_eq!(a.and(&b), Bitmap::from_bools([true, false, false, false]));
        assert_eq!(a.or(&b), Bitmap::from_bools([true, true, true, false]));
        assert_eq!(a.not(), Bitmap::from_bools([false, false, true, true]));
    }

    #[test]
    fn not_keeps_tail_bits_clear() {
        let bm = Bitmap::new(65, false).not();
        assert_eq!(bm.count_ones(), 65);
        // Round-trip: NOT NOT == identity even with tail bits.
        assert_eq!(bm.not().count_ones(), 0);
    }

    #[test]
    fn set_indices_spans_words() {
        let mut bm = Bitmap::new(200, false);
        for i in [0, 1, 63, 64, 127, 199] {
            bm.set(i, true);
        }
        assert_eq!(bm.set_indices(), vec![0, 1, 63, 64, 127, 199]);
    }

    #[test]
    fn take_and_slice() {
        let bm = Bitmap::from_bools((0..10).map(|i| i % 2 == 0));
        assert_eq!(bm.take(&[1, 2, 4]), Bitmap::from_bools([false, true, true]));
        assert_eq!(bm.slice(2, 3), Bitmap::from_bools([true, false, true]));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        Bitmap::new(3, false).get(3);
    }
}
