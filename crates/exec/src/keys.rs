//! Row keys hashed and compared on column cells in place.
//!
//! The hash join, the hash aggregate and DISTINCT all key rows by the
//! values of some columns. None of them builds a key per row: a row's
//! key is its [`Cell`]s, read where they lie in the columns, and a
//! [`KeyIndex`] numbers the distinct keys it has seen in first-seen order.
//! Only a key's first occurrence is materialized, once, as scalars.
//!
//! Key equality is exactly [`Scalar`]'s structural `Eq`: NULL equals NULL,
//! Float64 compares by bit pattern (so `0.0 ≠ -0.0` and a NaN equals only
//! the NaN with its payload), and values of different types never equal
//! (`Int64(1) ≠ Float64(1.0)`). Operators that must not match NULL keys
//! (the join) leave such rows out of the index.

use cx_storage::{Column, Error, Result, Scalar};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

/// Ends a chain of ids.
pub(crate) const NONE: u32 = u32::MAX;

/// `n` as a chain id; errors past the `u32` id space.
pub(crate) fn id(n: usize) -> Result<u32> {
    u32::try_from(n)
        .ok()
        .filter(|&i| i != NONE)
        .ok_or_else(|| Error::InvalidArgument(format!("{n} rows exceed one hash table")))
}

/// One key value, borrowed from a column cell or a scalar. The derived
/// `Eq` is [`Scalar`]'s structural equality, and the derived `Hash` tags
/// every value (NULL included) with its type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Cell<'a> {
    Null,
    Bool(bool),
    Int64(i64),
    /// The value's bit pattern.
    Float64(u64),
    Utf8(&'a str),
    Timestamp(i64),
}

impl<'a> Cell<'a> {
    /// Row `row` of `col`.
    #[inline]
    pub(crate) fn of(col: &'a Column, row: usize) -> Self {
        if !col.is_valid(row) {
            return Cell::Null;
        }
        match col {
            Column::Bool { values, .. } => Cell::Bool(values[row]),
            Column::Int64 { values, .. } => Cell::Int64(values[row]),
            Column::Float64 { values, .. } => Cell::Float64(values[row].to_bits()),
            Column::Utf8 { values, .. } => Cell::Utf8(&values[row]),
            Column::Timestamp { values, .. } => Cell::Timestamp(values[row]),
        }
    }
}

impl<'a> From<&'a Scalar> for Cell<'a> {
    fn from(s: &'a Scalar) -> Self {
        match s {
            Scalar::Null => Cell::Null,
            Scalar::Bool(v) => Cell::Bool(*v),
            Scalar::Int64(v) => Cell::Int64(*v),
            Scalar::Float64(v) => Cell::Float64(v.to_bits()),
            Scalar::Utf8(v) => Cell::Utf8(v),
            Scalar::Timestamp(v) => Cell::Timestamp(*v),
        }
    }
}

/// Hashes a `u64` to itself: the index's map keys are already outputs of
/// its keyed hasher, so hashing them again would only cost time.
#[derive(Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the index map is keyed by u64 hashes only")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// The distinct keys of rows, numbered `0, 1, …` in first-seen order.
///
/// A row's key is its cells in the key columns a caller passes (the same
/// number, in the same order, on every call). Hashing is keyed per index
/// ([`RandomState`]), so crafted keys cannot force long chains.
pub(crate) struct KeyIndex {
    state: RandomState,
    width: usize,
    /// Key hash → the first entry with that hash.
    heads: HashMap<u64, u32, BuildHasherDefault<PreHashed>>,
    /// Per entry: the next entry with the same hash, in insertion order.
    next: Vec<u32>,
    /// Entry `e`'s key is `keys[e * width..][..width]`.
    keys: Vec<Scalar>,
}

impl KeyIndex {
    /// An empty index over keys of `width` columns.
    pub(crate) fn new(width: usize) -> Self {
        KeyIndex {
            state: RandomState::new(),
            width,
            heads: HashMap::default(),
            next: Vec::new(),
            keys: Vec::new(),
        }
    }

    /// Number of distinct keys.
    pub(crate) fn len(&self) -> usize {
        self.next.len()
    }

    /// Entry `e`'s key, materialized from its first occurrence.
    pub(crate) fn key(&self, e: u32) -> &[Scalar] {
        &self.keys[e as usize * self.width..][..self.width]
    }

    /// The entry holding row `row`'s key, if any.
    pub(crate) fn find(&self, cols: &[&Column], row: usize) -> Option<u32> {
        self.probe(self.hash(cols, row), cols, row).ok()
    }

    /// Row `row`'s entry, added if its key is new; `true` when it was.
    pub(crate) fn insert(&mut self, cols: &[&Column], row: usize) -> Result<(u32, bool)> {
        self.insert_hashed(self.hash(cols, row), cols, row)
    }

    fn hash(&self, cols: &[&Column], row: usize) -> u64 {
        let mut h = self.state.build_hasher();
        for col in cols {
            Cell::of(col, row).hash(&mut h);
        }
        h.finish()
    }

    fn insert_hashed(&mut self, hash: u64, cols: &[&Column], row: usize) -> Result<(u32, bool)> {
        let tail = match self.probe(hash, cols, row) {
            Ok(e) => return Ok((e, false)),
            Err(tail) => tail,
        };
        let e = id(self.len())?;
        self.next.push(NONE);
        self.keys.extend(cols.iter().map(|c| c.get(row)));
        match tail {
            Some(t) => self.next[t as usize] = e,
            None => {
                self.heads.insert(hash, e);
            }
        }
        Ok((e, true))
    }

    /// The entry equal to row `row`'s key, or else the last entry of its
    /// hash's chain (`None` when the hash is new).
    fn probe(
        &self,
        hash: u64,
        cols: &[&Column],
        row: usize,
    ) -> std::result::Result<u32, Option<u32>> {
        let mut e = *self.heads.get(&hash).ok_or(None)?;
        loop {
            let key = self.key(e);
            if key
                .iter()
                .zip(cols)
                .all(|(k, c)| Cell::from(k) == Cell::of(c, row))
            {
                return Ok(e);
            }
            match self.next[e as usize] {
                NONE => return Err(Some(e)),
                n => e = n,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_storage::{Bitmap, DataType};

    /// One value of every type, with the edge cases of each.
    fn values() -> Vec<Scalar> {
        let nan = f64::from_bits(0x7ff8_0000_0000_0001);
        vec![
            Scalar::Null,
            Scalar::Bool(false),
            Scalar::Bool(true),
            Scalar::Int64(0),
            Scalar::Int64(1),
            Scalar::Int64(-1),
            Scalar::Float64(0.0),
            Scalar::Float64(-0.0),
            Scalar::Float64(1.0),
            Scalar::Float64(f64::NAN),
            Scalar::Float64(nan),
            Scalar::Utf8(String::new()),
            Scalar::from("a"),
            Scalar::Timestamp(0),
            Scalar::Timestamp(1),
        ]
    }

    /// `s` as a one-row column (an all-NULL Int64 column for NULL).
    fn column(s: &Scalar) -> Column {
        Column::from_scalars(std::slice::from_ref(s), Some(DataType::Int64)).unwrap()
    }

    #[test]
    fn cell_equality_is_scalar_equality_over_every_type_pair() {
        let vals = values();
        for a in &vals {
            let col = column(a);
            assert_eq!(Cell::of(&col, 0), Cell::from(a), "{a:?}");
            for b in &vals {
                assert_eq!(Cell::from(a) == Cell::from(b), a == b, "{a:?} vs {b:?}");
            }
        }
        // A NULL cell of any column type is the NULL key.
        for dt in [
            DataType::Bool,
            DataType::Float64,
            DataType::Utf8,
            DataType::Timestamp,
        ] {
            assert_eq!(Cell::of(&Column::nulls(dt, 1), 0), Cell::Null);
        }
    }

    #[test]
    fn distinct_keys_number_in_first_seen_order() {
        let a = Column::Utf8 {
            values: ["x", "y", "x", "", "y", ""].map(String::from).into(),
            validity: Some(Bitmap::from_bools([true, true, true, true, true, false]).into()),
        };
        let b = Column::from_i64(vec![1, 1, 1, 1, 2, 1]);
        let cols = [&a, &b];
        let mut index = KeyIndex::new(2);
        let ids: Vec<(u32, bool)> = (0..6).map(|r| index.insert(&cols, r).unwrap()).collect();
        assert_eq!(
            ids,
            [
                (0, true),
                (1, true),
                (0, false),
                (2, true),
                (3, true),
                (4, true)
            ]
        );
        assert_eq!(index.key(4), [Scalar::Null, Scalar::Int64(1)]);
        assert_eq!(index.find(&cols, 2), Some(0));
        let other = [&Column::from_strings(["y"]), &Column::from_i64(vec![3])];
        assert_eq!(index.find(&other, 0), None);
    }

    #[test]
    fn colliding_hashes_keep_keys_apart() {
        let vals = values();
        let col = Column::from_i64(vec![0]);
        let mut index = KeyIndex::new(1);
        let columns: Vec<Column> = vals.iter().map(column).collect();
        // Every key under one forced hash: one chain, walked in full.
        for (i, c) in columns.iter().enumerate() {
            assert_eq!(index.insert_hashed(7, &[c], 0).unwrap(), (i as u32, true));
        }
        for (i, c) in columns.iter().enumerate() {
            assert_eq!(index.insert_hashed(7, &[c], 0).unwrap(), (i as u32, false));
            assert_eq!(index.probe(7, &[c], 0), Ok(i as u32));
            assert_eq!(index.key(i as u32), [vals[i].clone()]);
        }
        // A key absent from a full chain reports the chain's last entry.
        let absent = Column::from_i64(vec![42]);
        assert_eq!(
            index.probe(7, &[&absent], 0),
            Err(Some(vals.len() as u32 - 1))
        );
        assert_eq!(index.probe(8, &[&col], 0), Err(None));
    }

    #[test]
    fn zero_width_keys_form_one_group() {
        let mut index = KeyIndex::new(0);
        assert_eq!(index.insert(&[], 0).unwrap(), (0, true));
        assert_eq!(index.insert(&[], 5).unwrap(), (0, false));
        assert_eq!(index.key(0), [] as [Scalar; 0]);
    }
}
