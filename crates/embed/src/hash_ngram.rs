//! A fastText-shaped embedding model over hashed character n-grams.
//!
//! fastText represents a word as the average of (a) a per-word vector from
//! a hash table of known words and (b) vectors for its character n-grams,
//! each hashed into one of `B` bucket rows of a big matrix. This module
//! reproduces exactly that inference structure — tokenize, n-gram, hash,
//! look up, average, normalize — with the bucket matrix *derived
//! deterministically from the hash* instead of trained weights.
//!
//! Why this is a faithful substitute for the paper's experiment: Figure 4
//! measures systems costs of the embedding lookup + similarity pipeline
//! (hash-table probes, data locality, kernel quality, parallelism), which
//! depend on the model's *shape*, not on the semantic quality of trained
//! weights. Semantic quality, where experiments need it, comes from
//! [`crate::SemanticSpace`] layered on top.

use crate::model::{normalize, EmbeddingModel, ModelStats};
use crate::rng::{fnv1a, SplitMix64};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Subword n-gram embedding model with hashed buckets.
pub struct HashNGramModel {
    name: String,
    dim: usize,
    /// Number of hash buckets for n-gram vectors (fastText default: 2M; we
    /// default far smaller since vectors are derived, not stored).
    buckets: u64,
    min_n: usize,
    max_n: usize,
    seed: u64,
    /// fastText's "hash table of known words": memoized full-word vectors.
    /// Figure 4's *prefetch* rung warms this table ahead of the join.
    word_table: RwLock<HashMap<String, Arc<Vec<f32>>>>,
    stats: ModelStats,
}

impl HashNGramModel {
    /// A model with the paper's defaults (dim 100, n-grams of 3..=6).
    pub fn new(seed: u64) -> Self {
        Self::with_params("hash-ngram", crate::DEFAULT_DIM, seed, 3, 6, 1 << 21)
    }

    /// Fully parameterized constructor.
    pub fn with_params(
        name: impl Into<String>,
        dim: usize,
        seed: u64,
        min_n: usize,
        max_n: usize,
        buckets: u64,
    ) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert!(min_n >= 1 && min_n <= max_n, "invalid n-gram range");
        HashNGramModel {
            name: name.into(),
            dim,
            buckets,
            min_n,
            max_n,
            seed,
            word_table: RwLock::new(HashMap::new()),
            stats: ModelStats::default(),
        }
    }

    /// Derives the bucket vector for `hash` into `out` (additive).
    fn add_bucket_vector(&self, hash: u64, out: &mut [f32]) {
        let bucket = hash % self.buckets;
        let mut rng = SplitMix64::new(bucket ^ self.seed.rotate_left(17));
        for slot in out.iter_mut() {
            *slot += rng.next_f32_symmetric();
        }
    }

    /// Computes the (unnormalized) word vector: word bucket + n-gram
    /// buckets, averaged.
    fn word_vector_uncached(&self, word: &str) -> Vec<f32> {
        let mut acc = vec![0.0f32; self.dim];
        let mut parts = 0usize;

        // Whole-word vector (the `<word>` token in fastText).
        let bounded = format!("<{word}>");
        self.add_bucket_vector(fnv1a(bounded.as_bytes()), &mut acc);
        parts += 1;

        // Character n-grams over the bounded form.
        let chars: Vec<char> = bounded.chars().collect();
        let mut gram = String::with_capacity(self.max_n * 4);
        for n in self.min_n..=self.max_n {
            if chars.len() < n {
                break;
            }
            for start in 0..=(chars.len() - n) {
                gram.clear();
                gram.extend(&chars[start..start + n]);
                self.add_bucket_vector(fnv1a(gram.as_bytes()), &mut acc);
                parts += 1;
            }
        }

        let inv = 1.0 / parts as f32;
        for x in &mut acc {
            *x *= inv;
        }
        acc
    }

    /// The memoized per-word vector.
    pub fn word_vector(&self, word: &str) -> Arc<Vec<f32>> {
        if let Some(v) = self.word_table.read().get(word) {
            return v.clone();
        }
        let v = Arc::new(self.word_vector_uncached(word));
        self.word_table
            .write()
            .entry(word.to_string())
            .or_insert_with(|| v.clone())
            .clone()
    }

    /// Warms the word table for `words` (Figure 4's prefetch optimization).
    pub fn prefetch<S: AsRef<str>>(&self, words: impl IntoIterator<Item = S>) {
        for w in words {
            let w = w.as_ref();
            for token in tokenize(w) {
                self.word_vector(token);
            }
        }
    }

    /// Number of memoized words.
    pub fn word_table_len(&self) -> usize {
        self.word_table.read().len()
    }
}

/// Splits text into lowercase word tokens on non-alphanumeric boundaries.
pub fn tokenize(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
}

impl EmbeddingModel for HashNGramModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn embed_into(&self, text: &str, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim, "output buffer has wrong dimension");
        self.stats.record(text.len());
        out.fill(0.0);
        let lower = text.to_lowercase();
        let mut words = 0usize;
        for token in tokenize(&lower) {
            let v = self.word_vector(token);
            for (slot, x) in out.iter_mut().zip(v.iter()) {
                *slot += x;
            }
            words += 1;
        }
        if words > 1 {
            let inv = 1.0 / words as f32;
            for x in out.iter_mut() {
                *x *= inv;
            }
        }
        normalize(out);
    }

    fn stats(&self) -> &ModelStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cosine(a: &[f32], b: &[f32]) -> f32 {
        let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
        dot / (na * nb)
    }

    #[test]
    fn deterministic_and_normalized() {
        let m = HashNGramModel::new(1);
        let a = m.embed("golden retriever");
        let b = m.embed("golden retriever");
        assert_eq!(a, b);
        let norm: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn case_insensitive() {
        let m = HashNGramModel::new(1);
        assert_eq!(m.embed("Dog"), m.embed("dog"));
    }

    #[test]
    fn shared_subwords_raise_similarity() {
        let m = HashNGramModel::new(1);
        // A misspelling shares n-grams with the original, so it scores well
        // above an unrelated word (fastText's subword robustness, Edizel et
        // al., cited by the paper). The structural model's similarity equals
        // the shared n-gram fraction, so a suffix variant (sharing a long
        // prefix) scores higher than a mid-word transposition.
        let base = m.embed("retriever");
        let sim_suffix = cosine(&base, &m.embed("retrievers"));
        let sim_typo = cosine(&base, &m.embed("retreiver"));
        let sim_unrelated = cosine(&base, &m.embed("quartz"));
        assert!(
            sim_unrelated < 0.1,
            "unrelated too similar: {sim_unrelated}"
        );
        assert!(
            sim_typo > sim_unrelated + 0.15,
            "typo {sim_typo} vs unrelated {sim_unrelated}"
        );
        assert!(sim_suffix > 0.5, "suffix variant too low: {sim_suffix}");
    }

    #[test]
    fn different_seeds_give_different_spaces() {
        let m1 = HashNGramModel::new(1);
        let m2 = HashNGramModel::new(2);
        assert_ne!(m1.embed("dog"), m2.embed("dog"));
    }

    #[test]
    fn word_table_memoizes_and_prefetch_warms() {
        let m = HashNGramModel::new(1);
        assert_eq!(m.word_table_len(), 0);
        m.prefetch(["dog park", "cat"]);
        assert_eq!(m.word_table_len(), 3);
        // Embedding after prefetch should not add entries.
        m.embed("dog cat");
        assert_eq!(m.word_table_len(), 3);
    }

    #[test]
    fn multiword_is_average_of_words() {
        // Multi-word text averages the *unnormalized* per-word vectors
        // (fastText semantics), then normalizes once.
        let m = HashNGramModel::new(1);
        let dog = m.word_vector("dog");
        let park = m.word_vector("park");
        let both = m.embed("dog park");
        let mut avg: Vec<f32> = dog
            .iter()
            .zip(park.iter())
            .map(|(a, b)| (a + b) / 2.0)
            .collect();
        normalize(&mut avg);
        assert!(cosine(&both, &avg) > 0.999);
    }

    #[test]
    fn stats_metering() {
        let m = HashNGramModel::new(1);
        m.embed("abc");
        m.embed("de");
        assert_eq!(m.stats().invocations(), 2);
        assert_eq!(m.stats().chars_processed(), 5);
    }

    #[test]
    fn empty_string_embeds_to_zero() {
        let m = HashNGramModel::new(1);
        let v = m.embed("");
        assert!(v.iter().all(|&x| x == 0.0));
    }
}
