//! Zipfian text corpora ("strings taken randomly from Wikipedia").
//!
//! Figure 4 joins two arrays of 10k strings sampled from Wikipedia. What
//! that workload exercises is (a) a heavy-tailed value distribution —
//! natural text is Zipfian — and (b) strings whose embeddings mostly do
//! *not* match at a high cosine threshold. The generator reproduces both:
//! ranks are drawn from a Zipf(s) distribution over the vocabulary, and
//! strings are 1..=max_words phrases.

use cx_embed::rng::SplitMix64;

/// Corpus generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct CorpusConfig {
    /// Number of strings to produce.
    pub size: usize,
    /// Zipf exponent (natural text ≈ 1.0).
    pub zipf_s: f64,
    /// Maximum words per string (phrases of 1..=max).
    pub max_words: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            size: 10_000,
            zipf_s: 1.0,
            max_words: 2,
            seed: 0xC0FFEE,
        }
    }
}

/// A Zipf sampler over ranks `0..n` using precomputed cumulative weights.
pub struct ZipfSampler {
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    /// A sampler over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over empty domain");
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 0..n {
            acc += 1.0 / ((rank + 1) as f64).powf(s);
            cumulative.push(acc);
        }
        ZipfSampler { cumulative }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let x = rng.next_f64() * total;
        self.cumulative.partition_point(|&c| c < x)
    }
}

/// Generates `config.size` strings over `vocabulary` (rank order = given
/// order; put frequent words first for realistic skew).
pub fn generate_corpus(vocabulary: &[String], config: CorpusConfig) -> Vec<String> {
    assert!(!vocabulary.is_empty(), "empty vocabulary");
    assert!(config.max_words >= 1, "max_words must be >= 1");
    let sampler = ZipfSampler::new(vocabulary.len(), config.zipf_s);
    let mut rng = SplitMix64::new(config.seed);
    (0..config.size)
        .map(|_| {
            let words = 1 + rng.next_range(config.max_words as u64) as usize;
            let mut s = String::new();
            for w in 0..words {
                if w > 0 {
                    s.push(' ');
                }
                s.push_str(&vocabulary[sampler.sample(&mut rng)]);
            }
            s
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vocab(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("word{i}")).collect()
    }

    #[test]
    fn deterministic() {
        let v = vocab(100);
        let cfg = CorpusConfig {
            size: 50,
            ..Default::default()
        };
        assert_eq!(generate_corpus(&v, cfg), generate_corpus(&v, cfg));
    }

    #[test]
    fn zipf_skew_favors_low_ranks() {
        let v = vocab(1000);
        let cfg = CorpusConfig {
            size: 20_000,
            zipf_s: 1.0,
            max_words: 1,
            seed: 3,
        };
        let corpus = generate_corpus(&v, cfg);
        let count = |w: &str| corpus.iter().filter(|s| s.as_str() == w).count();
        let top = count("word0");
        let mid = count("word99");
        assert!(top > 5 * mid.max(1), "top={top} mid={mid}");
    }

    #[test]
    fn zipf_zero_is_uniform() {
        let v = vocab(10);
        let cfg = CorpusConfig {
            size: 10_000,
            zipf_s: 0.0,
            max_words: 1,
            seed: 9,
        };
        let corpus = generate_corpus(&v, cfg);
        let count0 = corpus.iter().filter(|s| s.as_str() == "word0").count();
        assert!((count0 as f64 - 1000.0).abs() < 150.0, "count0 = {count0}");
    }

    #[test]
    fn phrase_lengths_respected() {
        let v = vocab(10);
        let cfg = CorpusConfig {
            size: 500,
            zipf_s: 1.0,
            max_words: 3,
            seed: 5,
        };
        let corpus = generate_corpus(&v, cfg);
        let mut seen = [false; 3];
        for s in &corpus {
            let words = s.split(' ').count();
            assert!((1..=3).contains(&words));
            seen[words - 1] = true;
        }
        assert!(seen.iter().all(|&b| b), "all phrase lengths occur");
    }

    #[test]
    fn sampler_rank_bounds() {
        let sampler = ZipfSampler::new(5, 1.0);
        let mut rng = SplitMix64::new(1);
        for _ in 0..1000 {
            assert!(sampler.sample(&mut rng) < 5);
        }
    }
}
