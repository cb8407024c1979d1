//! The embedding-model trait and invocation metering.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters a model keeps about its own use.
///
/// Model inference is one of the dominant costs of context-rich queries, so
/// the optimizer and the experiment harnesses need to *observe* how many
/// inferences a plan actually performed (e.g. to show that filter pushdown
/// reduces model invocations, the heart of Figure 4).
#[derive(Debug, Default)]
pub struct ModelStats {
    invocations: AtomicU64,
    chars_processed: AtomicU64,
}

impl ModelStats {
    /// Records one inference over `chars` characters of input.
    pub fn record(&self, chars: usize) {
        self.invocations.fetch_add(1, Ordering::Relaxed);
        self.chars_processed
            .fetch_add(chars as u64, Ordering::Relaxed);
    }

    /// Number of `embed` calls so far.
    pub fn invocations(&self) -> u64 {
        self.invocations.load(Ordering::Relaxed)
    }

    /// Total input characters processed.
    pub fn chars_processed(&self) -> u64 {
        self.chars_processed.load(Ordering::Relaxed)
    }

    /// Resets both counters (between experiment runs).
    pub fn reset(&self) {
        self.invocations.store(0, Ordering::Relaxed);
        self.chars_processed.store(0, Ordering::Relaxed);
    }
}

/// A representation model mapping text to a fixed-dimension latent vector.
///
/// Implementations must be deterministic (same input → same vector) and
/// thread-safe; semantic operators embed values from parallel workers.
pub trait EmbeddingModel: Send + Sync {
    /// Human-readable model name (used by the engine catalog / EXPLAIN).
    fn name(&self) -> &str;

    /// Output dimensionality.
    fn dim(&self) -> usize;

    /// Embeds `text` into `out` (must be `dim()` long). The result is
    /// L2-normalized unless documented otherwise.
    fn embed_into(&self, text: &str, out: &mut [f32]);

    /// Convenience allocation-per-call variant of [`embed_into`].
    ///
    /// [`embed_into`]: EmbeddingModel::embed_into
    fn embed(&self, text: &str) -> Vec<f32> {
        let mut out = vec![0.0; self.dim()];
        self.embed_into(text, &mut out);
        out
    }

    /// Embeds a batch into a flat row-major matrix (`texts.len() * dim()`).
    fn embed_batch(&self, texts: &[&str]) -> Vec<f32> {
        let dim = self.dim();
        let mut out = vec![0.0; texts.len() * dim];
        for (row, text) in out.chunks_exact_mut(dim).zip(texts) {
            self.embed_into(text, row);
        }
        out
    }

    /// Invocation counters.
    fn stats(&self) -> &ModelStats;

    /// Estimated cost in abstract ns of embedding one string of `chars`
    /// characters. Drives the optimizer's model-operator costing.
    fn cost_per_embedding(&self, chars: usize) -> f64 {
        // Default: linear in input length with a fixed overhead.
        200.0 + 30.0 * chars as f64
    }
}

/// Normalizes `v` to unit L2 norm in place (no-op on zero vectors).
pub fn normalize(v: &mut [f32]) {
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in v {
            *x /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct ConstModel {
        stats: ModelStats,
    }

    impl EmbeddingModel for ConstModel {
        fn name(&self) -> &str {
            "const"
        }
        fn dim(&self) -> usize {
            4
        }
        fn embed_into(&self, text: &str, out: &mut [f32]) {
            self.stats.record(text.len());
            out.fill(0.5);
        }
        fn stats(&self) -> &ModelStats {
            &self.stats
        }
    }

    #[test]
    fn default_embed_and_batch() {
        let m = ConstModel {
            stats: ModelStats::default(),
        };
        assert_eq!(m.embed("xy"), vec![0.5; 4]);
        let batch = m.embed_batch(&["a", "bc"]);
        assert_eq!(batch.len(), 8);
        assert_eq!(m.stats().invocations(), 3);
        assert_eq!(m.stats().chars_processed(), 2 + 1 + 2);
        m.stats().reset();
        assert_eq!(m.stats().invocations(), 0);
    }

    #[test]
    fn normalize_unit_norm() {
        let mut v = vec![3.0, 4.0];
        normalize(&mut v);
        assert!((v[0] - 0.6).abs() < 1e-6);
        assert!((v[1] - 0.8).abs() < 1e-6);
        let mut z = vec![0.0, 0.0];
        normalize(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn cost_model_monotone_in_length() {
        let m = ConstModel {
            stats: ModelStats::default(),
        };
        assert!(m.cost_per_embedding(10) < m.cost_per_embedding(100));
    }
}
