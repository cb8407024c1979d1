//! The interpreted ("Python-style") execution model for Figure 4 baselines.

use cx_embed::EmbeddingModel;
use std::collections::HashMap;
use std::sync::Arc;

/// A boxed dynamically-typed value, as an interpreter would hold it.
pub trait PyValue: Send + Sync {
    /// Numeric view of the value.
    fn as_f64(&self) -> f64;
}

struct PyFloat(f64);

impl PyValue for PyFloat {
    fn as_f64(&self) -> f64 {
        self.0
    }
}

/// An embedding "model" as a naive script sees it: a dict from word to a
/// list of boxed floats (fastText's `model[word]` lookup, object headers
/// included).
pub struct InterpretedModel {
    table: HashMap<String, Vec<Box<dyn PyValue>>>,
}

impl InterpretedModel {
    /// Materializes boxed embeddings for `values` using `model`.
    pub fn load(model: &Arc<dyn EmbeddingModel>, values: &[String]) -> Self {
        let mut table: HashMap<String, Vec<Box<dyn PyValue>>> = HashMap::new();
        for v in values {
            table.entry(v.clone()).or_insert_with(|| {
                model
                    .embed(v)
                    .into_iter()
                    .map(|x| Box::new(PyFloat(x as f64)) as Box<dyn PyValue>)
                    .collect()
            });
        }
        InterpretedModel { table }
    }

    /// Number of distinct entries.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The interpreted cosine: looks *both* words up in the dict (string
    /// hashing per pair, as an inner-loop `model[w]` does), walks boxed
    /// elements behind virtual dispatch, recomputes both norms every time,
    /// and allocates a temporary per pair.
    pub fn cosine(&self, a: &str, b: &str) -> f64 {
        let va = &self.table[a];
        let vb = &self.table[b];
        // Temporary product list, as `[x*y for x, y in zip(a, b)]` would.
        let products: Vec<f64> = va
            .iter()
            .zip(vb.iter())
            .map(|(x, y)| x.as_f64() * y.as_f64())
            .collect();
        let dot: f64 = products.iter().sum();
        let na: f64 = va
            .iter()
            .map(|x| x.as_f64() * x.as_f64())
            .sum::<f64>()
            .sqrt();
        let nb: f64 = vb
            .iter()
            .map(|x| x.as_f64() * x.as_f64())
            .sum::<f64>()
            .sqrt();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na * nb)
        }
    }

    /// The naive nested-loop similarity join: every pair through
    /// [`InterpretedModel::cosine`]. Returns the match count.
    pub fn similarity_join(&self, left: &[String], right: &[String], threshold: f64) -> usize {
        let mut matches = 0usize;
        for l in left {
            for r in right {
                if self.cosine(l, r) >= threshold {
                    matches += 1;
                }
            }
        }
        matches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_embed::HashNGramModel;

    fn model() -> Arc<dyn EmbeddingModel> {
        Arc::new(HashNGramModel::with_params("m", 32, 1, 3, 4, 1 << 12))
    }

    #[test]
    fn interpreted_cosine_matches_compiled() {
        let m = model();
        let values: Vec<String> = vec!["alpha".into(), "beta".into()];
        let interp = InterpretedModel::load(&m, &values);
        let expected = cx_vector::kernels::cosine(&m.embed("alpha"), &m.embed("beta"));
        let got = interp.cosine("alpha", "beta");
        assert!((got - expected as f64).abs() < 1e-5, "{got} vs {expected}");
        // Self-similarity is 1.
        assert!((interp.cosine("alpha", "alpha") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn join_counts_threshold_matches() {
        let m = model();
        let values: Vec<String> = vec!["aaa".into(), "bbb".into()];
        let interp = InterpretedModel::load(&m, &values);
        let left = vec!["aaa".to_string(), "bbb".to_string()];
        // Identical strings always match at 0.99.
        let n = interp.similarity_join(&left, &left, 0.99);
        assert!(n >= 2);
        assert_eq!(interp.len(), 2);
    }
}
