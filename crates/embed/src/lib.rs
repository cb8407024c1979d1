//! Representation-model substrate for context-rich processing.
//!
//! The paper's semantic operators (Section IV) assume a *representation
//! model* — fastText in its prototype — that maps strings into a latent
//! vector space where cosine similarity captures context (synonyms,
//! alternative spellings, related categories).
//!
//! This crate provides that substrate, fully self-contained:
//!
//! * [`EmbeddingModel`] — the model trait every semantic operator consumes,
//!   with built-in invocation metering (model inference is a first-class
//!   cost for the optimizer),
//! * [`HashNGramModel`] — a fastText-shaped model: subword character
//!   n-grams hashed into bucket vectors and averaged. Deterministic and
//!   training-free, it reproduces fastText's *inference cost profile*
//!   (tokenize → n-gram hash → table lookups → average) which is what the
//!   paper's Figure 4 experiment measures,
//! * [`SemanticSpace`] — a ground-truth synonym-cluster space with
//!   controllable geometry, standing in for "trained on Wikipedia": unlike
//!   a real model it makes semantic-match quality *verifiable*,
//! * [`ClusteredTextModel`] — the composition used across experiments:
//!   cluster vocabulary resolves through the semantic space, everything
//!   else falls back to hashed n-grams,
//! * [`EmbeddingCache`] — memoizing cache with prefetch (the "physical
//!   optimization detail the user may not be aware of" from Figure 4),
//! * [`ModelRegistry`] — name → model resolution for the engine catalog.

pub mod cache;
pub mod hash_ngram;
pub mod model;
pub mod registry;
pub mod rng;
pub mod semantic_space;

pub use cache::EmbeddingCache;
pub use hash_ngram::HashNGramModel;
pub use model::{EmbeddingModel, ModelStats};
pub use registry::ModelRegistry;
pub use semantic_space::{ClusterGeometry, ClusterSpec, ClusteredTextModel, SemanticSpace};

/// Default embedding dimensionality, matching the paper's Figure 4 setup
/// ("fastText word embeddings with a dimension of 100").
pub const DEFAULT_DIM: usize = 100;
