//! Vector similarity infrastructure for semantic operators.
//!
//! The paper's semantic select/join/group-by reduce to distance computations
//! in a latent vector space (Section IV). [`VectorArena`] is the universal
//! vector currency of that path: strings embed straight into padded,
//! kernel-aligned rows and every scorer consumes arena panels — no
//! pairwise round-trips:
//!
//! ```text
//!   EmbeddingCache::get_batch_into          (strings → padded rows, 1 copy)
//!                  │
//!                  ▼
//!            VectorArena
//!                  │
//!        blocked kernels (crate::block)
//!     dot_block / dot_block_threshold /
//!             scores_matrix
//!                  │
//!                  ▼
//!        the panel sweep (cx_semantic)
//!        semantic filter / join
//! ```
//!
//! Modules:
//!
//! * [`kernels`] — the pairwise distance-kernel ladder (scalar, unrolled,
//!   cosine) whose rungs correspond to the "tight code /
//!   CPU-specific instructions" optimizations of Figure 4,
//! * [`block`] — the batched rung above it: one query scored against a
//!   row-major panel of candidates ([`dot_block`]), panels against panels
//!   ([`scores_matrix`]), with threshold-aware early-exit variants,
//! * [`cone`] — a panel's rows grouped into cone-bounded tiles by
//!   spherical k-means: the layout the exact top-k join prunes on,
//! * [`VectorArena`] — the padded arena above, the crate's one dense f32
//!   container, fillable straight from an embedding cache and handing out
//!   zero-copy [`RowBlock`] views.

pub mod arena;
pub mod block;
pub mod cone;
pub mod kernels;

pub use arena::{RowBlock, VectorArena};
pub use block::{dot_block, dot_block_threshold, scores_matrix};
/// The explicit-SIMD kernel layer the blocked and pairwise kernels
/// dispatch through (re-exported so operators can surface the active ISA
/// without a direct `cx-simd` dependency).
pub use cx_simd as simd;
pub use kernels::{cosine, dot, dot_unrolled, norm};
