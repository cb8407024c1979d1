//! Shared code for the paper's figure and table reproductions (the
//! `fig*`/`table1` binaries). Serving and per-layer performance is
//! measured by the separate `benchmark/` package, not here.
//!
//! [`interpreted`] re-creates the *naive analyst pipeline* of Figure 4's
//! left-most bars — "the first tool at their disposal … Python: load the
//! data eagerly, iterate over two loops, perform a similarity check" — with
//! the mechanisms that make interpreted pipelines slow built in explicitly:
//! boxed values behind virtual dispatch, per-pair hash-map lookups (string
//! hashing in the inner loop), per-pair allocation, and per-pair norm
//! recomputation.
//!
//! [`measure`] provides honest sub-sampling: interpreted rungs cannot run a
//! 10k×10k join in benchmark time (that is the paper's point — thousands of
//! seconds), so they are measured on a subsample and extrapolated by the
//! exact pair-count ratio, clearly labeled in the output.
//!
//! [`paired`] holds the statistics of the `paired` binary, which compares
//! two builds of the `benchmark/` package over alternating runs.
//!
//! [`placement`] is Figure 5's model: device presets and links, operator
//! affinities, the plan → pipeline linearization and the exact placement
//! DP that `fig5_hardware` prints. Its numbers are simulation constants;
//! no engine decision reads them.

pub mod interpreted;
pub mod measure;
pub mod paired;
pub mod placement;

pub use interpreted::InterpretedModel;
pub use measure::{measure_or_extrapolate, Measured};
