//! The shared-scan (multi-query) contract.
//!
//! Concurrently queued queries often sweep the *same* candidate panel: a
//! storm of semantic filters over one table's column, or semantic joins
//! that all build against the same right side. The `cx_mqo` subsystem
//! merges such queries into one panel sweep — but to merge scans it must
//! be able to (a) recognize that two physical plans scan the same panel
//! and (b) hand each plan its precomputed slice of the shared match list.
//! This module is that contract. It deliberately lives in `cx_exec`, next
//! to [`PhysicalOperator`], so any operator crate can opt in without
//! depending on the sharing machinery.
//!
//! ## The contract
//!
//! An operator that can participate overrides two [`PhysicalOperator`]
//! methods (both default to "not shareable"):
//!
//! * [`PhysicalOperator::scan_signature`] returns a [`ScanSignature`]
//!   describing its sweep: which child subtree produces the candidate
//!   panel (identified *semantically* by the logical fingerprint of that
//!   subtree, not by operator identity), which UTF8 column feeds the
//!   panel, the embedding model, the storage tier, and the per-query
//!   epilogue inputs (probe source and threshold). There is one score
//!   arithmetic — a bare dot over unit-normalized rows, the cosine — so it
//!   is not part of the signature.
//! * [`PhysicalOperator::inject_shared_scan`] accepts a one-shot
//!   [`SharedScanState`] — the operator's slice of a shared sweep — which
//!   the **next** `execute()` call consumes instead of scanning. The
//!   operator remains fully functional without injection; a state that is
//!   never consumed, or an execution that never received one, both run
//!   the ordinary solo scan.
//!
//! Two signatures may merge iff their [`ScanSignature::group_key`]s are
//! equal: same candidate subtree fingerprint, same candidate child index,
//! same candidate column, same model, same storage tier. Probe and
//! threshold are *excluded* from the key — they are per-query epilogue,
//! applied to each query's slice of the shared match list. The candidate
//! child index keeps filters (child 0) and joins (child 1) in separate
//! groups.
//!
//! A [`SharedScanState`] is the **complete** value-level match list of
//! one query at its own threshold: a consumer treats a value absent from
//! it as a non-match and never re-scores it. A semantic filter is the
//! one-probe case (its target is the only probe value); a semantic join
//! has one probe value per distinct left key.
//!
//! ## Soundness
//!
//! Sharing is sound because of two invariants upheld elsewhere in the
//! tree and relied on here:
//!
//! 1. **Determinism** — the engine is deterministic, so two subtrees with
//!    equal logical fingerprints (lowered under the same optimizer
//!    configuration, against the same catalog version) produce the same
//!    chunks. The serving layer guarantees the parenthetical by mixing
//!    its config fingerprint into the group key and never grouping
//!    across catalog versions.
//! 2. **One sweep** — an operator's solo scan and the shared scan are the
//!    same function (`cx_semantic::sweep::sweep`): solo passes one query's
//!    probe rows, shared passes every member's, stacked. Each probe row is
//!    scored against the candidate panel independently of the rows stacked
//!    beside it, so a member's slice of the shared scores is, to the bit,
//!    what its solo scan computes. The identity holds by construction —
//!    there is no second copy of the arithmetic to keep in step. (That the
//!    sweep's blocked kernels equal the pairwise ones is a separate
//!    guarantee of `cx_vector::block`.)
//!
//! Because the slice is complete by construction, consuming it never
//! touches the kernels: injected and solo executions see the same pairs,
//! with the same score bits.

use crate::physical::PhysicalOperator;
use std::sync::Arc;

/// Where a query's probe vectors come from.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeSource {
    /// A single literal string (e.g. a semantic filter's target).
    Literal(String),
    /// The distinct valid UTF8 values of `column` in the output of
    /// `children()[child]` (e.g. a semantic join's probe side).
    /// `fingerprint` is the logical fingerprint of that subtree when
    /// known: members of one group whose probe fingerprints match read
    /// the same values, so the group executor materializes the subtree
    /// once for all of them (purely an execution-sharing hint — probe
    /// *rows* dedupe by value regardless).
    Child { child: usize, column: usize, fingerprint: Option<u64> },
}

/// A shareable scan's identity plus its per-query epilogue inputs.
///
/// See the [module docs](self) for the full contract. Everything that
/// determines *which panel is swept and how scores are computed* feeds
/// [`ScanSignature::group_key`]; `probe` and `threshold` are per-query
/// and do not.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanSignature {
    /// Logical fingerprint ([`crate::logical::LogicalPlan::fingerprint`])
    /// of the subtree producing the candidate panel.
    pub candidate_fingerprint: u64,
    /// Index into `children()` of the candidate-producing subtree.
    pub candidate_child: usize,
    /// UTF8 column index (in the candidate child's output schema) whose
    /// distinct valid values form the candidate panel.
    pub candidate_column: usize,
    /// Embedding model name.
    pub model: String,
    /// Storage-tier discriminant of the sweep (`cx_embed::QuantTier` as
    /// `u8`; 0 = f32). Tiers score different bits, so they never merge.
    pub quant: u8,
    /// This query's probe vectors (epilogue input, not part of the key).
    pub probe: ProbeSource,
    /// This query's match threshold (epilogue input, not part of the key).
    pub threshold: f32,
}

impl ScanSignature {
    /// The key under which scans may merge: a stable FNV-1a hash of
    /// everything *except* the per-query epilogue (`probe`, `threshold`).
    /// Serving layers should additionally mix in their optimizer-config
    /// fingerprint (configuration can change how the candidate subtree
    /// was lowered) and never group across catalog versions.
    pub fn group_key(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(&[self.quant]);
        eat(&self.candidate_fingerprint.to_le_bytes());
        eat(&(self.candidate_child as u64).to_le_bytes());
        eat(&(self.candidate_column as u64).to_le_bytes());
        eat(self.model.as_bytes());
        h
    }
}

/// One query's slice of a shared sweep, ready for injection: every
/// `(probe value, candidate value, score)` pair at or above the query's
/// threshold, and no other — a value absent from `matches` does not match.
///
/// Values are keyed by *string* (the embedded text), not by row id: the
/// consuming operator re-derives its own distinct-value numbering at
/// execute time, so injection survives any chunking of the input.
#[derive(Debug, Clone)]
pub struct SharedScanState {
    /// The complete value-level match list, in no particular order.
    pub matches: Vec<(String, String, f32)>,
}

/// Finds the first (pre-order) shareable scan in `op`'s tree, returning
/// the operator node together with its signature. Plans with several
/// shareable scans share only the topmost one — the others run solo
/// inside the same execution.
pub fn find_shared_scan(
    op: &Arc<dyn PhysicalOperator>,
) -> Option<(Arc<dyn PhysicalOperator>, ScanSignature)> {
    if let Some(sig) = op.scan_signature() {
        return Some((op.clone(), sig));
    }
    for child in op.children() {
        if let Some(found) = find_shared_scan(&child) {
            return Some(found);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(threshold: f32, probe: ProbeSource) -> ScanSignature {
        ScanSignature {
            candidate_fingerprint: 0xfeed,
            candidate_child: 0,
            candidate_column: 1,
            model: "m".into(),
            quant: 0,
            probe,
            threshold,
        }
    }

    #[test]
    fn group_key_ignores_epilogue_inputs() {
        let a = sig(0.8, ProbeSource::Literal("boots".into()));
        let b = sig(0.95, ProbeSource::Literal("parka".into()));
        assert_eq!(a.group_key(), b.group_key());
    }

    #[test]
    fn group_key_separates_panels_models_kinds_tiers() {
        let base = sig(0.8, ProbeSource::Literal("x".into()));
        let mut other_panel = base.clone();
        other_panel.candidate_fingerprint ^= 1;
        let mut other_model = base.clone();
        other_model.model = "m2".into();
        // Operator kinds differ by candidate child: a filter's panel is
        // child 0, a join's child 1.
        let mut other_kind = base.clone();
        other_kind.candidate_child = 1;
        let mut other_tier = base.clone();
        other_tier.quant = 2;
        let mut other_column = base.clone();
        other_column.candidate_column = 0;
        for s in [other_panel, other_model, other_kind, other_tier, other_column] {
            assert_ne!(base.group_key(), s.group_key(), "{s:?}");
        }
    }
}
