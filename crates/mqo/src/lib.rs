//! `cx_mqo` — multi-query scan sharing: one panel sweep answers many
//! queued queries.
//!
//! The rungs below this crate amortize similarity work *within* a query
//! (blocked kernels over `VectorArena` panels) and across queries'
//! *embedding* fills (`cx_serve`'s cross-query batcher). But every
//! admitted query still sweeps its candidate panel alone — a storm of
//! semantic filters over one table re-reads and re-scores the same panel
//! once per query, and a storm of semantic joins re-embeds and re-sweeps
//! the same build side. This crate closes that gap: queries whose scans
//! carry equal [`ScanSignature::group_key`]s (same candidate subtree,
//! column, model, storage tier — see [`cx_exec::shared`] for the
//! contract) merge into one [`SharedScanExec`], which
//!
//! 1. executes the candidate subtree **once** and embeds its distinct
//!    values into one panel,
//! 2. gathers every member query's probe vectors into one **stacked,
//!    deduplicated probe panel** (a filter contributes its target; a join
//!    contributes its probe side's distinct values — identical probe rows
//!    across queries are swept once),
//! 3. runs **one** panel sweep ([`cx_semantic::sweep::sweep`]) of the
//!    stacked probes over the panel, floored at the group's lowest
//!    threshold, and
//! 4. slices the hits per member into a [`SharedScanState`] — the
//!    member's complete `(probe, candidate, score)` match list at its own
//!    threshold — that each query's own operator consumes as its epilogue
//!    (row masks, pair expansion, and everything above the scan stay
//!    per-query).
//!
//! Filters and joins share one arithmetic (the sweep's normalized dot)
//! and one slice shape; a filter is the one-probe member. They still
//! never share a sweep with each other: their candidate panels come from
//! different children, which the group key tells apart.
//!
//! **Bit-identity.** Results equal solo execution to the bit because
//! solo and shared execution call one function: the member operators'
//! own solo scans are `cx_semantic::sweep::sweep` with one member's
//! probes, and this crate calls it with every member's. Each probe row is
//! scored independently of the rows stacked beside it, so a member's
//! slice of the k-member sweep is its one-member sweep; no arithmetic is
//! mirrored here.
//!
//! The serving layer (`cx_serve`) owns the queueing policy (who waits how
//! long to form a group); this crate owns the shared plan itself.

use cx_embed::{EmbeddingCache, QuantTier};
use cx_exec::shared::{ProbeSource, ScanSignature, SharedScanState};
use cx_exec::PhysicalOperator;
use cx_semantic::sweep::{sweep, Distinct, Hit};
use cx_storage::{Error, QueryContext, Result};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// One member query's contribution to a shared scan.
pub struct MemberSpec {
    /// Where this member's probe vectors come from.
    pub probe: MemberProbe,
    /// This member's match threshold (its slice keeps the shared hits at
    /// or above it).
    pub threshold: f32,
}

/// A member's probe source, resolved to executable form.
pub enum MemberProbe {
    /// One literal probe string (semantic filter target).
    Literal(String),
    /// The distinct valid UTF8 values of `column` in `op`'s output
    /// (semantic join probe side). `fingerprint`, when known, lets the
    /// group materialize identical subtrees once.
    Subtree { op: Arc<dyn PhysicalOperator>, column: usize, fingerprint: Option<u64> },
}

/// Counters describing one shared sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Queries merged into this sweep.
    pub members: usize,
    /// Rows in the shared candidate panel.
    pub candidate_rows: usize,
    /// Distinct probe rows actually swept.
    pub probe_rows_unique: usize,
    /// Probe rows the members would have swept solo (pre-dedup).
    pub probe_rows_total: usize,
    /// Candidate-panel row materializations avoided versus solo
    /// execution: solo, each member embeds/gathers the panel itself;
    /// shared, the group pays once.
    pub panel_rows_saved: u64,
    /// Similarity pairs avoided by cross-query probe deduplication.
    pub pairs_saved: u64,
}

/// The memoized result of a shared sweep.
pub struct SweepOutcome {
    /// Distinct valid candidate values, first-appearance order.
    pub candidates: Vec<String>,
    /// Distinct probe values across all members, first-appearance order.
    pub probes: Vec<String>,
    /// Per member: its probe rows as indices into `probes`.
    pub member_probe_rows: Vec<Vec<u32>>,
    /// Every `(probe, candidate, score)` pair at or above the group's
    /// lowest threshold, ordered by `(probe, candidate)`.
    pub hits: Vec<Hit>,
    /// Sweep counters.
    pub stats: SweepStats,
}

/// The shared-scan plan: one panel sweep answering a whole group of
/// queries. See the [module docs](self) for semantics. The serving
/// layer's scan queue calls [`SharedScanExec::sweep`] once and hands each
/// member its slice from [`SharedScanExec::member_states`].
pub struct SharedScanExec {
    candidate: Arc<dyn PhysicalOperator>,
    candidate_column: usize,
    quant: QuantTier,
    cache: Arc<EmbeddingCache>,
    members: Vec<MemberSpec>,
    outcome: Mutex<Option<Arc<SweepOutcome>>>,
}

impl SharedScanExec {
    /// Builds the shared plan for a group of `(operator, signature)`
    /// members — the operators previously discovered via
    /// [`cx_exec::find_shared_scan`]. All signatures must agree on
    /// [`ScanSignature::group_key`]; the candidate subtree is taken from
    /// the first member (the keys' fingerprint equality makes them
    /// interchangeable).
    pub fn from_group(
        members: &[(Arc<dyn PhysicalOperator>, ScanSignature)],
        cache: Arc<EmbeddingCache>,
    ) -> Result<Self> {
        let (first_op, first_sig) = members
            .first()
            .ok_or_else(|| Error::InvalidArgument("empty shared-scan group".into()))?;
        let key = first_sig.group_key();
        let quant = QuantTier::from_discriminant(first_sig.quant).ok_or_else(|| {
            Error::InvalidArgument(format!("unknown quant tier {}", first_sig.quant))
        })?;
        let candidate = first_op
            .children()
            .get(first_sig.candidate_child)
            .cloned()
            .ok_or_else(|| Error::InvalidArgument("candidate child out of bounds".into()))?;
        let mut specs = Vec::with_capacity(members.len());
        for (op, sig) in members {
            if sig.group_key() != key {
                return Err(Error::InvalidArgument(
                    "shared-scan group mixes incompatible signatures".into(),
                ));
            }
            let probe = match &sig.probe {
                ProbeSource::Literal(s) => MemberProbe::Literal(s.clone()),
                ProbeSource::Child { child, column, fingerprint } => MemberProbe::Subtree {
                    op: op.children().get(*child).cloned().ok_or_else(|| {
                        Error::InvalidArgument("probe child out of bounds".into())
                    })?,
                    column: *column,
                    fingerprint: *fingerprint,
                },
            };
            specs.push(MemberSpec { probe, threshold: sig.threshold });
        }
        Ok(SharedScanExec {
            candidate,
            candidate_column: first_sig.candidate_column,
            quant,
            cache,
            members: specs,
            outcome: Mutex::new(None),
        })
    }

    /// The lowest member threshold — the floor below which no member's
    /// epilogue can use a pair.
    pub fn min_threshold(&self) -> f32 {
        self.members
            .iter()
            .map(|m| m.threshold)
            .fold(f32::INFINITY, f32::min)
    }

    /// Runs (or returns the memoized) shared sweep: candidate subtree
    /// executed once, probe rows gathered and deduplicated across
    /// members, one panel sweep.
    pub fn sweep(&self) -> Result<Arc<SweepOutcome>> {
        if let Some(out) = self.outcome.lock().clone() {
            return Ok(out);
        }
        let candidates = {
            let _span = cx_obs::span("candidate_scan");
            subtree_values(&self.candidate, self.candidate_column)?
        };

        // Stacked probe panel with cross-query deduplication: a probe row
        // requested by five members is swept once and sliced five times.
        let mut probes: Vec<String> = Vec::new();
        let mut probe_id: HashMap<String, u32> = HashMap::new();
        let mut member_probe_rows: Vec<Vec<u32>> = Vec::with_capacity(self.members.len());
        let mut probe_rows_total = 0usize;
        // Members with equal probe fingerprints read the same subtree
        // (determinism + fingerprint equality), so its distinct values
        // are materialized once for the whole group.
        let mut subtree_memo: HashMap<(u64, usize), Vec<String>> = HashMap::new();
        let probe_span = cx_obs::span("probe_gather");
        for spec in &self.members {
            let texts = match &spec.probe {
                MemberProbe::Literal(s) => vec![s.clone()],
                MemberProbe::Subtree { op, column, fingerprint } => match fingerprint {
                    Some(fp) => match subtree_memo.get(&(*fp, *column)) {
                        Some(values) => values.clone(),
                        None => {
                            let values = subtree_values(op, *column)?;
                            subtree_memo.insert((*fp, *column), values.clone());
                            values
                        }
                    },
                    None => subtree_values(op, *column)?,
                },
            };
            probe_rows_total += texts.len();
            let rows = texts
                .into_iter()
                .map(|t| {
                    *probe_id.entry(t).or_insert_with_key(|t| {
                        probes.push(t.clone());
                        (probes.len() - 1) as u32
                    })
                })
                .collect();
            member_probe_rows.push(rows);
        }

        drop(probe_span);
        // The sweep keeps only pairs some member can use. It runs under
        // the *group* context installed by the server (deadline = max
        // member deadline), so one slow member cannot be killed by
        // another's tighter deadline mid-sweep; per-member deadlines are
        // enforced at the epilogues instead. It runs on the group
        // leader's thread, so its pairs land in the leader's profile —
        // the same convention shared spans use.
        let (floor, ctx) = (self.min_threshold(), QueryContext::current());
        let hits = sweep(self.quant, &self.cache, &candidates, &probes, floor, 1, &ctx)?;
        let stats = SweepStats {
            members: self.members.len(),
            candidate_rows: candidates.len(),
            probe_rows_unique: probes.len(),
            probe_rows_total,
            panel_rows_saved: (self.members.len().saturating_sub(1) * candidates.len()) as u64,
            pairs_saved: ((probe_rows_total - probes.len()) * candidates.len()) as u64,
        };
        let out = Arc::new(SweepOutcome {
            candidates,
            probes,
            member_probe_rows,
            hits,
            stats,
        });
        *self.outcome.lock() = Some(out.clone());
        Ok(out)
    }

    /// Each member's slice of the shared hits, in member order, ready for
    /// [`PhysicalOperator::inject_shared_scan`]: the pairs on the member's
    /// own probe rows that clear its own threshold.
    pub fn member_states(&self) -> Result<Vec<SharedScanState>> {
        let out = self.sweep()?;
        Ok(self
            .members
            .iter()
            .zip(&out.member_probe_rows)
            .map(|(spec, rows)| {
                let mine: HashSet<u32> = rows.iter().copied().collect();
                let matches = out
                    .hits
                    .iter()
                    .filter(|(p, _, s)| *s >= spec.threshold && mine.contains(p))
                    .map(|&(p, j, s)| {
                        (out.probes[p as usize].clone(), out.candidates[j as usize].clone(), s)
                    })
                    .collect();
                SharedScanState { matches }
            })
            .collect())
    }
}

/// The distinct valid UTF8 values of `column` in `op`'s output, owned:
/// the sweep outcome outlives the subtree's chunks.
fn subtree_values(op: &Arc<dyn PhysicalOperator>, column: usize) -> Result<Vec<String>> {
    let chunks = op.execute()?.collect::<Result<Vec<_>>>()?;
    let distinct = Distinct::of_chunks(&chunks, column)?;
    Ok(distinct.values.iter().map(|v| v.to_string()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_embed::HashNGramModel;
    use cx_exec::{ChunkStream, TableScanExec};
    use cx_storage::{Column, DataType, Field, Schema, Table};
    use cx_vector::kernels::{dot_unrolled, norm};

    fn cache() -> Arc<EmbeddingCache> {
        Arc::new(EmbeddingCache::new(Arc::new(HashNGramModel::new(7))))
    }

    fn scan(values: &[&str]) -> Arc<dyn PhysicalOperator> {
        let table = Table::from_columns(
            Schema::new(vec![Field::new("name", DataType::Utf8)]),
            vec![Column::from_strings(values.iter().copied())],
        )
        .unwrap();
        Arc::new(TableScanExec::new(Arc::new(table)))
    }

    /// A fake filter node exposing the shared-scan surface over `scan`.
    struct FakeFilter {
        input: Arc<dyn PhysicalOperator>,
        target: String,
        threshold: f32,
    }

    impl PhysicalOperator for FakeFilter {
        fn name(&self) -> String {
            "FakeFilter".into()
        }
        fn schema(&self) -> Arc<Schema> {
            self.input.schema()
        }
        fn children(&self) -> Vec<Arc<dyn PhysicalOperator>> {
            vec![self.input.clone()]
        }
        fn execute(&self) -> Result<ChunkStream> {
            self.input.execute()
        }
        fn scan_signature(&self) -> Option<ScanSignature> {
            Some(ScanSignature {
                candidate_fingerprint: 0xc0ffee,
                candidate_child: 0,
                candidate_column: 0,
                model: "hash-ngram".into(),
                quant: 0,
                probe: ProbeSource::Literal(self.target.clone()),
                threshold: self.threshold,
            })
        }
    }

    fn group(targets: &[&str]) -> Vec<(Arc<dyn PhysicalOperator>, ScanSignature)> {
        targets
            .iter()
            .map(|t| {
                let op: Arc<dyn PhysicalOperator> = Arc::new(FakeFilter {
                    input: scan(&["boots", "parka", "boots", "mug"]),
                    target: t.to_string(),
                    threshold: 0.1,
                });
                let sig = op.scan_signature().unwrap();
                (op, sig)
            })
            .collect()
    }

    /// Unit-norm copy of `v` (a zero vector stays zero).
    fn unit(v: &[f32]) -> Vec<f32> {
        let n = norm(v);
        v.iter().map(|&x| if n > 0.0 { x / n } else { x }).collect()
    }

    #[test]
    fn filter_sweep_matches_pairwise_cosine_bit_for_bit() {
        let c = cache();
        let shared = SharedScanExec::from_group(&group(&["shoe", "coat"]), c.clone()).unwrap();
        let states = shared.member_states().unwrap();
        assert_eq!(states.len(), 2);
        let mut matched = 0;
        for (state, target) in states.iter().zip(["shoe", "coat"]) {
            // Each member's complete match list at its threshold, scored as
            // the bare dot of unit-normalized embeddings, in candidate order.
            let t = unit(&c.get(target));
            let want: Vec<(String, String, u32)> = ["boots", "parka", "mug"]
                .iter()
                .map(|v| (target.to_string(), v.to_string(), dot_unrolled(&t, &unit(&c.get(v)))))
                .filter(|&(.., s)| s >= 0.1)
                .map(|(p, v, s)| (p, v, s.to_bits()))
                .collect();
            let got: Vec<(String, String, u32)> =
                state.matches.iter().map(|(p, v, s)| (p.clone(), v.clone(), s.to_bits())).collect();
            assert_eq!(got, want, "{target}");
            matched += got.len();
        }
        assert!(matched > 0, "the threshold keeps some pair");
        let stats = shared.sweep().unwrap().stats;
        assert_eq!(stats.members, 2);
        assert_eq!(stats.candidate_rows, 3);
        assert_eq!(stats.probe_rows_unique, 2);
        assert_eq!(stats.probe_rows_total, 2);
        assert_eq!(stats.panel_rows_saved, 3);
        assert_eq!(stats.pairs_saved, 0);
    }

    #[test]
    fn duplicate_probes_are_swept_once() {
        let shared =
            SharedScanExec::from_group(&group(&["shoe", "shoe", "shoe"]), cache()).unwrap();
        let out = shared.sweep().unwrap();
        assert_eq!(out.probes.len(), 1);
        assert_eq!(out.stats.probe_rows_total, 3);
        assert_eq!(out.stats.pairs_saved, 2 * 3);
        // Every member slices the same row.
        assert_eq!(out.member_probe_rows, vec![vec![0], vec![0], vec![0]]);
    }

    #[test]
    fn mixed_group_keys_are_rejected() {
        let mut members = group(&["a"]);
        let mut other = group(&["b"]).pop().unwrap();
        other.1.candidate_fingerprint ^= 1;
        members.push(other);
        assert!(SharedScanExec::from_group(&members, cache()).is_err());
        assert!(SharedScanExec::from_group(&[], cache()).is_err());
    }
}
