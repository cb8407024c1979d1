//! Abstract cost model over logical plans.
//!
//! Units are abstract nanoseconds; the constants encode *relative* operator
//! weights (model inference ≫ hashing ≫ scanning), which is what rewrite
//! and tier decisions need. Per Section V, model-operator costs —
//! inference per distinct value, similarity kernels per candidate pair —
//! are first-class terms, not UDF black boxes.

use crate::cardinality::estimate_rows;
use crate::context::{OptimizerConfig, OptimizerContext};
use cx_embed::QuantTier;
use cx_exec::logical::LogicalPlan;
use cx_simd::KernelDispatch;

/// Per-row scan cost.
const SCAN_ROW: f64 = 2.0;
/// Per-row, per-predicate filter cost.
const FILTER_ROW: f64 = 4.0;
/// Per-row projection cost per expression.
const PROJECT_ROW: f64 = 2.0;
/// Per-row hash-table build/probe cost.
const HASH_ROW: f64 = 40.0;
/// Per-pair nested-loop cost.
const NL_PAIR: f64 = 8.0;
/// Cost of embedding one string (matches the default
/// `EmbeddingModel::cost_per_embedding` at ~15 chars).
const EMBED_VALUE: f64 = 650.0;
/// Cost of one similarity kernel evaluation at dim 100.
const SIM_PAIR: f64 = 30.0;
/// Per-row aggregation cost.
const AGG_ROW: f64 = 35.0;
/// Per-comparison sort cost.
const SORT_CMP: f64 = 12.0;

/// Absolute cosine-score error bound of f16 panels on unit vectors.
pub const F16_SCORE_ERROR: f64 = 1e-3;
/// Absolute cosine-score error bound of int8 panels on unit vectors.
pub const INT8_SCORE_ERROR: f64 = 1.2e-2;
/// Pair count below which quantizing a panel never pays for its build.
const QUANT_MIN_PAIRS: f64 = 65_536.0;
/// Per-value cost of quantizing one build-side row.
const QUANT_VALUE: f64 = 6.0;

/// Picks the storage tier for a semantic scan expected to evaluate
/// `est_pairs` similarity pairs under the process's active kernel
/// dispatch. See [`select_quant_tier_with`] for the selection rule.
pub fn select_quant_tier(config: &OptimizerConfig, est_pairs: f64) -> QuantTier {
    select_quant_tier_with(config, est_pairs, &KernelDispatch::active())
}

/// Picks the storage tier for a semantic scan expected to evaluate
/// `est_pairs` similarity pairs under an explicit kernel `dispatch`: the
/// cheapest tier whose documented score error stays within the configured
/// `recall_tolerance` *and* whose kernel is actually a win on the active
/// ISA. Small scans stay f32 — quantizing the panel costs more than it
/// saves below `QUANT_MIN_PAIRS`.
///
/// The f16 tier is only selectable when the dispatch runs hardware
/// conversion ([`KernelDispatch::f16_hardware`]): the software-conversion
/// f16 kernel is a measured ~15× *loss* versus f32 (bit-twiddling per
/// element swamps the bandwidth saving), so without F16C the tolerance
/// ladder skips straight from int8 to f32. int8 stays selectable on every
/// path — its accumulation is cheap integer math on all ISAs and the 4×
/// byte shrink wins wherever the panel scan is bandwidth-bound.
pub fn select_quant_tier_with(
    config: &OptimizerConfig,
    est_pairs: f64,
    dispatch: &KernelDispatch,
) -> QuantTier {
    if est_pairs < QUANT_MIN_PAIRS {
        return QuantTier::F32;
    }
    if config.recall_tolerance >= INT8_SCORE_ERROR {
        QuantTier::Int8
    } else if config.recall_tolerance >= F16_SCORE_ERROR && dispatch.f16_hardware() {
        QuantTier::F16
    } else {
        QuantTier::F32
    }
}

/// Per-pair cost factor of the f16 tier when no F16C path is active: the
/// measured ratio of software-conversion `dot_block_f16` to f32
/// `dot_block` (346 vs 22 ns/pair at dim 256). [`select_quant_tier_with`]
/// never *chooses* f16 on such a dispatch, but externally forced tiers
/// still get costed honestly.
const F16_SOFTWARE_FACTOR: f64 = 15.0;

/// Per-pair similarity cost at a storage tier under a kernel dispatch.
///
/// On hardware paths the factors track bytes-per-element (f32 4 B →
/// f16 2 B → int8 1 B), i.e. the data-movement economy of Section VI: at
/// the cardinalities where quantization is admitted ([`QUANT_MIN_PAIRS`]+)
/// panels exceed cache and the scan is bandwidth-bound, so moved bytes —
/// not per-element ALU work — dominate. The one ISA-dependent exception is
/// f16 without F16C, where per-element software conversion swamps
/// everything ([`F16_SOFTWARE_FACTOR`]).
fn sim_pair_cost(tier: QuantTier, dispatch: &KernelDispatch) -> f64 {
    SIM_PAIR
        * match tier {
            QuantTier::F32 => 1.0,
            QuantTier::F16 => {
                if dispatch.f16_hardware() {
                    0.55
                } else {
                    F16_SOFTWARE_FACTOR
                }
            }
            QuantTier::Int8 => 0.4,
        }
}

/// Estimates the total execution cost of `plan` (inclusive of children).
pub fn estimate_cost(plan: &LogicalPlan, ctx: &OptimizerContext) -> f64 {
    let children_cost: f64 = plan.children().iter().map(|c| estimate_cost(c, ctx)).sum();
    children_cost + node_cost(plan, ctx)
}

/// Distinct-value estimate for a column feeding `plan` (defaults to 10% of
/// rows when stats are missing).
fn distinct_estimate(plan: &LogicalPlan, ctx: &OptimizerContext) -> f64 {
    (estimate_rows(plan, ctx) * 0.1).max(1.0)
}

/// The cost of the node itself, excluding children.
pub fn node_cost(plan: &LogicalPlan, ctx: &OptimizerContext) -> f64 {
    match plan {
        LogicalPlan::Scan { .. } => estimate_rows(plan, ctx) * SCAN_ROW,
        LogicalPlan::Filter { predicate, input } => {
            let factors = predicate.split_conjunction().len() as f64;
            estimate_rows(input, ctx) * FILTER_ROW * factors
        }
        LogicalPlan::Project { exprs, input } => {
            estimate_rows(input, ctx) * PROJECT_ROW * exprs.len() as f64
        }
        LogicalPlan::Join { left, right, .. } => {
            (estimate_rows(left, ctx) + estimate_rows(right, ctx)) * HASH_ROW
        }
        LogicalPlan::CrossJoin { left, right } => {
            estimate_rows(left, ctx) * estimate_rows(right, ctx) * NL_PAIR
        }
        LogicalPlan::SemanticFilter { input, .. } => {
            let distinct = distinct_estimate(input, ctx);
            // Always exact f32: a single-probe scan reads the panel once,
            // so quantizing it (read + converted write) never amortizes —
            // the physical planner makes the same call.
            distinct * EMBED_VALUE + estimate_rows(input, ctx) * SIM_PAIR
        }
        LogicalPlan::SemanticJoin { left, right, .. } => {
            let dl = distinct_estimate(left, ctx);
            let dr = distinct_estimate(right, ctx);
            let embed = (dl + dr) * EMBED_VALUE;
            let dispatch = KernelDispatch::active();
            let tier = select_quant_tier_with(&ctx.config, dl * dr, &dispatch);
            let quantize = if tier == QuantTier::F32 {
                0.0
            } else {
                dr * QUANT_VALUE
            };
            embed + quantize + dl * dr * sim_pair_cost(tier, &dispatch)
        }
        LogicalPlan::SemanticGroupBy { input, .. } => {
            let rows = estimate_rows(input, ctx);
            let clusters = estimate_rows(plan, ctx);
            // Each row embeds (amortized by cache over distinct values) and
            // compares against every existing cluster centroid.
            distinct_estimate(input, ctx) * EMBED_VALUE + rows * clusters * SIM_PAIR
        }
        LogicalPlan::Aggregate { input, .. } => estimate_rows(input, ctx) * AGG_ROW,
        LogicalPlan::Sort { input, .. } => {
            let n = estimate_rows(input, ctx).max(2.0);
            n * n.log2() * SORT_CMP
        }
        LogicalPlan::Limit { .. } | LogicalPlan::Union { .. } | LogicalPlan::Distinct { .. } => {
            estimate_rows(plan, ctx) * SCAN_ROW
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{OptimizerConfig, OptimizerContext};
    use cx_embed::ModelRegistry;
    use cx_exec::logical::SemanticJoinSpec;
    use cx_expr::{col, lit};
    use cx_storage::{Column, DataType, Field, Schema, Table, TableStats};
    use std::sync::Arc;

    fn scan(name: &str, rows: i64, ctx: &mut OptimizerContext) -> LogicalPlan {
        let table = Table::from_columns(
            Schema::new(vec![
                Field::new("k", DataType::Utf8),
                Field::new("v", DataType::Int64),
            ]),
            vec![
                Column::from_strings((0..rows).map(|i| format!("k{i}"))),
                Column::from_i64((0..rows).collect()),
            ],
        )
        .unwrap();
        ctx.stats
            .insert(name.to_string(), TableStats::compute(&table).unwrap());
        LogicalPlan::Scan {
            source: name.to_string(),
            schema: Arc::new(Schema::new(vec![
                Field::new("k", DataType::Utf8),
                Field::new("v", DataType::Int64),
            ])),
        }
    }

    fn ctx() -> OptimizerContext {
        OptimizerContext::new(Arc::new(ModelRegistry::new()), OptimizerConfig::all())
    }

    #[test]
    fn pushdown_reduces_semantic_join_cost() {
        let mut c = ctx();
        let big_l = scan("l", 10_000, &mut c);
        let big_r = scan("r", 10_000, &mut c);
        let spec = SemanticJoinSpec {
            left_column: "k".into(),
            right_column: "k".into(),
            model: "m".into(),
            threshold: 0.9,
            score_column: "sim".into(),
        };
        let filter_above = LogicalPlan::Filter {
            predicate: col("v").lt(lit(100i64)),
            input: Box::new(LogicalPlan::SemanticJoin {
                left: Box::new(big_l.clone()),
                right: Box::new(big_r.clone()),
                spec: spec.clone(),
            }),
        };
        let filter_below = LogicalPlan::SemanticJoin {
            left: Box::new(LogicalPlan::Filter {
                predicate: col("v").lt(lit(100i64)),
                input: Box::new(big_l),
            }),
            right: Box::new(big_r),
            spec,
        };
        let (above, below) = (
            estimate_cost(&filter_above, &c),
            estimate_cost(&filter_below, &c),
        );
        assert!(
            below < above / 5.0,
            "below {below} should be far cheaper than above {above}"
        );
    }

    #[test]
    fn semantic_join_dominated_by_model_terms() {
        let mut c = ctx();
        let l = scan("l2", 1_000, &mut c);
        let r = scan("r2", 1_000, &mut c);
        let join = LogicalPlan::SemanticJoin {
            left: Box::new(l.clone()),
            right: Box::new(r.clone()),
            spec: SemanticJoinSpec {
                left_column: "k".into(),
                right_column: "k".into(),
                model: "m".into(),
                threshold: 0.9,
                score_column: "sim".into(),
            },
        };
        let hash = LogicalPlan::Join {
            left: Box::new(l),
            right: Box::new(r),
            on: vec![("k".into(), "k".into())],
            join_type: cx_exec::logical::JoinType::Inner,
        };
        // Embedding + kernel terms make the semantic join strictly costlier
        // than the hash join at equal cardinalities.
        assert!(node_cost(&join, &c) > 1.5 * node_cost(&hash, &c));
    }

    #[test]
    fn cost_is_monotone_in_input_size() {
        let mut c = ctx();
        let small = scan("s", 100, &mut c);
        let large = scan("L", 100_000, &mut c);
        assert!(estimate_cost(&large, &c) > estimate_cost(&small, &c));
    }

    /// A dispatch with hardware f16 conversion (explicit, so these tests
    /// hold regardless of the host CPU or `CX_SIMD`).
    fn hw_dispatch() -> KernelDispatch {
        KernelDispatch {
            f32_path: cx_simd::F32Path::Avx2,
            f16_path: cx_simd::F16Path::F16cAvx2,
            int8_path: cx_simd::Int8Path::Avx2,
        }
    }

    /// The `CX_SIMD=off` dispatch: every family on its scalar path.
    fn scalar_dispatch() -> KernelDispatch {
        cx_simd::resolve_mode(cx_simd::SimdMode::Off).expect("off always resolves")
    }

    #[test]
    fn tier_selection_follows_tolerance_and_scale() {
        let hw = hw_dispatch();
        let mut config = OptimizerConfig::all();
        // Default tolerance 0.0: always exact.
        assert_eq!(select_quant_tier_with(&config, 1e9, &hw), QuantTier::F32);
        // Tolerance admits f16, then int8.
        config.recall_tolerance = 2e-3;
        assert_eq!(select_quant_tier_with(&config, 1e9, &hw), QuantTier::F16);
        config.recall_tolerance = 5e-2;
        assert_eq!(select_quant_tier_with(&config, 1e9, &hw), QuantTier::Int8);
        // Small scans never quantize: build cost dominates.
        assert_eq!(
            select_quant_tier_with(&config, 1_000.0, &hw),
            QuantTier::F32
        );
    }

    #[test]
    fn f16_tier_requires_hardware_conversion() {
        let mut config = OptimizerConfig::all();
        config.recall_tolerance = 2e-3; // admits f16, not int8
        assert_eq!(
            select_quant_tier_with(&config, 1e9, &hw_dispatch()),
            QuantTier::F16
        );
        // Without F16C the f16 tier is a measured 15× loss: never chosen.
        assert_eq!(
            select_quant_tier_with(&config, 1e9, &scalar_dispatch()),
            QuantTier::F32
        );
        // int8's exact integer kernels stay admissible on every path.
        config.recall_tolerance = 5e-2;
        assert_eq!(
            select_quant_tier_with(&config, 1e9, &scalar_dispatch()),
            QuantTier::Int8
        );
    }

    #[test]
    fn tier_selection_consistent_under_every_host_mode() {
        // Sweep every mode this host can run (side-effect-free resolution,
        // not force_mode — other tests in this binary read the active
        // dispatch concurrently).
        let mut config = OptimizerConfig::all();
        config.recall_tolerance = 2e-3;
        for mode in cx_simd::available_modes() {
            let d = cx_simd::resolve_mode(mode).expect("listed mode resolves");
            let tier = select_quant_tier_with(&config, 1e9, &d);
            if d.f16_hardware() {
                assert_eq!(tier, QuantTier::F16, "mode {}", mode.label());
            } else {
                assert_eq!(tier, QuantTier::F32, "mode {}", mode.label());
            }
            // The costed f16 factor must mirror the same gate.
            let f16_cost = sim_pair_cost(QuantTier::F16, &d);
            if d.f16_hardware() {
                assert!(f16_cost < SIM_PAIR, "mode {}", mode.label());
            } else {
                assert!(f16_cost > SIM_PAIR, "mode {}", mode.label());
            }
        }
    }

    #[test]
    fn recall_tolerance_lowers_semantic_join_cost() {
        let mut exact = ctx();
        let mut quant = ctx();
        quant.config.recall_tolerance = 5e-2;
        let l1 = scan("lq", 20_000, &mut exact);
        let r1 = scan("rq", 20_000, &mut exact);
        scan("lq", 20_000, &mut quant);
        scan("rq", 20_000, &mut quant);
        let join = LogicalPlan::SemanticJoin {
            left: Box::new(l1),
            right: Box::new(r1),
            spec: SemanticJoinSpec {
                left_column: "k".into(),
                right_column: "k".into(),
                model: "m".into(),
                threshold: 0.9,
                score_column: "sim".into(),
            },
        };
        // int8 panels scale the kernel term by ~0.4, so the quantized plan
        // must be visibly cheaper at equal cardinalities.
        assert!(node_cost(&join, &quant) < 0.9 * node_cost(&join, &exact));
    }
}
