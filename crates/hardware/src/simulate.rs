//! Simulated execution of a placement plan.
//!
//! The estimate from the DP is an idealized sum; real executions see
//! per-stage variance (cache state, clocks, contention). The simulator
//! replays a plan with deterministic, seed-derived per-stage perturbation
//! plus a contention penalty when consecutive stages share a device —
//! giving experiments a "measured" column distinct from the "estimated"
//! one, so plan-quality claims (estimate tracks measurement) are testable.

use crate::device::Topology;
use crate::placement::PlacementPlan;

/// Outcome of one simulated execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationResult {
    /// Per-stage simulated time (compute + incoming transfer), ns.
    pub stage_ns: Vec<f64>,
    /// Simulated end-to-end time, ns.
    pub total_ns: f64,
}

/// Relative jitter amplitude applied per stage.
const JITTER: f64 = 0.08;
/// Penalty factor when a stage runs on the same device as its predecessor
/// (no overlap of transfer with compute, cache displacement).
const SAME_DEVICE_CONTENTION: f64 = 0.03;

fn mix(seed: u64, i: u64) -> f64 {
    // SplitMix64 step → uniform in [0,1).
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9E3779B97F4A7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    ((z ^ (z >> 31)) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Simulates executing `plan` on `topology` with deterministic jitter.
pub fn simulate_plan(plan: &PlacementPlan, _topology: &Topology, seed: u64) -> SimulationResult {
    let mut stage_ns = Vec::with_capacity(plan.assignments.len());
    let mut total = 0.0;
    for i in 0..plan.assignments.len() {
        let base = plan.stage_compute_ns[i] + plan.stage_transfer_ns[i];
        // Jitter in [1-J, 1+J].
        let jitter = 1.0 + JITTER * (2.0 * mix(seed, i as u64) - 1.0);
        let contention = if i > 0 && plan.assignments[i] == plan.assignments[i - 1] {
            1.0 + SAME_DEVICE_CONTENTION
        } else {
            1.0
        };
        let t = base * jitter * contention;
        stage_ns.push(t);
        total += t;
    }
    SimulationResult { stage_ns, total_ns: total }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::place_pipeline;
    use crate::profile::{OperatorClass, OperatorProfile};

    fn plan_and_topology() -> (PlacementPlan, Topology) {
        let pipeline = vec![
            OperatorProfile::new(OperatorClass::Scan, 1e9, 1 << 28, 1 << 26),
            OperatorProfile::new(OperatorClass::ModelInference, 1e12, 1 << 26, 1 << 22),
            OperatorProfile::new(OperatorClass::Aggregate, 1e8, 1 << 22, 1 << 16),
        ];
        let t = Topology::cpu_gpu();
        let plan = place_pipeline(&pipeline, &t).unwrap();
        (plan, t)
    }

    #[test]
    fn deterministic_per_seed() {
        let (plan, t) = plan_and_topology();
        assert_eq!(simulate_plan(&plan, &t, 1), simulate_plan(&plan, &t, 1));
        assert_ne!(
            simulate_plan(&plan, &t, 1).total_ns,
            simulate_plan(&plan, &t, 2).total_ns
        );
    }

    #[test]
    fn simulation_tracks_estimate() {
        let (plan, t) = plan_and_topology();
        for seed in 0..20 {
            let sim = simulate_plan(&plan, &t, seed);
            let rel = (sim.total_ns - plan.total_ns).abs() / plan.total_ns;
            assert!(rel < 0.15, "seed {seed}: relative error {rel}");
        }
    }

    #[test]
    fn stage_count_matches() {
        let (plan, t) = plan_and_topology();
        let sim = simulate_plan(&plan, &t, 7);
        assert_eq!(sim.stage_ns.len(), plan.assignments.len());
        let sum: f64 = sim.stage_ns.iter().sum();
        assert!((sum - sim.total_ns).abs() < 1.0);
    }
}
