//! Pipeline placement over a device topology.
//!
//! Given a linear pipeline of operator profiles and a topology, choose a
//! device per stage minimizing `compute + inter-stage transfer + launch`.
//! Linear pipelines admit an exact O(stages × devices²) dynamic program —
//! the "just-in-time decisions … in growing hardware, operator, and system
//! heterogeneity" of Section IV, made concrete.

use crate::device::{DeviceId, Topology};
use crate::profile::OperatorProfile;

/// The result of placing a pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementPlan {
    /// Chosen device per stage.
    pub assignments: Vec<DeviceId>,
    /// Estimated compute time per stage, ns.
    pub stage_compute_ns: Vec<f64>,
    /// Estimated transfer time *into* each stage, ns (stage 0 reads its
    /// input locally on its device).
    pub stage_transfer_ns: Vec<f64>,
    /// Estimated end-to-end time, ns.
    pub total_ns: f64,
}

impl PlacementPlan {
    /// Human-readable rendering against `topology`.
    pub fn render(&self, topology: &Topology) -> String {
        let mut out = String::new();
        for (i, &d) in self.assignments.iter().enumerate() {
            let dev = topology.device(d);
            out.push_str(&format!(
                "stage {i}: {} ({}) compute={:.3}ms transfer_in={:.3}ms\n",
                dev.name,
                dev.kind,
                self.stage_compute_ns[i] / 1e6,
                self.stage_transfer_ns[i] / 1e6,
            ));
        }
        out.push_str(&format!("total: {:.3}ms\n", self.total_ns / 1e6));
        out
    }
}

/// Places `pipeline` on `topology` optimally (exact DP).
///
/// Returns `None` when some stage cannot run on any device.
pub fn place_pipeline(pipeline: &[OperatorProfile], topology: &Topology) -> Option<PlacementPlan> {
    if pipeline.is_empty() || topology.is_empty() {
        return None;
    }
    let n_dev = topology.len();
    let n = pipeline.len();

    // compute[i][d]: compute time of stage i on device d (None = cannot).
    let compute: Vec<Vec<Option<f64>>> = pipeline
        .iter()
        .map(|p| {
            (0..n_dev)
                .map(|d| p.compute_ns(topology.device(d)))
                .collect()
        })
        .collect();

    // DP over stages.
    const INF: f64 = f64::INFINITY;
    let mut cost = vec![vec![INF; n_dev]; n];
    let mut back = vec![vec![usize::MAX; n_dev]; n];
    for d in 0..n_dev {
        if let Some(c) = compute[0][d] {
            cost[0][d] = c;
        }
    }
    for i in 1..n {
        for d in 0..n_dev {
            let Some(c) = compute[i][d] else { continue };
            for prev in 0..n_dev {
                if cost[i - 1][prev] == INF {
                    continue;
                }
                let transfer = topology.transfer_ns(pipeline[i - 1].output_bytes, prev, d);
                let total = cost[i - 1][prev] + transfer + c;
                if total < cost[i][d] {
                    cost[i][d] = total;
                    back[i][d] = prev;
                }
            }
        }
    }

    // Best final device.
    let (mut best_d, mut best) = (usize::MAX, INF);
    for (d, &c) in cost[n - 1].iter().enumerate() {
        if c < best {
            best = c;
            best_d = d;
        }
    }
    if best_d == usize::MAX {
        return None;
    }

    // Recover assignments.
    let mut assignments = vec![0usize; n];
    assignments[n - 1] = best_d;
    for i in (1..n).rev() {
        assignments[i - 1] = back[i][assignments[i]];
    }

    let mut stage_compute_ns = Vec::with_capacity(n);
    let mut stage_transfer_ns = Vec::with_capacity(n);
    for i in 0..n {
        stage_compute_ns.push(compute[i][assignments[i]].expect("placed on runnable device"));
        stage_transfer_ns.push(if i == 0 {
            0.0
        } else {
            topology.transfer_ns(pipeline[i - 1].output_bytes, assignments[i - 1], assignments[i])
        });
    }

    Some(PlacementPlan { assignments, stage_compute_ns, stage_transfer_ns, total_ns: best })
}

/// Places `pipeline` constrained to a single device (for baselines);
/// returns the best single-device plan.
pub fn place_single_device(
    pipeline: &[OperatorProfile],
    topology: &Topology,
) -> Option<PlacementPlan> {
    let mut best: Option<PlacementPlan> = None;
    for d in 0..topology.len() {
        let mut stage_compute_ns = Vec::with_capacity(pipeline.len());
        let mut ok = true;
        for p in pipeline {
            match p.compute_ns(topology.device(d)) {
                Some(c) => stage_compute_ns.push(c),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            continue;
        }
        let total: f64 = stage_compute_ns.iter().sum();
        if best.as_ref().is_none_or(|b| total < b.total_ns) {
            best = Some(PlacementPlan {
                assignments: vec![d; pipeline.len()],
                stage_transfer_ns: vec![0.0; pipeline.len()],
                stage_compute_ns,
                total_ns: total,
            });
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::OperatorClass::*;

    /// The Figure 2-shaped pipeline: scan → filter → inference → similarity
    /// → join → aggregate.
    fn pipeline() -> Vec<OperatorProfile> {
        vec![
            OperatorProfile::new(Scan, 1e8, 1 << 30, 1 << 28),
            OperatorProfile::new(Filter, 5e7, 1 << 28, 1 << 26),
            OperatorProfile::new(ModelInference, 5e12, 1 << 26, 1 << 24),
            OperatorProfile::new(SimilaritySearch, 1e11, 1 << 24, 1 << 22),
            OperatorProfile::new(HashJoin, 1e9, 1 << 22, 1 << 22),
            OperatorProfile::new(Aggregate, 1e8, 1 << 22, 1 << 16),
        ]
    }

    #[test]
    fn heavy_inference_lands_on_accelerator() {
        let t = Topology::cpu_gpu_tpu();
        let plan = place_pipeline(&pipeline(), &t).unwrap();
        // Stage 2 (inference) must be on GPU or TPU.
        let kind = t.device(plan.assignments[2]).kind;
        assert_ne!(kind, crate::device::DeviceKind::Cpu, "plan: {:?}", plan.assignments);
        // The join can go to the GPU (large enough to amortize launch, per
        // the HetExchange line of work) but never to the TPU, which cannot
        // run relational operators at all.
        let join_kind = t.device(plan.assignments[4]).kind;
        assert_ne!(join_kind, crate::device::DeviceKind::Tpu);
    }

    #[test]
    fn tiny_relational_pipeline_stays_on_cpu() {
        // Launch overhead dominates small operators: the whole plan should
        // avoid accelerators.
        let t = Topology::cpu_gpu_tpu();
        let tiny = vec![
            OperatorProfile::new(Scan, 1e5, 1 << 16, 1 << 14),
            OperatorProfile::new(Filter, 1e4, 1 << 14, 1 << 12),
            OperatorProfile::new(HashJoin, 1e5, 1 << 12, 1 << 12),
        ];
        let plan = place_pipeline(&tiny, &t).unwrap();
        for &d in &plan.assignments {
            assert_eq!(t.device(d).kind, crate::device::DeviceKind::Cpu, "plan {:?}", plan.assignments);
        }
    }

    #[test]
    fn accelerator_beats_cpu_only() {
        let cpu_plan = place_pipeline(&pipeline(), &Topology::cpu_only()).unwrap();
        let het_plan = place_pipeline(&pipeline(), &Topology::cpu_gpu_tpu()).unwrap();
        assert!(
            het_plan.total_ns < cpu_plan.total_ns / 2.0,
            "het {} vs cpu {}",
            het_plan.total_ns,
            cpu_plan.total_ns
        );
    }

    #[test]
    fn fast_interconnect_helps() {
        let slow = place_pipeline(&pipeline(), &Topology::cpu_gpu_tpu()).unwrap();
        let fast = place_pipeline(&pipeline(), &Topology::cpu_gpu_tpu_fast()).unwrap();
        assert!(fast.total_ns <= slow.total_ns);
    }

    #[test]
    fn total_is_sum_of_parts() {
        let t = Topology::cpu_gpu_tpu();
        let plan = place_pipeline(&pipeline(), &t).unwrap();
        let sum: f64 = plan
            .stage_compute_ns
            .iter()
            .chain(plan.stage_transfer_ns.iter())
            .sum();
        assert!((sum - plan.total_ns).abs() < 1.0, "{sum} vs {}", plan.total_ns);
    }

    #[test]
    fn single_device_baseline() {
        let t = Topology::cpu_gpu_tpu();
        let single = place_single_device(&pipeline(), &t).unwrap();
        // TPU can't run the whole pipeline; best single device is CPU or GPU.
        assert_ne!(t.device(single.assignments[0]).kind, crate::device::DeviceKind::Tpu);
        let optimal = place_pipeline(&pipeline(), &t).unwrap();
        assert!(optimal.total_ns <= single.total_ns);
    }

    #[test]
    fn empty_inputs_rejected() {
        assert!(place_pipeline(&[], &Topology::cpu_only()).is_none());
        assert!(place_pipeline(&pipeline(), &Topology::new()).is_none());
    }

    #[test]
    fn render_mentions_devices() {
        let t = Topology::cpu_gpu();
        let plan = place_pipeline(&pipeline(), &t).unwrap();
        let s = plan.render(&t);
        assert!(s.contains("total:"));
        assert!(s.contains("stage 0"));
    }
}
