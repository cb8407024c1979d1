//! Operator resource profiles and per-device efficiency.

use crate::device::{Device, DeviceKind};

/// Classes of pipeline operators, each with a distinct device-affinity
/// profile (Section VI: "optimizing novel analytical operators individually
/// for existing or new platforms").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatorClass {
    /// Sequential scan / decode.
    Scan,
    /// Tuple-at-a-time predicate evaluation.
    Filter,
    /// Hash build + probe.
    HashJoin,
    /// Hash aggregation.
    Aggregate,
    /// Sort.
    Sort,
    /// Dense model inference (embedding, CNN detection).
    ModelInference,
    /// Vector similarity scan / index probe.
    SimilaritySearch,
}

impl std::fmt::Display for OperatorClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            OperatorClass::Scan => "Scan",
            OperatorClass::Filter => "Filter",
            OperatorClass::HashJoin => "HashJoin",
            OperatorClass::Aggregate => "Aggregate",
            OperatorClass::Sort => "Sort",
            OperatorClass::ModelInference => "ModelInference",
            OperatorClass::SimilaritySearch => "SimilaritySearch",
        };
        f.write_str(s)
    }
}

impl OperatorClass {
    /// Efficiency of running this class on `kind`, as a fraction of the
    /// device's peak compute. Encodes the qualitative affinities: GPUs
    /// excel at dense kernels, are mediocre on hash-heavy relational
    /// operators; the TPU-like device *only* runs dense math.
    ///
    /// Returns `None` when the device cannot run the class at all.
    pub fn efficiency_on(&self, kind: DeviceKind) -> Option<f64> {
        use DeviceKind::*;
        use OperatorClass::*;
        let eff = match (self, kind) {
            // CPUs run everything at moderate efficiency.
            (Scan, Cpu) => 0.5,
            (Filter, Cpu) => 0.4,
            (HashJoin, Cpu) => 0.25,
            (Aggregate, Cpu) => 0.3,
            (Sort, Cpu) => 0.3,
            (ModelInference, Cpu) => 0.6,
            (SimilaritySearch, Cpu) => 0.6,
            // GPUs: dense kernels great, pointer chasing poor.
            (Scan, Gpu) => 0.6,
            (Filter, Gpu) => 0.5,
            (HashJoin, Gpu) => 0.15,
            (Aggregate, Gpu) => 0.2,
            (Sort, Gpu) => 0.35,
            (ModelInference, Gpu) => 0.8,
            (SimilaritySearch, Gpu) => 0.8,
            // TPU-like: dense math only.
            (ModelInference, Tpu) => 0.9,
            (SimilaritySearch, Tpu) => 0.7,
            (_, Tpu) => return None,
        };
        Some(eff)
    }
}

/// Resource demand of one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatorProfile {
    pub class: OperatorClass,
    /// Total floating-point (or equivalent) work.
    pub flops: f64,
    /// Input bytes the stage must receive from its upstream.
    pub input_bytes: u64,
    /// Output bytes handed to the next stage.
    pub output_bytes: u64,
}

impl OperatorProfile {
    /// A profile with explicit numbers.
    pub fn new(class: OperatorClass, flops: f64, input_bytes: u64, output_bytes: u64) -> Self {
        OperatorProfile { class, flops, input_bytes, output_bytes }
    }

    /// Estimated compute time of this stage on `device`, in ns; `None` if
    /// the device cannot run it.
    pub fn compute_ns(&self, device: &Device) -> Option<f64> {
        let eff = self.class.efficiency_on(device.kind)?;
        let effective = device.compute_gflops * eff * 1e9; // flop/s
        Some(device.launch_overhead_ns + self.flops / effective * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tpu_rejects_relational_work() {
        assert!(OperatorClass::HashJoin.efficiency_on(DeviceKind::Tpu).is_none());
        assert!(OperatorClass::ModelInference.efficiency_on(DeviceKind::Tpu).is_some());
    }

    #[test]
    fn inference_prefers_accelerators() {
        let cpu = Device::cpu_socket("c");
        let gpu = Device::gpu("g");
        let tpu = Device::tpu("t");
        // Large inference batch: 1 Tflop.
        let p = OperatorProfile::new(OperatorClass::ModelInference, 1e12, 1 << 30, 1 << 20);
        let (c, g, t) = (
            p.compute_ns(&cpu).unwrap(),
            p.compute_ns(&gpu).unwrap(),
            p.compute_ns(&tpu).unwrap(),
        );
        assert!(g < c / 10.0, "gpu {g} vs cpu {c}");
        assert!(t < g, "tpu {t} vs gpu {g}");
    }

    #[test]
    fn hash_join_prefers_cpu_over_gpu_at_small_scale() {
        let cpu = Device::cpu_socket("c");
        let gpu = Device::gpu("g");
        // Small join: 1 Mflop-equivalent.
        let p = OperatorProfile::new(OperatorClass::HashJoin, 1e6, 1 << 20, 1 << 20);
        let (c, g) = (p.compute_ns(&cpu).unwrap(), p.compute_ns(&gpu).unwrap());
        // GPU launch overhead dominates tiny ops.
        assert!(c < g, "cpu {c} vs gpu {g}");
    }

    #[test]
    fn launch_overhead_charged() {
        let gpu = Device::gpu("g");
        let p = OperatorProfile::new(OperatorClass::Filter, 0.0, 0, 0);
        assert_eq!(p.compute_ns(&gpu).unwrap(), gpu.launch_overhead_ns);
    }
}
