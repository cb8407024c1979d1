//! Figure 5's placement model: an optimized plan, linearized into operator
//! resource profiles, placed stage by stage onto a device topology.
//!
//! The paper's Figure 5 poses the provisioning problem — multi-socket CPUs,
//! GPUs, a TPU-like inference device, "all interconnected with PCIe or
//! other technologies" — without measuring it. This module makes the
//! decision problem concrete:
//!
//! * device presets and links, with transfer costing ([`Topology`]),
//! * per-class device affinities ([`OperatorClass::efficiency_on`]: a TPU
//!   runs inference but cannot run a hash join),
//! * the plan → pipeline linearization ([`profile_pipeline`]), with flop
//!   weights per logical operator,
//! * an exact dynamic program over a linear pipeline minimizing compute +
//!   transfer + launch ([`place_pipeline`]), and the best single-device
//!   baseline ([`place_single_device`]).
//!
//! Every number here is a simulation constant in abstract nanoseconds; no
//! engine decision reads them.

use cx_embed::ModelRegistry;
use cx_exec::logical::{LogicalPlan, SemanticJoinSpec};
use cx_expr::{col, lit};
use cx_optimizer::{estimate_rows, Optimizer, OptimizerConfig, OptimizerContext};
use cx_storage::{Column, DataType, Field, Schema, Table, TableStats};
use std::collections::HashMap;
use std::sync::Arc;

/// Index of a device within a [`Topology`].
pub type DeviceId = usize;

/// Classes of compute devices (Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceKind {
    Cpu,
    Gpu,
    /// TPU-like inference accelerator.
    Tpu,
}

/// One compute device.
#[derive(Debug, Clone)]
pub struct Device {
    pub name: String,
    pub kind: DeviceKind,
    /// Peak compute, in GFLOP/s.
    pub compute_gflops: f64,
    /// Fixed cost to launch work on the device, ns (kernel launch /
    /// runtime dispatch).
    pub launch_overhead_ns: f64,
}

impl Device {
    /// A server-class CPU socket (as in the paper's 2×12-core Xeon).
    pub fn cpu_socket(name: &str) -> Device {
        Device {
            name: name.into(),
            kind: DeviceKind::Cpu,
            compute_gflops: 600.0,
            launch_overhead_ns: 0.0,
        }
    }

    /// A discrete GPU.
    pub fn gpu(name: &str) -> Device {
        Device {
            name: name.into(),
            kind: DeviceKind::Gpu,
            compute_gflops: 15_000.0,
            launch_overhead_ns: 10_000.0,
        }
    }

    /// A TPU-like inference accelerator.
    pub fn tpu(name: &str) -> Device {
        Device {
            name: name.into(),
            kind: DeviceKind::Tpu,
            compute_gflops: 45_000.0,
            launch_overhead_ns: 25_000.0,
        }
    }
}

/// An interconnect link (bidirectional).
#[derive(Debug, Clone, Copy)]
pub struct Link {
    /// Bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// One-way latency in ns.
    pub latency_ns: f64,
}

/// PCIe 4.0 x16-class link; also every pair no [`Topology::connect`] named.
pub const PCIE: Link = Link {
    bandwidth_gbps: 25.0,
    latency_ns: 1_500.0,
};
/// NVLink-class fast link.
pub const FAST_LINK: Link = Link {
    bandwidth_gbps: 300.0,
    latency_ns: 600.0,
};

/// A set of devices with pairwise links.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    devices: Vec<Device>,
    /// Keyed by (min, max) device id.
    links: HashMap<(DeviceId, DeviceId), Link>,
}

impl Topology {
    /// Adds a device, returning its id.
    pub fn add_device(&mut self, device: Device) -> DeviceId {
        self.devices.push(device);
        self.devices.len() - 1
    }

    /// Sets the link between two devices.
    pub fn connect(&mut self, a: DeviceId, b: DeviceId, link: Link) {
        self.links.insert((a.min(b), a.max(b)), link);
    }

    /// The device with id `id`.
    pub fn device(&self, id: DeviceId) -> &Device {
        &self.devices[id]
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the topology has no devices.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Time to move `bytes` from `a` to `b`, in ns (free on one device).
    pub fn transfer_ns(&self, bytes: u64, a: DeviceId, b: DeviceId) -> f64 {
        if a == b || bytes == 0 {
            return 0.0;
        }
        let link = self
            .links
            .get(&(a.min(b), a.max(b)))
            .copied()
            .unwrap_or(PCIE);
        link.latency_ns + bytes as f64 / (link.bandwidth_gbps * 1e9) * 1e9
    }

    /// The paper's evaluation box: two CPU sockets.
    pub fn cpu_only() -> Topology {
        let mut t = Topology::default();
        let a = t.add_device(Device::cpu_socket("cpu0"));
        let b = t.add_device(Device::cpu_socket("cpu1"));
        // UPI-class socket interconnect.
        t.connect(
            a,
            b,
            Link {
                bandwidth_gbps: 60.0,
                latency_ns: 400.0,
            },
        );
        t
    }

    /// CPU + one PCIe GPU.
    pub fn cpu_gpu() -> Topology {
        let mut t = Topology::cpu_only();
        t.add_device(Device::gpu("gpu0"));
        t
    }

    /// CPU + GPU + TPU-like accelerator (Figure 5's full layout).
    pub fn cpu_gpu_tpu() -> Topology {
        let mut t = Topology::cpu_gpu();
        t.add_device(Device::tpu("tpu0"));
        t
    }

    /// Same as [`Topology::cpu_gpu_tpu`] but with NVLink-class links to the
    /// accelerators (the "fast interconnect" variant).
    pub fn cpu_gpu_tpu_fast() -> Topology {
        let mut t = Topology::cpu_gpu_tpu();
        for (a, b) in [(0, 2), (1, 2), (0, 3), (1, 3), (2, 3)] {
            t.connect(a, b, FAST_LINK);
        }
        t
    }
}

/// Figure 5's topologies, in order of increasing heterogeneity.
pub fn figure5_presets() -> [(&'static str, Topology); 4] {
    [
        ("2x CPU socket", Topology::cpu_only()),
        ("+ GPU (PCIe)", Topology::cpu_gpu()),
        ("+ GPU + TPU (PCIe)", Topology::cpu_gpu_tpu()),
        ("+ GPU + TPU (fast links)", Topology::cpu_gpu_tpu_fast()),
    ]
}

/// Classes of pipeline operators, each with a distinct device-affinity
/// profile (Section VI: "optimizing novel analytical operators individually
/// for existing or new platforms").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

impl OperatorClass {
    /// Efficiency of running this class on `kind`, as a fraction of the
    /// device's peak compute: GPUs excel at dense kernels and are mediocre
    /// on hash-heavy relational operators; the TPU-like device *only* runs
    /// dense math. `None` when the device cannot run the class at all.
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
#[derive(Debug, Clone, Copy)]
pub struct OperatorProfile {
    pub class: OperatorClass,
    /// Total floating-point (or equivalent) work.
    pub flops: f64,
    /// Output bytes handed to the next stage.
    pub output_bytes: u64,
}

impl OperatorProfile {
    /// A profile with explicit numbers.
    pub fn new(class: OperatorClass, flops: f64, output_bytes: u64) -> Self {
        OperatorProfile {
            class,
            flops,
            output_bytes,
        }
    }

    /// Estimated compute time of this stage on `device`, in ns; `None` if
    /// the device cannot run it.
    pub fn compute_ns(&self, device: &Device) -> Option<f64> {
        let eff = self.class.efficiency_on(device.kind)?;
        let effective = device.compute_gflops * eff * 1e9; // flop/s
        Some(device.launch_overhead_ns + self.flops / effective * 1e9)
    }
}

/// Estimated bytes per row (schema width proxy).
fn row_bytes(plan: &LogicalPlan) -> u64 {
    plan.schema().map(|s| s.len() as u64 * 16).unwrap_or(64)
}

/// Maps a plan node to its operator class and per-row flop weight.
fn classify(plan: &LogicalPlan) -> (OperatorClass, f64) {
    match plan {
        LogicalPlan::Scan { .. } => (OperatorClass::Scan, 4.0),
        LogicalPlan::Filter { .. } => (OperatorClass::Filter, 8.0),
        LogicalPlan::Project { .. } => (OperatorClass::Filter, 4.0),
        LogicalPlan::Join { .. } => (OperatorClass::HashJoin, 80.0),
        LogicalPlan::CrossJoin { .. } => (OperatorClass::HashJoin, 200.0),
        // Semantic operators: inference-dominated, flops per row covers the
        // embedding (dim 100 MACs × subword fan-in) plus kernel work.
        LogicalPlan::SemanticFilter { .. } => (OperatorClass::ModelInference, 60_000.0),
        LogicalPlan::SemanticJoin { .. } => (OperatorClass::SimilaritySearch, 120_000.0),
        LogicalPlan::SemanticGroupBy { .. } => (OperatorClass::SimilaritySearch, 90_000.0),
        LogicalPlan::Aggregate { .. } => (OperatorClass::Aggregate, 40.0),
        LogicalPlan::Sort { .. } => (OperatorClass::Sort, 60.0),
        LogicalPlan::Limit { .. } | LogicalPlan::Distinct { .. } | LogicalPlan::Union { .. } => {
            (OperatorClass::Scan, 2.0)
        }
    }
}

/// Linearizes `plan` into a bottom-up pipeline of operator profiles, sized
/// by the optimizer's cardinality estimates.
///
/// Bushy plans are flattened in post-order — a simplification (the model
/// has a single execution lane), adequate for studying placement
/// trade-offs.
pub fn profile_pipeline(plan: &LogicalPlan, ctx: &OptimizerContext) -> Vec<OperatorProfile> {
    let mut out = Vec::new();
    walk(plan, ctx, &mut out);
    out
}

fn walk(plan: &LogicalPlan, ctx: &OptimizerContext, out: &mut Vec<OperatorProfile>) {
    for child in plan.children() {
        walk(child, ctx, out);
    }
    let rows_out = estimate_rows(plan, ctx).max(1.0);
    let rows_in: f64 = plan
        .children()
        .iter()
        .map(|c| estimate_rows(c, ctx))
        .sum::<f64>()
        .max(1.0);
    let (class, flops_per_row) = classify(plan);
    out.push(OperatorProfile::new(
        class,
        rows_in * flops_per_row,
        (rows_out as u64).saturating_mul(row_bytes(plan)),
    ));
}

/// The result of placing a pipeline.
#[derive(Debug, Clone)]
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

/// Places `pipeline` on `topology` optimally: an exact O(stages × devices²)
/// dynamic program over `compute + inter-stage transfer + launch`. Ties
/// keep the lowest device id.
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
            topology.transfer_ns(
                pipeline[i - 1].output_bytes,
                assignments[i - 1],
                assignments[i],
            )
        });
    }

    Some(PlacementPlan {
        assignments,
        stage_compute_ns,
        stage_transfer_ns,
        total_ns: best,
    })
}

/// The best plan that runs all of `pipeline` on one device (the baseline
/// heterogeneous placement is compared against); `None` when no device can
/// run every stage.
pub fn place_single_device(
    pipeline: &[OperatorProfile],
    topology: &Topology,
) -> Option<PlacementPlan> {
    let mut best: Option<PlacementPlan> = None;
    for d in 0..topology.len() {
        let Some(stage_compute_ns) = pipeline
            .iter()
            .map(|p| p.compute_ns(topology.device(d)))
            .collect::<Option<Vec<f64>>>()
        else {
            continue;
        };
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

/// The Figure 2 query — products semantically joined to a knowledge base's
/// clothes labels, filtered on price — optimized under injected statistics
/// for a 1M-row products table and a 100k-row KB.
pub fn figure2_plan() -> (LogicalPlan, OptimizerContext) {
    let mut ctx = OptimizerContext::new(Arc::new(ModelRegistry::new()), OptimizerConfig::all());
    for (name, rows) in [("products", 1_000_000u64), ("kb", 100_000)] {
        // Compact surrogate tables for statistics (strided values).
        let sample = Table::from_columns(
            Schema::new(vec![
                Field::new("key", DataType::Utf8),
                Field::new("num", DataType::Float64),
            ]),
            vec![
                Column::from_strings((0..1000).map(|i| format!("v{i}"))),
                Column::from_f64((0..1000).map(|i| i as f64).collect()),
            ],
        )
        .expect("surrogate columns match their schema");
        let mut stats = TableStats::compute(&sample).expect("surrogate stats");
        stats.row_count = rows;
        ctx.stats.insert(name.to_string(), stats);
    }
    let (optimized, _) = Optimizer::new(&ctx).optimize(&figure2_query(), &ctx);
    (optimized, ctx)
}

/// The Figure 2 query as written, before optimization.
fn figure2_query() -> LogicalPlan {
    let products = LogicalPlan::Scan {
        source: "products".into(),
        schema: Arc::new(Schema::new(vec![
            Field::new("name", DataType::Utf8),
            Field::new("price", DataType::Float64),
        ])),
    };
    let kb = LogicalPlan::Scan {
        source: "kb".into(),
        schema: Arc::new(Schema::new(vec![
            Field::new("label", DataType::Utf8),
            Field::new("category", DataType::Utf8),
        ])),
    };
    LogicalPlan::Filter {
        predicate: col("price")
            .gt(lit(20.0))
            .and(col("category").eq(lit("clothes"))),
        input: Box::new(LogicalPlan::SemanticJoin {
            left: Box::new(products),
            right: Box::new(kb),
            spec: SemanticJoinSpec {
                left_column: "name".into(),
                right_column: "label".into(),
                model: "m".into(),
                threshold: 0.9,
                score_column: "sim".into(),
            },
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use OperatorClass::*;

    /// A Figure 2-shaped pipeline with explicit sizes: scan → filter →
    /// inference → similarity → join → aggregate.
    fn pipeline() -> Vec<OperatorProfile> {
        vec![
            OperatorProfile::new(Scan, 1e8, 1 << 28),
            OperatorProfile::new(Filter, 5e7, 1 << 26),
            OperatorProfile::new(ModelInference, 5e12, 1 << 24),
            OperatorProfile::new(SimilaritySearch, 1e11, 1 << 22),
            OperatorProfile::new(HashJoin, 1e9, 1 << 22),
            OperatorProfile::new(Aggregate, 1e8, 1 << 16),
        ]
    }

    fn is_semantic(class: OperatorClass) -> bool {
        matches!(class, ModelInference | SimilaritySearch)
    }

    #[test]
    fn figure5_presets_place_as_the_figure_says() {
        let (plan, ctx) = figure2_plan();
        let pipeline = profile_pipeline(&plan, &ctx);
        assert!(pipeline.iter().any(|p| is_semantic(p.class)));
        let mut last_total = f64::INFINITY;
        for (name, t) in figure5_presets() {
            let placed = place_pipeline(&pipeline, &t).unwrap();
            let has_accelerator = (0..t.len()).any(|d| t.device(d).kind != DeviceKind::Cpu);
            for (p, &d) in pipeline.iter().zip(&placed.assignments) {
                let kind = t.device(d).kind;
                if is_semantic(p.class) {
                    assert!(
                        !has_accelerator || kind != DeviceKind::Cpu,
                        "{name}: {p:?} on {kind:?}"
                    );
                } else {
                    assert_ne!(kind, DeviceKind::Tpu, "{name}: {p:?}");
                }
            }
            // Successively richer topologies never slow the optimal placement,
            // which never loses to the best single device.
            assert!(
                placed.total_ns <= last_total,
                "{name}: {} > {last_total}",
                placed.total_ns
            );
            last_total = placed.total_ns;
            let single = place_single_device(&pipeline, &t).unwrap();
            assert!(placed.total_ns <= single.total_ns, "{name}");
        }
    }

    #[test]
    fn pipeline_profile_covers_all_nodes() {
        let (plan, ctx) = figure2_plan();
        let pipeline = profile_pipeline(&plan, &ctx);
        assert_eq!(pipeline.len(), plan.node_count());
        // The semantic join stage dominates flops.
        let max = pipeline
            .iter()
            .max_by(|a, b| a.flops.partial_cmp(&b.flops).unwrap())
            .unwrap();
        assert_eq!(max.class, SimilaritySearch);
    }

    fn bare_ctx() -> OptimizerContext {
        OptimizerContext::new(Arc::new(ModelRegistry::new()), OptimizerConfig::all())
    }

    #[test]
    fn pipeline_profiles_match_plan_shape() {
        let plan = figure2_query();
        let classes: Vec<_> = profile_pipeline(&plan, &bare_ctx())
            .iter()
            .map(|p| p.class)
            .collect();
        assert_eq!(classes.len(), plan.node_count());
        assert_eq!(classes, [Scan, Scan, SimilaritySearch, Filter]); // post-order
    }

    #[test]
    fn optimized_plan_places_on_every_preset() {
        let ctx = bare_ctx();
        let (plan, _) = Optimizer::new(&ctx).optimize(&figure2_query(), &ctx);
        let pipeline = profile_pipeline(&plan, &ctx);
        let mut last_total = f64::INFINITY;
        // Successively richer topologies never slow the optimal placement.
        for (name, t) in figure5_presets() {
            let placed = place_pipeline(&pipeline, &t).unwrap();
            assert!(
                placed.total_ns <= last_total * 1.0001,
                "{name}: {}",
                placed.total_ns
            );
            last_total = placed.total_ns;
        }
    }

    #[test]
    fn heterogeneous_beats_cpu_only_for_semantic_plans() {
        let pipeline = profile_pipeline(&figure2_query(), &bare_ctx());
        let cpu = place_pipeline(&pipeline, &Topology::cpu_only()).unwrap();
        let het = place_pipeline(&pipeline, &Topology::cpu_gpu_tpu()).unwrap();
        assert!(
            het.total_ns < cpu.total_ns,
            "het {} vs cpu {}",
            het.total_ns,
            cpu.total_ns
        );
    }

    #[test]
    fn speedup_reported() {
        let (plan, ctx) = figure2_plan();
        let pipeline = profile_pipeline(&plan, &ctx);
        let t = Topology::cpu_gpu_tpu();
        let placed = place_pipeline(&pipeline, &t).unwrap();
        let speedup = place_single_device(&pipeline, &t).unwrap().total_ns / placed.total_ns;
        // Figure 5's TPU row: CPU relational stages + TPU join beat the GPU.
        assert!(speedup > 2.0, "speedup {speedup}");
    }

    #[test]
    fn presets_have_expected_devices() {
        assert_eq!(Topology::cpu_only().len(), 2);
        assert_eq!(Topology::cpu_gpu().len(), 3);
        assert_eq!(Topology::cpu_gpu_tpu().len(), 4);
        let t = Topology::cpu_gpu_tpu();
        assert_eq!(t.device(2).kind, DeviceKind::Gpu);
        assert_eq!(t.device(3).kind, DeviceKind::Tpu);
    }

    #[test]
    fn local_transfer_is_free() {
        let t = Topology::cpu_gpu();
        assert_eq!(t.transfer_ns(1 << 30, 0, 0), 0.0);
        assert_eq!(t.transfer_ns(0, 0, 2), 0.0);
    }

    #[test]
    fn transfer_scales_with_bytes_and_link() {
        let t = Topology::cpu_gpu_tpu_fast();
        let slow = Topology::cpu_gpu_tpu();
        let bytes = 1u64 << 30; // 1 GiB
        let fast_ns = t.transfer_ns(bytes, 0, 2);
        let slow_ns = slow.transfer_ns(bytes, 0, 2);
        assert!(slow_ns > 5.0 * fast_ns, "slow {slow_ns} vs fast {fast_ns}");
        // 1 GiB over 25 GB/s ≈ 43 ms.
        assert!(
            (slow_ns / 1e6 - 43.0).abs() < 5.0,
            "got {} ms",
            slow_ns / 1e6
        );
    }

    #[test]
    fn links_are_symmetric() {
        let t = Topology::cpu_gpu_tpu_fast();
        assert_eq!(t.transfer_ns(1000, 0, 3), t.transfer_ns(1000, 3, 0));
    }

    #[test]
    fn unlisted_pairs_are_pcie() {
        let mut t = Topology::default();
        let a = t.add_device(Device::cpu_socket("a"));
        let b = t.add_device(Device::gpu("b"));
        let mut linked = t.clone();
        linked.connect(a, b, PCIE);
        assert!(t.transfer_ns(1 << 20, a, b) > 0.0);
        assert_eq!(
            t.transfer_ns(1 << 20, a, b),
            linked.transfer_ns(1 << 20, a, b)
        );
    }

    #[test]
    fn tpu_rejects_relational_work() {
        assert!(HashJoin.efficiency_on(DeviceKind::Tpu).is_none());
        assert!(ModelInference.efficiency_on(DeviceKind::Tpu).is_some());
    }

    #[test]
    fn inference_prefers_accelerators() {
        // Large inference batch: 1 Tflop.
        let p = OperatorProfile::new(ModelInference, 1e12, 1 << 20);
        let c = p.compute_ns(&Device::cpu_socket("c")).unwrap();
        let g = p.compute_ns(&Device::gpu("g")).unwrap();
        let t = p.compute_ns(&Device::tpu("t")).unwrap();
        assert!(g < c / 10.0, "gpu {g} vs cpu {c}");
        assert!(t < g, "tpu {t} vs gpu {g}");
    }

    #[test]
    fn hash_join_prefers_cpu_over_gpu_at_small_scale() {
        // Small join: 1 Mflop-equivalent; GPU launch overhead dominates.
        let p = OperatorProfile::new(HashJoin, 1e6, 1 << 20);
        let c = p.compute_ns(&Device::cpu_socket("c")).unwrap();
        let g = p.compute_ns(&Device::gpu("g")).unwrap();
        assert!(c < g, "cpu {c} vs gpu {g}");
    }

    #[test]
    fn launch_overhead_charged() {
        let gpu = Device::gpu("g");
        let p = OperatorProfile::new(Filter, 0.0, 0);
        assert_eq!(p.compute_ns(&gpu).unwrap(), gpu.launch_overhead_ns);
    }

    #[test]
    fn heavy_inference_lands_on_accelerator() {
        let t = Topology::cpu_gpu_tpu();
        let plan = place_pipeline(&pipeline(), &t).unwrap();
        // Stage 2 (inference) must be on GPU or TPU.
        assert_ne!(
            t.device(plan.assignments[2]).kind,
            DeviceKind::Cpu,
            "plan: {:?}",
            plan.assignments
        );
        // The join can go to the GPU (large enough to amortize launch, per
        // the HetExchange line of work) but never to the TPU, which cannot
        // run relational operators at all.
        assert_ne!(t.device(plan.assignments[4]).kind, DeviceKind::Tpu);
    }

    #[test]
    fn tiny_relational_pipeline_stays_on_cpu() {
        // Launch overhead dominates small operators: the whole plan should
        // avoid accelerators.
        let t = Topology::cpu_gpu_tpu();
        let tiny = vec![
            OperatorProfile::new(Scan, 1e5, 1 << 14),
            OperatorProfile::new(Filter, 1e4, 1 << 12),
            OperatorProfile::new(HashJoin, 1e5, 1 << 12),
        ];
        let plan = place_pipeline(&tiny, &t).unwrap();
        for &d in &plan.assignments {
            assert_eq!(
                t.device(d).kind,
                DeviceKind::Cpu,
                "plan {:?}",
                plan.assignments
            );
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
        assert!(
            (sum - plan.total_ns).abs() < 1.0,
            "{sum} vs {}",
            plan.total_ns
        );
    }

    #[test]
    fn single_device_baseline() {
        let t = Topology::cpu_gpu_tpu();
        let single = place_single_device(&pipeline(), &t).unwrap();
        // TPU can't run the whole pipeline; best single device is CPU or GPU.
        assert_ne!(t.device(single.assignments[0]).kind, DeviceKind::Tpu);
        let optimal = place_pipeline(&pipeline(), &t).unwrap();
        assert!(optimal.total_ns <= single.total_ns);
    }

    #[test]
    fn empty_inputs_rejected() {
        assert!(place_pipeline(&[], &Topology::cpu_only()).is_none());
        assert!(place_pipeline(&pipeline(), &Topology::default()).is_none());
    }
}
