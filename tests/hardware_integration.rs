//! Integration: optimized plans placed onto simulated device topologies
//! (the Figure 5 decision problem).

use context_analytics::engine::hardware_bridge::{plan_on_topology, profile_pipeline};
use cx_embed::ModelRegistry;
use cx_exec::logical::{LogicalPlan, SemanticJoinSpec};
use cx_expr::{col, lit};
use cx_hardware::Topology;
use cx_optimizer::{Optimizer, OptimizerConfig, OptimizerContext};
use cx_storage::{DataType, Field, Schema};
use std::sync::Arc;

fn semantic_plan() -> LogicalPlan {
    let products = LogicalPlan::Scan {
        source: "products".into(),
        schema: Arc::new(Schema::new(vec![
            Field::new("name", DataType::Utf8),
            Field::new("price", DataType::Float64),
        ])),
    };
    let kb = LogicalPlan::Scan {
        source: "kb".into(),
        schema: Arc::new(Schema::new(vec![Field::new("label", DataType::Utf8)])),
    };
    LogicalPlan::Filter {
        predicate: col("price").gt(lit(20.0)),
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

fn ctx() -> OptimizerContext {
    OptimizerContext::new(Arc::new(ModelRegistry::new()), OptimizerConfig::all())
}

#[test]
fn optimized_plan_places_on_every_preset() {
    let c = ctx();
    let optimizer = Optimizer::new(&c);
    let (plan, _) = optimizer.optimize(&semantic_plan(), &c);
    let mut last_total = f64::INFINITY;
    // Successively richer topologies never slow the optimal placement.
    for topology in [
        Topology::cpu_only(),
        Topology::cpu_gpu(),
        Topology::cpu_gpu_tpu(),
        Topology::cpu_gpu_tpu_fast(),
    ] {
        let report = plan_on_topology(&plan, &c, &topology, 7).unwrap();
        assert!(report.placement.total_ns <= last_total * 1.0001);
        last_total = report.placement.total_ns;
        // Simulation and estimate agree within jitter bounds.
        let rel =
            (report.simulated.total_ns - report.placement.total_ns).abs() / report.placement.total_ns;
        assert!(rel < 0.15, "rel {rel}");
    }
}

#[test]
fn pipeline_profiles_match_plan_shape() {
    let c = ctx();
    let plan = semantic_plan();
    let profiles = profile_pipeline(&plan, &c);
    assert_eq!(profiles.len(), plan.node_count());
}

