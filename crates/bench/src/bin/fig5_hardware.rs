//! FIGURE 5 — increasing hardware heterogeneity, as a placement problem.
//!
//! The paper's Figure 5 sketches CPUs, GPUs, a TPU-like device, NVMe and
//! InfiniBand without measurements. This binary makes the implied
//! experiment concrete on `cx_bench::placement`'s simulation constants:
//! place the Figure 2 pipeline on each topology and report the estimated
//! time, the transfer budget, the speedup over the best single-device
//! execution and the chosen device per stage. Nothing is measured.
//!
//! Usage: `cargo run --release -p cx-bench --bin fig5_hardware`

use cx_bench::placement::{
    figure2_plan, figure5_presets, place_pipeline, place_single_device, profile_pipeline,
};

fn main() {
    let (plan, ctx) = figure2_plan();
    println!("FIGURE 5 — hardware heterogeneity as a placement problem (simulated)\n");
    println!("pipeline:\n{}", plan.display_indent());

    let pipeline = profile_pipeline(&plan, &ctx);
    println!(
        "{:<26} | {:>11} | {:>11} | {:>9} | placement",
        "topology", "est ms", "transfer ms", "vs single"
    );
    println!("{}", "-".repeat(110));
    for (name, topology) in figure5_presets() {
        let placement = place_pipeline(&pipeline, &topology).expect("placeable");
        let speedup = place_single_device(&pipeline, &topology)
            .map_or(1.0, |single| single.total_ns / placement.total_ns);
        let transfer: f64 = placement.stage_transfer_ns.iter().sum();
        let devices: Vec<&str> = placement
            .assignments
            .iter()
            .map(|&d| topology.device(d).name.as_str())
            .collect();
        println!(
            "{:<26} | {:>11.3} | {:>11.3} | {:>8.2}x | {}",
            name,
            placement.total_ns / 1e6,
            transfer / 1e6,
            speedup,
            devices.join(" -> ")
        );
    }

    println!("\n(shape check: model-heavy stages migrate to accelerators, relational");
    println!(" stages stay CPU-side, faster interconnects shrink the transfer share;");
    println!(" device envelopes are simulation constants — see cx_bench::placement)");
}
