//! Heterogeneous hardware substrate (Section VI, Figure 5).
//!
//! The paper's Figure 5 poses the provisioning problem — multi-socket CPUs,
//! GPUs, a TPU-like inference device, NVMe and fast NICs, "all
//! interconnected with PCIe or other technologies" — without measuring it
//! (vision paper). This crate builds the decision problem as a calibrated
//! analytical simulator:
//!
//! * [`device`] — device catalog and interconnect topology with transfer
//!   costing,
//! * [`profile`] — operator resource profiles (flops, bytes) and per-device
//!   efficiency factors (a TPU runs inference ~30× a CPU core but cannot
//!   run a hash join),
//! * [`placement`] — dynamic-programming placement of a pipeline onto a
//!   topology, minimizing compute + transfer + launch cost,
//! * [`simulate`] — simulated execution of a placement (the "measured"
//!   column of the Figure 5 experiment).
//!
//! All costs are in abstract nanoseconds; constants are calibrated to
//! publicly known device envelopes and clearly labeled as simulation.

pub mod device;
pub mod placement;
pub mod profile;
pub mod simulate;

pub use device::{Device, DeviceId, DeviceKind, Topology};
pub use placement::{place_pipeline, PlacementPlan};
pub use profile::{OperatorClass, OperatorProfile};
pub use simulate::{simulate_plan, SimulationResult};
