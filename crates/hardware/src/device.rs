//! Device catalog and interconnect topology.

use std::collections::HashMap;

/// Index of a device within a [`Topology`].
pub type DeviceId = usize;

/// Classes of compute devices (Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    Cpu,
    Gpu,
    /// TPU-like inference accelerator.
    Tpu,
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DeviceKind::Cpu => "CPU",
            DeviceKind::Gpu => "GPU",
            DeviceKind::Tpu => "TPU",
        };
        f.write_str(s)
    }
}

/// One compute device.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    pub name: String,
    pub kind: DeviceKind,
    /// Peak compute, in GFLOP/s (simulation constant).
    pub compute_gflops: f64,
    /// Fixed cost to launch work on the device, ns (kernel launch /
    /// runtime dispatch).
    pub launch_overhead_ns: f64,
    /// Device memory capacity, bytes.
    pub memory_bytes: u64,
}

impl Device {
    /// A server-class CPU socket (as in the paper's 2×12-core Xeon).
    pub fn cpu_socket(name: impl Into<String>) -> Device {
        Device {
            name: name.into(),
            kind: DeviceKind::Cpu,
            compute_gflops: 600.0,
            launch_overhead_ns: 0.0,
            memory_bytes: 192 << 30,
        }
    }

    /// A discrete GPU.
    pub fn gpu(name: impl Into<String>) -> Device {
        Device {
            name: name.into(),
            kind: DeviceKind::Gpu,
            compute_gflops: 15_000.0,
            launch_overhead_ns: 10_000.0,
            memory_bytes: 24 << 30,
        }
    }

    /// A TPU-like inference accelerator.
    pub fn tpu(name: impl Into<String>) -> Device {
        Device {
            name: name.into(),
            kind: DeviceKind::Tpu,
            compute_gflops: 45_000.0,
            launch_overhead_ns: 25_000.0,
            memory_bytes: 16 << 30,
        }
    }
}

/// An interconnect link (bidirectional).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// One-way latency in ns.
    pub latency_ns: f64,
}

/// PCIe 4.0 x16-class link.
pub const PCIE: Link = Link { bandwidth_gbps: 25.0, latency_ns: 1_500.0 };
/// NVLink-class fast link.
pub const FAST_LINK: Link = Link { bandwidth_gbps: 300.0, latency_ns: 600.0 };
/// Same-device "transfer" (free).
const LOCAL: Link = Link { bandwidth_gbps: f64::INFINITY, latency_ns: 0.0 };

/// A set of devices with pairwise links.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    devices: Vec<Device>,
    /// Keyed by (min, max) device id.
    links: HashMap<(DeviceId, DeviceId), Link>,
    /// Fallback link for unlisted pairs.
    default_link: Option<Link>,
}

impl Topology {
    /// An empty topology with PCIe as the default interconnect.
    pub fn new() -> Self {
        Topology {
            devices: Vec::new(),
            links: HashMap::new(),
            default_link: Some(PCIE),
        }
    }

    /// Adds a device, returning its id.
    pub fn add_device(&mut self, device: Device) -> DeviceId {
        self.devices.push(device);
        self.devices.len() - 1
    }

    /// Sets the link between two devices.
    pub fn connect(&mut self, a: DeviceId, b: DeviceId, link: Link) {
        let key = (a.min(b), a.max(b));
        self.links.insert(key, link);
    }

    /// The devices in id order.
    pub fn devices(&self) -> &[Device] {
        &self.devices
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

    /// The link between `a` and `b` (LOCAL when `a == b`).
    pub fn link(&self, a: DeviceId, b: DeviceId) -> Link {
        if a == b {
            return LOCAL;
        }
        let key = (a.min(b), a.max(b));
        self.links
            .get(&key)
            .copied()
            .or(self.default_link)
            .unwrap_or(PCIE)
    }

    /// Time to move `bytes` from `a` to `b`, in ns.
    pub fn transfer_ns(&self, bytes: u64, a: DeviceId, b: DeviceId) -> f64 {
        if a == b || bytes == 0 {
            return 0.0;
        }
        let link = self.link(a, b);
        link.latency_ns + bytes as f64 / (link.bandwidth_gbps * 1e9) * 1e9
    }

    // ---- Presets used by the Figure 5 experiment -------------------------

    /// The paper's evaluation box: two CPU sockets.
    pub fn cpu_only() -> Topology {
        let mut t = Topology::new();
        let a = t.add_device(Device::cpu_socket("cpu0"));
        let b = t.add_device(Device::cpu_socket("cpu1"));
        // UPI-class socket interconnect.
        t.connect(a, b, Link { bandwidth_gbps: 60.0, latency_ns: 400.0 });
        t
    }

    /// CPU + one PCIe GPU.
    pub fn cpu_gpu() -> Topology {
        let mut t = Topology::cpu_only();
        let gpu = t.add_device(Device::gpu("gpu0"));
        t.connect(0, gpu, PCIE);
        t.connect(1, gpu, PCIE);
        t
    }

    /// CPU + GPU + TPU-like accelerator (Figure 5's full layout).
    pub fn cpu_gpu_tpu() -> Topology {
        let mut t = Topology::cpu_gpu();
        let tpu = t.add_device(Device::tpu("tpu0"));
        t.connect(0, tpu, PCIE);
        t.connect(1, tpu, PCIE);
        t.connect(2, tpu, PCIE);
        t
    }

    /// Same as [`Topology::cpu_gpu_tpu`] but with NVLink-class links to the
    /// accelerators (the "fast interconnect" variant).
    pub fn cpu_gpu_tpu_fast() -> Topology {
        let mut t = Topology::cpu_gpu_tpu();
        t.connect(0, 2, FAST_LINK);
        t.connect(1, 2, FAST_LINK);
        t.connect(0, 3, FAST_LINK);
        t.connect(1, 3, FAST_LINK);
        t.connect(2, 3, FAST_LINK);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!((slow_ns / 1e6 - 43.0).abs() < 5.0, "got {} ms", slow_ns / 1e6);
    }

    #[test]
    fn links_are_symmetric() {
        let t = Topology::cpu_gpu_tpu_fast();
        assert_eq!(t.transfer_ns(1000, 0, 3), t.transfer_ns(1000, 3, 0));
    }

    #[test]
    fn unlisted_pairs_fall_back_to_default() {
        let mut t = Topology::new();
        let a = t.add_device(Device::cpu_socket("a"));
        let b = t.add_device(Device::gpu("b"));
        // No explicit link: PCIe default applies.
        assert!(t.transfer_ns(1 << 20, a, b) > 0.0);
    }
}
