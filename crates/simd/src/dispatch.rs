//! Runtime kernel dispatch: detect once, resolve once, consult everywhere.
//!
//! The f32 kernel family in this crate carries several ISA-specific
//! implementations. Which one runs is decided by a [`KernelDispatch`] —
//! one path enum packed into a global `AtomicU32` — resolved exactly once
//! from CPU feature detection plus the `CX_SIMD` environment override, then
//! read with a relaxed load per *panel* call (never per pair).
//!
//! # The `CX_SIMD` override
//!
//! | value | meaning |
//! |---|---|
//! | `off` / `scalar` | the portable scalar ladder (auto-vectorized) |
//! | `avx2` | AVX2+FMA |
//! | `avx512` | AVX-512F |
//! | `neon` | NEON (aarch64 only) |
//! | `native` / `auto` / unset | the best path the host supports |
//!
//! An unknown value or a mode the host cannot run falls back to `native`
//! with a one-time warning on stderr — a typo in an env var must never
//! change results silently *or* take a server down.
//!
//! # Per-ISA bit-identity contract
//!
//! Each path fixes its accumulation-tree order: blocked ≡ tiled ≡ pairwise
//! under the same active path, but scores may differ in the last bits
//! *across* paths (FMA fuses the multiply-add rounding).
//!
//! Tests force modes through [`force_mode`]; see its doc for the race
//! caveat.

use std::sync::atomic::{AtomicU32, Ordering};

/// Active implementation of the f32 kernel family ([`crate::dot`],
/// [`crate::dot_block`], [`crate::dot_tile_threshold`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum F32Path {
    /// Portable 8-accumulator ladder (LLVM auto-vectorizes it).
    Scalar = 0,
    /// AVX2 + FMA, two 8-lane accumulators per row.
    Avx2 = 1,
    /// AVX-512F, two 16-lane accumulators per row.
    Avx512 = 2,
    /// NEON, four 4-lane accumulators per row (aarch64).
    Neon = 3,
}

impl F32Path {
    /// Short label for EXPLAIN / stats output.
    pub fn label(&self) -> &'static str {
        match self {
            F32Path::Scalar => "scalar",
            F32Path::Avx2 => "avx2",
            F32Path::Avx512 => "avx512",
            F32Path::Neon => "neon",
        }
    }
}

/// A named dispatch preset, parsed from `CX_SIMD` or forced by tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdMode {
    /// Scalar paths only.
    Off,
    /// AVX2+FMA.
    Avx2,
    /// AVX-512F.
    Avx512,
    /// NEON (aarch64).
    Neon,
    /// Best available (the default).
    Native,
}

impl SimdMode {
    /// Parses a `CX_SIMD` value. Returns `None` for unrecognized strings.
    pub fn parse(s: &str) -> Option<SimdMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "scalar" | "none" => Some(SimdMode::Off),
            "avx2" => Some(SimdMode::Avx2),
            "avx512" => Some(SimdMode::Avx512),
            "neon" => Some(SimdMode::Neon),
            "native" | "auto" | "" => Some(SimdMode::Native),
            _ => None,
        }
    }

    /// The mode's canonical `CX_SIMD` spelling.
    pub fn label(&self) -> &'static str {
        match self {
            SimdMode::Off => "off",
            SimdMode::Avx2 => "avx2",
            SimdMode::Avx512 => "avx512",
            SimdMode::Neon => "neon",
            SimdMode::Native => "native",
        }
    }
}

/// The resolved kernel path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelDispatch {
    /// f32 dot / blocked-kernel path.
    pub f32_path: F32Path,
}

/// Error returned by [`force_mode`] for a mode this host cannot run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsupportedSimdMode(pub SimdMode);

impl std::fmt::Display for UnsupportedSimdMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SIMD mode '{}' is not supported on this host",
            self.0.label()
        )
    }
}

impl std::error::Error for UnsupportedSimdMode {}

const SCALAR: KernelDispatch = KernelDispatch {
    f32_path: F32Path::Scalar,
};

/// Host CPU capabilities relevant to the kernel paths.
#[derive(Debug, Clone, Copy, Default)]
struct HostCaps {
    avx2_fma: bool,
    avx512f: bool,
    neon: bool,
}

#[cfg(target_arch = "x86_64")]
fn host_caps() -> HostCaps {
    HostCaps {
        avx2_fma: is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
        avx512f: is_x86_feature_detected!("avx512f"),
        neon: false,
    }
}

#[cfg(target_arch = "aarch64")]
fn host_caps() -> HostCaps {
    HostCaps {
        neon: std::arch::is_aarch64_feature_detected!("neon"),
        ..HostCaps::default()
    }
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn host_caps() -> HostCaps {
    HostCaps::default()
}

/// Resolves `mode` against host capabilities. `None` means the host cannot
/// run the mode at all (e.g. `avx512` on a pre-AVX-512 machine, `neon` on
/// x86).
fn resolve(mode: SimdMode, caps: HostCaps) -> Option<KernelDispatch> {
    let (supported, f32_path) = match mode {
        SimdMode::Off => (true, F32Path::Scalar),
        SimdMode::Avx2 => (caps.avx2_fma, F32Path::Avx2),
        SimdMode::Avx512 => (caps.avx512f, F32Path::Avx512),
        SimdMode::Neon => (caps.neon, F32Path::Neon),
        SimdMode::Native => {
            let best = if caps.avx512f {
                SimdMode::Avx512
            } else if caps.avx2_fma {
                SimdMode::Avx2
            } else if caps.neon {
                SimdMode::Neon
            } else {
                SimdMode::Off
            };
            return resolve(best, caps);
        }
    };
    supported.then_some(KernelDispatch { f32_path })
}

/// Every [`SimdMode`] this host can actually run, `Off` first — the set the
/// per-ISA property tests sweep.
pub fn available_modes() -> Vec<SimdMode> {
    let caps = host_caps();
    [
        SimdMode::Off,
        SimdMode::Avx2,
        SimdMode::Avx512,
        SimdMode::Neon,
    ]
    .into_iter()
    .filter(|&m| resolve(m, caps).is_some())
    .collect()
}

// Packed as: byte0 = f32 path, byte3 = 0xA5 resolved marker (0 = not yet
// resolved).
static ACTIVE: AtomicU32 = AtomicU32::new(0);
const RESOLVED: u32 = 0xA5 << 24;

fn encode(d: KernelDispatch) -> u32 {
    RESOLVED | (d.f32_path as u32)
}

fn decode(bits: u32) -> KernelDispatch {
    let f32_path = match bits & 0xFF {
        1 => F32Path::Avx2,
        2 => F32Path::Avx512,
        3 => F32Path::Neon,
        _ => F32Path::Scalar,
    };
    KernelDispatch { f32_path }
}

fn init_from_env() -> KernelDispatch {
    let caps = host_caps();
    let requested = std::env::var("CX_SIMD").ok();
    let mode = match requested.as_deref() {
        None => SimdMode::Native,
        Some(s) => match SimdMode::parse(s) {
            Some(m) => m,
            None => {
                eprintln!(
                    "[cx_simd] unrecognized CX_SIMD value '{s}' \
                     (expected off|avx2|avx512|neon|native); using native"
                );
                SimdMode::Native
            }
        },
    };
    match resolve(mode, caps) {
        Some(d) => d,
        None => {
            eprintln!(
                "[cx_simd] CX_SIMD={} is not supported on this host; using native",
                mode.label()
            );
            resolve(SimdMode::Native, caps).unwrap_or(SCALAR)
        }
    }
}

impl KernelDispatch {
    /// The active dispatch: resolved once from CPU detection and the
    /// `CX_SIMD` override, then a relaxed atomic load. Kernels consult it
    /// once per panel call.
    #[inline]
    pub fn active() -> KernelDispatch {
        let bits = ACTIVE.load(Ordering::Relaxed);
        if bits & RESOLVED != 0 {
            return decode(bits);
        }
        let d = init_from_env();
        // A racing first call resolves to the same value; last store wins
        // harmlessly.
        ACTIVE.store(encode(d), Ordering::Relaxed);
        d
    }

    /// What `native` would resolve to on this host, ignoring the override.
    pub fn detected() -> KernelDispatch {
        resolve(SimdMode::Native, host_caps()).unwrap_or(SCALAR)
    }

    /// One-line human-readable summary, e.g. `f32=avx512`.
    pub fn report(&self) -> String {
        format!("f32={}", self.f32_path.label())
    }
}

/// Forces the active dispatch to `mode` (for tests and benchmarks), or
/// returns [`UnsupportedSimdMode`] if the host cannot run it.
///
/// Forcing is process-global: concurrent tests that *measure* kernel bits
/// must serialize around it (the in-tree suites share one mutex per test
/// binary and restore `Native` when done). Production code never calls
/// this.
pub fn force_mode(mode: SimdMode) -> Result<KernelDispatch, UnsupportedSimdMode> {
    let d = resolve(mode, host_caps()).ok_or(UnsupportedSimdMode(mode))?;
    ACTIVE.store(encode(d), Ordering::Relaxed);
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_covers_documented_values() {
        assert_eq!(SimdMode::parse("off"), Some(SimdMode::Off));
        assert_eq!(SimdMode::parse("SCALAR"), Some(SimdMode::Off));
        assert_eq!(SimdMode::parse("avx2"), Some(SimdMode::Avx2));
        assert_eq!(SimdMode::parse("avx512"), Some(SimdMode::Avx512));
        assert_eq!(SimdMode::parse("neon"), Some(SimdMode::Neon));
        assert_eq!(SimdMode::parse(" native "), Some(SimdMode::Native));
        assert_eq!(SimdMode::parse(""), Some(SimdMode::Native));
        assert_eq!(SimdMode::parse("sse9"), None);
    }

    #[test]
    fn encode_decode_roundtrips() {
        for f32_path in [
            F32Path::Scalar,
            F32Path::Avx2,
            F32Path::Avx512,
            F32Path::Neon,
        ] {
            let d = KernelDispatch { f32_path };
            assert_eq!(decode(encode(d)), d);
        }
    }

    #[test]
    fn off_is_always_available_and_scalar() {
        let modes = available_modes();
        assert_eq!(modes[0], SimdMode::Off);
        assert_eq!(resolve(SimdMode::Off, host_caps()), Some(SCALAR));
    }

    #[test]
    fn native_resolves_and_reports() {
        let d = KernelDispatch::detected();
        let r = d.report();
        assert_eq!(r, format!("f32={}", d.f32_path.label()));
    }

    #[test]
    fn unsupported_mode_is_typed() {
        // At most one of neon/avx512 can be native to any host; probing an
        // impossible one exercises the error without assuming the host ISA.
        let impossible = if cfg!(target_arch = "x86_64") {
            SimdMode::Neon
        } else {
            SimdMode::Avx512
        };
        let err = force_mode(impossible).unwrap_err();
        assert_eq!(err, UnsupportedSimdMode(impossible));
        assert!(err.to_string().contains("not supported"));
        // Restore the default for any test that runs after us.
        force_mode(SimdMode::Native).unwrap();
    }
}
