//! Runtime kernel dispatch: detect once, resolve once, consult everywhere.
//!
//! The kernel families in this crate each carry several ISA-specific
//! implementations. Which one runs is decided by a [`KernelDispatch`] —
//! three path enums packed into one global `AtomicU32` — resolved exactly
//! once from CPU feature detection plus the `CX_SIMD` environment override,
//! then read with a relaxed load per *panel* call (never per pair).
//!
//! # The `CX_SIMD` override
//!
//! | value | meaning |
//! |---|---|
//! | `off` / `scalar` | portable scalar paths only (today's auto-vectorized code) |
//! | `avx2` | AVX2+FMA f32, F16C f16, `vpmovsxbw`+`vpmaddwd` int8 |
//! | `vnni` | like `avx2` but int8 through 256-bit `vpdpbusd` |
//! | `avx512` | AVX-512F f32/f16, 512-bit `vpdpbusd` int8 (best available below that) |
//! | `neon` | NEON f32/int8 (aarch64 only; f16 stays scalar) |
//! | `native` / `auto` / unset | best paths the host supports |
//!
//! An unknown value or a mode the host cannot run falls back to `native`
//! with a one-time warning on stderr — a typo in an env var must never
//! change results silently *or* take a server down.
//!
//! # Per-ISA bit-identity contract
//!
//! * **f32** paths fix their accumulation-tree order *per ISA*: blocked ≡
//!   tiled ≡ pairwise under the same active path, but scores may differ
//!   in the last bits *across* paths (FMA fuses the multiply-add rounding).
//! * **f16** paths are bit-identical *across* ISAs: hardware `vcvtph2ps`
//!   is the same IEEE conversion the software path performs, and every
//!   path runs the same two-bank 16-lane fused multiply-add order
//!   (software `f32::mul_add` == hardware `vfmadd`).
//! * **int8** paths are bit-identical *across* ISAs: the accumulator is
//!   exact `i32`, so lane count cannot change the sum.
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

/// Active implementation of the f16 kernel family ([`crate::dot_f16`],
/// [`crate::dot_block_f16`], the slice converters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum F16Path {
    /// Software bit-twiddling conversion per element.
    Scalar = 0,
    /// Hardware `vcvtph2ps`/`vcvtps2ph` through 128/256-bit registers.
    F16cAvx2 = 1,
    /// Hardware conversion widened to 512-bit registers.
    F16cAvx512 = 2,
}

/// Active implementation of the int8 kernel family
/// ([`crate::dot_int8_i32`], [`crate::dot_block_int8`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Int8Path {
    /// Portable 4-accumulator integer ladder.
    Scalar = 0,
    /// `vpmovsxbw` + `vpmaddwd` + `vpaddd` (exact i32, AVX2).
    Avx2 = 1,
    /// 256-bit `vpdpbusd` (AVX-VNNI or AVX512-VNNI+VL).
    Vnni256 = 2,
    /// 512-bit `vpdpbusd` (AVX512-VNNI).
    Vnni512 = 3,
    /// `vmull_s8` + `vpadalq_s16` (exact i32, aarch64).
    Neon = 4,
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

impl F16Path {
    /// Short label for EXPLAIN / stats output.
    pub fn label(&self) -> &'static str {
        match self {
            F16Path::Scalar => "scalar",
            F16Path::F16cAvx2 => "f16c+avx2",
            F16Path::F16cAvx512 => "f16c+avx512",
        }
    }
}

impl Int8Path {
    /// Short label for EXPLAIN / stats output.
    pub fn label(&self) -> &'static str {
        match self {
            Int8Path::Scalar => "scalar",
            Int8Path::Avx2 => "avx2",
            Int8Path::Vnni256 => "vnni256",
            Int8Path::Vnni512 => "vnni512",
            Int8Path::Neon => "neon",
        }
    }
}

/// A named dispatch preset, parsed from `CX_SIMD` or forced by tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdMode {
    /// Scalar paths only.
    Off,
    /// AVX2-class paths (AVX2+FMA f32, F16C f16, `vpmaddwd` int8).
    Avx2,
    /// AVX2-class paths with 256-bit `vpdpbusd` int8.
    Vnni,
    /// AVX-512-class paths.
    Avx512,
    /// NEON paths (aarch64).
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
            "vnni" => Some(SimdMode::Vnni),
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
            SimdMode::Vnni => "vnni",
            SimdMode::Avx512 => "avx512",
            SimdMode::Neon => "neon",
            SimdMode::Native => "native",
        }
    }
}

/// The resolved kernel paths, one per family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelDispatch {
    /// f32 dot / blocked-kernel path.
    pub f32_path: F32Path,
    /// f16 conversion + dot path.
    pub f16_path: F16Path,
    /// int8 integer-accumulate path.
    pub int8_path: Int8Path,
}

/// Error returned by [`force_mode`] for a mode this host cannot run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsupportedSimdMode(pub SimdMode);

impl std::fmt::Display for UnsupportedSimdMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SIMD mode '{}' is not supported on this host", self.0.label())
    }
}

impl std::error::Error for UnsupportedSimdMode {}

const SCALAR: KernelDispatch = KernelDispatch {
    f32_path: F32Path::Scalar,
    f16_path: F16Path::Scalar,
    int8_path: Int8Path::Scalar,
};

/// Host CPU capabilities relevant to the kernel families.
#[derive(Debug, Clone, Copy, Default)]
struct HostCaps {
    avx2_fma: bool,
    f16c: bool,
    avx512f: bool,
    vnni256: bool,
    vnni512: bool,
    neon: bool,
}

#[cfg(target_arch = "x86_64")]
fn host_caps() -> HostCaps {
    HostCaps {
        avx2_fma: is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
        f16c: is_x86_feature_detected!("f16c"),
        avx512f: is_x86_feature_detected!("avx512f"),
        vnni256: is_x86_feature_detected!("avxvnni")
            || (is_x86_feature_detected!("avx512vnni") && is_x86_feature_detected!("avx512vl")),
        vnni512: is_x86_feature_detected!("avx512vnni"),
        neon: false,
    }
}

#[cfg(target_arch = "aarch64")]
fn host_caps() -> HostCaps {
    HostCaps { neon: std::arch::is_aarch64_feature_detected!("neon"), ..HostCaps::default() }
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn host_caps() -> HostCaps {
    HostCaps::default()
}

/// Resolves `mode` against host capabilities. `None` means the host cannot
/// run the mode at all (e.g. `avx512` on a pre-AVX-512 machine, `neon` on
/// x86).
fn resolve(mode: SimdMode, caps: HostCaps) -> Option<KernelDispatch> {
    match mode {
        SimdMode::Off => Some(SCALAR),
        SimdMode::Avx2 => {
            if !caps.avx2_fma {
                return None;
            }
            Some(KernelDispatch {
                f32_path: F32Path::Avx2,
                f16_path: if caps.f16c { F16Path::F16cAvx2 } else { F16Path::Scalar },
                int8_path: Int8Path::Avx2,
            })
        }
        SimdMode::Vnni => {
            if !(caps.avx2_fma && caps.vnni256) {
                return None;
            }
            Some(KernelDispatch {
                f32_path: F32Path::Avx2,
                f16_path: if caps.f16c { F16Path::F16cAvx2 } else { F16Path::Scalar },
                int8_path: Int8Path::Vnni256,
            })
        }
        SimdMode::Avx512 => {
            if !caps.avx512f {
                return None;
            }
            Some(KernelDispatch {
                f32_path: F32Path::Avx512,
                f16_path: if caps.f16c { F16Path::F16cAvx512 } else { F16Path::Scalar },
                int8_path: if caps.vnni512 {
                    Int8Path::Vnni512
                } else if caps.vnni256 {
                    Int8Path::Vnni256
                } else if caps.avx2_fma {
                    Int8Path::Avx2
                } else {
                    Int8Path::Scalar
                },
            })
        }
        SimdMode::Neon => {
            if !caps.neon {
                return None;
            }
            Some(KernelDispatch {
                f32_path: F32Path::Neon,
                // f16 stays software on aarch64: the fp16 vector-convert
                // intrinsics are not yet stable.
                f16_path: F16Path::Scalar,
                int8_path: Int8Path::Neon,
            })
        }
        SimdMode::Native => {
            let best = if caps.avx512f {
                SimdMode::Avx512
            } else if caps.avx2_fma && caps.vnni256 {
                SimdMode::Vnni
            } else if caps.avx2_fma {
                SimdMode::Avx2
            } else if caps.neon {
                SimdMode::Neon
            } else {
                SimdMode::Off
            };
            resolve(best, caps)
        }
    }
}

/// Resolves `mode` against this host's capabilities *without* touching the
/// active dispatch — the side-effect-free sibling of [`force_mode`], for
/// code (tier-selection tests, planners) that wants to reason about a mode
/// it is not running under. `None` means the host cannot run the mode.
pub fn resolve_mode(mode: SimdMode) -> Option<KernelDispatch> {
    resolve(mode, host_caps())
}

/// Every [`SimdMode`] this host can actually run, `Off` first — the set the
/// per-ISA property tests sweep.
pub fn available_modes() -> Vec<SimdMode> {
    let caps = host_caps();
    [SimdMode::Off, SimdMode::Avx2, SimdMode::Vnni, SimdMode::Avx512, SimdMode::Neon]
        .into_iter()
        .filter(|&m| resolve(m, caps).is_some())
        .collect()
}

// Packed as: byte0 = f32 path, byte1 = f16 path, byte2 = int8 path,
// byte3 = 0xA5 resolved marker (0 = not yet resolved).
static ACTIVE: AtomicU32 = AtomicU32::new(0);
const RESOLVED: u32 = 0xA5 << 24;

fn encode(d: KernelDispatch) -> u32 {
    RESOLVED | (d.f32_path as u32) | ((d.f16_path as u32) << 8) | ((d.int8_path as u32) << 16)
}

fn decode(bits: u32) -> KernelDispatch {
    let f32_path = match bits & 0xFF {
        1 => F32Path::Avx2,
        2 => F32Path::Avx512,
        3 => F32Path::Neon,
        _ => F32Path::Scalar,
    };
    let f16_path = match (bits >> 8) & 0xFF {
        1 => F16Path::F16cAvx2,
        2 => F16Path::F16cAvx512,
        _ => F16Path::Scalar,
    };
    let int8_path = match (bits >> 16) & 0xFF {
        1 => Int8Path::Avx2,
        2 => Int8Path::Vnni256,
        3 => Int8Path::Vnni512,
        4 => Int8Path::Neon,
        _ => Int8Path::Scalar,
    };
    KernelDispatch { f32_path, f16_path, int8_path }
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
                     (expected off|avx2|vnni|avx512|neon|native); using native"
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

    /// Whether the f16 kernels run hardware conversion (`vcvtph2ps`). The
    /// optimizer's tier selection keys off this: the software-conversion
    /// f16 path is a measured ~15× *loss* versus f32, so the f16 tier is
    /// only honest when this is true.
    pub fn f16_hardware(&self) -> bool {
        self.f16_path != F16Path::Scalar
    }

    /// One-line human-readable summary, e.g.
    /// `f32=avx512 f16=f16c+avx512 int8=vnni512`.
    pub fn report(&self) -> String {
        format!(
            "f32={} f16={} int8={}",
            self.f32_path.label(),
            self.f16_path.label(),
            self.int8_path.label()
        )
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
        assert_eq!(SimdMode::parse("vnni"), Some(SimdMode::Vnni));
        assert_eq!(SimdMode::parse("avx512"), Some(SimdMode::Avx512));
        assert_eq!(SimdMode::parse("neon"), Some(SimdMode::Neon));
        assert_eq!(SimdMode::parse(" native "), Some(SimdMode::Native));
        assert_eq!(SimdMode::parse(""), Some(SimdMode::Native));
        assert_eq!(SimdMode::parse("sse9"), None);
    }

    #[test]
    fn encode_decode_roundtrips() {
        for f32_path in [F32Path::Scalar, F32Path::Avx2, F32Path::Avx512, F32Path::Neon] {
            for f16_path in [F16Path::Scalar, F16Path::F16cAvx2, F16Path::F16cAvx512] {
                for int8_path in [
                    Int8Path::Scalar,
                    Int8Path::Avx2,
                    Int8Path::Vnni256,
                    Int8Path::Vnni512,
                    Int8Path::Neon,
                ] {
                    let d = KernelDispatch { f32_path, f16_path, int8_path };
                    assert_eq!(decode(encode(d)), d);
                }
            }
        }
    }

    #[test]
    fn off_is_always_available_and_scalar() {
        let modes = available_modes();
        assert_eq!(modes[0], SimdMode::Off);
        assert_eq!(resolve(SimdMode::Off, host_caps()), Some(SCALAR));
        assert!(!SCALAR.f16_hardware());
    }

    #[test]
    fn native_resolves_and_reports() {
        let d = KernelDispatch::detected();
        let r = d.report();
        assert!(r.starts_with("f32="), "{r}");
        assert!(r.contains("f16="), "{r}");
        assert!(r.contains("int8="), "{r}");
    }

    #[test]
    fn unsupported_mode_is_typed() {
        // At most one of neon/avx512 can be native to any host; probing an
        // impossible one exercises the error without assuming the host ISA.
        let impossible = if cfg!(target_arch = "x86_64") { SimdMode::Neon } else { SimdMode::Avx512 };
        let err = force_mode(impossible).unwrap_err();
        assert_eq!(err, UnsupportedSimdMode(impossible));
        assert!(err.to_string().contains("not supported"));
        // Restore the default for any test that runs after us.
        force_mode(SimdMode::Native).unwrap();
    }
}
