//! Timing with honest sub-sample extrapolation.

use std::time::{Duration, Instant};

/// The outcome of measuring one experiment rung.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// Seconds for the (possibly sub-sampled) execution.
    pub measured_secs: f64,
    /// Seconds scaled to the full problem size.
    pub full_secs: f64,
    /// Whether the value was extrapolated from a subsample.
    pub extrapolated: bool,
}

impl Measured {
    /// Renders the value with an extrapolation marker.
    pub fn render(&self) -> String {
        if self.extrapolated {
            format!("{:>12.4}*", self.full_secs)
        } else {
            format!("{:>12.4} ", self.full_secs)
        }
    }

    /// log10 of full seconds (the paper's Figure 4 axis).
    pub fn log10(&self) -> f64 {
        self.full_secs.max(1e-12).log10()
    }
}

/// Times `f` once.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Measures a quadratic-cost rung: runs `f(n_sub)` and scales by
/// `(n_full / n_sub)²` when `n_sub < n_full`.
pub fn measure_or_extrapolate(n_full: usize, n_sub: usize, f: impl FnOnce(usize)) -> Measured {
    let n_sub = n_sub.min(n_full);
    let ((), elapsed) = time_once(|| f(n_sub));
    let measured_secs = elapsed.as_secs_f64();
    let ratio = (n_full as f64 / n_sub as f64).powi(2);
    Measured {
        measured_secs,
        full_secs: measured_secs * ratio,
        extrapolated: n_sub < n_full,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_extrapolation_at_full_size() {
        let m = measure_or_extrapolate(10, 10, |_| {});
        assert!(!m.extrapolated);
        assert_eq!(m.measured_secs, m.full_secs);
    }

    #[test]
    fn quadratic_scaling() {
        let m = measure_or_extrapolate(100, 10, |_| std::thread::sleep(Duration::from_millis(2)));
        assert!(m.extrapolated);
        let ratio = m.full_secs / m.measured_secs;
        assert!((ratio - 100.0).abs() < 1.0, "ratio {ratio}");
    }

    #[test]
    fn log_axis() {
        let m = Measured {
            measured_secs: 10.0,
            full_secs: 1000.0,
            extrapolated: false,
        };
        assert!((m.log10() - 3.0).abs() < 1e-9);
    }
}
