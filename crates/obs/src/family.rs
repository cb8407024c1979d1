//! Declare-once metric families: a counter family's live atomics, its
//! snapshot struct and every exported metric's name, help and kind are
//! written once, in a [`metric_family!`](crate::metric_family) table.

use crate::export::MetricsSnapshot;

/// How a metric's samples behave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic count.
    Counter,
    /// Instantaneous value.
    Gauge,
    /// Quantile points plus `_sum` / `_count`, and a `_max` gauge.
    Summary,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Summary => "summary",
        }
    }
}

/// Everything declared about one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDesc {
    /// Prometheus-safe name.
    pub name: &'static str,
    /// One-line help text.
    pub help: &'static str,
    /// Sample kind.
    pub kind: MetricKind,
}

/// A snapshot struct generated by [`metric_family!`](crate::metric_family).
pub trait MetricFamily {
    /// Every metric the family exports, in emission order.
    const DESCRIPTORS: &'static [MetricDesc];
    /// Appends one sample per descriptor, in order, under `labels`.
    fn export(&self, labels: &[(&str, &str)], m: &mut MetricsSnapshot);
}

/// Declares one counter family (exercised in `tests/metric_family.rs`):
///
/// ```text
/// cx_obs::metric_family! {
///     /// Docs and derives for the snapshot struct.
///     #[derive(Debug, Default)]
///     pub struct CacheStats, counters pub(crate) CacheCounters {
///         /// Field docs (shared by both structs).
///         hits: counter "cache_hits_total" "Lookups served",
///         max_batch: gauge "cache_max_batch" "Largest batch",
///     }
///     supplied {
///         len: usize => gauge "cache_len" "Entries resident",
///         owner: String,
///     }
///     derived { hit_rate: gauge "cache_hit_rate" "Hits over lookups", }
/// }
/// ```
///
/// generates `CacheCounters` (`Default`; one public `AtomicU64` per entry
/// of the first block, bumped by name on hot paths), `CacheStats` (those
/// entries as `u64`, then the `supplied` fields as typed), a relaxed-load
/// `CacheCounters::snapshot(len, owner)` whose caller supplies the rest,
/// and a [`MetricFamily`] impl that runs first block, `supplied` fields
/// naming a metric, then `derived` gauges (read from the `CacheStats`
/// method of that name). The `supplied` and `derived` blocks are optional.
#[macro_export]
macro_rules! metric_family {
    (@desc $kind:ident $name:literal $help:literal) => {
        $crate::MetricDesc { name: $name, help: $help, kind: $crate::metric_family!(@kind $kind) }
    };
    (@kind counter) => { $crate::MetricKind::Counter };
    (@kind gauge) => { $crate::MetricKind::Gauge };
    (@kind summary) => { $crate::MetricKind::Summary };
    (
        $(#[$meta:meta])*
        $vis:vis struct $Stats:ident, counters $cvis:vis $Counters:ident {
            $($(#[$fmeta:meta])* $field:ident: $kind:ident $name:literal $help:literal,)*
        }
        $(supplied {
            $($(#[$smeta:meta])*
              $sfield:ident: $sty:ty $(=> $skind:ident $sname:literal $shelp:literal)?,)*
        })?
        $(derived { $($dfield:ident: $dkind:ident $dname:literal $dhelp:literal,)* })?
    ) => {
        $(#[$meta])*
        $vis struct $Stats {
            $($(#[$fmeta])* pub $field: u64,)*
            $($($(#[$smeta])* pub $sfield: $sty,)*)?
        }

        #[doc = concat!("The live atomics behind [`", stringify!($Stats), "`].")]
        #[derive(Default)]
        $cvis struct $Counters {
            $($(#[$fmeta])* pub $field: ::std::sync::atomic::AtomicU64,)*
        }

        impl $Counters {
            /// Loads every counter (relaxed) into a snapshot; the owner
            /// supplies the fields that are not atomics.
            #[allow(clippy::too_many_arguments)]
            $cvis fn snapshot(&self $($(, $sfield: $sty)*)?) -> $Stats {
                $Stats {
                    $($field: self.$field.load(::std::sync::atomic::Ordering::Relaxed),)*
                    $($($sfield,)*)?
                }
            }
        }

        impl $crate::MetricFamily for $Stats {
            const DESCRIPTORS: &'static [$crate::MetricDesc] = &[
                $($crate::metric_family!(@desc $kind $name $help),)*
                $($($($crate::metric_family!(@desc $skind $sname $shelp),)?)*)?
                $($($crate::metric_family!(@desc $dkind $dname $dhelp),)*)?
            ];
            fn export(&self, labels: &[(&str, &str)], m: &mut $crate::MetricsSnapshot) {
                $(m.$kind($name, $help, labels, self.$field as _);)*
                $($($(m.$skind($sname, $shelp, labels, self.$sfield as _);)?)*)?
                $($(m.$dkind($dname, $dhelp, labels, self.$dfield() as _);)*)?
            }
        }
    };
}

/// Declares standalone [`MetricDesc`] constants (metrics sampled from live
/// structures) as [`metric_family!`] entries: `[pub] NAME: kind "name" "help",`.
#[macro_export]
macro_rules! metric_descs {
    ($($(#[$meta:meta])* $vis:vis $NAME:ident: $kind:ident $name:literal $help:literal,)*) => {
        $($(#[$meta])* $vis const $NAME: $crate::MetricDesc =
            $crate::metric_family!(@desc $kind $name $help);)*
    };
}
