//! `metric_family!` end to end: one table yields the atomics, the
//! snapshot struct, `snapshot()`, the export and the descriptor list.

use cx_obs::{MetricFamily, MetricKind, MetricsSnapshot};
use std::sync::atomic::Ordering;

cx_obs::metric_family! {
    /// Cache counters.
    #[derive(Debug, Default, PartialEq)]
    pub struct CacheStats, counters pub CacheCounters {
        /// Lookups served.
        hits: counter "cache_hits_total" "Lookups served",
        /// Lookups that found nothing.
        misses: counter "cache_misses_total" "Lookups that found nothing",
        /// Largest batch seen.
        max_batch: gauge "cache_max_batch" "Largest batch",
    }
    supplied {
        /// Entries resident.
        len: usize => gauge "cache_len" "Entries resident",
        /// Carried on the snapshot, not exported.
        owner: &'static str,
    }
    derived { hit_rate: gauge "cache_hit_rate" "Hits over lookups", }
}

impl CacheStats {
    fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses) as f64
    }
}

cx_obs::metric_family! {
    /// A family with neither optional block.
    #[derive(Debug, Default)]
    struct PlainStats, counters PlainCounters {
        /// Events seen.
        events: counter "plain_events_total" "Events seen",
    }
}

#[test]
fn one_table_generates_atomics_snapshot_export_and_descriptors() {
    let live = CacheCounters::default();
    live.hits.fetch_add(3, Ordering::Relaxed);
    live.misses.fetch_add(1, Ordering::Relaxed);
    live.max_batch.fetch_max(7, Ordering::Relaxed);
    let stats = live.snapshot(4, "a");
    assert_eq!(
        stats,
        CacheStats {
            hits: 3,
            misses: 1,
            max_batch: 7,
            len: 4,
            owner: "a"
        }
    );

    // Descriptors: first block, exported supplied fields, derived gauges.
    let names: Vec<&str> = CacheStats::DESCRIPTORS.iter().map(|d| d.name).collect();
    assert_eq!(
        names,
        [
            "cache_hits_total",
            "cache_misses_total",
            "cache_max_batch",
            "cache_len",
            "cache_hit_rate"
        ]
    );
    let kinds: Vec<MetricKind> = CacheStats::DESCRIPTORS.iter().map(|d| d.kind).collect();
    assert_eq!(kinds[0], MetricKind::Counter);
    assert!(kinds[2..].iter().all(|k| *k == MetricKind::Gauge));
    assert_eq!(CacheStats::DESCRIPTORS[0].help, "Lookups served");

    // One sample per descriptor, same order, under the caller's labels.
    let mut m = MetricsSnapshot::new();
    stats.export(&[("shard", "0")], &mut m);
    assert_eq!(m.metrics().len(), names.len());
    for (sample, desc) in m.metrics().iter().zip(CacheStats::DESCRIPTORS) {
        assert_eq!(sample.name, desc.name);
        assert_eq!(sample.help, desc.help);
        assert_eq!(sample.labels, [("shard".to_string(), "0".to_string())]);
    }
    assert_eq!(m.value("cache_hits_total"), Some(3.0));
    assert_eq!(m.value("cache_len"), Some(4.0));
    assert_eq!(m.value("cache_hit_rate"), Some(0.75));
    let text = m.to_prometheus();
    let parsed = cx_obs::promparse::parse(&text).expect("generated exposition parses");
    assert_eq!(
        parsed.value("cache_max_batch", &[("shard", "0")]),
        Some(7.0)
    );
    assert!(text.contains("# TYPE cache_hits_total counter"), "{text}");
    assert!(text.contains("# TYPE cache_len gauge"), "{text}");
}

#[test]
fn optional_blocks_can_be_omitted() {
    let live = PlainCounters::default();
    live.events.fetch_add(2, Ordering::Relaxed);
    let stats = live.snapshot();
    assert_eq!(stats.events, 2);
    assert_eq!(PlainStats::DESCRIPTORS.len(), 1);
    let mut m = MetricsSnapshot::new();
    stats.export(&[], &mut m);
    assert_eq!(m.value("plain_events_total"), Some(2.0));
}
