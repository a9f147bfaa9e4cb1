//! Deterministic, serializable captures of a [`MetricsRegistry`].
//!
//! [`MetricsRegistry`]: crate::MetricsRegistry

use serde::{Deserialize, Serialize};

/// Canonical key of one instrument: `name` alone when unlabeled,
/// otherwise `name{label=value,…}` with the labels sorted by label name.
/// Label names and values must not contain `{`, `}`, `,` or `=` — the
/// key is the identity, so the rendering must be injective.
pub fn metric_key(name: &str, labels: &[(&str, &str)]) -> String {
    debug_assert!(
        labels
            .iter()
            .flat_map(|(k, v)| [k, v])
            .all(|s| !s.contains(['{', '}', ',', '='])),
        "label parts must not contain key syntax"
    );
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort_unstable();
    let body: Vec<String> = sorted.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{name}{{{}}}", body.join(","))
}

/// One counter in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterEntry {
    /// Canonical metric key (see [`metric_key`]).
    pub key: String,
    /// Counter value at capture time.
    pub value: u64,
}

/// One gauge in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeEntry {
    /// Canonical metric key (see [`metric_key`]).
    pub key: String,
    /// Gauge value at capture time.
    pub value: u64,
}

/// One histogram in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramEntry {
    /// Canonical metric key (see [`metric_key`]).
    pub key: String,
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observation (0 when `count == 0`).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Power-of-two buckets; `buckets[i]` counts observations of bit
    /// length `i` (see [`HIST_BUCKETS`](crate::HIST_BUCKETS)).
    pub buckets: Vec<u64>,
}

/// A point-in-time capture of every instrument in a registry.
///
/// Entries are sorted by key, so two snapshots of registries holding the
/// same values are structurally — and after JSON encoding, byte-for-byte
/// — identical regardless of registration order or thread interleaving.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All counters, key-sorted.
    pub counters: Vec<CounterEntry>,
    /// All gauges, key-sorted.
    pub gauges: Vec<GaugeEntry>,
    /// All histograms, key-sorted.
    pub histograms: Vec<HistogramEntry>,
}

impl MetricsSnapshot {
    /// Value of the counter with the given canonical key.
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters.iter().find(|e| e.key == key).map(|e| e.value)
    }

    /// Value of the gauge with the given canonical key.
    pub fn gauge(&self, key: &str) -> Option<u64> {
        self.gauges.iter().find(|e| e.key == key).map(|e| e.value)
    }

    /// The histogram with the given canonical key.
    pub fn histogram(&self, key: &str) -> Option<&HistogramEntry> {
        self.histograms.iter().find(|e| e.key == key)
    }

    /// Pretty-printed JSON rendering (the `--metrics-json` file format).
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot holds only integers and strings")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    #[test]
    fn metric_keys_are_canonical() {
        assert_eq!(metric_key("total", &[]), "total");
        assert_eq!(
            metric_key("stage_ns", &[("stage", "fuse"), ("pipeline", "aligned")]),
            "stage_ns{pipeline=aligned,stage=fuse}",
            "labels sort by name"
        );
        assert_eq!(
            metric_key("stage_ns", &[("pipeline", "aligned"), ("stage", "fuse")]),
            metric_key("stage_ns", &[("stage", "fuse"), ("pipeline", "aligned")]),
        );
    }

    #[test]
    fn snapshot_is_key_sorted_and_json_deterministic() {
        let mk = |order_flip: bool| {
            let reg = MetricsRegistry::new();
            let names = if order_flip {
                ["zeta", "alpha"]
            } else {
                ["alpha", "zeta"]
            };
            for n in names {
                reg.counter(n, &[]).add(7);
            }
            reg.gauge("g", &[("kernel", "avx2")]).set(3);
            reg.snapshot()
        };
        let (a, b) = (mk(false), mk(true));
        assert_eq!(a, b);
        assert_eq!(a.to_json_pretty(), b.to_json_pretty());
        assert_eq!(a.counters[0].key, "alpha");
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let reg = MetricsRegistry::new();
        reg.counter("c", &[("stage", "peel")]).add(9);
        reg.gauge("g", &[]).set(u64::MAX);
        reg.histogram("h", &[]).observe(1024);
        let snap = reg.snapshot();
        let back: MetricsSnapshot = serde_json::from_str(&snap.to_json_pretty()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.gauge("g"), Some(u64::MAX), "u64 must be exact");
    }
}
