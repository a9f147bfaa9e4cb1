//! Property tests: snapshot JSON round-trips losslessly for arbitrary
//! metric contents.

use crate::{CounterEntry, GaugeEntry, HistogramEntry, MetricsSnapshot, HIST_BUCKETS};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Label-safe metric keys (no `{`, `}`, `,`, `=`), derived from an
/// integer seed — the vendored proptest has no regex string strategies.
fn arb_key() -> impl Strategy<Value = String> {
    (any::<u64>(), 0u32..4).prop_map(|(n, style)| match style {
        0 => format!("metric_{n:x}_total"),
        1 => format!("stage_ns{{pipeline=aligned,stage=s{}}}", n % 16),
        2 => format!("gauge.{}", n % 1000),
        _ => format!("k{n:x}"),
    })
}

fn arb_snapshot() -> impl Strategy<Value = MetricsSnapshot> {
    let scalars = |len| proptest::collection::vec((arb_key(), any::<u64>()), len);
    let hists = proptest::collection::vec(
        (
            arb_key(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(any::<u64>(), HIST_BUCKETS..HIST_BUCKETS + 1),
        ),
        0..4,
    );
    (scalars(0..8), scalars(0..8), hists).prop_map(|(counters, gauges, hists)| {
        // Snapshots are key-sorted with unique keys; a BTreeMap restores
        // both invariants over the raw generated pairs.
        let counters: BTreeMap<String, u64> = counters.into_iter().collect();
        let gauges: BTreeMap<String, u64> = gauges.into_iter().collect();
        let hists: BTreeMap<String, (u64, u64, u64, u64, Vec<u64>)> = hists
            .into_iter()
            .map(|(key, count, sum, min, max, buckets)| (key, (count, sum, min, max, buckets)))
            .collect();
        MetricsSnapshot {
            counters: counters
                .into_iter()
                .map(|(key, value)| CounterEntry { key, value })
                .collect(),
            gauges: gauges
                .into_iter()
                .map(|(key, value)| GaugeEntry { key, value })
                .collect(),
            histograms: hists
                .into_iter()
                .map(|(key, (count, sum, min, max, buckets))| HistogramEntry {
                    key,
                    count,
                    sum,
                    min,
                    max,
                    buckets,
                })
                .collect(),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode → decode is the identity for every snapshot, u64 extremes
    /// included.
    #[test]
    fn snapshot_json_roundtrips(snap in arb_snapshot()) {
        let back: MetricsSnapshot = serde_json::from_str(&snap.to_json_pretty()).unwrap();
        prop_assert_eq!(&back, &snap);
    }
}
