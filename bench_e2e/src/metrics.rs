//! The metric catalogue: every name and unit the benchmark prints.
//! `BENCHMARK.json` lists the same names; a unit test keeps them equal.

pub type Def = (&'static str, &'static str);

/// What a user of the system sees. Printed by the untraced run.
pub const END_TO_END: [Def; 6] = [
    ("setup_s", "s"),
    ("observe_mpps", "Mpkt/s/core"),
    ("verdict_ms_p50", "ms"),
    ("verdict_ms_p90", "ms"),
    ("wire_bytes_per_epoch", "bytes"),
    ("peak_rss_mib", "MiB"),
];

/// Single layers. Printed by the traced run. Counts are per epoch over the
/// count window; times are per epoch over the traced epochs.
pub const PER_LAYER: [Def; 78] = [
    ("collect.packets", "count"),
    ("collect.payload_bytes", "bytes"),
    ("collect.observe_ns_per_pkt", "ns/pkt"),
    ("collect.observe_ns_per_pkt_40", "ns/pkt"),
    ("collect.observe_ns_per_pkt_576", "ns/pkt"),
    ("collect.observe_ns_per_pkt_1500", "ns/pkt"),
    ("collect.aligned_ns_per_pkt", "ns/pkt"),
    ("collect.unaligned_ns_per_pkt", "ns/pkt"),
    ("collect.sketch_ns_per_pkt", "ns/pkt"),
    ("collect.aligned_fill", "ratio"),
    ("monitor.finish_ms", "ms"),
    ("monitor.encode_ms", "ms"),
    ("transport.chunk_ms", "ms"),
    ("monitor.bundle_bytes", "bytes"),
    ("transport.chunks", "count"),
    ("transport.frame_bytes", "bytes"),
    ("monitor.resend_calls", "count"),
    ("monitor.resend_chunks", "count"),
    ("monitor.resend_ms", "ms"),
    ("monitor.ack_calls", "count"),
    ("channel.frames_sent", "count"),
    ("channel.frames_delivered", "count"),
    ("channel.ticks_to_ready", "ticks"),
    ("net.ship_ms", "ms"),
    ("net.goodput_mbps", "Mbit/s"),
    ("net.frames_sent_monitor", "count"),
    ("net.frames_sent_center", "count"),
    ("net.frames_recv_center", "count"),
    ("net.send_amplification", "ratio"),
    ("net.send_stalls", "count"),
    ("net.impaired_drop", "count"),
    ("net.impaired_dup", "count"),
    ("net.impaired_reorder", "count"),
    ("net.impaired_corrupt", "count"),
    ("session.ship_ms", "ms"),
    ("session.offer_ns_per_chunk", "ns/chunk"),
    ("session.poll_ms", "ms"),
    ("session.finalize_ms", "ms"),
    ("session.chunks_offered", "count"),
    ("session.chunks_accepted", "count"),
    ("session.useful_ratio", "ratio"),
    ("session.retransmit_requests", "count"),
    ("session.corrupt_chunks", "count"),
    ("session.duplicate_chunks", "count"),
    ("session.late_chunks", "count"),
    ("aggregate.offer_ns_per_chunk", "ns/chunk"),
    ("aggregate.finalize_ms", "ms"),
    ("aggregate.encode_ms", "ms"),
    ("aggregate.bundle_bytes", "bytes"),
    ("aggregate.upstream_chunks", "count"),
    ("aggregate.children_excluded", "count"),
    ("center.analyze_ms", "ms"),
    ("center.stage.fuse_ms", "ms"),
    ("center.stage.sketch_fuse_ms", "ms"),
    ("center.stage.screen_ms", "ms"),
    ("center.stage.core_find_ms", "ms"),
    ("center.stage.sweep_ms", "ms"),
    ("center.stage.terminate_ms", "ms"),
    ("center.stage.stack_rows_ms", "ms"),
    ("center.stage.prescreen_ms", "ms"),
    ("center.stage.graph_build_ms", "ms"),
    ("center.stage.er_test_ms", "ms"),
    ("center.stage.peel_ms", "ms"),
    ("center.unattributed_ms", "ms"),
    ("center.pairs_exact", "count"),
    ("center.pairs_screened", "count"),
    ("center.search_pairs_scanned", "count"),
    ("center.search_candidates", "count"),
    ("center.graph_full_rebuilds", "count"),
    ("center.routers_analyzed", "count"),
    ("center.routers_excluded", "count"),
    ("bench.epochs_attempted", "count"),
    ("bench.epochs_failed", "count"),
    ("bench.epoch_wall_ms_p50", "ms"),
    ("bench.input_gen_ms", "ms"),
    ("bench.unattributed_share", "share"),
    ("bench.trace_overhead_share", "share"),
    ("bench.host_slowdown", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json, JsonExt};

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect("string").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let own = |defs: &[Def]| -> Vec<(String, String)> {
            defs.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }
}
