//! Detection reports emitted by the analysis centre.

use crate::ingest::IngestReport;
use serde::Serialize;

/// Outcome of the aligned-case pipeline for one epoch.
#[derive(Debug, Clone, Serialize)]
pub struct AlignedReport {
    /// Whether a non-naturally-occurring pattern was found.
    pub found: bool,
    /// Routers identified as having seen the common content.
    pub routers: Vec<usize>,
    /// Number of common packets (witness columns) attributed to the
    /// content.
    pub content_packets: usize,
    /// Bitmap indices of the witness columns — the content's "hashed
    /// signature", usable to filter raw traffic downstream.
    pub signature_indices: Vec<usize>,
}

/// Outcome of the unaligned-case pipeline for one epoch.
#[derive(Debug, Clone, Serialize)]
pub struct UnalignedReport {
    /// Whether the ER statistical test raised the alarm.
    pub alarm: bool,
    /// Size of the largest connected component in the test graph.
    pub largest_component: usize,
    /// The component threshold in force.
    pub component_threshold: usize,
    /// Routers suspected of carrying the common content (from the groups
    /// in the detected cores). Empty when no alarm.
    pub suspected_routers: Vec<usize>,
    /// Global group ids in the detected cores (finer-grained handle for
    /// follow-up packet logging).
    pub suspected_groups: Vec<usize>,
}

/// Per-epoch transport accounting, recorded by the
/// [`EpochCollector`](crate::session::EpochCollector) while the epoch's
/// chunk frames were being received and reassembled. All zeros when the
/// epoch crossed no transport hop (in-process digests or whole wire
/// frames handed straight to the centre).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct TransportStats {
    /// Chunk frames accepted into reassembly buffers.
    pub chunks_received: u64,
    /// Retransmit requests issued (one per backoff firing, however many
    /// chunks each requested).
    pub retransmits: u64,
    /// Chunks that arrived for the wrong epoch or after the epoch was
    /// finalized.
    pub late_chunks: u64,
    /// Duplicate deliveries of already-held chunks (absorbed, not
    /// double-counted into buffers).
    pub duplicate_chunks: u64,
    /// Frames rejected by the CRC-32 trailer or envelope decode.
    pub corrupt_chunks: u64,
    /// Times this epoch's collector was resumed from a checkpoint after a
    /// centre restart.
    pub checkpoint_resumes: u64,
}

impl std::ops::AddAssign for TransportStats {
    fn add_assign(&mut self, s: TransportStats) {
        self.chunks_received += s.chunks_received;
        self.retransmits += s.retransmits;
        self.late_chunks += s.late_chunks;
        self.duplicate_chunks += s.duplicate_chunks;
        self.corrupt_chunks += s.corrupt_chunks;
        self.checkpoint_resumes += s.checkpoint_resumes;
    }
}

/// The per-epoch report bundle.
#[derive(Debug, Clone, Serialize)]
pub struct EpochReport {
    /// Number of routers whose digests were fused.
    pub routers: usize,
    /// Total raw traffic summarised (wire bytes).
    pub raw_bytes: u64,
    /// Total digest bytes shipped.
    pub digest_bytes: u64,
    /// Aligned-case verdict.
    pub aligned: AlignedReport,
    /// Unaligned-case verdict.
    pub unaligned: UnalignedReport,
    /// Ingest accounting: which routers were fused, which bundles were
    /// excluded and why. A degraded (but analysable) epoch shows up here.
    pub ingest: IngestReport,
    /// Delivery accounting from the transport layer (zeros when the epoch
    /// bypassed it).
    pub transport: TransportStats,
}

impl EpochReport {
    /// Raw bytes per digest byte across the whole deployment.
    pub fn compression_ratio(&self) -> f64 {
        if self.digest_bytes == 0 {
            0.0
        } else {
            self.raw_bytes as f64 / self.digest_bytes as f64
        }
    }

    /// The verdicts of this epoch as one canonical JSON string: exactly
    /// the fields that must agree between the flat and aggregated ingest
    /// paths, and the `detection` field of a `dcs-cli serve` report line.
    /// Ingest indices and transport stats are deliberately excluded — the
    /// two paths account those differently by design.
    pub fn detection_fingerprint(&self) -> String {
        format!(
            "{{\"found\":{},\"routers\":{:?},\"packets\":{},\"signature\":{:?},\"alarm\":{},\"component\":{},\"suspected\":{:?},\"groups\":{:?}}}",
            self.aligned.found,
            self.aligned.routers,
            self.aligned.content_packets,
            self.aligned.signature_indices,
            self.unaligned.alarm,
            self.unaligned.largest_component,
            self.unaligned.suspected_routers,
            self.unaligned.suspected_groups,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EpochReport {
        EpochReport {
            routers: 4,
            raw_bytes: 4_000_000,
            digest_bytes: 4_000,
            aligned: AlignedReport {
                found: true,
                routers: vec![0, 2],
                content_packets: 12,
                signature_indices: vec![5, 17],
            },
            unaligned: UnalignedReport {
                alarm: false,
                largest_component: 9,
                component_threshold: 100,
                suspected_routers: vec![],
                suspected_groups: vec![],
            },
            ingest: IngestReport {
                submitted: 5,
                accepted: vec![0, 1, 2, 3],
                excluded: vec![crate::ingest::Exclusion {
                    index: 4,
                    router_id: None,
                    fault: crate::ingest::RouterFault::Wire("digest frame truncated".into()),
                }],
            },
            transport: TransportStats {
                chunks_received: 80,
                retransmits: 3,
                late_chunks: 1,
                duplicate_chunks: 2,
                corrupt_chunks: 4,
                checkpoint_resumes: 1,
            },
        }
    }

    #[test]
    fn compression_ratio() {
        assert!((sample().compression_ratio() - 1000.0).abs() < 1e-9);
        let mut r = sample();
        r.digest_bytes = 0;
        assert_eq!(r.compression_ratio(), 0.0);
    }

    /// The string is the `detection` field of every `serve` report line:
    /// its bytes are a contract, not a debug aid.
    #[test]
    fn detection_fingerprint_is_pinned() {
        let mut r = sample();
        r.unaligned.alarm = true;
        r.unaligned.suspected_routers = vec![1, 3];
        r.unaligned.suspected_groups = vec![4, 13];
        assert_eq!(
            r.detection_fingerprint(),
            "{\"found\":true,\"routers\":[0, 2],\"packets\":12,\"signature\":[5, 17],\
             \"alarm\":true,\"component\":9,\"suspected\":[1, 3],\"groups\":[4, 13]}"
        );
    }

    /// Reports are written for readers outside the program and never
    /// read back, so their JSON is pinned: a renamed field fails here.
    #[test]
    fn report_json_is_pinned() {
        assert_eq!(
            serde_json::to_string(&sample()).unwrap(),
            concat!(
                r#"{"routers":4,"raw_bytes":4000000,"digest_bytes":4000,"#,
                r#""aligned":{"found":true,"routers":[0,2],"content_packets":12,"#,
                r#""signature_indices":[5,17]},"#,
                r#""unaligned":{"alarm":false,"largest_component":9,"#,
                r#""component_threshold":100,"suspected_routers":[],"suspected_groups":[]},"#,
                r#""ingest":{"submitted":5,"accepted":[0,1,2,3],"excluded":[{"index":4,"#,
                r#""router_id":null,"fault":{"kind":"wire","error":"digest frame truncated"}}]},"#,
                r#""transport":{"chunks_received":80,"retransmits":3,"late_chunks":1,"#,
                r#""duplicate_chunks":2,"corrupt_chunks":4,"checkpoint_resumes":1}}"#
            )
        );
    }
}
