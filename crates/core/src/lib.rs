//! The DCS framework: monitoring points, digest shipping and the central
//! analysis module (paper Section II-B, Figure 2).
//!
//! ```text
//!   router 1 ──┐
//!   router 2 ──┤  digests (≈1000× smaller        ┌─ aligned pipeline
//!      …       ├─ than raw traffic) ──► analysis ┤   (ASID search)
//!   router m ──┘                        centre   └─ unaligned pipeline
//!                                                    (ER test + cores)
//! ```
//!
//! [`MonitoringPoint`] wraps both collectors for one router;
//! [`AnalysisCenter`] fuses the shipped digests and runs the detection
//! pipelines, reporting which routers saw common content.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod center;
pub mod clock;
pub mod ingest;
pub mod monitor;
pub mod net;
pub mod report;
pub mod session;
pub mod stages;
pub mod transport;

pub use aggregate::{AggregateBundle, Aggregator, ChildExclusion, AGGREGATE_MAGIC};
pub use center::{AnalysisCenter, AnalysisConfig};
pub use clock::{Clock, ManualClock, TickClock};
pub use ingest::{Exclusion, IngestError, IngestReport, RouterFault};
pub use monitor::{MonitorConfig, MonitoringPoint, RouterDigest, RouterDigestView};
pub use net::{
    run_center_epoch, run_monitor_epoch, CenterEpochEnd, CenterSocket, ControlFrame,
    ImpairmentConfig, ImpairmentShim, MonitorEpochConfig, MonitorEpochEnd, MonitorSocket,
    Transport,
};
pub use report::{AlignedReport, EpochReport, TransportStats, UnalignedReport};
pub use session::{
    CollectedEpoch, CollectorConfig, EpochCollector, RetransmitRequest, SessionConfig,
    StragglerPolicy,
};
pub use stages::{Stage, StageRecorder};
pub use transport::{chunk_bundle, ChunkFrame, DATAGRAM_SAFE_PAYLOAD};

pub use dcs_collect::frame::FrameError;
pub use dcs_obs::{MetricsRegistry, MetricsSnapshot};
