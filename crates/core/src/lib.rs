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
pub mod capture;
pub mod center;
pub mod clock;
pub mod deployment;
pub mod epochs;
pub mod ingest;
pub mod monitor;
pub mod net;
pub mod report;
pub mod session;
pub mod stages;
pub mod transport;

pub use aggregate::{AggregateBundle, AggregateError, Aggregator, ChildExclusion, AGGREGATE_MAGIC};
pub use capture::{GroupCapture, SignatureCapture};
pub use center::{AnalysisCenter, AnalysisConfig};
pub use clock::{Clock, ManualClock, TickClock};
pub use deployment::{Deployment, DeploymentVerdict};
pub use epochs::{catch_probability, AlarmTracker, EpochSampler};
pub use ingest::{Exclusion, IngestError, IngestReport, RouterFault};
pub use monitor::{MonitorConfig, MonitoringPoint, RouterDigest, RouterDigestView};
pub use net::{
    run_center_epoch, run_monitor_epoch, CenterEpochEnd, CenterSocket, ControlError, ControlFrame,
    ImpairmentConfig, ImpairmentShim, MonitorEpochConfig, MonitorEpochEnd, MonitorSocket,
    Transport,
};
pub use report::{AlignedReport, EpochReport, TransportStats, UnalignedReport};
pub use session::{
    CollectedEpoch, CollectorConfig, EpochCollector, RetransmitRequest, SessionConfig,
    StragglerPolicy,
};
pub use stages::{Stage, StageRecorder};
pub use transport::{chunk_bundle, ChunkError, ChunkFrame, DATAGRAM_SAFE_PAYLOAD};

pub use dcs_obs::{MetricsRegistry, MetricsSnapshot};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::aggregate::{AggregateBundle, AggregateError, Aggregator, ChildExclusion};
    pub use crate::capture::{GroupCapture, SignatureCapture};
    pub use crate::center::{AnalysisCenter, AnalysisConfig};
    pub use crate::clock::{Clock, ManualClock, TickClock};
    pub use crate::deployment::{Deployment, DeploymentVerdict};
    pub use crate::epochs::{AlarmTracker, EpochSampler};
    pub use crate::ingest::{Exclusion, IngestError, IngestReport, RouterFault};
    pub use crate::monitor::{
        MonitorConfig, MonitoringPoint, RouterDigest, RouterDigestView, SketchSpec,
    };
    pub use crate::net::{
        run_center_epoch, run_monitor_epoch, CenterEpochEnd, CenterSocket, ControlFrame,
        ImpairmentConfig, ImpairmentShim, MonitorEpochConfig, MonitorEpochEnd, MonitorSocket,
        Transport,
    };
    pub use crate::report::{AlignedReport, EpochReport, TransportStats, UnalignedReport};
    pub use crate::session::{
        CollectedEpoch, CollectorConfig, EpochCollector, RetransmitRequest, SessionConfig,
        StragglerPolicy,
    };
    pub use crate::stages::{Stage, StageRecorder};
    pub use crate::transport::{chunk_bundle, ChunkError, ChunkFrame, DATAGRAM_SAFE_PAYLOAD};
    pub use dcs_aligned::{refined_detect, SearchConfig};
    pub use dcs_collect::{AlignedConfig, UnalignedConfig};
    pub use dcs_obs::{MetricsRegistry, MetricsSnapshot};
    pub use dcs_traffic::{BackgroundConfig, ContentObject, FlowLabel, Packet, Planting};
    pub use dcs_unaligned::{CoreFindConfig, ErTestConfig};
}
