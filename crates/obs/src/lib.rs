//! `dcs-obs` — the observability substrate of the DCS analysis pipeline.
//!
//! Every layer of the pipeline (digest fusion, the aligned product
//! search, the unaligned graph stages, transport reassembly, the bitmap
//! kernels) reports into one [`MetricsRegistry`]: a thread-safe, zero-dep
//! registry of
//!
//! * monotonic **counters** ([`Counter`]) — events since process start
//!   (`stage_runs_total`, `ingest_excluded_total{fault=…}`);
//! * **gauges** ([`Gauge`]) — last-written values (`epoch_stage_ns{…}`,
//!   the per-epoch stage clocks);
//! * fixed-bucket **latency histograms** ([`Histogram`]) — power-of-two
//!   nanosecond buckets accumulating every stage span ever timed.
//!
//! Metric identity is `name` plus a small set of `label=value` pairs
//! (canonically sorted), rendered as `name{label=value,…}` — the
//! conventional families are `stage`, `pipeline`, `router_id` and
//! `kernel`. [`MetricsSnapshot`] captures the whole registry as a
//! deterministic (key-sorted), serde-serializable value with JSON export
//! ([`MetricsSnapshot::to_json_pretty`]).
//!
//! The crate depends only on the workspace serde stand-ins — no clocks
//! beyond `std::time`, no allocator tricks, no platform code — so every
//! crate in the workspace can report into it without dependency cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod registry;
mod snapshot;

pub use registry::{Counter, Gauge, Histogram, MetricsRegistry, HIST_BUCKETS};
pub use snapshot::{metric_key, CounterEntry, GaugeEntry, HistogramEntry, MetricsSnapshot};

#[cfg(test)]
mod proptests;
