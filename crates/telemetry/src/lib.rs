//! # `shortcuts_telemetry` — observability for the shortcuts engine
//!
//! A dependency-light telemetry subsystem shared by every layer of the
//! workspace (netsim, topology, core, service, CLI). Three pieces:
//!
//! 1. **Metric primitives and registry** ([`metrics`], [`registry`]):
//!    atomic [`Counter`]s, [`Gauge`]s, and fixed-bucket log₂
//!    [`Histogram`]s with a lock-free record path and
//!    snapshot-on-read. The [`Registry`] names them (with labels) and
//!    renders Prometheus-style exposition text in deterministic order.
//!
//! 2. **Pipeline span tracing** ([`span`]): the process-wide
//!    [`Telemetry`] singleton carries per-stage latency histograms
//!    (plan / resolve_pairs / sample / stitch / repair), scheduler
//!    gauges (queue depth, rounds in flight), and an optional
//!    chrome://tracing-compatible span dump. Everything is
//!    off-by-default-cheap: one relaxed flag load per scope, no clock
//!    read and no allocation while disabled.
//!
//! 3. **Unified stats fields** ([`fields`]): subsystem stats structs
//!    export a flat `fields()` list that formats both the legacy
//!    `STATS` key=value line ([`kv_summary`]) and the `METRICS`
//!    exposition ([`prom_fields`]) — one source, two renderings, so
//!    the surfaces cannot drift.
//!
//! ## Determinism contract
//!
//! Telemetry never touches RNG streams and never feeds wall-clock time
//! into deterministic outputs: spans observe *durations* at the edges
//! of already-scheduled work, and `tests/telemetry_neutrality.rs`
//! proves a campaign's and a churned sweep's CSVs are unchanged with
//! it on.

pub mod fields;
pub mod metrics;
pub mod registry;
pub mod span;

pub use fields::{kv_summary, prom_fields, prom_histogram, prom_line, Field, FieldValue};
pub use metrics::{
    bucket_bound, bucket_index, Counter, Gauge, Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS,
};
pub use registry::Registry;
pub use span::{global, Span, Stage, Telemetry, NO_LABEL, STAGE_COUNT};
