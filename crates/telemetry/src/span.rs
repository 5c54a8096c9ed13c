//! Pipeline span tracing: scoped stage timers, scheduler gauges, and
//! an optional chrome://tracing-compatible span dump.
//!
//! The process-wide [`Telemetry`] singleton ([`global`]) is
//! off-by-default-cheap: every instrumentation site checks one relaxed
//! atomic flag per *scope* (not per record), and a disabled
//! [`Span`] holds no timestamp — constructing and dropping it does no
//! clock read, no atomic write, and no allocation. Enabling telemetry
//! only ever observes durations; nothing here touches RNG streams or
//! deterministic outputs.

use crate::metrics::{Gauge, Histogram, HistogramSnapshot};
use crate::registry::Registry;
use parking_lot::Mutex;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Pipeline stages with dedicated latency histograms. Fixed enum →
/// fixed array index: recording never hashes a name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Round planning (pair selection, overlay planning).
    Plan,
    /// Batched pair resolution against the routing tables.
    ResolvePairs,
    /// Ping-window sampling (the measurement kernel proper).
    Sample,
    /// Absorbing measured rounds into reports/builders.
    Stitch,
    /// Rebuilding stale routing tables after topology churn (one span
    /// per rebuild).
    Repair,
}

pub const STAGE_COUNT: usize = 5;

impl Stage {
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Plan,
        Stage::ResolvePairs,
        Stage::Sample,
        Stage::Stitch,
        Stage::Repair,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Stage::Plan => "plan",
            Stage::ResolvePairs => "resolve_pairs",
            Stage::Sample => "sample",
            Stage::Stitch => "stitch",
            Stage::Repair => "repair",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Sentinel for "this span has no scenario/round label".
pub const NO_LABEL: u32 = u32::MAX;

/// One completed span, buffered for the chrome://tracing dump.
struct TraceEvent {
    stage: Stage,
    scenario: u32,
    round: u32,
    tid: u32,
    start_ns: u64,
    dur_ns: u64,
}

/// Small monotonically assigned per-thread id for the trace dump
/// (chrome://tracing lanes). Stable within a process run.
fn thread_tid() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local! {
        static TID: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// Process-wide telemetry state: the enable flag, per-stage latency
/// histograms, scheduler gauges, the named-metric [`Registry`], and
/// the trace buffer.
pub struct Telemetry {
    enabled: AtomicBool,
    tracing: AtomicBool,
    stage_ns: [Arc<Histogram>; STAGE_COUNT],
    queue_depth: Arc<Gauge>,
    jobs_in_flight: Arc<Gauge>,
    registry: Registry,
    trace: Mutex<Vec<TraceEvent>>,
    epoch: Instant,
}

/// The process-wide telemetry instance. It starts disabled; only
/// [`Telemetry::set_enabled`] (or [`Telemetry::start_trace`]) turns it
/// on — `serve`, the `--metrics-out` / `--trace-out` CLI flags and
/// tests do.
pub fn global() -> &'static Telemetry {
    static GLOBAL: OnceLock<Telemetry> = OnceLock::new();
    GLOBAL.get_or_init(Telemetry::new)
}

impl Telemetry {
    fn new() -> Self {
        let registry = Registry::new();
        let stage_ns = Stage::ALL
            .map(|stage| registry.histogram("colo_stage_duration_ns", &[("stage", stage.label())]));
        let queue_depth = registry.gauge("colo_shard_queue_depth", &[]);
        let jobs_in_flight = registry.gauge("colo_shard_jobs_in_flight", &[]);
        Self {
            enabled: AtomicBool::new(false),
            tracing: AtomicBool::new(false),
            stage_ns,
            queue_depth,
            jobs_in_flight,
            registry,
            trace: Mutex::new(Vec::new()),
            epoch: Instant::now(),
        }
    }

    /// One relaxed load — the per-scope cost when telemetry is off.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Clear the trace buffer and start collecting span events.
    /// Implies `set_enabled(true)`.
    pub fn start_trace(&self) {
        self.trace.lock().clear();
        self.enabled.store(true, Ordering::Relaxed);
        self.tracing.store(true, Ordering::Relaxed);
    }

    /// Stop collecting and render the buffered spans as a
    /// chrome://tracing-compatible JSON document (`traceEvents`
    /// array of complete `ph:"X"` events; `ts`/`dur` in microseconds).
    pub fn finish_trace_json(&self) -> String {
        self.tracing.store(false, Ordering::Relaxed);
        let events = std::mem::take(&mut *self.trace.lock());
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"pipeline\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{}.{:03},\"dur\":{}.{:03}",
                e.stage.label(),
                e.tid,
                e.start_ns / 1_000,
                e.start_ns % 1_000,
                e.dur_ns / 1_000,
                e.dur_ns % 1_000,
            );
            if e.scenario != NO_LABEL || e.round != NO_LABEL {
                out.push_str(",\"args\":{");
                let mut first = true;
                if e.scenario != NO_LABEL {
                    let _ = write!(out, "\"scenario\":{}", e.scenario);
                    first = false;
                }
                if e.round != NO_LABEL {
                    if !first {
                        out.push(',');
                    }
                    let _ = write!(out, "\"round\":{}", e.round);
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}\n");
        out
    }

    /// Open an unlabeled span. Returns an inert guard (no clock read)
    /// when telemetry is disabled.
    #[inline]
    pub fn span(&self, stage: Stage) -> Span<'_> {
        self.span_for(stage, NO_LABEL, NO_LABEL)
    }

    /// Open a span labeled with a (scenario, round) pair.
    #[inline]
    pub fn span_for(&self, stage: Stage, scenario: u32, round: u32) -> Span<'_> {
        if !self.enabled() {
            return Span { inner: None };
        }
        Span {
            inner: Some(SpanInner {
                telemetry: self,
                stage,
                scenario,
                round,
                start: Instant::now(),
            }),
        }
    }

    /// Record a stage duration from an explicit start timestamp — for
    /// call sites (like the shard scheduler's per-job stage
    /// transitions) where the scope is not lexical.
    pub fn record_stage(&self, stage: Stage, scenario: u32, round: u32, start: Instant) {
        let dur_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.stage_ns[stage.index()].record(dur_ns);
        if self.tracing.load(Ordering::Relaxed) {
            let start_ns = u64::try_from(
                start
                    .checked_duration_since(self.epoch)
                    .unwrap_or_default()
                    .as_nanos(),
            )
            .unwrap_or(u64::MAX);
            self.trace.lock().push(TraceEvent {
                stage,
                scenario,
                round,
                tid: thread_tid(),
                start_ns,
                dur_ns,
            });
        }
    }

    pub fn stage_snapshot(&self, stage: Stage) -> HistogramSnapshot {
        self.stage_ns[stage.index()].snapshot()
    }

    /// Scheduler queue-depth gauge: pending items in the shard queue.
    /// An item is a round to plan or a chunk of at most 64 measurement
    /// windows — not a window.
    pub fn queue_depth(&self) -> &Gauge {
        &self.queue_depth
    }

    /// Scheduler in-flight gauge (admitted, unfinished rounds).
    pub fn jobs_in_flight(&self) -> &Gauge {
        &self.jobs_in_flight
    }

    /// The process-wide named-metric registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Render every process-wide metric (stage histograms, scheduler
    /// gauges, and anything else registered) as exposition text.
    pub fn render_into(&self, out: &mut String) {
        self.registry.render_into(out);
    }
}

struct SpanInner<'t> {
    telemetry: &'t Telemetry,
    stage: Stage,
    scenario: u32,
    round: u32,
    start: Instant,
}

/// A scoped stage timer. Records its duration (and, when tracing, a
/// trace event) on drop; inert when telemetry is disabled.
#[must_use = "a span measures the scope it is alive for"]
pub struct Span<'t> {
    inner: Option<SpanInner<'t>>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            inner
                .telemetry
                .record_stage(inner.stage, inner.scenario, inner.round, inner.start);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test toggles the flags of its own instance: the global
    // singleton's are shared by every test in this binary.

    #[test]
    fn disabled_span_records_nothing() {
        let t = Telemetry::new();
        assert!(!t.enabled(), "telemetry starts disabled");
        drop(t.span(Stage::Repair));
        assert_eq!(t.stage_snapshot(Stage::Repair).count(), 0);
    }

    #[test]
    fn enabled_span_records_into_its_stage_histogram() {
        let t = Telemetry::new();
        t.set_enabled(true);
        drop(t.span_for(Stage::Stitch, 3, 7));
        assert_eq!(t.stage_snapshot(Stage::Stitch).count(), 1);
    }

    #[test]
    fn trace_dump_is_chrome_compatible_json() {
        let t = Telemetry::new();
        t.start_trace();
        drop(t.span_for(Stage::Plan, 0, 2));
        drop(t.span(Stage::Repair));
        let json = t.finish_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains("\"name\":\"plan\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"args\":{\"scenario\":0,\"round\":2}"));
        // The unlabeled repair span has no args object.
        let repair = json.split("\"name\":\"repair\"").nth(1).unwrap();
        let repair_event = &repair[..repair.find('}').unwrap() + 1];
        assert!(!repair_event.contains("args"));
        // Exactly the two spans, and the buffer drains: a second dump
        // is empty.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert_eq!(t.finish_trace_json(), "{\"traceEvents\":[]}\n");
    }

    #[test]
    fn stage_histograms_appear_in_the_registry_render() {
        let t = global();
        let mut out = String::new();
        t.render_into(&mut out);
        assert!(out.contains("colo_stage_duration_ns_count{stage=\"plan\"}"));
        assert!(out.contains("colo_shard_queue_depth"));
        assert!(out.contains("colo_shard_jobs_in_flight"));
    }
}
