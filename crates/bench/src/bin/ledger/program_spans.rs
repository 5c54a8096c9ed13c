//! The program's own telemetry, read from outside: the five stage
//! histograms (`plan`, `resolve_pairs`, `sample`, `stitch`, `repair`)
//! of the process-wide registry, over one pass.

use crate::catalog::STAGE_SUM_METRICS;
use crate::outcome::Metrics;
use shortcuts_telemetry::{self as telemetry, HistogramSnapshot, Stage};
use std::time::Instant;

/// The stage histograms as they stood when a pass began.
pub struct StageProbe {
    before: Vec<HistogramSnapshot>,
}

/// Cost of opening and closing one stage span with telemetry on, ns.
fn span_cost_ns() -> f64 {
    const SPANS: u32 = 20_000;
    let tele = telemetry::global();
    let t0 = Instant::now();
    for _ in 0..SPANS {
        drop(tele.span_for(Stage::Plan, telemetry::NO_LABEL, telemetry::NO_LABEL));
    }
    t0.elapsed().as_nanos() as f64 / f64::from(SPANS)
}

impl StageProbe {
    pub fn start() -> StageProbe {
        let tele = telemetry::global();
        StageProbe {
            before: Stage::ALL.iter().map(|&s| tele.stage_snapshot(s)).collect(),
        }
    }

    /// Writes the `telemetry.*` metrics of the pass that ran since
    /// [`StageProbe::start`] and took `wall_s`. Telemetry must still be
    /// on: the overhead figure is spans recorded times the cost of one
    /// span, calibrated here (after the stage sums are read, so the
    /// calibration spans do not count).
    pub fn finish(self, wall_s: f64, metrics: &mut Metrics) {
        let tele = telemetry::global();
        let mut sum_s = 0.0;
        let mut spans = 0;
        for ((&stage, before), name) in Stage::ALL.iter().zip(&self.before).zip(STAGE_SUM_METRICS) {
            debug_assert!(name.contains(stage.label()));
            let now = tele.stage_snapshot(stage);
            let stage_s = (now.sum - before.sum) as f64 / 1e9;
            metrics.insert(name, stage_s);
            sum_s += stage_s;
            spans += now.count() - before.count();
        }
        metrics.insert("telemetry.span_coverage_share", sum_s / wall_s);
        metrics.insert(
            "telemetry.overhead_share",
            spans as f64 * span_cost_ns() / 1e9 / wall_s,
        );
    }
}
