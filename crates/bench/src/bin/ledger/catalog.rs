//! The one table that names everything the ledger measures: workloads,
//! end-to-end metrics with their bounds, per-layer metrics. The
//! committed `BENCHMARK.json`, the result line of every run, the
//! `BENCH_*.json` ledgers and `ledger diff` all read names, units,
//! directions and bounds from here, so they cannot drift apart.

use crate::json::Json;

/// How long one run measures, in seconds, at the sizes recorded in
/// `batch.rs` and `serve.rs` — `BENCHMARK.json`'s `run_seconds`. Sizes
/// scale linearly with `--seconds` from this reference.
pub const RUN_SECONDS: u64 = 15;

/// The directory that holds the benchmark and nothing else.
pub const BENCH_DIR: &str = "crates/bench/src/bin/ledger";

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named workload and the reason it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// One named metric.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before it counts as a regression.
    pub bound: Option<f64>,
    /// One-line definition (README tables, `ledger list`).
    pub what: &'static str,
}

pub const CAMPAIGN_PAPER: &str = "campaign_paper";
pub const SWEEP_SHARED: &str = "sweep_shared";
pub const CAMPAIGN_CHURN_BUDGET: &str = "campaign_churn_budget";
pub const SERVE_PRIVATE: &str = "serve_private";
pub const SERVE_FANOUT: &str = "serve_fanout";

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: CAMPAIGN_PAPER,
        why: "The paper's own campaign on a cold, growing pair cache: plan_overlay, resolve_pairs and stitch do almost all the work, routing and service none.",
    },
    WorkloadSpec {
        name: SWEEP_SHARED,
        why: "The same kernels through the core::shard scheduler with one shared pair cache and one union warmup: admission, queueing and cross-scenario sharing only show here.",
    },
    WorkloadSpec {
        name: CAMPAIGN_CHURN_BUDGET,
        why: "A 4x world under a 48M budget with a link flap per round: the caches in write mode, so table recomputes, pair evictions, repairs and revalidation do real work.",
    },
    WorkloadSpec {
        name: SERVE_PRIVATE,
        why: "Compute-bound serving: closed-loop RUN sessions with distinct seeds contend for one pooled engine stack; admission, checkout and streaming sit on top of the kernel.",
    },
    WorkloadSpec {
        name: SERVE_FANOUT,
        why: "Protocol-bound serving: closed-loop replays of one broadcast key in both framings; session, broadcast, frame and socket I/O do the work, core and netsim almost none.",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        what,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one of
/// these (the benchmark contract requires it), so each has a reading on
/// batch and on serve workloads. The bounds are what the 2-core
/// reference container can resolve, not what one would wish for: it
/// drifts between quiet and noisy periods of minutes in which the same
/// run takes up to a fifth longer, so every timing carries the widest
/// bound the contract allows (README, "noise floor").
pub const END_TO_END: [MetricSpec; 6] = [
    e2e("setup_s", "s", Lower, 0.25,
        "process start to ready-to-submit, median of 5 set-ups: World::build + engine construction (batch); Server::start + one discarded warm-up session that builds the pooled stack (serve)"),
    e2e("wall_s", "s", Lower, 0.25,
        "batch: run_streaming* call to report CSVs rendered; serve: first request sent to last reply received"),
    e2e("first_round_s", "s", Lower, 0.25,
        "time to first result: batch: same start to the first streamed RoundSummary (selection funnel + router warmup + round 0), median over the run's cold starts; serve: median over sessions of connect to first ROUND event"),
    e2e("cpu_s", "s", Lower, 0.25,
        "user+sys CPU of the process over the timed phase (/proc/self/stat): the cost wall-clock hides on a shared box"),
    e2e("peak_rss_mb", "MiB", Lower, 0.20,
        "VmHWM of the run's process at exit"),
    e2e("step_p50_ms", "ms", Lower, 0.25,
        "median wait for the next result: batch: gap between a scenario's consecutive streamed rounds (first gap from the start); serve: one session, connect to QUIT acknowledged"),
];

/// Single layers, measured by timing calls into their public functions
/// from the ledger's own files (the traced pass) or by reading counters
/// the program already exposes after an untraced pass (marked "counter"
/// below: these repeat exactly where the README says so). Every
/// workload reports every metric; one that does not apply reads 0.
pub const PER_LAYER: [MetricSpec; 79] = [
    // --- set-up and selection ---------------------------------------
    layer("core.world.build_s", "s", Lower, "World::build, median of the set-ups"),
    layer("core.select.busy_s", "s", Lower, "CampaignSetup::prepare (colo funnel, eyeball and relay pools), summed over scenarios"),
    layer("core.sweep.prepare_s", "s", Lower, "sweep only: start to scheduler start (all set-ups plus the union warmup)"),
    layer("topology.routing.precompute_s", "s", Lower, "Router::precompute over the warmup destinations"),
    layer("topology.routing.tables_built", "count", Lower, "counter: routing tables ever built (resident + evicted)"),
    layer("topology.routing.us_per_table", "us", Lower, "precompute_s over the tables that call built"),
    // --- planning -----------------------------------------------------
    layer("core.plan.busy_s", "s", Lower, "plan_round_for, summed over rounds"),
    layer("core.plan.windows", "count", Lower, "counter: direct pairs + overlay links planned, from the streamed summaries"),
    layer("core.tasks.build_s", "s", Lower, "direct_tasks/reverse_tasks/link_tasks, summed (campaigns; the scheduler builds them itself in a sweep)"),
    layer("core.plan_overlay.busy_s", "s", Lower, "plan_overlay, summed over rounds (campaigns; inside the scheduler in a sweep, see core.shard.self_s)"),
    layer("core.plan_overlay.links", "count", Lower, "counter: overlay links the feasibility filter asked for"),
    // --- pair resolution ----------------------------------------------
    layer("netsim.resolve_pairs.busy_s", "s", Lower, "MeasurementBackend::prepare per stage (batched pair resolution, cold misses included), summed"),
    layer("netsim.resolve_pairs.us_per_miss", "us", Lower, "resolve_pairs.busy_s over pair_cache.misses"),
    layer("netsim.pair_cache.hits", "count", Higher, "counter: pair-cache lookups that found a resident entry"),
    layer("netsim.pair_cache.misses", "count", Lower, "counter: pair-cache lookups that had to expand the pair"),
    layer("netsim.pair_cache.hit_rate", "ratio", Higher, "counter: hits / (hits + misses)"),
    layer("netsim.pair_cache.entries", "count", Lower, "counter: pairs resident at the end"),
    layer("netsim.pair_cache.bytes", "bytes", Lower, "counter: bytes resident across the pair-cache shards at the end"),
    layer("netsim.pair_cache.evictions", "count", Lower, "counter: pair entries dropped by the byte budget"),
    layer("netsim.pair_cache.revalidated", "count", Higher, "counter: stale pair entries re-stamped in place after churn"),
    // --- sampling -----------------------------------------------------
    layer("netsim.sample.busy_s", "s", Lower, "measure_batch after the stage is resolved (campaigns: includes a warm re-resolve) or per-window measure (sweep), summed"),
    layer("netsim.sample.ns_per_ping", "ns", Lower, "sample.busy_s over pings_sent"),
    layer("netsim.pings_sent", "count", Lower, "counter: pings attempted through the engine"),
    // --- stitching and reports ----------------------------------------
    layer("core.stitch.absorb_s", "s", Lower, "ResultsBuilder::absorb_round, summed over rounds"),
    layer("core.stitch.finish_s", "s", Lower, "ResultsBuilder::finish, summed over scenarios"),
    layer("core.stitch.cases", "count", Higher, "counter: cases produced, summed over scenarios"),
    layer("core.report.render_s", "s", Lower, "the report CSVs rendered to memory (five for a campaign; cases per scenario + comparison for a sweep)"),
    layer("core.report.csv_bytes", "bytes", Lower, "counter: bytes of those CSVs"),
    // --- scheduler ----------------------------------------------------
    layer("core.shard.job_p50_ms", "ms", Lower, "sweep: median (campaign, round) job latency, planner call to completed-round callback"),
    layer("core.shard.self_s", "s", Lower, "sweep: sum of job latencies minus plan, prepare and measure busy time: queue wait + overlay planning"),
    layer("core.shard.worker_busy_share", "ratio", Higher, "sweep: plan + prepare + measure busy time over workers x scheduler wall"),
    layer("core.cores_used", "ratio", Higher, "cpu_s / wall_s of the untraced pass"),
    // --- routing under budget and churn -------------------------------
    layer("topology.routing.tables_bytes", "bytes", Lower, "counter: bytes of resident routing tables at the end"),
    layer("topology.routing.table_evictions", "count", Lower, "counter: routing tables dropped by the byte budget"),
    layer("topology.routing.table_recomputes", "count", Lower, "counter: routing-table misses on previously resident destinations"),
    layer("topology.repair.apply_delta_s", "s", Lower, "MeasurementBackend::apply_delta, summed over churn batches (repairs are lazy: their cost lands in resolve_pairs)"),
    layer("topology.repair.tables_repaired", "count", Lower, "counter: stale tables brought current by incremental repair"),
    layer("topology.repair.entries_rescanned", "count", Lower, "counter: route entries re-examined by incremental repairs"),
    layer("topology.repair.full_rebuilds", "count", Lower, "counter: stale tables that fell back to a full recompute"),
    layer("topology.intern.paths_interned", "count", Lower, "counter: distinct AS paths interned fresh"),
    layer("topology.intern.dedup_hits", "count", Higher, "counter: interning requests served by a live allocation"),
    // --- service ------------------------------------------------------
    layer("service.server.start_s", "s", Lower, "Server::start, median of the set-ups"),
    layer("service.pool.cold_session_s", "s", Lower, "the discarded warm-up session that builds the pooled stack, median of the set-ups"),
    layer("service.pool.bytes", "bytes", Lower, "counter: WorldPool resident bytes at the end"),
    layer("service.pool.stack_evictions", "count", Lower, "counter: whole stacks evicted by the pool"),
    layer("service.session.connect_p50_ms", "ms", Lower, "median connect + greeting"),
    layer("service.session.first_round_p50_ms", "ms", Lower, "median request sent to first ROUND event"),
    layer("service.session.stream_p50_ms", "ms", Lower, "median request sent to terminating OK"),
    layer("service.session.csv_fetch_p50_ms", "ms", Lower, "median CSV cases request to payload received"),
    layer("service.session.max_ms", "ms", Lower, "slowest session"),
    layer("service.session.p99_ms", "ms", Lower, "p99 session latency (diagnostic: fewer than ten samples lie beyond it)"),
    layer("service.session.csv_bytes", "bytes", Lower, "counter: CSV payload bytes fetched, all sessions"),
    layer("service.broadcast.broadcasts", "count", Lower, "counter: broadcasts ever produced"),
    layer("service.broadcast.subscribers", "count", Lower, "counter: taps still attached at the end"),
    layer("service.broadcast.rounds_fanned_out", "count", Higher, "counter: ROUND events delivered to taps"),
    layer("service.broadcast.subscribers_shed", "count", Lower, "counter: taps shed for lagging"),
    layer("service.broadcast.dedup_share", "ratio", Higher, "share of streaming requests served without executing: 1 - broadcasts / requests"),
    layer("service.credits.denied", "count", Lower, "counter: requests refused by credit admission"),
    layer("service.frame.text_session_p50_ms", "ms", Lower, "median latency of the text-framed sessions"),
    layer("service.frame.binary_session_p50_ms", "ms", Lower, "median latency of the binary-framed sessions"),
    layer("service.frame.text_bytes_per_round", "bytes", Lower, "socket bytes of one text-framed stream over its rounds"),
    layer("service.frame.binary_bytes_per_round", "bytes", Lower, "socket bytes of one binary-framed stream over its rounds"),
    layer("service.stats.roundtrip_p50_ms", "ms", Lower, "median STATS round trip"),
    layer("service.metrics.roundtrip_p50_ms", "ms", Lower, "median METRICS round trip"),
    layer("service.metrics.bytes", "bytes", Lower, "counter: size of the last METRICS exposition"),
    // --- the program's own telemetry ----------------------------------
    layer("telemetry.stage.plan.sum_s", "s", Lower, "sum of the program's own `plan` stage spans over a pass of its own loop with telemetry on"),
    layer("telemetry.stage.resolve_pairs.sum_s", "s", Lower, "same for `resolve_pairs`"),
    layer("telemetry.stage.sample.sum_s", "s", Lower, "same for `sample`"),
    layer("telemetry.stage.stitch.sum_s", "s", Lower, "same for `stitch`"),
    layer("telemetry.stage.repair.sum_s", "s", Lower, "same for `repair`"),
    layer("telemetry.span_coverage_share", "ratio", Higher, "the five stage sums over that pass's wall: what the program's own spans explain (reported, not asserted)"),
    layer("telemetry.overhead_share", "ratio", Lower, "stage spans recorded x calibrated cost of one span, over that pass's wall"),
    // --- quality of the ledger itself ---------------------------------
    layer("core.attributed_share", "ratio", Higher, "share of the traced wall covered by the self time of named layer spans"),
    layer("ledger.trace_overhead_share", "ratio", Lower, "traced wall over untraced wall of the same process, minus 1"),
    layer("ledger.step_samples", "count", Higher, "samples behind step_p50_ms: streamed rounds (batch) or sessions (serve)"),
    // --- demoted from end-to-end (README, "demotions") -----------------
    layer("sessions_per_s", "1/s", Higher, "serve: sessions completed over wall_s (a fixed session count makes it 1/wall_s)"),
    layer("session_p75_ms", "ms", Lower, "serve: p75 session latency, when at least ten samples lie beyond it"),
    layer("session_p90_ms", "ms", Lower, "serve: p90 session latency, when at least ten samples lie beyond it"),
    layer("failed_share", "ratio", Lower, "failed steps and gates over attempted: also the result line's `failed`/`attempted`"),
];

/// The `telemetry.stage.*.sum_s` metrics, in `Stage::ALL` order.
pub const STAGE_SUM_METRICS: [&str; 5] = [
    "telemetry.stage.plan.sum_s",
    "telemetry.stage.resolve_pairs.sum_s",
    "telemetry.stage.sample.sum_s",
    "telemetry.stage.stitch.sum_s",
    "telemetry.stage.repair.sum_s",
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn metric_json(m: &MetricSpec) -> Json {
    let mut fields = vec![
        ("name", Json::str(m.name)),
        ("unit", Json::str(m.unit)),
        ("better", Json::str(m.better.label())),
    ];
    if let Some(bound) = m.bound {
        fields.push(("bound", Json::Num(bound)));
    }
    Json::obj(fields)
}

/// `BENCHMARK.json`, generated: `ledger list --json`.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        &format!("{BENCH_DIR}/Cargo.toml"),
        "--",
        "bench",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str(BENCH_DIR)])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric_json).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric_json).collect()),
        ),
    ])
    .pretty()
}

/// The catalog as README tables: `ledger list`.
pub fn markdown() -> String {
    let mut out = String::from("| workload | why |\n|---|---|\n");
    for w in &WORKLOADS {
        out.push_str(&format!("| `{}` | {} |\n", w.name, w.why));
    }
    out.push_str(
        "\n| end-to-end metric | unit | better | bound | definition |\n|---|---|---|---|---|\n",
    );
    for m in &END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {:.0} % | {} |\n",
            m.name,
            m.unit,
            m.better.label(),
            m.bound.unwrap_or(0.0) * 100.0,
            m.what
        ));
    }
    out.push_str("\n| per-layer metric | unit | better | definition |\n|---|---|---|---|\n");
    for m in &PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.label(),
            m.what
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn committed_benchmark_json_matches_the_catalog() {
        let committed = include_str!("../../../../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "BENCHMARK.json drifted: regenerate it with `ledger list --json > BENCHMARK.json`"
        );
    }

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn the_catalog_fits_the_benchmark_contract() {
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && names.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.name
            );
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        // The set-up time is required, in seconds, lower-is-better,
        // with the widest bound.
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest));
        assert!(benchmark_json().len() <= 64 * 1024);
    }
}
