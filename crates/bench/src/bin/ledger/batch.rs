//! The three batch workloads: `campaign_paper`, `sweep_shared` and
//! `campaign_churn_budget`.
//!
//! An untraced pass calls the program exactly as the CLI does
//! (`Campaign::run_streaming_on` / `Sweep::run_streaming` on an engine
//! the ledger built, so the engine's counters can be read afterwards)
//! and yields the end-to-end metrics and the exact counters. A traced
//! pass re-drives the same round loop through the same public calls
//! `workflow.rs` and `sweep.rs` make, with a span around each and a
//! [`TimedBackend`] between the loop and the measurement backend; its
//! `cases.csv` must come out byte-identical to the untraced pass's.

use crate::catalog::{CAMPAIGN_CHURN_BUDGET, CAMPAIGN_PAPER, SWEEP_SHARED};
use crate::outcome::{digest, engine_counter_metrics, scaled, zero_fill, Gates, Metrics, Outcome};
use crate::proc::{cpu_seconds, peak_rss_mib};
use crate::program_spans::StageProbe;
use crate::stats::{median, p50};
use crate::trace::{self, Tracer, NONE};
use shortcuts_core::analysis::improvement::ImprovementAnalysis;
use shortcuts_core::analysis::threshold::ThresholdCurve;
use shortcuts_core::analysis::top_relays::TopRelayAnalysis;
use shortcuts_core::backend::{execute, MeasureTask, MeasurementBackend, NetsimBackend, TaskKind};
use shortcuts_core::plan::{plan_overlay, plan_round_for};
use shortcuts_core::report;
use shortcuts_core::shard::run_interleaved;
use shortcuts_core::stitch::{ResultsBuilder, RoundReorder};
use shortcuts_core::sweep::{ScenarioResults, Sweep, SweepConfig, SweepReport};
use shortcuts_core::workflow::{
    Campaign, CampaignConfig, CampaignResults, CampaignSetup, RoundSummary,
};
use shortcuts_core::world::{World, WorldConfig};
use shortcuts_core::RelayType;
use shortcuts_netsim::{EngineStats, PingEngine, PingHandle};
use shortcuts_telemetry as telemetry;
use shortcuts_topology::{Asn, MemoryBudget, TopologyDelta};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The world every batch workload measures on. `--seed` drives the
/// campaign seeds only: across world seeds the same campaign differs by
/// several percent of work (relay pools, link counts), which would read
/// as run-to-run noise in every timing, while across campaign seeds on
/// one world the pair-cache miss count stays within ±2 %.
const WORLD_SEED: u64 = 2017;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Scenarios of `sweep_shared` (campaign seeds `S..S+4`).
const SWEEP_SCENARIOS: u64 = 4;

/// Sizes at the reference `RUN_SECONDS`, chosen so the timed pass of an
/// untraced run is 15–20 s on the 2-core reference container and the
/// whole run under 25 s.
struct Shape {
    /// Topology scale factor (1 = the paper's world).
    world_scale: f64,
    /// Rounds per scenario.
    rounds: u32,
    /// `None`: one campaign, `ExecMode::Parallel` (the CLI default).
    /// `Some(n)`: a 4-seed sweep with `n` jobs in flight.
    sweep_jobs_in_flight: Option<usize>,
    /// Engine memory budget of the untraced pass.
    budget: &'static str,
    /// One link flap per round (down in round r, restored in r + 1).
    churn: bool,
    /// One-round runs on a fresh engine before the timed pass: one
    /// warm-up, then samples of `first_round_s`; see [`cold_starts`].
    cold_starts: usize,
}

fn shape(workload: &str) -> Shape {
    match workload {
        CAMPAIGN_PAPER => Shape {
            world_scale: 1.0,
            rounds: 10,
            sweep_jobs_in_flight: None,
            budget: "unbounded",
            churn: false,
            cold_starts: 2,
        },
        SWEEP_SHARED => Shape {
            world_scale: 1.0,
            rounds: 4,
            sweep_jobs_in_flight: Some(2),
            budget: "unbounded",
            churn: false,
            // A one-round sweep is 6 s: the warm-up alone.
            cold_starts: 1,
        },
        CAMPAIGN_CHURN_BUDGET => Shape {
            world_scale: 4.0,
            rounds: 5,
            sweep_jobs_in_flight: None,
            budget: "48M",
            churn: true,
            // Its first round is 7 s: long enough to be steady alone,
            // too long to repeat.
            cold_starts: 0,
        },
        other => unreachable!("{other} is not a batch workload"),
    }
}

/// One world plus the engine stack built on it.
struct Stack {
    world: Arc<World>,
    engine: Arc<PingEngine>,
}

/// Builds the stack [`SETUP_REPS`] times (dropping each before the
/// next, so the peak RSS is one stack's) and returns the last with the
/// median set-up and world-build times.
fn set_up(shape: &Shape, cfg: &CampaignConfig, budget: MemoryBudget) -> (Stack, f64, f64) {
    let world_cfg = if shape.world_scale == 1.0 {
        WorldConfig::paper_scale()
    } else {
        WorldConfig::scaled(shape.world_scale)
    };
    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut stack = None;
    for _ in 0..SETUP_REPS {
        drop(stack.take());
        let t0 = Instant::now();
        let world = Arc::new(World::build(&world_cfg, WORLD_SEED));
        builds.push(t0.elapsed().as_secs_f64());
        let engine = world.shared().engine_budgeted(cfg.routing, budget);
        setups.push(t0.elapsed().as_secs_f64());
        stack = Some(Stack { world, engine });
    }
    (
        stack.expect("at least one set-up"),
        median(&setups),
        median(&builds),
    )
}

/// The sweep a sweep workload runs over `cfg`: [`SWEEP_SCENARIOS`]
/// campaign seeds from `cfg.seed` up.
fn sweep_config(shape: &Shape, cfg: &CampaignConfig) -> Option<SweepConfig> {
    shape.sweep_jobs_in_flight.map(|jobs| {
        let mut sweep = SweepConfig::from_seeds(cfg, cfg.seed..cfg.seed + SWEEP_SCENARIOS);
        sweep.jobs_in_flight = jobs;
        sweep
    })
}

/// The churn schedule of `campaign_churn_budget`: the first customer
/// link of successive transit ASes goes down one per round from round
/// 1, and the previous round's link comes back from round 2.
fn flap_schedule(world: &World, cfg: &mut CampaignConfig) {
    let links: Vec<(Asn, Asn)> = world
        .topo
        .ases()
        .iter()
        .filter_map(|info| {
            let first = world.topo.adjacency(info.asn).customers.first()?;
            Some((info.asn, *first))
        })
        .take(cfg.rounds as usize)
        .collect();
    for round in 1..cfg.rounds {
        let (a, b) = links[round as usize - 1];
        cfg.churn.add(round, TopologyDelta::LinkDown { a, b });
        if round >= 2 {
            let (a, b) = links[round as usize - 2];
            cfg.churn.add(round, TopologyDelta::LinkUp { a, b });
        }
    }
    cfg.churn
        .validate(&world.topo)
        .expect("links picked from the topology are valid deltas");
}

/// Arrival times of the streamed round summaries, per scenario.
struct Stream {
    start: Instant,
    arrivals: Vec<Vec<f64>>,
    in_order: bool,
    pairs: u64,
    links_planned: u64,
    cases: u64,
}

impl Stream {
    fn new(scenarios: usize) -> Stream {
        Stream {
            start: Instant::now(),
            arrivals: vec![Vec::new(); scenarios],
            in_order: true,
            pairs: 0,
            links_planned: 0,
            cases: 0,
        }
    }

    fn on_round(&mut self, scenario: usize, s: &RoundSummary) {
        let seen = &mut self.arrivals[scenario];
        self.in_order &= s.round as usize == seen.len();
        seen.push(self.start.elapsed().as_secs_f64());
        self.pairs += s.pairs as u64;
        self.links_planned += s.links_planned as u64;
        self.cases += s.cases as u64;
    }

    /// Waits between a scenario's consecutive rounds (the first from
    /// the start), ms.
    fn gaps_ms(&self) -> Vec<f64> {
        self.arrivals
            .iter()
            .flat_map(|a| {
                std::iter::once(0.0)
                    .chain(a.iter().copied())
                    .zip(a.iter().copied())
                    .map(|(prev, at)| (at - prev) * 1e3)
            })
            .collect()
    }

    fn first_round_s(&self) -> f64 {
        self.arrivals
            .iter()
            .filter_map(|a| a.first().copied())
            .fold(f64::INFINITY, f64::min)
    }

    fn rounds(&self) -> u64 {
        self.arrivals.iter().map(|a| a.len() as u64).sum()
    }
}

/// What one pass (untraced or traced) produced.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    stream: Stream,
    total_cases: u64,
    csv_bytes: u64,
    /// Digest of each scenario's `cases.csv`, in scenario order.
    cases_digests: Vec<u64>,
    /// `cases.csv` has one row per case plus the header, every scenario.
    csv_rows_ok: bool,
    stats: EngineStats,
}

/// `Router::precompute` under a span; returns how many tables it built.
fn traced_precompute(engine: &PingEngine, tracer: &Tracer, dsts: &[Asn]) -> u64 {
    let before = engine.router().cached_tables();
    tracer.time("topology.routing.precompute", NONE, || {
        engine.router().precompute(dsts)
    });
    (engine.router().cached_tables() - before) as u64
}

/// The five report CSVs `colo-shortcuts campaign` writes, in memory,
/// `cases.csv` first.
fn render_campaign(results: &CampaignResults) -> Vec<String> {
    let improvement = ImprovementAnalysis::compute(results);
    let tops: Vec<TopRelayAnalysis> = RelayType::ALL
        .iter()
        .map(|&t| TopRelayAnalysis::compute(results, t, 200))
        .collect();
    let xs: Vec<f64> = (0..=20).map(|i| f64::from(i) * 5.0).collect();
    let mut curves = Vec::new();
    for t in RelayType::ALL {
        curves.push(ThresholdCurve::compute(results, t, Some(10), &xs));
        curves.push(ThresholdCurve::compute(results, t, None, &xs));
    }
    vec![
        report::cases_csv(results),
        report::improvement_csv(&improvement),
        report::top_relays_csv(&tops),
        report::threshold_csv(&curves),
        report::funnel_csv(&results.colo_pool.funnel),
    ]
}

/// What `colo-shortcuts sweep` writes: `cases_<label>.csv` per
/// scenario, then the comparison table.
fn render_sweep(report: &SweepReport) -> Vec<String> {
    let mut csvs: Vec<String> = report
        .scenarios
        .iter()
        .map(|sc| report::cases_csv(&sc.results))
        .collect();
    csvs.push(report.comparison_csv());
    csvs
}

impl Pass {
    /// Closes a pass: `csvs` holds the scenarios' `cases.csv` first.
    fn finish(
        stream: Stream,
        cpu0: f64,
        scenario_cases: &[u64],
        csvs: &[String],
        engine: &PingEngine,
    ) -> Pass {
        let wall_s = stream.start.elapsed().as_secs_f64();
        let cases_csvs = &csvs[..scenario_cases.len()];
        Pass {
            wall_s,
            cpu_s: cpu_seconds() - cpu0,
            stream,
            total_cases: scenario_cases.iter().sum(),
            csv_bytes: csvs.iter().map(|c| c.len() as u64).sum(),
            cases_digests: cases_csvs.iter().map(|c| digest(c.as_bytes())).collect(),
            csv_rows_ok: cases_csvs
                .iter()
                .zip(scenario_cases)
                .all(|(csv, &n)| csv.lines().count() as u64 == n + 1),
            stats: engine.engine_stats(),
        }
    }
}

fn untraced_campaign(stack: &Stack, cfg: &CampaignConfig) -> Pass {
    let cpu0 = cpu_seconds();
    let mut stream = Stream::new(1);
    let results = Campaign::new(&stack.world, cfg.clone())
        .run_streaming_on(&stack.engine, |s| stream.on_round(0, s));
    let csvs = render_campaign(&results);
    Pass::finish(
        stream,
        cpu0,
        &[results.total_cases() as u64],
        &csvs,
        &stack.engine,
    )
}

fn untraced_sweep(stack: &Stack, cfg: &SweepConfig) -> Pass {
    let cpu0 = cpu_seconds();
    let mut stream = Stream::new(cfg.scenarios.len());
    let sweep = Sweep::with_engine(
        Arc::clone(&stack.world),
        Arc::clone(&stack.engine),
        cfg.clone(),
    );
    let report = sweep.run_streaming(|scenario, s| stream.on_round(scenario, s));
    let csvs = render_sweep(&report);
    let cases: Vec<u64> = report
        .scenarios
        .iter()
        .map(|sc| sc.results.total_cases() as u64)
        .collect();
    Pass::finish(stream, cpu0, &cases, &csvs, &stack.engine)
}

/// One pass of the program's own loop, as the CLI runs it.
fn untraced_pass(stack: &Stack, cfg: &CampaignConfig, sweep: Option<&SweepConfig>) -> Pass {
    match sweep {
        Some(sweep) => untraced_sweep(stack, sweep),
        None => untraced_campaign(stack, cfg),
    }
}

/// Times to the first streamed result of `shape.cold_starts` one-round
/// runs of the workload, each on a fresh engine, before the timed pass.
/// The first carries the process past its start, where one first round
/// in four reads up to a third longer than anywhere later in the same
/// process (README, "cold starts"), and is dropped; the rest are samples
/// of `first_round_s` besides the timed pass's own.
fn cold_starts(shape: &Shape, world: &Arc<World>, cfg: &CampaignConfig) -> Vec<f64> {
    let mut one_round = cfg.clone();
    one_round.rounds = 1;
    let sweep = sweep_config(shape, &one_round);
    (0..shape.cold_starts)
        .map(|_| {
            let stack = Stack {
                world: Arc::clone(world),
                engine: world.shared().engine_budgeted(cfg.routing, cfg.memory),
            };
            untraced_pass(&stack, &one_round, sweep.as_ref())
                .stream
                .first_round_s()
        })
        .skip(1)
        .collect()
}

/// Per-window timings of one `(round, kind)` stage, aggregated without
/// a lock: the scheduler calls `measure` about a million times a run.
struct StageWindows {
    first_start_ns: AtomicU64,
    last_end_ns: AtomicU64,
    busy_ns: AtomicU64,
}

/// A [`MeasurementBackend`] that times every call into the backend it
/// wraps: `prepare` is pair resolution, `measure`/`measure_batch` is
/// sampling, `apply_delta` is churn. The campaign loop only ever calls
/// `measure_batch`, which resolves and samples in one go; to split the
/// two from outside, the wrapper resolves the stage through `prepare`
/// first, so the inner `measure_batch` finds every pair cached and what
/// it takes is sampling (plus one warm lookup per pair).
struct TimedBackend<'t, B> {
    inner: B,
    tracer: &'t Tracer,
    /// Indexed by `round * 3 + kind`.
    windows: Vec<StageWindows>,
}

fn kind_index(kind: TaskKind) -> usize {
    match kind {
        TaskKind::Direct => 0,
        TaskKind::Reverse => 1,
        TaskKind::Overlay => 2,
    }
}

impl<'t, B: MeasurementBackend> TimedBackend<'t, B> {
    fn new(inner: B, tracer: &'t Tracer, rounds: u32) -> Self {
        TimedBackend {
            inner,
            tracer,
            windows: (0..rounds * 3)
                .map(|_| StageWindows {
                    first_start_ns: AtomicU64::new(u64::MAX),
                    last_end_ns: AtomicU64::new(0),
                    busy_ns: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Time spent inside per-window `measure` calls, seconds.
    fn window_busy_s(&self) -> f64 {
        self.windows
            .iter()
            .map(|w| w.busy_ns.load(Ordering::Relaxed))
            .sum::<u64>() as f64
            / 1e9
    }

    /// Records each stage's windows as one span (first window start to
    /// last window end) under `parent`, so the trace shows when the
    /// scheduler's workers were sampling.
    fn record_window_stages(&self, parent: u32) {
        for (i, w) in self.windows.iter().enumerate() {
            let start = w.first_start_ns.load(Ordering::Relaxed);
            let end = w.last_end_ns.load(Ordering::Relaxed);
            if end > start {
                self.tracer
                    .record("netsim.sample.stage", (i / 3) as u32, parent, start, end);
            }
        }
    }
}

impl<B: MeasurementBackend> MeasurementBackend for TimedBackend<'_, B> {
    fn measure(&self, task: &MeasureTask) -> Option<f64> {
        let start = self.tracer.now_ns();
        let median = self.inner.measure(task);
        let end = self.tracer.now_ns();
        let w = &self.windows[task.round as usize * 3 + kind_index(task.kind)];
        w.first_start_ns.fetch_min(start, Ordering::Relaxed);
        w.last_end_ns.fetch_max(end, Ordering::Relaxed);
        w.busy_ns.fetch_add(end - start, Ordering::Relaxed);
        median
    }

    fn pings_sent(&self) -> u64 {
        self.inner.pings_sent()
    }

    fn apply_delta(&self, batch: &[TopologyDelta]) {
        self.tracer.time("topology.repair.apply_delta", NONE, || {
            self.inner.apply_delta(batch)
        });
    }

    fn prepare(&self, tasks: &[MeasureTask]) {
        let round = tasks.first().map_or(NONE, |t| t.round);
        self.tracer
            .time("netsim.resolve_pairs", round, || self.inner.prepare(tasks));
    }

    fn measure_batch(&self, tasks: &[MeasureTask], parallel: bool) -> Vec<Option<f64>> {
        let round = tasks.first().map_or(NONE, |t| t.round);
        self.prepare(tasks);
        self.tracer.time("netsim.sample", round, || {
            self.inner.measure_batch(tasks, parallel)
        })
    }
}

/// `workflow::Campaign::run_streaming_on` + `run_rounds` for the
/// `Serial`/`Parallel` modes, call for call, with a span around each.
fn traced_campaign(stack: &Stack, cfg: &CampaignConfig, tracer: &Tracer) -> (Pass, Outside) {
    let world: &World = &stack.world;
    let cpu0 = cpu_seconds();
    let mut stream = Stream::new(1);
    let run = tracer.span("run", NONE);

    let handle = PingHandle::with_faults(Arc::clone(&stack.engine), cfg.faults.clone());
    let setup = tracer.time("core.select", NONE, || {
        CampaignSetup::prepare(world, &handle, cfg)
    });
    let outside = Outside {
        warmed_tables: traced_precompute(&stack.engine, tracer, &setup.warmup()),
        ..Outside::default()
    };
    let backend = TimedBackend::new(
        NetsimBackend::new(handle, cfg.window, cfg.seed),
        tracer,
        cfg.rounds,
    );

    let mut builder = ResultsBuilder::new();
    for (start, end, batch) in cfg.churn.segments(cfg.rounds) {
        if !batch.is_empty() {
            backend.apply_delta(batch);
        }
        for round in start..end {
            let _round = tracer.span("round", round);
            let plan = tracer.time("core.plan", round, || {
                plan_round_for(world, &setup.endpoints, &setup.relays, cfg, round)
            });
            let tasks = tracer.time("core.tasks", round, || plan.direct_tasks());
            let direct = execute(&backend, &tasks, cfg.exec);
            let tasks = tracer.time("core.tasks", round, || plan.reverse_tasks(&direct));
            let reverse = execute(&backend, &tasks, cfg.exec);
            let overlay = tracer.time("core.plan_overlay", round, || plan_overlay(&plan, &direct));
            let tasks = tracer.time("core.tasks", round, || overlay.link_tasks(&plan));
            let links = execute(&backend, &tasks, cfg.exec);
            let summary = tracer.time("core.stitch.absorb", round, || {
                builder.absorb_round(&plan, &overlay, &direct, &reverse, &links)
            });
            stream.on_round(0, &summary);
        }
    }
    let results = tracer.time("core.stitch.finish", NONE, || {
        builder.finish(setup.colo, backend.pings_sent())
    });
    let csvs = tracer.time("core.report.render", NONE, || render_campaign(&results));
    drop(run);
    let pass = Pass::finish(
        stream,
        cpu0,
        &[results.total_cases() as u64],
        &csvs,
        &stack.engine,
    );
    (pass, outside)
}

/// What a traced pass learns besides its spans: how many tables the
/// warmup built, and (sweep) the scheduler seen from outside.
#[derive(Default)]
struct Outside {
    warmed_tables: u64,
    prepare_s: f64,
    wall_s: f64,
    job_latencies_ms: Vec<f64>,
    window_busy_s: f64,
}

/// `sweep::Sweep::run_streaming`, call for call: per-scenario selection
/// through per-scenario handles, one union warmup, then every
/// `(scenario, round)` job through `shard::run_interleaved`. The
/// program prepares scenarios data-parallel; the ledger does it one
/// after another, which changes when that work runs, not how much.
fn traced_sweep(stack: &Stack, cfg: &SweepConfig, tracer: &Tracer) -> (Pass, Outside) {
    let world: &World = &stack.world;
    let engine = &stack.engine;
    let scenarios = &cfg.scenarios;
    let cpu0 = cpu_seconds();
    let mut stream = Stream::new(scenarios.len());
    let mut shard = Outside::default();
    let run = tracer.span("run", NONE);

    let mut setups = Vec::new();
    let mut backends = Vec::new();
    for sc in scenarios {
        let handle = PingHandle::with_faults(Arc::clone(engine), sc.config.faults.clone());
        setups.push(tracer.time("core.select", NONE, || {
            CampaignSetup::prepare(world, &handle, &sc.config)
        }));
        backends.push(TimedBackend::new(
            NetsimBackend::new(handle, sc.config.window, sc.config.seed),
            tracer,
            sc.config.rounds,
        ));
    }
    let mut seen = BTreeSet::new();
    let union: Vec<Asn> = setups
        .iter()
        .flat_map(|s| s.warmup())
        .filter(|&a| seen.insert(a))
        .collect();
    shard.warmed_tables = traced_precompute(engine, tracer, &union);
    shard.prepare_s = stream.start.elapsed().as_secs_f64();

    let rounds: Vec<u32> = scenarios.iter().map(|s| s.config.rounds).collect();
    let max_rounds = rounds.iter().copied().max().unwrap_or(0) as usize;
    let job_started: Vec<AtomicU64> = (0..scenarios.len() * max_rounds)
        .map(|_| AtomicU64::new(0))
        .collect();
    let backend_refs: Vec<&TimedBackend<'_, NetsimBackend>> = backends.iter().collect();
    let mut builders: Vec<ResultsBuilder> =
        scenarios.iter().map(|_| ResultsBuilder::new()).collect();
    let mut reorder: Vec<RoundReorder> = scenarios.iter().map(|_| RoundReorder::new()).collect();

    let shard_span = tracer.span("core.shard.run", NONE);
    // The scheduler's workers call the planner and the backends from
    // their own threads; those spans belong under this call.
    tracer.adopt_under(shard_span.id());
    run_interleaved(
        &backend_refs,
        &rounds,
        cfg.jobs_in_flight,
        |campaign, round| {
            job_started[campaign as usize * max_rounds + round as usize]
                .store(tracer.now_ns(), Ordering::Relaxed);
            tracer.time("core.plan", round, || {
                let setup = &setups[campaign as usize];
                plan_round_for(
                    world,
                    &setup.endpoints,
                    &setup.relays,
                    &scenarios[campaign as usize].config,
                    round,
                )
            })
        },
        |campaign, done| {
            let c = campaign as usize;
            let round = done.plan.round;
            let started = job_started[c * max_rounds + round as usize].load(Ordering::Relaxed);
            shard
                .job_latencies_ms
                .push((tracer.now_ns() - started) as f64 / 1e6);
            let summary = tracer.time("core.stitch.absorb", round, || {
                builders[c].absorb_round(
                    &done.plan,
                    &done.overlay,
                    &done.direct,
                    &done.reverse,
                    &done.links,
                )
            });
            reorder[c].push(summary, |s| stream.on_round(c, s));
        },
    );
    tracer.adopt_under(NONE);
    let shard_id = shard_span.id();
    drop(shard_span);
    shard.wall_s = stream.start.elapsed().as_secs_f64() - shard.prepare_s;
    for backend in &backends {
        backend.record_window_stages(shard_id);
        shard.window_busy_s += backend.window_busy_s();
    }

    let mut report = SweepReport {
        scenarios: Vec::new(),
    };
    for ((sc, builder), (setup, backend)) in scenarios
        .iter()
        .zip(builders)
        .zip(setups.into_iter().zip(&backends))
    {
        report.scenarios.push(ScenarioResults {
            label: sc.label.clone(),
            seed: sc.config.seed,
            results: tracer.time("core.stitch.finish", NONE, || {
                builder.finish(setup.colo, backend.pings_sent())
            }),
        });
    }
    let csvs = tracer.time("core.report.render", NONE, || render_sweep(&report));
    drop(run);
    let cases: Vec<u64> = report
        .scenarios
        .iter()
        .map(|sc| sc.results.total_cases() as u64)
        .collect();
    (Pass::finish(stream, cpu0, &cases, &csvs, engine), shard)
}

/// Worker threads the `core::shard` scheduler spawns: the vendored
/// rayon's `current_num_threads`, which the ledger cannot call (rayon
/// is not among its dependencies).
fn scheduler_workers() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .or_else(|| std::thread::available_parallelism().ok().map(usize::from))
        .unwrap_or(1)
}

/// Steps and structural gates every pass must meet.
fn check_pass(gates: &mut Gates, which: &str, pass: &Pass, expected_rounds: u64) {
    gates.steps(
        &format!("{which}_rounds"),
        expected_rounds,
        pass.stream.rounds(),
    );
    gates.check(&format!("{which}_rounds_in_order"), pass.stream.in_order);
    gates.check(
        &format!("{which}_summaries_add_up"),
        pass.total_cases > 0 && pass.stream.cases == pass.total_cases,
    );
    gates.check(&format!("{which}_csv_rows"), pass.csv_rows_ok);
    for (i, d) in pass.cases_digests.iter().enumerate() {
        gates.note(format!("digest {which} cases[{i}] {d:016x}"));
    }
}

/// The per-layer metrics of a `--trace 1` run: counters from the
/// untraced pass, timings from the traced pass's spans.
fn layer_metrics(
    m: &mut Metrics,
    untraced: &Pass,
    traced: &Pass,
    outside: &Outside,
    spans: &[trace::SpanRec],
    is_sweep: bool,
) {
    let st = untraced.stats;
    let total = |name: &str| trace::total_s(spans, name);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let resolve_s = total("netsim.resolve_pairs");
    let sample_s = total("netsim.sample") + outside.window_busy_s;
    let precompute_s = total("topology.routing.precompute");
    let worker_busy_s = total("core.plan") + resolve_s + outside.window_busy_s;
    let job_latency_s: f64 = outside.job_latencies_ms.iter().sum::<f64>() / 1e3;

    engine_counter_metrics(m, &st);
    m.insert("core.select.busy_s", total("core.select"));
    m.insert("core.sweep.prepare_s", outside.prepare_s);
    m.insert("topology.routing.precompute_s", precompute_s);
    m.insert(
        "topology.routing.us_per_table",
        ratio(precompute_s * 1e6, outside.warmed_tables as f64),
    );
    m.insert("core.plan.busy_s", total("core.plan"));
    m.insert(
        "core.plan.windows",
        (untraced.stream.pairs + untraced.stream.links_planned) as f64,
    );
    m.insert("core.tasks.build_s", total("core.tasks"));
    m.insert("core.plan_overlay.busy_s", total("core.plan_overlay"));
    m.insert(
        "core.plan_overlay.links",
        untraced.stream.links_planned as f64,
    );
    m.insert("netsim.resolve_pairs.busy_s", resolve_s);
    m.insert(
        "netsim.resolve_pairs.us_per_miss",
        ratio(resolve_s * 1e6, st.pair_cache_misses as f64),
    );
    m.insert("netsim.sample.busy_s", sample_s);
    m.insert(
        "netsim.sample.ns_per_ping",
        ratio(sample_s * 1e9, st.pings_sent as f64),
    );
    m.insert("core.stitch.absorb_s", total("core.stitch.absorb"));
    m.insert("core.stitch.finish_s", total("core.stitch.finish"));
    m.insert("core.stitch.cases", untraced.total_cases as f64);
    m.insert("core.report.render_s", total("core.report.render"));
    m.insert("core.report.csv_bytes", untraced.csv_bytes as f64);
    m.insert("core.shard.job_p50_ms", p50(&outside.job_latencies_ms));
    m.insert(
        "core.shard.self_s",
        if is_sweep {
            job_latency_s - worker_busy_s
        } else {
            0.0
        },
    );
    m.insert(
        "core.shard.worker_busy_share",
        ratio(worker_busy_s, scheduler_workers() as f64 * outside.wall_s),
    );
    m.insert("core.cores_used", ratio(untraced.cpu_s, untraced.wall_s));
    m.insert(
        "topology.repair.apply_delta_s",
        total("topology.repair.apply_delta"),
    );
    m.insert(
        "core.attributed_share",
        trace::attributed_share(spans, traced.wall_s),
    );
    m.insert(
        "ledger.trace_overhead_share",
        traced.wall_s / untraced.wall_s - 1.0,
    );
    m.insert(
        "ledger.step_samples",
        untraced.stream.gaps_ms().len() as f64,
    );
    // No service runs in a batch workload.
    zero_fill(m, |name| {
        name.starts_with("service.") || name.starts_with("session")
    });
}

/// Runs one batch workload once and measures it.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<&Path>,
) -> Outcome {
    let shape = shape(workload);
    let mut cfg = CampaignConfig::paper();
    // A flap needs a round to go down in and one to come back in, however
    // short a smoke run asks to be.
    cfg.rounds = scaled(shape.rounds, seconds).max(if shape.churn { 3 } else { 1 });
    cfg.seed = seed;
    cfg.memory = MemoryBudget::parse(shape.budget).expect("budget constants parse");
    let sweep_cfg = sweep_config(&shape, &cfg);
    let scenarios = sweep_cfg.as_ref().map_or(1, |s| s.scenarios.len() as u64);
    let expected_rounds = scenarios * u64::from(cfg.rounds);

    // An untraced run must not pay for telemetry, whatever the
    // environment says. A traced run turns it on for its first pass,
    // which is the program's own loop: what its own stage spans cover
    // is read there, where they all exist.
    let tele = telemetry::global();
    tele.set_enabled(false);
    let (stack, setup_s, world_build_s) = set_up(&shape, &cfg, cfg.memory);
    // A traced run reports no `first_round_s`.
    let mut first_rounds = if trace {
        Vec::new()
    } else {
        cold_starts(&shape, &stack.world, &cfg)
    };
    if shape.churn {
        flap_schedule(&stack.world, &mut cfg);
    }
    let own_spans = StageProbe::start();
    tele.set_enabled(trace);

    let untraced = untraced_pass(&stack, &cfg, sweep_cfg.as_ref());
    first_rounds.push(untraced.stream.first_round_s());
    let mut gates = Gates::default();
    check_pass(&mut gates, "untraced", &untraced, expected_rounds);
    let st = untraced.stats;
    if shape.churn {
        gates.check(
            "budget_and_churn_engaged",
            st.router_recomputes > 0
                && st.pair_evictions > 0
                && st.tables_repaired + st.full_rebuilds > 0,
        );
    } else {
        // `router_recomputes` is left out: two threads missing one cold
        // table at once (the sweep's parallel selection phase) can count
        // a recompute although nothing was ever evicted.
        gates.check(
            "no_eviction_or_repair",
            [
                st.router_evictions,
                st.pair_evictions,
                st.tables_repaired,
                st.entries_rescanned,
                st.full_rebuilds,
                st.pair_revalidated,
            ]
            .iter()
            .all(|&c| c == 0),
        );
    }

    let mut m = Metrics::new();
    if !trace {
        gates.note(format!(
            "samples first_round_s {:.4?} (cold starts after the warm-up, then the timed pass)",
            first_rounds
        ));
        m.insert("setup_s", setup_s);
        m.insert("wall_s", untraced.wall_s);
        m.insert("first_round_s", median(&first_rounds));
        m.insert("cpu_s", untraced.cpu_s);
        m.insert("step_p50_ms", p50(&untraced.stream.gaps_ms()));
        m.insert("peak_rss_mb", peak_rss_mib());
        return Outcome { metrics: m, gates };
    }
    own_spans.finish(untraced.wall_s, &mut m);
    tele.set_enabled(false);

    // --- traced pass: fresh engine, same world, the ledger's spans ---
    // The churn workload's traced pass runs unbudgeted, so its digest
    // gate also proves that budgets never change bytes.
    drop(stack.engine);
    let stack = Stack {
        engine: stack
            .world
            .shared()
            .engine_budgeted(cfg.routing, MemoryBudget::unbounded()),
        world: stack.world,
    };
    let tracer = Tracer::new();
    let (traced, outside) = match &sweep_cfg {
        Some(sweep) => traced_sweep(&stack, sweep, &tracer),
        None => traced_campaign(&stack, &cfg, &tracer),
    };

    check_pass(&mut gates, "traced", &traced, expected_rounds);
    gates.check(
        "traced_digest_equals_untraced",
        traced.cases_digests == untraced.cases_digests,
    );
    if let Some(sweep) = &sweep_cfg {
        // One scenario of the sweep against a solo campaign of its seed.
        let solo = Campaign::new(&stack.world, sweep.scenarios[0].config.clone()).run();
        gates.check(
            "sweep_scenario_equals_solo_campaign",
            digest(report::cases_csv(&solo).as_bytes()) == untraced.cases_digests[0],
        );
    }

    let spans = tracer.snapshot();
    trace::report(&spans, workload, trace_out, traced.wall_s, &mut gates);
    m.insert("core.world.build_s", world_build_s);
    layer_metrics(
        &mut m,
        &untraced,
        &traced,
        &outside,
        &spans,
        sweep_cfg.is_some(),
    );
    m.insert("failed_share", gates.failed_share());
    Outcome { metrics: m, gates }
}
