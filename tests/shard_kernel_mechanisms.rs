//! The sharded scheduler's unit of work is a chunk of an opened stage,
//! pinned with counters and recorded calls rather than timings:
//!
//! - a sharded campaign probes the pair cache once per *stage*, like
//!   the `Parallel` round loop — not once more per window;
//! - the scheduler opens every non-empty stage exactly once, with the
//!   whole stage, and hands its chunks the handle that call returned,
//!   in ranges of at most 64 windows that tile the stage;
//! - a backend that knows nothing of stages or chunks (`measure` and
//!   `prepare` only — the shape of the perf ledger's `TimedBackend`)
//!   falls back to window-by-window measurement with the same bits;
//! - so does the scalar oracle.

mod scalar_oracle;

use colo_shortcuts::core::backend::{
    ExecMode, MeasureTask, MeasurementBackend, NetsimBackend, ResolvedStage, TaskKind,
};
use colo_shortcuts::core::plan::plan_round_for;
use colo_shortcuts::core::report::cases_csv;
use colo_shortcuts::core::shard::{run_interleaved, CompletedRound};
use colo_shortcuts::core::workflow::{Campaign, CampaignConfig, CampaignSetup};
use colo_shortcuts::core::world::{World, WorldConfig};
use colo_shortcuts::netsim::{EngineStats, PingHandle};
use scalar_oracle::ScalarOracle;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The scheduler's chunk size (`core::backend::KERNEL_CHUNK`).
const KERNEL_CHUNK: usize = 64;

fn small_world() -> World {
    World::build(&WorldConfig::small(), 77)
}

fn small_config() -> CampaignConfig {
    let mut cfg = CampaignConfig::small();
    cfg.rounds = 2;
    cfg
}

/// The campaign's batched backend over `handle`.
fn netsim(handle: PingHandle, cfg: &CampaignConfig) -> NetsimBackend {
    NetsimBackend::new(handle, cfg.window, cfg.seed)
}

/// The campaign's scalar oracle over `handle`.
fn oracle(handle: PingHandle, cfg: &CampaignConfig) -> ScalarOracle {
    ScalarOracle {
        handle,
        window: cfg.window,
        campaign_seed: cfg.seed,
    }
}

/// Runs `cfg`'s rounds through the scheduler on a fresh engine, with
/// `backend` building the campaign's backend over its handle. Returns
/// the completed rounds in round order and the backend.
fn sharded_rounds<B: MeasurementBackend>(
    world: &World,
    cfg: &CampaignConfig,
    backend: impl FnOnce(PingHandle, &CampaignConfig) -> B,
) -> (Vec<CompletedRound>, B) {
    let engine = world.shared().engine_budgeted(cfg.routing, cfg.memory);
    let handle = PingHandle::with_faults(Arc::clone(&engine), cfg.faults.clone());
    let setup = CampaignSetup::prepare(world, &handle, cfg);
    let backend = backend(handle, cfg);
    let mut done = Vec::new();
    run_interleaved(
        &[&backend],
        &[cfg.rounds],
        2,
        |_, round| plan_round_for(world, &setup.endpoints, &setup.relays, cfg, round),
        |_, r| done.push(r),
    );
    done.sort_by_key(|r| r.plan.round);
    (done, backend)
}

fn bits(v: &[Option<f64>]) -> Vec<Option<u64>> {
    v.iter().map(|m| m.map(f64::to_bits)).collect()
}

fn assert_rounds_bit_identical(a: &[CompletedRound], b: &[CompletedRound], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}");
    for (x, y) in a.iter().zip(b) {
        let round = x.plan.round;
        assert_eq!(round, y.plan.round, "{what}");
        assert!(!x.direct.is_empty() && !x.links.is_empty(), "{what}");
        assert_eq!(
            bits(&x.direct),
            bits(&y.direct),
            "{what}: direct, round {round}"
        );
        assert_eq!(
            bits(&x.reverse),
            bits(&y.reverse),
            "{what}: reverse, round {round}"
        );
        assert_eq!(
            bits(&x.links),
            bits(&y.links),
            "{what}: links, round {round}"
        );
    }
}

#[test]
fn a_sharded_campaign_probes_the_pair_cache_like_the_parallel_loop() {
    let world = small_world();
    let run = |exec: ExecMode| -> (String, EngineStats) {
        let mut cfg = small_config();
        cfg.exec = exec;
        let engine = world.shared().engine_budgeted(cfg.routing, cfg.memory);
        let results = Campaign::new(&world, cfg).run_streaming_on(&engine, |_| {});
        assert!(!results.cases.is_empty());
        (cases_csv(&results), engine.engine_stats())
    };
    let (parallel_csv, parallel) = run(ExecMode::Parallel);
    let (sharded_csv, sharded) = run(ExecMode::Sharded {
        rounds_in_flight: 1,
    });
    assert_eq!(parallel_csv, sharded_csv);
    // With one round in flight both executors resolve the same stages
    // in the same order, so the counters agree exactly. A probe per
    // window on top would show as one extra hit per window.
    assert!(parallel.pair_cache_hits > 0 && parallel.pair_cache_misses > 0);
    assert_eq!(sharded.pair_cache_hits, parallel.pair_cache_hits);
    assert_eq!(sharded.pair_cache_misses, parallel.pair_cache_misses);
    assert_eq!(sharded.pings_sent, parallel.pings_sent);
    assert_eq!(sharded.routes_walked, parallel.routes_walked);
}

/// One `open_stage` call: the stage it saw, the handle it returned (by
/// address) and the chunks measured against it.
struct Opened {
    tasks: Vec<MeasureTask>,
    handle: Option<usize>,
    chunks: Vec<(Range<usize>, Option<usize>)>,
}

/// Forwards both stage calls to the netsim backend and records them,
/// keyed by the stage's `(round, kind)`.
struct Recording {
    inner: NetsimBackend,
    stages: Mutex<BTreeMap<(u32, u8), Opened>>,
}

fn stage_key(tasks: &[MeasureTask]) -> (u32, u8) {
    let kind = match tasks[0].kind {
        TaskKind::Direct => 0,
        TaskKind::Reverse => 1,
        TaskKind::Overlay => 2,
    };
    (tasks[0].round, kind)
}

impl MeasurementBackend for Recording {
    fn measure(&self, task: &MeasureTask) -> Option<f64> {
        self.inner.measure(task)
    }

    fn pings_sent(&self) -> u64 {
        self.inner.pings_sent()
    }

    fn open_stage(&self, tasks: &[MeasureTask]) -> Option<Arc<ResolvedStage>> {
        assert!(!tasks.is_empty(), "an empty stage has nothing to open");
        let stage = self.inner.open_stage(tasks);
        let opened = Opened {
            tasks: tasks.to_vec(),
            handle: stage.as_ref().map(|s| Arc::as_ptr(s) as usize),
            chunks: Vec::new(),
        };
        let twice = self.stages.lock().unwrap().insert(stage_key(tasks), opened);
        assert!(twice.is_none(), "a stage is opened once");
        stage
    }

    fn measure_chunk(
        &self,
        stage: Option<&ResolvedStage>,
        tasks: &[MeasureTask],
        range: Range<usize>,
        out: &mut Vec<Option<f64>>,
    ) {
        let mut stages = self.stages.lock().unwrap();
        let opened = stages
            .get_mut(&stage_key(tasks))
            .expect("a chunk's stage was opened first");
        assert_eq!(opened.tasks, tasks, "a chunk is handed its whole stage");
        opened.chunks.push((
            range.clone(),
            stage.map(|s| s as *const ResolvedStage as usize),
        ));
        drop(stages);
        self.inner.measure_chunk(stage, tasks, range, out);
    }
}

#[test]
fn every_stage_is_opened_once_and_tiled_by_chunks_of_its_handle() {
    let world = small_world();
    let cfg = small_config();
    let (done, backend) = sharded_rounds(&world, &cfg, |handle, cfg| Recording {
        inner: netsim(handle, cfg),
        stages: Mutex::new(BTreeMap::new()),
    });
    let mut stages = backend.stages.into_inner().unwrap();
    let mut big_stages = 0;
    for r in &done {
        let sizes = [r.direct.len(), r.reverse.len(), r.links.len()];
        for (kind, &n) in sizes.iter().enumerate() {
            let Some(mut opened) = stages.remove(&(r.plan.round, kind as u8)) else {
                assert_eq!(n, 0, "a non-empty stage must be opened");
                continue;
            };
            assert_eq!(opened.tasks.len(), n, "open_stage sees the whole stage");
            if n >= 2 {
                assert!(opened.handle.is_some(), "the netsim backend resolves it");
            }
            big_stages += usize::from(n > KERNEL_CHUNK);
            opened.chunks.sort_by_key(|(range, _)| range.start);
            let mut next = 0;
            for (range, handle) in &opened.chunks {
                assert_eq!(range.start, next, "chunks tile the stage without overlap");
                assert!(range.end > range.start && range.len() <= KERNEL_CHUNK);
                assert_eq!(
                    *handle, opened.handle,
                    "a chunk gets its own stage's handle"
                );
                next = range.end;
            }
            assert_eq!(next, n, "chunks cover the stage");
        }
    }
    assert!(stages.is_empty(), "only the rounds' own stages are opened");
    assert!(big_stages > 0, "the world is too small to split a stage");

    // Recording changes nothing.
    let (plain, _) = sharded_rounds(&world, &cfg, netsim);
    assert_rounds_bit_identical(&done, &plain, "recording vs plain");
}

/// `measure` and `prepare`, nothing else: every other trait method is
/// the default.
struct PerWindow {
    inner: NetsimBackend,
    prepared: Mutex<Vec<(u32, u8, usize)>>,
    measured: AtomicU64,
}

impl MeasurementBackend for PerWindow {
    fn measure(&self, task: &MeasureTask) -> Option<f64> {
        self.measured.fetch_add(1, Ordering::Relaxed);
        self.inner.measure(task)
    }

    fn pings_sent(&self) -> u64 {
        self.inner.pings_sent()
    }

    fn prepare(&self, tasks: &[MeasureTask]) {
        let (round, kind) = stage_key(tasks);
        self.prepared
            .lock()
            .unwrap()
            .push((round, kind, tasks.len()));
        self.inner.prepare(tasks);
    }
}

#[test]
fn a_backend_without_stage_methods_measures_window_by_window_with_the_same_bits() {
    let world = small_world();
    let cfg = small_config();
    let (chunked, _) = sharded_rounds(&world, &cfg, netsim);
    let (fallback, backend) = sharded_rounds(&world, &cfg, |handle, cfg| PerWindow {
        inner: netsim(handle, cfg),
        prepared: Mutex::new(Vec::new()),
        measured: AtomicU64::new(0),
    });
    assert_rounds_bit_identical(&chunked, &fallback, "chunk kernel vs per-window fallback");

    // `prepare` still sees every non-empty stage once, whole.
    let mut prepared = backend.prepared.into_inner().unwrap();
    prepared.sort_unstable();
    let mut expected = Vec::new();
    let mut windows = 0;
    for r in &fallback {
        let sizes = [r.direct.len(), r.reverse.len(), r.links.len()];
        for (kind, &n) in sizes.iter().enumerate() {
            windows += n as u64;
            if n > 0 {
                expected.push((r.plan.round, kind as u8, n));
            }
        }
    }
    assert_eq!(prepared, expected);
    assert_eq!(backend.measured.load(Ordering::Relaxed), windows);
}

#[test]
fn the_scalar_oracle_through_the_scheduler_matches_the_chunk_kernel() {
    let world = small_world();
    let cfg = small_config();
    let (chunked, _) = sharded_rounds(&world, &cfg, netsim);
    let (scalar, _) = sharded_rounds(&world, &cfg, oracle);
    assert_rounds_bit_identical(&chunked, &scalar, "chunk kernel vs scalar oracle");
}
