//! Cross-campaign scenario sweeps on one shared world.
//!
//! The paper's result is one point in a large parameter space — seeds,
//! round counts, fault scenarios, endpoint cutoffs, window shapes. A
//! [`Sweep`] evaluates many such `(seed, CampaignConfig)` scenarios
//! **concurrently on one world**, sharing everything that is a world
//! fact rather than a campaign fact:
//!
//! - **One engine** ([`shortcuts_netsim::PingEngine`]): the pair cache
//!   (deterministic path facts per site pair) is shared, so a pair two
//!   scenarios both visit is expanded once, not once per scenario.
//! - **One router** ([`shortcuts_topology::routing::Router`]): the
//!   destination-table cache is warmed **once** with the union of all
//!   scenarios' destinations, data-parallel, before any round runs.
//! - **One worker pool**: the [`crate::shard::run_interleaved`]
//!   scheduler keeps `(campaign, round)` jobs from every scenario in
//!   flight together, so a stage barrier in one scenario never idles a
//!   core — it measures another scenario's windows instead.
//!
//! What stays strictly per-scenario is exactly what identifies a
//! campaign: its seed (every window's RNG derives from
//! `(campaign_seed, round, src, dst, kind)`), its fault plan and its
//! ping accounting (both carried by the scenario's private
//! [`shortcuts_netsim::PingHandle`]), its §2.1/§2.2/§2.3 selection
//! (run through that handle by [`CampaignSetup::prepare`], the same
//! code path a solo run uses), and its [`crate::stitch::ResultsBuilder`].
//!
//! The consequence — enforced by the `sweep_equivalence` suite — is
//! the sweep determinism contract: **every scenario of a concurrent
//! sweep is bit-identical to running that `(seed, config)` alone** via
//! [`crate::workflow::Campaign::run_streaming`], down to the CSV
//! bytes, at any `jobs_in_flight` and any worker count. Sharing caches
//! is purely a scheduling/performance choice; cached pair facts and
//! routing tables are deterministic world facts, identical however
//! many campaigns touch them.
//!
//! [`Sweep::run_streaming`] streams a `(scenario, RoundSummary)` per
//! completed round — per scenario in round order, as rounds complete —
//! and [`SweepReport`] carries per-scenario [`CampaignResults`] plus a
//! cross-scenario comparison table of improvement rates
//! ([`SweepReport::comparison_csv`]).
//!
//! **Ownership**: a [`Sweep`] owns its world (`Arc<World>`) and, via
//! [`Sweep::with_engine`], can measure through a caller-pooled shared
//! engine. Neither borrows anything, so a sweep constructed in one
//! scope — a session thread of the `shortcuts_service` server — runs
//! happily after that scope is gone, and many concurrent sessions
//! reuse one warmed pair cache and router table cache.

use crate::analysis::improvement::ImprovementAnalysis;
use crate::relays::RelayType;
use crate::shard::run_interleaved_ranges;
use crate::stitch::{ResultsBuilder, RoundReorder};
use crate::workflow::{CampaignConfig, CampaignResults, CampaignSetup, RoundSummary};
use crate::world::World;
use crate::{NetsimBackend, RoundPlan};
use rayon::prelude::*;
use shortcuts_netsim::{PingEngine, PingHandle};
use shortcuts_topology::{Asn, ChurnSchedule, MemoryBudget};
use std::collections::BTreeSet;
use std::sync::Arc;

/// One scenario of a sweep: a labelled campaign configuration.
#[derive(Debug, Clone)]
pub struct SweepScenario {
    /// Human-readable label (CSV column / CLI output / file names).
    pub label: String,
    /// The campaign to run. `exec` is ignored — the sweep always runs
    /// its own two-level sharded scheduler.
    pub config: CampaignConfig,
}

/// A batch of scenarios to run concurrently on one world.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// The scenarios. All must share one routing policy (the sweep
    /// shares a single router; mixed-policy batches must be split).
    pub scenarios: Vec<SweepScenario>,
    /// Maximum `(campaign, round)` jobs in flight at once across the
    /// whole sweep. Bounds memory (live plans and partial results) and
    /// streaming latency; values a bit above the worker count saturate
    /// typical machines.
    pub jobs_in_flight: usize,
    /// Byte budget for the engine stack the sweep builds when the
    /// caller does not provide one ([`Sweep::new`]). Bounds cache
    /// residency via eviction without changing a single output byte.
    /// Ignored under [`Sweep::with_engine`] — the engine's builder
    /// chose its budget.
    pub memory: MemoryBudget,
    /// Topology churn applied to the **shared** world at round
    /// boundaries, seen by every scenario at once (the sweep shares
    /// one engine, so the world cannot churn per scenario — scenarios
    /// carrying their own [`CampaignConfig::churn`] are rejected).
    /// Deltas permanently advance the engine's epoch, so a churning
    /// sweep must run on a private engine, never a pooled one.
    pub churn: ChurnSchedule,
}

impl SweepConfig {
    /// The most common sweep: one base configuration evaluated under
    /// many seeds. Labels are `seed-<n>`.
    ///
    /// # Panics
    ///
    /// On duplicate seeds: labels (and therefore `cases_<label>.csv`
    /// output files) derive from the seed, so a duplicate would
    /// silently overwrite another scenario's results.
    pub fn from_seeds(base: &CampaignConfig, seeds: impl IntoIterator<Item = u64>) -> Self {
        let mut seen = BTreeSet::new();
        let scenarios = seeds
            .into_iter()
            .map(|seed| {
                assert!(
                    seen.insert(seed),
                    "duplicate sweep seed {seed}: scenario labels derive from the seed, \
                     so its results would overwrite each other"
                );
                let mut config = base.clone();
                config.seed = seed;
                // Churn lives at sweep level (the world is shared);
                // the base config's schedule is lifted there below.
                config.churn = ChurnSchedule::none();
                SweepScenario {
                    label: format!("seed-{seed}"),
                    config,
                }
            })
            .collect();
        SweepConfig {
            scenarios,
            jobs_in_flight: 8,
            memory: base.memory,
            churn: base.churn.clone(),
        }
    }
}

/// One scenario's outcome.
#[derive(Debug)]
pub struct ScenarioResults {
    /// The scenario's label.
    pub label: String,
    /// The scenario's campaign seed.
    pub seed: u64,
    /// Full campaign results — bit-identical to a solo run of the
    /// scenario's `(seed, config)`.
    pub results: CampaignResults,
}

/// Everything a sweep produces: per-scenario results plus the
/// cross-scenario comparison.
#[derive(Debug)]
pub struct SweepReport {
    /// Per-scenario outcomes, in [`SweepConfig::scenarios`] order.
    pub scenarios: Vec<ScenarioResults>,
}

impl SweepReport {
    /// Cross-scenario comparison table: one row per scenario with its
    /// headline §3 numbers — cases, and per relay type the improved
    /// fraction and median improvement — so a parameter sweep reads as
    /// one CSV instead of N separate reports.
    pub fn comparison_csv(&self) -> String {
        let mut out = String::from("scenario,seed,cases");
        for t in RelayType::ALL {
            out.push_str(&format!(
                ",{t}_improved_fraction,{t}_median_improvement_ms",
                t = t.label()
            ));
        }
        out.push('\n');
        for sc in &self.scenarios {
            let imp = ImprovementAnalysis::compute(&sc.results);
            out.push_str(&format!(
                "{},{},{}",
                sc.label,
                sc.seed,
                sc.results.total_cases()
            ));
            for t in RelayType::ALL {
                let ti = imp.for_type(t);
                out.push_str(&format!(
                    ",{:.4},{:.3}",
                    ti.improved_fraction, ti.median_improvement_ms
                ));
            }
            out.push('\n');
        }
        out
    }
}

/// The sweep runner: many campaigns, one world, one engine, one worker
/// pool.
///
/// A sweep **owns** its world (`Arc<World>`) and optionally the shared
/// engine it measures through — no borrowed lifetimes — so a sweep
/// built in one scope (an RPC handler, a session thread) can be handed
/// to another and run long after its creator returned. This is the
/// ownership shape the `shortcuts_service` session server builds on:
/// its [`WorldPool`](../../shortcuts_service/struct.WorldPool.html)
/// hands every session an `Arc<World>` plus a pooled warmed engine,
/// and sessions come and go while both live on.
pub struct Sweep {
    world: Arc<World>,
    /// Shared engine to measure through, if the caller pools one;
    /// otherwise the sweep builds its own private stack.
    engine: Option<Arc<PingEngine>>,
    cfg: SweepConfig,
}

impl Sweep {
    /// Creates a sweep over a world, with a private engine stack.
    ///
    /// # Panics
    ///
    /// If the batch is empty, the scenarios disagree on routing policy
    /// (the sweep shares one router; split mixed-policy batches into
    /// one sweep per policy), or two scenarios share a label (their
    /// outputs — `cases_<label>.csv` — would overwrite each other).
    pub fn new(world: Arc<World>, cfg: SweepConfig) -> Self {
        Self::validate(&cfg);
        Sweep {
            world,
            engine: None,
            cfg,
        }
    }

    /// Creates a sweep that measures through a caller-provided shared
    /// engine — the warmed stack a session server pools per
    /// `(world seed, policy)` — instead of building its own. Results
    /// are bit-identical either way: the engine only caches
    /// deterministic world facts, while faults and ping accounting
    /// stay on per-scenario [`PingHandle`]s.
    ///
    /// # Panics
    ///
    /// As [`Sweep::new`], and additionally if the engine's router
    /// policy differs from the scenarios' routing policy or the
    /// engine was built from a different world (scenario selection
    /// would then plan against hosts the engine cannot resolve).
    pub fn with_engine(world: Arc<World>, engine: Arc<PingEngine>, cfg: SweepConfig) -> Self {
        Self::validate(&cfg);
        assert_eq!(
            engine.router().policy(),
            cfg.scenarios[0].config.routing,
            "shared engine routes under a different policy than the sweep"
        );
        assert!(
            std::ptr::eq(engine.topology(), &*world.topo),
            "shared engine was built from a different world than the sweep"
        );
        Sweep {
            world,
            engine: Some(engine),
            cfg,
        }
    }

    fn validate(cfg: &SweepConfig) {
        assert!(
            !cfg.scenarios.is_empty(),
            "sweep needs at least one scenario"
        );
        let policy = cfg.scenarios[0].config.routing;
        assert!(
            cfg.scenarios.iter().all(|s| s.config.routing == policy),
            "all sweep scenarios must share one routing policy"
        );
        let mut labels = BTreeSet::new();
        for sc in &cfg.scenarios {
            assert!(
                labels.insert(sc.label.as_str()),
                "duplicate scenario label {:?}: its results (cases_<label>.csv) \
                 would overwrite each other",
                sc.label
            );
            assert!(
                sc.config.churn.is_empty(),
                "scenario {:?} carries per-scenario churn, but the sweep shares one \
                 world; set sweep-level churn (SweepConfig::churn) instead",
                sc.label
            );
        }
    }

    /// Runs every scenario to completion.
    pub fn run(&self) -> SweepReport {
        self.run_streaming(|_, _| {})
    }

    /// Runs every scenario, streaming `(scenario index, RoundSummary)`
    /// per completed round — for each scenario in round order, as its
    /// rounds complete. Rounds of different scenarios interleave on
    /// one worker pool, so early rounds of *every* scenario arrive
    /// while later rounds are still measuring.
    pub fn run_streaming<F: FnMut(usize, &RoundSummary)>(&self, mut on_round: F) -> SweepReport {
        let world: &World = &self.world;
        let scenarios = &self.cfg.scenarios;
        let policy = scenarios[0].config.routing;

        // One engine for the whole sweep: shared topology, host
        // registry, latency model, router table cache and pair cache —
        // the caller's pooled (already warmed) stack if it provided
        // one, a private stack otherwise.
        let engine = match &self.engine {
            Some(e) => Arc::clone(e),
            None => world.shared().engine_budgeted(policy, self.cfg.memory),
        };

        // Per-scenario selection through per-scenario handles — the
        // identical code path (and RNG streams) a solo run uses, so
        // funnels, pools and ping counts match solo runs exactly.
        // Setups are independent (each draws only on its own seeded
        // RNG and deterministic shared caches), so they run
        // data-parallel rather than idling the pool through N
        // sequential funnels.
        let prepared: Vec<(CampaignSetup<'_>, NetsimBackend)> = scenarios
            .par_iter()
            .map(|sc| {
                let handle = PingHandle::with_faults(Arc::clone(&engine), sc.config.faults.clone());
                let setup = CampaignSetup::prepare(world, &handle, &sc.config);
                let backend = NetsimBackend::new(handle, sc.config.window, sc.config.seed);
                (setup, backend)
            })
            .collect();
        let (setups, backends): (Vec<CampaignSetup<'_>>, Vec<NetsimBackend>) =
            prepared.into_iter().unzip();

        // One warmup over the UNION of every scenario's destinations:
        // each table is built exactly once, data-parallel, however
        // many scenarios route toward it. First-seen order preserves
        // each scenario's hottest-first priority, which is what a
        // byte-budgeted router warms before its budget fills.
        let mut seen = BTreeSet::new();
        let union: Vec<Asn> = setups
            .iter()
            .flat_map(|s| s.warmup())
            .filter(|&a| seen.insert(a))
            .collect();
        engine.router().precompute(&union);

        // Two-level schedule: all (scenario, round) jobs on one pool.
        let rounds: Vec<u32> = scenarios.iter().map(|s| s.config.rounds).collect();
        let backend_refs: Vec<&NetsimBackend> = backends.iter().collect();
        let mut builders: Vec<ResultsBuilder> =
            scenarios.iter().map(|_| ResultsBuilder::new()).collect();
        // Observers are promised round order per scenario; jobs
        // complete in any order, so buffer summaries until their turn.
        let mut reorder: Vec<RoundReorder> =
            scenarios.iter().map(|_| RoundReorder::new()).collect();

        let planner = |campaign: u32, round: u32| -> RoundPlan {
            let setup = &setups[campaign as usize];
            crate::plan::plan_round_for(
                world,
                &setup.endpoints,
                &setup.relays,
                &scenarios[campaign as usize].config,
                round,
            )
        };
        // The round loop runs in contiguous segments between the
        // sweep's churn batches; every scenario sees each delta at the
        // same absolute round (clipped to its own round count). Each
        // `run_interleaved_ranges` call is a barrier, so no window of
        // epoch `e` is ever in flight when batch `e+1` mutates the
        // engine. A churn-free schedule yields one full-range segment
        // — the byte-identical classic schedule.
        let max_rounds = rounds.iter().copied().max().unwrap_or(0);
        for (start, end, batch) in self.cfg.churn.segments(max_rounds) {
            if !batch.is_empty() {
                engine.apply_delta(batch);
            }
            let ranges: Vec<(u32, u32)> =
                rounds.iter().map(|&r| (start.min(r), end.min(r))).collect();
            run_interleaved_ranges(
                &backend_refs,
                &ranges,
                self.cfg.jobs_in_flight,
                planner,
                |campaign, done| {
                    let c = campaign as usize;
                    let _span = shortcuts_telemetry::global().span_for(
                        shortcuts_telemetry::Stage::Stitch,
                        campaign,
                        done.plan.round,
                    );
                    let summary = builders[c].absorb_round(
                        &done.plan,
                        &done.overlay,
                        &done.direct,
                        &done.reverse,
                        &done.links,
                    );
                    reorder[c].push(summary, |s| on_round(c, s));
                },
            );
        }

        // Stitch each scenario independently, with its own funnel and
        // its own ping count.
        let mut out = Vec::with_capacity(scenarios.len());
        for ((sc, builder), (setup, backend)) in scenarios
            .iter()
            .zip(builders)
            .zip(setups.into_iter().zip(backends))
        {
            use crate::backend::MeasurementBackend;
            out.push(ScenarioResults {
                label: sc.label.clone(),
                seed: sc.config.seed,
                results: builder.finish(setup.colo, backend.pings_sent()),
            });
        }
        SweepReport { scenarios: out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report;
    use crate::workflow::Campaign;
    use crate::world::WorldConfig;
    use shortcuts_netsim::clock::SimTime;
    use shortcuts_netsim::FaultPlan;

    fn small_cfg(rounds: u32) -> CampaignConfig {
        let mut cfg = CampaignConfig::small();
        cfg.rounds = rounds;
        cfg
    }

    /// Runs `cfg`'s scenarios as sequential solo campaigns, each with
    /// its own engine and caches, in the sweep's report shape.
    fn run_sequential(world: &World, cfg: &SweepConfig) -> SweepReport {
        let scenarios = cfg
            .scenarios
            .iter()
            .map(|sc| ScenarioResults {
                label: sc.label.clone(),
                seed: sc.config.seed,
                results: Campaign::new(world, sc.config.clone()).run(),
            })
            .collect();
        SweepReport { scenarios }
    }

    #[test]
    fn sweep_produces_one_result_per_scenario() {
        let world = Arc::new(World::build(&WorldConfig::small(), 50));
        let cfg = SweepConfig::from_seeds(&small_cfg(2), [2017, 2018, 2019]);
        let report = Sweep::new(Arc::clone(&world), cfg).run();
        assert_eq!(report.scenarios.len(), 3);
        for sc in &report.scenarios {
            assert!(!sc.results.cases.is_empty(), "{}", sc.label);
            assert!(sc.results.pings_sent > 0, "{}", sc.label);
        }
        // Different seeds genuinely differ.
        assert_ne!(
            report.scenarios[0].results.pings_sent,
            report.scenarios[1].results.pings_sent
        );
    }

    #[test]
    fn swept_scenarios_match_solo_runs_bitwise() {
        // The tentpole acceptance check at unit scale: concurrent
        // sweep scenarios produce byte-identical CSVs to solo runs.
        let world = Arc::new(World::build(&WorldConfig::small(), 50));
        let mut cfg = SweepConfig::from_seeds(&small_cfg(2), [2017, 4242]);
        // Heterogeneous round counts too.
        cfg.scenarios[1].config.rounds = 3;
        let sweep = Sweep::new(Arc::clone(&world), cfg.clone()).run();
        for (sc, swept) in cfg.scenarios.iter().zip(&sweep.scenarios) {
            let solo = Campaign::new(&world, sc.config.clone()).run();
            assert_eq!(
                report::cases_csv(&swept.results),
                report::cases_csv(&solo),
                "scenario {} diverged from its solo run",
                sc.label
            );
            assert_eq!(swept.results.pings_sent, solo.pings_sent);
            assert_eq!(swept.results.unresponsive_pairs, solo.unresponsive_pairs);
        }
    }

    #[test]
    fn per_scenario_faults_stay_per_scenario() {
        // Two scenarios, same seed; one has a long outage of a transit
        // AS. The faulty one must lose windows, the clean one must be
        // bit-identical to a solo clean run — no cross-talk through
        // the shared engine.
        let world = Arc::new(World::build(&WorldConfig::small(), 51));
        let clean = small_cfg(1);
        let mut faulty = clean.clone();
        // Black out a tier-1 for the whole campaign.
        let tier1 = world.topo.asns_of_type(shortcuts_topology::AsType::Tier1)[0];
        faulty.faults = FaultPlan::none().with_outage(tier1, SimTime(0.0), SimTime(1e12));
        let cfg = SweepConfig {
            scenarios: vec![
                SweepScenario {
                    label: "clean".into(),
                    config: clean.clone(),
                },
                SweepScenario {
                    label: "tier1-outage".into(),
                    config: faulty,
                },
            ],
            jobs_in_flight: 4,
            memory: MemoryBudget::unbounded(),
            churn: ChurnSchedule::none(),
        };
        let report = Sweep::new(Arc::clone(&world), cfg).run();
        let solo_clean = Campaign::new(&world, clean).run();
        assert_eq!(
            report::cases_csv(&report.scenarios[0].results),
            report::cases_csv(&solo_clean)
        );
        assert!(
            report.scenarios[1].results.unresponsive_pairs
                > report.scenarios[0].results.unresponsive_pairs,
            "the outage scenario should lose pairs"
        );
    }

    #[test]
    fn streaming_emits_rounds_in_order_per_scenario() {
        let world = Arc::new(World::build(&WorldConfig::small(), 50));
        let cfg = SweepConfig::from_seeds(&small_cfg(3), [1, 2]);
        let mut seen: Vec<Vec<u32>> = vec![Vec::new(); 2];
        let report =
            Sweep::new(Arc::clone(&world), cfg).run_streaming(|c, s| seen[c].push(s.round));
        assert_eq!(seen[0], vec![0, 1, 2]);
        assert_eq!(seen[1], vec![0, 1, 2]);
        assert_eq!(report.scenarios.len(), 2);
    }

    #[test]
    fn comparison_csv_has_one_row_per_scenario() {
        let world = Arc::new(World::build(&WorldConfig::small(), 50));
        let cfg = SweepConfig::from_seeds(&small_cfg(1), [7, 8, 9]);
        let report = Sweep::new(Arc::clone(&world), cfg).run();
        let csv = report.comparison_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("scenario,seed,cases,COR_improved_fraction"));
        assert!(lines[1].starts_with("seed-7,7,"));
    }

    #[test]
    fn sequential_baseline_matches_the_sweep() {
        let world = Arc::new(World::build(&WorldConfig::small(), 52));
        let cfg = SweepConfig::from_seeds(&small_cfg(1), [5, 6]);
        let swept = Sweep::new(Arc::clone(&world), cfg.clone()).run();
        let sequential = run_sequential(&world, &cfg);
        for (a, b) in swept.scenarios.iter().zip(&sequential.scenarios) {
            assert_eq!(report::cases_csv(&a.results), report::cases_csv(&b.results));
        }
    }

    #[test]
    #[should_panic(expected = "routing policy")]
    fn mixed_policies_are_rejected() {
        let world = Arc::new(World::build(&WorldConfig::small(), 50));
        let mut cfg = SweepConfig::from_seeds(&small_cfg(1), [1, 2]);
        cfg.scenarios[1].config.routing = shortcuts_topology::routing::RoutingPolicy::ShortestPath;
        let _ = Sweep::new(Arc::clone(&world), cfg);
    }

    #[test]
    #[should_panic(expected = "duplicate sweep seed")]
    fn duplicate_seeds_are_rejected() {
        let _ = SweepConfig::from_seeds(&small_cfg(1), [7, 8, 7]);
    }

    #[test]
    #[should_panic(expected = "duplicate scenario label")]
    fn duplicate_labels_are_rejected() {
        let world = Arc::new(World::build(&WorldConfig::small(), 50));
        let mut cfg = SweepConfig::from_seeds(&small_cfg(1), [1, 2]);
        cfg.scenarios[1].label = cfg.scenarios[0].label.clone();
        let _ = Sweep::new(world, cfg);
    }

    #[test]
    fn sweep_outlives_the_scope_that_created_it() {
        // The service ownership contract: a session thread builds a
        // sweep from pool handles and runs it after the building scope
        // (and its Arc bindings) are gone.
        let sweep = {
            let world = Arc::new(World::build(&WorldConfig::small(), 50));
            let engine = world.shared().engine(Default::default());
            Sweep::with_engine(world, engine, SweepConfig::from_seeds(&small_cfg(1), [3]))
        };
        let report = sweep.run();
        assert_eq!(report.scenarios.len(), 1);
        assert!(!report.scenarios[0].results.cases.is_empty());
    }

    #[test]
    fn pooled_engine_reproduces_private_engine_results() {
        // with_engine is a pure scheduling/caching choice: running two
        // sweeps back to back on ONE engine (second run fully warmed)
        // matches the private-engine run byte for byte.
        let world = Arc::new(World::build(&WorldConfig::small(), 50));
        let cfg = SweepConfig::from_seeds(&small_cfg(2), [2017, 2018]);
        let private = Sweep::new(Arc::clone(&world), cfg.clone()).run();
        let engine = world.shared().engine(Default::default());
        for _ in 0..2 {
            let pooled =
                Sweep::with_engine(Arc::clone(&world), Arc::clone(&engine), cfg.clone()).run();
            for (a, b) in pooled.scenarios.iter().zip(&private.scenarios) {
                assert_eq!(report::cases_csv(&a.results), report::cases_csv(&b.results));
                assert_eq!(a.results.pings_sent, b.results.pings_sent);
            }
        }
        // The pooled engine's health counters saw both runs.
        let stats = engine.engine_stats();
        assert!(stats.pings_sent > 0);
        assert!(stats.router_tables_resident > 0);
        assert!(stats.pair_cache_hits > stats.pair_cache_misses);
    }

    #[test]
    #[should_panic(expected = "different policy")]
    fn engine_policy_mismatch_is_rejected() {
        let world = Arc::new(World::build(&WorldConfig::small(), 50));
        let engine = world
            .shared()
            .engine(shortcuts_topology::routing::RoutingPolicy::ShortestPath);
        let _ = Sweep::with_engine(world, engine, SweepConfig::from_seeds(&small_cfg(1), [1]));
    }
}
