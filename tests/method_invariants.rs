//! The paper's method holds *exactly*, on every world and seed, and
//! these tests say so on small-world campaigns over eight seeds.
//!
//! Each campaign runs through `Campaign::run_rounds` on a backend that
//! records every window it measures, so each case can be rebuilt from
//! the medians the engine produced:
//!
//! - §2.4: the overlay links measured in a round are exactly the
//!   (endpoint, relay) links `is_feasible` admits for some pair, and a
//!   case's `feasible` counts the admitted relays of the type with both
//!   legs measured. The filter is safe: every window median is at or
//!   above its pair's base RTT, and every base RTT at or above the
//!   light floor between the locations the filter uses, so a relay it
//!   excludes can never beat the direct RTT.
//! - §2.5: a best relay's stitched RTT is the sum of its two recorded
//!   leg medians, an improving relay's improvement is the direct RTT
//!   minus that sum, and neither is below the relay's `min_relay_rtt`.
//! - Analyses: each Fig. 4 curve is non-increasing in the threshold,
//!   and its top-10 curve never above the all-relay one; Fig. 3's
//!   `coverage_at(k)` is 0 at k = 0, non-decreasing, at most 1, and
//!   ends at the type's improved share; the cases any type improves
//!   include those COR improves.
//! - Selection: each funnel stage keeps at most what the one before it
//!   kept, and no host is a relay of two types.
//!
//! Only float rounding of at most [`TOL`] ms is forgiven.

use colo_shortcuts::core::analysis::improvement::ImprovementAnalysis;
use colo_shortcuts::core::analysis::threshold::ThresholdCurve;
use colo_shortcuts::core::analysis::top_relays::TopRelayAnalysis;
use colo_shortcuts::core::backend::{
    ExecMode, MeasureTask, MeasurementBackend, NetsimBackend, ResolvedStage, TaskKind,
};
use colo_shortcuts::core::feasibility::{is_feasible, min_relay_rtt};
use colo_shortcuts::core::plan::{plan_round_for, RoundPlan};
use colo_shortcuts::core::relays::{RelayPools, RelayType};
use colo_shortcuts::core::workflow::{
    Campaign, CampaignConfig, CampaignResults, CampaignSetup, Case,
};
use colo_shortcuts::core::world::{World, WorldConfig};
use colo_shortcuts::geo::light::{min_relay_rtt_ms, min_rtt_ms};
use colo_shortcuts::netsim::{HostId, PingEngine, PingHandle};
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};

/// World and campaign seeds: one small world each.
const SEEDS: [u64; 8] = [3, 11, 19, 42, 58, 101, 404, 1234];

/// The only slack an exact relation gets, ms.
const TOL: f64 = 1e-9;

/// Forwards to the netsim backend and records every window it measures.
struct Recording {
    inner: NetsimBackend,
    windows: Mutex<Vec<(MeasureTask, Option<f64>)>>,
}

impl MeasurementBackend for Recording {
    fn measure(&self, task: &MeasureTask) -> Option<f64> {
        let median = self.inner.measure(task);
        self.windows.lock().unwrap().push((*task, median));
        median
    }

    fn pings_sent(&self) -> u64 {
        self.inner.pings_sent()
    }

    fn open_stage(&self, tasks: &[MeasureTask]) -> Option<Arc<ResolvedStage>> {
        self.inner.open_stage(tasks)
    }

    fn measure_chunk(
        &self,
        stage: Option<&ResolvedStage>,
        tasks: &[MeasureTask],
        range: Range<usize>,
        out: &mut Vec<Option<f64>>,
    ) {
        let start = out.len();
        self.inner.measure_chunk(stage, tasks, range.clone(), out);
        let measured = tasks[range]
            .iter()
            .copied()
            .zip(out[start..].iter().copied());
        self.windows.lock().unwrap().extend(measured);
    }
}

/// One recorded round on dense endpoint × relay grids, indexed like
/// its plan.
struct Round {
    plan: RoundPlan,
    /// Each pair's direct median, in pair order.
    direct: Vec<Option<f64>>,
    /// Per (endpoint, relay) cell: the link's median if it was measured.
    legs: Vec<Option<Option<f64>>>,
    /// Per cell: km endpoint → relay and relay → endpoint, the operands
    /// `is_feasible` computes.
    to_relay: Vec<f64>,
    from_relay: Vec<f64>,
}

impl Round {
    fn cell(&self, endpoint: usize, relay: usize) -> usize {
        endpoint * self.plan.relays.len() + relay
    }

    /// `min_relay_rtt` of relay `r` for endpoints `a` and `b`, from the
    /// grid: the filter's arithmetic on the filter's operands.
    fn floor(&self, a: usize, b: usize, r: usize) -> f64 {
        min_relay_rtt_ms(
            self.to_relay[self.cell(a, r)],
            self.from_relay[self.cell(b, r)],
        )
    }

    /// Both legs' medians of relay `r` for endpoints `a` and `b`, if
    /// both were measured and answered.
    fn legs(&self, a: usize, b: usize, r: usize) -> Option<(f64, f64)> {
        let leg = |e| self.legs[self.cell(e, r)].flatten();
        leg(a).zip(leg(b))
    }
}

/// One recorded campaign: what it planned, every window it measured,
/// and what it reported.
struct Run {
    seed: u64,
    engine: Arc<PingEngine>,
    relays: RelayPools,
    rounds: Vec<Round>,
    /// Every measured window: `(round, kind, src, dst, median)`.
    windows: Vec<(u32, TaskKind, HostId, HostId, Option<f64>)>,
    results: CampaignResults,
    /// Each case's pair index in its round's plan, in case order.
    case_pairs: Vec<usize>,
}

impl Run {
    /// Every case with its round and its pair in the round's plan.
    fn cases(&self) -> impl Iterator<Item = (Case<'_>, &Round, usize)> {
        let cases = self.results.cases.iter().zip(&self.case_pairs);
        cases.map(|(c, &pair)| (c, &self.rounds[c.round as usize], pair))
    }
}

/// The eight recorded campaigns, two rounds each, cycling through the
/// three executors.
fn runs() -> &'static [Run] {
    static RUNS: OnceLock<Vec<Run>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let execs = [
            ExecMode::Serial,
            ExecMode::Parallel,
            ExecMode::Sharded {
                rounds_in_flight: 2,
            },
        ];
        (SEEDS.into_iter().zip(execs.into_iter().cycle()))
            .map(|(seed, exec)| record(seed, exec))
            .collect()
    })
}

/// Runs one campaign on the small world of `seed` under `exec`,
/// recording every window.
fn record(seed: u64, exec: ExecMode) -> Run {
    let world = &World::build(&WorldConfig::small(), seed);
    let mut cfg = CampaignConfig::small();
    cfg.rounds = 2;
    cfg.seed = seed;
    cfg.exec = exec;
    let engine = world.shared().engine_budgeted(cfg.routing, cfg.memory);
    let handle = PingHandle::new(Arc::clone(&engine));
    let setup = CampaignSetup::prepare(world, &handle, &cfg);
    engine.router().precompute(&setup.warmup());
    let CampaignSetup {
        colo,
        endpoints,
        relays,
    } = setup;
    let backend = Recording {
        inner: NetsimBackend::new(handle, cfg.window, cfg.seed),
        windows: Mutex::new(Vec::new()),
    };
    let campaign = Campaign::new(world, cfg.clone());
    let results = campaign.run_rounds(&backend, &endpoints, &relays, colo, |_| {});
    let windows: Vec<_> = (backend.windows.into_inner().unwrap().into_iter())
        .map(|(t, median)| (t.round, t.kind, t.src, t.dst, median))
        .collect();
    let mut by_key = HashMap::new();
    for &(round, kind, src, dst, median) in &windows {
        let twice = by_key.insert((round, kind, src, dst), median);
        assert!(
            twice.is_none(),
            "seed {seed}: {kind:?} {src:?}->{dst:?} measured twice"
        );
    }

    let mut rounds = Vec::new();
    let mut case_pairs = Vec::new();
    for round in 0..cfg.rounds {
        let plan = plan_round_for(world, &endpoints, &relays, &cfg, round);
        let direct: Vec<Option<f64>> = (plan.pairs.iter())
            .map(|p| {
                let (a, b) = (plan.endpoints[p.src].host, plan.endpoints[p.dst].host);
                by_key[&(round, TaskKind::Direct, a, b)]
            })
            .collect();
        case_pairs.extend((0..plan.pairs.len()).filter(|&i| direct[i].is_some()));
        let (mut legs, mut to_relay, mut from_relay) = (Vec::new(), Vec::new(), Vec::new());
        for e in &plan.endpoints {
            for r in &plan.relays {
                legs.push(
                    by_key
                        .get(&(round, TaskKind::Overlay, e.host, r.host))
                        .copied(),
                );
                to_relay.push(e.location.distance_km(&r.location));
                from_relay.push(r.location.distance_km(&e.location));
            }
        }
        rounds.push(Round {
            plan,
            direct,
            legs,
            to_relay,
            from_relay,
        });
    }
    assert!(!results.cases.is_empty(), "seed {seed}: no cases");
    assert_eq!(case_pairs.len(), results.total_cases(), "seed {seed}");
    let run = Run {
        seed,
        engine,
        relays,
        rounds,
        windows,
        results,
        case_pairs,
    };
    for (c, round, pair) in run.cases() {
        let p = &round.plan.pairs[pair];
        let hosts = (
            round.plan.endpoints[p.src].host,
            round.plan.endpoints[p.dst].host,
        );
        assert_eq!((c.src, c.dst), hosts, "seed {seed}: cases leave pair order");
        assert_eq!(
            Some(c.direct_ms),
            round.direct[pair],
            "seed {seed}: direct median"
        );
    }
    run
}

/// §2.4: a round measures exactly the overlay links the filter admits
/// for some responsive pair, and `feasible` counts, per case and type,
/// the admitted relays with both legs measured. An excluded relay whose
/// legs happen to be measured for other pairs never beats the direct
/// RTT.
#[test]
fn the_filter_measures_exactly_the_relays_it_admits() {
    for run in runs() {
        let seed = run.seed;
        for round in &run.rounds {
            let plan = &round.plan;
            let mut admitted = vec![false; round.legs.len()];
            for (p, direct) in plan.pairs.iter().zip(&round.direct) {
                let Some(direct) = *direct else { continue };
                let (a, b) = (&plan.endpoints[p.src], &plan.endpoints[p.dst]);
                for (ri, r) in plan.relays.iter().enumerate() {
                    let admits = round.floor(p.src, p.dst, ri) <= direct;
                    if p.src == 0 {
                        // The grid's arithmetic is the filter's, bit for bit.
                        let want = is_feasible(&a.location, &b.location, &r.location, direct);
                        assert_eq!(admits, want, "seed {seed}: grid vs is_feasible");
                    }
                    if admits {
                        admitted[round.cell(p.src, ri)] = true;
                        admitted[round.cell(p.dst, ri)] = true;
                    }
                }
            }
            for (cell, (&want, got)) in admitted.iter().zip(&round.legs).enumerate() {
                let (e, r) = (cell / plan.relays.len(), cell % plan.relays.len());
                assert_eq!(
                    got.is_some(),
                    want,
                    "seed {seed} round {}: link {:?}->{:?} measured {}, admitted {want}",
                    plan.round,
                    plan.endpoints[e].host,
                    plan.relays[r].host,
                    got.is_some()
                );
            }
            // And no overlay window off the grid.
            let overlay = (run.windows.iter())
                .filter(|&&(r, kind, ..)| r == plan.round && kind == TaskKind::Overlay)
                .count();
            let on_grid = round.legs.iter().flatten().count();
            assert_eq!(overlay, on_grid, "seed {seed} round {}", plan.round);
        }

        for (c, round, pair) in run.cases() {
            let p = &round.plan.pairs[pair];
            let mut feasible = [0u32; 4];
            for (ri, r) in round.plan.relays.iter().enumerate() {
                let admits = round.floor(p.src, p.dst, ri) <= c.direct_ms;
                match round.legs(p.src, p.dst, ri) {
                    Some(_) if admits => feasible[r.rtype.index()] += 1,
                    Some((l1, l2)) => assert!(
                        l1 + l2 > c.direct_ms - TOL,
                        "seed {seed}: excluded relay {:?} beats the direct {} ms with {} ms",
                        r.host,
                        c.direct_ms,
                        l1 + l2
                    ),
                    None => {}
                }
            }
            for t in RelayType::ALL {
                assert_eq!(
                    c.outcome(t).feasible,
                    feasible[t.index()],
                    "seed {seed} round {} {:?}->{:?} {t}",
                    c.round,
                    c.src,
                    c.dst
                );
            }
        }
    }
}

/// Every measured window's median is at or above its host pair's base
/// RTT, and every base RTT at or above the light floor between the
/// locations the filter uses. With `min_relay_rtt` the sum of two such
/// floors, no relay the filter excludes can beat the direct RTT.
#[test]
fn medians_sit_above_base_rtts_and_base_rtts_above_the_light_floor() {
    for run in runs() {
        let locations: Vec<HashMap<_, _>> = (run.rounds.iter())
            .map(|round| {
                let endpoints = round.plan.endpoints.iter().map(|e| (e.host, e.location));
                let relays = round.plan.relays.iter().map(|r| (r.host, r.location));
                endpoints.chain(relays).collect()
            })
            .collect();
        let mut checked = 0;
        for &(round, kind, src, dst, median) in &run.windows {
            let Some(median) = median else { continue };
            let what = format!("seed {} round {round} {kind:?} {src:?}->{dst:?}", run.seed);
            let base = (run.engine.base_rtt(src, dst))
                .unwrap_or_else(|| panic!("{what}: a median but no route"));
            assert!(
                median >= base - TOL,
                "{what}: median {median} < base {base}"
            );
            let loc = &locations[round as usize];
            let floor = min_rtt_ms(loc[&src].distance_km(&loc[&dst]));
            assert!(
                base >= floor - TOL,
                "{what}: base {base} < light floor {floor}"
            );
            checked += 1;
        }
        assert!(checked > 1000, "seed {}: only {checked} windows", run.seed);
    }
}

/// §2.5: per case and type, the best relay is the first lowest sum of
/// two recorded leg medians over the admitted relays, and the improving
/// relays are exactly those whose sum beats the direct RTT, in relay
/// order, each with the direct RTT minus its sum. No stitched RTT is
/// below its relay's `min_relay_rtt`.
#[test]
fn stitched_rtts_are_sums_of_the_recorded_leg_medians() {
    let mut improving = 0;
    for run in runs() {
        for (c, round, pair) in run.cases() {
            let (p, plan) = (&round.plan.pairs[pair], &round.plan);
            let what = format!(
                "seed {} round {} {:?}->{:?}",
                run.seed, c.round, c.src, c.dst
            );
            let mut best: [Option<(usize, f64)>; 4] = [None; 4];
            let mut want_improving: [Vec<(HostId, f32)>; 4] = Default::default();
            for (ri, r) in plan.relays.iter().enumerate() {
                let t = r.rtype.index();
                let floor = round.floor(p.src, p.dst, ri);
                let Some((l1, l2)) = round
                    .legs(p.src, p.dst, ri)
                    .filter(|_| floor <= c.direct_ms)
                else {
                    continue;
                };
                let stitched = l1 + l2;
                assert!(
                    stitched >= floor - TOL,
                    "{what}: {stitched} < floor {floor}"
                );
                if best[t].is_none_or(|(_, v)| stitched < v) {
                    best[t] = Some((ri, stitched));
                }
                if stitched < c.direct_ms {
                    want_improving[t].push((r.host, (c.direct_ms - stitched) as f32));
                }
            }
            for t in RelayType::ALL {
                let got = c.outcome(t).best();
                let want = best[t.index()];
                let host = |ri: usize| plan.relays[ri].host;
                assert_eq!(
                    got.map(|(h, _)| h),
                    want.map(|(ri, _)| host(ri)),
                    "{what} {t}"
                );
                if let (Some((_, got)), Some((ri, want))) = (got, want) {
                    assert!(
                        (got - want).abs() <= TOL,
                        "{what} {t}: best {got} != {want}"
                    );
                    let r = &plan.relays[ri];
                    let (a, b) = (&plan.endpoints[p.src], &plan.endpoints[p.dst]);
                    let floor = min_relay_rtt(&a.location, &b.location, &r.location);
                    assert!(got >= floor - TOL, "{what} {t}: best {got} < floor {floor}");
                }
                let want_improving = &want_improving[t.index()];
                assert_eq!(c.improving(t), &want_improving[..], "{what} {t}");
                assert_eq!(c.outcome(t).n_improving as usize, want_improving.len());
                improving += want_improving.len();
            }
        }
    }
    assert!(improving > 1000, "only {improving} improving relays");
}

/// Fig. 4 curves fall with the threshold, top-10 under all; Fig. 3's
/// coverage rises from 0 to the type's improved share and stays at or
/// below 1; the cases any type improves include those COR improves.
#[test]
fn analysis_curves_are_monotone_and_bounded() {
    let xs: Vec<f64> = (0..=60).map(|i| f64::from(i) * 5.0).collect();
    for run in runs() {
        let r = &run.results;
        let seed = run.seed;
        let total = r.total_cases();
        for t in RelayType::ALL {
            let curve = |top| ThresholdCurve::compute(r, t, top, &xs).points;
            let (top10, all) = (curve(Some(10)), curve(None));
            for points in [&top10, &all] {
                for w in points.windows(2) {
                    assert!(w[1].1 <= w[0].1, "seed {seed} {t}: Fig. 4 rises at {w:?}");
                }
                assert!(points.iter().all(|&(_, f)| (0.0..=1.0).contains(&f)));
            }
            for (a, b) in top10.iter().zip(&all) {
                assert!(a.1 <= b.1, "seed {seed} {t}: top-10 {a:?} over all {b:?}");
            }

            let tops = TopRelayAnalysis::compute(r, t, usize::MAX);
            assert_eq!(tops.coverage_at(0), 0.0, "seed {seed} {t}");
            let coverage: Vec<f64> = (0..=tops.ranked.len() + 1)
                .map(|k| tops.coverage_at(k))
                .collect();
            for (k, w) in coverage.windows(2).enumerate() {
                assert!(w[0] <= w[1], "seed {seed} {t}: coverage falls at k = {k}");
                assert!(w[1] <= 1.0, "seed {seed} {t}: coverage {} > 1", w[1]);
            }
            let improved = r.cases.iter().filter(|c| !c.improving(t).is_empty());
            let share = improved.count() as f64 / total as f64;
            assert_eq!(tops.coverage_at(usize::MAX), share, "seed {seed} {t}");
        }

        let improved = |c: &Case<'_>, t| {
            let by_best = c.outcome(t).improved(c.direct_ms);
            assert_eq!(by_best, !c.improving(t).is_empty(), "seed {seed} {t}");
            by_best
        };
        let (mut any, mut cor) = (HashSet::new(), HashSet::new());
        for (i, c) in r.cases.iter().enumerate() {
            if RelayType::ALL.iter().any(|&t| improved(&c, t)) {
                any.insert(i);
            }
            if improved(&c, RelayType::Cor) {
                cor.insert(i);
            }
        }
        assert!(any.is_superset(&cor), "seed {seed}");
        let analysis = ImprovementAnalysis::compute(r);
        assert_eq!(
            analysis.any_improved_fraction,
            any.len() as f64 / total as f64
        );
        for t in RelayType::ALL {
            let per_type = analysis.for_type(t).improved_fraction;
            assert!(
                per_type <= analysis.any_improved_fraction,
                "seed {seed} {t}"
            );
        }
    }
}

/// Each funnel stage keeps at most what the one before kept, and the
/// last one is the COR pool; no host is a relay of two types, in the
/// candidate pools, in a round's sample or in the results' metadata.
#[test]
fn the_funnel_narrows_and_no_host_is_a_relay_of_two_types() {
    for run in runs() {
        let seed = run.seed;
        let pool = &run.results.colo_pool;
        let f = pool.funnel;
        let stages = [
            f.initial,
            f.single_facility,
            f.pingable,
            f.ownership,
            f.presence,
            f.geolocated,
        ];
        assert!(
            stages.windows(2).all(|w| w[1] <= w[0]),
            "seed {seed}: {f:?}"
        );
        assert_eq!(pool.relays.len(), f.geolocated, "seed {seed}");

        let pools = &run.relays;
        let mut rtype: HashMap<HostId, RelayType> = HashMap::new();
        let candidates = (pools.cor_by_facility.values())
            .chain(pools.plr_by_site.values())
            .chain(pools.rar_eye_by_country.values())
            .chain(pools.rar_other_by_country.values())
            .flatten();
        for r in candidates {
            let first = *rtype.entry(r.host).or_insert(r.rtype);
            assert_eq!(
                first, r.rtype,
                "seed {seed}: {:?} is {first} and {}",
                r.host, r.rtype
            );
        }
        for round in &run.rounds {
            let mut seen = HashSet::new();
            for r in &round.plan.relays {
                assert!(
                    seen.insert(r.host),
                    "seed {seed}: {:?} sampled twice",
                    r.host
                );
                assert_eq!(rtype.get(&r.host), Some(&r.rtype), "seed {seed}");
            }
        }
        for (host, meta) in &run.results.relay_meta {
            assert_eq!(rtype.get(host), Some(&meta.rtype), "seed {seed}: {host:?}");
        }
    }
}
