//! §2.5 — campaign orchestration over the plan → execute → stitch
//! engine.
//!
//! Per round the paper's 4-step workflow maps onto the three layers:
//!
//! 1. **Plan** ([`crate::plan::plan_round`]): sample the round's RIPE
//!    Atlas endpoints (one eyeball AS per country, one probe per AS,
//!    §2.1), enumerate direct pairs, pre-draw the symmetry sample, and
//!    sample the round's relays per type (§2.2, §2.3) — pure data.
//! 2. **Execute** ([`crate::backend::execute`]): measure every direct
//!    pair — 6 single-packet pings 5 minutes apart, median of ≥3 valid
//!    replies — through a [`MeasurementBackend`], serially or across
//!    all cores.
//! 3. **Plan again** ([`crate::plan::plan_overlay`]): fold the direct
//!    medians through the §2.4 feasibility filter into the needed
//!    (endpoint, relay) overlay links; **execute** those too.
//! 4. **Stitch** ([`crate::stitch::ResultsBuilder`]): fold all window
//!    medians into cases — `RTT(e1, relay, e2) = median(e1, relay) +
//!    median(e2, relay)` — histories, symmetry samples and metadata.
//!
//! Scheduling is unobservable: each window's RNG derives from `(seed,
//! round, src, dst, kind)` and each round's plan from `(seed, round)`,
//! so serial, parallel and round-sharded runs of the same seed produce
//! bit-identical [`CampaignResults`] (asserted by the
//! `determinism_equivalence` integration suite).
//!
//! Three execution modes share that contract
//! ([`crate::backend::ExecMode`]):
//!
//! - **Serial** — one window after another, one round after another.
//! - **Parallel** — each round's stage fans across all cores, with a
//!   barrier at every stage boundary.
//! - **Sharded** — the [`crate::shard`] scheduler keeps
//!   `rounds_in_flight` rounds in flight at once, interleaving
//!   direct/reverse/overlay windows from different rounds on one
//!   worker pool so no core idles at another round's barrier. This is
//!   the default, with two rounds in flight
//!   ([`CampaignConfig::paper`]): a round plans and resolves its
//!   direct pairs while the round before it samples.
//!
//! Before the round loop starts, the campaign hands
//! [`crate::plan::warmup_destinations`] — every AS its plan can route
//! toward, known up front because the endpoint and relay pools are
//! round-invariant — to `Router::precompute`, which builds all
//! destination tables data-parallel on the worker pool. The first
//! round's windows then pay only pair-expansion cost instead of
//! serializing behind cold routing-table construction.
//!
//! The campaign **streams**: [`Campaign::run_streaming`] invokes an
//! observer with a [`RoundSummary`] per round, in round order, as
//! rounds complete — a consumer (CLI progress, a future service API)
//! sees round *k* as soon as rounds `0..=k` are done instead of
//! waiting out the whole ~27-simulated-day campaign. [`Campaign::run`]
//! is the no-observer convenience wrapper.
//!
//! The output is a table of **cases** ([`Cases`], one per measured RAE
//! pair per round) carrying the direct median and, per relay type, the
//! best relayed RTT and the full list of improving relays — enough to
//! regenerate every figure and table in §3. A case is a plain
//! [`CaseRecord`]; its improving relays sit in its round's arena.
//!
//! Per-pair RTT histories live in a [`PairHistory`]: each round's
//! entries as the stitch layer produced them, plus a sorted key index
//! built on first read. Its iterators walk pairs in **ascending key
//! order** — deterministic, where a `HashMap` of histories iterated in
//! random order — and a pair's values stay in round order.

use crate::backend::{execute, ExecMode, MeasurementBackend, NetsimBackend};
use crate::colo::{run_pipeline, ColoPipelineConfig, ColoPool};
use crate::eyeball::{select_eyeballs, EndpointPool};
use crate::measure::WindowConfig;
use crate::plan::{plan_overlay, plan_round_for, warmup_destinations};
use crate::relays::{RelayPools, RelayType};
use crate::shard::run_interleaved_ranges;
use crate::stitch::{ResultsBuilder, RoundReorder};
use crate::world::World;
use rand::rngs::StdRng;
use rand::SeedableRng;
use shortcuts_geo::{CityId, CountryCode};
use shortcuts_netsim::clock::SimTime;
use shortcuts_netsim::{FaultPlan, HostId, PingHandle, Pinger};
use shortcuts_topology::routing::RoutingPolicy;
use shortcuts_topology::{Asn, ChurnSchedule, FacilityId, MemoryBudget};
use std::collections::HashMap;
use std::ops::{Index, Range};
use std::sync::{Arc, OnceLock};

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of measurement rounds (paper: 45).
    pub rounds: u32,
    /// Hours between round starts (paper: 12).
    pub round_interval_hours: f64,
    /// Ping window parameters (paper: 6 pings / 5 min / ≥3 valid).
    pub window: WindowConfig,
    /// APNIC coverage cutoff for eyeball selection (paper: 10 %).
    pub eyeball_cutoff_pct: f64,
    /// §2.2 pipeline parameters.
    pub colo: ColoPipelineConfig,
    /// Fraction of direct pairs also measured in reverse (symmetry
    /// check).
    pub symmetry_sample_prob: f64,
    /// Routing policy (valley-free; the service's `policy=shortest-path`
    /// selects shortest-path).
    pub routing: RoutingPolicy,
    /// Faults injected for this campaign (outages, lossy ASes). Routed
    /// through the campaign's private [`PingHandle`], never the shared
    /// engine — campaigns of a sweep each see only their own plan.
    pub faults: FaultPlan,
    /// Topology churn: delta batches applied at round boundaries. The
    /// round loop splits into contiguous epochs at the batch rounds;
    /// each batch is applied to the backend's world *before* its
    /// segment's first round measures. Unlike faults this **mutates
    /// the engine** (the router's view advances permanently), so
    /// churning campaigns must run on a private engine, never a pooled
    /// one. An empty schedule is byte-identical to no schedule.
    pub churn: ChurnSchedule,
    /// Master seed for all per-round randomness.
    pub seed: u64,
    /// Task scheduling. Every mode yields bit-identical results for
    /// the same seed; `Parallel` uses every core within a round,
    /// `Sharded` additionally pipelines across rounds. The default
    /// ([`CampaignConfig::paper`], so the CLI's `campaign` and
    /// `report`) is `Sharded { rounds_in_flight: 2 }`: one round
    /// measures while the next plans and resolves its direct pairs.
    pub exec: ExecMode,
    /// Byte budget for the engine stack this campaign builds when it
    /// runs solo ([`Campaign::run_streaming`]). Budgets bound cache
    /// residency via eviction and never change results — a budgeted
    /// run is byte-identical to an unbudgeted one. Ignored when the
    /// caller provides the engine ([`Campaign::run_streaming_on`]):
    /// whoever built the engine chose its budget.
    pub memory: MemoryBudget,
}

impl CampaignConfig {
    /// The paper's full campaign: 45 rounds over ~27 days.
    pub fn paper() -> Self {
        CampaignConfig {
            rounds: 45,
            round_interval_hours: 12.0,
            window: WindowConfig::default(),
            eyeball_cutoff_pct: 10.0,
            colo: ColoPipelineConfig::default(),
            symmetry_sample_prob: 0.1,
            routing: RoutingPolicy::ValleyFree,
            faults: FaultPlan::none(),
            churn: ChurnSchedule::none(),
            seed: 2017,
            exec: ExecMode::Sharded {
                rounds_in_flight: 2,
            },
            memory: MemoryBudget::unbounded(),
        }
    }

    /// A fast configuration for tests: few rounds, small windows.
    pub fn small() -> Self {
        CampaignConfig {
            rounds: 3,
            ..Self::paper()
        }
    }
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Per-type outcome of one case: a plain 24-byte value. The relays
/// that improved the case live in its round's improving arena (see
/// [`Case::improving`]); the outcome keeps only their count.
#[derive(Debug, Clone, Copy)]
pub struct TypeOutcome {
    /// Host of the best relay; meaningless without a best RTT.
    best_host: HostId,
    /// Stitched RTT of the best relay, ms; NaN when there is none (a
    /// stitched RTT is a sum of two medians, never NaN).
    best_rtt: f64,
    /// Number of relays of this type the §2.4 filter admits for this
    /// case whose two legs both produced a median.
    pub feasible: u32,
    /// Number of relays of this type that beat the direct path.
    pub n_improving: u32,
}

// `Option<(HostId, f64)>` has no niche and alone would take 24 bytes.
const _: () = assert!(std::mem::size_of::<TypeOutcome>() == 24);

impl Default for TypeOutcome {
    fn default() -> Self {
        TypeOutcome::new(None, 0, 0)
    }
}

impl TypeOutcome {
    /// An outcome with its best relay (host, stitched RTT ms), if any,
    /// and its feasible and improving relay counts.
    pub fn new(best: Option<(HostId, f64)>, feasible: u32, n_improving: u32) -> Self {
        let (best_host, best_rtt) = best.unwrap_or((HostId(0), f64::NAN));
        assert!(
            best.is_none() || !best_rtt.is_nan(),
            "a best RTT is never NaN"
        );
        TypeOutcome {
            best_host,
            best_rtt,
            feasible,
            n_improving,
        }
    }

    /// Best (lowest-RTT) relayed path of this type, if any relay was
    /// feasible and measurable: (relay host, stitched RTT ms).
    pub fn best(&self) -> Option<(HostId, f64)> {
        (!self.best_rtt.is_nan()).then_some((self.best_host, self.best_rtt))
    }

    /// Improvement of the best relay vs. the direct path (ms, positive
    /// = relay faster), if a best relay exists.
    pub fn best_improvement(&self, direct_ms: f64) -> Option<f64> {
        self.best().map(|(_, rtt)| direct_ms - rtt)
    }

    /// Whether this type improved the case.
    pub fn improved(&self, direct_ms: f64) -> bool {
        self.best().is_some_and(|(_, rtt)| rtt < direct_ms)
    }
}

/// One measured RAE pair in one round: a plain value of at most 128
/// bytes. Its improving relays sit in its round's arena, from
/// `improving_start` on, type after type in [`RelayType::ALL`] order.
#[derive(Debug, Clone, Copy)]
pub struct CaseRecord {
    /// Round index.
    pub round: u32,
    /// Source endpoint host.
    pub src: HostId,
    /// Destination endpoint host.
    pub dst: HostId,
    /// Source country.
    pub src_country: CountryCode,
    /// Destination country.
    pub dst_country: CountryCode,
    /// Whether the endpoints are on different continents.
    pub intercontinental: bool,
    /// Direct-path median RTT, ms.
    pub direct_ms: f64,
    /// Outcomes indexed by [`RelayType::index`].
    pub outcomes: [TypeOutcome; 4],
    /// Offset of this case's first improving relay in its round's
    /// improving arena.
    pub improving_start: u32,
}

const _: () = assert!(std::mem::size_of::<CaseRecord>() <= 128);

impl CaseRecord {
    /// Outcome for a relay type.
    pub fn outcome(&self, t: RelayType) -> &TypeOutcome {
        &self.outcomes[t.index()]
    }

    /// This case's range in its round's improving arena for type `t`.
    fn improving_range(&self, t: RelayType) -> Range<usize> {
        let counts = self.outcomes.map(|o| o.n_improving as usize);
        let start = self.improving_start as usize + counts[..t.index()].iter().sum::<usize>();
        start..start + counts[t.index()]
    }

    /// One past this case's last entry in its round's improving arena.
    fn improving_end(&self) -> usize {
        self.improving_start as usize
            + self
                .outcomes
                .iter()
                .map(|o| o.n_improving as usize)
                .sum::<usize>()
    }
}

/// A case as the campaign holds it: its record, read through `Deref`,
/// and its improving relays.
#[derive(Debug, Clone, Copy)]
pub struct Case<'a> {
    record: &'a CaseRecord,
    /// The improving arena of the case's round.
    arena: &'a [(HostId, f32)],
}

impl<'a> Case<'a> {
    /// Every relay of type `t` that beat the direct path, with its
    /// improvement in ms, in relay order.
    pub fn improving(&self, t: RelayType) -> &'a [(HostId, f32)] {
        &self.arena[self.record.improving_range(t)]
    }
}

impl std::ops::Deref for Case<'_> {
    type Target = CaseRecord;

    fn deref(&self) -> &CaseRecord {
        self.record
    }
}

/// One round of cases and the improving arena their offsets index.
#[derive(Debug)]
struct RoundCases {
    cases: Vec<CaseRecord>,
    improving: Vec<(HostId, f32)>,
}

/// The campaign's case table (§2.5): one record per measured RAE pair
/// per round, in round order.
///
/// Holds each round's cases and improving arena exactly as the stitch
/// layer produced them — moved in, never re-keyed or copied, like
/// [`PairHistory`]. Iteration yields [`Case`] views.
#[derive(Debug, Default)]
pub struct Cases {
    rounds: Vec<RoundCases>,
    len: usize,
}

impl Cases {
    /// Appends one round's cases, in order, with the improving arena
    /// their `improving_start` offsets index; rounds arrive in round
    /// order.
    ///
    /// # Panics
    ///
    /// If a case's improving relays run past the end of the arena.
    pub fn push_round(&mut self, cases: Vec<CaseRecord>, improving: Vec<(HostId, f32)>) {
        assert!(
            cases.iter().all(|c| c.improving_end() <= improving.len()),
            "a case's improving relays run past its round's arena"
        );
        if !cases.is_empty() {
            self.len += cases.len();
            self.rounds.push(RoundCases { cases, improving });
        }
    }

    /// Number of cases.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no cases.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every case, in round order and, within a round, in plan order.
    pub fn iter(&self) -> CasesIter<'_> {
        CasesIter {
            rounds: self.rounds.iter(),
            cases: [].iter(),
            arena: &[],
            remaining: self.len,
        }
    }
}

impl<'a> IntoIterator for &'a Cases {
    type Item = Case<'a>;
    type IntoIter = CasesIter<'a>;

    fn into_iter(self) -> CasesIter<'a> {
        self.iter()
    }
}

/// Iterator over [`Cases`], yielding [`Case`] views.
#[derive(Debug, Clone)]
pub struct CasesIter<'a> {
    rounds: std::slice::Iter<'a, RoundCases>,
    cases: std::slice::Iter<'a, CaseRecord>,
    arena: &'a [(HostId, f32)],
    remaining: usize,
}

impl<'a> Iterator for CasesIter<'a> {
    type Item = Case<'a>;

    fn next(&mut self) -> Option<Case<'a>> {
        loop {
            if let Some(record) = self.cases.next() {
                self.remaining -= 1;
                return Some(Case {
                    record,
                    arena: self.arena,
                });
            }
            let round = self.rounds.next()?;
            self.cases = round.cases.iter();
            self.arena = &round.improving;
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for CasesIter<'_> {}

/// Identity and location facts about a relay host, for analyses.
#[derive(Debug, Clone)]
pub struct RelayMeta {
    /// Relay type.
    pub rtype: RelayType,
    /// Owning AS.
    pub asn: Asn,
    /// City.
    pub city: CityId,
    /// Country.
    pub country: CountryCode,
    /// Facility (COR only).
    pub facility: Option<FacilityId>,
}

/// Everything a campaign produces.
#[derive(Debug)]
pub struct CampaignResults {
    /// All measured cases (one per valid RAE pair per round).
    pub cases: Cases,
    /// Per-pair history of direct medians across rounds (for the CV
    /// stability analysis). Keyed by ordered host pair.
    pub direct_history: PairHistory,
    /// Per-link history of endpoint↔relay medians across rounds.
    pub link_history: PairHistory,
    /// Forward/reverse direct medians for the symmetry analysis.
    pub symmetry_samples: Vec<(f64, f64)>,
    /// Metadata of every relay that appeared in any round.
    pub relay_meta: HashMap<HostId, RelayMeta>,
    /// §2.2 funnel of the COR pipeline run.
    pub colo_pool: ColoPool,
    /// Total pings sent.
    pub pings_sent: u64,
    /// Pairs whose direct window produced no valid median.
    pub unresponsive_pairs: u64,
    /// Average endpoints per round.
    pub avg_endpoints: f64,
    /// Average sampled relays per round, indexed by [`RelayType::index`].
    pub avg_relays: [f64; 4],
}

impl CampaignResults {
    /// Total number of cases.
    pub fn total_cases(&self) -> usize {
        self.cases.len()
    }
}

/// An ordered host pair.
type PairKey = (HostId, HostId);

/// Every pair with its range in the value array (ascending by pair),
/// and the values grouped by pair.
type SortedHistory = (Vec<(PairKey, Range<u32>)>, Vec<f64>);

/// Per-pair median histories across rounds, keyed by ordered host pair.
///
/// Holds each round's `(pair, median)` entries exactly as the stitch
/// layer produced them — moved in, never re-keyed — so finishing a
/// campaign costs one move per round. The first read builds a sorted
/// key index; reads then see every pair once, in ascending key order,
/// with its values in round order and, within a round, in the order
/// the round listed them.
#[derive(Debug, Default)]
pub struct PairHistory {
    rounds: Vec<Vec<(PairKey, f64)>>,
    sorted: OnceLock<SortedHistory>,
}

impl PairHistory {
    /// Appends one round's entries; rounds arrive in round order.
    pub(crate) fn push_round(&mut self, entries: Vec<(PairKey, f64)>) {
        if !entries.is_empty() {
            self.rounds.push(entries);
            self.sorted = OnceLock::new();
        }
    }

    fn sorted(&self) -> &SortedHistory {
        self.sorted.get_or_init(|| {
            let mut all = self.rounds.concat();
            // Stable: a pair's values keep their round-then-listing order.
            all.sort_by_key(|&(key, _)| key);
            let mut keys: Vec<(PairKey, Range<u32>)> = Vec::new();
            for (i, &(key, _)) in all.iter().enumerate() {
                let i = u32::try_from(i).expect("fewer than 2^32 history entries");
                match keys.last_mut() {
                    Some((last, range)) if *last == key => range.end = i + 1,
                    _ => keys.push((key, i..i + 1)),
                }
            }
            (keys, all.into_iter().map(|(_, v)| v).collect())
        })
    }

    /// The history of one pair, if it was ever measured.
    pub fn get(&self, key: &PairKey) -> Option<&[f64]> {
        let (keys, values) = self.sorted();
        let i = keys.binary_search_by_key(key, |(k, _)| *k).ok()?;
        let range = &keys[i].1;
        Some(&values[range.start as usize..range.end as usize])
    }

    /// Every pair with its history, in ascending pair order.
    pub fn iter(&self) -> impl Iterator<Item = (&PairKey, &[f64])> {
        let (keys, values) = self.sorted();
        keys.iter()
            .map(move |(key, r)| (key, &values[r.start as usize..r.end as usize]))
    }

    /// Every pair's history, in ascending pair order.
    pub fn values(&self) -> impl Iterator<Item = &[f64]> {
        self.iter().map(|(_, v)| v)
    }

    /// Distinct pairs with a history.
    pub fn len(&self) -> usize {
        self.sorted().0.len()
    }

    /// Whether no pair was ever measured.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }
}

impl Index<&PairKey> for PairHistory {
    type Output = [f64];

    fn index(&self, key: &PairKey) -> &[f64] {
        self.get(key).expect("no history for this pair")
    }
}

/// What the streaming API reports per completed round: the round's
/// shape (who was sampled, what was measured) and its headline §3
/// numbers, available long before the campaign finishes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundSummary {
    /// Round index.
    pub round: u32,
    /// Endpoints sampled this round.
    pub endpoints: usize,
    /// Direct pairs planned.
    pub pairs: usize,
    /// Cases emitted (pairs whose direct window produced a median).
    pub cases: usize,
    /// Pairs whose direct window produced no valid median.
    pub unresponsive_pairs: u64,
    /// Relays sampled, indexed by [`RelayType::index`].
    pub relays: [usize; 4],
    /// Overlay links the feasibility filter asked for.
    pub links_planned: usize,
    /// Overlay links that produced a median.
    pub links_measured: usize,
    /// Forward/reverse symmetry samples recorded.
    pub symmetry_samples: usize,
    /// Cases improved by at least one relay, indexed by
    /// [`RelayType::index`].
    pub improved: [usize; 4],
}

/// The backend-agnostic one-time selection state of a campaign: the
/// §2.2 COR funnel, the §2.1 endpoint pool and the §2.3 relay pools —
/// everything `run_rounds` needs besides a backend.
///
/// Factored out so a solo campaign and every campaign of a
/// [`crate::sweep::Sweep`] run the **byte-identical** setup path: same
/// RNG stream, same pools, same funnel — which is what makes a sweep's
/// per-scenario results bit-identical to solo runs.
pub struct CampaignSetup<'w> {
    /// §2.2 funnel outcome (also the COR candidate pool).
    pub colo: ColoPool,
    /// §2.1 endpoint pool.
    pub endpoints: EndpointPool<'w>,
    /// §2.3 relay pools.
    pub relays: RelayPools,
}

impl<'w> CampaignSetup<'w> {
    /// Runs the campaign's one-time selection (§2.1, §2.2) against a
    /// pinger — a campaign's own [`PingHandle`], so the funnel's pings
    /// count toward that campaign and see its fault plan.
    pub fn prepare<P: Pinger>(world: &'w World, pinger: &P, cfg: &CampaignConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let vantage = world
            .looking_glasses
            .lgs()
            .first()
            .expect("world has looking glasses")
            .host;
        let colo = run_pipeline(world, pinger, vantage, SimTime(0.0), &cfg.colo, &mut rng);
        let selection = select_eyeballs(world, cfg.eyeball_cutoff_pct);
        let endpoints = EndpointPool::build(world, &selection.verified);
        let relays = RelayPools::build(world, &colo, &selection.verified);
        CampaignSetup {
            colo,
            endpoints,
            relays,
        }
    }

    /// Every destination AS this campaign's plans can route toward
    /// (the router warmup set; a sweep warms the union across
    /// campaigns).
    pub fn warmup(&self) -> Vec<Asn> {
        warmup_destinations(&self.endpoints, &self.relays)
    }
}

/// The campaign runner.
pub struct Campaign<'w> {
    world: &'w World,
    cfg: CampaignConfig,
}

impl<'w> Campaign<'w> {
    /// Creates a campaign over a world.
    pub fn new(world: &'w World, cfg: CampaignConfig) -> Self {
        Campaign { world, cfg }
    }

    /// Runs the whole campaign on the netsim backend.
    pub fn run(&self) -> CampaignResults {
        self.run_streaming(|_| {})
    }

    /// Runs the whole campaign on the netsim backend, streaming a
    /// [`RoundSummary`] to `on_round` per completed round, **in round
    /// order**, as rounds finish. In sharded mode round `k`'s summary
    /// is emitted as soon as rounds `0..=k` are complete — consumers
    /// see results while later rounds are still measuring.
    pub fn run_streaming<F: FnMut(&RoundSummary)>(&self, on_round: F) -> CampaignResults {
        // The engine stack co-owns the world's shared pieces (Arc), so
        // the same construction serves one campaign here and many in
        // core::sweep.
        let engine = self
            .world
            .shared()
            .engine_budgeted(self.cfg.routing, self.cfg.memory);
        self.run_streaming_on(&engine, on_round)
    }

    /// [`Campaign::run_streaming`] against a **caller-provided shared
    /// engine** instead of a private one. This is how a long-lived
    /// session server reuses one warmed engine stack — pair cache and
    /// router tables — across many campaigns touching the same world:
    /// results are bit-identical either way, because everything the
    /// engine caches is a deterministic world fact, while faults and
    /// ping accounting stay on this campaign's private [`PingHandle`].
    ///
    /// # Panics
    ///
    /// If the engine's router policy differs from the campaign's
    /// configured routing policy (the cached tables would answer for
    /// the wrong policy), or the engine was built from a different
    /// world (its host registry could not resolve this campaign's
    /// planned hosts).
    pub fn run_streaming_on<F: FnMut(&RoundSummary)>(
        &self,
        engine: &Arc<shortcuts_netsim::PingEngine>,
        on_round: F,
    ) -> CampaignResults {
        let world = self.world;
        let cfg = &self.cfg;
        assert_eq!(
            engine.router().policy(),
            cfg.routing,
            "shared engine routes under a different policy than the campaign"
        );
        assert!(
            std::ptr::eq(engine.topology(), &*world.topo),
            "shared engine was built from a different world than the campaign"
        );
        let handle = PingHandle::with_faults(Arc::clone(engine), cfg.faults.clone());

        // --- One-time selection (§2.1, §2.2) -----------------------------
        let setup = CampaignSetup::prepare(world, &handle, cfg);

        // Warm every destination table the campaign can touch,
        // data-parallel, before round 0 — the first round's windows
        // then only pay pair-expansion cost, not serialized table
        // construction. Purely a scheduling change: tables are
        // identical however they are built, so results stay
        // bit-identical.
        engine.router().precompute(&setup.warmup());

        let backend = NetsimBackend::new(handle, cfg.window, cfg.seed);
        self.run_rounds(
            &backend,
            &setup.endpoints,
            &setup.relays,
            setup.colo,
            on_round,
        )
    }

    /// Runs the round loop against any backend, streaming summaries in
    /// round order. Selection pools and the COR funnel are passed in
    /// because they are backend-agnostic world facts, not measurements
    /// of this campaign.
    pub fn run_rounds<B: MeasurementBackend, F: FnMut(&RoundSummary)>(
        &self,
        backend: &B,
        endpoint_pool: &EndpointPool<'_>,
        relay_pools: &RelayPools,
        colo_pool: ColoPool,
        mut on_round: F,
    ) -> CampaignResults {
        let world = self.world;
        let cfg = &self.cfg;
        let mut builder = ResultsBuilder::new();

        // The round loop runs in contiguous segments between churn
        // batches; each batch mutates the backend's world before its
        // segment's first round measures. A churn-free schedule yields
        // one `(0, rounds, [])` segment — byte-identical to the plain
        // loop. Round plans and per-task RNG streams depend only on
        // (seed, round), never on churn, so a delta changes *measured
        // RTTs*, not which windows exist.
        match cfg.exec {
            ExecMode::Sharded { rounds_in_flight } => {
                // Round plans are pure functions of (seed, round), so
                // worker threads can plan rounds on demand.
                let planner = |round| plan_round_for(world, endpoint_pool, relay_pools, cfg, round);
                // Rounds complete out of order; the builder does not
                // care, but observers are promised round order, so
                // buffer summaries until their turn. The reorder
                // buffer spans segments (segments run in order).
                let mut reorder = RoundReorder::new();
                for (start, end, batch) in cfg.churn.segments(cfg.rounds) {
                    if !batch.is_empty() {
                        backend.apply_delta(batch);
                    }
                    run_interleaved_ranges(
                        &[backend],
                        &[(start, end)],
                        rounds_in_flight,
                        |_, round| planner(round),
                        |_, done| {
                            let round = done.plan.round;
                            let summary = {
                                let _span = shortcuts_telemetry::global().span_for(
                                    shortcuts_telemetry::Stage::Stitch,
                                    shortcuts_telemetry::NO_LABEL,
                                    round,
                                );
                                builder.absorb_round(
                                    &done.plan,
                                    &done.overlay,
                                    &done.direct,
                                    &done.reverse,
                                    &done.links,
                                )
                            };
                            reorder.push(summary, &mut on_round);
                        },
                    );
                }
            }
            mode => {
                for (start, end, batch) in cfg.churn.segments(cfg.rounds) {
                    if !batch.is_empty() {
                        backend.apply_delta(batch);
                    }
                    for round in start..end {
                        let tele = shortcuts_telemetry::global();
                        // Plan: endpoints, pairs, relays — pure data.
                        let plan = {
                            let _span = tele.span_for(
                                shortcuts_telemetry::Stage::Plan,
                                shortcuts_telemetry::NO_LABEL,
                                round,
                            );
                            plan_round_for(world, endpoint_pool, relay_pools, cfg, round)
                        };

                        // Execute: direct and reverse windows.
                        let direct = execute(backend, &plan.direct_tasks(), mode);
                        let reverse = execute(backend, &plan.reverse_tasks(&direct), mode);

                        // Plan the overlay stage from the direct
                        // medians; execute.
                        let overlay = {
                            let _span = tele.span_for(
                                shortcuts_telemetry::Stage::Plan,
                                shortcuts_telemetry::NO_LABEL,
                                round,
                            );
                            plan_overlay(&plan, &direct)
                        };
                        let links = execute(backend, &overlay.link_tasks(&plan), mode);

                        // Stitch.
                        let summary = {
                            let _span = tele.span_for(
                                shortcuts_telemetry::Stage::Stitch,
                                shortcuts_telemetry::NO_LABEL,
                                round,
                            );
                            builder.absorb_round(&plan, &overlay, &direct, &reverse, &links)
                        };
                        on_round(&summary);
                    }
                }
            }
        }

        builder.finish(colo_pool, backend.pings_sent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    fn quick_results() -> (World, CampaignResults) {
        let world = World::build(&WorldConfig::small(), 21);
        let mut cfg = CampaignConfig::small();
        cfg.rounds = 2;
        let results = Campaign::new(&world, cfg).run();
        (world, results)
    }

    #[test]
    fn campaign_produces_cases() {
        let (_, r) = quick_results();
        assert!(!r.cases.is_empty());
        assert!(r.pings_sent > 0);
        assert!(r.avg_endpoints > 10.0);
        // Every case has a positive direct RTT.
        for c in &r.cases {
            assert!(c.direct_ms > 0.0);
            assert_ne!(c.src, c.dst);
        }
    }

    #[test]
    fn endpoints_are_in_different_countries() {
        let (_, r) = quick_results();
        for c in &r.cases {
            assert_ne!(c.src_country, c.dst_country);
        }
    }

    #[test]
    fn stitched_rtts_are_sums_of_positive_legs() {
        let (_, r) = quick_results();
        for c in &r.cases {
            for t in RelayType::ALL {
                if let Some((_, rtt)) = c.outcome(t).best() {
                    assert!(rtt > 0.0);
                }
                for &(_, imp) in c.improving(t) {
                    assert!(imp > 0.0, "improvement must be positive");
                    assert!(f64::from(imp) < c.direct_ms);
                }
            }
        }
    }

    #[test]
    fn improving_relays_are_recorded_with_meta() {
        let (_, r) = quick_results();
        let mut seen_any = false;
        for c in &r.cases {
            for t in RelayType::ALL {
                for &(host, _) in c.improving(t) {
                    seen_any = true;
                    let meta = r.relay_meta.get(&host).expect("meta for improving relay");
                    assert_eq!(meta.rtype, t);
                }
            }
        }
        assert!(seen_any, "campaign should find some improving relays");
    }

    #[test]
    fn cor_improves_most_cases_even_in_small_world() {
        let (_, r) = quick_results();
        let total = r.total_cases() as f64;
        let cor_improved = r
            .cases
            .iter()
            .filter(|c| c.outcome(RelayType::Cor).improved(c.direct_ms))
            .count() as f64;
        // Loose bound for the small world; the full-scale check lives in
        // the benches and EXPERIMENTS.md.
        assert!(
            cor_improved / total > 0.3,
            "COR improved only {:.0}% of cases",
            100.0 * cor_improved / total
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let world = World::build(&WorldConfig::small(), 21);
        let mut cfg = CampaignConfig::small();
        cfg.rounds = 1;
        let r1 = Campaign::new(&world, cfg.clone()).run();
        let r2 = Campaign::new(&world, cfg).run();
        assert_eq!(r1.total_cases(), r2.total_cases());
        for (a, b) in r1.cases.iter().zip(r2.cases.iter()) {
            assert_eq!(a.src, b.src);
            assert_eq!(a.dst, b.dst);
            assert!((a.direct_ms - b.direct_ms).abs() < 1e-12);
        }
    }

    #[test]
    fn streaming_reports_rounds_in_order_and_matches_results() {
        let world = World::build(&WorldConfig::small(), 21);
        for exec in [
            ExecMode::Serial,
            ExecMode::Parallel,
            ExecMode::Sharded {
                rounds_in_flight: 3,
            },
        ] {
            let mut cfg = CampaignConfig::small();
            cfg.rounds = 3;
            cfg.exec = exec;
            let mut summaries = Vec::new();
            let results = Campaign::new(&world, cfg).run_streaming(|s| summaries.push(s.clone()));
            // One summary per round, strictly in round order.
            assert_eq!(summaries.len(), 3, "{exec:?}");
            for (i, s) in summaries.iter().enumerate() {
                assert_eq!(s.round, i as u32, "{exec:?}");
                assert_eq!(s.cases + s.unresponsive_pairs as usize, s.pairs);
            }
            // Summaries add up to the campaign totals.
            let cases: usize = summaries.iter().map(|s| s.cases).sum();
            assert_eq!(cases, results.total_cases(), "{exec:?}");
            let unresponsive: u64 = summaries.iter().map(|s| s.unresponsive_pairs).sum();
            assert_eq!(unresponsive, results.unresponsive_pairs, "{exec:?}");
            let symmetry: usize = summaries.iter().map(|s| s.symmetry_samples).sum();
            assert_eq!(symmetry, results.symmetry_samples.len(), "{exec:?}");
            for t in RelayType::ALL {
                let improved: usize = summaries.iter().map(|s| s.improved[t.index()]).sum();
                let from_cases = results
                    .cases
                    .iter()
                    .filter(|c| c.outcome(t).improved(c.direct_ms))
                    .count();
                assert_eq!(improved, from_cases, "{exec:?}");
            }
        }
    }

    #[test]
    fn sharded_mode_produces_cases() {
        let world = World::build(&WorldConfig::small(), 21);
        let mut cfg = CampaignConfig::small();
        cfg.rounds = 2;
        cfg.exec = ExecMode::Sharded {
            rounds_in_flight: 2,
        };
        let r = Campaign::new(&world, cfg).run();
        assert!(!r.cases.is_empty());
        assert!(r.pings_sent > 0);
    }

    #[test]
    fn histories_are_populated() {
        let (_, r) = quick_results();
        assert!(!r.direct_history.is_empty());
        assert!(!r.link_history.is_empty());
        assert!(!r.symmetry_samples.is_empty());
        for ((a, b), v) in r.direct_history.iter().take(20) {
            assert!(a <= b, "history keys must be ordered");
            assert!(!v.is_empty());
        }
        // Pairs iterate in ascending order, each exactly once.
        let keys: Vec<_> = r.link_history.iter().map(|(k, _)| *k).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(keys.len(), r.link_history.len());
    }
}
