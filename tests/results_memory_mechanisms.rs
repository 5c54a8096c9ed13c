//! What a campaign keeps in memory, pinned with allocation counts
//! rather than RSS readings. A counting allocator, installed in this
//! test binary only, counts per thread (and across threads, for a test
//! that runs alone):
//!
//! - fresh interned paths grow the interner's shard arenas by doubling
//!   — no allocation per path — re-interning allocates nothing, and a
//!   path released to zero is stored again in the slot it left;
//! - resolving fresh site pairs allocates per cache shard and per
//!   destination, never per site pair: a pair's facts are a plain
//!   record inline in the cache;
//! - `ResultsBuilder::finish` moves each buffered round into the
//!   results: a handful of allocations per round, however many history
//!   entries the rounds hold;
//! - a case is a plain 128-byte record and a round's improving relays
//!   share one arena: absorbing a round allocates a constant number of
//!   times however many improving lists it has, and finished results
//!   free no more heap than their entries' plain sizes;
//! - a round absorbed out of order waits in its partial, and is
//!   handed to the results once the rounds before it have arrived: its
//!   symmetry buffer is released then, and its case buffer moves;
//! - none of this changes results: a sharded and a parallel run of one
//!   campaign are bit-identical, histories included.

use colo_shortcuts::core::backend::{ExecMode, NetsimBackend};
use colo_shortcuts::core::colo::ColoRelay;
use colo_shortcuts::core::plan::{
    plan_round_for, OverlayPlan, PlannedEndpoint, PlannedPair, RoundPlan,
};
use colo_shortcuts::core::relays::{Relay, RelayType};
use colo_shortcuts::core::shard::{run_sharded, CompletedRound};
use colo_shortcuts::core::stitch::ResultsBuilder;
use colo_shortcuts::core::workflow::{
    Campaign, CampaignConfig, CampaignResults, CampaignSetup, CaseRecord, PairHistory,
};
use colo_shortcuts::core::world::{World, WorldConfig};
use colo_shortcuts::geo::{CityId, Continent, CountryCode, GeoPoint};
use colo_shortcuts::netsim::clock::SimTime;
use colo_shortcuts::netsim::{HostId, PingHandle};
use colo_shortcuts::netsim::{HostRegistry, LatencyModel, PingEngine};
use colo_shortcuts::topology::routing::Router;
use colo_shortcuts::topology::{Asn, PathId, PathInterner, Topology, TopologyConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Forwards to the system allocator, counting on the calling thread.
struct Counting;

thread_local! {
    /// Allocations made: `alloc`, `alloc_zeroed` and `realloc` calls.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes freed by `dealloc`.
    static FREED: Cell<u64> = const { Cell::new(0) };
    /// Allocations of `WATCHED[i]` bytes made, and freed by `dealloc`.
    static WATCHED: Cell<[usize; 8]> = const { Cell::new([0; 8]) };
    static WATCHED_ALLOCS: Cell<[u64; 8]> = const { Cell::new([0; 8]) };
    static WATCHED_FREES: Cell<[u64; 8]> = const { Cell::new([0; 8]) };
}

fn note(counts: &'static std::thread::LocalKey<Cell<[u64; 8]>>, size: usize) {
    let _ = WATCHED.try_with(|watched| {
        for (i, &w) in watched.get().iter().enumerate() {
            if w != 0 && w == size {
                let _ = counts.try_with(|c| {
                    let mut v = c.get();
                    v[i] += 1;
                    c.set(v);
                });
            }
        }
    });
}

/// Allocations made on every thread.
static ALL_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Held shared by every test, exclusively by a test counting
/// [`ALL_ALLOCS`], so no other test allocates meanwhile.
static ALONE: RwLock<()> = RwLock::new(());

fn beside_others() -> RwLockReadGuard<'static, ()> {
    ALONE.read().unwrap_or_else(|e| e.into_inner())
}

fn alone() -> RwLockWriteGuard<'static, ()> {
    ALONE.write().unwrap_or_else(|e| e.into_inner())
}

fn note_alloc(size: usize) {
    ALL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
    note(&WATCHED_ALLOCS, size);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALL_ALLOCS.fetch_add(1, Ordering::Relaxed);
        let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = FREED.try_with(|f| f.set(f.get() + layout.size() as u64));
        note(&WATCHED_FREES, layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on
/// this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Runs `f` and returns the heap bytes it freed on this thread.
fn freed_bytes(f: impl FnOnce()) -> u64 {
    let before = FREED.with(Cell::get);
    f();
    FREED.with(Cell::get) - before
}

/// Runs `f` alone and returns its result with the allocations every
/// thread made meanwhile — `f`'s worker threads included.
fn all_thread_allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let _alone = alone();
    let before = ALL_ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALL_ALLOCS.load(Ordering::Relaxed) - before)
}

/// Starts counting allocations and frees of exactly these sizes.
fn watch(sizes: [usize; 8]) {
    WATCHED.with(|w| w.set(sizes));
    WATCHED_ALLOCS.with(|c| c.set([0; 8]));
    WATCHED_FREES.with(|c| c.set([0; 8]));
}

fn watched() -> ([u64; 8], [u64; 8]) {
    (
        WATCHED_ALLOCS.with(Cell::get),
        WATCHED_FREES.with(Cell::get),
    )
}

fn small_world() -> World {
    World::build(&WorldConfig::small(), 77)
}

fn small_config(rounds: u32) -> CampaignConfig {
    let mut cfg = CampaignConfig::small();
    cfg.rounds = rounds;
    cfg
}

/// Measures `cfg`'s rounds through the scheduler and returns them in
/// round order, with the campaign's setup.
fn measured_rounds<'w>(
    world: &'w World,
    cfg: &CampaignConfig,
) -> (Vec<CompletedRound>, CampaignSetup<'w>) {
    let engine = world.shared().engine_budgeted(cfg.routing, cfg.memory);
    let handle = PingHandle::with_faults(Arc::clone(&engine), cfg.faults.clone());
    let setup = CampaignSetup::prepare(world, &handle, cfg);
    let backend = NetsimBackend::new(handle, cfg.window, cfg.seed);
    let mut done = Vec::new();
    run_sharded(
        &backend,
        cfg.rounds,
        2,
        |round| plan_round_for(world, &setup.endpoints, &setup.relays, cfg, round),
        |r| done.push(r),
    );
    done.sort_by_key(|r| r.plan.round);
    (done, setup)
}

#[test]
fn fresh_paths_grow_shard_arenas_and_freed_ones_are_recycled() {
    let _beside = beside_others();
    const N: usize = 4096;
    const LEN: usize = 5;
    let path = |i: usize| -> Vec<Asn> { (0..LEN).map(|j| Asn((i * 7 + j) as u32)).collect() };
    let paths: Vec<Vec<Asn>> = (0..N).map(path).collect();

    let interner = PathInterner::new();
    let (ids, allocs) =
        allocations(|| paths.iter().map(|p| interner.intern(p)).collect::<Vec<_>>());
    assert!(ids.iter().all(|(_, fresh)| *fresh));
    assert_eq!(interner.stats().interned, N as u64);
    // 32 shards, each growing an ASN array, an id table and a hash
    // table by doubling — O(shards · log N) — plus the collecting
    // `Vec`. An allocation per path would be N.
    let bound = 32 * 3 * (u64::from(N.ilog2()) + 1);
    assert!(allocs < bound, "{allocs} allocations for {N} fresh paths");

    // Interning them again allocates nothing: each takes one more
    // reference to its stored copy.
    let ((), again) = allocations(|| {
        for p in &paths {
            assert!(!interner.intern(p).1);
        }
    });
    assert_eq!(again, 0);
    assert_eq!(interner.live_paths(), N);

    // Releasing both references of half the paths frees them, and
    // interning those paths again stores them fresh, in exactly the
    // slots they left. What allocates is each shard compacting its
    // dead ASNs away once, that array growing back, and a hash table
    // rehashing.
    let mut freed: Vec<PathId> = ids[..N / 2].iter().flat_map(|&(id, _)| [id, id]).collect();
    interner.release(&mut freed);
    assert_eq!(interner.live_paths(), N / 2);
    let (again, allocs) = allocations(|| {
        paths[..N / 2]
            .iter()
            .map(|p| interner.intern(p))
            .collect::<Vec<_>>()
    });
    assert!(
        allocs <= 32 * 3 + 1,
        "{allocs} allocations to re-intern {}",
        N / 2
    );
    assert!(again.iter().all(|(_, fresh)| *fresh));
    let key = |id: &PathId| format!("{id:?}");
    let mut freed: Vec<PathId> = ids[..N / 2].iter().map(|&(id, _)| id).collect();
    let mut again: Vec<PathId> = again.into_iter().map(|(id, _)| id).collect();
    freed.sort_unstable_by_key(key);
    again.sort_unstable_by_key(key);
    assert_eq!(again, freed, "freed slots are recycled");
    assert_eq!(interner.live_paths(), N);
    assert_eq!(interner.stats().interned, (N + N / 2) as u64);
}

#[test]
fn fresh_site_pairs_resolve_without_an_allocation_each() {
    const K: usize = 128;
    let topo = Arc::new(Topology::generate(&TopologyConfig::small(), 77));
    let router = Arc::new(Router::new(Arc::clone(&topo)));
    let mut reg = HostRegistry::new();
    let hosts: Vec<HostId> = topo
        .ases()
        .iter()
        .take(K)
        .map(|info| reg.add_host_in_as(&topo, info.asn, None).unwrap())
        .collect();
    assert_eq!(hosts.len(), K);
    let reg = Arc::new(reg);
    // One host per AS: every ordered host pair is its own site pair,
    // with its own forward and reverse route.
    let pairs: Vec<(HostId, HostId)> = hosts
        .iter()
        .flat_map(|&a| hosts.iter().filter(move |&&b| b != a).map(move |&b| (a, b)))
        .collect();
    let engine = || {
        PingEngine::new(
            Arc::clone(&topo),
            Arc::clone(&router),
            Arc::clone(&reg),
            LatencyModel::default(),
        )
    };
    // Build every routing table first: only the resolver allocates below.
    let _ = engine().resolve_pairs(&pairs);
    let engine = engine();
    let (block, allocs) = all_thread_allocations(|| engine.resolve_pairs(&pairs));
    let n = pairs.len() as u64;
    let stats = engine.engine_stats();
    assert_eq!(stats.pair_cache_misses, n);
    assert_eq!(
        stats.paths_interned, n,
        "each directed route is a distinct path"
    );
    assert!((0..block.len() as u32).all(|s| block.is_routable(s)));
    // Per cache shard, per interner shard (growth by doubling) and per
    // destination's route run — O((shards + destinations) · log N). A
    // record and two paths allocated per site pair would be 3N.
    assert!(
        allocs < n / 4,
        "{allocs} allocations for {n} fresh site pairs"
    );
}

/// Absorbs `rounds` in `order`, then counts `finish`'s allocations.
fn finish_allocations(
    rounds: &[CompletedRound],
    order: impl Iterator<Item = usize>,
    setup: CampaignSetup<'_>,
) -> (CampaignResults, u64) {
    let mut builder = ResultsBuilder::new();
    for i in order {
        let r = &rounds[i];
        builder.absorb_round(&r.plan, &r.overlay, &r.direct, &r.reverse, &r.links);
    }
    allocations(|| builder.finish(setup.colo, 0))
}

#[test]
fn finish_moves_rounds_and_allocates_per_round_not_per_entry() {
    let _beside = beside_others();
    const ROUNDS: u32 = 4;
    // Allocations `finish` may make per buffered round: growth of the
    // cases, both histories' round lists, the symmetry samples and the
    // relay-metadata map.
    const PER_ROUND: u64 = 8;
    let world = small_world();
    let cfg = small_config(ROUNDS);
    let (rounds, setup) = measured_rounds(&world, &cfg);
    // In reverse, every round is still buffered when `finish` runs.
    let (results, allocs) = finish_allocations(&rounds, (0..rounds.len()).rev(), setup);
    let pairs = results.direct_history.len() + results.link_history.len();
    assert!(
        allocs <= PER_ROUND * u64::from(ROUNDS),
        "finish made {allocs} allocations for {ROUNDS} rounds"
    );
    // Re-keying the histories would allocate a list per pair.
    assert!(pairs > 50 * PER_ROUND as usize * ROUNDS as usize);
    assert_eq!(
        results.cases.len(),
        rounds.iter().map(|r| r.plan.pairs.len()).sum::<usize>()
            - results.unresponsive_pairs as usize
    );

    // In order, only the last round is left for `finish`.
    let (_, setup) = measured_rounds(&world, &cfg);
    let (_, in_order) = finish_allocations(&rounds, 0..rounds.len(), setup);
    assert!(in_order <= PER_ROUND, "finish made {in_order} allocations");
}

#[test]
fn cases_are_plain_records_sharing_a_per_round_improving_arena() {
    let _beside = beside_others();
    const ROUNDS: u32 = 3;
    // Allocations one `absorb_round` may make, however many cases and
    // improving relays its round has: the partial's buffers, the link
    // grid and its masks, trimming them to length, appending the round
    // before, and growing the round's arena past the largest before it
    // (from empty in the first round).
    const PER_ROUND: u64 = 32;
    // Heap per round beside its entries: the round's slots in the case
    // table's and the histories' round lists.
    const PER_ROUND_BYTES: usize = 512;
    let world = small_world();
    let cfg = small_config(ROUNDS);
    let (rounds, setup) = measured_rounds(&world, &cfg);
    let mut builder = ResultsBuilder::new();
    let mut links_measured = 0;
    for r in &rounds {
        let (summary, allocs) = allocations(|| {
            builder.absorb_round(&r.plan, &r.overlay, &r.direct, &r.reverse, &r.links)
        });
        assert!(
            allocs <= PER_ROUND,
            "absorbing round {} made {allocs} allocations for {} cases",
            r.plan.round,
            summary.cases
        );
        links_measured += summary.links_measured;
    }
    let results = builder.finish(setup.colo, 0);

    let cases = results.cases.len();
    let (mut improving, mut lists) = (0, 0);
    for case in &results.cases {
        for t in RelayType::ALL {
            let n = case.improving(t).len();
            assert_eq!(n, case.outcome(t).n_improving as usize);
            improving += n;
            lists += usize::from(n > 0);
        }
    }
    // An allocation per improving list would exceed the bound above.
    assert!(
        lists as u64 > PER_ROUND * u64::from(ROUNDS),
        "{lists} improving lists"
    );
    // Every case left one direct-history entry.
    let history = cases + links_measured;
    let symmetry = results.symmetry_samples.len();
    let meta = freed_bytes(|| drop(results.relay_meta.clone()));
    let colo = results.colo_pool.relays.capacity() * std::mem::size_of::<ColoRelay>();
    let bound = 128 * cases
        + 8 * improving
        + 16 * (history + symmetry)
        + meta as usize
        + colo
        + PER_ROUND_BYTES * ROUNDS as usize;
    let freed = freed_bytes(|| drop(results));
    assert!(
        freed <= bound as u64,
        "dropping the results freed {freed} B, over the {bound} B their {cases} cases, \
         {improving} improving relays and {history} history entries account for"
    );
}

fn endpoint(host: u32) -> PlannedEndpoint {
    PlannedEndpoint {
        host: HostId(host),
        country: CountryCode::new("US").unwrap(),
        city: CityId(0),
        continent: Continent::NorthAmerica,
        location: GeoPoint::new(0.0, f64::from(host)).unwrap(),
    }
}

/// Round `round` with `3 + round` responsive direct pairs between two
/// endpoints, each also measured in reverse, and no relays, so its
/// case and symmetry buffers have sizes of their own.
fn sized_round(round: u32) -> (RoundPlan, OverlayPlan, Vec<Option<f64>>) {
    let pairs = 3 + round as usize;
    let plan = RoundPlan {
        round,
        t0: SimTime(0.0),
        endpoints: vec![endpoint(1), endpoint(2)],
        pairs: vec![
            PlannedPair {
                src: 0,
                dst: 1,
                reverse: true,
            };
            pairs
        ],
        relays: Vec::<Relay>::new(),
    };
    let overlay = OverlayPlan::from_rows(0, &vec![Vec::new(); pairs], Vec::new());
    let direct = (0..pairs).map(|i| Some(50.0 + i as f64)).collect();
    (plan, overlay, direct)
}

#[test]
fn an_out_of_order_round_waits_and_is_released_once_contiguous() {
    let _beside = beside_others();
    let rounds: Vec<_> = (0..4).map(sized_round).collect();
    let buffer = |r: usize, entry: usize| rounds[r].0.pairs.len() * entry;
    let symmetry_buffer = |r| buffer(r, std::mem::size_of::<(f64, f64)>());
    let case_buffer = |r| buffer(r, std::mem::size_of::<CaseRecord>());
    watch([
        symmetry_buffer(0),
        symmetry_buffer(1),
        symmetry_buffer(2),
        symmetry_buffer(3),
        case_buffer(0),
        case_buffer(1),
        case_buffer(2),
        case_buffer(3),
    ]);
    let symmetry_freed = || -> [u64; 4] { watched().1[..4].try_into().unwrap() };
    let cases_freed = || -> [u64; 4] { watched().1[4..].try_into().unwrap() };

    let mut builder = ResultsBuilder::new();
    // After absorbing each round: symmetry buffers freed so far, per
    // round — a round's samples join the results' list as it is
    // appended. (Allocations of these sizes are not a signal: direct
    // history entries have the same size.)
    let expect = [
        (2, [0, 0, 0, 0]),
        (0, [0, 0, 0, 0]),
        // Round 0 became contiguous; it is appended as round 3 arrives.
        (3, [1, 0, 0, 0]),
        // Rounds 1–3 are contiguous now but wait for the next call.
        (1, [1, 0, 0, 0]),
    ];
    for (n, (round, freed)) in expect.into_iter().enumerate() {
        let (plan, overlay, direct) = &rounds[round];
        let summary = builder.absorb_round(plan, overlay, direct, direct, &[]);
        assert_eq!(summary.cases, plan.pairs.len());
        assert_eq!(summary.symmetry_samples, plan.pairs.len());
        assert_eq!(builder.rounds_absorbed(), n as u32 + 1);
        assert_eq!(symmetry_freed(), freed, "after round {round}");
    }
    let results = builder.finish(
        colo_shortcuts::core::colo::ColoPool {
            relays: Vec::new(),
            funnel: colo_shortcuts::core::colo::FilterFunnel {
                initial: 0,
                single_facility: 0,
                pingable: 0,
                ownership: 0,
                presence: 0,
                geolocated: 0,
            },
        },
        0,
    );
    assert_eq!(symmetry_freed(), [1, 1, 1, 1], "finish releases the rest");
    // Case buffers move into the results: each allocated once, and
    // freed only with the results.
    assert_eq!(cases_freed(), [0, 0, 0, 0]);
    assert_eq!(watched().0[4..], [1, 1, 1, 1]);
    let order: Vec<u32> = results.cases.iter().map(|c| c.round).collect();
    let want: Vec<u32> = (0..4u32)
        .flat_map(|r| std::iter::repeat_n(r, 3 + r as usize))
        .collect();
    assert_eq!(order, want, "cases in round order");
    assert_eq!(results.direct_history.len(), 1);
    let history = &results.direct_history[&(HostId(1), HostId(2))];
    assert_eq!(history.len(), want.len());
    assert!((results.avg_endpoints - 2.0).abs() < 1e-12);
    drop(results);
    assert_eq!(cases_freed(), [1, 1, 1, 1]);
}

fn history_bits(h: &PairHistory) -> Vec<((HostId, HostId), Vec<u64>)> {
    h.iter()
        .map(|(k, v)| (*k, v.iter().map(|x| x.to_bits()).collect()))
        .collect()
}

#[test]
fn sharded_and_parallel_results_are_bit_equal_histories_included() {
    let _beside = beside_others();
    let world = small_world();
    let run = |exec: ExecMode| {
        let mut cfg = small_config(3);
        cfg.exec = exec;
        Campaign::new(&world, cfg).run()
    };
    let parallel = run(ExecMode::Parallel);
    let sharded = run(ExecMode::Sharded {
        rounds_in_flight: 2,
    });
    assert!(!parallel.cases.is_empty());
    assert_eq!(
        colo_shortcuts::core::report::cases_csv(&parallel),
        colo_shortcuts::core::report::cases_csv(&sharded)
    );
    assert_eq!(parallel.cases.len(), sharded.cases.len());
    for (a, b) in parallel.cases.iter().zip(&sharded.cases) {
        assert_eq!((a.round, a.src, a.dst), (b.round, b.src, b.dst));
        assert_eq!(a.direct_ms.to_bits(), b.direct_ms.to_bits());
        for t in RelayType::ALL {
            let (oa, ob) = (a.outcome(t), b.outcome(t));
            assert_eq!(oa.feasible, ob.feasible);
            assert_eq!(
                oa.best().map(|(h, v)| (h, v.to_bits())),
                ob.best().map(|(h, v)| (h, v.to_bits()))
            );
            let bits = |o: &[(HostId, f32)]| -> Vec<_> {
                o.iter().map(|&(h, v)| (h, v.to_bits())).collect()
            };
            assert_eq!(bits(a.improving(t)), bits(b.improving(t)), "{t:?}");
        }
    }
    assert!(!parallel.direct_history.is_empty() && !parallel.link_history.is_empty());
    assert_eq!(
        history_bits(&parallel.direct_history),
        history_bits(&sharded.direct_history)
    );
    assert_eq!(
        history_bits(&parallel.link_history),
        history_bits(&sharded.link_history)
    );
    let sym = |r: &CampaignResults| -> Vec<_> {
        r.symmetry_samples
            .iter()
            .map(|&(f, b)| (f.to_bits(), b.to_bits()))
            .collect()
    };
    assert_eq!(sym(&parallel), sym(&sharded));
    let mut relays_a: Vec<_> = parallel.relay_meta.keys().copied().collect();
    let mut relays_b: Vec<_> = sharded.relay_meta.keys().copied().collect();
    relays_a.sort_unstable();
    relays_b.sort_unstable();
    assert_eq!(relays_a, relays_b);
    assert_eq!(parallel.pings_sent, sharded.pings_sent);
    assert_eq!(parallel.unresponsive_pairs, sharded.unresponsive_pairs);
    assert_eq!(
        parallel.avg_endpoints.to_bits(),
        sharded.avg_endpoints.to_bits()
    );
    for t in 0..4 {
        assert_eq!(
            parallel.avg_relays[t].to_bits(),
            sharded.avg_relays[t].to_bits()
        );
    }
}
