//! The pair cache's byte gauge and budget, checked against the bytes
//! the heap actually holds. A counting allocator, installed in this
//! test binary only, tracks live heap bytes across all threads; the
//! test keeps its own clone of the engine's router, so dropping the
//! engine frees exactly its pair cache and path interner.
//!
//! - Unbudgeted, `EngineStats::pair_resident_bytes` is within ±10 % of
//!   the bytes dropping the engine frees: the gauge counts the maps at
//!   capacity and the interned paths, not a per-entry estimate.
//! - Under a starved budget with a link flap every round, dropping the
//!   engine frees at most 1.1 × the budget's pair share: evicted
//!   entries release their paths, and a path released to zero is
//!   reused, not kept.

use colo_shortcuts::core::workflow::{Campaign, CampaignConfig};
use colo_shortcuts::core::world::{World, WorldConfig};
use colo_shortcuts::netsim::PingEngine;
use colo_shortcuts::topology::{Asn, MemoryBudget, TopologyDelta};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// Forwards to the system allocator, counting live bytes.
struct Counting;

static LIVE: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const ROUNDS: u32 = 6;

/// Runs a small campaign on an engine built under `budget` and returns
/// the engine's gauge, its evictions and the heap bytes dropping it
/// frees.
fn campaign_then_drop(world: &World, budget: MemoryBudget, churn: bool) -> (u64, u64, u64) {
    let mut cfg = CampaignConfig::small();
    cfg.rounds = ROUNDS;
    cfg.memory = budget;
    if churn {
        flap_every_round(world, &mut cfg);
    }
    let engine = world.shared().engine_budgeted(cfg.routing, budget);
    let results = Campaign::new(world, cfg).run_streaming_on(&engine, |_| {});
    assert!(!results.cases.is_empty());
    drop(results);
    let router = Arc::clone(engine.router());
    let stats = engine.engine_stats();
    let engine: PingEngine = Arc::into_inner(engine).expect("the campaign kept no engine handle");
    let before = LIVE.load(Ordering::Relaxed);
    drop(engine);
    let freed = before - LIVE.load(Ordering::Relaxed);
    drop(router);
    (
        stats.pair_resident_bytes,
        stats.pair_evictions,
        freed as u64,
    )
}

/// The first customer link of successive transit ASes goes down one
/// per round from round 1, and the previous round's link comes back.
fn flap_every_round(world: &World, cfg: &mut CampaignConfig) {
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
}

/// Total budget of the starved run: its pair share (45 %) is about a
/// quarter of what the campaign holds unbudgeted.
const STARVED: u64 = 2_850_000;

#[test]
fn the_gauge_and_the_budget_hold_in_real_heap_bytes() {
    let world = World::build(&WorldConfig::small(), 77);

    let (gauge, _, freed) = campaign_then_drop(&world, MemoryBudget::unbounded(), false);
    eprintln!("unbudgeted: gauge {gauge} B, dropping the engine freed {freed} B");
    let off = gauge.abs_diff(freed) as f64 / freed as f64;
    assert!(
        off <= 0.10,
        "gauge {gauge} B is {:.1} % off {freed} B",
        off * 100.0
    );

    let budget = MemoryBudget::bytes(STARVED);
    let share = budget.pair_bytes().unwrap();
    assert!(
        freed > 3 * share,
        "a {share} B pair share does not starve the campaign"
    );
    let (gauge, evictions, freed) = campaign_then_drop(&world, budget, true);
    eprintln!("pair share {share} B: gauge {gauge} B, {evictions} evictions, freed {freed} B");
    assert!(evictions > 0, "the budget never evicted");
    assert!(
        freed as f64 <= 1.1 * share as f64,
        "dropping the engine freed {freed} B, over 1.1 x the {share} B pair share"
    );
}
