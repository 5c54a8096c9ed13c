//! The world pool: one warmed engine stack per `(world seed, policy)`,
//! kept under a pool-level byte budget.
//!
//! Building a [`World`] and warming an engine's caches is the
//! expensive part of a measurement run — routing tables and pair
//! expansions dwarf the pings themselves for short campaigns. A
//! long-lived service therefore never rebuilds them per request:
//! the pool caches
//!
//! - **worlds** by seed (`Arc<World>` — topology, hosts, datasets), and
//! - **engine stacks** by `(world seed, routing policy)`
//!   (`Arc<PingEngine>` — router with its destination-table cache plus
//!   the sharded pair cache),
//!
//! so every session touching the same world measures through the same
//! warmed caches. Sharing is sound because the engine holds only
//! deterministic world facts (the sweep determinism contract); faults
//! and accounting stay on per-campaign `PingHandle`s.
//!
//! # Pool budget
//!
//! A service that outlives its clients accretes worlds: every distinct
//! `world-seed` a client ever pinned stays resident forever without a
//! bound. Under a [`MemoryBudget`] the pool therefore:
//!
//! - builds every pooled engine **budgeted** (`engine_budgeted`), so
//!   each stack's router and pair caches evict internally, and
//! - evicts **whole idle stacks** — the world plus all its engines —
//!   least-recently-*detached* first, whenever aggregate residency
//!   (substrate `SharedWorld::approx_bytes` plus each engine's
//!   resident cache bytes) exceeds the budget total.
//!
//! "Idle" is tracked by [`checkout`](WorldPool::checkout) leases: a
//! session holds a [`PoolLease`] for the duration of a batch, and only
//! worlds with zero live leases are eviction candidates. Evicting a
//! stack is transparent for results — a re-request rebuilds the same
//! deterministic world from its seed and re-warms caches — it only
//! costs the rebuild time, which is exactly the byte/time trade the
//! budget expresses.
//!
//! Locks are `parking_lot` mutexes: they do not poison, so a session
//! thread that panics mid-request can never wedge the pool for every
//! other session — the service's panic-safety story leans on this.

use parking_lot::Mutex;
use shortcuts_core::world::{World, WorldConfig};
use shortcuts_netsim::{EngineStats, PingEngine};
use shortcuts_telemetry::Field;
use shortcuts_topology::routing::RoutingPolicy;
use shortcuts_topology::MemoryBudget;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-seed world slot: lets a build synchronize its duplicates
/// without blocking the pool-wide map.
type WorldSlot = Arc<std::sync::OnceLock<Arc<World>>>;

/// Per-seed pool bookkeeping: the build slot plus the lease state the
/// evictor ranks by. Mutated only under the pool's `worlds` lock.
#[derive(Default)]
struct WorldEntry {
    slot: WorldSlot,
    /// Live [`PoolLease`]s on this seed; never evicted while > 0.
    attached: u64,
    /// Pool tick of the most recent lease drop — the LRU key.
    last_detach: u64,
}

/// Aggregate pool health for `STATS` reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Worlds currently resident (finished builds).
    pub worlds_resident: usize,
    /// Engine stacks currently resident.
    pub engines_resident: usize,
    /// Approximate resident bytes across all stacks (substrate plus
    /// engine cache bytes).
    pub resident_bytes: u64,
    /// Whole stacks evicted since the pool was created.
    pub stack_evictions: u64,
    /// The pool budget in bytes, `None` when unbounded.
    pub budget_bytes: Option<u64>,
}

impl PoolStats {
    /// The numeric stats as a flat field list — the single source for
    /// both the `STATS pool` line and the `METRICS` exposition. The
    /// budget is excluded: it renders as `unbounded` in the summary
    /// and as an optional dedicated gauge in the exposition.
    pub fn fields(&self) -> Vec<Field> {
        vec![
            Field::int("worlds", self.worlds_resident as u64),
            Field::int("engines", self.engines_resident as u64),
            Field::int("bytes", self.resident_bytes),
            Field::int("stack_evictions", self.stack_evictions),
        ]
    }

    /// One-line summary, mirroring `EngineStats::summary` style.
    pub fn summary(&self) -> String {
        format!(
            "{} budget={}",
            shortcuts_telemetry::kv_summary(&self.fields()),
            match self.budget_bytes {
                Some(b) => b.to_string(),
                None => "unbounded".into(),
            }
        )
    }
}

/// Caches worlds by seed and engine stacks by `(world seed, policy)`,
/// evicting whole idle stacks under a pool-level [`MemoryBudget`].
pub struct WorldPool {
    cfg: WorldConfig,
    memory: MemoryBudget,
    worlds: Mutex<HashMap<u64, WorldEntry>>,
    engines: Mutex<HashMap<(u64, RoutingPolicy), Arc<PingEngine>>>,
    /// Monotone detach clock; orders lease drops for LRU eviction.
    tick: AtomicU64,
    stack_evictions: AtomicU64,
}

impl WorldPool {
    /// An unbounded pool building worlds from `cfg` (each seed still
    /// produces its own deterministic world).
    pub fn new(cfg: WorldConfig) -> Self {
        Self::with_budget(cfg, MemoryBudget::unbounded())
    }

    /// A pool whose engines are cache-budgeted by `memory` and whose
    /// aggregate residency is bounded by `memory`'s total: idle stacks
    /// are evicted least-recently-detached-first once the total is
    /// exceeded.
    pub fn with_budget(cfg: WorldConfig, memory: MemoryBudget) -> Self {
        WorldPool {
            cfg,
            memory,
            worlds: Mutex::new(HashMap::new()),
            engines: Mutex::new(HashMap::new()),
            tick: AtomicU64::new(0),
            stack_evictions: AtomicU64::new(0),
        }
    }

    /// The pool's memory budget.
    pub fn memory(&self) -> MemoryBudget {
        self.memory
    }

    /// The world for `seed`, built on first use.
    ///
    /// The pool-wide lock covers only the slot lookup; the (expensive)
    /// build runs under the *seed's* `OnceLock`. Concurrent sessions
    /// asking for the same new seed wait for one build instead of
    /// racing N duplicates, while sessions on other — already cached —
    /// worlds sail past untouched.
    pub fn world(&self, seed: u64) -> Arc<World> {
        let slot: WorldSlot = {
            let mut worlds = self.worlds.lock();
            Arc::clone(&worlds.entry(seed).or_default().slot)
        };
        Arc::clone(slot.get_or_init(|| Arc::new(World::build(&self.cfg, seed))))
    }

    /// The shared engine stack for `(world seed, policy)`, created on
    /// first use. Every later caller gets the same engine — same
    /// router tables, same pair cache — however many sessions run on
    /// it concurrently. Under a pool budget the engine's own caches
    /// are budget-bounded too.
    pub fn engine(&self, seed: u64, policy: RoutingPolicy) -> Arc<PingEngine> {
        let world = self.world(seed);
        let mut engines = self.engines.lock();
        Arc::clone(
            engines
                .entry((seed, policy))
                .or_insert_with(|| world.shared().engine_budgeted(policy, self.memory)),
        )
    }

    /// Leases the engine stack for `(seed, policy)` to a session.
    ///
    /// While the returned [`PoolCheckout`] lives, the seed's whole
    /// stack is pinned — the evictor skips it no matter how far over
    /// budget the pool runs (a batch mid-flight must never lose its
    /// tables). Dropping the checkout stamps the seed's detach tick
    /// and runs one eviction pass, so residency converges back under
    /// the budget as soon as traffic quiets down.
    pub fn checkout(&self, seed: u64, policy: RoutingPolicy) -> PoolCheckout<'_> {
        {
            let mut worlds = self.worlds.lock();
            worlds.entry(seed).or_default().attached += 1;
        }
        let world = self.world(seed);
        let engine = self.engine(seed, policy);
        PoolCheckout {
            world,
            engine,
            lease: PoolLease { pool: self, seed },
        }
    }

    /// Number of worlds currently resident (builds in flight on other
    /// threads do not count until they finish).
    pub fn worlds_resident(&self) -> usize {
        self.worlds
            .lock()
            .values()
            .filter(|e| e.slot.get().is_some())
            .count()
    }

    /// Health snapshot of every pooled engine stack, sorted by
    /// `(world seed, policy)` for stable output.
    pub fn stats(&self) -> Vec<(u64, RoutingPolicy, EngineStats)> {
        let engines = self.engines.lock();
        let mut out: Vec<_> = engines
            .iter()
            .map(|(&(seed, policy), engine)| (seed, policy, engine.engine_stats()))
            .collect();
        drop(engines);
        out.sort_by_key(|&(seed, policy, _)| (seed, policy.label()));
        out
    }

    /// Aggregate pool health: residency, stack evictions, budget.
    pub fn pool_stats(&self) -> PoolStats {
        let worlds = self.worlds.lock();
        let engines = self.engines.lock();
        PoolStats {
            worlds_resident: worlds.values().filter(|e| e.slot.get().is_some()).count(),
            engines_resident: engines.len(),
            resident_bytes: Self::resident_bytes(&worlds, &engines),
            stack_evictions: self.stack_evictions.load(Ordering::Relaxed),
            budget_bytes: self.memory.total_bytes(),
        }
    }

    /// Approximate bytes the pool keeps resident: every finished
    /// world's substrate plus every engine's cache bytes. Callers hold
    /// both maps' locks.
    fn resident_bytes(
        worlds: &HashMap<u64, WorldEntry>,
        engines: &HashMap<(u64, RoutingPolicy), Arc<PingEngine>>,
    ) -> u64 {
        let substrate: u64 = worlds
            .values()
            .filter_map(|e| e.slot.get())
            .map(|w| w.shared().approx_bytes())
            .sum();
        let caches: u64 = engines
            .values()
            .map(|eng| {
                let s = eng.engine_stats();
                s.router_resident_bytes + s.pair_resident_bytes
            })
            .sum();
        substrate + caches
    }

    /// One eviction pass: while aggregate residency exceeds the budget
    /// total, drop the least-recently-detached **idle** stack (world
    /// plus all its engines). Stops when under budget or when only
    /// leased stacks remain — live batches are never interrupted.
    fn enforce_budget(&self) {
        let Some(budget) = self.memory.total_bytes() else {
            return;
        };
        let mut worlds = self.worlds.lock();
        let mut engines = self.engines.lock();
        while Self::resident_bytes(&worlds, &engines) > budget {
            let victim = worlds
                .iter()
                .filter(|(_, e)| e.attached == 0 && e.slot.get().is_some())
                .min_by_key(|(_, e)| e.last_detach)
                .map(|(&seed, _)| seed);
            let Some(seed) = victim else {
                break; // everything resident is leased
            };
            worlds.remove(&seed);
            engines.retain(|&(s, _), _| s != seed);
            self.stack_evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A leased engine stack: the world, its engine, and the lease pinning
/// both in the pool. Keep it for the duration of the batch.
pub struct PoolCheckout<'p> {
    /// The leased world.
    pub world: Arc<World>,
    /// The leased engine stack.
    pub engine: Arc<PingEngine>,
    /// The pin; dropped with the checkout, detaching the seed.
    pub lease: PoolLease<'p>,
}

/// Pins one world seed in the pool. Dropping the lease — normally or
/// during a session thread's unwinding — records the detach tick and
/// lets the evictor reclaim the stack if the pool is over budget.
pub struct PoolLease<'p> {
    pool: &'p WorldPool,
    seed: u64,
}

impl Drop for PoolLease<'_> {
    fn drop(&mut self) {
        {
            let mut worlds = self.pool.worlds.lock();
            if let Some(entry) = worlds.get_mut(&self.seed) {
                entry.attached = entry.attached.saturating_sub(1);
                entry.last_detach = self.pool.tick.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.pool.enforce_budget();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> WorldPool {
        WorldPool::new(WorldConfig::small())
    }

    /// A budget smaller than one small-world substrate: every detach
    /// leaves the pool over budget, so only leased stacks survive.
    fn starved_pool() -> WorldPool {
        WorldPool::with_budget(WorldConfig::small(), MemoryBudget::bytes(1))
    }

    #[test]
    fn worlds_are_cached_by_seed() {
        let p = pool();
        let a = p.world(5);
        let b = p.world(5);
        assert!(Arc::ptr_eq(&a, &b));
        let c = p.world(6);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(p.worlds_resident(), 2);
    }

    #[test]
    fn engines_are_cached_by_seed_and_policy() {
        let p = pool();
        let a = p.engine(5, RoutingPolicy::ValleyFree);
        let b = p.engine(5, RoutingPolicy::ValleyFree);
        assert!(Arc::ptr_eq(&a, &b), "same key must reuse the stack");
        let c = p.engine(5, RoutingPolicy::ShortestPath);
        assert!(!Arc::ptr_eq(&a, &c), "policies get separate routers");
        // Both engines route over the one cached world's topology.
        assert!(std::ptr::eq(a.topology(), c.topology()));
        assert_eq!(p.worlds_resident(), 1);
    }

    #[test]
    fn stats_cover_every_pooled_engine() {
        let p = pool();
        p.engine(1, RoutingPolicy::ValleyFree);
        p.engine(2, RoutingPolicy::ValleyFree);
        p.engine(1, RoutingPolicy::ShortestPath);
        let stats = p.stats();
        assert_eq!(stats.len(), 3);
        // Sorted by (seed, policy label).
        assert_eq!(stats[0].0, 1);
        assert_eq!(stats[1].0, 1);
        assert_eq!(stats[2].0, 2);
    }

    #[test]
    fn unbounded_pool_never_evicts() {
        let p = pool();
        for seed in 0..4 {
            let co = p.checkout(seed, RoutingPolicy::ValleyFree);
            drop(co);
        }
        assert_eq!(p.worlds_resident(), 4);
        let ps = p.pool_stats();
        assert_eq!(ps.stack_evictions, 0);
        assert_eq!(ps.budget_bytes, None);
        assert!(ps.resident_bytes > 0);
    }

    #[test]
    fn leased_stacks_are_pinned_and_idle_stacks_evict_lru() {
        let p = starved_pool();
        let held = p.checkout(1, RoutingPolicy::ValleyFree);
        // Two more stacks come and go; each detach leaves the pool
        // over its 1-byte budget, so each idle stack is reclaimed —
        // but never the leased seed 1.
        for seed in [2, 3] {
            let co = p.checkout(seed, RoutingPolicy::ValleyFree);
            drop(co);
        }
        assert_eq!(p.worlds_resident(), 1, "only the leased world stays");
        assert!(p.pool_stats().stack_evictions >= 2);
        // The leased engine is still the live stack (never torn down
        // under the session): no session ever resolved a pair on it,
        // so its (site-pair) cache holds nothing either way.
        assert_eq!(held.engine.engine_stats().pair_cache_entries, 0);
        drop(held);
        // Now seed 1 is idle too and the next pass reclaims it.
        let co = p.checkout(4, RoutingPolicy::ValleyFree);
        drop(co);
        assert_eq!(p.worlds_resident(), 0, "all idle stacks reclaimed");
    }

    #[test]
    fn evicted_stack_rebuilds_deterministically() {
        let p = starved_pool();
        let first = p.checkout(7, RoutingPolicy::ValleyFree);
        let topo_fact = first.world.topo.as_count();
        drop(first);
        assert_eq!(p.worlds_resident(), 0, "idle stack evicted");
        // Re-checkout rebuilds the same deterministic world.
        let again = p.checkout(7, RoutingPolicy::ValleyFree);
        assert_eq!(again.world.topo.as_count(), topo_fact);
        assert_eq!(p.pool_stats().worlds_resident, 1);
    }

    #[test]
    fn pool_stats_summary_names_every_field() {
        let p = starved_pool();
        drop(p.checkout(1, RoutingPolicy::ValleyFree));
        let s = p.pool_stats().summary();
        for key in [
            "worlds=",
            "engines=",
            "bytes=",
            "stack_evictions=",
            "budget=1",
        ] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
        let unbounded = pool().pool_stats().summary();
        assert!(unbounded.contains("budget=unbounded"));
    }
}
