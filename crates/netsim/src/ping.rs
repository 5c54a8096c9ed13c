//! The ping engine: end-to-end RTT sampling between registered hosts.
//!
//! Composes the stack: resolve hosts → policy AS path (cached per
//! destination by [`Router`]) → hand-off walk over the hosts' cities
//! ([`path_cost`]: kilometers and router hops, no path materialized) →
//! base RTT → noise/faults → one observed sample.
//!
//! ## One resolver, three levels
//!
//! Everything deterministic about a ping is resolved once and cached,
//! at the level it actually depends on:
//!
//! - **Routes per AS pair.** A forward route is a walk over the
//!   destination AS's routing table, a reverse route the same walk for
//!   the mirrored AS pair. Both feed the base RTT; only the forward
//!   route is kept, interned ([`PathInterner`]) so it is stored once
//!   however many pairs use it.
//! - **Facts per site pair.** A *site* is an `(AS, city)` a host sits
//!   at ([`SiteId`]). The two hand-off walks, the base RTT between the
//!   sites and the interned forward path depend on nothing else, so
//!   the pair cache is keyed by `(SiteId, SiteId)` and every host pair
//!   on those sites shares the entry: a 16-byte record of the base RTT
//!   and the forward path's [`PathId`], stored inline. Under churn an
//!   entry stamped before the engine's epoch is a miss and is
//!   re-expanded, as a stale routing table is rebuilt.
//! - **Rows per host pair.** The hosts add their own last-mile delay,
//!   `s.access_ms + d.access_ms`, on top of the site pair's base RTT —
//!   never cached, so two hosts of one site keep distinct RTTs.
//!
//! The engine co-owns its topology, router and host registry behind
//! `Arc`s and holds **no per-campaign state**: everything inside is
//! either immutable or a deterministic cache, so one engine — and with
//! it the pair cache and the router's destination tables — is shared
//! by every campaign of a scenario sweep. Per-campaign concerns
//! (a fault plan, ping accounting) live in [`PingHandle`], a cheap
//! per-campaign view of the shared engine. The [`Pinger`] trait
//! abstracts over the two so measurement code works with either.
//!
//! ## The batched kernel
//!
//! Scalar pings ([`PingEngine::ping`]) resolve the pair on every call:
//! a shard lock, a hash probe and, under faults, a copy of the path —
//! six times per measurement window. Round execution instead batches:
//! [`PingEngine::resolve_pairs`] resolves a whole round's pair set in
//! flat passes (host pairs deduped to site pairs, each cache shard
//! locked once, the missing routes swept destination-major so each
//! routing table is pinned once per batch, chunked inserts per shard)
//! into a [`PairBlock`] — a struct-of-arrays snapshot of the resolved
//! facts — and [`PingEngine::sample_window_resolved`] then samples a
//! window from a block row in a tight, allocation-free loop. RNG draws
//! are replicated exactly, so batched results are bit-identical to the
//! scalar path, which survives as the equivalence oracle: its miss
//! walks one site pair's two routes directly, through the same route,
//! facts and publication code the batch runs.

use crate::clock::SimTime;
use crate::fasthash::FastMap;
use crate::fault::FaultPlan;
use crate::host::{Host, HostId, HostRegistry, SiteId};
use crate::latency::LatencyModel;
use crate::path::path_cost;
use crate::traceroute::Traceroute;
use parking_lot::RwLock;
use rand::Rng;
use rayon::prelude::*;
use shortcuts_telemetry::Field;
use shortcuts_topology::intern::map_heap_bytes;
use shortcuts_topology::routing::{Router, RoutingTable};
use shortcuts_topology::{Asn, NodeId, PathId, PathInterner, Topology, TopologyDelta};
use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, RwLockReadGuard};

/// Most entries a batch interns and publishes per shard write lock.
const PUBLISH_CHUNK: usize = 64;

/// A pair-cache key: the source and destination hosts' sites.
type SiteKey = (SiteId, SiteId);

/// Cached deterministic facts of a site pair — what every host pair on
/// those two sites shares — as a plain value stored inline in the
/// cache. The diurnal midpoint is not stored: it depends only on the
/// two sites' cities, so it is recomputed from the requesting hosts'
/// (city-centre) locations.
#[derive(Debug, Clone, Copy)]
struct PairFacts {
    /// Base RTT between the sites (deterministic part, **without** the
    /// hosts' access delay — that is added per host pair, on top), ms.
    /// NaN for an unroutable pair.
    base_ms: f64,
    /// Interned forward AS path (for fault checks, `as_path` and
    /// traceroute); [`PathId::NONE`] = unroutable. The reverse route
    /// only feeds `base_ms` and is not kept.
    fwd: PathId,
}

impl PairFacts {
    const UNROUTABLE: PairFacts = PairFacts {
        base_ms: f64::NAN,
        fwd: PathId::NONE,
    };

    fn routable(&self) -> bool {
        self.fwd != PathId::NONE
    }

    /// The interned path this record holds one reference to, if any.
    fn path(&self) -> Option<PathId> {
        self.routable().then_some(self.fwd)
    }
}

/// Statistics the engine keeps about itself (diagnostics/benchmarks).
#[derive(Debug, Clone, Copy, Default)]
pub struct PingStats {
    /// Pings attempted.
    pub attempts: u64,
    /// Pings that returned a reply.
    pub replies: u64,
    /// Pings lost to noise or faults.
    pub losses: u64,
    /// Pings that failed because no route exists.
    pub unroutable: u64,
}

/// Lock-free counters behind [`PingStats`]: the campaign's parallel
/// executor hammers these from every worker thread, so they are plain
/// relaxed atomics rather than a lock.
#[derive(Debug, Default)]
struct StatCounters {
    attempts: AtomicU64,
    replies: AtomicU64,
    losses: AtomicU64,
    unroutable: AtomicU64,
}

impl StatCounters {
    /// Adds a locally accumulated tally, skipping zero fields — a
    /// tally flush is the only counter traffic the batched kernel
    /// generates, so flushes should be as cheap as the common case
    /// (no losses, no unroutables) allows.
    fn flush(&self, t: &SampleTally) {
        if t.attempts > 0 {
            self.attempts.fetch_add(t.attempts, Ordering::Relaxed);
        }
        if t.replies > 0 {
            self.replies.fetch_add(t.replies, Ordering::Relaxed);
        }
        if t.losses > 0 {
            self.losses.fetch_add(t.losses, Ordering::Relaxed);
        }
        if t.unroutable > 0 {
            self.unroutable.fetch_add(t.unroutable, Ordering::Relaxed);
        }
    }
}

/// Locally accumulated window statistics. The batched kernel samples
/// windows in chunks per worker; accumulating into one of these and
/// flushing per chunk ([`PingHandle::flush_tally`]) replaces four
/// shared-cache-line `fetch_add`s *per window* with a handful per
/// chunk. Totals are identical to per-window accounting — the shared
/// counters are relaxed, so only the flush granularity changes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SampleTally {
    /// Pings attempted.
    pub attempts: u64,
    /// Pings that returned a reply.
    pub replies: u64,
    /// Pings lost to noise or faults.
    pub losses: u64,
    /// Pings that failed because no route exists.
    pub unroutable: u64,
}

/// Health snapshot of a (possibly long-lived, shared) engine stack:
/// how warm its caches are and how much traffic it has carried. This
/// is what a measurement *service* reports per pooled engine (`STATS`)
/// and what `sweep` prints as its end-of-run summary line.
///
/// All counters are monotonic over the engine's lifetime and read with
/// relaxed ordering — each is exact, and cross-counter totals are
/// exact whenever no ping is mid-flight on another thread.
///
/// The pair cache is keyed by **site pair** (`(AS, city)` →
/// `(AS, city)`), so every `pair_*` field counts site-pair entries and
/// lookups, not host pairs; `pair_rows` counts the host pairs served
/// from them, and `pair_rows / (hits + misses)` is the live
/// hosts-per-site sharing factor *within* a batch (hosts of one site
/// met in different batches share through the hit rate instead).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Site-pair lookups that found a resident entry.
    pub pair_cache_hits: u64,
    /// Site-pair lookups that had to expand the site pair first.
    pub pair_cache_misses: u64,
    /// Site pairs currently resident in the pair cache.
    pub pair_cache_entries: u64,
    /// Destination routing tables resident in the router's cache.
    pub router_tables_resident: u64,
    /// Pings attempted through the engine (all campaigns, all
    /// sessions).
    pub pings_sent: u64,
    /// Approximate bytes of resident routing tables.
    pub router_resident_bytes: u64,
    /// Routing tables dropped by the router's byte budget.
    pub router_evictions: u64,
    /// Routing-table misses on previously resident destinations — the
    /// recomputation an earlier eviction deferred.
    pub router_recomputes: u64,
    /// Approximate bytes resident across the pair cache's shards.
    pub pair_resident_bytes: u64,
    /// Site-pair entries dropped by the per-shard byte budget.
    pub pair_evictions: u64,
    /// Always 0: stale routing tables are re-stamped or rebuilt since
    /// incremental repair was removed. Kept because the perf ledger
    /// reads it; a `benchmark` change may drop it.
    pub tables_repaired: u64,
    /// Always 0, for the same reason as `tables_repaired`.
    pub entries_rescanned: u64,
    /// Stale routing tables rebuilt under the current view.
    pub full_rebuilds: u64,
    /// Always 0: a stale site-pair entry is re-expanded, never
    /// revalidated in place. Kept because the perf ledger reads it; a
    /// `benchmark` change may drop it.
    pub pair_revalidated: u64,
    /// AS paths interned fresh (each stored once, however many pairs
    /// reference it; a path freed and interned again counts again).
    pub paths_interned: u64,
    /// Path-interning requests served by an already-stored path —
    /// references that cost no additional path bytes.
    pub path_dedup_hits: u64,
    /// Host pairs served: one per scalar lookup, one per distinct host
    /// pair of a resolved batch. Every lookup behind `pair_cache_hits`
    /// and `pair_cache_misses` serves at least one.
    pub pair_rows: u64,
    /// Directed AS-pair routes walked off a routing table and interned
    /// (a batch walks each distinct route it is missing once, whatever
    /// number of site pairs need it).
    pub routes_walked: u64,
}

impl EngineStats {
    /// Fraction of pair lookups served from cache (0 when idle).
    pub fn pair_cache_hit_rate(&self) -> f64 {
        let total = self.pair_cache_hits + self.pair_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.pair_cache_hits as f64 / total as f64
        }
    }

    /// The stats as a flat field list — the single source both the
    /// `STATS` summary line and the `METRICS` exposition render from,
    /// so the two surfaces cannot drift.
    pub fn fields(&self) -> Vec<Field> {
        vec![
            Field::int("pair_hits", self.pair_cache_hits),
            Field::int("pair_misses", self.pair_cache_misses),
            Field::rate("pair_hit_rate", self.pair_cache_hit_rate()),
            Field::int("pair_entries", self.pair_cache_entries),
            Field::int("tables_resident", self.router_tables_resident),
            Field::int("pings_sent", self.pings_sent),
            Field::int("tables_bytes", self.router_resident_bytes),
            Field::int("table_evictions", self.router_evictions),
            Field::int("table_recomputes", self.router_recomputes),
            Field::int("pair_bytes", self.pair_resident_bytes),
            Field::int("pair_evictions", self.pair_evictions),
            Field::int("tables_repaired", self.tables_repaired),
            Field::int("entries_rescanned", self.entries_rescanned),
            Field::int("full_rebuilds", self.full_rebuilds),
            Field::int("pair_revalidated", self.pair_revalidated),
            Field::int("paths_interned", self.paths_interned),
            Field::int("path_dedup_hits", self.path_dedup_hits),
            Field::int("pair_rows", self.pair_rows),
            Field::int("routes_walked", self.routes_walked),
        ]
    }

    /// One-line human/machine-readable summary, `key=value` separated
    /// by spaces — the service's `STATS` payload format. Rendered from
    /// [`EngineStats::fields`].
    pub fn summary(&self) -> String {
        shortcuts_telemetry::kv_summary(&self.fields())
    }
}

/// Shards in the pair cache. First-touch rounds are write-heavy — the
/// campaign's sharded scheduler can have several rounds' worth of
/// worker threads inserting fresh pairs at once — so the cache is
/// split into independently locked shards to keep writers from
/// serializing on one `RwLock`. 64 shards ≫ any realistic core count.
/// Public so front ends can validate a memory budget's pair share
/// (each shard must afford at least one resident entry).
pub const CACHE_SHARDS: usize = 64;

/// One resident site-pair entry with its CLOCK and churn bookkeeping:
/// 24 B, so a map slot with its key is 32 B.
struct CacheEntry {
    facts: PairFacts,
    /// Path bytes this entry is charged (fixed at insert): its forward
    /// path's.
    path_bytes: u32,
    /// Bit 31 ([`REFERENCED`]): the CLOCK reference bit — set on a hit
    /// (under the shard's *read* lock, hence atomic), cleared when the
    /// hand passes. Bits 0–30: the churn epoch the entry was expanded
    /// at. A lookup under a newer engine epoch is a miss: the entry is
    /// re-expanded and replaced in place.
    state: AtomicU32,
}

/// The reference bit of [`CacheEntry::state`].
const REFERENCED: u32 = 1 << 31;

const _: () = assert!(std::mem::size_of::<(SiteKey, CacheEntry)>() == 32);

impl CacheEntry {
    fn stamp(&self) -> u32 {
        self.state.load(Ordering::Relaxed) & !REFERENCED
    }
}

/// A freshly expanded entry awaiting publication: the site pair, its
/// facts, the path bytes its cache entry is charged.
type ComputedEntry = (SiteKey, PairFacts, u32);

/// One directed AS-level route as the resolver holds it: its
/// `(start, end)` in the batch's route buffer. `None` = unreachable.
type Route = Option<(u32, u32)>;

/// One distinct site pair to resolve, with a host pair on it (whose
/// hosts stand in for the sites when it must expand).
type SiteRequest = (SiteKey, HostId, HostId);

/// What a batch resolved for one site pair: its base RTT and its
/// forward path's `(start, end)` in the block's ASN buffer (empty =
/// unroutable).
type SiteRow = (f64, (u32, u32));

/// Bytes one reference to a path of `len` ASNs is charged: the most
/// heap the path can hold in the interner. Every live path is
/// referenced by at least one resident entry, so the charges bound the
/// arena; a path shared by several entries is charged to each, which
/// overstates a loosely budgeted cache and is close to exact in a
/// starved one, where few resident entries share a path.
fn path_charge(len: usize) -> u32 {
    PathInterner::stored_bytes_bound(len) as u32
}

/// Minimum bytes a shard holding one resident pair costs — its map and
/// CLOCK ring at their smallest, for an unroutable entry — what
/// `MemoryBudget::ensure_fits` should charge per shard when a front
/// end validates a budget before running.
pub fn pair_entry_min_bytes() -> u64 {
    // A vector of 8-byte keys allocates room for four on first push.
    (map_heap_bytes::<SiteKey, CacheEntry>(1) + 4 * std::mem::size_of::<SiteKey>()) as u64
}

/// Write-locked state of one shard: the resident map plus its CLOCK
/// machinery — a ring of resident keys, the hand position, and the
/// byte gauges the shard budget is enforced against.
#[derive(Default)]
struct ShardState {
    map: FastMap<SiteKey, CacheEntry>,
    /// Resident keys in (approximate) insertion order, kept only under
    /// a budget; eviction swaps removed keys out, so the ring stays
    /// dense and O(1) to maintain.
    ring: Vec<SiteKey>,
    /// CLOCK hand: index into `ring` the next sweep starts at.
    hand: usize,
    /// The most `map.capacity()` has been: the map never shrinks, and
    /// removals can hide buckets from its `capacity()`.
    map_cap: usize,
    /// Path bytes charged to this shard's resident entries.
    path_bytes: u64,
}

impl ShardState {
    /// Heap bytes of the map and ring, at capacity.
    fn table_bytes(&self) -> u64 {
        let map = map_heap_bytes::<SiteKey, CacheEntry>(self.map_cap);
        (map + self.ring.capacity() * std::mem::size_of::<SiteKey>()) as u64
    }

    /// What the shard budget bounds: the map and ring as allocated,
    /// plus the resident entries' path charges.
    fn bytes(&self) -> u64 {
        self.table_bytes() + self.path_bytes
    }
}

/// One independently locked portion of the pair cache, with its own
/// hit/miss/eviction telemetry so the counters contend exactly as
/// little as the lock they sit next to.
#[derive(Default)]
struct CacheShard {
    state: RwLock<ShardState>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Pair cache: a site pair's facts are a `Copy` record stored inline
/// in its shard's map, so a hit copies 16 bytes and chases no pointer;
/// one lock per shard so concurrent first-touch inserts rarely contend.
/// Hit/miss counters are per-shard relaxed atomics feeding
/// [`EngineStats`] — health telemetry for long-lived engines (the
/// service's `STATS` command), never control flow — summed on read so
/// the all-hits steady state never bounces one shared cache line
/// across worker threads.
///
/// Under a byte budget each shard independently enforces its share
/// (`budget / CACHE_SHARDS`) with a clock hand over its resident
/// keys: inserts that push the shard over budget sweep the ring,
/// clearing reference bits and evicting the first unreferenced entry
/// until the shard fits. Every entry is a deterministic world fact,
/// so an evicted pair re-expands bit-identically on its next miss.
///
/// Entries hold one reference each to an interned forward path.
/// Evicting or replacing an entry hands its id back to the caller,
/// which releases it after the shard's lock is dropped. The lock order
/// is a cache shard's, then an interner shard's, never the reverse:
/// reading a resident entry's path happens under the entry's shard
/// read lock, which is what keeps an eviction from freeing it
/// mid-read.
///
/// Staleness is the epoch stamp alone, as it is for routing tables: an
/// entry stamped before the engine's current epoch reads as a miss and
/// is re-expanded, whatever the deltas in between touched.
struct PairCache {
    shards: Vec<CacheShard>,
    /// Per-shard byte allowance; `None` = never evict.
    shard_budget: Option<u64>,
}

/// A run of lookups in one shard: holds the shard's read lock until
/// dropped, and counts the run's hits at once. Misses — absent or
/// stale entries — are counted when their expansion is published.
struct ShardProbe<'a> {
    shard: &'a CacheShard,
    st: RwLockReadGuard<'a, ShardState>,
    epoch: u32,
    hits: u64,
}

impl ShardProbe<'_> {
    /// The facts of a resident entry stamped at the probe's epoch;
    /// `None` = a miss, absent or stale.
    fn lookup(&mut self, key: SiteKey) -> Option<PairFacts> {
        let e = self.st.map.get(&key)?;
        let state = e.state.load(Ordering::Relaxed);
        if state & !REFERENCED != self.epoch {
            return None;
        }
        if state & REFERENCED == 0 {
            e.state.fetch_or(REFERENCED, Ordering::Relaxed);
        }
        self.hits += 1;
        Some(e.facts)
    }
}

impl Drop for ShardProbe<'_> {
    fn drop(&mut self) {
        if self.hits > 0 {
            self.shard.hits.fetch_add(self.hits, Ordering::Relaxed);
        }
    }
}

impl PairCache {
    fn new(budget_bytes: Option<u64>) -> Self {
        PairCache {
            shards: (0..CACHE_SHARDS).map(|_| CacheShard::default()).collect(),
            shard_budget: budget_bytes.map(|b| b / CACHE_SHARDS as u64),
        }
    }

    /// The shard index owning a pair: a SplitMix64 finalizer over both
    /// site ids, so pairs sharing a source still spread across shards.
    /// The batch resolver groups a round's pairs by it before touching
    /// any lock.
    fn shard_index(key: SiteKey) -> usize {
        let mut z = (u64::from(key.0 .0) << 32) | u64::from(key.1 .0);
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z as usize) % CACHE_SHARDS
    }

    /// Starts a run of lookups in one shard at `epoch`.
    fn probe(&self, shard_idx: usize, epoch: u64) -> ShardProbe<'_> {
        let shard = &self.shards[shard_idx];
        ShardProbe {
            shard,
            st: shard.state.read(),
            epoch: epoch as u32,
            hits: 0,
        }
    }

    /// Publishes freshly expanded entries of one shard under a single
    /// write lock, counting each as the miss it repairs, each with the
    /// path charge its expansion computed. The path reference of
    /// every entry that leaves the cache (evicted, replaced, or a
    /// newcomer that lost a race) is appended to `released`, for the
    /// caller to release once the lock is dropped.
    fn insert_many(
        &self,
        shard_idx: usize,
        entries: impl ExactSizeIterator<Item = ComputedEntry>,
        epoch: u64,
        released: &mut Vec<PathId>,
    ) {
        let shard = &self.shards[shard_idx];
        shard
            .misses
            .fetch_add(entries.len() as u64, Ordering::Relaxed);
        let mut st = shard.state.write();
        for (key, facts, path_bytes) in entries {
            debug_assert_eq!(Self::shard_index(key), shard_idx);
            let budget = self.shard_budget;
            if let Some(budget) = budget {
                if !st.map.contains_key(&key) && !fits_grown(&st, budget, path_bytes) {
                    // The map is full: evict until it has room rather
                    // than let the insert double it past the budget.
                    evict_while(&mut st, key, &shard.evictions, released, |st| {
                        st.map.len() >= st.map.capacity()
                    });
                }
            }
            let epoch = epoch as u32;
            insert_locked(
                &mut st,
                key,
                facts,
                epoch,
                path_bytes,
                budget.is_some(),
                released,
            );
            if let Some(budget) = budget {
                evict_while(&mut st, key, &shard.evictions, released, |st| {
                    st.bytes() > budget
                });
            }
        }
    }

    /// How many entries a batch publishes per write lock: at most as
    /// many as a shard's budget can hold, so the paths a chunk interns
    /// before its evictions release theirs stay within about one
    /// shard's share.
    fn publish_chunk(&self) -> usize {
        self.shard_budget.map_or(PUBLISH_CHUNK, |budget| {
            let fit = budget / pair_entry_min_bytes();
            (fit as usize).clamp(1, PUBLISH_CHUNK)
        })
    }

    /// One per-shard quantity, summed across the shards.
    fn sum(&self, of: impl Fn(&CacheShard) -> u64) -> u64 {
        self.shards.iter().map(of).sum()
    }

    /// Pairs currently resident across all shards.
    fn len(&self) -> usize {
        self.sum(|s| s.state.read().map.len() as u64) as usize
    }

    /// Heap bytes the shards' contents hold: their maps and rings at
    /// capacity.
    fn resident_bytes(&self) -> u64 {
        self.sum(|s| s.state.read().table_bytes())
    }

    /// Entries evicted by the budget, across all shards.
    fn evictions(&self) -> u64 {
        self.sum(|s| s.evictions.load(Ordering::Relaxed))
    }
}

/// Insert/replace one entry in a shard whose write lock the caller
/// holds; `ring` says whether the shard keeps a CLOCK ring (only a
/// budgeted cache evicts).
fn insert_locked(
    st: &mut ShardState,
    key: SiteKey,
    facts: PairFacts,
    epoch: u32,
    path_bytes: u32,
    ring: bool,
    released: &mut Vec<PathId>,
) {
    let fresh = CacheEntry {
        facts,
        path_bytes,
        state: AtomicU32::new(epoch | REFERENCED),
    };
    match st.map.entry(key) {
        // A racing expander won the slot at the same (or a newer)
        // epoch; both computed the same deterministic facts, so keep
        // the incumbent and hand the newcomer's references back.
        Entry::Occupied(e) if e.get().stamp() >= epoch => released.extend(facts.path()),
        // Stale incumbent: replace in place. The key keeps its ring
        // slot; only the byte gauge moves.
        Entry::Occupied(mut e) => {
            let old = e.insert(fresh);
            st.path_bytes = st.path_bytes - u64::from(old.path_bytes) + u64::from(path_bytes);
            released.extend(old.facts.path());
        }
        Entry::Vacant(e) => {
            e.insert(fresh);
            if ring {
                st.ring.push(key);
            }
            st.path_bytes += u64::from(path_bytes);
            st.map_cap = st.map_cap.max(st.map.capacity());
        }
    }
}

/// Whether a new entry charged `path_bytes` can join a budgeted shard
/// without the shard outgrowing `budget`: either its map has room, or
/// the map and ring after doubling (an insert into a full std
/// `HashMap` reallocates it) still fit.
fn fits_grown(st: &ShardState, budget: u64, path_bytes: u32) -> bool {
    if st.map.len() < st.map.capacity() {
        return true;
    }
    let map = map_heap_bytes::<SiteKey, CacheEntry>(st.map_cap + 1);
    let ring = 2 * st.ring.capacity().max(4) * std::mem::size_of::<SiteKey>();
    (map + ring) as u64 + st.path_bytes + u64::from(path_bytes) <= budget
}

/// CLOCK sweep over one shard (holding its write lock): advance the
/// hand over the ring, clearing reference bits (the second chance) and
/// evicting unreferenced entries while `over` holds — the shard is
/// over its budget, or its map has no room. `keep` — the entry just
/// inserted — goes last: only an entry that does not fit the budget
/// alone is dropped as soon as it is published (its lookup already has
/// its facts). Two revolutions bound the sweep even when `over` cannot
/// be cleared.
fn evict_while(
    st: &mut ShardState,
    keep: SiteKey,
    evictions: &AtomicU64,
    released: &mut Vec<PathId>,
    over: impl Fn(&ShardState) -> bool,
) {
    let mut scanned = 0usize;
    let limit = 2 * st.ring.len();
    while over(st) && !st.ring.is_empty() && scanned < limit {
        scanned += 1;
        if st.hand >= st.ring.len() {
            st.hand = 0;
        }
        let k = st.ring[st.hand];
        if k == keep && st.ring.len() > 1 {
            st.hand += 1;
            continue;
        }
        let state = st.map.get_mut(&k).expect("clock ring out of sync with map");
        let state = state.state.get_mut();
        if *state & REFERENCED != 0 {
            *state &= !REFERENCED;
            st.hand += 1; // second chance
            continue;
        }
        let e = st.map.remove(&k).expect("clock ring out of sync with map");
        st.path_bytes -= u64::from(e.path_bytes);
        released.extend(e.facts.path());
        // O(1) removal; the swapped-in tail key inherits this hand
        // position, so the hand does not advance.
        st.ring.swap_remove(st.hand);
        evictions.fetch_add(1, Ordering::Relaxed);
    }
}

/// Struct-of-arrays snapshot of one batch's resolved pair facts — the
/// output of [`PingEngine::resolve_pairs`]; a row's
/// [`PairBlock::resolved`] is what
/// [`PingEngine::sample_window_resolved`] samples from.
///
/// Each distinct `(src, dst)` host pair of the batch owns one row
/// (slot): the two hosts' access delay and the index of the pair's
/// *site pair*, whose facts — base RTT between the sites, diurnal
/// midpoint longitude, the forward AS path — are stored once for all
/// the rows on it, in parallel arrays so a round's sampling loop walks
/// flat slices instead of probing the cache on every window. The
/// block owns copies of its forward paths, back to back in one
/// buffer, so sampling takes no lock and a path id the cache frees
/// and recycles mid-round can never reach it. The block is a
/// *snapshot*: it pins the facts at the epoch `resolve_pairs` ran at,
/// which is exactly the semantics a round wants (churn applies between
/// rounds, never mid-round).
pub struct PairBlock {
    /// Row index per distinct host pair, in first-seen batch order.
    slots: FastMap<(HostId, HostId), u32>,
    /// Per row: `s.access_ms + d.access_ms` of its two hosts.
    access_ms: Vec<f64>,
    /// Per row: index of its site pair in the arrays below.
    site: Vec<u32>,
    /// Per site pair: base RTT between the sites, ms (unspecified for
    /// unroutable site pairs).
    base_ms: Vec<f64>,
    /// Per site pair: diurnal midpoint longitude.
    mid_lon: Vec<f64>,
    /// Per site pair: its forward AS path's `(start, end)` in `asns`;
    /// empty = unroutable.
    paths: Vec<(u32, u32)>,
    /// The forward paths' ASNs.
    asns: Vec<Asn>,
}

impl PairBlock {
    fn with_capacity(n: usize) -> Self {
        PairBlock {
            slots: FastMap::with_capacity_and_hasher(n, Default::default()),
            access_ms: Vec::with_capacity(n),
            site: Vec::with_capacity(n),
            base_ms: Vec::new(),
            mid_lon: Vec::new(),
            paths: Vec::new(),
            asns: Vec::new(),
        }
    }

    /// Appends the next site pair's resolved row; `s` and `d` are hosts
    /// on its two sites.
    fn push_site(&mut self, s: &Host, d: &Host, (base_ms, path): SiteRow) {
        self.base_ms.push(base_ms);
        // `Host::location` is the city centre: a site fact.
        self.mid_lon
            .push(mid_longitude(s.location.lon(), d.location.lon()));
        self.paths.push(path);
    }

    /// What a window on row `slot` samples from, in the shape
    /// [`PingEngine::sample_window_resolved`] takes: forward path, the
    /// host pair's base RTT — its site pair's plus the two hosts' own
    /// access delay — and midpoint longitude. `None` = unroutable.
    pub fn resolved(&self, slot: u32) -> Option<(&[Asn], f64, f64)> {
        let row = slot as usize;
        let i = self.site[row] as usize;
        let (start, end) = self.paths[i];
        (start < end).then(|| {
            (
                &self.asns[start as usize..end as usize],
                self.base_ms[i] + self.access_ms[row],
                self.mid_lon[i],
            )
        })
    }

    /// The row holding `(src, dst)`'s facts, or `None` if the pair was
    /// not part of the batch this block resolved.
    pub fn slot(&self, src: HostId, dst: HostId) -> Option<u32> {
        self.slots.get(&(src, dst)).copied()
    }

    /// Whether the row's pair is routable (has a forward path).
    pub fn is_routable(&self, slot: u32) -> bool {
        self.resolved(slot).is_some()
    }

    /// Distinct host pairs resolved in this block.
    pub fn len(&self) -> usize {
        self.site.len()
    }

    /// True when the block resolved no pairs.
    pub fn is_empty(&self) -> bool {
        self.site.is_empty()
    }
}

/// The ping engine. `Sync`: all interior mutability is a read-mostly
/// sharded pair cache behind per-shard `RwLock`s plus atomic counters,
/// so one engine is shared by every measurement worker thread — and,
/// since it co-owns its inputs and carries no per-campaign state, by
/// every campaign of a sweep.
///
/// Under topology churn ([`PingEngine::apply_delta`]) the engine stays
/// shareable but is no longer *stateless*: applied deltas permanently
/// advance its epoch and its router's view. Campaigns that churn must
/// therefore run on a private engine, never one pooled across
/// unrelated sessions.
pub struct PingEngine {
    topo: Arc<Topology>,
    router: Arc<Router>,
    hosts: Arc<HostRegistry>,
    model: LatencyModel,
    cache: PairCache,
    /// Content-addressed store of the cached pairs' forward paths, so
    /// pairs sharing a route share one stored copy.
    interner: PathInterner,
    stats: StatCounters,
    /// Host-pair rows batches filled beyond the first of each site
    /// pair (see [`EngineStats::pair_rows`]).
    shared_rows: AtomicU64,
    /// Directed routes walked and interned.
    routes_walked: AtomicU64,
    /// Direction of the next destination-major route sweep. A sweep
    /// over more tables than the router keeps resident leaves the
    /// cache holding its *tail*; the next one starts there, from the
    /// other end (see [`PingEngine::sweep_routes`]).
    sweep_down: AtomicBool,
}

impl PingEngine {
    /// Creates an engine over a topology, router, host registry and
    /// latency model, with an unbounded pair cache.
    pub fn new(
        topo: Arc<Topology>,
        router: Arc<Router>,
        hosts: Arc<HostRegistry>,
        model: LatencyModel,
    ) -> Self {
        Self::with_budget(topo, router, hosts, model, None)
    }

    /// As [`PingEngine::new`], but bounds the pair cache to
    /// `pair_budget_bytes` (typically a
    /// [`shortcuts_topology::MemoryBudget`]'s pair share), split
    /// evenly across the shards and enforced by per-shard clock-hand
    /// eviction. `None` keeps the grow-forever behaviour.
    pub fn with_budget(
        topo: Arc<Topology>,
        router: Arc<Router>,
        hosts: Arc<HostRegistry>,
        model: LatencyModel,
        pair_budget_bytes: Option<u64>,
    ) -> Self {
        // Route resolution trusts `Host::node` as a dense index into
        // `topo`'s node space; a registry built against a different
        // topology would silently resolve other ASes' routes. One
        // cheap construction-time check keeps that a loud failure.
        debug_assert!(
            hosts
                .iter()
                .all(|h| topo.node_index().node(h.asn) == Some(h.node)),
            "host registry was built against a different topology"
        );
        PingEngine {
            topo,
            router,
            hosts,
            model,
            cache: PairCache::new(pair_budget_bytes),
            interner: PathInterner::new(),
            stats: StatCounters::default(),
            shared_rows: AtomicU64::new(0),
            routes_walked: AtomicU64::new(0),
            sweep_down: AtomicBool::new(false),
        }
    }

    /// Applies one batch of topology deltas: the router advances its
    /// epoch, and with it the engine's. Stale destination tables are
    /// re-stamped or rebuilt lazily on access; every pair entry
    /// stamped before the new epoch is re-expanded on its next lookup.
    ///
    /// Same-AS pairs never consult the router, so an `AsDown` leaves
    /// intra-AS pings working — hosts inside a withdrawn AS still
    /// reach each other, they just stop being routable from outside.
    pub fn apply_delta(&self, batch: &[TopologyDelta]) {
        // Cache entries stamp their epoch in 31 bits.
        assert!(
            self.epoch() < u64::from(!REFERENCED),
            "churn epoch overflow"
        );
        self.router.apply_delta(batch);
    }

    /// Current churn epoch (batches applied so far): the router's.
    pub fn epoch(&self) -> u64 {
        self.router.epoch()
    }

    /// The topology the engine routes over.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The router whose destination tables the engine resolves paths
    /// with (shared — a sweep warms it once for all campaigns).
    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// The host registry.
    pub fn hosts(&self) -> &HostRegistry {
        &self.hosts
    }

    /// The latency model in use.
    pub fn model(&self) -> &LatencyModel {
        &self.model
    }

    /// Engine statistics so far (a consistent-enough snapshot: each
    /// counter is exact; totals are exact whenever no ping is mid-
    /// flight on another thread).
    pub fn stats(&self) -> PingStats {
        PingStats {
            attempts: self.stats.attempts.load(Ordering::Relaxed),
            replies: self.stats.replies.load(Ordering::Relaxed),
            losses: self.stats.losses.load(Ordering::Relaxed),
            unroutable: self.stats.unroutable.load(Ordering::Relaxed),
        }
    }

    /// Engine-stack health: cache warmth and traffic counters for this
    /// engine and the router it resolves paths with. See
    /// [`EngineStats`].
    pub fn engine_stats(&self) -> EngineStats {
        let pair_cache_hits = self.cache.sum(|s| s.hits.load(Ordering::Relaxed));
        let pair_cache_misses = self.cache.sum(|s| s.misses.load(Ordering::Relaxed));
        let router = self.router.stats();
        let intern = self.interner.stats();
        EngineStats {
            pair_cache_hits,
            pair_cache_misses,
            pair_cache_entries: self.cache.len() as u64,
            router_tables_resident: router.tables_resident,
            pings_sent: self.stats.attempts.load(Ordering::Relaxed),
            router_resident_bytes: router.resident_bytes,
            router_evictions: router.evictions,
            router_recomputes: router.recomputes,
            pair_resident_bytes: self.cache.resident_bytes() + self.interner.resident_bytes(),
            pair_evictions: self.cache.evictions(),
            tables_repaired: 0,
            entries_rescanned: 0,
            full_rebuilds: router.full_rebuilds,
            pair_revalidated: 0,
            paths_interned: intern.interned,
            path_dedup_hits: intern.dedup_hits,
            pair_rows: pair_cache_hits
                + pair_cache_misses
                + self.shared_rows.load(Ordering::Relaxed),
            routes_walked: self.routes_walked.load(Ordering::Relaxed),
        }
    }

    /// Deterministic facts for a host pair: its base RTT (its site
    /// pair's, with the two hosts' access delay on top) and diurnal
    /// midpoint longitude, with its forward AS path copied into `path`
    /// when one is passed. `None` = unroutable.
    fn pair_info(
        &self,
        src: HostId,
        dst: HostId,
        mut path: Option<&mut Vec<Asn>>,
    ) -> Option<(f64, f64)> {
        let s = self.hosts.get(src);
        let d = self.hosts.get(dst);
        let key = (s.site, d.site);
        let epoch = self.epoch();
        let found = {
            let mut probe = self.cache.probe(PairCache::shard_index(key), epoch);
            let found = probe.lookup(key);
            // Under the shard lock: the entry's reference keeps its
            // path live while it is copied.
            if let (Some(id), Some(out)) = (found.and_then(|f| f.path()), path.as_deref_mut()) {
                out.clear();
                self.interner.with_path(id, |p| out.extend_from_slice(p));
            }
            found
        };
        let facts = found.unwrap_or_else(|| self.expand_one(key, s, d, epoch, path));
        facts.routable().then(|| {
            (
                facts.base_ms + (s.access_ms + d.access_ms),
                mid_longitude(s.location.lon(), d.location.lon()),
            )
        })
    }

    /// The scalar miss: one site pair's two routes straight off their
    /// tables, then the facts, byte charge and publication a batch
    /// would give it; the forward path is copied into `path` if passed.
    fn expand_one(
        &self,
        key: SiteKey,
        s: &Host,
        d: &Host,
        epoch: u64,
        path: Option<&mut Vec<Asn>>,
    ) -> PairFacts {
        let same_as = s.node == d.node;
        let (mut buf, mut asns) = (Vec::new(), Vec::new());
        let fwd = self.route(d.node, s.node, &mut None, &mut buf, &mut asns);
        let rev = match fwd {
            // One self-route serves both directions.
            Some(at) if same_as => Some(at),
            _ => self.route(s.node, d.node, &mut None, &mut buf, &mut asns),
        };
        let walked = if same_as { 1 } else { 2 };
        self.routes_walked.fetch_add(walked, Ordering::Relaxed);
        let (facts, charged) = match (fwd, rev) {
            (Some(fwd), Some(rev)) => {
                let (fwd, rev) = (span(&asns, fwd), span(&asns, rev));
                if let Some(out) = path {
                    out.clear();
                    out.extend_from_slice(fwd);
                }
                let base_ms = self.site_facts(s, d, fwd, rev);
                self.intern_facts(base_ms, fwd)
            }
            _ => (PairFacts::UNROUTABLE, 0),
        };
        let entry = (key, facts, charged);
        self.publish(PairCache::shard_index(key), [entry].into_iter(), epoch);
        facts
    }

    /// A routable site pair's record, its forward path interned (one
    /// reference, owned by the record), and the arena bytes the record
    /// is charged: that path's.
    fn intern_facts(&self, base_ms: f64, fwd: &[Asn]) -> (PairFacts, u32) {
        let facts = PairFacts {
            base_ms,
            fwd: self.interner.intern(fwd).0,
        };
        (facts, path_charge(fwd.len()))
    }

    /// Inserts one shard's fresh entries, then — with the shard's lock
    /// dropped — releases the paths of the entries that left it.
    fn publish(
        &self,
        shard_idx: usize,
        entries: impl ExactSizeIterator<Item = ComputedEntry>,
        epoch: u64,
    ) {
        let mut released = Vec::new();
        self.cache
            .insert_many(shard_idx, entries, epoch, &mut released);
        self.interner.release(&mut released);
    }

    /// One directed AS-level route `src → dst`, walked off `dst`'s
    /// routing table into `buf` and appended to `asns`; returns its
    /// range there. `table` carries the pinned table across a
    /// destination run's calls; a self-route (a same-AS site pair)
    /// pins nothing — intra-AS pings never consult the router, so an
    /// `AsDown` leaves them working.
    fn route(
        &self,
        dst: NodeId,
        src: NodeId,
        table: &mut Option<Arc<RoutingTable>>,
        buf: &mut Vec<Asn>,
        asns: &mut Vec<Asn>,
    ) -> Route {
        if src == dst {
            buf.clear();
            buf.push(self.topo.node_index().asn(dst));
        } else {
            let table = table.get_or_insert_with(|| self.router.table_at(dst));
            if !table.walk_from(src, buf) {
                return None;
            }
        }
        let start = asns.len() as u32;
        asns.extend_from_slice(buf);
        Some((start, asns.len() as u32))
    }

    /// A site pair's base RTT from its two routes — the one place
    /// routes become RTT arithmetic.
    ///
    /// An echo round trip traverses the forward route AND the
    /// (possibly different) return route; base RTT sums both one-way
    /// hand-off walks, which also makes RTT(a,b) == RTT(b,a) exactly —
    /// matching the paper's symmetry observation. Same-AS pairs walk
    /// their one-element path once.
    fn site_facts(&self, s: &Host, d: &Host, fwd_as: &[Asn], rev_as: &[Asn]) -> f64 {
        let expand = &self.model.expand;
        let fwd = path_cost(&self.topo, fwd_as, s.city, d.city, expand);
        if s.node == d.node {
            self.model.base_rtt_ms(fwd)
        } else {
            let rev = path_cost(&self.topo, rev_as, d.city, s.city, expand);
            self.model.base_rtt_two_way(fwd, rev)
        }
    }

    /// Resolves a whole batch of pairs (typically one round's plan)
    /// into a [`PairBlock`]: host pairs are deduped to rows, rows to
    /// site pairs; a row keeps its hosts' access delay, everything
    /// else is resolved per site pair (`resolve_sites`) and shared by
    /// the rows on it.
    pub fn resolve_pairs(&self, pairs: &[(HostId, HostId)]) -> PairBlock {
        self.resolve_pairs_indexed(pairs).0
    }

    /// [`PingEngine::resolve_pairs`] plus the slot of every *input*
    /// position (`index[j]` is the row of `pairs[j]`, duplicates
    /// included). The index falls out of the dedupe pass for free; the
    /// batched kernel uses it to map tasks to rows without re-hashing
    /// each pair through [`PairBlock::slot`].
    pub fn resolve_pairs_indexed(&self, pairs: &[(HostId, HostId)]) -> (PairBlock, Vec<u32>) {
        let epoch = self.epoch();
        let mut block = PairBlock::with_capacity(pairs.len());
        let mut index: Vec<u32> = Vec::with_capacity(pairs.len());
        let mut sites: Vec<SiteRequest> = Vec::new();
        let mut site_slots: FastMap<SiteKey, u32> = FastMap::default();
        for &(src, dst) in pairs {
            let row = match block.slots.entry((src, dst)) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    let s = self.hosts.get(src);
                    let d = self.hosts.get(dst);
                    let key = (s.site, d.site);
                    let next = sites.len() as u32;
                    let site = *site_slots.entry(key).or_insert_with(|| {
                        sites.push((key, src, dst));
                        next
                    });
                    block.access_ms.push(s.access_ms + d.access_ms);
                    block.site.push(site);
                    *e.insert(block.site.len() as u32 - 1)
                }
            };
            index.push(row);
        }
        self.shared_rows
            .fetch_add((block.len() - sites.len()) as u64, Ordering::Relaxed);
        let rows = self.resolve_sites(&sites, epoch, &mut block.asns);
        for (&(_, src, dst), row) in sites.iter().zip(rows) {
            block.push_site(self.hosts.get(src), self.hosts.get(dst), row);
        }
        (block, index)
    }

    /// Resolves distinct site pairs, in flat passes, copying each
    /// routable one's forward path into `asns`:
    ///
    /// 1. **Probe** — site pairs are grouped by cache shard; each
    ///    shard's read lock is taken once for all its pairs, and hits
    ///    are counted once per shard, not per pair. Before the lock is
    ///    dropped, the hits' forward paths are copied. Absent and
    ///    stale entries are misses alike.
    /// 2. **Expand** — the routes the missing site pairs need are
    ///    swept destination-major ([`PingEngine::sweep_routes`]), then
    ///    each site pair takes its two hand-off walks over those
    ///    shared paths; both steps run data-parallel.
    /// 3. **Publish** — fresh entries intern their forward paths and
    ///    are inserted per shard in chunks, one write lock each, under
    ///    the shard's eviction pressure.
    ///
    /// Every outcome counts in the cache telemetry once per site pair:
    /// hit or miss.
    fn resolve_sites(
        &self,
        sites: &[SiteRequest],
        epoch: u64,
        asns: &mut Vec<Asn>,
    ) -> Vec<SiteRow> {
        let mut rows: Vec<SiteRow> = vec![(f64::NAN, (0, 0)); sites.len()];
        let mut by_shard: Vec<Vec<u32>> = shard_lists(sites.len());
        for (i, site) in sites.iter().enumerate() {
            by_shard[PairCache::shard_index(site.0)].push(i as u32);
        }
        let mut misses: Vec<u32> = Vec::new();
        let mut copies: Vec<(PathId, u32)> = Vec::new();
        for (sidx, members) in by_shard.iter().enumerate() {
            if members.is_empty() {
                continue;
            }
            let mut probe = self.cache.probe(sidx, epoch);
            for &i in members {
                match probe.lookup(sites[i as usize].0) {
                    Some(f) => {
                        rows[i as usize].0 = f.base_ms;
                        copies.extend(f.path().map(|id| (id, i)));
                    }
                    None => misses.push(i),
                }
            }
            // Still under the shard's read lock, so no entry read above
            // can be evicted and free its path meanwhile.
            self.interner
                .copy_paths(&mut copies, asns, |i, start, end| {
                    rows[i as usize].1 = (start, end);
                });
            copies.clear();
        }
        if misses.is_empty() {
            return rows; // the warm steady state: nothing to expand
        }

        // Routes first, once per directed AS pair, then two hand-off
        // walks per site pair over those shared paths.
        let ends = |i: u32| {
            let (_, src, dst) = sites[i as usize];
            (self.hosts.get(src), self.hosts.get(dst))
        };
        let (routes, route_of, route_asns) = self.sweep_routes(misses.iter().map(|&i| {
            let (s, d) = ends(i);
            (s.node, d.node)
        }));
        let work: Vec<(u32, [u32; 2])> = misses.into_iter().zip(route_of).collect();
        let expanded: Vec<Option<f64>> = work
            .par_iter()
            .map(|&(i, [fwd, rev])| {
                let (s, d) = ends(i);
                let (fwd, rev) = (routes[fwd as usize]?, routes[rev as usize]?);
                Some(self.site_facts(s, d, span(&route_asns, fwd), span(&route_asns, rev)))
            })
            .collect();

        // Paths are interned as their entries are published, a chunk
        // of one shard at a time, and the evicted entries' paths are
        // released after each chunk: a batch holds no more paths live
        // than the cache keeps plus one chunk's worth.
        let mut by_shard: Vec<Vec<u32>> = shard_lists(work.len());
        for (w, &(i, _)) in work.iter().enumerate() {
            by_shard[PairCache::shard_index(sites[i as usize].0)].push(w as u32);
        }
        let chunk_len = self.cache.publish_chunk();
        let mut entries: Vec<ComputedEntry> = Vec::with_capacity(chunk_len);
        for (sidx, members) in by_shard.iter().enumerate() {
            for chunk in members.chunks(chunk_len) {
                entries.extend(chunk.iter().map(|&w| {
                    // A base RTT means both routes exist.
                    let (i, [fwd, _]) = work[w as usize];
                    let (facts, charged) = match (expanded[w as usize], routes[fwd as usize]) {
                        (Some(base_ms), Some(fwd)) => {
                            let fwd = span(&route_asns, fwd);
                            let start = asns.len() as u32;
                            asns.extend_from_slice(fwd);
                            rows[i as usize] = (base_ms, (start, asns.len() as u32));
                            self.intern_facts(base_ms, fwd)
                        }
                        _ => (PairFacts::UNROUTABLE, 0),
                    };
                    (sites[i as usize].0, facts, charged)
                }));
                self.publish(sidx, entries.drain(..), epoch);
            }
        }
        rows
    }

    /// Walks every distinct directed AS-pair route a list of `(S, D)`
    /// node pairs needs — `S→D` and `D→S` each — and returns the
    /// routes, per input pair the indices of its forward and reverse
    /// route, and the buffer the routes' ranges point into.
    ///
    /// The requests are sorted and deduped **destination-major**: each
    /// destination's routing table is pinned once for all the sources
    /// asking for it (a reverse route is the forward route of the
    /// mirrored AS pair, so it joins the run of *its* destination),
    /// each route is walked once ([`PingEngine::route`]), and no table
    /// is touched twice in a batch. Runs execute data-parallel.
    ///
    /// Under a router budget a sweep over more tables than stay
    /// resident leaves the cache holding only its tail, so the next
    /// one runs the other way and meets those tables first; sweeps in
    /// one direction would never find a table resident — nor, under
    /// churn, a stale one to bring current. An unbudgeted router keeps
    /// every table, so its sweeps never turn.
    fn sweep_routes(
        &self,
        pairs: impl Iterator<Item = (NodeId, NodeId)>,
    ) -> (Vec<Route>, Vec<[u32; 2]>, Vec<Asn>) {
        // A descending sweep sorts on the complemented destination.
        let down = self.sweep_down.load(Ordering::Relaxed);
        let flip = if down { u32::MAX } else { 0 };
        let mut wanted: Vec<(u32, NodeId, u32)> = Vec::new();
        for (s, d) in pairs {
            let k = wanted.len() as u32;
            wanted.push((d.0 ^ flip, s, k));
            wanted.push((s.0 ^ flip, d, k + 1));
        }
        wanted.sort_unstable();
        let mut route_of = vec![[0u32; 2]; wanted.len() / 2];
        let mut keys: Vec<(NodeId, NodeId)> = Vec::new();
        for &(dst, src, k) in &wanted {
            let key = (NodeId(dst ^ flip), src);
            if keys.last() != Some(&key) {
                keys.push(key);
            }
            route_of[k as usize / 2][k as usize % 2] = keys.len() as u32 - 1;
        }
        let runs: Vec<&[(NodeId, NodeId)]> = keys.chunk_by(|a, b| a.0 == b.0).collect();
        let walked: Vec<(Vec<Route>, Vec<Asn>)> = runs
            .par_iter()
            .map(|run| {
                // Sized for typical paths, so a run rarely reallocates.
                let mut buf = Vec::with_capacity(16);
                let (mut table, mut asns) = (None, Vec::with_capacity(8 * run.len()));
                let routes = run
                    .iter()
                    .map(|&(dst, src)| self.route(dst, src, &mut table, &mut buf, &mut asns))
                    .collect();
                (routes, asns)
            })
            .collect();
        self.routes_walked
            .fetch_add(keys.len() as u64, Ordering::Relaxed);
        if self.router.budget_bytes().is_some() {
            let pins = |run: &[(NodeId, NodeId)]| run.iter().any(|&(dst, src)| dst != src);
            let pinned = runs.iter().filter(|run| pins(run)).count() as u64;
            if pinned > self.router.stats().tables_resident {
                self.sweep_down.fetch_xor(true, Ordering::Relaxed);
            }
        }
        let mut routes = Vec::with_capacity(keys.len());
        let mut asns = Vec::new();
        for (run, run_asns) in walked {
            let base = asns.len() as u32;
            routes.extend(
                run.into_iter()
                    .map(|r| r.map(|(s, e)| (s + base, e + base))),
            );
            asns.extend_from_slice(&run_asns);
        }
        (routes, route_of, asns)
    }

    /// Samples one measurement window — `pings` pings spaced
    /// `interval_secs` apart from `start` — against already-resolved
    /// pair facts, appending replies to `out` (cleared first). This is
    /// the allocation-free inner loop of the batched kernel: no cache
    /// probe, no lock, no per-window `Vec`.
    ///
    /// RNG draws replicate [`PingEngine::ping_faulted`] exactly —
    /// same draws, same order, same skips — so a window sampled here
    /// is bit-identical to the scalar path under the same RNG stream.
    /// Engine counters advance by the same totals (batched where the
    /// scalar path bumps per ping).
    #[allow(clippy::too_many_arguments)]
    pub fn sample_window_resolved<R: Rng + ?Sized>(
        &self,
        resolved: Option<(&[Asn], f64, f64)>,
        start: SimTime,
        pings: usize,
        interval_secs: f64,
        faults: &FaultPlan,
        rng: &mut R,
        out: &mut Vec<f64>,
    ) {
        let mut tally = SampleTally::default();
        self.sample_window_resolved_tally(
            resolved,
            start,
            pings,
            interval_secs,
            faults,
            rng,
            out,
            &mut tally,
        );
        self.stats.flush(&tally);
    }

    /// [`PingEngine::sample_window_resolved`] with counter updates
    /// deferred into `tally` instead of hitting the shared atomics —
    /// the chunked form the batched kernel uses, flushing once per
    /// worker chunk.
    #[allow(clippy::too_many_arguments)]
    pub fn sample_window_resolved_tally<R: Rng + ?Sized>(
        &self,
        resolved: Option<(&[Asn], f64, f64)>,
        start: SimTime,
        pings: usize,
        interval_secs: f64,
        faults: &FaultPlan,
        rng: &mut R,
        out: &mut Vec<f64>,
        tally: &mut SampleTally,
    ) {
        out.clear();
        tally.attempts += pings as u64;
        let Some((path, base_ms, mid_lon)) = resolved else {
            tally.unroutable += pings as u64;
            return;
        };
        let have_faults = !faults.is_empty();
        // `path_extra_loss` is time-independent, so hoist it out of the
        // loop; the scalar path only draws its `gen_bool` when the rate
        // is positive, so hoisting changes no RNG stream.
        let extra = if have_faults {
            faults.path_extra_loss(path)
        } else {
            0.0
        };
        for i in 0..pings {
            let t = start.plus_secs(i as f64 * interval_secs);
            if have_faults {
                if faults.path_down(path, t) {
                    continue;
                }
                if extra > 0.0 && rng.gen_bool(extra.min(1.0)) {
                    continue;
                }
            }
            if let Some(rtt) = self.model.sample_rtt(base_ms, t, mid_lon, rng) {
                out.push(rtt);
            }
        }
        tally.replies += out.len() as u64;
        tally.losses += pings as u64 - out.len() as u64;
    }

    /// Samples one window for a pair, resolving it through the cache
    /// first (one lookup per *window*, not per ping — the scalar
    /// path's remaining five lookups were pure overhead).
    #[allow(clippy::too_many_arguments)]
    pub fn sample_window<R: Rng + ?Sized>(
        &self,
        src: HostId,
        dst: HostId,
        start: SimTime,
        pings: usize,
        interval_secs: f64,
        faults: &FaultPlan,
        rng: &mut R,
        out: &mut Vec<f64>,
    ) {
        // The path is read only under faults, so only then is it copied.
        let mut path = Vec::new();
        let info = self.pair_info(src, dst, (!faults.is_empty()).then_some(&mut path));
        let resolved = info.map(|(base_ms, mid_lon)| (&path[..], base_ms, mid_lon));
        self.sample_window_resolved(resolved, start, pings, interval_secs, faults, rng, out);
    }

    /// The deterministic base RTT between two hosts, ms (`None` if
    /// unroutable). Useful for tests and calibration; real measurements
    /// go through [`PingEngine::ping`].
    pub fn base_rtt(&self, src: HostId, dst: HostId) -> Option<f64> {
        self.pair_info(src, dst, None).map(|(base_ms, _)| base_ms)
    }

    /// AS path between two hosts (`None` if unroutable), copied out of
    /// the interner. Traceroute, the scalar oracle and tests read it;
    /// the sampling loops never do.
    pub fn as_path(&self, src: HostId, dst: HostId) -> Option<Vec<Asn>> {
        let mut path = Vec::new();
        self.pair_info(src, dst, Some(&mut path)).map(|_| path)
    }

    /// Sends one ping at time `t`; returns the observed RTT in ms, or
    /// `None` on loss / outage / no route. Fault-free — per-campaign
    /// fault plans are applied by [`PingHandle`].
    pub fn ping<R: Rng + ?Sized>(
        &self,
        src: HostId,
        dst: HostId,
        t: SimTime,
        rng: &mut R,
    ) -> Option<f64> {
        self.ping_faulted(src, dst, t, &FaultPlan::NONE, rng)
    }

    /// [`PingEngine::ping`] under a fault plan the *caller* owns. The
    /// engine itself carries no faults — campaigns sharing one engine
    /// each bring their own plan through their [`PingHandle`].
    pub fn ping_faulted<R: Rng + ?Sized>(
        &self,
        src: HostId,
        dst: HostId,
        t: SimTime,
        faults: &FaultPlan,
        rng: &mut R,
    ) -> Option<f64> {
        self.stats.attempts.fetch_add(1, Ordering::Relaxed);
        let mut path = Vec::new();
        let want_path = (!faults.is_empty()).then_some(&mut path);
        let Some((base_ms, mid_lon)) = self.pair_info(src, dst, want_path) else {
            self.stats.unroutable.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        if !faults.is_empty() {
            if faults.path_down(&path, t) {
                self.stats.losses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            let extra = faults.path_extra_loss(&path);
            if extra > 0.0 && rng.gen_bool(extra.min(1.0)) {
                self.stats.losses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        }
        match self.model.sample_rtt(base_ms, t, mid_lon, rng) {
            Some(rtt) => {
                self.stats.replies.fetch_add(1, Ordering::Relaxed);
                Some(rtt)
            }
            None => {
                self.stats.losses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Sends `n` pings spaced `interval_secs` apart starting at `t` and
    /// returns the replies (lost pings omitted). This is the paper's
    /// "6 pings, 5 minutes apart, per 30-minute window" primitive.
    pub fn ping_series<R: Rng + ?Sized>(
        &self,
        src: HostId,
        dst: HostId,
        t: SimTime,
        n: usize,
        interval_secs: f64,
        rng: &mut R,
    ) -> Vec<f64> {
        (0..n)
            .filter_map(|i| self.ping(src, dst, t.plus_secs(i as f64 * interval_secs), rng))
            .collect()
    }
}

/// Anything that can measure: the shared [`PingEngine`] itself, or a
/// per-campaign [`PingHandle`] over it. Measurement code (windows, the
/// §2.2 funnel, Periscope) is generic over this, so a solo run and a
/// sweep campaign execute the byte-identical code path.
pub trait Pinger: Sync {
    /// Sends one ping at time `t`.
    fn ping<R: Rng + ?Sized>(
        &self,
        src: HostId,
        dst: HostId,
        t: SimTime,
        rng: &mut R,
    ) -> Option<f64>;

    /// Runs a traceroute (the Periscope geolocation primitive).
    fn traceroute<R: Rng + ?Sized>(
        &self,
        src: HostId,
        dst: HostId,
        t: SimTime,
        rng: &mut R,
    ) -> Option<Traceroute>;

    /// Hint that `pairs` are about to be pinged or tracerouted one by
    /// one: an implementation with shared path state may resolve them
    /// in bulk first, so each later scalar lookup is a hit. Sends no
    /// ping and draws no randomness — results, accounting and RNG
    /// streams never depend on whether it ran. The default does
    /// nothing.
    fn resolve_ahead(&self, _pairs: &[(HostId, HostId)]) {}

    /// Sends `n` pings spaced `interval_secs` apart starting at `t`
    /// and returns the replies (lost pings omitted).
    fn ping_series<R: Rng + ?Sized>(
        &self,
        src: HostId,
        dst: HostId,
        t: SimTime,
        n: usize,
        interval_secs: f64,
        rng: &mut R,
    ) -> Vec<f64> {
        let mut out = Vec::with_capacity(n);
        self.ping_series_into(src, dst, t, n, interval_secs, rng, &mut out);
        out
    }

    /// As [`Pinger::ping_series`], but appends the replies into a
    /// caller-owned buffer (cleared first) — the allocation-free
    /// variant measurement loops feed with a per-thread scratch
    /// buffer. RNG draws are identical to `ping_series`.
    #[allow(clippy::too_many_arguments)]
    fn ping_series_into<R: Rng + ?Sized>(
        &self,
        src: HostId,
        dst: HostId,
        t: SimTime,
        n: usize,
        interval_secs: f64,
        rng: &mut R,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        for i in 0..n {
            if let Some(rtt) = self.ping(src, dst, t.plus_secs(i as f64 * interval_secs), rng) {
                out.push(rtt);
            }
        }
    }
}

impl Pinger for PingEngine {
    fn ping<R: Rng + ?Sized>(
        &self,
        src: HostId,
        dst: HostId,
        t: SimTime,
        rng: &mut R,
    ) -> Option<f64> {
        PingEngine::ping(self, src, dst, t, rng)
    }

    fn traceroute<R: Rng + ?Sized>(
        &self,
        src: HostId,
        dst: HostId,
        t: SimTime,
        rng: &mut R,
    ) -> Option<Traceroute> {
        PingEngine::traceroute(self, src, dst, t, rng)
    }

    fn resolve_ahead(&self, pairs: &[(HostId, HostId)]) {
        let _ = self.resolve_pairs(pairs);
    }
}

/// A campaign's private view of a shared [`PingEngine`]: the
/// campaign's fault plan plus its own ping accounting.
///
/// The engine is co-owned (`Arc`) and never mutated — campaigns of a
/// sweep all hold handles onto one engine, sharing its pair cache and
/// routing tables, while faults and ping counts stay strictly
/// per-campaign. This is why installing a fault plan no longer needs
/// `&mut` access to the (shared) engine: the handle is exclusively
/// owned by its campaign.
pub struct PingHandle {
    engine: Arc<PingEngine>,
    faults: FaultPlan,
    /// Pings this handle has attempted (the campaign's `pings_sent`).
    attempts: AtomicU64,
}

impl PingHandle {
    /// A fault-free handle on a shared engine.
    pub fn new(engine: Arc<PingEngine>) -> Self {
        Self::with_faults(engine, FaultPlan::none())
    }

    /// A handle with a fault plan installed.
    pub fn with_faults(engine: Arc<PingEngine>, faults: FaultPlan) -> Self {
        PingHandle {
            engine,
            faults,
            attempts: AtomicU64::new(0),
        }
    }

    /// Installs a fault plan (replaces any previous plan). `&mut self`
    /// is fine here: the handle belongs to exactly one campaign.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// The handle's fault plan.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The shared engine under the handle.
    pub fn engine(&self) -> &Arc<PingEngine> {
        &self.engine
    }

    /// Pings attempted through this handle (its campaign's share of
    /// the engine-wide [`PingEngine::stats`] attempts).
    pub fn pings_sent(&self) -> u64 {
        self.attempts.load(Ordering::Relaxed)
    }

    /// The deterministic base RTT between two hosts (see
    /// [`PingEngine::base_rtt`]).
    pub fn base_rtt(&self, src: HostId, dst: HostId) -> Option<f64> {
        self.engine.base_rtt(src, dst)
    }

    /// AS path between two hosts (see [`PingEngine::as_path`]).
    pub fn as_path(&self, src: HostId, dst: HostId) -> Option<Vec<Asn>> {
        self.engine.as_path(src, dst)
    }

    /// Batch-resolves a round's pair set on the shared engine (see
    /// [`PingEngine::resolve_pairs`]). Resolution sends no pings, so
    /// the handle's accounting is untouched.
    pub fn resolve_pairs(&self, pairs: &[(HostId, HostId)]) -> PairBlock {
        self.engine.resolve_pairs(pairs)
    }

    /// Indexed batch resolution (see
    /// [`PingEngine::resolve_pairs_indexed`]).
    pub fn resolve_pairs_indexed(&self, pairs: &[(HostId, HostId)]) -> (PairBlock, Vec<u32>) {
        self.engine.resolve_pairs_indexed(pairs)
    }

    /// Samples one measurement window under this handle's fault plan
    /// (see [`PingEngine::sample_window`]); counts `pings` attempts on
    /// the handle, exactly as `pings` scalar [`Pinger::ping`] calls
    /// would.
    #[allow(clippy::too_many_arguments)]
    pub fn sample_window<R: Rng + ?Sized>(
        &self,
        src: HostId,
        dst: HostId,
        start: SimTime,
        pings: usize,
        interval_secs: f64,
        rng: &mut R,
        out: &mut Vec<f64>,
    ) {
        self.attempts.fetch_add(pings as u64, Ordering::Relaxed);
        self.engine.sample_window(
            src,
            dst,
            start,
            pings,
            interval_secs,
            &self.faults,
            rng,
            out,
        );
    }

    /// Samples one window from a [`PairBlock`] row under this handle's
    /// fault plan — the innermost loop of batched round execution
    /// (see [`PingEngine::sample_window_resolved_tally`]). Counter
    /// updates are deferred into `tally`; pair with one
    /// [`PingHandle::flush_tally`] per worker chunk. Skipping the flush
    /// under-counts both the handle's and the engine's traffic.
    #[allow(clippy::too_many_arguments)]
    pub fn sample_window_block_tally<R: Rng + ?Sized>(
        &self,
        block: &PairBlock,
        slot: u32,
        start: SimTime,
        pings: usize,
        interval_secs: f64,
        rng: &mut R,
        out: &mut Vec<f64>,
        tally: &mut SampleTally,
    ) {
        self.engine.sample_window_resolved_tally(
            block.resolved(slot),
            start,
            pings,
            interval_secs,
            &self.faults,
            rng,
            out,
            tally,
        );
    }

    /// Publishes a deferred tally: the handle's attempt share and the
    /// engine-wide counters, in one `fetch_add` per non-zero field.
    pub fn flush_tally(&self, tally: &SampleTally) {
        if tally.attempts > 0 {
            self.attempts.fetch_add(tally.attempts, Ordering::Relaxed);
        }
        self.engine.stats.flush(tally);
    }
}

impl Pinger for PingHandle {
    fn ping<R: Rng + ?Sized>(
        &self,
        src: HostId,
        dst: HostId,
        t: SimTime,
        rng: &mut R,
    ) -> Option<f64> {
        self.attempts.fetch_add(1, Ordering::Relaxed);
        self.engine.ping_faulted(src, dst, t, &self.faults, rng)
    }

    fn traceroute<R: Rng + ?Sized>(
        &self,
        src: HostId,
        dst: HostId,
        t: SimTime,
        rng: &mut R,
    ) -> Option<Traceroute> {
        let tr = self
            .engine
            .traceroute_faulted(src, dst, t, &self.faults, rng);
        if tr.is_some() {
            // A routed traceroute pings the destination exactly once
            // (its last hop) — count it like the engine does.
            self.attempts.fetch_add(1, Ordering::Relaxed);
        }
        tr
    }

    fn resolve_ahead(&self, pairs: &[(HostId, HostId)]) {
        let _ = self.engine.resolve_pairs(pairs);
    }
}

/// One list per cache shard for `n` items spread across them, each
/// sized for twice its even share so it rarely grows.
fn shard_lists<T>(n: usize) -> Vec<Vec<T>> {
    (0..CACHE_SHARDS)
        .map(|_| Vec::with_capacity(2 * n / CACHE_SHARDS + 4))
        .collect()
}

/// The ASNs at `(start, end)` of a path buffer.
fn span(asns: &[Asn], (start, end): (u32, u32)) -> &[Asn] {
    &asns[start as usize..end as usize]
}

/// Longitude midpoint that respects the antimeridian (picks the midpoint
/// on the shorter arc).
fn mid_longitude(a: f64, b: f64) -> f64 {
    let diff = (b - a + 540.0).rem_euclid(360.0) - 180.0;
    let mid = a + diff / 2.0;
    (mid + 540.0).rem_euclid(360.0) - 180.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use shortcuts_topology::TopologyConfig;

    struct Fixture {
        topo: Arc<Topology>,
        router: Arc<Router>,
    }

    /// Builds a shared topology+router — the Arc ownership the real
    /// engine stack uses.
    fn fixture() -> Fixture {
        let topo = Arc::new(Topology::generate(&TopologyConfig::small(), 77));
        let router = Arc::new(Router::new(Arc::clone(&topo)));
        Fixture { topo, router }
    }

    fn two_hosts(f: &Fixture) -> (PingEngine, HostId, HostId) {
        let mut reg = HostRegistry::new();
        let eyes = f.topo.eyeball_asns();
        let a = reg.add_host_in_as(&f.topo, eyes[0], None).unwrap();
        let b = reg
            .add_host_in_as(&f.topo, eyes[eyes.len() / 2], None)
            .unwrap();
        let engine = PingEngine::new(
            Arc::clone(&f.topo),
            Arc::clone(&f.router),
            Arc::new(reg),
            LatencyModel::default(),
        );
        (engine, a, b)
    }

    #[test]
    fn engine_is_sync_and_shareable() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<PingEngine>();
        assert_sync::<PingHandle>();

        // Concurrent pings through one shared engine must keep the
        // counters consistent.
        let f = fixture();
        let (engine, a, b) = two_hosts(&f);
        std::thread::scope(|s| {
            for t in 0..4 {
                let engine = &engine;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(100 + t);
                    for i in 0..50 {
                        let _ = engine.ping(a, b, SimTime(f64::from(i)), &mut rng);
                    }
                });
            }
        });
        let stats = engine.stats();
        assert_eq!(stats.attempts, 200);
        assert_eq!(stats.replies + stats.losses + stats.unroutable, 200);
    }

    #[test]
    fn pair_cache_shards_are_stable_and_spread() {
        let cache = PairCache::new(None);
        for i in 0..500u32 {
            let key = (SiteId(i), SiteId(i ^ 0xABC));
            let entry = (key, PairFacts::UNROUTABLE, 0);
            let mut released = Vec::new();
            cache.insert_many(
                PairCache::shard_index(key),
                [entry].into_iter(),
                0,
                &mut released,
            );
            assert!(released.is_empty());
            let mut probe = cache.probe(PairCache::shard_index(key), 0);
            assert!(probe.lookup(key).is_some(), "inserted pair must be found");
        }
        // Without a budget nothing can be evicted, so no ring is kept.
        assert!(cache.shards.iter().all(|s| s.state.read().ring.is_empty()));
        // The shard hash must actually spread pairs; a constant hash
        // would silently restore single-lock contention.
        let used = cache
            .shards
            .iter()
            .filter(|s| !s.state.read().map.is_empty())
            .count();
        assert!(used > CACHE_SHARDS / 2, "only {used} shards used");
    }

    #[test]
    fn budgeted_pair_cache_bounds_each_shard_and_still_answers() {
        // Twice what a shard holding one unroutable entry costs: room
        // for an eight-bucket map, never for a sixteen-bucket one.
        let shard_budget = 2 * pair_entry_min_bytes();
        let cache = PairCache::new(Some(shard_budget * CACHE_SHARDS as u64));
        for i in 0..2000u32 {
            let entry = ((SiteId(i), SiteId(i)), PairFacts::UNROUTABLE, 0);
            let shard = PairCache::shard_index(entry.0);
            cache.insert_many(shard, [entry].into_iter(), 0, &mut Vec::new());
        }
        assert!(cache.evictions() > 0, "budget never forced an eviction");
        for s in &cache.shards {
            let st = s.state.read();
            assert!(
                st.bytes() <= shard_budget,
                "shard over budget: {}",
                st.bytes()
            );
            assert!(st.map.capacity() <= 7, "the map outgrew the budget");
            assert_eq!(st.ring.len(), st.map.len(), "ring out of sync");
        }
        // Evicted keys read as misses (recomputed upstream), resident
        // ones as hits; either way the cache still answers.
        let resident = cache.len();
        assert!(
            (CACHE_SHARDS..=7 * CACHE_SHARDS).contains(&resident),
            "{resident}"
        );
    }

    #[test]
    fn budgeted_engine_reexpands_evicted_pairs_identically() {
        let f = fixture();
        let mut reg = HostRegistry::new();
        let eyes = f.topo.eyeball_asns();
        let hosts: Vec<HostId> = eyes
            .iter()
            .step_by(eyes.len() / 8)
            .take(8)
            .map(|&asn| reg.add_host_in_as(&f.topo, asn, None).unwrap())
            .collect();
        let reg = Arc::new(reg);
        let unbounded = PingEngine::new(
            Arc::clone(&f.topo),
            Arc::clone(&f.router),
            Arc::clone(&reg),
            LatencyModel::default(),
        );
        // ~1 byte per shard: at most one pair survives per shard, so
        // any shard that sees a second pair must evict — yet every
        // re-expanded answer stays bit-identical to the warm engine's.
        let bounded = PingEngine::with_budget(
            Arc::clone(&f.topo),
            Arc::clone(&f.router),
            reg,
            LatencyModel::default(),
            Some(CACHE_SHARDS as u64),
        );
        for _ in 0..3 {
            for &s in &hosts {
                for &d in &hosts {
                    if s == d {
                        continue;
                    }
                    assert_eq!(bounded.base_rtt(s, d), unbounded.base_rtt(s, d));
                    assert_eq!(bounded.as_path(s, d), unbounded.as_path(s, d));
                }
            }
        }
        let stats = bounded.engine_stats();
        assert!(stats.pair_evictions > 0, "{stats:?}");
        assert!(stats.pair_cache_entries <= CACHE_SHARDS as u64, "{stats:?}");
        let charged = |e: &PingEngine| e.cache.sum(|s| s.state.read().bytes());
        assert!(
            charged(&bounded) < charged(&unbounded),
            "budget did not reduce residency"
        );
        let line = stats.summary();
        for key in [
            "pair_evictions=",
            "pair_bytes=",
            "table_evictions=",
            "tables_bytes=",
            "table_recomputes=",
        ] {
            assert!(line.contains(key), "{line} missing {key}");
        }
    }

    #[test]
    fn engine_stats_track_cache_warmth_and_traffic() {
        // Two hosts on `a`'s site (different access delays), one on
        // `b`'s: the cache is keyed by site pair, so both host pairs
        // share ONE entry — the second host's first ping is a hit.
        let f = fixture();
        let mut reg = HostRegistry::new();
        let eyes = f.topo.eyeball_asns();
        let mut add = |asn, access_ms| {
            reg.add_host_with_access(&f.topo, asn, None, HostKind::Probe, access_ms)
                .unwrap()
        };
        let a = add(eyes[0], 3.0);
        let a2 = add(eyes[0], 11.0);
        let b = add(eyes[eyes.len() / 2], 5.0);
        let engine = PingEngine::new(
            Arc::clone(&f.topo),
            Arc::clone(&f.router),
            Arc::new(reg),
            LatencyModel::default(),
        );
        assert_eq!(engine.engine_stats(), EngineStats::default());

        let mut rng = StdRng::seed_from_u64(9);
        for i in 0..5 {
            let _ = engine.ping(a, b, SimTime(f64::from(i)), &mut rng);
            let _ = engine.ping(a2, b, SimTime(f64::from(i)), &mut rng);
        }
        let stats = engine.engine_stats();
        // The first lookup misses and expands the site pair; every
        // other lookup — of either host pair — hits it.
        assert_eq!(stats.pair_cache_misses, 1);
        assert_eq!(stats.pair_cache_hits, 9);
        assert_eq!(stats.pair_cache_entries, 1);
        assert_eq!(stats.pair_rows, 10);
        assert_eq!(stats.routes_walked, 2, "one forward, one reverse");
        assert_eq!(stats.pings_sent, 10);
        assert!(stats.pair_cache_hit_rate() > 0.85);
        // Resolving the pair cached routing tables toward both hosts.
        assert!(stats.router_tables_resident >= 1);
        // The summary line carries every counter.
        let line = stats.summary();
        for key in [
            "pair_hits=9",
            "pair_misses=1",
            "pair_entries=1",
            "pings_sent=10",
            "pair_rows=10",
            "routes_walked=2",
        ] {
            assert!(line.contains(key), "{line} missing {key}");
        }
    }

    #[test]
    fn churn_reexpands_stale_pairs() {
        let f = fixture();
        let (engine, a, b) = two_hosts(&f);
        let path = engine.as_path(a, b).expect("routable fixture pair");
        let base = engine.base_rtt(a, b).expect("routable fixture pair");
        let misses = || engine.engine_stats().pair_cache_misses;
        assert_eq!(misses(), 1);

        // Down a link neither route of the pair uses: the stale entry
        // is still a miss, and re-expands to the same path and the
        // same base RTT, bit for bit.
        let mut reverse = Vec::new();
        let (ha, hb) = (engine.hosts().get(a), engine.hosts().get(b));
        assert!(f.router.table_at(ha.node).walk_from(hb.node, &mut reverse));
        let canon = |w: &[Asn]| (w[0].min(w[1]), w[0].max(w[1]));
        let on_path: std::collections::HashSet<(Asn, Asn)> = path
            .windows(2)
            .chain(reverse.windows(2))
            .map(canon)
            .collect();
        let spare = f
            .topo
            .ases()
            .iter()
            .flat_map(|info| {
                let adj = f.topo.adjacency(info.asn);
                adj.peers
                    .iter()
                    .chain(adj.providers.iter())
                    .map(|&o| (info.asn.min(o), info.asn.max(o)))
                    .collect::<Vec<_>>()
            })
            .find(|l| !on_path.contains(l))
            .expect("small topology has links off this pair's routes");
        engine.apply_delta(&[TopologyDelta::LinkDown {
            a: spare.0,
            b: spare.1,
        }]);
        let same = engine.as_path(a, b).expect("still routable");
        assert_eq!(misses(), 2, "a stale entry is a miss");
        assert_eq!(same, path, "untouched path must re-expand unchanged");
        let again = engine.base_rtt(a, b).expect("still routable");
        assert_eq!(again.to_bits(), base.to_bits());

        // Down a link the path DOES use: the entry re-expands, and the
        // new path must dodge the downed link.
        let used = canon(&path[..2]);
        engine.apply_delta(&[TopologyDelta::LinkDown {
            a: used.0,
            b: used.1,
        }]);
        if let Some(new_path) = engine.as_path(a, b) {
            assert!(
                new_path.windows(2).all(|w| canon(w) != used),
                "re-expanded path still crosses the downed link"
            );
        }
        let stats = engine.engine_stats();
        assert_eq!(stats.pair_cache_misses, 3, "{stats:?}");
        assert_eq!(stats.pair_revalidated, 0, "{stats:?}");
        assert_eq!(stats.tables_repaired, 0, "{stats:?}");
        assert!(stats.full_rebuilds > 0, "{stats:?}");
        let line = stats.summary();
        for key in [
            "tables_repaired=",
            "entries_rescanned=",
            "full_rebuilds=",
            "pair_revalidated=0",
        ] {
            assert!(line.contains(key), "{line} missing {key}");
        }
    }

    #[test]
    fn ping_between_eyeballs_returns_plausible_rtt() {
        let f = fixture();
        let (engine, a, b) = two_hosts(&f);
        let mut rng = StdRng::seed_from_u64(1);
        let mut got = 0;
        for i in 0..20 {
            if let Some(rtt) = engine.ping(a, b, SimTime(i as f64 * 60.0), &mut rng) {
                assert!(rtt > 0.0 && rtt < 2000.0, "rtt {rtt}");
                got += 1;
            }
        }
        assert!(got >= 15, "most pings should succeed, got {got}");
        let stats = engine.stats();
        assert_eq!(stats.attempts, 20);
        assert_eq!(stats.replies + stats.losses + stats.unroutable, 20);
    }

    #[test]
    fn base_rtt_at_least_speed_of_light() {
        let f = fixture();
        let (engine, a, b) = two_hosts(&f);
        let (ha, hb) = (engine.hosts().get(a).clone(), engine.hosts().get(b).clone());
        let min_rtt = shortcuts_geo::min_rtt_ms(ha.location.distance_km(&hb.location));
        let base = engine.base_rtt(a, b).expect("routable");
        assert!(
            base >= min_rtt,
            "base {base} below physical floor {min_rtt}"
        );
    }

    #[test]
    fn rtt_roughly_symmetric() {
        let f = fixture();
        let (engine, a, b) = two_hosts(&f);
        let ab = engine.base_rtt(a, b).unwrap();
        let ba = engine.base_rtt(b, a).unwrap();
        // Two-way base construction makes RTT direction-symmetric.
        assert!((ab - ba).abs() < 1e-9, "asymmetry (ab={ab}, ba={ba})");
    }

    #[test]
    fn same_as_hosts_ping_without_routing() {
        let f = fixture();
        let mut reg = HostRegistry::new();
        let asn = f.topo.eyeball_asns()[0];
        let a = reg.add_host_in_as(&f.topo, asn, None).unwrap();
        let b = reg.add_host_in_as(&f.topo, asn, None).unwrap();
        let engine = PingEngine::new(
            Arc::clone(&f.topo),
            Arc::clone(&f.router),
            Arc::new(reg),
            LatencyModel::default(),
        );
        // A batch of self-routes pins no table and turns no sweep.
        let _ = engine.resolve_pairs(&[(b, a)]);
        assert_eq!(f.router.stats().misses, 0);
        assert!(!engine.sweep_down.load(Ordering::Relaxed));
        assert_eq!(engine.as_path(a, b).unwrap(), vec![asn]);
        assert!(engine.base_rtt(a, b).unwrap() >= 0.0);
    }

    #[test]
    fn outage_kills_pings_during_window() {
        let f = fixture();
        let (engine, a, b) = two_hosts(&f);
        let mut handle = PingHandle::new(Arc::new(engine));
        let path = handle.as_path(a, b).unwrap();
        let transit = path[1]; // some AS in the middle
        handle.set_faults(FaultPlan::none().with_outage(transit, SimTime(100.0), SimTime(200.0)));
        let mut rng = StdRng::seed_from_u64(2);
        assert!(handle.ping(a, b, SimTime(150.0), &mut rng).is_none());
        // Outside the window pings mostly succeed.
        let ok = (0..10)
            .filter(|i| {
                handle
                    .ping(a, b, SimTime(300.0 + *i as f64), &mut rng)
                    .is_some()
            })
            .count();
        assert!(ok >= 8);
        assert_eq!(handle.pings_sent(), 11);
    }

    #[test]
    fn lossy_as_degrades_success_rate() {
        let f = fixture();
        let (engine, a, b) = two_hosts(&f);
        let engine = Arc::new(engine);
        let path = engine.as_path(a, b).unwrap();
        let faulty = PingHandle::with_faults(
            Arc::clone(&engine),
            FaultPlan::none().with_lossy_as(path[0], 0.9),
        );
        // A clean handle on the SAME shared engine stays unaffected —
        // fault plans are per-handle, not engine state.
        let clean = PingHandle::new(Arc::clone(&engine));
        let mut rng = StdRng::seed_from_u64(3);
        let ok = (0..100)
            .filter(|i| faulty.ping(a, b, SimTime(*i as f64), &mut rng).is_some())
            .count();
        assert!(ok < 30, "90% lossy AS should kill most pings, got {ok}");
        let ok = (0..100)
            .filter(|i| clean.ping(a, b, SimTime(*i as f64), &mut rng).is_some())
            .count();
        assert!(ok > 70, "clean handle must not see the faults, got {ok}");
        assert_eq!(faulty.pings_sent(), 100);
        assert_eq!(clean.pings_sent(), 100);
    }

    #[test]
    fn ping_series_returns_replies() {
        let f = fixture();
        let (engine, a, b) = two_hosts(&f);
        let mut rng = StdRng::seed_from_u64(4);
        let replies = engine.ping_series(a, b, SimTime(0.0), 6, 300.0, &mut rng);
        assert!(replies.len() >= 4, "got {}", replies.len());
    }

    #[test]
    fn mid_longitude_handles_antimeridian() {
        assert!((mid_longitude(10.0, 20.0) - 15.0).abs() < 1e-9);
        // Tokyo (139.65) to LA (-118.24): midpoint crosses the Pacific,
        // not Greenwich.
        let m = mid_longitude(139.65, -118.24);
        assert!(
            !(-60.0..=60.0).contains(&m),
            "midpoint {m} crossed wrong way"
        );
    }

    #[test]
    fn unroutable_pair_reports_none() {
        // Build a two-AS topology with no links at all.
        use shortcuts_geo::CountryCode;
        use shortcuts_topology::{AsInfo, AsType, IpAllocator};
        let mut alloc = IpAllocator::default();
        let mut b = Topology::builder();
        for asn in [1u32, 2] {
            b.add_as(AsInfo {
                asn: Asn(asn),
                as_type: AsType::Eyeball,
                home_country: CountryCode::new("US").unwrap(),
                countries: vec![],
                pops: vec![],
                prefixes: vec![alloc.alloc_prefix()],
                user_share: 0.1,
                offers_cloud: false,
            });
        }
        let nyc = b.cities().by_name("NewYork").unwrap().id;
        b.add_pop(Asn(1), nyc);
        b.add_pop(Asn(2), nyc);
        let topo = Arc::new(b.build());
        let router = Arc::new(Router::new(Arc::clone(&topo)));
        let mut reg = HostRegistry::new();
        let a = reg.add_host(&topo, Asn(1), None, HostKind::Probe).unwrap();
        let c = reg.add_host(&topo, Asn(2), None, HostKind::Probe).unwrap();
        let engine = PingEngine::new(topo, router, Arc::new(reg), LatencyModel::default());
        let mut rng = StdRng::seed_from_u64(5);
        assert!(engine.ping(a, c, SimTime(0.0), &mut rng).is_none());
        assert_eq!(engine.stats().unroutable, 1);

        // The batch resolver agrees: the pair gets a row, but an
        // unroutable one, and a sampled window consumes no RNG.
        let block = engine.resolve_pairs(&[(a, c)]);
        let slot = block.slot(a, c).unwrap();
        assert!(!block.is_routable(slot));
        let mut out = vec![1.0; 4];
        engine.sample_window_resolved(
            None,
            SimTime(0.0),
            6,
            300.0,
            &FaultPlan::NONE,
            &mut rng,
            &mut out,
        );
        assert!(out.is_empty(), "unroutable window must clear the buffer");
        assert_eq!(engine.stats().unroutable, 1 + 6);
    }

    #[test]
    fn sample_window_block_is_bit_identical_to_scalar_pings() {
        let f = fixture();
        let (engine, a, b) = two_hosts(&f);
        let engine = Arc::new(engine);

        // Fault-free: block sampling vs. the scalar series primitive.
        let block = engine.resolve_pairs(&[(a, b)]);
        let slot = block.slot(a, b).unwrap();
        let mut out = Vec::new();
        engine.sample_window_resolved(
            block.resolved(slot),
            SimTime(0.0),
            6,
            300.0,
            &FaultPlan::NONE,
            &mut StdRng::seed_from_u64(42),
            &mut out,
        );
        let series =
            engine.ping_series(a, b, SimTime(0.0), 6, 300.0, &mut StdRng::seed_from_u64(42));
        assert_eq!(
            out, series,
            "batched window must replicate scalar RNG draws"
        );

        // Under a fault plan (outage + extra loss), through handles —
        // including the per-handle attempts accounting.
        let path = engine.as_path(a, b).unwrap();
        let faults = FaultPlan::none().with_lossy_as(path[0], 0.5).with_outage(
            path[0],
            SimTime(300.0),
            SimTime(700.0),
        );
        let scalar_handle = PingHandle::with_faults(Arc::clone(&engine), faults.clone());
        let batched_handle = PingHandle::with_faults(Arc::clone(&engine), faults);
        let mut rng = StdRng::seed_from_u64(7);
        let scalar: Vec<f64> = (0..6)
            .filter_map(|i| {
                scalar_handle.ping(a, b, SimTime(0.0).plus_secs(i as f64 * 300.0), &mut rng)
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(7);
        let mut tally = SampleTally::default();
        batched_handle.sample_window_block_tally(
            &block,
            slot,
            SimTime(0.0),
            6,
            300.0,
            &mut rng,
            &mut out,
            &mut tally,
        );
        batched_handle.flush_tally(&tally);
        assert_eq!(out, scalar, "faulted window must replicate scalar draws");
        assert!(out.len() < 6, "the outage must eat mid-window pings");
        assert_eq!(scalar_handle.pings_sent(), batched_handle.pings_sent());
    }

    #[test]
    fn interning_shares_forward_paths_across_site_pairs() {
        // Eight ASes with two PoP cities each, three hosts per city:
        // routes are interned per AS pair and facts cached per site
        // pair, so nine host pairs share each entry, and the two site
        // pairs of an AS pair share one forward path.
        let f = fixture();
        let mut reg = HostRegistry::new();
        let multi: Vec<Asn> = f
            .topo
            .ases()
            .iter()
            .map(|info| info.asn)
            .filter(|&asn| f.topo.pop_cities(asn).len() >= 2)
            .collect();
        assert!(multi.len() >= 8, "{} multi-city ASes", multi.len());
        let mut site = |asn, c: usize| {
            let city = f.topo.pop_cities(asn)[c];
            [0; 3].map(|_| reg.add_host_in_as(&f.topo, asn, Some(city)).unwrap())
        };
        let (sites, twins): (Vec<[HostId; 3]>, Vec<[HostId; 3]>) = multi
            .iter()
            .step_by(multi.len() / 8)
            .take(8)
            .map(|&asn| (site(asn, 0), site(asn, 1)))
            .unzip();
        let engine = PingEngine::new(
            Arc::clone(&f.topo),
            Arc::clone(&f.router),
            Arc::new(reg),
            LatencyModel::default(),
        );
        let host_pairs = |sites: &[[HostId; 3]]| {
            let mut pairs = Vec::new();
            for (i, from) in sites.iter().enumerate() {
                for to in &sites[i + 1..] {
                    pairs.extend(from.iter().flat_map(|&a| to.iter().map(move |&b| (a, b))));
                }
            }
            pairs
        };
        let (fwd, twin) = (host_pairs(&sites), host_pairs(&twins));
        let site_pairs = (fwd.len() / 9) as u64;
        let path_bytes =
            |engine: &PingEngine| -> u64 { engine.cache.sum(|s| s.state.read().path_bytes) };

        let block = engine.resolve_pairs(&fwd);
        let s1 = engine.engine_stats();
        assert_eq!(block.len(), fwd.len());
        assert_eq!(s1.pair_cache_entries, site_pairs, "{s1:?}");
        assert_eq!(s1.pair_cache_misses, site_pairs, "{s1:?}");
        assert_eq!(s1.pair_cache_hits, 0, "{s1:?}");
        assert_eq!(s1.pair_rows, fwd.len() as u64, "{s1:?}");
        assert_eq!(s1.routes_walked, 2 * site_pairs, "{s1:?}");
        assert!(s1.paths_interned > 0, "{s1:?}");
        // Every distinct forward path is stored once, however many
        // entries reference it, and each routable entry is charged for
        // its forward path alone.
        let routable = (0..block.len() as u32)
            .filter(|&k| block.is_routable(k))
            .count() as u64
            / 9; // nine rows per site pair, all routable or none
        assert!(routable > 0, "fixture should route most pairs");
        let mut ids: Vec<PathId> = Vec::new();
        for st in engine.cache.shards.iter().map(|s| s.state.read()) {
            ids.extend(st.map.values().filter_map(|e| e.facts.path()));
        }
        let charge = |&id| u64::from(path_charge(engine.interner.with_path(id, <[Asn]>::len)));
        let charges: u64 = ids.iter().map(charge).sum();
        let live = ids.iter().collect::<std::collections::HashSet<_>>().len();
        assert_eq!(live as u64, s1.paths_interned);
        assert_eq!(live, engine.interner.live_paths());
        assert_eq!(path_bytes(&engine), charges);
        let arena = engine.interner.resident_bytes();

        // A warm re-resolve is pure hits, one per distinct site pair.
        let _ = engine.resolve_pairs(&fwd);
        let warm = engine.engine_stats();
        assert_eq!(warm.pair_cache_misses, site_pairs, "{warm:?}");
        assert_eq!(warm.pair_cache_hits, site_pairs, "{warm:?}");

        // The twin site pairs sit on the same AS pairs, so their
        // forward routes are already interned: the new entries store
        // no path, and the arena does not grow.
        let _ = engine.resolve_pairs(&twin);
        let s2 = engine.engine_stats();
        assert_eq!(s2.pair_cache_entries, 2 * site_pairs, "{s2:?}");
        assert_eq!(
            s2.path_dedup_hits,
            s1.path_dedup_hits + routable,
            "one dedup hit per routable twin entry: {s2:?} vs {s1:?}"
        );
        assert_eq!(
            s2.paths_interned, s1.paths_interned,
            "twin resolution must intern nothing fresh"
        );
        assert_eq!(engine.interner.live_paths(), live);
        assert_eq!(engine.interner.resident_bytes(), arena);
        assert_eq!(
            path_bytes(&engine),
            2 * charges,
            "each reference is charged"
        );
    }
}
