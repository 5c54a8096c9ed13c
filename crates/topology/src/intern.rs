//! AS-path interning: one stored copy per distinct path, named by a
//! dense [`PathId`].
//!
//! The measurement layer caches deterministic facts per *site pair*
//! (`(AS, city)` → `(AS, city)`), but the AS-level paths inside those
//! facts are heavily shared: every site of an eyeball AS reaches a
//! given destination over the same policy route, and same-AS pairs
//! all store one-element paths. Storing each pair's path privately
//! multiplies that redundancy by the pair count.
//!
//! [`PathInterner`] collapses the redundancy: `intern` returns the
//! [`PathId`] of the stored copy of a path's content, so `n` pairs
//! sharing a route hold `n` references to **one** copy, and a pair's
//! facts can be a plain `Copy` record holding one id. A path shared by
//! `n` pairs is stored once, and a pair's record holds a 4-byte id
//! instead of a pointer to an allocation of its own. Churn needs no
//! path at all: a stale pair is re-expanded, whatever its path.
//!
//! **Lifetime.** Every id carries a plain reference count: `intern`
//! adds one, [`PathInterner::release`] drops one. An id released to
//! zero leaves the dedup table and goes on its shard's free list, so
//! the next fresh path reuses its record; its ASNs become dead space
//! that the shard compacts away once it is a quarter of the ASN array. The arena is therefore as large as the
//! most paths ever live at once, not as every path ever interned.
//!
//! **Layout.** The interner is split into independently locked shards
//! (picked by content hash) so data-parallel pair expansion rarely
//! contends. A shard is an arena: one `Vec<Asn>` holding every path
//! back to back, a `(start, len, refs)` record per id, and a table
//! from 64-bit content hash to id. Two live paths sharing a hash (never
//! seen in practice) spill the second into a side list.

use crate::ids::Asn;
use parking_lot::RwLock;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bits of a [`PathId`] naming its shard.
const SHARD_BITS: u32 = 5;

/// Shards in the interner. Interning happens on pair-cache *misses*
/// (first-touch rounds, churn recomputes), which the engine runs
/// data-parallel — independent locks keep those expansions from
/// serializing on one lock.
const INTERN_SHARDS: usize = 1 << SHARD_BITS;

/// The name of one interned path: its shard in the low bits, its slot
/// in that shard's arena above them. Ids are handed out in whatever
/// order threads intern, so nothing observable may depend on an id's
/// value — only on the path it names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathId(u32);

impl PathId {
    /// A sentinel that names no path (e.g. "unroutable").
    pub const NONE: PathId = PathId(u32::MAX);

    fn new(shard: usize, local: usize) -> Self {
        let id = (local << SHARD_BITS) | shard;
        assert!(id < u32::MAX as usize, "path arena overflow");
        PathId(id as u32)
    }

    fn shard(self) -> usize {
        self.0 as usize & (INTERN_SHARDS - 1)
    }

    fn local(self) -> usize {
        (self.0 >> SHARD_BITS) as usize
    }
}

/// Snapshot of an interner's lifetime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Paths interned fresh (stored, not found).
    pub interned: u64,
    /// Interning requests served by an existing live copy.
    pub dedup_hits: u64,
}

/// One id's record in its shard's arena.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// First ASN in [`Arena::asns`].
    start: u32,
    /// Path length.
    len: u32,
    /// References held; 0 = on the free list.
    refs: u32,
}

/// A hasher for keys that already are well-mixed 64-bit hashes.
#[derive(Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the dedup table is keyed by u64 hashes only")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// One shard: its paths' ASNs, per-id records, free slots and the
/// content-hash table.
#[derive(Default)]
struct Arena {
    asns: Vec<Asn>,
    slots: Vec<Slot>,
    /// Freed slots, reused by the next fresh paths.
    free: Vec<u32>,
    /// ASNs in `asns` that no live path uses.
    dead: usize,
    /// Content hash → a live path with that hash.
    table: HashMap<u64, u32, BuildHasherDefault<PreHashed>>,
    /// Content hash → further live paths sharing it.
    collided: HashMap<u64, Vec<u32>>,
}

impl Arena {
    fn path(&self, local: usize) -> &[Asn] {
        let s = self.slots[local];
        &self.asns[s.start as usize..(s.start + s.len) as usize]
    }

    fn find(&self, hash: u64, path: &[Asn]) -> Option<usize> {
        let first = *self.table.get(&hash)? as usize;
        if self.path(first) == path {
            return Some(first);
        }
        let more = self.collided.get(&hash)?;
        more.iter()
            .map(|&l| l as usize)
            .find(|&l| self.path(l) == path)
    }

    /// Stores a fresh path with one reference, in a freed slot if
    /// there is one.
    fn insert(&mut self, hash: u64, path: &[Asn]) -> usize {
        if self.dead * 4 > self.asns.len() {
            self.compact();
        }
        let start = u32::try_from(self.asns.len()).expect("path arena overflow");
        self.asns.extend_from_slice(path);
        let slot = Slot {
            start,
            len: path.len() as u32,
            refs: 1,
        };
        let local = match self.free.pop() {
            Some(local) => {
                self.slots[local as usize] = slot;
                local
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        };
        match self.table.entry(hash) {
            Entry::Vacant(e) => {
                e.insert(local);
            }
            Entry::Occupied(_) => self.collided.entry(hash).or_default().push(local),
        }
        local as usize
    }

    /// Moves the live paths' ASNs to the front of a fresh array.
    fn compact(&mut self) {
        let mut asns = Vec::with_capacity(self.asns.len() - self.dead);
        for slot in self.slots.iter_mut().filter(|s| s.refs > 0) {
            let start = slot.start as usize;
            slot.start = asns.len() as u32;
            asns.extend_from_slice(&self.asns[start..start + slot.len as usize]);
        }
        self.asns = asns;
        self.dead = 0;
    }

    /// Drops one reference; a path released to zero leaves the table
    /// and its slot joins the free list.
    fn release(&mut self, local: usize) {
        let slot = &mut self.slots[local];
        assert!(slot.refs > 0, "path released more often than referenced");
        slot.refs -= 1;
        if slot.refs > 0 {
            return;
        }
        self.dead += slot.len as usize;
        let hash = hash_path(self.path(local));
        let local = local as u32;
        if self.table.get(&hash) == Some(&local) {
            let next = self.collided.get_mut(&hash).and_then(Vec::pop);
            match next {
                Some(next) => {
                    self.table.insert(hash, next);
                }
                None => {
                    self.table.remove(&hash);
                }
            }
        } else if let Some(more) = self.collided.get_mut(&hash) {
            more.retain(|&l| l != local);
        }
        if self.collided.get(&hash).is_some_and(Vec::is_empty) {
            self.collided.remove(&hash);
        }
        self.free.push(local);
    }

    /// Heap bytes this shard holds.
    fn heap_bytes(&self) -> usize {
        self.asns.capacity() * std::mem::size_of::<Asn>()
            + self.slots.capacity() * std::mem::size_of::<Slot>()
            + self.free.capacity() * std::mem::size_of::<u32>()
            + map_heap_bytes::<u64, u32>(self.table.capacity())
            + map_heap_bytes::<u64, Vec<u32>>(self.collided.capacity())
            + self.collided.values().map(Vec::capacity).sum::<usize>() * 4
    }
}

/// Heap bytes of a std `HashMap<K, V>` whose `capacity()` is
/// `capacity`: a power-of-two bucket array at most 7/8 full, one
/// control byte per bucket and one trailing 16-byte group.
pub fn map_heap_bytes<K, V>(capacity: usize) -> usize {
    if capacity == 0 {
        return 0;
    }
    let buckets = if capacity < 8 {
        if capacity < 4 {
            4
        } else {
            8
        }
    } else {
        (capacity * 8).div_ceil(7).next_power_of_two()
    };
    buckets * (std::mem::size_of::<(K, V)>() + 1) + 16
}

/// The most heap one entry of `slot` bytes can hold in a std
/// `HashMap` that entries are removed from: its slot and control byte
/// in a table at least 7/32 full. (Removals can leave tombstones that
/// make an insert double a table only half full.)
fn table_entry_bound(slot: usize) -> usize {
    ((slot + 1) * 32).div_ceil(7)
}

/// A content-addressed, reference-counted store of AS paths.
pub struct PathInterner {
    shards: Vec<RwLock<Arena>>,
    interned: AtomicU64,
    dedup_hits: AtomicU64,
}

impl Default for PathInterner {
    fn default() -> Self {
        Self::new()
    }
}

impl PathInterner {
    /// An empty interner. Allocates only the shard array.
    pub fn new() -> Self {
        PathInterner {
            shards: (0..INTERN_SHARDS)
                .map(|_| RwLock::new(Arena::default()))
                .collect(),
            interned: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
        }
    }

    /// The id of `path`'s stored copy, with one more reference held by
    /// the caller, plus whether this call stored it (`true` = fresh).
    pub fn intern(&self, path: &[Asn]) -> (PathId, bool) {
        let hash = hash_path(path);
        let shard = ((hash >> 32) as usize) % INTERN_SHARDS;
        let mut arena = self.shards[shard].write();
        if let Some(local) = arena.find(hash, path) {
            arena.slots[local].refs += 1;
            self.dedup_hits.fetch_add(1, Ordering::Relaxed);
            return (PathId::new(shard, local), false);
        }
        let local = arena.insert(hash, path);
        self.interned.fetch_add(1, Ordering::Relaxed);
        (PathId::new(shard, local), true)
    }

    /// Drops one reference from each id (an id listed twice loses
    /// two), each shard's lock taken once; ids released to zero are
    /// freed for reuse.
    pub fn release(&self, ids: &mut [PathId]) {
        ids.sort_unstable_by_key(|id| id.shard());
        for run in ids.chunk_by(|a, b| a.shard() == b.shard()) {
            let mut arena = self.shards[run[0].shard()].write();
            for id in run {
                arena.release(id.local());
            }
        }
    }

    /// The most heap one stored path of `len` ASNs can hold in its
    /// arena: its id record and free-list place in vectors at least
    /// half full, its ASNs in an array at least 3/8 live (half full, at
    /// most a quarter dead), and its slot in a hash table at least 7/32
    /// full.
    pub fn stored_bytes_bound(len: usize) -> usize {
        let asns = (len * std::mem::size_of::<Asn>() * 8).div_ceil(3);
        let records = 2 * (std::mem::size_of::<Slot>() + std::mem::size_of::<u32>());
        asns + records + table_entry_bound(std::mem::size_of::<(u64, u32)>())
    }

    /// Runs `f` on the path `id` names (which must be live).
    pub fn with_path<R>(&self, id: PathId, f: impl FnOnce(&[Asn]) -> R) -> R {
        f(self.shards[id.shard()].read().path(id.local()))
    }

    /// Appends the path of every `(id, tag)` to `out`, shard by shard
    /// under one read lock each, and reports each one's range in `out`
    /// as `at(tag, start, end)`. The ids must be live.
    pub fn copy_paths(
        &self,
        ids: &mut [(PathId, u32)],
        out: &mut Vec<Asn>,
        mut at: impl FnMut(u32, u32, u32),
    ) {
        ids.sort_unstable_by_key(|(id, _)| id.shard());
        for run in ids.chunk_by(|a, b| a.0.shard() == b.0.shard()) {
            let arena = self.shards[run[0].0.shard()].read();
            for &(id, tag) in run {
                let start = out.len() as u32;
                out.extend_from_slice(arena.path(id.local()));
                at(tag, start, out.len() as u32);
            }
        }
    }

    /// Lifetime counters: fresh interns vs. dedup hits.
    pub fn stats(&self) -> InternStats {
        InternStats {
            interned: self.interned.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
        }
    }

    /// Distinct paths currently referenced (scans every slot;
    /// diagnostics only).
    pub fn live_paths(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().slots.iter().filter(|s| s.refs > 0).count())
            .sum()
    }

    /// Heap bytes the stored paths hold: every shard's ASN array, id
    /// records, free list and hash table, at their capacities.
    pub fn resident_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.read().heap_bytes() as u64)
            .sum()
    }
}

/// The hash a path is bucketed under: its content hash.
#[cfg(not(test))]
fn hash_path(path: &[Asn]) -> u64 {
    content_hash(path)
}

/// The test build's hash seam: a thread may force every path it
/// interns onto one hash, to drive the collision paths.
#[cfg(test)]
fn hash_path(path: &[Asn]) -> u64 {
    tests::FORCED_HASH
        .with(std::cell::Cell::get)
        .unwrap_or_else(|| content_hash(path))
}

/// SplitMix64-style content hash over the path's ASNs. Collisions are
/// handled by content comparison, so this only needs to spread.
fn content_hash(path: &[Asn]) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3u64 ^ (path.len() as u64);
    for asn in path {
        h ^= u64::from(asn.0);
        h = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// When set, every path this thread interns hashes here.
        pub(super) static FORCED_HASH: Cell<Option<u64>> = const { Cell::new(None) };
    }

    fn path(asns: &[u32]) -> Vec<Asn> {
        asns.iter().copied().map(Asn).collect()
    }

    fn content(interner: &PathInterner, id: PathId) -> Vec<Asn> {
        interner.with_path(id, <[Asn]>::to_vec)
    }

    /// Table entries across all shards: one per distinct live hash.
    fn hashes(interner: &PathInterner) -> usize {
        interner.shards.iter().map(|s| s.read().table.len()).sum()
    }

    #[test]
    fn identical_paths_share_one_id() {
        let interner = PathInterner::new();
        let (a, fresh_a) = interner.intern(&path(&[1, 2, 3]));
        let (b, fresh_b) = interner.intern(&path(&[1, 2, 3]));
        assert!(fresh_a);
        assert!(!fresh_b);
        assert_eq!(a, b);
        assert_eq!(content(&interner, a), path(&[1, 2, 3]));
        let stats = interner.stats();
        assert_eq!(stats.interned, 1);
        assert_eq!(stats.dedup_hits, 1);
    }

    #[test]
    fn distinct_paths_get_distinct_ids() {
        let interner = PathInterner::new();
        let (a, _) = interner.intern(&path(&[1, 2, 3]));
        let (b, fresh) = interner.intern(&path(&[3, 2, 1]));
        assert!(fresh, "reversed content is a different path");
        assert_ne!(a, b);
        // Prefix/suffix confusion would be a hash-or-compare bug.
        let (c, fresh) = interner.intern(&path(&[1, 2]));
        assert!(fresh);
        assert_eq!(content(&interner, c), path(&[1, 2]));
        assert_eq!(content(&interner, a), path(&[1, 2, 3]));
    }

    #[test]
    fn a_path_lives_until_its_last_reference_is_released() {
        let interner = PathInterner::new();
        let (a, _) = interner.intern(&path(&[7, 8]));
        let (b, _) = interner.intern(&path(&[7, 8]));
        assert_eq!(interner.intern(&path(&[7, 8])).0, a);
        assert_eq!(interner.live_paths(), 1);
        interner.release(&mut [a, b]);
        assert_eq!(interner.live_paths(), 1, "one reference is left");
        assert_eq!(content(&interner, a), path(&[7, 8]));
        interner.release(&mut [a]);
        assert_eq!(interner.live_paths(), 0);
        assert_eq!(hashes(&interner), 0, "a freed path leaves the table");
        let (_, fresh) = interner.intern(&path(&[7, 8]));
        assert!(fresh, "a freed path re-interns fresh");
        assert_eq!(interner.stats().interned, 2);
    }

    #[test]
    fn a_freed_slot_is_reused_and_dead_asns_are_compacted_away() {
        let interner = PathInterner::new();
        FORCED_HASH.with(|h| h.set(Some(9)));
        let (a, _) = interner.intern(&path(&[1, 2, 3]));
        let (b, _) = interner.intern(&path(&[4, 5]));
        interner.release(&mut [a]);
        let (c, fresh) = interner.intern(&path(&[6, 7, 8, 9]));
        assert!(fresh);
        assert_eq!(c, a, "the freed slot is recycled, whatever the length");
        assert_eq!(content(&interner, c), path(&[6, 7, 8, 9]));
        // Churn one path through the shard: its dead ASNs are
        // compacted away rather than kept.
        let mut last = c;
        for i in 0..100 {
            interner.release(&mut [last]);
            last = interner.intern(&path(&[i, i + 1, i + 2])).0;
        }
        assert_eq!(content(&interner, last), path(&[99, 100, 101]));
        assert_eq!(content(&interner, b), path(&[4, 5]));
        let arena = interner.shards[a.shard()].read();
        assert_eq!(arena.slots.len(), 2);
        assert!(
            arena.asns.len() <= 4 * 5,
            "{} ASNs stored",
            arena.asns.len()
        );
        drop(arena);
        interner.release(&mut [b, last]);
        FORCED_HASH.with(|h| h.set(None));
    }

    #[test]
    fn colliding_paths_share_a_hash_but_not_an_id() {
        let interner = PathInterner::new();
        FORCED_HASH.with(|h| h.set(Some(42)));
        let (a, fresh_a) = interner.intern(&path(&[1, 2]));
        let (b, fresh_b) = interner.intern(&path(&[3, 4]));
        assert!(fresh_a && fresh_b, "equal hashes, different contents");
        assert_ne!(a, b);
        assert_eq!(hashes(&interner), 1);
        let (a2, fresh) = interner.intern(&path(&[1, 2]));
        assert!(!fresh && a == a2);
        let (b2, fresh) = interner.intern(&path(&[3, 4]));
        assert!(!fresh && b == b2);
        assert_eq!(
            interner.stats(),
            InternStats {
                interned: 2,
                dedup_hits: 2
            }
        );
        // Freeing the table's path promotes the listed one.
        interner.release(&mut [a, a2]);
        let (b3, fresh) = interner.intern(&path(&[3, 4]));
        assert!(!fresh && b3 == b);
        interner.release(&mut [b, b2, b3]);
        assert_eq!(interner.live_paths(), 0);
        assert_eq!(hashes(&interner), 0);
        let arena = interner.shards[a.shard()].read();
        assert!(arena.collided.is_empty());
        drop(arena);
        FORCED_HASH.with(|h| h.set(None));
    }

    #[test]
    fn copy_paths_reports_each_range() {
        let interner = PathInterner::new();
        let paths = [path(&[1]), path(&[2, 3]), path(&[4, 5, 6])];
        let mut ids: Vec<(PathId, u32)> = paths
            .iter()
            .enumerate()
            .map(|(i, p)| (interner.intern(p).0, i as u32))
            .collect();
        let mut out = vec![Asn(99)];
        let mut got = vec![(0, 0); paths.len()];
        interner.copy_paths(&mut ids, &mut out, |tag, start, end| {
            got[tag as usize] = (start as usize, end as usize);
        });
        for (i, &(start, end)) in got.iter().enumerate() {
            assert_eq!(&out[start..end], &paths[i][..]);
        }
        assert_eq!(out[0], Asn(99), "copies append");
    }

    #[test]
    fn concurrent_interning_yields_one_id() {
        let interner = PathInterner::new();
        let ids: Vec<PathId> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| interner.intern(&path(&[5, 6, 7])).0))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(ids.iter().all(|&id| id == ids[0]));
        let stats = interner.stats();
        assert_eq!(stats.interned, 1, "exactly one thread may store it");
        assert_eq!(stats.dedup_hits, 7);
        let mut ids = ids;
        interner.release(&mut ids);
        assert_eq!(interner.live_paths(), 0);
    }

    #[test]
    fn empty_path_is_internable() {
        let interner = PathInterner::new();
        let (a, fresh) = interner.intern(&[]);
        assert!(fresh);
        assert!(content(&interner, a).is_empty());
        let (_, fresh) = interner.intern(&[]);
        assert!(!fresh);
    }

    #[test]
    fn map_heap_bytes_follows_the_bucket_array() {
        assert_eq!(map_heap_bytes::<u64, u32>(0), 0);
        // 1 and 3 → 4 buckets, 7 → 8, 14 → 16 (7/8 full), 15 → 32.
        assert_eq!(map_heap_bytes::<u64, u32>(1), 4 * 17 + 16);
        assert_eq!(map_heap_bytes::<u64, u32>(3), 4 * 17 + 16);
        assert_eq!(map_heap_bytes::<u64, u32>(7), 8 * 17 + 16);
        assert_eq!(map_heap_bytes::<u64, u32>(14), 16 * 17 + 16);
        assert_eq!(map_heap_bytes::<u64, u32>(15), 32 * 17 + 16);
        let mut m: HashMap<u64, u32> = HashMap::new();
        m.extend((0..1000).map(|i| (i, 0)));
        assert_eq!(map_heap_bytes::<u64, u32>(m.capacity()), 2048 * 17 + 16);
    }
}
