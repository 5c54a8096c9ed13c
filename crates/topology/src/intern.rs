//! AS-path interning: one shared allocation per distinct path.
//!
//! The measurement layer caches deterministic facts per *site pair*
//! (`(AS, city)` → `(AS, city)`), but the AS-level paths inside those
//! facts are heavily shared: every site of an eyeball AS reaches a
//! given destination over the same policy route, the reverse pair
//! `(b, a)` stores the mirror of `(a, b)`'s arrays, and same-AS pairs
//! all store one-element paths. Storing each pair's paths as private
//! `Arc<[Asn]>` allocations multiplies that redundancy by the pair
//! count.
//!
//! [`PathInterner`] collapses the redundancy: `intern` returns a
//! canonical `Arc<[Asn]>` per distinct path content, so `n` pairs
//! sharing a route hold `n` refcounts on **one** allocation. Two
//! consequences the engine exploits:
//!
//! - **Residency**: a pair-cache byte budget charges the array payload
//!   once (to the interning that created it) instead of once per pair.
//! - **Churn**: revalidating stale pairs against a delta batch
//!   ([`DirtyEpoch`-style `crosses` checks]) can memoize per unique
//!   `Arc` pointer — per-path work, not per-pair work.
//!
//! The interner holds only [`Weak`] references, so it never keeps a
//! path alive: when the last cache entry using a path is evicted, the
//! allocation dies and the interner's slot is pruned or reused on its
//! bucket's next visit. Buckets are sharded under independent mutexes
//! so data-parallel pair expansion rarely contends.
//!
//! **Bucket layout.** A bucket is keyed by the path's 64-bit content
//! hash and almost always holds one path, so that path's `Weak` sits
//! inline in the map entry (`Bucket::One`). Only when two *live*
//! paths share a hash does the bucket become a list (`Bucket::Many`).
//! A fresh path therefore costs exactly one allocation — its own
//! `Arc<[Asn]>` — plus amortized growth of the shard's map.

use crate::ids::Asn;
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Shards in the interner. Interning happens on pair-cache *misses*
/// (first-touch rounds, churn recomputes), which the engine runs
/// data-parallel — independent locks keep those expansions from
/// serializing on one mutex.
const INTERN_SHARDS: usize = 32;

/// Snapshot of an interner's lifetime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Paths interned fresh (a new allocation was created).
    pub interned: u64,
    /// Interning requests served by an existing shared allocation.
    pub dedup_hits: u64,
}

/// One hash bucket: the paths whose content hashed there.
enum Bucket {
    /// The common case: one path, stored inline (possibly dead).
    One(Weak<[Asn]>),
    /// Two or more paths collided on the hash while alive; dead ones
    /// are pruned when the bucket is next visited.
    Many(Vec<Weak<[Asn]>>),
}

/// A content-addressed table of live `Arc<[Asn]>` paths.
pub struct PathInterner {
    shards: Vec<Mutex<HashMap<u64, Bucket>>>,
    interned: AtomicU64,
    dedup_hits: AtomicU64,
}

impl Default for PathInterner {
    fn default() -> Self {
        Self::new()
    }
}

impl PathInterner {
    /// An empty interner.
    pub fn new() -> Self {
        PathInterner {
            shards: (0..INTERN_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            interned: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
        }
    }

    /// The canonical shared allocation for `path`, plus whether this
    /// call created it (`true` = fresh — the caller owning a byte
    /// gauge should charge the array payload exactly when fresh).
    ///
    /// Dead entries (paths whose last strong reference was dropped)
    /// are pruned from — or overwritten in — the visited bucket, so the
    /// table tracks the *live* path population, not everything ever
    /// interned.
    pub fn intern(&self, path: &[Asn]) -> (Arc<[Asn]>, bool) {
        let hash = hash_path(path);
        let mut shard = self.shards[(hash as usize) % INTERN_SHARDS].lock();
        let bucket = match shard.entry(hash) {
            Entry::Vacant(slot) => {
                let arc: Arc<[Asn]> = Arc::from(path);
                slot.insert(Bucket::One(Arc::downgrade(&arc)));
                return self.fresh(arc);
            }
            Entry::Occupied(slot) => slot.into_mut(),
        };
        match bucket {
            Bucket::One(weak) => match weak.upgrade() {
                Some(live) if *live == *path => self.hit(live),
                Some(live) => {
                    let arc: Arc<[Asn]> = Arc::from(path);
                    *bucket = Bucket::Many(vec![Arc::downgrade(&live), Arc::downgrade(&arc)]);
                    self.fresh(arc)
                }
                None => {
                    let arc: Arc<[Asn]> = Arc::from(path);
                    *weak = Arc::downgrade(&arc);
                    self.fresh(arc)
                }
            },
            Bucket::Many(list) => {
                let mut found = None;
                list.retain(|weak| match weak.upgrade() {
                    Some(arc) => {
                        if found.is_none() && *arc == *path {
                            found = Some(arc);
                        }
                        true
                    }
                    None => false,
                });
                if let Some(arc) = found {
                    return self.hit(arc);
                }
                let arc: Arc<[Asn]> = Arc::from(path);
                if list.is_empty() {
                    *bucket = Bucket::One(Arc::downgrade(&arc));
                } else {
                    list.push(Arc::downgrade(&arc));
                }
                self.fresh(arc)
            }
        }
    }

    fn fresh(&self, arc: Arc<[Asn]>) -> (Arc<[Asn]>, bool) {
        self.interned.fetch_add(1, Ordering::Relaxed);
        (arc, true)
    }

    fn hit(&self, arc: Arc<[Asn]>) -> (Arc<[Asn]>, bool) {
        self.dedup_hits.fetch_add(1, Ordering::Relaxed);
        (arc, false)
    }

    /// Lifetime counters: fresh interns vs. dedup hits.
    pub fn stats(&self) -> InternStats {
        InternStats {
            interned: self.interned.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
        }
    }

    /// Distinct paths currently alive in the table (scans every
    /// bucket; diagnostics only).
    pub fn live_paths(&self) -> usize {
        let live = |w: &Weak<[Asn]>| usize::from(w.strong_count() > 0);
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .values()
                    .map(|bucket| match bucket {
                        Bucket::One(weak) => live(weak),
                        Bucket::Many(list) => list.iter().map(live).sum(),
                    })
                    .sum::<usize>()
            })
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
/// handled by per-bucket content comparison, so this only needs to
/// spread.
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

    /// Map entries across all shards: one per hash bucket.
    fn buckets(interner: &PathInterner) -> usize {
        interner.shards.iter().map(|s| s.lock().len()).sum()
    }

    #[test]
    fn identical_paths_share_one_allocation() {
        let interner = PathInterner::new();
        let (a, fresh_a) = interner.intern(&path(&[1, 2, 3]));
        let (b, fresh_b) = interner.intern(&path(&[1, 2, 3]));
        assert!(fresh_a);
        assert!(!fresh_b);
        assert!(Arc::ptr_eq(&a, &b));
        let stats = interner.stats();
        assert_eq!(stats.interned, 1);
        assert_eq!(stats.dedup_hits, 1);
    }

    #[test]
    fn distinct_paths_get_distinct_allocations() {
        let interner = PathInterner::new();
        let (a, _) = interner.intern(&path(&[1, 2, 3]));
        let (b, fresh) = interner.intern(&path(&[3, 2, 1]));
        assert!(fresh, "reversed content is a different path");
        assert!(!Arc::ptr_eq(&a, &b));
        // Prefix/suffix confusion would be a hash-or-compare bug.
        let (c, fresh) = interner.intern(&path(&[1, 2]));
        assert!(fresh);
        assert_eq!(&*c, &path(&[1, 2])[..]);
    }

    #[test]
    fn dead_paths_are_reinterned_fresh() {
        let interner = PathInterner::new();
        let (a, _) = interner.intern(&path(&[7, 8]));
        assert_eq!(interner.live_paths(), 1);
        drop(a);
        assert_eq!(interner.live_paths(), 0, "weak refs must not keep paths");
        let (_b, fresh) = interner.intern(&path(&[7, 8]));
        assert!(fresh, "a dead path re-interns as a fresh allocation");
        assert_eq!(interner.stats().interned, 2);
    }

    #[test]
    fn colliding_paths_share_a_bucket_but_not_an_allocation() {
        let interner = PathInterner::new();
        FORCED_HASH.with(|h| h.set(Some(42)));
        let (a, fresh_a) = interner.intern(&path(&[1, 2]));
        let (b, fresh_b) = interner.intern(&path(&[3, 4]));
        assert!(fresh_a && fresh_b, "equal hashes, different contents");
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(buckets(&interner), 1);
        let (a2, fresh) = interner.intern(&path(&[1, 2]));
        assert!(!fresh && Arc::ptr_eq(&a, &a2));
        let (b2, fresh) = interner.intern(&path(&[3, 4]));
        assert!(!fresh && Arc::ptr_eq(&b, &b2));
        assert_eq!(
            interner.stats(),
            InternStats {
                interned: 2,
                dedup_hits: 2
            }
        );
        // Once every listed path is dead the bucket holds one inline
        // path again.
        drop((a, a2, b, b2));
        let (_c, fresh) = interner.intern(&path(&[5, 6]));
        assert!(fresh);
        FORCED_HASH.with(|h| h.set(None));
        let shard = interner.shards[42 % INTERN_SHARDS].lock();
        assert!(matches!(shard.get(&42), Some(Bucket::One(_))));
    }

    #[test]
    fn a_dead_inline_slot_is_reused_and_charged_once() {
        let interner = PathInterner::new();
        let (a, _) = interner.intern(&path(&[7, 8, 9]));
        drop(a);
        let (b, fresh) = interner.intern(&path(&[7, 8, 9]));
        assert!(fresh, "a dead inline path re-interns fresh");
        let (c, fresh) = interner.intern(&path(&[7, 8, 9]));
        assert!(!fresh, "and is charged exactly once");
        assert!(Arc::ptr_eq(&b, &c));
        assert_eq!(buckets(&interner), 1, "the slot was overwritten in place");
        assert_eq!(
            interner.stats(),
            InternStats {
                interned: 2,
                dedup_hits: 1
            }
        );
    }

    #[test]
    fn live_paths_counts_inline_and_listed_buckets() {
        let interner = PathInterner::new();
        FORCED_HASH.with(|h| h.set(Some(7)));
        let (a, _) = interner.intern(&path(&[1]));
        let (b, _) = interner.intern(&path(&[2]));
        FORCED_HASH.with(|h| h.set(None));
        let (c, _) = interner.intern(&path(&[3]));
        assert_eq!(buckets(&interner), 2);
        assert_eq!(interner.live_paths(), 3);
        drop(a);
        assert_eq!(interner.live_paths(), 2, "a dead listed path");
        drop(c);
        assert_eq!(interner.live_paths(), 1, "a dead inline path");
        drop(b);
        assert_eq!(interner.live_paths(), 0);
    }

    #[test]
    fn concurrent_interning_yields_one_canonical_arc() {
        let interner = PathInterner::new();
        let arcs: Vec<Arc<[Asn]>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| interner.intern(&path(&[5, 6, 7])).0))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for arc in &arcs[1..] {
            assert!(Arc::ptr_eq(&arcs[0], arc));
        }
        let stats = interner.stats();
        assert_eq!(stats.interned, 1, "exactly one thread may create");
        assert_eq!(stats.dedup_hits, 7);
    }

    #[test]
    fn empty_path_is_internable() {
        let interner = PathInterner::new();
        let (a, fresh) = interner.intern(&[]);
        assert!(fresh);
        assert!(a.is_empty());
        let (_b, fresh) = interner.intern(&[]);
        assert!(!fresh);
    }
}
