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
//! allocation dies and the interner's slot is pruned on its bucket's
//! next visit. Buckets are sharded under independent mutexes so
//! data-parallel pair expansion rarely contends.

use crate::ids::Asn;
use parking_lot::Mutex;
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

/// One hash bucket: the live paths whose content hashed there.
type Bucket = Vec<Weak<[Asn]>>;

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
    /// are pruned from the visited bucket, so the table tracks the
    /// *live* path population, not everything ever interned.
    pub fn intern(&self, path: &[Asn]) -> (Arc<[Asn]>, bool) {
        let hash = hash_path(path);
        let mut shard = self.shards[(hash as usize) % INTERN_SHARDS].lock();
        let bucket = shard.entry(hash).or_default();
        let mut found = None;
        bucket.retain(|weak| match weak.upgrade() {
            Some(arc) => {
                if found.is_none() && *arc == *path {
                    found = Some(arc);
                }
                true
            }
            None => false,
        });
        if let Some(arc) = found {
            self.dedup_hits.fetch_add(1, Ordering::Relaxed);
            return (arc, false);
        }
        let arc: Arc<[Asn]> = Arc::from(path);
        bucket.push(Arc::downgrade(&arc));
        self.interned.fetch_add(1, Ordering::Relaxed);
        (arc, true)
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
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .values()
                    .flat_map(|b| b.iter())
                    .filter(|w| w.strong_count() > 0)
                    .count()
            })
            .sum()
    }
}

/// SplitMix64-style content hash over the path's ASNs. Collisions are
/// handled by per-bucket content comparison, so this only needs to
/// spread.
fn hash_path(path: &[Asn]) -> u64 {
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

    fn path(asns: &[u32]) -> Vec<Asn> {
        asns.iter().copied().map(Asn).collect()
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
