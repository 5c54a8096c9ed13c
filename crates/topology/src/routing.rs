//! Valley-free (Gao–Rexford) BGP route computation.
//!
//! For a destination AS `d`, routes propagate under the standard export
//! rules:
//!
//! 1. Routes learned from a **customer** may be exported to everyone
//!    (providers, peers, customers).
//! 2. Routes learned from a **peer** or **provider** may be exported
//!    *only to customers*.
//!
//! and are selected under the standard preference order:
//! **customer route > peer route > provider route**, then shortest AS
//! path, then lowest next-hop ASN (deterministic tie-break).
//!
//! This yields the classic three-phase computation. All edges are unit
//! weight, so each phase is a *bucket-queue sweep* over flat arrays in
//! the topology's dense [`NodeId`] space rather than a heap-based
//! Dijkstra over hash maps:
//!
//! - **Phase 1 ("up")**: customer routes climb provider links from `d`
//!   — a plain BFS (the single-source, all-unit-weight special case of
//!   a bucket queue: one frontier per distance).
//! - **Phase 2 ("across")**: ASes with customer routes announce to
//!   peers — a single linear sweep over the entry array (peer routes
//!   are never re-exported, so there is no propagation to schedule).
//! - **Phase 3 ("down")**: routes descend customer links — a
//!   multi-source bucket queue: every route holder is seeded into the
//!   bucket of its path length and buckets drain in increasing
//!   distance, giving Dijkstra's visit order in O(V + E + D) without a
//!   heap.
//!
//! Each sweep writes into a dense `Vec<RouteEntry>` indexed by
//! [`NodeId`] and walks the topology's CSR adjacency
//! ([`crate::graph::CsrAdjacency`]), so the hot loop is sequential
//! array traffic instead of per-AS pointer chases. The tie-break is
//! preserved exactly: a node is first reached at its minimal distance
//! (buckets drain in order), and equal-distance offers — all of which
//! arrive while the predecessor bucket drains — keep the lowest
//! next-hop ASN. Tables are therefore bit-identical to the reference
//! heap implementation, which survives as [`oracle`] for the
//! equivalence tests (`tests/routing_equivalence.rs`).
//!
//! The result is a full routing table toward `d`: every AS that can
//! reach `d` has a best (class, length, next-hop) entry, and the
//! AS-level forwarding path is recovered by following next-hops. Path
//! *inflation* — the paper's root cause for TIVs — falls out of this
//! policy: the shortest policy-compliant path is often much longer (in
//! hops and kilometers) than the shortest unrestricted path.
//!
//! [`Router`] adds a thread-safe per-destination cache; the measurement
//! campaign touches a few hundred destination ASes out of thousands, so
//! caching tables per destination is the right granularity.
//! [`Router::precompute`] builds a batch of destination tables
//! data-parallel on the worker pool — the campaign warms every table
//! its plan can touch before round 0 instead of serializing table
//! construction behind the first round's pair cache.
//!
//! Under topology churn the same sweeps run restricted to the edges a
//! [`DeltaView`] allows ([`compute_table_view`],
//! [`compute_table_shortest_view`]). Each router table is stamped with
//! the churn epoch it was built at, and a table whose stamp lags the
//! router's epoch is rebuilt once under the current view when it is
//! next read, so every table stays a pure function of
//! `(topology, policy, view, destination)`.

use crate::delta::{DeltaView, TopologyDelta};
use crate::graph::{NodeIndex, Topology};
use crate::ids::{Asn, NodeId};
use parking_lot::{Mutex, RwLock};
use rayon::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Preference class of a route, ordered best-first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RouteClass {
    /// Learned from a customer (most preferred — it earns money).
    Customer = 0,
    /// Learned from a settlement-free peer.
    Peer = 1,
    /// Learned from a provider (least preferred — it costs money).
    Provider = 2,
}

/// Best route of one AS toward the table's destination.
///
/// Packed to 8 bytes — next-hop ASN plus class and length sharing one
/// `u32` — so a full paper-scale table is a dense array two thirds the
/// size of the naive `(class, u32, Asn)` layout and routing sweeps keep
/// more of the entry array in cache. The `routing::oracle` equivalence
/// proptests compare these packed entries field-for-field against the
/// unpacked reference computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteEntry {
    /// Neighbor the route was learned from (next hop toward the
    /// destination). The destination's own entry points to itself.
    next_hop: Asn,
    /// `class << LEN_BITS | path_len`; `path_len == UNREACHED` marks a
    /// node with no route.
    class_len: u32,
}

/// Bits of `class_len` holding the path length.
const LEN_BITS: u32 = 30;
/// Mask extracting the path length from `class_len`.
const LEN_MASK: u32 = (1 << LEN_BITS) - 1;
/// Sentinel `path_len` marking a node with no route in the dense entry
/// array. Real paths are bounded by the AS count (< 2^30).
const UNREACHED: u32 = LEN_MASK;

// The packing is the point; keep it honest.
const _: () = assert!(std::mem::size_of::<RouteEntry>() == 8);

impl RouteEntry {
    /// A reachable entry.
    pub fn new(class: RouteClass, path_len: u32, next_hop: Asn) -> Self {
        debug_assert!(path_len < UNREACHED, "path length overflows packing");
        RouteEntry {
            next_hop,
            class_len: ((class as u32) << LEN_BITS) | path_len,
        }
    }

    /// The no-route sentinel entry.
    fn unreached(dst: Asn) -> Self {
        RouteEntry {
            next_hop: dst,
            class_len: UNREACHED,
        }
    }

    /// Whether this slot holds no route.
    #[inline]
    fn is_unreached(&self) -> bool {
        self.class_len & LEN_MASK == UNREACHED
    }

    /// Preference class under which the route was learned.
    #[inline]
    pub fn class(&self) -> RouteClass {
        match self.class_len >> LEN_BITS {
            0 => RouteClass::Customer,
            1 => RouteClass::Peer,
            _ => RouteClass::Provider,
        }
    }

    /// AS-path length in hops (destination itself has 0).
    #[inline]
    pub fn path_len(&self) -> u32 {
        self.class_len & LEN_MASK
    }

    /// Neighbor the route was learned from.
    #[inline]
    pub fn next_hop(&self) -> Asn {
        self.next_hop
    }

    /// Replaces the next hop, keeping class and length (equal-cost
    /// tie-break updates in the sweeps).
    #[inline]
    fn set_next_hop(&mut self, next_hop: Asn) {
        self.next_hop = next_hop;
    }
}

/// Routing table toward a single destination AS.
///
/// Backed by a dense `Vec<RouteEntry>` indexed by [`NodeId`] plus the
/// topology's shared ASN ↔ node map, so `route` is one hash lookup +
/// one array read and `as_path` follows precomputed node links without
/// hashing at all.
#[derive(Debug)]
pub struct RoutingTable {
    /// The destination all entries point toward.
    pub destination: Asn,
    /// Shared ASN ↔ NodeId map of the topology the table was computed
    /// over.
    nodes: Arc<NodeIndex>,
    /// Dense entries by NodeId; `path_len == UNREACHED` means no route.
    entries: Vec<RouteEntry>,
    /// Dense next hop by NodeId, as a node (valid where `entries` is).
    next_node: Vec<NodeId>,
    /// The destination's own entry (also covers a destination ASN that
    /// is unknown to the topology, which the map cannot index).
    dst_entry: RouteEntry,
    /// Number of ASes with a route (including the destination).
    reachable: usize,
    /// Churn epoch this table was built at (0 = the base topology).
    /// Stamped by the [`Router`]; a table whose stamp lags the
    /// router's current epoch is rebuilt on its next access.
    epoch: u64,
}

impl RoutingTable {
    /// Best route of `asn` toward the destination, if reachable.
    pub fn route(&self, asn: Asn) -> Option<&RouteEntry> {
        if asn == self.destination {
            return Some(&self.dst_entry);
        }
        self.route_at(self.nodes.node(asn)?)
    }

    /// Best route of the AS at dense id `src`, if reachable — the
    /// hash-free lookup the ping engine uses once hosts carry their
    /// AS's [`NodeId`].
    #[inline]
    pub fn route_at(&self, src: NodeId) -> Option<&RouteEntry> {
        let e = &self.entries[src.index()];
        (!e.is_unreached()).then_some(e)
    }

    /// Number of ASes that can reach the destination (including itself).
    pub fn reachable_count(&self) -> usize {
        self.reachable
    }

    /// Reconstructs the AS path from `src` to the destination
    /// (inclusive on both ends). `None` if unreachable.
    pub fn as_path(&self, src: Asn) -> Option<Vec<Asn>> {
        if src == self.destination {
            return Some(vec![src]);
        }
        self.as_path_from(self.nodes.node(src)?)
    }

    /// Approximate resident size of this table in bytes — the unit the
    /// router's byte budget is accounted in. Covers the two dense
    /// arrays (which dominate at scale) plus the struct header; the
    /// shared `NodeIndex` is owned by the topology and not charged to
    /// any table.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.entries.len() * std::mem::size_of::<RouteEntry>()
            + self.next_node.len() * std::mem::size_of::<NodeId>()
    }

    /// The churn epoch this table reflects (0 = base topology).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// As [`RoutingTable::as_path`], from a dense node id — no ASN
    /// hashing anywhere on the reconstruction path.
    pub fn as_path_from(&self, src: NodeId) -> Option<Vec<Asn>> {
        let mut path = Vec::new();
        self.walk_from(src, &mut path).then_some(path)
    }

    /// Walks the route from `src` to the destination into `path`
    /// (cleared first; inclusive on both ends) and returns whether the
    /// destination is reachable — `false` leaves `path` empty. The
    /// allocation-free form of [`RoutingTable::as_path_from`]: a caller
    /// resolving many sources against one table reuses one buffer.
    pub fn walk_from(&self, src: NodeId, path: &mut Vec<Asn>) -> bool {
        path.clear();
        let entry = &self.entries[src.index()];
        if entry.is_unreached() {
            return false;
        }
        let src_asn = self.nodes.asn(src);
        path.push(src_asn);
        if entry.path_len() == 0 {
            // The destination's own node.
            return true;
        }
        let mut node = src;
        // Bound iterations by the table size to guard against cycles
        // (which would indicate a computation bug).
        for _ in 0..=self.entries.len() {
            node = self.next_node[node.index()];
            let asn = self.nodes.asn(node);
            path.push(asn);
            if asn == self.destination {
                return true;
            }
        }
        panic!("routing loop toward {} from {}", self.destination, src_asn);
    }
}

/// Mutable sweep state: the dense entry and next-node arrays all three
/// phases write into.
struct SweepState {
    entries: Vec<RouteEntry>,
    next_node: Vec<NodeId>,
}

impl SweepState {
    fn new(n: usize, dst: Asn) -> Self {
        SweepState {
            entries: vec![RouteEntry::unreached(dst); n],
            next_node: vec![NodeId(0); n],
        }
    }

    /// Finalizes into a table, counting reachable nodes.
    fn finish(self, topo: &Topology, dst: Asn) -> RoutingTable {
        let dst_entry = RouteEntry::new(RouteClass::Customer, 0, dst);
        let known = topo.node_index().node(dst).is_some();
        let reachable =
            self.entries.iter().filter(|e| !e.is_unreached()).count() + usize::from(!known);
        RoutingTable {
            destination: dst,
            nodes: Arc::clone(topo.node_index()),
            entries: self.entries,
            next_node: self.next_node,
            dst_entry,
            reachable,
            epoch: 0,
        }
    }
}

/// Computes the full valley-free routing table toward `dst`.
pub fn compute_table(topo: &Topology, dst: Asn) -> RoutingTable {
    sweep(topo, dst, |_, _| true)
}

/// Full valley-free sweep toward `dst` restricted to the links `view`
/// allows. An empty view is the base topology and delegates to
/// [`compute_table`] so the churn-free path stays byte-identical. A
/// downed destination keeps its own zero-length entry but offers
/// nothing, so everyone else ends unreached.
pub fn compute_table_view(topo: &Topology, view: &DeltaView, dst: Asn) -> RoutingTable {
    if view.is_empty() {
        return compute_table(topo, dst);
    }
    sweep(topo, dst, |u, v| view.allows(u, v))
}

/// The three-phase valley-free sweep over the base CSR edges `allows`
/// admits. [`compute_table`] admits every edge (the check compiles
/// away); [`compute_table_view`] admits what a [`DeltaView`] leaves
/// up, answering edges no delta names from a dense per-node flag, so a
/// view sweep costs about as much as a base sweep.
fn sweep(topo: &Topology, dst: Asn, allows: impl Fn(NodeId, NodeId) -> bool) -> RoutingTable {
    let nodes = topo.node_index();
    let csr = topo.csr();
    let mut st = SweepState::new(nodes.len(), dst);
    let Some(d) = nodes.node(dst) else {
        // Unknown destination: only the destination itself (handled by
        // `dst_entry`) has a route.
        return st.finish(topo, dst);
    };
    st.entries[d.index()] = RouteEntry::new(RouteClass::Customer, 0, dst);
    st.next_node[d.index()] = d;

    // ---- Phase 1: customer routes climb provider links -----------------
    // Single-source BFS over unit-weight edges u -> provider(u). A
    // node's distance is final the first time it is reached (frontiers
    // drain in increasing distance); equal-distance offers all arrive
    // while the predecessor frontier drains, keeping the minimum
    // next-hop ASN.
    let mut frontier = vec![d];
    let mut next_frontier: Vec<NodeId> = Vec::new();
    let mut len = 1u32;
    while !frontier.is_empty() {
        for &u in &frontier {
            let u_asn = nodes.asn(u);
            for &p in csr.providers(u) {
                if !allows(u, p) {
                    continue;
                }
                let e = &mut st.entries[p.index()];
                if e.is_unreached() {
                    *e = RouteEntry::new(RouteClass::Customer, len, u_asn);
                    st.next_node[p.index()] = u;
                    next_frontier.push(p);
                } else if e.path_len() == len && u_asn < e.next_hop() {
                    e.set_next_hop(u_asn);
                    st.next_node[p.index()] = u;
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next_frontier);
        next_frontier.clear();
        len += 1;
    }

    // ---- Phase 2: one peer hop ------------------------------------------
    // Every AS holding a customer route announces it to its peers. A
    // peer route is never re-exported to peers/providers, so this is a
    // single sweep, not a propagation — and since customer entries are
    // never displaced by peer offers, the holder set is fixed and the
    // sweep can run in place, in node order (the per-peer minimum is
    // order-independent).
    for i in 0..st.entries.len() {
        let e = st.entries[i];
        if e.is_unreached() || e.class() != RouteClass::Customer {
            continue;
        }
        let u = NodeId(i as u32);
        let u_asn = nodes.asn(u);
        let cand_len = e.path_len() + 1;
        for &p in csr.peers(u) {
            if !allows(u, p) {
                continue;
            }
            let pe = &mut st.entries[p.index()];
            let accept = pe.is_unreached()
                || (pe.class() == RouteClass::Peer
                    && (cand_len, u_asn) < (pe.path_len(), pe.next_hop()));
            if accept {
                *pe = RouteEntry::new(RouteClass::Peer, cand_len, u_asn);
                st.next_node[p.index()] = u;
            }
        }
    }

    // ---- Phase 3: routes descend customer links -------------------------
    // Any route (customer, peer, provider) may be exported to
    // customers; provider routes keep descending. Seeds sit at
    // heterogeneous path lengths, so this is the genuine bucket queue:
    // one bucket per distance, drained in increasing order, which
    // reproduces Dijkstra's visit order over unit-weight edges.
    let mut buckets: Vec<Vec<NodeId>> = Vec::new();
    for (i, e) in st.entries.iter().enumerate() {
        if !e.is_unreached() {
            let d = e.path_len() as usize;
            if buckets.len() <= d {
                buckets.resize_with(d + 1, Vec::new);
            }
            buckets[d].push(NodeId(i as u32));
        }
    }
    let mut dist = 0usize;
    while dist < buckets.len() {
        let bucket = std::mem::take(&mut buckets[dist]);
        let len = dist as u32 + 1;
        for &u in &bucket {
            let u_asn = nodes.asn(u);
            for &cust in csr.customers(u) {
                if !allows(u, cust) {
                    continue;
                }
                let ce = &mut st.entries[cust.index()];
                if ce.is_unreached() {
                    *ce = RouteEntry::new(RouteClass::Provider, len, u_asn);
                    st.next_node[cust.index()] = u;
                    if buckets.len() <= len as usize {
                        buckets.resize_with(len as usize + 1, Vec::new);
                    }
                    buckets[len as usize].push(cust);
                } else if ce.class() == RouteClass::Provider
                    && ce.path_len() == len
                    && u_asn < ce.next_hop()
                {
                    ce.set_next_hop(u_asn);
                    st.next_node[cust.index()] = u;
                }
            }
        }
        dist += 1;
    }

    st.finish(topo, dst)
}

/// Shortest-path (policy-free) table toward `dst`, used by the
/// `ablation_routing` experiment: identical output shape but ignores
/// business relationships. Comparing against this isolates how much of
/// the relay gain is produced by *policy* inflation.
pub fn compute_table_shortest(topo: &Topology, dst: Asn) -> RoutingTable {
    sweep_shortest(topo, dst, |_, _| true)
}

/// View-restricted shortest-path sweep (the ablation policy).
pub fn compute_table_shortest_view(topo: &Topology, view: &DeltaView, dst: Asn) -> RoutingTable {
    if view.is_empty() {
        return compute_table_shortest(topo, dst);
    }
    sweep_shortest(topo, dst, |u, v| view.allows(u, v))
}

/// One BFS over the base CSR edges `allows` admits, of every class —
/// the shortest-path counterpart of [`sweep`].
fn sweep_shortest(
    topo: &Topology,
    dst: Asn,
    allows: impl Fn(NodeId, NodeId) -> bool,
) -> RoutingTable {
    let nodes = topo.node_index();
    let csr = topo.csr();
    let mut st = SweepState::new(nodes.len(), dst);
    let Some(d) = nodes.node(dst) else {
        return st.finish(topo, dst);
    };
    st.entries[d.index()] = RouteEntry::new(RouteClass::Customer, 0, dst);
    st.next_node[d.index()] = d;

    // One BFS over all three edge classes at once.
    let mut frontier = vec![d];
    let mut next_frontier: Vec<NodeId> = Vec::new();
    let mut len = 1u32;
    while !frontier.is_empty() {
        for &u in &frontier {
            let u_asn = nodes.asn(u);
            for &nb in csr
                .providers(u)
                .iter()
                .chain(csr.customers(u))
                .chain(csr.peers(u))
            {
                if !allows(u, nb) {
                    continue;
                }
                let e = &mut st.entries[nb.index()];
                if e.is_unreached() {
                    *e = RouteEntry::new(RouteClass::Customer, len, u_asn);
                    st.next_node[nb.index()] = u;
                    next_frontier.push(nb);
                } else if e.path_len() == len && u_asn < e.next_hop() {
                    e.set_next_hop(u_asn);
                    st.next_node[nb.index()] = u;
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next_frontier);
        next_frontier.clear();
        len += 1;
    }

    st.finish(topo, dst)
}

/// Routing mode selector for [`Router`]. `Hash` because service-style
/// front ends key cached engine stacks by `(world seed, policy)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoutingPolicy {
    /// Gao–Rexford valley-free routing (the real Internet's behavior).
    #[default]
    ValleyFree,
    /// Unrestricted shortest-path routing (ablation baseline).
    ShortestPath,
}

impl RoutingPolicy {
    /// Stable textual name, used by CLIs and the service protocol.
    pub fn label(self) -> &'static str {
        match self {
            RoutingPolicy::ValleyFree => "valley-free",
            RoutingPolicy::ShortestPath => "shortest-path",
        }
    }

    /// Parses a [`RoutingPolicy::label`] back into a policy.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "valley-free" => Some(RoutingPolicy::ValleyFree),
            "shortest-path" => Some(RoutingPolicy::ShortestPath),
            _ => None,
        }
    }
}

/// Approximate resident size of one destination table over a topology
/// with `n_nodes` dense nodes — what [`RoutingTable::approx_bytes`]
/// will report before any table exists. The CLI uses this to reject a
/// `--memory-budget` that cannot hold even a single table instead of
/// letting the cache thrash silently.
pub fn table_approx_bytes(n_nodes: usize) -> u64 {
    (std::mem::size_of::<RoutingTable>()
        + n_nodes * (std::mem::size_of::<RouteEntry>() + std::mem::size_of::<NodeId>())) as u64
}

/// One dense cache slot: the table plus its CLOCK bookkeeping.
struct TableSlot {
    table: RwLock<Option<Arc<RoutingTable>>>,
    /// CLOCK reference bit — set on every hit and install, cleared
    /// (one second chance) when the eviction hand passes.
    referenced: AtomicBool,
    /// Whether this slot has *ever* held a table: a miss on such a
    /// slot is a recompute (the price of an earlier eviction), not a
    /// cold-start miss.
    ever_resident: AtomicBool,
}

impl TableSlot {
    fn empty() -> Self {
        TableSlot {
            table: RwLock::new(None),
            referenced: AtomicBool::new(false),
            ever_resident: AtomicBool::new(false),
        }
    }
}

/// Point-in-time cache health of a [`Router`] (all counters are
/// monotonic; the gauges are current residency).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouterStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compute a table: cold, evicted or stale.
    pub misses: u64,
    /// Tables dropped by the budget enforcer.
    pub evictions: u64,
    /// Misses on destinations that were evicted since they were last
    /// resident — the recomputation work the byte budget traded for
    /// memory.
    pub recomputes: u64,
    /// Destination tables currently resident.
    pub tables_resident: u64,
    /// Approximate bytes of resident tables.
    pub resident_bytes: u64,
    /// The enforced byte budget, `None` when unbounded.
    pub budget_bytes: Option<u64>,
    /// Stale tables rebuilt under the current view.
    pub full_rebuilds: u64,
}

/// Thread-safe, per-destination-cached route computation over a
/// topology.
///
/// The router co-owns its topology behind an `Arc`, so campaigns, the
/// sweep scheduler and worker threads can all hold the same router
/// without borrowing anything — the ownership shape cross-campaign
/// sweeps need (many campaigns, one table cache).
///
/// The cache itself is **dense**: one slot per [`NodeId`], so a lookup
/// for an in-topology destination is an array index plus one `RwLock`
/// read — no hashing — and construction races are confined to the
/// single destination being built. Tables toward destinations outside
/// the topology (degenerate single-entry tables; tests) are computed
/// on every lookup and never cached.
///
/// ## Byte budget
///
/// With [`Router::with_budget`], resident tables are byte-accounted
/// (via [`RoutingTable::approx_bytes`]) and bounded by CLOCK
/// (second-chance) eviction: when an install pushes residency over
/// budget, a clock hand sweeps the dense slots, clearing reference
/// bits and dropping the first unreferenced table it finds, until
/// residency fits again. Because every table is a pure function of
/// `(topology, policy, view, destination)`, an evicted table is
/// recomputed bit-identically on the next miss — budgets change
/// *residency*, never results. Readers holding an `Arc` to an evicted
/// table are unaffected; the memory is freed when the last reader
/// drops it.
///
/// ## Churn
///
/// [`Router::apply_delta`] folds a delta batch into the one current
/// [`DeltaView`] and advances the epoch. A resident table stamped
/// with an older epoch is a miss on its next read: it is rebuilt once
/// under the current view and replaces the stale one in its slot.
pub struct Router {
    topo: Arc<Topology>,
    policy: RoutingPolicy,
    /// Dense per-destination cache, indexed by the destination's
    /// [`NodeId`].
    slots: Vec<TableSlot>,
    /// Byte allowance for the dense cache; `None` = never evict.
    budget: Option<u64>,
    resident_bytes: AtomicU64,
    resident_tables: AtomicU64,
    /// CLOCK hand over `slots` (persisted across sweeps so second
    /// chances mean something).
    hand: AtomicUsize,
    /// Serializes eviction sweeps; lookups and installs never wait on
    /// this.
    evict_gate: Mutex<()>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    recomputes: AtomicU64,
    /// Current churn epoch (number of delta batches applied); 0 means
    /// no churn ever. Read without a lock on every lookup as the
    /// staleness check, and stored only under `view`'s write lock, so
    /// a reader holding `view` sees the epoch that view belongs to.
    epoch: AtomicU64,
    /// The accumulated view after every batch applied so far (empty
    /// before the first). Write-locked only by [`Router::apply_delta`].
    view: RwLock<DeltaView>,
    full_rebuilds: AtomicU64,
}

impl Router {
    /// Creates a router with valley-free policy.
    pub fn new(topo: Arc<Topology>) -> Self {
        Self::with_policy(topo, RoutingPolicy::ValleyFree)
    }

    /// Creates a router with an explicit policy (ablations use
    /// [`RoutingPolicy::ShortestPath`]).
    pub fn with_policy(topo: Arc<Topology>, policy: RoutingPolicy) -> Self {
        Self::with_budget(topo, policy, None)
    }

    /// Creates a router whose resident tables are bounded by
    /// `budget_bytes` (typically a [`crate::MemoryBudget`]'s router
    /// share). `None` keeps the grow-forever behaviour.
    pub fn with_budget(
        topo: Arc<Topology>,
        policy: RoutingPolicy,
        budget_bytes: Option<u64>,
    ) -> Self {
        let n = topo.node_index().len();
        Router {
            topo,
            policy,
            slots: (0..n).map(|_| TableSlot::empty()).collect(),
            budget: budget_bytes,
            resident_bytes: AtomicU64::new(0),
            resident_tables: AtomicU64::new(0),
            hand: AtomicUsize::new(0),
            evict_gate: Mutex::new(()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            recomputes: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            view: RwLock::new(DeltaView::empty()),
            full_rebuilds: AtomicU64::new(0),
        }
    }

    /// The topology this router operates on.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The routing policy tables are computed under.
    pub fn policy(&self) -> RoutingPolicy {
        self.policy
    }

    /// The enforced byte budget (`None` when unbounded).
    pub fn budget_bytes(&self) -> Option<u64> {
        self.budget
    }

    /// Snapshot of the cache counters and residency gauges.
    pub fn stats(&self) -> RouterStats {
        RouterStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            recomputes: self.recomputes.load(Ordering::Relaxed),
            tables_resident: self.resident_tables.load(Ordering::Relaxed),
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed),
            budget_bytes: self.budget,
            full_rebuilds: self.full_rebuilds.load(Ordering::Relaxed),
        }
    }

    /// Applies one churn batch to the current view and advances the
    /// epoch. Cached tables are **not** touched here — each stale
    /// table is rebuilt lazily on its next access (see
    /// [`Router::table_at`]), so a batch is O(batch + nodes) however
    /// many tables are resident.
    ///
    /// Churn mutates the router's routing state permanently; engines
    /// shared across unrelated runs (service pools) must not see this
    /// — churn requests get a private engine stack.
    pub fn apply_delta(&self, batch: &[TopologyDelta]) {
        let mut view = self.view.write();
        view.apply(&self.topo, batch);
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// The current churn epoch (number of batches applied so far).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The accumulated [`DeltaView`] at the current epoch (a clone;
    /// views are small — the delta footprint, not the graph).
    pub fn current_view(&self) -> DeltaView {
        self.view.read().clone()
    }

    /// Computes a fresh table for `dst` under the current view, by
    /// this router's policy, stamped with the view's epoch.
    fn compute(&self, dst: Asn) -> RoutingTable {
        let view = self.view.read();
        let table = match self.policy {
            RoutingPolicy::ValleyFree => compute_table_view(&self.topo, &view, dst),
            RoutingPolicy::ShortestPath => compute_table_shortest_view(&self.topo, &view, dst),
        };
        RoutingTable {
            epoch: self.epoch(),
            ..table
        }
    }

    /// Stores `table` in its dense slot unless a racing thread beat us
    /// to it with a table at least as current (first writer wins; the
    /// loser's copy is dropped). A stale table is replaced in place:
    /// every table over one topology has the same size, so residency
    /// is unchanged. Returns the table that ended up cached.
    fn install(&self, dst: NodeId, table: Arc<RoutingTable>) -> Arc<RoutingTable> {
        let slot = &self.slots[dst.index()];
        let mut guard = slot.table.write();
        slot.referenced.store(true, Ordering::Relaxed);
        match guard.as_ref() {
            Some(t) if t.epoch >= table.epoch => return Arc::clone(t),
            Some(_) => {}
            None => {
                slot.ever_resident.store(true, Ordering::Relaxed);
                self.resident_tables.fetch_add(1, Ordering::Relaxed);
                self.resident_bytes
                    .fetch_add(table.approx_bytes() as u64, Ordering::Relaxed);
            }
        }
        *guard = Some(Arc::clone(&table));
        table
    }

    /// CLOCK sweep: while residency exceeds the budget, advance the
    /// hand over the dense slots, clearing reference bits (the second
    /// chance) and evicting unreferenced tables. `keep` — the slot the
    /// caller is about to return — is never evicted, so a lookup can
    /// not thrash against its own result. Two full revolutions bound
    /// the sweep even when the budget is unsatisfiable (e.g. `keep`
    /// alone exceeds it).
    fn enforce_budget(&self, keep: NodeId) {
        let Some(budget) = self.budget else {
            return;
        };
        if self.resident_bytes.load(Ordering::Relaxed) <= budget {
            return;
        }
        let _gate = self.evict_gate.lock();
        let n = self.slots.len();
        if n == 0 {
            return;
        }
        let mut hand = self.hand.load(Ordering::Relaxed) % n;
        let mut scanned = 0usize;
        while self.resident_bytes.load(Ordering::Relaxed) > budget && scanned < 2 * n {
            let i = hand;
            hand = (hand + 1) % n;
            scanned += 1;
            if i == keep.index() {
                continue;
            }
            let slot = &self.slots[i];
            if slot.table.read().is_none() {
                continue;
            }
            if slot.referenced.swap(false, Ordering::Relaxed) {
                continue; // second chance
            }
            let evicted = slot.table.write().take();
            if let Some(t) = evicted {
                self.resident_bytes
                    .fetch_sub(t.approx_bytes() as u64, Ordering::Relaxed);
                self.resident_tables.fetch_sub(1, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.hand.store(hand, Ordering::Relaxed);
    }

    /// Routing table toward the destination at dense id `dst`,
    /// computed once and cached — an array slot away, no hashing.
    /// Under a byte budget the table may have been evicted since it
    /// was last seen; it is then recomputed here, bit-identical. Under
    /// churn, a resident table stamped with an older epoch is a miss
    /// too: it is rebuilt under the current view (one
    /// [`shortcuts_telemetry::Stage::Repair`] span, one
    /// [`RouterStats::full_rebuilds`]) and replaces the stale one. An
    /// *evicted* stale table simply misses and is rebuilt the same way
    /// — staleness composes with eviction for free.
    pub fn table_at(&self, dst: NodeId) -> Arc<RoutingTable> {
        let slot = &self.slots[dst.index()];
        let stale = match slot.table.read().as_ref() {
            Some(t) if t.epoch == self.epoch() => {
                slot.referenced.store(true, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(t);
            }
            resident => resident.is_some(),
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Compute outside the lock (racing threads may duplicate the
        // work, but tables are identical and the loser's copy is
        // simply dropped — readers of other destinations never block
        // behind a construction).
        let span =
            stale.then(|| shortcuts_telemetry::global().span(shortcuts_telemetry::Stage::Repair));
        if stale {
            self.full_rebuilds.fetch_add(1, Ordering::Relaxed);
        } else if slot.ever_resident.load(Ordering::Relaxed) {
            self.recomputes.fetch_add(1, Ordering::Relaxed);
        }
        let table = Arc::new(self.compute(self.topo.node_index().asn(dst)));
        drop(span);
        let table = self.install(dst, table);
        self.enforce_budget(dst);
        table
    }

    /// Routing table toward `dst`, computed once and cached. A
    /// destination the topology does not know gets its degenerate
    /// table computed afresh, uncached.
    pub fn table(&self, dst: Asn) -> Arc<RoutingTable> {
        match self.topo.node_index().node(dst) {
            Some(node) => self.table_at(node),
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Arc::new(self.compute(dst))
            }
        }
    }

    /// Computes and caches the tables of every destination in `dsts`
    /// data-parallel on the worker pool (duplicates, already-cached
    /// destinations and destinations outside the topology are
    /// skipped).
    ///
    /// A campaign calls this with every destination its plan can route
    /// toward before the first round; a sweep calls it once with the
    /// **union** of all its campaigns' destinations, so cold-start
    /// table construction happens exactly once however many campaigns
    /// share the router.
    ///
    /// Under a byte budget, `dsts` order is treated as priority order
    /// (callers put the hottest destinations first — see
    /// `plan::warmup_destinations`): warming proceeds front-to-back in
    /// parallel chunks and **stops at the budget** rather than warming
    /// and immediately evicting. Whatever stays cold is recomputed on
    /// first miss.
    pub fn precompute(&self, dsts: &[Asn]) {
        let nodes = self.topo.node_index();
        let todo: Vec<NodeId> = {
            let mut seen = HashSet::new();
            dsts.iter()
                .filter_map(|&d| nodes.node(d))
                .filter(|&node| {
                    self.slots[node.index()].table.read().is_none() && seen.insert(node)
                })
                .collect()
        };
        if todo.is_empty() {
            return;
        }
        // Budgeted warming computes in bounded chunks so a huge
        // destination list cannot transiently materialize far more
        // than the budget before the stop check runs.
        let chunk = match self.budget {
            None => todo.len(),
            Some(_) => 64,
        };
        'warm: for part in todo.chunks(chunk) {
            let tables: Vec<(NodeId, Arc<RoutingTable>)> = part
                .par_iter()
                .map(|&node| (node, Arc::new(self.compute(nodes.asn(node)))))
                .collect();
            for (node, t) in tables {
                if let Some(budget) = self.budget {
                    let next =
                        self.resident_bytes.load(Ordering::Relaxed) + t.approx_bytes() as u64;
                    if next > budget {
                        break 'warm;
                    }
                }
                self.install(node, t);
            }
        }
    }

    /// AS path from `src` to `dst`, or `None` if unreachable.
    pub fn as_path(&self, src: Asn, dst: Asn) -> Option<Vec<Asn>> {
        self.table(dst).as_path(src)
    }

    /// AS path between dense node ids — the ping engine's hot lookup:
    /// hosts carry their AS's [`NodeId`], so resolving a pair's route
    /// does no ASN hashing at all.
    pub fn as_path_between(&self, src: NodeId, dst: NodeId) -> Option<Vec<Asn>> {
        self.table_at(dst).as_path_from(src)
    }

    /// Number of cached destination tables (diagnostics).
    pub fn cached_tables(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.table.read().is_some())
            .count()
    }
}

pub mod oracle {
    //! Reference heap-based route computation (the pre-CSR
    //! implementation), kept verbatim as the correctness oracle.
    //!
    //! The equivalence tests assert the flat bucket-queue sweeps in the
    //! parent module produce entry-for-entry identical tables. Not for
    //! production use — [`super::compute_table`] is strictly faster
    //! and returns the same routes.

    use super::{better, Candidate, RouteClass, RouteEntry};
    use crate::graph::Topology;
    use crate::ids::Asn;
    use std::collections::{BinaryHeap, HashMap};

    /// Valley-free table toward `dst` as a sparse map (reachable ASes
    /// only), via heap-based Dijkstra phases over `Topology::adjacency`.
    pub fn compute_table(topo: &Topology, dst: Asn) -> HashMap<Asn, RouteEntry> {
        let mut routes: HashMap<Asn, RouteEntry> = HashMap::new();
        routes.insert(dst, RouteEntry::new(RouteClass::Customer, 0, dst));

        // ---- Phase 1: customer routes climb provider links -------------
        // Dijkstra over unit-weight edges u -> provider(u). An AS's
        // customer route may always be re-exported upward.
        let mut heap: BinaryHeap<Candidate> = BinaryHeap::new();
        heap.push(Candidate {
            path_len: 0,
            owner: dst,
            next_hop: dst,
        });
        while let Some(c) = heap.pop() {
            // Skip stale heap entries.
            match routes.get(&c.owner) {
                Some(e) if e.path_len() == c.path_len && e.next_hop() == c.next_hop => {}
                _ => continue,
            }
            for &p in &topo.adjacency(c.owner).providers {
                let len = c.path_len + 1;
                let accept = match routes.get(&p) {
                    None => true,
                    Some(e) => e.class() == RouteClass::Customer && better(len, c.owner, e),
                };
                if accept {
                    routes.insert(p, RouteEntry::new(RouteClass::Customer, len, c.owner));
                    heap.push(Candidate {
                        path_len: len,
                        owner: p,
                        next_hop: c.owner,
                    });
                }
            }
        }

        // ---- Phase 2: one peer hop --------------------------------------
        // Every AS holding a customer route announces it to its peers.
        // Collect candidates first to keep the result independent of
        // map iteration order.
        let holders: Vec<(Asn, u32)> = {
            let mut v: Vec<_> = routes
                .iter()
                .filter(|(_, e)| e.class() == RouteClass::Customer)
                .map(|(&a, e)| (a, e.path_len()))
                .collect();
            v.sort();
            v
        };
        for (owner, len) in holders {
            for &p in &topo.adjacency(owner).peers {
                let cand_len = len + 1;
                let accept = match routes.get(&p) {
                    None => true,
                    Some(e) => match e.class() {
                        RouteClass::Customer => false,
                        RouteClass::Peer => better(cand_len, owner, e),
                        RouteClass::Provider => true, // can't exist yet, but harmless
                    },
                };
                if accept {
                    routes.insert(p, RouteEntry::new(RouteClass::Peer, cand_len, owner));
                }
            }
        }

        // ---- Phase 3: routes descend customer links ---------------------
        // Dijkstra downward from every route holder.
        let mut heap: BinaryHeap<Candidate> = BinaryHeap::new();
        let mut seeds: Vec<(Asn, u32)> = routes.iter().map(|(&a, e)| (a, e.path_len())).collect();
        seeds.sort();
        for (owner, len) in seeds {
            heap.push(Candidate {
                path_len: len,
                owner,
                next_hop: owner, // marker; not used for seeds
            });
        }
        while let Some(c) = heap.pop() {
            match routes.get(&c.owner) {
                Some(e) if e.path_len() == c.path_len => {}
                _ => continue,
            }
            for &cust in &topo.adjacency(c.owner).customers {
                let len = c.path_len + 1;
                let accept = match routes.get(&cust) {
                    None => true,
                    Some(e) => match e.class() {
                        RouteClass::Customer | RouteClass::Peer => false,
                        RouteClass::Provider => better(len, c.owner, e),
                    },
                };
                if accept {
                    routes.insert(cust, RouteEntry::new(RouteClass::Provider, len, c.owner));
                    heap.push(Candidate {
                        path_len: len,
                        owner: cust,
                        next_hop: c.owner,
                    });
                }
            }
        }

        routes
    }

    /// Shortest-path (policy-free) table toward `dst` as a sparse map,
    /// via heap-based Dijkstra over all links.
    pub fn compute_table_shortest(topo: &Topology, dst: Asn) -> HashMap<Asn, RouteEntry> {
        let mut routes: HashMap<Asn, RouteEntry> = HashMap::new();
        routes.insert(dst, RouteEntry::new(RouteClass::Customer, 0, dst));
        let mut heap: BinaryHeap<Candidate> = BinaryHeap::new();
        heap.push(Candidate {
            path_len: 0,
            owner: dst,
            next_hop: dst,
        });
        while let Some(c) = heap.pop() {
            match routes.get(&c.owner) {
                Some(e) if e.path_len() == c.path_len && e.next_hop() == c.next_hop => {}
                _ => continue,
            }
            let adj = topo.adjacency(c.owner);
            for &n in adj
                .providers
                .iter()
                .chain(adj.customers.iter())
                .chain(adj.peers.iter())
            {
                let len = c.path_len + 1;
                let accept = match routes.get(&n) {
                    None => true,
                    Some(e) => better(len, c.owner, e),
                };
                if accept {
                    routes.insert(n, RouteEntry::new(RouteClass::Customer, len, c.owner));
                    heap.push(Candidate {
                        path_len: len,
                        owner: n,
                        next_hop: c.owner,
                    });
                }
            }
        }
        routes
    }
}

/// Candidate route offer used by the [`oracle`] heap phases: ordered so
/// that the *best* candidate (smallest length, then smallest next-hop
/// ASN, then smallest owner ASN) pops first from a max-heap via
/// reversed ordering.
#[derive(Debug, PartialEq, Eq)]
struct Candidate {
    path_len: u32,
    owner: Asn,
    next_hop: Asn,
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; reverse for min-heap behavior.
        (other.path_len, other.next_hop, other.owner).cmp(&(
            self.path_len,
            self.next_hop,
            self.owner,
        ))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Whether `candidate` (class implied equal) beats `incumbent`.
fn better(len: u32, next_hop: Asn, incumbent: &RouteEntry) -> bool {
    (len, next_hop) < (incumbent.path_len(), incumbent.next_hop())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asys::{AsInfo, AsType};
    use crate::graph::TopologyBuilder;
    use shortcuts_geo::CountryCode;

    fn mk_as(b: &mut TopologyBuilder, asn: u32, t: AsType) {
        b.add_as(AsInfo {
            asn: Asn(asn),
            as_type: t,
            home_country: CountryCode::new("US").unwrap(),
            countries: vec![],
            pops: vec![],
            prefixes: vec![],
            user_share: 0.0,
            offers_cloud: false,
        });
    }

    /// Classic valley topology:
    ///
    /// ```text
    ///        1 (tier1)     2 (tier1)   (1 -- 2 peer)
    ///        |             |
    ///        3 (tier2)     4 (tier2)   (3 -- 4 peer)
    ///        |             |
    ///        5 (stub)      6 (stub)
    /// ```
    fn valley_topology() -> Topology {
        let mut b = Topology::builder();
        mk_as(&mut b, 1, AsType::Tier1);
        mk_as(&mut b, 2, AsType::Tier1);
        mk_as(&mut b, 3, AsType::Tier2);
        mk_as(&mut b, 4, AsType::Tier2);
        mk_as(&mut b, 5, AsType::Eyeball);
        mk_as(&mut b, 6, AsType::Eyeball);
        b.add_transit(Asn(3), Asn(1));
        b.add_transit(Asn(4), Asn(2));
        b.add_transit(Asn(5), Asn(3));
        b.add_transit(Asn(6), Asn(4));
        b.add_peering(Asn(1), Asn(2));
        b.add_peering(Asn(3), Asn(4));
        b.build()
    }

    #[test]
    fn stub_to_stub_uses_peer_shortcut() {
        let t = valley_topology();
        let table = compute_table(&t, Asn(6));
        // 5 -> 3 -> 4 -> 6 (via the 3--4 peering), not via the tier-1s.
        assert_eq!(
            table.as_path(Asn(5)).unwrap(),
            vec![Asn(5), Asn(3), Asn(4), Asn(6)]
        );
    }

    #[test]
    fn no_valley_through_customer() {
        // Without the 3--4 peering, traffic must go over the tier-1 peering;
        // it must NOT route 1 -> 3 -> 4 (provider using a customer as
        // transit to reach a non-customer).
        let mut b = Topology::builder();
        mk_as(&mut b, 1, AsType::Tier1);
        mk_as(&mut b, 2, AsType::Tier1);
        mk_as(&mut b, 3, AsType::Tier2);
        mk_as(&mut b, 4, AsType::Tier2);
        mk_as(&mut b, 5, AsType::Eyeball);
        mk_as(&mut b, 6, AsType::Eyeball);
        b.add_transit(Asn(3), Asn(1));
        b.add_transit(Asn(4), Asn(2));
        b.add_transit(Asn(5), Asn(3));
        b.add_transit(Asn(6), Asn(4));
        b.add_peering(Asn(1), Asn(2));
        // extra "tempting" link: 3 is ALSO a customer of 2.
        b.add_transit(Asn(3), Asn(2));
        let t = b.build();
        let table = compute_table(&t, Asn(6));
        let path = table.as_path(Asn(5)).unwrap();
        assert_eq!(path, vec![Asn(5), Asn(3), Asn(2), Asn(4), Asn(6)]);
        assert_valley_free(&t, &path);
    }

    #[test]
    fn prefers_customer_route_even_if_longer() {
        // Destination 10 is reachable from 1 either via a direct peer link
        // (length 1) or via a chain of customers (length 2). Gao-Rexford
        // prefers the customer route despite being longer.
        let mut b = Topology::builder();
        mk_as(&mut b, 1, AsType::Tier1);
        mk_as(&mut b, 2, AsType::Tier2);
        mk_as(&mut b, 10, AsType::Eyeball);
        b.add_transit(Asn(2), Asn(1)); // 2 customer of 1
        b.add_transit(Asn(10), Asn(2)); // 10 customer of 2
        b.add_peering(Asn(1), Asn(10)); // direct peering 1 -- 10
        let t = b.build();
        let table = compute_table(&t, Asn(10));
        let entry = table.route(Asn(1)).unwrap();
        assert_eq!(entry.class(), RouteClass::Customer);
        assert_eq!(entry.path_len(), 2);
        assert_eq!(
            table.as_path(Asn(1)).unwrap(),
            vec![Asn(1), Asn(2), Asn(10)]
        );
    }

    #[test]
    fn unreachable_without_any_link() {
        let mut b = Topology::builder();
        mk_as(&mut b, 1, AsType::Eyeball);
        mk_as(&mut b, 2, AsType::Eyeball);
        let t = b.build();
        let table = compute_table(&t, Asn(2));
        assert!(table.as_path(Asn(1)).is_none());
        assert_eq!(table.reachable_count(), 1);
    }

    #[test]
    fn walk_from_reuses_the_callers_buffer() {
        let t = valley_topology();
        let table = compute_table(&t, Asn(5));
        let node = |asn| t.node_index().node(Asn(asn)).unwrap();
        // One buffer across sources: each walk clears what the last
        // left, and agrees with the allocating wrapper.
        let mut buf = vec![Asn(77); 9];
        for info in t.ases() {
            let src = t.node_index().node(info.asn).unwrap();
            assert!(table.walk_from(src, &mut buf), "{} unreached", info.asn);
            assert_eq!(Some(buf.clone()), table.as_path_from(src));
        }
        assert!(table.walk_from(node(5), &mut buf));
        assert_eq!(buf, vec![Asn(5)]);

        // Unreached: `false`, and nothing stale left behind.
        let mut b = Topology::builder();
        mk_as(&mut b, 1, AsType::Eyeball);
        mk_as(&mut b, 2, AsType::Eyeball);
        let lonely = b.build();
        let table = compute_table(&lonely, Asn(2));
        let src = lonely.node_index().node(Asn(1)).unwrap();
        assert!(!table.walk_from(src, &mut buf));
        assert!(buf.is_empty());
    }

    #[test]
    fn destination_reaches_itself_with_empty_path() {
        let t = valley_topology();
        let table = compute_table(&t, Asn(5));
        assert_eq!(table.as_path(Asn(5)).unwrap(), vec![Asn(5)]);
        assert_eq!(table.route(Asn(5)).unwrap().path_len(), 0);
    }

    #[test]
    fn unknown_destination_reaches_only_itself() {
        let t = valley_topology();
        let table = compute_table(&t, Asn(99));
        assert_eq!(table.reachable_count(), 1);
        assert_eq!(table.as_path(Asn(99)).unwrap(), vec![Asn(99)]);
        assert!(table.as_path(Asn(5)).is_none());
        assert!(table.route(Asn(5)).is_none());
        assert_eq!(table.route(Asn(99)).unwrap().path_len(), 0);
    }

    #[test]
    fn peer_route_not_reexported_to_peer() {
        // 1 -- 2 peer, 2 -- 3 peer. 1's route must not reach 3 across two
        // peering hops (no customer in between).
        let mut b = Topology::builder();
        mk_as(&mut b, 1, AsType::Tier2);
        mk_as(&mut b, 2, AsType::Tier2);
        mk_as(&mut b, 3, AsType::Tier2);
        b.add_peering(Asn(1), Asn(2));
        b.add_peering(Asn(2), Asn(3));
        let t = b.build();
        let table = compute_table(&t, Asn(1));
        assert!(table.route(Asn(2)).is_some());
        assert!(table.route(Asn(3)).is_none(), "valley across two peer hops");
    }

    #[test]
    fn provider_route_descends_multiple_levels() {
        // dst 1 (tier1) -> customer chain 1 <- 2 <- 3 <- 4; all of 2,3,4
        // reach 1 via provider routes.
        let mut b = Topology::builder();
        mk_as(&mut b, 1, AsType::Tier1);
        mk_as(&mut b, 2, AsType::Tier2);
        mk_as(&mut b, 3, AsType::Eyeball);
        mk_as(&mut b, 4, AsType::Enterprise);
        b.add_transit(Asn(2), Asn(1));
        b.add_transit(Asn(3), Asn(2));
        b.add_transit(Asn(4), Asn(3));
        let t = b.build();
        let table = compute_table(&t, Asn(1));
        assert_eq!(table.route(Asn(4)).unwrap().class(), RouteClass::Provider);
        assert_eq!(
            table.as_path(Asn(4)).unwrap(),
            vec![Asn(4), Asn(3), Asn(2), Asn(1)]
        );
    }

    #[test]
    fn deterministic_tie_break_lowest_next_hop() {
        // dst 10 has two providers 2 and 3, both customers of 1. Path from
        // 1 to 10 can go via 2 or 3 at equal length; must pick AS2.
        let mut b = Topology::builder();
        mk_as(&mut b, 1, AsType::Tier1);
        mk_as(&mut b, 2, AsType::Tier2);
        mk_as(&mut b, 3, AsType::Tier2);
        mk_as(&mut b, 10, AsType::Eyeball);
        b.add_transit(Asn(2), Asn(1));
        b.add_transit(Asn(3), Asn(1));
        b.add_transit(Asn(10), Asn(2));
        b.add_transit(Asn(10), Asn(3));
        let t = b.build();
        let table = compute_table(&t, Asn(10));
        assert_eq!(
            table.as_path(Asn(1)).unwrap(),
            vec![Asn(1), Asn(2), Asn(10)]
        );
    }

    #[test]
    fn shortest_path_ablation_ignores_policy() {
        let t = valley_topology();
        // Remove-the-policy view: 5 -> 3 -> 4 -> 6 still shortest (3 hops);
        // but in the no-peering variant shortest would cut through
        // customer links freely.
        let table = compute_table_shortest(&t, Asn(6));
        assert_eq!(table.as_path(Asn(5)).unwrap().len(), 4);
        // Everything is reachable ignoring policy.
        assert_eq!(table.reachable_count(), 6);
    }

    fn assert_tables_equal(a: &RoutingTable, b: &RoutingTable, ctx: &str) {
        assert_eq!(a.destination, b.destination, "{ctx}");
        assert_eq!(a.reachable_count(), b.reachable_count(), "{ctx}");
        for i in 0..a.entries.len() {
            let node = NodeId(i as u32);
            assert_eq!(a.route_at(node), b.route_at(node), "{ctx}: node {i}");
            assert_eq!(
                a.as_path_from(node),
                b.as_path_from(node),
                "{ctx}: node {i}"
            );
        }
    }

    fn view_after(topo: &Topology, batches: &[&[TopologyDelta]]) -> DeltaView {
        let mut view = DeltaView::empty();
        for batch in batches {
            view.apply(topo, batch);
        }
        view
    }

    #[test]
    fn destination_down_leaves_only_its_self_entry() {
        let topo = valley_topology();
        let view = view_after(&topo, &[&[TopologyDelta::AsDown { asn: Asn(6) }]]);
        let table = compute_table_view(&topo, &view, Asn(6));
        assert_eq!(table.reachable_count(), 1);
        assert!(table.route(Asn(6)).is_some());
    }

    #[test]
    fn restoration_batches_rebuild_fresh() {
        let topo = valley_topology();
        let (a, b) = (Asn(3), Asn(4));
        let down = view_after(&topo, &[&[TopologyDelta::LinkDown { a, b }]]);
        assert_ne!(
            compute_table_view(&topo, &down, Asn(6)).as_path(Asn(5)),
            compute_table(&topo, Asn(6)).as_path(Asn(5)),
            "the 3—4 peering carries 5's route toward 6"
        );
        // Fully restored view ≡ the base table.
        let restored = view_after(
            &topo,
            &[
                &[TopologyDelta::LinkDown { a, b }],
                &[TopologyDelta::LinkUp { a, b }],
            ],
        );
        assert_tables_equal(
            &compute_table_view(&topo, &restored, Asn(6)),
            &compute_table(&topo, Asn(6)),
            "restored",
        );
    }

    #[test]
    fn a_stale_rebuild_is_a_full_rebuild_not_a_hit() {
        let topo = Arc::new(valley_topology());
        let r = Router::new(Arc::clone(&topo));
        let dsts = [Asn(3), Asn(4), Asn(5)];
        r.precompute(&dsts);
        r.apply_delta(&[TopologyDelta::LinkDown {
            a: Asn(3),
            b: Asn(4),
        }]);
        let before = r.stats();
        let view = r.current_view();
        for dst in dsts {
            let table = r.table(dst);
            assert_eq!(table.epoch(), 1);
            assert_tables_equal(&table, &compute_table_view(&topo, &view, dst), "rebuilt");
        }
        let after = r.stats();
        assert_eq!(after.full_rebuilds, 3, "{after:?}");
        assert_eq!(after.hits, before.hits, "{after:?}");
        assert_eq!(after.recomputes, before.recomputes, "{after:?}");
        for dst in dsts {
            r.table(dst);
        }
        let again = r.stats();
        assert_eq!(again.hits, after.hits + 3, "{again:?}");
        assert_eq!(again.full_rebuilds, 3, "{again:?}");
    }

    #[test]
    fn replacing_a_stale_table_keeps_residency() {
        let topo = Arc::new(valley_topology());
        let budget = 2 * table_approx_bytes(6) + 8;
        let r = Router::with_budget(Arc::clone(&topo), RoutingPolicy::ValleyFree, Some(budget));
        r.precompute(&[Asn(5), Asn(6)]);
        let warm = r.stats();
        assert_eq!(warm.tables_resident, 2);
        r.apply_delta(&[TopologyDelta::AsDown { asn: Asn(4) }]);
        r.table(Asn(5));
        r.table(Asn(6));
        let s = r.stats();
        assert_eq!(s.full_rebuilds, 2, "{s:?}");
        assert_eq!(s.evictions, 0, "{s:?}");
        assert_eq!(s.tables_resident, warm.tables_resident);
        assert_eq!(s.resident_bytes, warm.resident_bytes);
    }

    #[test]
    fn router_caches_tables() {
        let r = Router::new(Arc::new(valley_topology()));
        assert_eq!(r.cached_tables(), 0);
        let p1 = r.as_path(Asn(5), Asn(6)).unwrap();
        let p2 = r.as_path(Asn(3), Asn(6)).unwrap();
        assert_eq!(r.cached_tables(), 1);
        assert_eq!(p1.last(), Some(&Asn(6)));
        assert_eq!(p2.last(), Some(&Asn(6)));
    }

    #[test]
    fn precompute_warms_cache_and_agrees_with_on_demand() {
        let t = Arc::new(valley_topology());
        let warm = Router::new(Arc::clone(&t));
        // Duplicates and repeats must be handled; all six tables land
        // in the cache in one call.
        warm.precompute(&[Asn(1), Asn(2), Asn(3), Asn(4), Asn(5), Asn(6), Asn(5)]);
        assert_eq!(warm.cached_tables(), 6);
        // Precomputing again is a no-op.
        warm.precompute(&[Asn(1), Asn(6)]);
        assert_eq!(warm.cached_tables(), 6);

        let cold = Router::new(Arc::clone(&t));
        for dst in [1u32, 2, 3, 4, 5, 6] {
            let a = warm.table(Asn(dst));
            let b = cold.table(Asn(dst));
            assert_eq!(a.reachable_count(), b.reachable_count());
            for src in [1u32, 2, 3, 4, 5, 6] {
                assert_eq!(a.route(Asn(src)), b.route(Asn(src)), "dst {dst} src {src}");
            }
        }
    }

    #[test]
    fn budgeted_router_evicts_and_recomputes_identically() {
        let t = Arc::new(valley_topology());
        // Room for two tables (plus slack below a third).
        let budget = 2 * table_approx_bytes(6) + 8;
        let bounded = Router::with_budget(Arc::clone(&t), RoutingPolicy::ValleyFree, Some(budget));
        let unbounded = Router::new(Arc::clone(&t));
        // Cycle through every destination several times: residency
        // must stay within budget while every returned table matches
        // the unbudgeted router's bit for bit.
        for _ in 0..3 {
            for dst in [1u32, 2, 3, 4, 5, 6] {
                let a = bounded.table(Asn(dst));
                let b = unbounded.table(Asn(dst));
                for src in [1u32, 2, 3, 4, 5, 6] {
                    assert_eq!(a.route(Asn(src)), b.route(Asn(src)), "dst {dst} src {src}");
                    assert_eq!(a.as_path(Asn(src)), b.as_path(Asn(src)));
                }
                let s = bounded.stats();
                assert!(
                    s.resident_bytes <= budget,
                    "residency {} exceeds budget {budget}",
                    s.resident_bytes
                );
            }
        }
        let s = bounded.stats();
        assert!(s.evictions > 0, "budget never forced an eviction: {s:?}");
        assert!(
            s.recomputes > 0,
            "evictions never caused a recompute: {s:?}"
        );
        assert_eq!(
            s.misses,
            s.recomputes + 6,
            "first touch of each dst is a cold miss"
        );
        assert_eq!(unbounded.stats().evictions, 0);
        assert_eq!(unbounded.stats().resident_bytes, 6 * table_approx_bytes(6));
    }

    #[test]
    fn budgeted_precompute_warms_front_to_back_and_stops() {
        let t = Arc::new(valley_topology());
        let budget = 2 * table_approx_bytes(6) + 8;
        let r = Router::with_budget(Arc::clone(&t), RoutingPolicy::ValleyFree, Some(budget));
        r.precompute(&[Asn(1), Asn(2), Asn(3), Asn(4), Asn(5), Asn(6)]);
        // Exactly the two hottest (front-of-list) destinations warmed;
        // nothing was warmed only to be evicted again.
        assert_eq!(r.cached_tables(), 2);
        let s = r.stats();
        assert_eq!(s.evictions, 0);
        assert!(s.resident_bytes <= budget);
        // The cold destinations still resolve fine (recompute on miss).
        assert!(r.as_path(Asn(5), Asn(6)).is_some());
    }

    #[test]
    fn flat_tables_match_oracle_on_valley_topology() {
        let t = valley_topology();
        for dst in [1u32, 2, 3, 4, 5, 6] {
            let flat = compute_table(&t, Asn(dst));
            let reference = oracle::compute_table(&t, Asn(dst));
            assert_eq!(flat.reachable_count(), reference.len(), "dst {dst}");
            for src in [1u32, 2, 3, 4, 5, 6] {
                assert_eq!(
                    flat.route(Asn(src)),
                    reference.get(&Asn(src)),
                    "dst {dst} src {src}"
                );
            }
        }
    }

    /// Asserts the Gao-Rexford valley-free property along `path`:
    /// a sequence of up (customer->provider) steps, at most one peer
    /// step, then down (provider->customer) steps.
    fn assert_valley_free(t: &Topology, path: &[Asn]) {
        #[derive(PartialEq, PartialOrd)]
        enum Stage {
            Up,
            Peer,
            Down,
        }
        let mut stage = Stage::Up;
        for w in path.windows(2) {
            let (a, b) = (w[0], w[1]);
            let adj = t.adjacency(a);
            let step = if adj.providers.contains(&b) {
                Stage::Up
            } else if adj.peers.contains(&b) {
                Stage::Peer
            } else if adj.customers.contains(&b) {
                Stage::Down
            } else {
                panic!("path uses non-existent link {a} -> {b}");
            };
            assert!(step >= stage, "valley in path at {a} -> {b}");
            assert!(
                !(step == Stage::Peer && stage == Stage::Peer),
                "second peer hop in path at {a} -> {b}"
            );
            stage = step;
        }
    }

    #[test]
    #[should_panic(expected = "second peer hop")]
    fn valley_free_checker_rejects_two_peer_hops() {
        let mut b = Topology::builder();
        for asn in [1, 2, 3] {
            mk_as(&mut b, asn, AsType::Tier2);
        }
        b.add_peering(Asn(1), Asn(2));
        b.add_peering(Asn(2), Asn(3));
        let t = b.build();
        assert_valley_free(&t, &[Asn(1), Asn(2), Asn(3)]);
    }

    #[test]
    fn all_paths_in_valley_topology_are_valley_free() {
        let t = valley_topology();
        for dst in [1u32, 2, 3, 4, 5, 6] {
            let table = compute_table(&t, Asn(dst));
            for src in [1u32, 2, 3, 4, 5, 6] {
                if let Some(path) = table.as_path(Asn(src)) {
                    assert_valley_free(&t, &path);
                }
            }
        }
    }
}
