//! # shortcuts-topology
//!
//! A synthetic, geographically embedded AS-level Internet topology with
//! policy (valley-free) routing — the substrate the paper's measurement
//! study runs on.
//!
//! The live Internet obviously cannot be shipped in a crate, so this
//! module builds the closest synthetic equivalent that preserves the
//! mechanism the paper's results depend on: **BGP path inflation**.
//! Direct paths between eyeball networks must climb the provider
//! hierarchy and are geographically constrained to the PoP cities of the
//! transit ASes involved, while large colocation facilities concentrate
//! peering and therefore offer geographically sensible "shortcuts".
//!
//! ## Contents
//!
//! - [`ids`] — strongly typed identifiers ([`Asn`], [`PopId`],
//!   [`FacilityId`], [`IxpId`]).
//! - [`ip`] — IPv4 prefixes and per-AS address allocation.
//! - [`asys`] — autonomous systems: type (tier-1/tier-2/eyeball/content/
//!   enterprise/research), countries, PoPs.
//! - [`facility`] — colocation facilities and IXPs with membership.
//! - [`graph`] — the assembled [`Topology`] with adjacency by business
//!   relationship, plus the dense [`NodeId`] space: a shared
//!   [`graph::NodeIndex`] and a flat CSR adjacency
//!   ([`graph::CsrAdjacency`]) the routing core sweeps over.
//! - [`generator`] — the seeded random generator producing realistic
//!   topologies ([`TopologyConfig`], [`Topology::generate`]).
//! - [`routing`] — Gao–Rexford valley-free route computation
//!   ([`routing::RoutingTable`], [`routing::Router`]).
//! - [`budget`] — byte budgets for the engine's caches
//!   ([`MemoryBudget`]); the router enforces its share with CLOCK
//!   eviction over the destination-table cache.
//! - [`delta`] — topology churn: [`TopologyDelta`] link/AS up-down
//!   events, [`ChurnSchedule`] round→batch schedules, and the
//!   [`DeltaView`] copy-on-write mask routing sweeps consult; the
//!   router rebuilds a stale table under the current view when it is
//!   next read ([`routing::Router::table_at`]).
//! - [`intern`] — content-addressed AS-path interning
//!   ([`PathInterner`]): one reference-counted copy per distinct path,
//!   named by a dense [`PathId`], so pair-level caches store plain ids
//!   and each unique path is stored once instead of once per pair.
//!
//! ## Example
//!
//! ```
//! use shortcuts_topology::{Topology, TopologyConfig, routing::Router};
//! use std::sync::Arc;
//!
//! let topo = Arc::new(Topology::generate(&TopologyConfig::small(), 42));
//! // The router co-owns the topology, so it can be shared freely
//! // across campaigns and worker threads.
//! let router = Router::new(Arc::clone(&topo));
//! // Pick two eyeball ASes and compute the policy path between them.
//! let eyeballs = topo.eyeball_asns();
//! let path = router.as_path(eyeballs[0], eyeballs[1]);
//! assert!(path.is_some());
//! ```

pub mod asys;
pub mod budget;
pub mod delta;
pub mod facility;
pub mod generator;
pub mod graph;
pub mod ids;
pub mod intern;
pub mod ip;
pub mod routing;

pub use asys::{AsInfo, AsType, Pop};
pub use budget::MemoryBudget;
pub use delta::{ChurnSchedule, DeltaView, TopologyDelta};
pub use facility::{Facility, Ixp};
pub use generator::TopologyConfig;
pub use graph::{CsrAdjacency, NodeIndex, Relationship, Topology};
pub use ids::{Asn, FacilityId, IxpId, NodeId, PopId};
pub use intern::{InternStats, PathId, PathInterner};
pub use ip::{IpAllocator, Prefix};
