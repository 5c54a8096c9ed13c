//! # shortcuts-netsim
//!
//! Data-plane simulation on top of the AS topology: router-level path
//! expansion, an RTT model, and a ping engine.
//!
//! The paper measures one thing — **RTT between pairs of IP endpoints** —
//! so this crate's job is to answer "what would a ping between these two
//! hosts see at time *t*?" in a way that preserves the phenomena the
//! study depends on:
//!
//! - **Path inflation**: the AS path comes from valley-free routing
//!   ([`shortcuts_topology::routing`]); [`path`] expands it to a
//!   router-level geographic trajectory using *hot-potato* handoffs at
//!   common PoP cities, so policy detours translate into real kilometers.
//! - **Propagation floor**: kilometers become milliseconds at 2/3 c with
//!   a fiber-circuity factor (cables don't follow great circles).
//! - **Noise**: lognormal queueing jitter, occasional heavy spikes (the
//!   outliers that force the paper to use medians), diurnal load, and
//!   packet loss.
//! - **Failures**: [`fault::FaultPlan`] injects AS outages and lossy
//!   links for failure-injection tests, in the spirit of smoltcp's
//!   fault-injection examples.
//!
//! The engine co-owns its inputs behind `Arc`s and keeps no
//! per-campaign state; campaigns hold a [`ping::PingHandle`] each
//! (fault plan + ping accounting) so many campaigns can share one
//! engine — and its pair cache — concurrently.
//!
//! ## Example
//!
//! ```
//! use shortcuts_topology::{Topology, TopologyConfig, routing::Router};
//! use shortcuts_netsim::{HostRegistry, LatencyModel, PingEngine, PingHandle, Pinger, SimClock};
//! use std::sync::Arc;
//!
//! let topo = Arc::new(Topology::generate(&TopologyConfig::small(), 1));
//! let router = Arc::new(Router::new(Arc::clone(&topo)));
//! let mut hosts = HostRegistry::new();
//! // Put one host in each of two eyeball ASes.
//! let eyes = topo.eyeball_asns();
//! let a = hosts.add_host_in_as(&topo, eyes[0], None).unwrap();
//! let b = hosts.add_host_in_as(&topo, eyes[1], None).unwrap();
//! let engine = PingEngine::new(topo, router, Arc::new(hosts), LatencyModel::default());
//! // Probes go through a handle: a fault plan and ping accounting of
//! // its own over the shared engine.
//! let handle = PingHandle::new(Arc::new(engine));
//! let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(9);
//! let clock = SimClock::start();
//! let reply = handle.ping(a, b, clock.now(), &mut rng);
//! // Loss is possible but a reply carries a positive RTT.
//! if let Some(rtt) = reply { assert!(rtt > 0.0); }
//! ```

pub mod clock;
pub mod fasthash;
pub mod fault;
pub mod host;
pub mod latency;
pub mod path;
pub mod ping;
pub mod traceroute;

pub use clock::SimClock;
pub use fault::FaultPlan;
pub use host::{Host, HostId, HostKind, HostRegistry, SiteId};
pub use latency::LatencyModel;
pub use path::{expand_path, PathCost, RouterPath};
pub use ping::{EngineStats, PairBlock, PingEngine, PingHandle, Pinger, SampleTally};
