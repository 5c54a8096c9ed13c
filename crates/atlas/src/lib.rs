//! # shortcuts-atlas
//!
//! Simulated measurement platforms: RIPE Atlas, PlanetLab and Looking
//! Glasses (Periscope).
//!
//! The paper's methodology is defined almost entirely in terms of these
//! platforms' quirks — probe firmware versions and system tags,
//! 30-day connectivity stability, PlanetLab's notorious node flakiness,
//! Looking Glasses that only expose traceroute. This crate reproduces
//! those surfaces so the selection pipelines of §2.1–§2.3 can run
//! verbatim against them:
//!
//! - [`ripe`] — a probe/anchor population with firmware, tags,
//!   public/connected state and 30-day stability history, plus the
//!   credit-style measurement budget of the RIPE Atlas API.
//! - [`planetlab`] — research-hosted sites whose nodes come and go;
//!   consistent accessibility across checks is what the paper samples
//!   on.
//! - [`looking_glass`] — city-indexed Looking Glass vantage points and
//!   the Periscope-style "last-hop RTT via traceroute" facade used for
//!   RTT-based geolocation of colo IPs (§2.2). It samples each
//!   (LG, target) pair's last hops through
//!   [`shortcuts_netsim::Pinger::min_last_hop_rtt`] without building a
//!   traceroute; the full traceroute is `shortcuts_netsim`'s test
//!   oracle for that sampler.
//!
//! All populations are generated deterministically from a topology and
//! a seed, and register their vantage points as
//! [`shortcuts_netsim::Host`]s so the ping engine can reach them.

pub mod looking_glass;
pub mod planetlab;
pub mod ripe;

pub use looking_glass::{LookingGlass, LookingGlassNet, Periscope};
pub use planetlab::{PlanetLab, PlanetLabNode, PlanetLabSite};
pub use ripe::{MeasurementBudget, Probe, ProbeFilter, RipeAtlas, LATEST_FIRMWARE};
