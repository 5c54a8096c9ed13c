//! # shortcuts-core
//!
//! The paper itself: *Shortcuts through Colocation Facilities* (IMC
//! 2017) — endpoint and relay selection, the measurement engine, and
//! every analysis behind the paper's figures, table and in-text
//! numbers.
//!
//! ## The measurement engine: plan → execute → stitch
//!
//! The §2.5 campaign (45 rounds × O(n²) endpoint pairs × hundreds of
//! relays, 6 pings per window) is the hot path of the reproduction, so
//! it is built as three explicit layers:
//!
//! - **[`plan`]** decides *what to measure* as pure data: the round's
//!   endpoints, direct pairs, symmetry sample, relays
//!   ([`plan::RoundPlan`]) and — once the direct medians exist — the
//!   §2.4-feasible relays and deduplicated overlay links
//!   ([`plan::OverlayPlan`]). No I/O, no clocks, no engine.
//! - **[`backend`]** measures. A [`backend::MeasureTask`] names one
//!   ping window; the [`backend::MeasurementBackend`] trait abstracts
//!   how it is measured (netsim today via [`backend::NetsimBackend`];
//!   recorded-trace or analytical backends slot in without touching
//!   the other layers). Every task derives its own RNG from
//!   `(seed, round, src, dst, kind)`, so task outcomes are
//!   order-independent and scheduling is a free choice
//!   ([`backend::ExecMode`]): serial, data-parallel within a round, or
//!   round-sharded across rounds via the [`shard`] scheduler, which
//!   keeps several rounds in flight on one worker pool (the default:
//!   two) — all with **bit-identical** results.
//! - **[`stitch`]** folds window medians into
//!   [`workflow::CampaignResults`]: case records with per-type
//!   outcomes (`RTT(e1, relay, e2) = median(e1, relay) + median(e2,
//!   relay)`), RTT histories, symmetry samples, relay metadata. The
//!   builder absorbs rounds in **any order** and merges them by round
//!   index, so completion order is unobservable.
//!
//! [`workflow::Campaign`] orchestrates the three layers per round and
//! **streams**: [`workflow::Campaign::run_streaming`] reports a
//! [`workflow::RoundSummary`] per completed round, in round order,
//! while later rounds are still measuring.
//!
//! On top of the single campaign sits [`sweep`]: many `(seed, config)`
//! scenarios run **concurrently on one world**, sharing the engine's
//! pair cache, the router's destination tables (warmed once with the
//! union of every scenario's destinations) and one worker pool via the
//! two-level [`shard::run_interleaved`] scheduler — with every
//! scenario bit-identical to running it alone. A [`sweep::Sweep`] owns
//! its world (`Arc`) and can measure through a caller-pooled engine
//! ([`sweep::Sweep::with_engine`],
//! [`workflow::Campaign::run_streaming_on`]) — the ownership shape the
//! `shortcuts_service` session server uses to keep one warmed engine
//! stack serving many concurrent client sessions.
//!
//! ## Paper-section map
//!
//! | paper section | module |
//! |---|---|
//! | §2.1 endpoint selection at eyeballs | [`eyeball`] |
//! | §2.2 relay selection at colos (5-filter funnel) | [`colo`] |
//! | §2.3 PlanetLab / RIPE Atlas relays | [`relays`] |
//! | §2.4 feasibility filter | [`feasibility`], [`plan`] |
//! | §2.5 measurement framework | [`workflow`], [`plan`], [`backend`], [`stitch`], [`measure`] |
//! | §3 results | [`analysis`] (one submodule per figure/table/claim) |
//!
//! [`world::World`] bundles the full simulated environment (topology,
//! datasets, platforms, hosts) so a campaign is two calls:
//!
//! ```
//! use shortcuts_core::world::{World, WorldConfig};
//! use shortcuts_core::workflow::{Campaign, CampaignConfig};
//!
//! let world = World::build(&WorldConfig::small(), 42);
//! let mut campaign_cfg = CampaignConfig::small();
//! campaign_cfg.rounds = 2;
//! let results = Campaign::new(&world, campaign_cfg).run();
//! assert!(!results.cases.is_empty());
//! ```

pub mod analysis;
pub mod backend;
pub mod colo;
pub mod eyeball;
pub mod feasibility;
pub mod measure;
pub mod paper;
pub mod plan;
pub mod relays;
pub mod report;
pub mod shard;
pub mod stitch;
pub mod sweep;
pub mod workflow;
pub mod world;

pub use backend::{ExecMode, MeasureTask, MeasurementBackend, NetsimBackend, TaskKind};
pub use plan::{OverlayPlan, RoundPlan};
pub use relays::{Relay, RelayType};
pub use stitch::ResultsBuilder;
pub use sweep::{Sweep, SweepConfig, SweepReport, SweepScenario};
pub use workflow::{
    Campaign, CampaignConfig, CampaignResults, Case, CaseRecord, Cases, PairHistory, RoundSummary,
};
pub use world::{SharedWorld, World, WorldConfig};
