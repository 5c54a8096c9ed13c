//! # shortcuts-service
//!
//! The measurement platform the ROADMAP's north star asks for: a
//! **long-lived session server** on top of the core engine, turning
//! the paper's one-shot relay-measurement workflow into an always-on
//! service — the same shift the real RIPE Atlas infrastructure makes
//! from single experiments to a shared, credit-budgeted platform.
//!
//! Clients connect over TCP, submit campaign or sweep configurations
//! in a small line-oriented language ([`protocol`]), watch `ROUND`
//! lines stream back per completed round **while later rounds are
//! still measuring**, and fetch the final figure-ready CSVs. Many
//! clients run concurrently; sessions touching the same world share
//! one warmed engine stack.
//!
//! ## Architecture
//!
//! ```text
//!            TcpListener (server)            SessionManager
//!  client ──► accept ── admission? ──► session thread (1 per client)
//!  client ──► accept ── ERR busy          │  parse → run → stream
//!                                         ▼
//!                                   WorldPool
//!                    (world seed) ──► Arc<World>
//!            (world seed, policy) ──► Arc<PingEngine>   ← shared by
//!                                         │                sessions
//!                                         ▼
//!                     core::sweep::Sweep::with_engine
//!                     shard::run_interleaved → process worker pool
//! ```
//!
//! - [`pool::WorldPool`] caches `Arc<World>` per world seed and one
//!   engine stack — router with destination-table cache plus the
//!   sharded pair cache — per `(world seed, policy)`. The first
//!   session pays world construction and cache warmup; every later
//!   session on that world measures through hot caches. Sound because
//!   the engine holds only deterministic world facts (the sweep
//!   determinism contract proved by `sweep_equivalence`): **the CSV a
//!   session streams back is byte-identical to a solo
//!   `Campaign::run` at the same seeds**, however many sessions share
//!   the engine (enforced end-to-end in `tests/service_e2e.rs`).
//!   Under a [`ServiceConfig`] memory budget the pool also bounds
//!   *itself*: engines run with budgeted caches, sessions lease
//!   stacks via [`pool::WorldPool::checkout`], and idle stacks are
//!   evicted least-recently-detached-first once aggregate residency
//!   exceeds the budget — byte-identical results either way, because
//!   every evicted stack rebuilds deterministically from its seed.
//! - [`session::SessionManager`] bounds admission (`max_sessions`,
//!   per-session `jobs-in-flight` clamps) and keeps cleanup
//!   panic-safe: permits are drop guards, pool locks never poison, and
//!   `catch_unwind` walls each session off, so a dying session never
//!   takes the shared engine — or the server — with it.
//! - [`server::Server`] is thread-per-connection over
//!   `std::net::TcpListener` — no async runtime (the build is fully
//!   vendored); within a request `shard::run_interleaved` queues the
//!   work on the process's one worker pool, which provides all the
//!   parallelism the hardware has.
//! - [`broadcast::BroadcastHub`] deduplicates identical batches: the
//!   first session asking for a `(world seed, policy, seeds, rounds)`
//!   key executes and **publishes** every `ROUND`/`END` event; later
//!   `SUBSCRIBE` sessions tap the broadcast through bounded
//!   per-subscriber queues and receive a byte-identical stream without
//!   re-executing anything. A tap that falls behind is shed with
//!   `ERR lagged` — the producer never blocks on a slow consumer.
//!   A finished batch travels as a `broadcast::FinishedBatch`, which
//!   owns its CSV payloads: rendered on the first `CSV` fetch, shared
//!   by every tap and repeat fetch (`csv_renders` vs `csv_fetches` on
//!   the `STATS service` line).
//! - [`credits::CreditLedger`] prices work per client IP
//!   (`rounds × scenarios` per request, taps cost 1, probes cost 0)
//!   with continuously refilling token buckets — `ERR credits` plus a
//!   `retry-after-ms` hint instead of queueing cheap requests behind
//!   heavy ones.
//! - `METRICS` is the machine-readable twin of `STATS`: a
//!   Prometheus-style text exposition of the process-wide telemetry
//!   (per-stage latency histograms and scheduler gauges from
//!   `shortcuts_telemetry`, which a server always enables) plus
//!   per-engine, pool, service and credit samples. Both surfaces
//!   render the same `fields()` lists, so they cannot drift — pinned
//!   by `tests/metrics_e2e.rs`.
//! - [`frame`] is the negotiated response framing: text lines by
//!   default, length-prefixed binary frames after
//!   `HELLO framing=binary`, both leaving through one
//!   `ResponseWriter` per session that hands the (`TCP_NODELAY`)
//!   socket whole messages — one `write` per round event or finished
//!   response, payloads encoded from the borrowed CSV.
//! - [`client::Client`] is the blocking client the CLI `client`
//!   subcommand, the e2e tests, the perf ledger's serve workloads and
//!   the `loadgen` harness use; it
//!   retries `ERR busy` / `ERR credits` with jittered exponential
//!   backoff ([`client::RetryPolicy`]).
//!
//! ## Example
//!
//! ```
//! use shortcuts_service::{Client, Server, ServiceConfig, StreamEvent};
//!
//! let mut cfg = ServiceConfig::small();
//! cfg.default_world_seed = 11;
//! let server = Server::start("127.0.0.1:0", cfg).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let mut rounds = 0;
//! client
//!     .run_streaming("RUN seed=2017 rounds=1", |e| {
//!         if matches!(e, StreamEvent::Round(_)) {
//!             rounds += 1;
//!         }
//!     })
//!     .unwrap();
//! assert_eq!(rounds, 1);
//! let (name, bytes) = client.fetch_csv("cases").unwrap();
//! assert_eq!(name, "cases_seed-2017.csv");
//! assert!(!bytes.is_empty());
//! client.quit();
//! server.shutdown();
//! ```

pub mod broadcast;
pub mod client;
pub mod credits;
pub mod frame;
pub mod pool;
pub mod protocol;
pub mod server;
pub mod session;

pub use broadcast::{BroadcastHub, BroadcastKey, ServiceStats};
pub use client::{Client, RetryPolicy, StreamEvent};
pub use credits::{CreditConfig, CreditLedger};
pub use frame::Framing;
pub use pool::{PoolStats, WorldPool};
pub use protocol::{BatchRequest, BatchVerb, Request};
pub use server::Server;
pub use session::{ServiceConfig, SessionManager};
