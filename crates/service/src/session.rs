//! Sessions: bounded admission plus the per-connection request loop.
//!
//! A session is one TCP connection driven by one thread. The
//! [`SessionManager`] owns what sessions share — the [`WorldPool`],
//! the admission counter, the [`BroadcastHub`] and the
//! [`CreditLedger`] — while everything request-scoped (the half-parsed
//! line, the negotiated framing, a handle on the last finished batch)
//! lives on the session thread's stack, so a dying session takes
//! nothing shared down with it:
//!
//! - admission is released by a [`SessionPermit`] drop guard, which
//!   runs during unwinding too;
//! - the pool's locks are non-poisoning (`parking_lot`), so a panic
//!   mid-`world()` cannot wedge other sessions;
//! - a producing session that dies fails its broadcast via
//!   [`ProducerGuard`]'s drop, so taps report `ERR broadcast aborted`
//!   instead of hanging;
//! - the measurement scheduler ([`shortcuts_core::shard`]) already
//!   propagates worker panics as a panic of the calling (session)
//!   thread instead of deadlocking the pool.
//!
//! On the wire a session pays only for work. The socket runs with
//! `TCP_NODELAY` and every message leaves in one `write`
//! ([`ResponseWriter`]), so no response waits behind Nagle for the
//! client's delayed ACK. A request line is read through a
//! [`MAX_REQUEST_LINE_BYTES`] cap, the text twin of the binary frame
//! cap. Rendered `CSV` payloads belong to the [`FinishedBatch`] they
//! derive from — the session's `last`, shared with the broadcast
//! done-cache and every tap — never to the session or the writer.
//!
//! Requests execute synchronously on the session thread; concurrency
//! across sessions comes from the thread-per-connection server,
//! concurrency *within* a request from the sharded `(campaign, round)`
//! scheduler every run uses, and *deduplication* across sessions from
//! the broadcast hub: identical batches execute once and fan out.
//!
//! Admission is two-tier. `max_sessions` still bounds concurrent
//! connections (`ERR busy` at accept), but *work* is priced by
//! credits: each RUN/SWEEP costs `rounds × scenarios` from the
//! client's bucket, a SUBSCRIBE tap costs a flat 1, and
//! STATS/CSV/HELLO are free — so cheap probes never starve behind
//! heavy sweeps and one greedy client cannot monopolize the engines.
//! Spend is observable: `STATS` lists every metered client's refilled
//! balance, and a session that opted in with `HELLO credits=on` gets a
//! ` credits=<remaining>` suffix on each metered `OK` (appended after
//! broadcast fan-out, so shared streams stay byte-identical).

use crate::broadcast::{
    Attach, BroadcastHub, BroadcastKey, FinishedBatch, ProducerGuard, ServiceCounters,
};
use crate::credits::{request_cost, Charge, CreditConfig, CreditLedger, TAP_COST};
use crate::frame::{ResponseWriter, RoundLine};
use crate::pool::{PoolCheckout, WorldPool};
use crate::protocol::{BatchRequest, BatchVerb, Request, GREETING};
use shortcuts_core::sweep::{Sweep, SweepConfig};
use shortcuts_core::workflow::CampaignConfig;
use shortcuts_core::world::WorldConfig;
use shortcuts_telemetry as telemetry;
use shortcuts_topology::MemoryBudget;
use std::io::{BufRead, BufReader, Read};
use std::net::{IpAddr, Ipv4Addr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Longest request line a session reads, newline excluded. Requests
/// are a verb and a handful of `key=value` options; a client that
/// streams more than this without a newline is refused with `ERR` and
/// disconnected instead of growing a `String` until the process dies.
pub const MAX_REQUEST_LINE_BYTES: usize = 64 << 10;

/// Upper bound a request's `jobs-in-flight` / `rounds-in-flight` option
/// is clamped to (bounds live plans and partial results per session).
pub const MAX_JOBS_IN_FLIGHT: usize = 32;

/// Finished broadcasts kept for SUBSCRIBE replay.
pub const BROADCAST_CACHE: usize = 2;

/// Service-wide configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum concurrent sessions; further connections are refused
    /// with `ERR busy` at accept time.
    pub max_sessions: usize,
    /// World generator configuration for pooled worlds.
    pub world: WorldConfig,
    /// World seed used when a request does not pin `world-seed`.
    pub default_world_seed: u64,
    /// Base campaign configuration requests specialize (seed, rounds,
    /// policy and scheduling are overridden per request).
    pub base_campaign: CampaignConfig,
    /// Service-wide memory budget: bounds each pooled engine's caches
    /// *and* the pool's aggregate stack residency. Unbounded by
    /// default.
    pub memory: MemoryBudget,
    /// Live-event headroom per broadcast subscriber: a tap more than
    /// this many events behind the producer is shed with `ERR lagged`.
    pub subscriber_lag: usize,
    /// Per-client credit admission policy.
    pub credits: CreditConfig,
}

impl ServiceConfig {
    /// Paper-scale worlds, 8 sessions, the paper's campaign shape.
    pub fn paper_scale() -> Self {
        ServiceConfig {
            max_sessions: 8,
            world: WorldConfig::paper_scale(),
            default_world_seed: 2017,
            base_campaign: CampaignConfig::paper(),
            memory: MemoryBudget::unbounded(),
            subscriber_lag: 256,
            credits: CreditConfig::default(),
        }
    }

    /// Small worlds and small campaigns — tests and benches.
    pub fn small() -> Self {
        ServiceConfig {
            world: WorldConfig::small(),
            base_campaign: CampaignConfig::small(),
            ..Self::paper_scale()
        }
    }
}

/// Shared session state: the pool, the admission counter, the
/// broadcast hub and the credit ledger.
pub struct SessionManager {
    cfg: ServiceConfig,
    pool: WorldPool,
    active: AtomicUsize,
    hub: BroadcastHub,
    credits: CreditLedger,
    counters: Arc<ServiceCounters>,
}

impl SessionManager {
    /// Creates a manager (and its world pool) from a config.
    pub fn new(cfg: ServiceConfig) -> Self {
        let pool = WorldPool::with_budget(cfg.world.clone(), cfg.memory);
        let counters = Arc::new(ServiceCounters::default());
        let hub = BroadcastHub::new(cfg.subscriber_lag, BROADCAST_CACHE, Arc::clone(&counters));
        let credits = CreditLedger::new(cfg.credits);
        SessionManager {
            cfg,
            pool,
            active: AtomicUsize::new(0),
            hub,
            credits,
            counters,
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// The shared world pool.
    pub fn pool(&self) -> &WorldPool {
        &self.pool
    }

    /// The broadcast hub (tests attach through it directly).
    pub fn hub(&self) -> &BroadcastHub {
        &self.hub
    }

    /// The credit ledger.
    pub fn credits(&self) -> &CreditLedger {
        &self.credits
    }

    /// The service-wide fan-out and admission counters.
    pub fn counters(&self) -> &ServiceCounters {
        &self.counters
    }

    /// Sessions currently admitted.
    pub fn active_sessions(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Tries to admit one more session; `None` when the service is at
    /// `max_sessions`. The returned permit releases the slot on drop —
    /// including the drop that runs while a session thread unwinds
    /// from a panic.
    pub fn try_admit(self: &Arc<Self>) -> Option<SessionPermit> {
        let mut current = self.active.load(Ordering::SeqCst);
        loop {
            if current >= self.cfg.max_sessions {
                return None;
            }
            match self.active.compare_exchange(
                current,
                current + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    return Some(SessionPermit {
                        mgr: Arc::clone(self),
                    })
                }
                Err(seen) => current = seen,
            }
        }
    }
}

/// RAII admission slot; dropping it (normally or during unwinding)
/// frees the slot for the next client.
pub struct SessionPermit {
    mgr: Arc<SessionManager>,
}

impl Drop for SessionPermit {
    fn drop(&mut self) {
        self.mgr.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Charges the client's bucket. On success returns the session-local
/// ` credits=<remaining>` suffix for the request's `OK` terminator:
/// empty unless the session opted in with `HELLO credits=on`, and empty
/// for zero-cost charges, whose infinite balance is no information. On
/// denial writes `ERR credits` with a retry hint and returns `None`
/// (the session stays usable).
fn charge(
    mgr: &SessionManager,
    w: &mut ResponseWriter,
    who: IpAddr,
    cost: f64,
    show_credits: bool,
) -> std::io::Result<Option<String>> {
    match mgr.credits.try_charge(who, cost) {
        Charge::Ok { remaining } if show_credits && remaining.is_finite() => {
            Ok(Some(format!(" credits={remaining:.0}")))
        }
        Charge::Ok { .. } => Ok(Some(String::new())),
        Charge::Denied {
            need,
            have,
            retry_after,
        } => {
            mgr.counters.credit_denied();
            w.err(&format!(
                "credits need={need:.0} have={have:.0} retry-after-ms={}",
                retry_after.as_millis().max(1)
            ))?;
            w.flush()?;
            Ok(None)
        }
    }
}

/// Runs one session to completion: greeting, then the request loop
/// until the client quits or disconnects. IO errors (client went away)
/// end the session silently; protocol errors are reported as `ERR`
/// lines and the loop continues.
pub fn run_session(mgr: &SessionManager, stream: TcpStream) -> std::io::Result<()> {
    // Credit buckets key on the peer IP; a socket without one (already
    // disconnected) gets the loopback bucket and will error on first
    // write anyway.
    let peer = stream
        .peer_addr()
        .map(|a| a.ip())
        .unwrap_or(IpAddr::V4(Ipv4Addr::LOCALHOST));
    stream.set_nodelay(true)?;
    let mut w = ResponseWriter::new(stream.try_clone()?);
    let mut reader = BufReader::new(stream);
    w.text_line(GREETING)?;
    w.flush()?;

    let mut last: Option<Arc<FinishedBatch>> = None;
    let mut show_credits = false;
    let mut line = String::new();
    loop {
        line.clear();
        let read = reader
            .by_ref()
            .take(MAX_REQUEST_LINE_BYTES as u64 + 1)
            .read_line(&mut line)?;
        if read == 0 {
            return Ok(()); // clean disconnect
        }
        if read > MAX_REQUEST_LINE_BYTES && !line.ends_with('\n') {
            // Whatever follows is the tail of this line, not a request:
            // there is nothing to resynchronize on, so hang up.
            w.err("request line too long")?;
            return w.flush();
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let request = match Request::parse(trimmed) {
            Ok(r) => r,
            Err(msg) => {
                w.err(&msg)?;
                w.flush()?;
                continue;
            }
        };
        match request {
            Request::Quit => {
                w.ok("bye")?;
                return w.flush();
            }
            Request::Hello { framing, credits } => {
                // The reply is always text so a client can negotiate
                // before it has to speak frames; everything after it
                // uses the new framing.
                w.text_line(&format!("OK hello framing={}", framing.label()))?;
                w.flush()?;
                w.set_framing(framing);
                show_credits = credits;
            }
            Request::Stats => {
                let stats = mgr.pool.stats();
                for (seed, policy, s) in &stats {
                    w.stats(&format!(
                        "world={seed} policy={} {}",
                        policy.label(),
                        s.summary()
                    ))?;
                }
                // Aggregate pool residency, the service-wide fan-out /
                // admission counters, then one balance line per
                // metered client.
                w.stats(&format!("pool {}", mgr.pool.pool_stats().summary()))?;
                w.stats(&format!("service {}", mgr.counters.snapshot().summary()))?;
                let balances = mgr.credits.balances();
                for (ip, balance) in &balances {
                    w.stats(&format!("credits ip={ip} balance={balance:.0}"))?;
                }
                w.ok(&format!("stats {}", stats.len() + 2 + balances.len()))?;
                w.flush()?;
            }
            Request::Metrics => {
                // Prometheus-style exposition. Process-wide telemetry
                // first (stage latency histograms, scheduler gauges),
                // then per-engine / pool / service / credit samples
                // rendered from the *same* `fields()` lists the STATS
                // arm formats — one source, two surfaces.
                let mut out = String::new();
                telemetry::global().render_into(&mut out);
                for (seed, policy, s) in &mgr.pool.stats() {
                    let world = seed.to_string();
                    telemetry::prom_fields(
                        &mut out,
                        "colo_engine",
                        &[("world", world.as_str()), ("policy", policy.label())],
                        &s.fields(),
                    );
                }
                let pool = mgr.pool.pool_stats();
                telemetry::prom_fields(&mut out, "colo_pool", &[], &pool.fields());
                if let Some(budget) = pool.budget_bytes {
                    telemetry::prom_line(
                        &mut out,
                        "colo_pool_budget_bytes",
                        &[],
                        telemetry::FieldValue::Int(budget),
                    );
                }
                telemetry::prom_fields(
                    &mut out,
                    "colo_service",
                    &[],
                    &mgr.counters.snapshot().fields(),
                );
                for (ip, balance) in &mgr.credits.balances() {
                    let ip = ip.to_string();
                    telemetry::prom_line(
                        &mut out,
                        "colo_credits_balance",
                        &[("ip", ip.as_str())],
                        telemetry::FieldValue::Rate(*balance),
                    );
                }
                w.metrics(out.as_bytes())?;
            }
            Request::CsvCases { label } => {
                let Some(batch) = &last else {
                    w.err("no finished run in this session")?;
                    w.flush()?;
                    continue;
                };
                let scenarios = &batch.report().scenarios;
                let index = match &label {
                    Some(l) => scenarios.iter().position(|s| &s.label == l),
                    None => (!scenarios.is_empty()).then_some(0),
                };
                match index {
                    Some(i) => w.csv(
                        &format!("cases_{}.csv", scenarios[i].label),
                        batch.cases_csv(i, &mgr.counters).as_bytes(),
                    )?,
                    None => {
                        let label = label.as_deref().unwrap_or_default();
                        w.err(&format!("no scenario labelled {label:?}"))?;
                        w.flush()?;
                    }
                }
            }
            Request::CsvSweep => match &last {
                Some(batch) => w.csv("sweep.csv", batch.sweep_csv(&mgr.counters).as_bytes())?,
                None => {
                    w.err("no finished run in this session")?;
                    w.flush()?;
                }
            },
            Request::Batch(req) => {
                // A SUBSCRIBE attaches before it pays: a tap pays a flat
                // TAP_COST (fan-out bandwidth, not measurement), a
                // producer the full cost. A RUN/SWEEP pays first, then
                // registers its execution as a broadcast when the key
                // is free and the stream is shareable, so concurrent
                // SUBSCRIBEs ride it. A denial drops the producer
                // guard, which aborts the broadcast for any tap that
                // raced in behind us.
                let attached =
                    (req.verb == BatchVerb::Subscribe).then(|| mgr.hub.attach(req.key(&mgr.cfg)));
                let (tap, mut producer) = match attached {
                    Some(Attach::Tap(sub)) => (Some(sub), None),
                    Some(Attach::Producer(p)) => (None, Some(p)),
                    None => (None, None),
                };
                let cost = match tap {
                    Some(_) => TAP_COST,
                    None => request_cost(req.rounds, req.seeds.len()),
                };
                // A churn schedule is checked against its world before
                // the batch pays, so a refused schedule costs nothing.
                // A tap never carries one (SUBSCRIBE rejects `churn=`).
                let lease = if tap.is_none() && !req.churn.is_empty() {
                    let world_seed = req.world_seed.unwrap_or(mgr.cfg.default_world_seed);
                    let lease = mgr.pool.checkout(world_seed, req.policy);
                    if let Err(msg) = req.churn.validate(&lease.world.topo) {
                        w.err(&msg)?;
                        w.flush()?;
                        continue;
                    }
                    Some(lease)
                } else {
                    None
                };
                let Some(suffix) = charge(mgr, &mut w, peer, cost, show_credits)? else {
                    continue;
                };
                let batch = match tap {
                    Some(sub) => serve_subscription(&mut w, &sub, &suffix)?,
                    None => {
                        if producer.is_none() && req.shareable() {
                            producer = mgr.hub.try_produce(req.key(&mgr.cfg));
                        }
                        stream_batch(mgr, &mut w, &req, lease, &suffix, producer)?
                    }
                };
                last = batch.or(last);
            }
        }
    }
}

impl BatchRequest {
    /// The scenario batch this request runs: the service's base
    /// campaign specialized per seed, the in-flight bound clamped to
    /// [`MAX_JOBS_IN_FLIGHT`].
    fn sweep_config(&self, svc: &ServiceConfig) -> SweepConfig {
        let mut base = svc.base_campaign.clone();
        base.rounds = self.rounds;
        base.routing = self.policy;
        // Engines come budgeted from the pool; recording the budget here
        // keeps the config honest for anyone inspecting it.
        base.memory = svc.memory;
        let mut cfg = SweepConfig::from_seeds(&base, self.seeds.iter().copied());
        cfg.jobs_in_flight = self
            .in_flight
            .unwrap_or(cfg.jobs_in_flight)
            .clamp(1, MAX_JOBS_IN_FLIGHT);
        cfg.churn = self.churn.clone();
        if let Some(label) = &self.label {
            cfg.scenarios[0].label = label.clone();
        }
        cfg
    }

    /// The broadcast identity of this batch: resolved world seed,
    /// policy, campaign seeds and rounds. Scheduling knobs are excluded
    /// — they never change the stream bytes.
    fn key(&self, svc: &ServiceConfig) -> BroadcastKey {
        BroadcastKey {
            world_seed: self.world_seed.unwrap_or(svc.default_world_seed),
            policy: self.policy,
            seeds: self.seeds.clone(),
            rounds: self.rounds,
        }
    }
}

/// Runs one batch on the pooled engine stack, streaming `ROUND` events
/// as rounds complete and `END` events per scenario at the end,
/// terminated by `OK run 1` (one scenario) or `OK sweep <n>`. The
/// terminator depends on the scenario count alone, so every request
/// sharing a [`BroadcastKey`] gets the same bytes. When `producer` is
/// set, every event is also published to the broadcast so taps receive
/// the identical stream. `ok_suffix` (credit-spend feedback) is
/// appended only to the session-local `OK` write, never to the
/// broadcast's terminal event — balances are per-client, streams are
/// shared.
///
/// A client that disconnects mid-stream stops receiving events but the
/// batch runs to completion — the shared engine and scheduler are
/// never interrupted mid-flight, and the broadcast still finishes for
/// its taps — and the session ends right after with the write error.
///
/// `lease` is the checkout a churning batch was validated against;
/// any other batch checks its world out here.
fn stream_batch<'m>(
    mgr: &'m SessionManager,
    w: &mut ResponseWriter,
    req: &BatchRequest,
    lease: Option<PoolCheckout<'m>>,
    ok_suffix: &str,
    mut producer: Option<ProducerGuard<'_>>,
) -> std::io::Result<Option<Arc<FinishedBatch>>> {
    let cfg = req.sweep_config(&mgr.cfg);
    let ok_detail = match cfg.scenarios.len() {
        1 => "run 1".to_string(),
        n => format!("sweep {n}"),
    };
    // Lease the stack for the whole batch: the pool's evictor never
    // reclaims a leased world, and the lease drop at the end of this
    // function is what stamps the LRU detach tick.
    let lease = lease.unwrap_or_else(|| {
        let world_seed = req.world_seed.unwrap_or(mgr.cfg.default_world_seed);
        mgr.pool.checkout(world_seed, req.policy)
    });
    let (world, engine) = (Arc::clone(&lease.world), Arc::clone(&lease.engine));
    let engine = if cfg.churn.is_empty() {
        engine
    } else {
        // Churn permanently advances an engine's epoch, so a churning
        // batch measures on a PRIVATE engine stack over the pooled
        // (immutable) world — the pooled engine never sees a delta.
        world.shared().engine_budgeted(req.policy, mgr.cfg.memory)
    };
    let labels: Vec<String> = cfg.scenarios.iter().map(|s| s.label.clone()).collect();

    // Stream rounds as they complete: one `write` per round. Write
    // failures (the client went away) are remembered rather than
    // propagated mid-run: the scheduler finishes the batch — and the
    // broadcast keeps publishing for its taps — then the error ends
    // the session.
    let mut write_err: Option<std::io::Error> = None;
    let report = Sweep::with_engine(world, engine, cfg).run_streaming(|scenario, s| {
        let round = RoundLine::from_summary(&labels[scenario], s);
        if let Some(p) = &producer {
            p.publish_round(&round);
        }
        if write_err.is_some() {
            return;
        }
        if let Err(e) = w.round(&round).and_then(|()| w.flush()) {
            write_err = Some(e);
        }
    });
    let batch = Arc::new(FinishedBatch::new(report));
    // END lines leave in one write with the OK terminator.
    for sc in &batch.report().scenarios {
        let payload = format!(
            "{} seed={} cases={} pings={} unresponsive={}",
            sc.label,
            sc.seed,
            sc.results.total_cases(),
            sc.results.pings_sent,
            sc.results.unresponsive_pairs,
        );
        if let Some(p) = &producer {
            p.publish_end(&payload);
        }
        if write_err.is_none() {
            if let Err(e) = w.end(&payload) {
                write_err = Some(e);
            }
        }
    }
    if let Some(p) = producer.as_mut() {
        p.finish_ok(&ok_detail, Arc::clone(&batch));
    }
    if let Some(e) = write_err {
        return Err(e);
    }
    w.ok(&format!("{ok_detail}{ok_suffix}"))?;
    w.flush()?;
    Ok(Some(batch))
}

/// Rides an existing broadcast: replays the backlog, then streams live
/// events until the terminal one. Returns the shared batch so `CSV`
/// fetches work identically to a solo run (and render nothing the
/// producer or another tap already rendered). `ok_suffix` carries the
/// *tap's own* credit feedback — appended locally, the broadcast bytes
/// stay shared.
fn serve_subscription(
    w: &mut ResponseWriter,
    sub: &crate::broadcast::Subscription,
    ok_suffix: &str,
) -> std::io::Result<Option<Arc<FinishedBatch>>> {
    use crate::broadcast::BroadcastEvent;
    loop {
        match sub.recv() {
            Some(BroadcastEvent::Round(r)) => {
                w.round(&r)?;
                w.flush()?;
            }
            Some(BroadcastEvent::End(payload)) => {
                // END events batch; the terminal event flushes them.
                w.end(&payload)?;
            }
            Some(BroadcastEvent::Done { ok, batch }) => {
                w.ok(&format!("{ok}{ok_suffix}"))?;
                w.flush()?;
                return Ok(Some(batch));
            }
            Some(BroadcastEvent::Failed(msg)) => {
                w.err(&msg)?;
                w.flush()?;
                return Ok(None);
            }
            None => {
                let msg = if sub.was_shed() {
                    "lagged: subscriber fell behind the broadcast and was shed; \
                     re-request to resubscribe"
                } else {
                    "broadcast aborted: producer session died"
                };
                w.err(msg)?;
                w.flush()?;
                return Ok(None);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_is_bounded_and_released_on_drop() {
        let mut cfg = ServiceConfig::small();
        cfg.max_sessions = 2;
        let mgr = Arc::new(SessionManager::new(cfg));
        let a = mgr.try_admit().expect("slot 1");
        let _b = mgr.try_admit().expect("slot 2");
        assert!(mgr.try_admit().is_none(), "third session must be refused");
        assert_eq!(mgr.active_sessions(), 2);
        drop(a);
        assert_eq!(mgr.active_sessions(), 1);
        assert!(mgr.try_admit().is_some(), "freed slot must be reusable");
    }

    #[test]
    fn permit_is_released_during_unwinding() {
        let mut cfg = ServiceConfig::small();
        cfg.max_sessions = 1;
        let mgr = Arc::new(SessionManager::new(cfg));
        let mgr2 = Arc::clone(&mgr);
        let _ = std::panic::catch_unwind(move || {
            let _permit = mgr2.try_admit().expect("slot");
            panic!("session died");
        });
        assert_eq!(mgr.active_sessions(), 0, "panicked session must release");
        assert!(mgr.try_admit().is_some());
    }

    #[test]
    fn jobs_in_flight_is_clamped_to_the_service_limit() {
        let svc = ServiceConfig::small();
        let in_flight = |line: &str| {
            let req = BatchRequest::parse(line).unwrap();
            req.sweep_config(&svc).jobs_in_flight
        };
        assert_eq!(
            in_flight("SWEEP seeds=1,2 jobs-in-flight=1000"),
            MAX_JOBS_IN_FLIGHT
        );
        assert_eq!(in_flight("SWEEP seeds=1,2 jobs-in-flight=0"), 1);
        assert_eq!(in_flight("SWEEP seeds=1,2 jobs-in-flight=3"), 3);
        assert_eq!(
            in_flight("RUN seed=1 rounds-in-flight=1000"),
            MAX_JOBS_IN_FLIGHT
        );
    }

    #[test]
    fn batch_keys_resolve_defaults_and_ignore_scheduling() {
        let svc = ServiceConfig::small();
        let key = |line: &str| BatchRequest::parse(line).unwrap().key(&svc);
        let default_seed = svc.default_world_seed;
        let ka = key("SWEEP seeds=1,2 rounds=3 jobs-in-flight=2");
        let kb = key(&format!(
            "SUBSCRIBE seeds=1,2 rounds=3 world-seed={default_seed} jobs-in-flight=16"
        ));
        assert_eq!(
            ka, kb,
            "elided default world seed, jobs-in-flight and the verb must not split keys"
        );
        let kc = key(&format!(
            "SWEEP seeds=1,2 rounds=3 world-seed={}",
            default_seed + 1
        ));
        assert_ne!(ka, kc);
        assert_eq!(key("RUN seed=7 rounds=2"), key("SWEEP seeds=7 rounds=2"));
    }
}
