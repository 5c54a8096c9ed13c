//! SUBSCRIBE fan-out: one execution, many byte-identical streams.
//!
//! The sweep determinism contract (a concurrent scenario is
//! bit-identical to a solo run) means two clients asking for the same
//! `(world_seed, policy, seeds, rounds)` batch are asking for the same
//! bytes — re-executing the campaign per client is pure waste. The
//! [`BroadcastHub`] deduplicates: the first session to ask becomes the
//! **producer** and executes normally, publishing every `ROUND`/`END`
//! event as it streams them to its own client; later sessions become
//! **taps** that replay the backlog and then ride the live stream,
//! paying none of the measurement cost.
//!
//! Fan-out must never slow the producer down, so each tap gets a
//! *bounded* queue sized `backlog + lag`: the producer's publish is a
//! `try_push`, and a tap that falls more than `lag` events behind is
//! **shed** — its queue is closed with a shed marker, the session
//! reports `ERR lagged` to its client, and the producer moves on
//! without ever blocking. (The queues are built on `std::sync`
//! `Mutex`/`Condvar` because the vendored `parking_lot` deliberately
//! exposes only locks; lock poisoning is neutralized by taking the
//! inner state on either side of a panic.)
//!
//! Finished broadcasts linger in a small done-cache so a SUBSCRIBE
//! that arrives just after the last round still gets a full replay —
//! the "pool-cached run" case — without re-executing anything. What
//! the terminal event carries is a [`FinishedBatch`]: the report plus
//! its CSV payloads, rendered on the first `CSV` fetch and shared by
//! every tap and every repeat fetch after it. The payloads live and
//! die with the batch (a session's last run, or this cache, already
//! bounded by `broadcast_cache`), so nothing here evicts or sizes them.
//!
//! A producer that dies (client gone, panic unwound by the server's
//! `catch_unwind`) must not strand its taps: [`ProducerGuard`]'s drop
//! finishes the broadcast with a `Failed` terminal event, so every tap
//! wakes up and reports `ERR broadcast aborted` instead of hanging.

use crate::frame::RoundLine;
use parking_lot::Mutex;
use shortcuts_core::report::cases_csv;
use shortcuts_core::sweep::SweepReport;
use shortcuts_topology::routing::RoutingPolicy;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, OnceLock};

/// Identity of a broadcastable batch: requests with equal keys are
/// guaranteed byte-identical response streams by the determinism
/// contract. Scheduling knobs (`jobs-in-flight`) are deliberately NOT
/// part of the key — they change wall-clock, never bytes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BroadcastKey {
    /// Resolved world seed (the server default is applied before
    /// keying, so `world-seed=2017` and an elided default of 2017
    /// share a broadcast).
    pub world_seed: u64,
    /// Routing policy.
    pub policy: RoutingPolicy,
    /// Campaign seeds in request order.
    pub seeds: Vec<u64>,
    /// Rounds per scenario.
    pub rounds: u32,
}

/// A finished batch and the CSV payloads derived from it.
///
/// The payloads are a pure function of the report, so each is rendered
/// at most once — by whichever session fetches it first — and every
/// later fetch, from any session holding the batch, borrows the same
/// bytes.
#[derive(Debug)]
pub struct FinishedBatch {
    report: SweepReport,
    /// `cases.csv` per scenario, in report order.
    cases: Vec<OnceLock<String>>,
    sweep: OnceLock<String>,
}

impl FinishedBatch {
    /// Wraps a finished report; nothing is rendered yet.
    pub fn new(report: SweepReport) -> FinishedBatch {
        FinishedBatch {
            cases: report.scenarios.iter().map(|_| OnceLock::new()).collect(),
            sweep: OnceLock::new(),
            report,
        }
    }

    /// The report itself.
    pub fn report(&self) -> &SweepReport {
        &self.report
    }

    /// `cases.csv` of scenario `index` (which must exist), counting the
    /// fetch and — the first time — the render.
    pub fn cases_csv(&self, index: usize, counters: &ServiceCounters) -> &str {
        fetch(&self.cases[index], counters, || {
            cases_csv(&self.report.scenarios[index].results)
        })
    }

    /// The cross-scenario `sweep.csv`, counted like
    /// [`FinishedBatch::cases_csv`].
    pub fn sweep_csv(&self, counters: &ServiceCounters) -> &str {
        fetch(&self.sweep, counters, || self.report.comparison_csv())
    }
}

/// One payload fetch: counted, and rendered if nobody has yet. The
/// fetch counts before its render so `csv_renders <= csv_fetches`.
fn fetch<'a>(
    payload: &'a OnceLock<String>,
    counters: &ServiceCounters,
    render: impl FnOnce() -> String,
) -> &'a str {
    counters.csv_fetched();
    payload.get_or_init(|| {
        counters.csv_rendered();
        render()
    })
}

/// One event of a broadcast stream, cheap to clone across N taps.
#[derive(Debug, Clone)]
pub enum BroadcastEvent {
    /// A completed round.
    Round(Arc<RoundLine>),
    /// An `END` payload for one scenario.
    End(Arc<str>),
    /// Terminal: the batch finished; `ok` is the `OK` detail and the
    /// batch backs the taps' `CSV` fetches.
    Done {
        /// `OK` detail (`run 1` / `sweep <n>`).
        ok: Arc<str>,
        /// The finished batch, shared by every tap.
        batch: Arc<FinishedBatch>,
    },
    /// Terminal: the producer failed; taps report this as `ERR`.
    Failed(Arc<str>),
}

/// Service-wide fan-out and admission counters, surfaced on the
/// `STATS service` line.
#[derive(Debug, Default)]
pub struct ServiceCounters {
    subscribers: AtomicU64,
    broadcasts: AtomicU64,
    rounds_fanned_out: AtomicU64,
    subscribers_shed: AtomicU64,
    credits_denied: AtomicU64,
    csv_fetches: AtomicU64,
    csv_renders: AtomicU64,
}

impl ServiceCounters {
    /// Records one credit-admission denial.
    pub fn credit_denied(&self) {
        self.credits_denied.fetch_add(1, Ordering::Relaxed);
    }

    fn csv_fetched(&self) {
        self.csv_fetches.fetch_add(1, Ordering::Relaxed);
    }

    /// Release, paired with the Acquire load in `snapshot`: whoever
    /// sees this render also sees the fetch counted just before it.
    fn csv_rendered(&self) {
        self.csv_renders.fetch_add(1, Ordering::Release);
    }

    /// A consistent-enough snapshot for reporting.
    pub fn snapshot(&self) -> ServiceStats {
        ServiceStats {
            subscribers: self.subscribers.load(Ordering::Relaxed),
            broadcasts: self.broadcasts.load(Ordering::Relaxed),
            rounds_fanned_out: self.rounds_fanned_out.load(Ordering::Relaxed),
            subscribers_shed: self.subscribers_shed.load(Ordering::Relaxed),
            credits_denied: self.credits_denied.load(Ordering::Relaxed),
            // Renders first (Acquire, see `csv_rendered`): a fetch counts
            // before its render, so `csv_renders <= csv_fetches` holds
            // in every snapshot.
            csv_renders: self.csv_renders.load(Ordering::Acquire),
            csv_fetches: self.csv_fetches.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of [`ServiceCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Taps currently attached (gauge).
    pub subscribers: u64,
    /// Broadcasts ever produced.
    pub broadcasts: u64,
    /// Round events delivered to taps (live + backlog replay).
    pub rounds_fanned_out: u64,
    /// Taps shed for falling behind.
    pub subscribers_shed: u64,
    /// Requests denied by credit admission.
    pub credits_denied: u64,
    /// `CSV` payloads served.
    pub csv_fetches: u64,
    /// `CSV` payloads rendered; the difference to `csv_fetches` is what
    /// [`FinishedBatch`] served from an earlier render.
    pub csv_renders: u64,
}

impl ServiceStats {
    /// The stats as a flat field list — the single source for both the
    /// `STATS service` line and the `METRICS` exposition.
    pub fn fields(&self) -> Vec<shortcuts_telemetry::Field> {
        use shortcuts_telemetry::Field;
        vec![
            Field::int("subscribers", self.subscribers),
            Field::int("broadcasts", self.broadcasts),
            Field::int("rounds_fanned_out", self.rounds_fanned_out),
            Field::int("subscribers_shed", self.subscribers_shed),
            Field::int("credits_denied", self.credits_denied),
            Field::int("csv_fetches", self.csv_fetches),
            Field::int("csv_renders", self.csv_renders),
        ]
    }

    /// The `STATS service` payload. Rendered from
    /// [`ServiceStats::fields`].
    pub fn summary(&self) -> String {
        shortcuts_telemetry::kv_summary(&self.fields())
    }
}

enum PushOutcome {
    Delivered,
    Full,
    Gone,
}

/// One tap's bounded queue. Strict capacity: a queue with capacity 0
/// rejects every live push (useful to force shedding deterministically
/// in tests and to disable lag entirely).
struct TapQueue {
    state: StdMutex<TapState>,
    ready: Condvar,
}

struct TapState {
    buf: VecDeque<BroadcastEvent>,
    cap: usize,
    closed: bool,
    shed: bool,
}

impl TapQueue {
    fn with_cap(cap: usize) -> TapQueue {
        TapQueue {
            state: StdMutex::new(TapState {
                buf: VecDeque::new(),
                cap,
                closed: false,
                shed: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TapState> {
        // Non-poisoning by construction: no user code runs under this
        // lock, and a receiver that panicked mid-recv leaves the state
        // consistent.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn push(&self, ev: BroadcastEvent) -> PushOutcome {
        let mut st = self.lock();
        if st.closed {
            return PushOutcome::Gone;
        }
        if st.buf.len() >= st.cap {
            return PushOutcome::Full;
        }
        st.buf.push_back(ev);
        drop(st);
        self.ready.notify_one();
        PushOutcome::Delivered
    }

    /// Closes the queue marking the tap as shed; buffered events stay
    /// drainable so the tap's client sees everything up to the point
    /// it fell behind, then `ERR lagged`.
    fn shed(&self) {
        let mut st = self.lock();
        st.shed = true;
        st.closed = true;
        drop(st);
        self.ready.notify_one();
    }

    fn close(&self) {
        let mut st = self.lock();
        st.closed = true;
        drop(st);
        self.ready.notify_one();
    }

    fn recv(&self) -> Option<BroadcastEvent> {
        let mut st = self.lock();
        loop {
            if let Some(ev) = st.buf.pop_front() {
                return Some(ev);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn was_shed(&self) -> bool {
        self.lock().shed
    }
}

/// A tap's receiving end. Dropping it closes the queue (the producer
/// stops cloning events for it) and releases the subscriber gauge.
pub struct Subscription {
    q: Arc<TapQueue>,
    counters: Arc<ServiceCounters>,
}

impl Subscription {
    /// Blocks for the next event; `None` once the queue is closed and
    /// drained — check [`Subscription::was_shed`] to distinguish a
    /// shed tap from a producer that never finished.
    pub fn recv(&self) -> Option<BroadcastEvent> {
        self.q.recv()
    }

    /// True when this tap was dropped by the producer for lagging.
    pub fn was_shed(&self) -> bool {
        self.q.was_shed()
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.q.close();
        self.counters.subscribers.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One in-flight (or finished-and-cached) broadcast: the event log so
/// far plus the live taps.
struct Broadcast {
    state: Mutex<BroadcastState>,
}

struct BroadcastState {
    log: Vec<BroadcastEvent>,
    terminal: Option<BroadcastEvent>,
    taps: Vec<Arc<TapQueue>>,
}

impl Broadcast {
    fn new() -> Broadcast {
        Broadcast {
            state: Mutex::new(BroadcastState {
                log: Vec::new(),
                terminal: None,
                taps: Vec::new(),
            }),
        }
    }

    /// Attaches a tap: the backlog (always delivered in full) plus up
    /// to `lag` live events of headroom. A finished broadcast yields a
    /// pure replay — the queue closes right after the terminal event.
    fn subscribe(&self, lag: usize, counters: &Arc<ServiceCounters>) -> Subscription {
        let mut st = self.state.lock();
        let backlog = st.log.len() + usize::from(st.terminal.is_some());
        let q = Arc::new(TapQueue::with_cap(backlog + lag));
        let mut replayed_rounds = 0u64;
        for ev in &st.log {
            if matches!(ev, BroadcastEvent::Round(_)) {
                replayed_rounds += 1;
            }
            // Sized to fit: these pushes cannot fail.
            let _ = q.push(ev.clone());
        }
        if let Some(t) = &st.terminal {
            let _ = q.push(t.clone());
            q.close();
        } else {
            st.taps.push(Arc::clone(&q));
        }
        drop(st);
        counters.subscribers.fetch_add(1, Ordering::Relaxed);
        counters
            .rounds_fanned_out
            .fetch_add(replayed_rounds, Ordering::Relaxed);
        Subscription {
            q,
            counters: Arc::clone(counters),
        }
    }

    /// Publishes one non-terminal event: appended to the log for late
    /// taps, try-pushed to every live tap. A full queue sheds its tap
    /// on the spot — the producer never blocks.
    fn publish(&self, ev: BroadcastEvent, counters: &ServiceCounters) {
        let is_round = matches!(ev, BroadcastEvent::Round(_));
        let mut st = self.state.lock();
        st.log.push(ev.clone());
        st.taps.retain(|q| match q.push(ev.clone()) {
            PushOutcome::Delivered => {
                if is_round {
                    counters.rounds_fanned_out.fetch_add(1, Ordering::Relaxed);
                }
                true
            }
            PushOutcome::Full => {
                q.shed();
                counters.subscribers_shed.fetch_add(1, Ordering::Relaxed);
                false
            }
            PushOutcome::Gone => false,
        });
    }

    /// Publishes the terminal event and closes every tap.
    fn finish(&self, terminal: BroadcastEvent, counters: &ServiceCounters) {
        let mut st = self.state.lock();
        st.terminal = Some(terminal.clone());
        for q in st.taps.drain(..) {
            if let PushOutcome::Full = q.push(terminal.clone()) {
                q.shed();
                counters.subscribers_shed.fetch_add(1, Ordering::Relaxed);
            }
            q.close();
        }
    }
}

/// The hub: live broadcasts by key, plus a bounded done-cache for
/// replay.
pub struct BroadcastHub {
    lag: usize,
    keep_done: usize,
    counters: Arc<ServiceCounters>,
    inner: Mutex<HubInner>,
}

struct HubInner {
    live: HashMap<BroadcastKey, Arc<Broadcast>>,
    done: VecDeque<(BroadcastKey, Arc<Broadcast>)>,
}

/// Result of [`BroadcastHub::attach`]: either this session executes
/// (and publishes), or it taps an existing execution.
pub enum Attach<'h> {
    /// No broadcast for the key: the caller is the producer.
    Producer(ProducerGuard<'h>),
    /// A live or cached broadcast exists: ride it.
    Tap(Subscription),
}

impl BroadcastHub {
    /// `lag` is each tap's live-event headroom; `keep_done` bounds the
    /// finished-broadcast replay cache (0 disables replay).
    pub fn new(lag: usize, keep_done: usize, counters: Arc<ServiceCounters>) -> BroadcastHub {
        BroadcastHub {
            lag,
            keep_done,
            counters,
            inner: Mutex::new(HubInner {
                live: HashMap::new(),
                done: VecDeque::new(),
            }),
        }
    }

    /// The shared counters (also surfaced via the session manager).
    pub fn counters(&self) -> &Arc<ServiceCounters> {
        &self.counters
    }

    /// SUBSCRIBE semantics: tap a live or cached broadcast when one
    /// exists, otherwise become the producer.
    pub fn attach(&self, key: BroadcastKey) -> Attach<'_> {
        let mut inner = self.inner.lock();
        if let Some(b) = inner.live.get(&key) {
            let b = Arc::clone(b);
            drop(inner);
            return Attach::Tap(b.subscribe(self.lag, &self.counters));
        }
        if let Some((_, b)) = inner.done.iter().find(|(k, _)| *k == key) {
            let b = Arc::clone(b);
            drop(inner);
            return Attach::Tap(b.subscribe(self.lag, &self.counters));
        }
        Attach::Producer(self.produce_locked(&mut inner, key))
    }

    /// RUN/SWEEP semantics: execute unconditionally, but register the
    /// execution as a broadcast when the key is free so concurrent
    /// SUBSCRIBEs can ride it. `None` means another producer holds the
    /// key — the caller just runs privately (it must not tap: the
    /// client asked for an execution, and deduplicating RUNs would
    /// skew any RUN-vs-SUBSCRIBE comparison).
    pub fn try_produce(&self, key: BroadcastKey) -> Option<ProducerGuard<'_>> {
        let mut inner = self.inner.lock();
        if inner.live.contains_key(&key) {
            return None;
        }
        // A fresh execution supersedes a cached finished one.
        inner.done.retain(|(k, _)| *k != key);
        Some(self.produce_locked(&mut inner, key))
    }

    fn produce_locked(&self, inner: &mut HubInner, key: BroadcastKey) -> ProducerGuard<'_> {
        let b = Arc::new(Broadcast::new());
        inner.live.insert(key.clone(), Arc::clone(&b));
        self.counters.broadcasts.fetch_add(1, Ordering::Relaxed);
        ProducerGuard {
            hub: self,
            key,
            b,
            finished: false,
        }
    }

    /// True while a producer holds `key` (tests use this to
    /// deterministically attach mid-flight).
    pub fn has_live(&self, key: &BroadcastKey) -> bool {
        self.inner.lock().live.contains_key(key)
    }

    fn complete(&self, key: &BroadcastKey, broadcast: &Arc<Broadcast>, cache: bool) {
        let mut inner = self.inner.lock();
        // Guard against a newer producer having reclaimed the key
        // after this one's entry was removed.
        if let Some(b) = inner.live.get(key) {
            if Arc::ptr_eq(b, broadcast) {
                let b = inner.live.remove(key).unwrap();
                if cache && self.keep_done > 0 {
                    inner.done.push_back((key.clone(), b));
                    while inner.done.len() > self.keep_done {
                        inner.done.pop_front();
                    }
                }
            }
        }
    }
}

/// Producer handle: publish events, then finish exactly once. Dropped
/// unfinished (client write error, panic unwinding), it fails the
/// broadcast so taps never hang.
pub struct ProducerGuard<'h> {
    hub: &'h BroadcastHub,
    key: BroadcastKey,
    b: Arc<Broadcast>,
    finished: bool,
}

impl ProducerGuard<'_> {
    /// Publishes one completed round.
    pub fn publish_round(&self, r: &RoundLine) {
        self.b.publish(
            BroadcastEvent::Round(Arc::new(r.clone())),
            &self.hub.counters,
        );
    }

    /// Publishes one scenario's `END` payload.
    pub fn publish_end(&self, payload: &str) {
        self.b
            .publish(BroadcastEvent::End(Arc::from(payload)), &self.hub.counters);
    }

    /// Finishes successfully: taps get the `OK` detail and the shared
    /// batch, and the broadcast moves to the replay cache.
    pub fn finish_ok(&mut self, ok: &str, batch: Arc<FinishedBatch>) {
        self.finished = true;
        self.b.finish(
            BroadcastEvent::Done {
                ok: Arc::from(ok),
                batch,
            },
            &self.hub.counters,
        );
        self.hub.complete(&self.key, &self.b, true);
    }

    /// Finishes with an error: taps get `ERR <msg>`, nothing is
    /// cached.
    pub fn finish_err(&mut self, msg: &str) {
        self.finished = true;
        self.b
            .finish(BroadcastEvent::Failed(Arc::from(msg)), &self.hub.counters);
        self.hub.complete(&self.key, &self.b, false);
    }
}

impl Drop for ProducerGuard<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.finish_err("broadcast aborted: producer session died");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seed: u64) -> BroadcastKey {
        BroadcastKey {
            world_seed: 90,
            policy: RoutingPolicy::default(),
            seeds: vec![seed],
            rounds: 2,
        }
    }

    fn round(n: u32) -> RoundLine {
        RoundLine {
            label: "seed-1".into(),
            round: n,
            endpoints: 10,
            pairs: 45,
            cases: 40,
            unresponsive: 5,
            links_measured: 3,
            links_planned: 4,
            symmetry: 1,
        }
    }

    fn empty_batch() -> Arc<FinishedBatch> {
        Arc::new(FinishedBatch::new(SweepReport { scenarios: vec![] }))
    }

    fn hub(lag: usize, keep_done: usize) -> BroadcastHub {
        BroadcastHub::new(lag, keep_done, Arc::new(ServiceCounters::default()))
    }

    fn drain(sub: &Subscription) -> Vec<String> {
        let mut out = Vec::new();
        while let Some(ev) = sub.recv() {
            out.push(match ev {
                BroadcastEvent::Round(r) => format!("ROUND {}", r.payload()),
                BroadcastEvent::End(p) => format!("END {p}"),
                BroadcastEvent::Done { ok, .. } => format!("OK {ok}"),
                BroadcastEvent::Failed(msg) => format!("ERR {msg}"),
            });
        }
        out
    }

    #[test]
    fn taps_see_backlog_then_live_events_in_order() {
        let hub = hub(16, 2);
        let Attach::Producer(mut p) = hub.attach(key(1)) else {
            panic!("first attach must produce");
        };
        p.publish_round(&round(0));
        // Tap attaches mid-flight: backlog replay + live.
        let Attach::Tap(tap) = hub.attach(key(1)) else {
            panic!("second attach must tap");
        };
        p.publish_round(&round(1));
        p.publish_end("seed-1 seed=1 cases=2 pings=2 unresponsive=0");
        p.finish_ok("run 1", empty_batch());
        let events = drain(&tap);
        assert_eq!(events.len(), 4);
        assert!(events[0].starts_with("ROUND seed-1 0 "));
        assert!(events[1].starts_with("ROUND seed-1 1 "));
        assert!(events[2].starts_with("END seed-1 "));
        assert_eq!(events[3], "OK run 1");
        assert!(!tap.was_shed());
    }

    #[test]
    fn finished_broadcasts_replay_from_the_done_cache() {
        let hub = hub(16, 2);
        let Attach::Producer(mut p) = hub.attach(key(1)) else {
            panic!()
        };
        p.publish_round(&round(0));
        p.finish_ok("run 1", empty_batch());
        assert!(!hub.has_live(&key(1)));
        // Late subscriber: pure replay, no new execution.
        let Attach::Tap(tap) = hub.attach(key(1)) else {
            panic!("done-cache must serve a tap");
        };
        let events = drain(&tap);
        assert_eq!(events.len(), 2);
        assert_eq!(events[1], "OK run 1");
        assert_eq!(hub.counters().snapshot().broadcasts, 1);
    }

    #[test]
    fn done_cache_is_bounded_and_evicts_oldest() {
        let hub = hub(16, 1);
        for seed in [1, 2] {
            let Attach::Producer(mut p) = hub.attach(key(seed)) else {
                panic!()
            };
            p.finish_ok("run 1", empty_batch());
        }
        // Key 1 was evicted by key 2; attaching re-produces.
        assert!(matches!(hub.attach(key(1)), Attach::Producer(_)));
        assert!(matches!(hub.attach(key(2)), Attach::Tap(_)));
    }

    #[test]
    fn slow_taps_are_shed_and_the_producer_never_blocks() {
        let hub = hub(0, 2); // zero lag: any live push overflows
        let Attach::Producer(mut p) = hub.attach(key(1)) else {
            panic!()
        };
        let Attach::Tap(tap) = hub.attach(key(1)) else {
            panic!()
        };
        // Empty backlog + lag 0 = capacity 0: the first publish sheds.
        p.publish_round(&round(0));
        p.publish_round(&round(1));
        p.finish_ok("run 1", empty_batch());
        assert_eq!(drain(&tap), Vec::<String>::new());
        assert!(tap.was_shed());
        let snap = hub.counters().snapshot();
        assert_eq!(snap.subscribers_shed, 1);
        assert_eq!(snap.rounds_fanned_out, 0);
    }

    #[test]
    fn shed_taps_keep_their_buffered_prefix() {
        let hub = hub(1, 2);
        let Attach::Producer(mut p) = hub.attach(key(1)) else {
            panic!()
        };
        let Attach::Tap(tap) = hub.attach(key(1)) else {
            panic!()
        };
        p.publish_round(&round(0)); // fits (cap 1)
        p.publish_round(&round(1)); // overflows: tap shed
        p.finish_ok("run 1", empty_batch());
        let events = drain(&tap);
        assert_eq!(events.len(), 1, "the buffered prefix must survive");
        assert!(events[0].starts_with("ROUND seed-1 0 "));
        assert!(tap.was_shed());
    }

    #[test]
    fn dropped_producer_fails_its_taps_instead_of_hanging_them() {
        let hub = hub(16, 2);
        let Attach::Producer(p) = hub.attach(key(1)) else {
            panic!()
        };
        let Attach::Tap(tap) = hub.attach(key(1)) else {
            panic!()
        };
        drop(p); // producer died without finishing
        let events = drain(&tap);
        assert_eq!(events.len(), 1);
        assert!(events[0].starts_with("ERR broadcast aborted"));
        assert!(!tap.was_shed());
        assert!(!hub.has_live(&key(1)), "failed broadcasts are not cached");
        assert!(matches!(hub.attach(key(1)), Attach::Producer(_)));
    }

    #[test]
    fn try_produce_declines_while_the_key_is_held() {
        let hub = hub(16, 2);
        let p = hub.try_produce(key(1)).expect("free key");
        assert!(hub.try_produce(key(1)).is_none(), "key is held");
        drop(p);
        assert!(
            hub.try_produce(key(1)).is_some(),
            "aborted producer must free the key"
        );
    }

    #[test]
    fn try_produce_supersedes_the_done_cache() {
        let hub = hub(16, 2);
        let mut p = hub.try_produce(key(1)).expect("free key");
        p.finish_ok("run 1", empty_batch());
        // A fresh RUN replaces the cached broadcast rather than being
        // deduplicated into it.
        assert!(hub.try_produce(key(1)).is_some());
    }

    #[test]
    fn dropped_subscription_stops_receiving_fanout() {
        let hub = hub(16, 2);
        let Attach::Producer(mut p) = hub.attach(key(1)) else {
            panic!()
        };
        let Attach::Tap(tap) = hub.attach(key(1)) else {
            panic!()
        };
        assert_eq!(hub.counters().snapshot().subscribers, 1);
        drop(tap);
        assert_eq!(hub.counters().snapshot().subscribers, 0);
        p.publish_round(&round(0));
        p.finish_ok("run 1", empty_batch());
        // The dropped tap was pruned: only its own drop decremented
        // the gauge, and no round was fanned out to it.
        assert_eq!(hub.counters().snapshot().rounds_fanned_out, 0);
    }

    #[test]
    fn concurrent_taps_all_see_identical_streams() {
        let hub = Arc::new(hub(64, 2));
        let Attach::Producer(mut p) = hub.attach(key(1)) else {
            panic!()
        };
        let taps: Vec<_> = (0..4)
            .map(|_| match hub.attach(key(1)) {
                Attach::Tap(t) => t,
                Attach::Producer(_) => panic!("key is live"),
            })
            .collect();
        let handles: Vec<_> = taps
            .into_iter()
            .map(|t| std::thread::spawn(move || drain(&t)))
            .collect();
        for n in 0..8 {
            p.publish_round(&round(n));
        }
        p.publish_end("seed-1 seed=1 cases=8 pings=8 unresponsive=0");
        p.finish_ok("run 1", empty_batch());
        let streams: Vec<Vec<String>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for s in &streams[1..] {
            assert_eq!(s, &streams[0], "every tap must see identical bytes");
        }
        assert_eq!(streams[0].len(), 10);
        let snap = hub.counters().snapshot();
        assert_eq!(snap.rounds_fanned_out, 32);
        assert_eq!(snap.subscribers_shed, 0);
    }
}
