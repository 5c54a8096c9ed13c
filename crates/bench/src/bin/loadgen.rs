//! loadgen: open-loop load harness for the session server.
//!
//! Drives N scripted client sessions against a server — spawned
//! in-process (`--spawn`, the default) or remote (`--addr`) — with an
//! open-loop arrival schedule: session i starts at `i / rate` seconds
//! after the run begins whether or not earlier sessions finished, the
//! way real clients arrive. Each session plays one scripted workload
//! drawn from a weighted mix of `RUN` (private execution, per-session
//! campaign seed), `SUBSCRIBE` (all subscribers share one broadcast
//! key) and `STATS` probes. Denied or busy sessions retry with the
//! client's jittered exponential backoff.
//!
//! The report prints outcome counts, per-round latency percentiles
//! (gap between consecutive stream events), session-duration
//! percentiles, aggregate sessions/sec and rounds/sec, the peak
//! number of concurrently open sessions and the peak thread count of
//! the loadgen process (`Threads:` in `/proc/self/status`, sampled
//! every 2 ms; omitted where `/proc` is absent). Against a spawned
//! server that count is the thread canary: client threads, session
//! threads, the worker pool and a constant, never a multiple of the
//! pool. Exits nonzero if no session succeeded.
//!
//! ```text
//! loadgen --sessions 1024 --rate 512 --rounds 3 \
//!         --mix run=6,subscribe=3,stats=1 --retries 6
//! ```
//!
//! Flags: `--addr HOST:PORT` | `--spawn`, `--sessions N`, `--rate R`
//! (sessions/sec; 0 = all at once), `--rounds N`, `--mix SPEC`,
//! `--world-seed S`, `--framing text|binary`, `--retries N`,
//! `--json PATH` (write the summary as a machine-readable JSON
//! object — same numbers as the printed report — for CI trending).
//!
//! `--rate 0` with more sessions than the listener's accept backlog
//! (128 on Linux) deliberately provokes a thundering herd: the
//! overflow connects sit in kernel SYN retransmit for seconds to
//! minutes before the retry layer even sees them. That is a valid
//! stress mode but a misleading latency measurement — use a finite
//! rate when the percentiles are the point.

use shortcuts_service::{
    Client, CreditConfig, Framing, RetryPolicy, Server, ServiceConfig, StreamEvent,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const WORLD_SEED_DEFAULT: u64 = 7;
const SHARED_SUBSCRIBE_SEED: u64 = 4242;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Run,
    Subscribe,
    Stats,
}

#[derive(Clone)]
struct Args {
    addr: Option<String>,
    sessions: usize,
    rate: f64,
    rounds: u32,
    mix: Vec<(Workload, u32)>,
    world_seed: u64,
    framing: Framing,
    retries: u32,
    json: Option<std::path::PathBuf>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            addr: None,
            sessions: 64,
            rate: 128.0,
            rounds: 3,
            mix: vec![
                (Workload::Run, 6),
                (Workload::Subscribe, 3),
                (Workload::Stats, 1),
            ],
            world_seed: WORLD_SEED_DEFAULT,
            framing: Framing::Text,
            retries: 6,
            json: None,
        }
    }
}

fn parse_mix(spec: &str) -> Result<Vec<(Workload, u32)>, String> {
    let mut mix = Vec::new();
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        let (name, weight) = part
            .split_once('=')
            .ok_or_else(|| format!("mix entry {part:?} is not name=weight"))?;
        let weight: u32 = weight
            .parse()
            .map_err(|_| format!("mix weight {weight:?} is not a number"))?;
        let workload = match name {
            "run" => Workload::Run,
            "subscribe" => Workload::Subscribe,
            "stats" => Workload::Stats,
            other => return Err(format!("unknown workload {other:?} (run|subscribe|stats)")),
        };
        mix.push((workload, weight));
    }
    if mix.iter().all(|(_, w)| *w == 0) {
        return Err("mix has no positive weight".into());
    }
    Ok(mix)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--addr" => args.addr = Some(value("--addr")?),
            "--spawn" => args.addr = None,
            "--sessions" => {
                args.sessions = value("--sessions")?
                    .parse()
                    .map_err(|e| format!("--sessions: {e}"))?
            }
            "--rate" => {
                args.rate = value("--rate")?
                    .parse()
                    .map_err(|e| format!("--rate: {e}"))?
            }
            "--rounds" => {
                args.rounds = value("--rounds")?
                    .parse()
                    .map_err(|e| format!("--rounds: {e}"))?
            }
            "--mix" => args.mix = parse_mix(&value("--mix")?)?,
            "--world-seed" => {
                args.world_seed = value("--world-seed")?
                    .parse()
                    .map_err(|e| format!("--world-seed: {e}"))?
            }
            "--framing" => {
                let v = value("--framing")?;
                args.framing = Framing::parse(&v)
                    .ok_or_else(|| format!("--framing takes text|binary, got {v:?}"))?
            }
            "--retries" => {
                args.retries = value("--retries")?
                    .parse()
                    .map_err(|e| format!("--retries: {e}"))?
            }
            "--json" => args.json = Some(std::path::PathBuf::from(value("--json")?)),
            "--help" | "-h" => {
                println!(
                    "usage: loadgen [--addr HOST:PORT | --spawn] [--sessions N] [--rate R] \
                     [--rounds N] [--mix run=W,subscribe=W,stats=W] [--world-seed S] \
                     [--framing text|binary] [--retries N] [--json PATH]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(args)
}

/// Deterministic weighted pick: session i draws by walking the
/// cumulative weights at `i % total`, so any prefix of sessions sees
/// (roughly) the configured proportions without a RNG.
fn pick_workload(mix: &[(Workload, u32)], i: usize) -> Workload {
    let total: u32 = mix.iter().map(|(_, w)| w).sum();
    let mut slot = (i as u32) % total;
    for (workload, weight) in mix {
        if slot < *weight {
            return *workload;
        }
        slot -= weight;
    }
    mix[0].0
}

#[derive(Default)]
struct Tally {
    ok: AtomicU64,
    lagged: AtomicU64,
    denied: AtomicU64,
    failed: AtomicU64,
    rounds: AtomicU64,
    concurrent: AtomicU64,
    peak_concurrent: AtomicU64,
}

impl Tally {
    fn enter(&self) {
        let now = self.concurrent.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak_concurrent.fetch_max(now, Ordering::SeqCst);
    }
    fn leave(&self) {
        self.concurrent.fetch_sub(1, Ordering::SeqCst);
    }
}

struct SessionResult {
    round_latencies: Vec<Duration>,
    duration: Duration,
}

/// Runs one scripted session; classifies the outcome into the tally
/// and returns its timings (empty on failure).
fn run_session(addr: &str, args: &Args, i: usize, tally: &Tally) -> SessionResult {
    let start = Instant::now();
    let policy = RetryPolicy::with_attempts(args.retries);
    let workload = pick_workload(&args.mix, i);
    tally.enter();
    let mut round_latencies = Vec::new();
    let outcome = (|| -> Result<(), std::io::Error> {
        let mut client = Client::connect_with_retry(addr, policy)?;
        if args.framing != Framing::Text {
            client.negotiate(args.framing)?;
        }
        match workload {
            Workload::Stats => {
                client.stats()?;
            }
            Workload::Run | Workload::Subscribe => {
                let (verb, seed) = if workload == Workload::Run {
                    // Distinct campaign seeds keep RUNs private work.
                    ("RUN", 10_000 + i as u64)
                } else {
                    // All subscribers share one broadcast key.
                    ("SUBSCRIBE", SHARED_SUBSCRIBE_SEED)
                };
                let request = format!(
                    "{verb} seed={seed} rounds={} world-seed={}",
                    args.rounds, args.world_seed
                );
                let mut last = Instant::now();
                client.run_streaming_with_retry(&request, policy, |e| {
                    if matches!(e, StreamEvent::Round(_)) {
                        round_latencies.push(last.elapsed());
                        last = Instant::now();
                    }
                })?;
            }
        }
        client.quit();
        Ok(())
    })();
    tally.leave();
    tally
        .rounds
        .fetch_add(round_latencies.len() as u64, Ordering::Relaxed);
    match outcome {
        Ok(()) => {
            tally.ok.fetch_add(1, Ordering::Relaxed);
        }
        Err(e) => {
            let msg = e.to_string();
            let bucket = if msg.contains("lagged") {
                &tally.lagged
            } else if msg.contains("ERR credits") || msg.contains("ERR busy") {
                &tally.denied
            } else {
                &tally.failed
            };
            bucket.fetch_add(1, Ordering::Relaxed);
            round_latencies.clear();
        }
    }
    SessionResult {
        round_latencies,
        duration: start.elapsed(),
    }
}

/// This process's current thread count, from `/proc/self/status`;
/// `None` where `/proc` is absent.
fn threads_now() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))?
        .trim()
        .parse()
        .ok()
}

/// Samples [`threads_now`] every 2 ms on a thread of its own (counted
/// in what it samples) and keeps the peak.
struct ThreadSampler {
    peak: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
}

impl ThreadSampler {
    /// Starts sampling; `None` where `/proc` is absent.
    fn start() -> Option<ThreadSampler> {
        threads_now()?;
        let peak = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let (p, s) = (Arc::clone(&peak), Arc::clone(&stop));
        let handle = std::thread::spawn(move || {
            while !s.load(Ordering::Relaxed) {
                if let Some(n) = threads_now() {
                    p.fetch_max(n, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        Some(ThreadSampler { peak, stop, handle })
    }

    /// Stops sampling and returns the peak.
    fn finish(self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("thread sampler");
        self.peak.load(Ordering::Relaxed)
    }
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn print_percentiles(label: &str, sorted: &[Duration]) {
    println!(
        "  {label}: p50 {:8.2?}  p90 {:8.2?}  p99 {:8.2?}  max {:8.2?}  (n={})",
        percentile(sorted, 50.0),
        percentile(sorted, 90.0),
        percentile(sorted, 99.0),
        sorted.last().copied().unwrap_or(Duration::ZERO),
        sorted.len(),
    );
}

/// Renders the percentile summary of a sorted sample set as a JSON
/// object (seconds, `{:.6}` — same numbers as the printed report).
fn json_percentiles(sorted: &[Duration]) -> String {
    format!(
        r#"{{"p50_s":{:.6},"p90_s":{:.6},"p99_s":{:.6},"max_s":{:.6},"n":{}}}"#,
        percentile(sorted, 50.0).as_secs_f64(),
        percentile(sorted, 90.0).as_secs_f64(),
        percentile(sorted, 99.0).as_secs_f64(),
        sorted
            .last()
            .copied()
            .unwrap_or(Duration::ZERO)
            .as_secs_f64(),
        sorted.len(),
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(2);
        }
    };

    let sampler = ThreadSampler::start();
    // A spawned server admits the whole fleet and never denies on
    // credits: loadgen measures serving capacity, not admission
    // policy. Point --addr at a configured server to test the latter.
    let max_sessions = args.sessions + 16;
    let spawned = if args.addr.is_none() {
        let mut cfg = ServiceConfig::small();
        cfg.max_sessions = max_sessions;
        cfg.default_world_seed = args.world_seed;
        cfg.credits = CreditConfig::generous();
        Some(Server::start("127.0.0.1:0", cfg).expect("spawn server"))
    } else {
        None
    };
    let addr = args
        .addr
        .clone()
        .unwrap_or_else(|| spawned.as_ref().unwrap().local_addr().to_string());

    println!(
        "loadgen: {} sessions at {}/s against {addr} ({} server), rounds={}, mix={:?}, \
         framing={}, retries={}",
        args.sessions,
        args.rate,
        if spawned.is_some() {
            "spawned"
        } else {
            "remote"
        },
        args.rounds,
        args.mix,
        args.framing.label(),
        args.retries,
    );

    let tally = Arc::new(Tally::default());
    let begin = Instant::now();
    let results: Vec<SessionResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.sessions)
            .map(|i| {
                let addr = addr.as_str();
                let args = &args;
                let tally = Arc::clone(&tally);
                scope.spawn(move || {
                    // Open-loop arrival: session i starts on schedule
                    // regardless of how earlier sessions are doing.
                    if args.rate > 0.0 {
                        let due = Duration::from_secs_f64(i as f64 / args.rate);
                        let elapsed = begin.elapsed();
                        if due > elapsed {
                            std::thread::sleep(due - elapsed);
                        }
                    }
                    run_session(addr, args, i, &tally)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = begin.elapsed().as_secs_f64();
    let peak_threads = sampler.map(ThreadSampler::finish);

    let ok = tally.ok.load(Ordering::Relaxed);
    let lagged = tally.lagged.load(Ordering::Relaxed);
    let denied = tally.denied.load(Ordering::Relaxed);
    let failed = tally.failed.load(Ordering::Relaxed);
    let rounds = tally.rounds.load(Ordering::Relaxed);
    println!(
        "outcomes: {ok} ok, {lagged} lagged, {denied} denied, {failed} failed \
         ({} sessions in {wall:.2}s)",
        args.sessions
    );
    println!(
        "throughput: {:.1} sessions/s, {:.1} rounds/s, peak {} concurrent sessions",
        args.sessions as f64 / wall,
        rounds as f64 / wall,
        tally.peak_concurrent.load(Ordering::Relaxed),
    );
    let mut round_latencies: Vec<Duration> = results
        .iter()
        .flat_map(|r| r.round_latencies.iter().copied())
        .collect();
    round_latencies.sort();
    let mut session_durations: Vec<Duration> = results.iter().map(|r| r.duration).collect();
    session_durations.sort();
    print_percentiles("round latency   ", &round_latencies);
    print_percentiles("session duration", &session_durations);
    if let Some(peak) = peak_threads {
        println!("threads: peak {peak} in this process");
    }

    if let Some(path) = &args.json {
        // Machine-readable mirror of the printed report, for CI
        // trending. Hand-rolled: every value is a number, so no
        // escaping is needed and no JSON dependency is worth it. The
        // spawned server's `max_sessions` rides along for the thread
        // canary's bound.
        let mut extra = String::new();
        if spawned.is_some() {
            extra.push_str(&format!("\"max_sessions\":{max_sessions},"));
        }
        if let Some(peak) = peak_threads {
            extra.push_str(&format!("\"peak_threads\":{peak},"));
        }
        let json = format!(
            concat!(
                "{{\"sessions\":{},\"ok\":{},\"lagged\":{},\"denied\":{},\"failed\":{},",
                "\"rounds\":{},\"wall_s\":{:.3},\"sessions_per_s\":{:.3},",
                "\"rounds_per_s\":{:.3},\"peak_concurrent\":{},{}",
                "\"round_latency\":{},\"session_duration\":{}}}\n"
            ),
            args.sessions,
            ok,
            lagged,
            denied,
            failed,
            rounds,
            wall,
            args.sessions as f64 / wall,
            rounds as f64 / wall,
            tally.peak_concurrent.load(Ordering::Relaxed),
            extra,
            json_percentiles(&round_latencies),
            json_percentiles(&session_durations),
        );
        std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
        eprintln!("wrote {}", path.display());
    }

    if let Some(server) = spawned {
        server.shutdown();
    }
    if ok == 0 {
        eprintln!("loadgen: every session failed");
        std::process::exit(1);
    }
}
