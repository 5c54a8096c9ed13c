//! The two serve workloads: `serve_private` and `serve_fanout`.
//!
//! An in-process `Server` on an ephemeral port, driven by a closed
//! loop: each of (at most) two client threads opens its next session
//! only after the previous one is acknowledged, so the ledger process
//! never has more than `nproc` connections in flight and measures the
//! service, not the scheduler. The untraced pass keeps two timestamps
//! per session (first ROUND, QUIT acknowledged); the traced pass runs
//! the same sessions against a fresh server with a span around every
//! client-side step.

use crate::catalog::{SERVE_FANOUT, SERVE_PRIVATE};
use crate::outcome::{digest, engine_counter_metrics, scaled, zero_fill, Gates, Metrics, Outcome};
use crate::proc::{cpu_seconds, peak_rss_mib};
use crate::program_spans::StageProbe;
use crate::stats::{median, p50, percentile, tail_percentile};
use crate::trace::{self, Tracer};
use shortcuts_core::report;
use shortcuts_core::workflow::Campaign;
use shortcuts_core::world::World;
use shortcuts_netsim::EngineStats;
use shortcuts_service::frame::{read_frame, Frame};
use shortcuts_service::{Client, CreditConfig, Framing, Server, ServiceConfig, StreamEvent};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::mpsc;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Closed-loop client threads (fewer on a one-core box).
const MAX_CLIENTS: usize = 2;

/// Rounds of the broadcast key `serve_fanout` replays.
const FANOUT_ROUNDS: u32 = 2;

/// A `STATS` and a `METRICS` probe ride every this-many-th fan-out
/// session.
const PROBE_EVERY: u32 = 10;

/// Sessions per client at the reference `RUN_SECONDS`.
fn sessions_per_client(workload: &str) -> u32 {
    match workload {
        SERVE_PRIVATE => 20,
        SERVE_FANOUT => 75,
        other => unreachable!("{other} is not a serve workload"),
    }
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        // Admission is not what these workloads measure: no request
        // may be refused (`service.credits.denied` gates on 0).
        credits: CreditConfig::generous(),
        ..ServiceConfig::small()
    }
}

/// One started server with its pooled stack already built.
struct Warm {
    server: Server,
    start_s: f64,
    cold_session_s: f64,
    setup_s: f64,
}

/// `Server::start` plus one discarded warm-up session: the first
/// request against a world seed builds the pooled world and engine.
fn set_up_once(warm_seed: u64) -> std::io::Result<Warm> {
    let t0 = Instant::now();
    let server = Server::start("127.0.0.1:0", service_config())?;
    let start_s = t0.elapsed().as_secs_f64();
    let mut client = Client::connect(server.local_addr())?;
    client.run_streaming(&format!("RUN seed={warm_seed} rounds=1"), |_| {})?;
    client.quit();
    let setup_s = t0.elapsed().as_secs_f64();
    Ok(Warm {
        server,
        start_s,
        cold_session_s: setup_s - start_s,
        setup_s,
    })
}

/// Sets up [`SETUP_REPS`] servers one after another, keeps the last,
/// and reports the medians.
fn set_up(warm_seed: u64) -> std::io::Result<Warm> {
    let (mut starts, mut colds, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let mut last: Option<Warm> = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = last.take() {
            previous.server.shutdown();
        }
        let warm = set_up_once(warm_seed + rep as u64)?;
        starts.push(warm.start_s);
        colds.push(warm.cold_session_s);
        setups.push(warm.setup_s);
        last = Some(warm);
    }
    Ok(Warm {
        start_s: median(&starts),
        cold_session_s: median(&colds),
        setup_s: median(&setups),
        ..last.expect("at least one set-up")
    })
}

/// What one finished session reports.
struct Session {
    binary: bool,
    total_ms: f64,
    /// Connect start to first ROUND event.
    first_round_ms: f64,
    rounds: Vec<String>,
    /// Length and digest of the fetched `cases.csv` (the payload itself
    /// is megabytes per session and is not kept).
    csv_len: usize,
    csv_digest: u64,
    metrics_bytes: usize,
}

/// What the script of one session needs to know.
struct Script<'a> {
    addr: SocketAddr,
    request: String,
    binary: bool,
    probes: bool,
    id: u32,
    tracer: Option<&'a Tracer>,
}

fn timed<T>(tracer: Option<&Tracer>, name: &'static str, id: u32, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.time(name, id, f),
        None => f(),
    }
}

/// connect → (HELLO) → streaming request → CSV cases → (STATS,
/// METRICS) → QUIT acknowledged. `on_first_round` fires once, when the
/// first ROUND event arrives.
fn run_session(script: &Script<'_>, on_first_round: impl FnOnce()) -> std::io::Result<Session> {
    let tracer = script.tracer;
    let id = script.id;
    let _session = tracer.map(|t| t.span("session", id));
    let t0 = Instant::now();
    let mut client = timed(
        tracer,
        "service.connect",
        id,
        || -> std::io::Result<Client> {
            let mut client = Client::connect(script.addr)?;
            if script.binary {
                client.negotiate(Framing::Binary)?;
            }
            Ok(client)
        },
    )?;

    let mut rounds = Vec::new();
    let mut first_round_ms = 0.0;
    let mut on_first_round = Some(on_first_round);
    let sent_ns = tracer.map(Tracer::now_ns);
    let stream = tracer.map(|t| t.span("service.stream", id));
    client.run_streaming(&script.request, |event| {
        if let StreamEvent::Round(payload) = event {
            if let Some(notify) = on_first_round.take() {
                first_round_ms = t0.elapsed().as_secs_f64() * 1e3;
                if let (Some(t), Some(sent), Some(s)) = (tracer, sent_ns, &stream) {
                    t.record("service.first_round", id, s.id(), sent, t.now_ns());
                }
                notify();
            }
            rounds.push(payload);
        }
    })?;
    drop(stream);

    let (_, csv) = timed(tracer, "service.csv_fetch", id, || {
        client.fetch_csv("cases")
    })?;
    let mut metrics_bytes = 0;
    if script.probes {
        timed(tracer, "service.stats", id, || client.stats())?;
        metrics_bytes = timed(tracer, "service.metrics", id, || client.metrics())?.len();
    }
    timed(tracer, "service.quit", id, || client.quit());
    Ok(Session {
        binary: script.binary,
        total_ms: t0.elapsed().as_secs_f64() * 1e3,
        first_round_ms,
        rounds,
        csv_len: csv.len(),
        csv_digest: digest(&csv),
        metrics_bytes,
    })
}

/// One closed-loop pass over a warm server.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    attempted: u64,
    sessions: Vec<Session>,
    /// Campaign seed of the first `serve_private` session.
    first_seed: u64,
}

fn clients() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(MAX_CLIENTS)
}

fn run_pass(
    workload: &str,
    addr: SocketAddr,
    seed: u64,
    per_client: u32,
    tracer: Option<&Tracer>,
) -> Pass {
    let fanout = workload == SERVE_FANOUT;
    let clients = clients() as u32;
    // Distinct campaign seeds per private session, all derived from
    // `--seed`; one shared key for the fan-out.
    let first_seed = seed.wrapping_mul(1_000_003);
    let request = |index: u32| {
        if fanout {
            format!("SUBSCRIBE seed={seed} rounds={FANOUT_ROUNDS}")
        } else {
            format!("RUN seed={} rounds=1", first_seed + u64::from(index))
        }
    };
    // The fan-out's two lead sessions subscribe concurrently: the
    // second client holds its first request until the first client's
    // stream has started, so it taps the live (or just-finished)
    // broadcast instead of racing to produce it.
    let (lead_tx, lead_rx) = mpsc::channel::<()>();
    let mut lead_tx = Some(lead_tx);
    let mut lead_rx = Some(lead_rx);

    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let sessions: Vec<Session> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let request = &request;
                let lead_tx = if client == 0 { lead_tx.take() } else { None };
                let lead_rx = if client == 1 { lead_rx.take() } else { None };
                scope.spawn(move || {
                    let _client = tracer.map(|t| t.span("client", client));
                    let mut done = Vec::new();
                    let mut lead_tx = lead_tx;
                    if let (true, Some(rx)) = (fanout, lead_rx) {
                        // An error means the lead session failed before
                        // its first round; carry on regardless.
                        let _ = rx.recv();
                    }
                    for i in 0..per_client {
                        let index = client * per_client + i;
                        let script = Script {
                            addr,
                            request: request(index),
                            binary: index % 2 == 1,
                            probes: fanout && i % PROBE_EVERY == PROBE_EVERY - 1,
                            id: index,
                            tracer,
                        };
                        let tx = lead_tx.take();
                        let outcome = run_session(&script, || {
                            if let Some(tx) = &tx {
                                let _ = tx.send(());
                            }
                        });
                        if let Ok(session) = outcome {
                            done.push(session);
                        }
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: cpu_seconds() - cpu0,
        attempted: u64::from(clients * per_client),
        sessions,
        first_seed,
    }
}

/// Counts the bytes a reader pulls off the socket.
struct CountingReader {
    inner: TcpStream,
    bytes: u64,
}

impl Read for CountingReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

/// Socket bytes of one whole response stream in `framing`, over the
/// ROUND events it carried — read off a raw socket, because `Client`
/// hides the wire.
fn stream_bytes_per_round(
    addr: SocketAddr,
    framing: Framing,
    request: &str,
) -> std::io::Result<f64> {
    let mut writer = TcpStream::connect(addr)?;
    let mut reader = BufReader::new(CountingReader {
        inner: writer.try_clone()?,
        bytes: 0,
    });
    let mut line = String::new();
    reader.read_line(&mut line)?; // greeting
    if framing == Framing::Binary {
        writeln!(writer, "HELLO framing=binary")?;
        line.clear();
        reader.read_line(&mut line)?; // the reply to HELLO is always text
    }
    let before = reader.get_ref().bytes;
    writeln!(writer, "{request}")?;
    let mut rounds = 0u64;
    loop {
        match framing {
            Framing::Binary => match read_frame(&mut reader)? {
                Frame::Round(_) => rounds += 1,
                Frame::Ok(_) | Frame::Err(_) => break,
                _ => {}
            },
            Framing::Text => {
                line.clear();
                if reader.read_line(&mut line)? == 0 {
                    break;
                }
                if line.starts_with("ROUND ") {
                    rounds += 1;
                } else if line.starts_with("OK ") || line.starts_with("ERR ") {
                    break;
                }
            }
        }
    }
    let bytes = reader.get_ref().bytes - before;
    writeln!(writer, "QUIT")?;
    Ok(bytes as f64 / rounds.max(1) as f64)
}

/// Counters of the pooled engine stack: both workloads use one world
/// seed and one routing policy, so the pool holds exactly one.
fn pooled_engine_stats(server: &Server) -> EngineStats {
    let stacks = server.manager().pool().stats();
    stacks.first().map(|&(_, _, s)| s).unwrap_or_default()
}

/// Steps and gates of one pass.
fn check_pass(gates: &mut Gates, which: &str, workload: &str, pass: &Pass) {
    gates.steps(
        &format!("{which}_sessions"),
        pass.attempted,
        pass.sessions.len() as u64,
    );
    let Some(first) = pass.sessions.first() else {
        return;
    };
    gates.check(
        &format!("{which}_every_session_streamed_and_fetched"),
        pass.sessions
            .iter()
            .all(|s| !s.rounds.is_empty() && s.csv_len > 0),
    );
    if workload == SERVE_FANOUT {
        // Sessions alternate text and binary framing: every replay must
        // decode to the same ROUND payloads and fetch the same CSV.
        gates.check(
            &format!("{which}_text_and_binary_replays_identical"),
            pass.sessions
                .iter()
                .all(|s| s.rounds == first.rounds && s.csv_digest == first.csv_digest)
                && pass.sessions.iter().any(|s| s.binary)
                && first.rounds.len() == FANOUT_ROUNDS as usize,
        );
    }
    gates.note(format!("digest {which} cases[0] {:016x}", first.csv_digest));
}

/// Runs one serve workload once and measures it.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<&Path>,
) -> Outcome {
    let per_client = scaled(sessions_per_client(workload), seconds);
    let warm_seed = seed.wrapping_mul(1_000_003) + 900_000_000;
    let mut gates = Gates::default();
    let mut m = Metrics::new();

    let warm = set_up(warm_seed).expect("start the in-process server");
    let addr = warm.server.local_addr();
    let untraced = run_pass(workload, addr, seed, per_client, None);
    check_pass(&mut gates, "untraced", workload, &untraced);

    let totals: Vec<f64> = untraced.sessions.iter().map(|s| s.total_ms).collect();
    let first_rounds: Vec<f64> = untraced.sessions.iter().map(|s| s.first_round_ms).collect();
    if !trace {
        m.insert("setup_s", warm.setup_s);
        m.insert("wall_s", untraced.wall_s);
        m.insert("first_round_s", p50(&first_rounds) / 1e3);
        m.insert("cpu_s", untraced.cpu_s);
        m.insert("step_p50_ms", p50(&totals));
        m.insert("peak_rss_mb", peak_rss_mib());
        return Outcome { metrics: m, gates };
    }

    // --- counters and the equivalence gates, off the untraced server -
    let manager = warm.server.manager();
    let service = manager.counters().snapshot();
    let pool = manager.pool().pool_stats();
    let engine = pooled_engine_stats(&warm.server);
    gates.check(
        "nothing_shed_denied_or_evicted",
        [
            service.subscribers_shed,
            service.credits_denied,
            pool.stack_evictions,
            engine.router_evictions,
            engine.pair_evictions,
            engine.tables_repaired,
            engine.entries_rescanned,
            engine.full_rebuilds,
            engine.pair_revalidated,
        ]
        .iter()
        .all(|&c| c == 0),
    );
    let mut text_bytes = 0.0;
    let mut binary_bytes = 0.0;
    // Streaming requests this server saw: the warm-up, the sessions,
    // and (fan-out) the two wire probes below.
    let mut requests = 1 + untraced.sessions.len() as u64;
    if workload == SERVE_FANOUT {
        let request = format!("SUBSCRIBE seed={seed} rounds={FANOUT_ROUNDS}");
        text_bytes = stream_bytes_per_round(addr, Framing::Text, &request).unwrap_or(0.0);
        binary_bytes = stream_bytes_per_round(addr, Framing::Binary, &request).unwrap_or(0.0);
        gates.check(
            "wire_probes_answered",
            text_bytes > 0.0 && binary_bytes > 0.0,
        );
        requests += 2;
    } else if let Some(first) = untraced.sessions.first() {
        // One CSV fetched over the socket against the same campaign run
        // in-process, without the service.
        let cfg = service_config();
        let world = World::build(&cfg.world, cfg.default_world_seed);
        let mut campaign = cfg.base_campaign.clone();
        campaign.seed = untraced.first_seed;
        campaign.rounds = 1;
        let solo = Campaign::new(&world, campaign).run();
        gates.check(
            "socket_csv_equals_in_process_campaign",
            digest(report::cases_csv(&solo).as_bytes()) == first.csv_digest,
        );
    }
    let broadcasts = manager.counters().snapshot().broadcasts;
    warm.server.shutdown();

    // --- traced pass: fresh server, same sessions, a span per step ---
    let fresh = set_up_once(warm_seed + SETUP_REPS as u64).expect("start the traced server");
    let own_spans = StageProbe::start();
    let tracer = Tracer::new();
    let traced = run_pass(
        workload,
        fresh.server.local_addr(),
        seed,
        per_client,
        Some(&tracer),
    );
    // `Server::start` turned telemetry on; the probe needs it on.
    own_spans.finish(traced.wall_s, &mut m);
    fresh.server.shutdown();
    check_pass(&mut gates, "traced", workload, &traced);
    if let (Some(a), Some(b)) = (untraced.sessions.first(), traced.sessions.first()) {
        gates.check(
            "traced_digest_equals_untraced",
            a.csv_digest == b.csv_digest,
        );
    }

    let spans = tracer.snapshot();
    let client_wall_s = trace::total_s(&spans, "client");
    trace::report(&spans, workload, trace_out, client_wall_s, &mut gates);
    let step_p50 = |name: &str| p50(&trace::durations_ms(&spans, name));
    let framed = |binary: bool| {
        let ms: Vec<f64> = untraced
            .sessions
            .iter()
            .filter(|s| s.binary == binary)
            .map(|s| s.total_ms)
            .collect();
        p50(&ms)
    };
    let tail = |p: u32| match tail_percentile(totals.len()) {
        Some(supported) if supported >= p => percentile(&totals, p),
        _ => 0.0,
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    m.insert("service.server.start_s", warm.start_s);
    m.insert("service.pool.cold_session_s", warm.cold_session_s);
    m.insert("service.pool.bytes", pool.resident_bytes as f64);
    m.insert("service.pool.stack_evictions", pool.stack_evictions as f64);
    m.insert(
        "service.session.connect_p50_ms",
        step_p50("service.connect"),
    );
    m.insert(
        "service.session.first_round_p50_ms",
        step_p50("service.first_round"),
    );
    m.insert("service.session.stream_p50_ms", step_p50("service.stream"));
    m.insert(
        "service.session.csv_fetch_p50_ms",
        step_p50("service.csv_fetch"),
    );
    m.insert("service.session.max_ms", percentile(&totals, 100));
    m.insert("service.session.p99_ms", percentile(&totals, 99));
    m.insert(
        "service.session.csv_bytes",
        untraced.sessions.iter().map(|s| s.csv_len as f64).sum(),
    );
    m.insert("service.broadcast.broadcasts", broadcasts as f64);
    m.insert("service.broadcast.subscribers", service.subscribers as f64);
    m.insert(
        "service.broadcast.rounds_fanned_out",
        service.rounds_fanned_out as f64,
    );
    m.insert(
        "service.broadcast.subscribers_shed",
        service.subscribers_shed as f64,
    );
    m.insert(
        "service.broadcast.dedup_share",
        1.0 - ratio(broadcasts as f64, requests as f64),
    );
    m.insert("service.credits.denied", service.credits_denied as f64);
    m.insert("service.frame.text_session_p50_ms", framed(false));
    m.insert("service.frame.binary_session_p50_ms", framed(true));
    m.insert("service.frame.text_bytes_per_round", text_bytes);
    m.insert("service.frame.binary_bytes_per_round", binary_bytes);
    m.insert("service.stats.roundtrip_p50_ms", step_p50("service.stats"));
    m.insert(
        "service.metrics.roundtrip_p50_ms",
        step_p50("service.metrics"),
    );
    m.insert(
        "service.metrics.bytes",
        untraced
            .sessions
            .iter()
            .map(|s| s.metrics_bytes)
            .rfind(|&b| b > 0)
            .unwrap_or(0) as f64,
    );
    // The pooled engine's counters, as `STATS` would print them.
    engine_counter_metrics(&mut m, &engine);
    m.insert("core.cores_used", ratio(untraced.cpu_s, untraced.wall_s));
    m.insert(
        "core.attributed_share",
        trace::attributed_share(&spans, client_wall_s),
    );
    m.insert(
        "ledger.trace_overhead_share",
        traced.wall_s / untraced.wall_s - 1.0,
    );
    m.insert("ledger.step_samples", totals.len() as f64);
    m.insert(
        "sessions_per_s",
        ratio(untraced.sessions.len() as f64, untraced.wall_s),
    );
    m.insert("session_p75_ms", tail(75));
    m.insert("session_p90_ms", tail(90));
    m.insert("failed_share", gates.failed_share());
    // The client sees none of the kernel's layers: what is left of
    // `core.*`, `netsim.*` and `topology.*` reads 0 on a serve workload.
    zero_fill(&mut m, |name| {
        ["core.", "netsim.", "topology."]
            .iter()
            .any(|p| name.starts_with(p))
    });
    Outcome { metrics: m, gates }
}
