//! End-to-end tests of the measurement service over real sockets.
//!
//! The headline contract (the PR's acceptance criterion): the cases
//! CSV a session streams over a socket is **byte-identical** to a solo
//! `Campaign::run` at the same seed — including when four concurrent
//! sessions share one world's warmed engine stack. Around it: protocol
//! robustness (malformed requests, disconnect mid-session) and bounded
//! admission.

use shortcuts_core::report::cases_csv;
use shortcuts_core::workflow::{Campaign, CampaignConfig};
use shortcuts_core::world::{World, WorldConfig};
use shortcuts_service::{BroadcastKey, Client, Framing, Server, ServiceConfig, StreamEvent};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A small-world server with the test's default world seed.
fn small_server(max_sessions: usize) -> Server {
    let mut cfg = ServiceConfig::small();
    cfg.max_sessions = max_sessions;
    cfg.default_world_seed = 90;
    Server::start("127.0.0.1:0", cfg).expect("bind ephemeral port")
}

/// The solo-run baseline the service must reproduce byte for byte.
/// Every baseline here runs on world seed 90, so the (expensive) world
/// build is shared across tests; each solo campaign still gets a
/// completely private engine stack.
fn solo_world() -> &'static World {
    static SOLO_WORLD: std::sync::OnceLock<World> = std::sync::OnceLock::new();
    SOLO_WORLD.get_or_init(|| World::build(&WorldConfig::small(), 90))
}

fn solo_cases_csv(world_seed: u64, campaign_seed: u64, rounds: u32) -> String {
    assert_eq!(world_seed, 90, "baseline world cache is seeded with 90");
    let world = solo_world();
    let mut cfg = CampaignConfig::small();
    cfg.seed = campaign_seed;
    cfg.rounds = rounds;
    cases_csv(&Campaign::new(world, cfg).run())
}

#[test]
fn streamed_csv_is_byte_identical_to_a_solo_run() {
    let server = small_server(4);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut rounds = Vec::new();
    let ok = client
        .run_streaming("RUN seed=4242 rounds=2 world-seed=90", |e| {
            if let StreamEvent::Round(line) = e {
                rounds.push(line);
            }
        })
        .unwrap();
    assert_eq!(ok, "run 1");
    // One ROUND line per round, in round order, for the right label.
    assert_eq!(rounds.len(), 2);
    for (i, line) in rounds.iter().enumerate() {
        assert!(
            line.starts_with(&format!("seed-4242 {i} ")),
            "round line {line:?}"
        );
    }
    let (name, bytes) = client.fetch_csv("cases").unwrap();
    assert_eq!(name, "cases_seed-4242.csv");
    assert_eq!(
        String::from_utf8(bytes).unwrap(),
        solo_cases_csv(90, 4242, 2),
        "service CSV diverged from the solo run"
    );
    client.quit();
    server.shutdown();
}

/// The acceptance criterion: 4 concurrent sessions on ONE shared world
/// each receive CSVs byte-identical to solo runs at their seeds.
#[test]
fn four_concurrent_sessions_match_solo_runs_bytewise() {
    let server = small_server(8);
    let addr = server.local_addr();
    let seeds = [2017u64, 2018, 2019, 2020];

    let streamed: Vec<(u64, usize, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("admitted");
                    let mut rounds = 0;
                    client
                        .run_streaming(&format!("RUN seed={seed} rounds=2 world-seed=90"), |e| {
                            rounds += usize::from(matches!(e, StreamEvent::Round(_)));
                        })
                        .expect("run");
                    let (_, bytes) = client.fetch_csv("cases").expect("csv");
                    client.quit();
                    (seed, rounds, String::from_utf8(bytes).unwrap())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // All four sessions shared one pooled engine stack.
    assert_eq!(server.manager().pool().worlds_resident(), 1);
    for (seed, rounds, csv) in streamed {
        assert_eq!(rounds, 2, "seed {seed} streamed every round");
        assert_eq!(
            csv,
            solo_cases_csv(90, seed, 2),
            "concurrent session seed {seed} diverged from its solo run"
        );
    }
    server.shutdown();
}

#[test]
fn sweep_session_streams_all_scenarios_and_serves_every_csv() {
    let server = small_server(2);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut per_label_rounds = std::collections::BTreeMap::<String, Vec<u32>>::new();
    let mut ends = 0;
    let ok = client
        .run_streaming(
            "SWEEP seeds=7,8 rounds=2 world-seed=90 jobs-in-flight=4",
            |e| match e {
                StreamEvent::Round(line) => {
                    let mut parts = line.split_whitespace();
                    let label = parts.next().unwrap().to_string();
                    let round: u32 = parts.next().unwrap().parse().unwrap();
                    per_label_rounds.entry(label).or_default().push(round);
                }
                StreamEvent::End(_) => ends += 1,
            },
        )
        .unwrap();
    assert_eq!(ok, "sweep 2");
    assert_eq!(ends, 2);
    // Per scenario: every round, in round order.
    for label in ["seed-7", "seed-8"] {
        assert_eq!(per_label_rounds[label], vec![0, 1], "{label}");
    }
    // Each scenario's CSV matches its solo run; the comparison table
    // has one row per scenario.
    for seed in [7u64, 8] {
        let (name, bytes) = client.fetch_csv(&format!("cases seed-{seed}")).unwrap();
        assert_eq!(name, format!("cases_seed-{seed}.csv"));
        assert_eq!(
            String::from_utf8(bytes).unwrap(),
            solo_cases_csv(90, seed, 2)
        );
    }
    let (name, bytes) = client.fetch_csv("sweep").unwrap();
    assert_eq!(name, "sweep.csv");
    let sweep_csv = String::from_utf8(bytes).unwrap();
    assert_eq!(sweep_csv.lines().count(), 3, "{sweep_csv}");
    client.quit();
    server.shutdown();
}

#[test]
fn malformed_requests_get_err_and_the_session_survives() {
    let server = small_server(2);
    let mut client = Client::connect(server.local_addr()).unwrap();
    for bad in [
        "FROBNICATE",
        "RUN",
        "RUN seed=abc",
        "SWEEP seeds=1,1 rounds=1",
        "CSV nonsense",
    ] {
        let resp = client.round_trip(bad).unwrap();
        assert!(resp.starts_with("ERR"), "{bad:?} answered {resp:?}");
    }
    // CSV before any run is a clean protocol error too.
    let resp = client.round_trip("CSV cases").unwrap();
    assert!(resp.starts_with("ERR no finished run"), "{resp:?}");
    // The session is still fully usable after all those rejections.
    let ok = client
        .run_streaming("RUN seed=5 rounds=1 world-seed=90", |_| {})
        .unwrap();
    assert_eq!(ok, "run 1");
    client.quit();
    server.shutdown();
}

#[test]
fn disconnect_mid_session_leaves_the_server_serving() {
    let server = small_server(2);
    let addr = server.local_addr();

    // Rudely drop a connection right after submitting a run — no
    // reading, no QUIT. The server must absorb it (the batch runs to
    // completion server-side; writes to the dead socket just fail).
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(b"RUN seed=3 rounds=2 world-seed=90\n")
            .unwrap();
        // Dropped here, mid-stream.
    }

    // A fresh session on the same shared engine works, and its output
    // is still byte-exact (the aborted session left no dirty state).
    let mut client = Client::connect(addr).unwrap();
    let ok = client
        .run_streaming("RUN seed=3 rounds=2 world-seed=90", |_| {})
        .unwrap();
    assert_eq!(ok, "run 1");
    let (_, bytes) = client.fetch_csv("cases").unwrap();
    assert_eq!(String::from_utf8(bytes).unwrap(), solo_cases_csv(90, 3, 2));
    client.quit();

    // The dropped session's permit must drain (its run finishes in the
    // background first).
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while server.manager().active_sessions() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "dropped session never released its permit"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

#[test]
fn admission_limit_refuses_and_recovers() {
    let server = small_server(1);
    let addr = server.local_addr();

    // First client occupies the only slot.
    let first = Client::connect(addr).expect("first session admitted");

    // While it holds the slot, further clients are refused with ERR
    // busy. (The accept loop admits synchronously, so the refusal is
    // immediate and deterministic.)
    let refused = Client::connect(addr);
    match refused {
        Err(e) => {
            assert_eq!(e.kind(), std::io::ErrorKind::ConnectionRefused);
            assert!(e.to_string().contains("busy"), "{e}");
        }
        Ok(_) => panic!("second session must be refused at max-sessions=1"),
    }

    // Releasing the slot lets the next client in.
    first.quit();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let mut admitted = None;
    while admitted.is_none() {
        assert!(
            std::time::Instant::now() < deadline,
            "slot never became available again"
        );
        match Client::connect(addr) {
            Ok(c) => admitted = Some(c),
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    let mut client = admitted.unwrap();
    let resp = client.stats().expect("stats on recovered slot");
    // No run yet in this server: no engine stacks pooled — only the
    // aggregate pool line and the service counters line.
    assert_eq!(resp.len(), 2, "{resp:?}");
    assert!(resp[0].starts_with("pool "), "{resp:?}");
    assert!(resp[1].starts_with("service "), "{resp:?}");
    client.quit();
    server.shutdown();
}

#[test]
fn stats_report_the_pooled_engine_health() {
    let server = small_server(2);
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .run_streaming("RUN seed=11 rounds=1 world-seed=90", |_| {})
        .unwrap();
    let stats = client.stats().unwrap();
    // One engine line, the aggregate pool line, the service line, and
    // this client's credit balance (the RUN above paid for work).
    assert_eq!(stats.len(), 4, "{stats:?}");
    let line = &stats[0];
    assert!(line.starts_with("world=90 policy=valley-free "), "{line}");
    for key in [
        "pair_hits=",
        "tables_resident=",
        "pings_sent=",
        "tables_bytes=",
        "pair_bytes=",
        "pair_rows=",
        "routes_walked=",
    ] {
        assert!(line.contains(key), "{line} missing {key}");
    }
    // `pair_*` count site pairs, `pair_rows` the host pairs served
    // from them: every lookup serves at least one row. (How many more
    // depends on how many hosts of one site a single batch holds —
    // a property of the world, not of the service.)
    let field = |key: &str| -> u64 {
        let rest = &line[line.find(key).expect(key) + key.len()..];
        let digits = rest.split(' ').next().expect("value");
        digits.parse().expect("integer field")
    };
    let lookups = field("pair_hits=") + field("pair_misses=");
    assert!(field("pair_rows=") >= lookups, "{line}");
    let pool_line = &stats[1];
    assert!(pool_line.starts_with("pool worlds=1 "), "{pool_line}");
    assert!(pool_line.contains("budget=unbounded"), "{pool_line}");
    let service_line = &stats[2];
    for key in [
        "subscribers=",
        "broadcasts=",
        "rounds_fanned_out=",
        "subscribers_shed=",
        "credits_denied=",
        "csv_fetches=",
        "csv_renders=",
    ] {
        assert!(service_line.contains(key), "{service_line} missing {key}");
    }
    let credits_line = &stats[3];
    assert!(credits_line.starts_with("credits ip="), "{credits_line}");
    assert!(credits_line.contains("balance="), "{credits_line}");
    // The engine did real work.
    let pings: u64 = line
        .split("pings_sent=")
        .nth(1)
        .unwrap()
        .split_whitespace()
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert!(pings > 0);
    client.quit();
    server.shutdown();
}

/// Collects one full response stream (`ROUND`/`END` events in order)
/// plus the terminating `OK` detail.
fn collect_stream(client: &mut Client, request: &str) -> (Vec<String>, String) {
    let mut events = Vec::new();
    let ok = client
        .run_streaming(request, |e| {
            events.push(match e {
                StreamEvent::Round(p) => format!("ROUND {p}"),
                StreamEvent::End(p) => format!("END {p}"),
            });
        })
        .expect("stream");
    (events, ok)
}

/// Parses one counter off the `service …` STATS line.
fn service_counter(stats: &[String], key: &str) -> u64 {
    let line = stats
        .iter()
        .find(|l| l.starts_with("service "))
        .expect("service stats line");
    line.split(&format!("{key}="))
        .nth(1)
        .unwrap_or_else(|| panic!("{line} missing {key}"))
        .split_whitespace()
        .next()
        .unwrap()
        .parse()
        .unwrap()
}

/// The tentpole contract: SUBSCRIBE clients riding one broadcast
/// receive event streams and CSVs byte-identical to a solo RUN — in
/// text framing and in binary framing — while the campaign executes
/// exactly once.
#[test]
fn subscribers_get_streams_byte_identical_to_a_solo_run() {
    let server = small_server(8);
    let addr = server.local_addr();

    // The solo baseline stream: a plain RUN on a different server so
    // its execution shares nothing with the broadcast under test.
    let baseline_server = small_server(2);
    let mut solo = Client::connect(baseline_server.local_addr()).unwrap();
    let (solo_events, solo_ok) = collect_stream(&mut solo, "RUN seed=4242 rounds=2 world-seed=90");
    let (_, solo_csv) = solo.fetch_csv("cases").unwrap();
    solo.quit();
    baseline_server.shutdown();
    assert_eq!(solo_ok, "run 1");
    assert_eq!(solo_events.len(), 3, "two ROUNDs and an END");
    assert_eq!(
        String::from_utf8(solo_csv.clone()).unwrap(),
        solo_cases_csv(90, 4242, 2),
        "service CSV diverged from the solo campaign"
    );

    // Producer subscriber on a background thread; taps attach once the
    // broadcast key is live, one in text framing and one in binary.
    let producer = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("producer admitted");
        let (events, ok) = collect_stream(&mut c, "SUBSCRIBE seed=4242 rounds=2 world-seed=90");
        let (_, csv) = c.fetch_csv("cases").expect("producer csv");
        c.quit();
        (events, ok, csv)
    });
    let key = BroadcastKey {
        world_seed: 90,
        policy: Default::default(),
        seeds: vec![4242],
        rounds: 2,
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while !server.manager().hub().has_live(&key) {
        assert!(
            std::time::Instant::now() < deadline,
            "producer never registered its broadcast"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let taps: Vec<_> = [Framing::Text, Framing::Binary]
        .into_iter()
        .map(|framing| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("tap admitted");
                c.negotiate(framing).expect("HELLO");
                let (events, ok) =
                    collect_stream(&mut c, "SUBSCRIBE seed=4242 rounds=2 world-seed=90");
                let (_, csv) = c.fetch_csv("cases").expect("tap csv");
                c.quit();
                (events, ok, csv)
            })
        })
        .collect();

    let (producer_events, producer_ok, producer_csv) = producer.join().unwrap();
    assert_eq!(producer_ok, "run 1");
    assert_eq!(
        producer_events, solo_events,
        "producer stream diverged from the solo RUN"
    );
    assert_eq!(producer_csv, solo_csv);
    for (i, tap) in taps.into_iter().enumerate() {
        let (events, ok, csv) = tap.join().unwrap();
        assert_eq!(ok, "run 1", "tap {i}");
        assert_eq!(events, solo_events, "tap {i} stream diverged");
        assert_eq!(csv, solo_csv, "tap {i} CSV diverged");
    }

    // Fan-out counters: one broadcast, two taps, each fed both rounds
    // (live or via backlog replay — the count is the same).
    let mut probe = Client::connect(addr).unwrap();
    let stats = probe.stats().unwrap();
    assert_eq!(service_counter(&stats, "broadcasts"), 1);
    assert_eq!(service_counter(&stats, "rounds_fanned_out"), 4);
    assert_eq!(service_counter(&stats, "subscribers_shed"), 0);
    assert_eq!(service_counter(&stats, "subscribers"), 0, "gauge drains");
    probe.quit();
    server.shutdown();
}

/// A SUBSCRIBE arriving after the batch finished replays it from the
/// broadcast done-cache — full stream, `OK`, working CSV — without a
/// second execution.
#[test]
fn late_subscribers_replay_a_finished_run_from_the_cache() {
    let server = small_server(4);
    let addr = server.local_addr();
    let mut first = Client::connect(addr).unwrap();
    let (run_events, _) = collect_stream(&mut first, "RUN seed=31 rounds=2 world-seed=90");
    first.quit();

    let mut late = Client::connect(addr).unwrap();
    let (events, ok) = collect_stream(&mut late, "SUBSCRIBE seed=31 rounds=2 world-seed=90");
    assert_eq!(ok, "run 1");
    assert_eq!(events, run_events, "replay diverged from the live stream");
    let (_, bytes) = late.fetch_csv("cases").unwrap();
    assert_eq!(String::from_utf8(bytes).unwrap(), solo_cases_csv(90, 31, 2));
    let stats = late.stats().unwrap();
    assert_eq!(
        service_counter(&stats, "broadcasts"),
        1,
        "the replay must not have re-executed"
    );
    late.quit();
    server.shutdown();
}

/// A single-seed SWEEP and a single-seed SUBSCRIBE share a broadcast
/// key, so a SUBSCRIBE replaying the SWEEP gets exactly the bytes it
/// would have produced itself — the `OK` terminator included.
#[test]
fn a_replayed_single_seed_sweep_ends_like_a_produced_subscription() {
    let fresh = small_server(2);
    let mut producer = Client::connect(fresh.local_addr()).unwrap();
    let produced = collect_stream(&mut producer, "SUBSCRIBE seed=7 rounds=2 world-seed=90");
    producer.quit();
    fresh.shutdown();
    assert_eq!(produced.1, "run 1");

    let server = small_server(4);
    let addr = server.local_addr();
    let mut first = Client::connect(addr).unwrap();
    let swept = collect_stream(&mut first, "SWEEP seeds=7 rounds=2 world-seed=90");
    first.quit();
    assert_eq!(swept, produced, "a one-seed SWEEP is a RUN on the wire");

    let mut late = Client::connect(addr).unwrap();
    let replayed = collect_stream(&mut late, "SUBSCRIBE seed=7 rounds=2 world-seed=90");
    assert_eq!(replayed, produced, "replay diverged from a produced stream");
    let stats = late.stats().unwrap();
    assert_eq!(
        service_counter(&stats, "broadcasts"),
        1,
        "the replay must not have re-executed"
    );
    late.quit();
    server.shutdown();
}

/// A relabelled RUN is not shareable: it never registers a broadcast,
/// so a SUBSCRIBE after it produces its own stream under the default
/// label instead of replaying the relabelled one.
#[test]
fn a_relabelled_run_is_not_replayed_to_subscribers() {
    let server = small_server(4);
    let addr = server.local_addr();
    let mut first = Client::connect(addr).unwrap();
    let (run_events, _) = collect_stream(&mut first, "RUN seed=31 rounds=2 label=x world-seed=90");
    first.quit();
    assert!(run_events[0].starts_with("ROUND x "), "{run_events:?}");

    let mut late = Client::connect(addr).unwrap();
    let (events, ok) = collect_stream(&mut late, "SUBSCRIBE seed=31 rounds=2 world-seed=90");
    assert_eq!(ok, "run 1");
    let rounds: Vec<&String> = events.iter().filter(|e| e.starts_with("ROUND ")).collect();
    assert_eq!(rounds.len(), 2);
    for round in rounds {
        assert!(round.starts_with("ROUND seed-31 "), "{round}");
    }
    late.quit();
    server.shutdown();
}

/// With zero subscriber lag every live event overflows a tap's queue:
/// the tap is shed with `ERR lagged`, the producer finishes untouched,
/// and the shed session stays usable.
#[test]
fn lagged_subscribers_are_shed_without_stalling_the_producer() {
    let mut cfg = ServiceConfig::small();
    cfg.max_sessions = 4;
    cfg.default_world_seed = 90;
    cfg.subscriber_lag = 0;
    let server = Server::start("127.0.0.1:0", cfg).expect("bind ephemeral port");
    let addr = server.local_addr();

    let producer = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("producer admitted");
        let (events, ok) = collect_stream(&mut c, "SUBSCRIBE seed=55 rounds=2 world-seed=90");
        c.quit();
        (events, ok)
    });
    let key = BroadcastKey {
        world_seed: 90,
        policy: Default::default(),
        seeds: vec![55],
        rounds: 2,
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while !server.manager().hub().has_live(&key) {
        assert!(std::time::Instant::now() < deadline, "no live broadcast");
        std::thread::sleep(Duration::from_millis(2));
    }
    // The tap attaches while the producer is still building the world:
    // empty backlog + lag 0 = queue capacity 0, so the first published
    // round sheds it deterministically.
    let mut tap = Client::connect(addr).expect("tap admitted");
    let err = tap
        .run_streaming("SUBSCRIBE seed=55 rounds=2 world-seed=90", |_| {})
        .expect_err("zero-lag tap must be shed");
    assert!(err.to_string().contains("lagged"), "{err}");

    let (producer_events, producer_ok) = producer.join().unwrap();
    assert_eq!(producer_ok, "run 1", "producer must be unaffected");
    assert_eq!(producer_events.len(), 2 + 1, "2 rounds + 1 END");

    // The shed session is still usable, and the shed is counted.
    let stats = tap.stats().expect("session survives the shed");
    assert_eq!(service_counter(&stats, "subscribers_shed"), 1);
    let (_, bytes) = {
        let ok = tap
            .run_streaming("RUN seed=55 rounds=2 world-seed=90", |_| {})
            .expect("shed session can still run");
        assert_eq!(ok, "run 1");
        tap.fetch_csv("cases").unwrap()
    };
    assert_eq!(String::from_utf8(bytes).unwrap(), solo_cases_csv(90, 55, 2));
    tap.quit();
    server.shutdown();
}

/// Credit-spend feedback is opt-in per session: `HELLO credits=on`
/// adds a ` credits=<remaining>` suffix to each metered `OK`
/// terminator, the default session sees the unchanged protocol bytes,
/// and `STATS` reports the same balance per client IP.
#[test]
fn credit_feedback_is_opt_in_and_session_local() {
    let mut cfg = ServiceConfig::small();
    cfg.max_sessions = 2;
    cfg.default_world_seed = 90;
    // No refill: the balances asserted below are exact.
    cfg.credits = shortcuts_service::CreditConfig::new(100.0, 0.0);
    let server = Server::start("127.0.0.1:0", cfg).expect("bind ephemeral port");

    // A session that does not opt in sees the unchanged terminator.
    let mut plain = Client::connect(server.local_addr()).unwrap();
    let ok = plain
        .run_streaming("RUN seed=5 rounds=2 world-seed=90", |_| {})
        .unwrap();
    assert_eq!(ok, "run 1");
    plain.quit();

    // The opted-in session is metered against the same per-IP bucket
    // (both connections come from 127.0.0.1): 100 − 2 spent above.
    let mut verbose = Client::connect(server.local_addr()).unwrap();
    let reply = verbose.round_trip("HELLO credits=on").unwrap();
    assert_eq!(reply, "OK hello framing=text");
    let ok = verbose
        .run_streaming("RUN seed=6 rounds=2 world-seed=90", |_| {})
        .unwrap();
    assert_eq!(ok, "run 1 credits=96");
    let ok = verbose
        .run_streaming("SWEEP seeds=7,8 rounds=2 world-seed=90", |_| {})
        .unwrap();
    assert_eq!(ok, "sweep 2 credits=92");
    // STATS agrees: no refill, so the balance is exactly what is left.
    let stats = verbose.stats().unwrap();
    let line = stats
        .iter()
        .find(|l| l.starts_with("credits ip="))
        .expect("credits balance line");
    assert!(line.ends_with("balance=92"), "{line}");
    verbose.quit();
    server.shutdown();
}

/// Credit admission: a client that outruns its bucket gets
/// `ERR credits` with a usable retry-after hint, free probes keep
/// working while broke, and the bucket refills on the clock.
#[test]
fn exhausted_credits_deny_refill_and_recover() {
    let mut cfg = ServiceConfig::small();
    cfg.max_sessions = 2;
    cfg.default_world_seed = 90;
    // A 4-credit bucket refilling at 20/s: a denied 4-round run is
    // re-admittable in at most ~200 ms.
    cfg.credits = shortcuts_service::CreditConfig::new(4.0, 20.0);
    let server = Server::start("127.0.0.1:0", cfg).expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr()).unwrap();

    let ok = client
        .run_streaming("RUN seed=9 rounds=4 world-seed=90", |_| {})
        .unwrap();
    assert_eq!(ok, "run 1");

    // The first run's own execution time refills the bucket, so drain
    // it through the ledger to below one credit: the denial below must
    // not depend on how fast the run happened to execute.
    let ledger = server.manager().credits();
    let ip: std::net::IpAddr = "127.0.0.1".parse().unwrap();
    while matches!(
        ledger.try_charge(ip, 1.0),
        shortcuts_service::credits::Charge::Ok { .. }
    ) {}

    // Broke: the next run is denied without executing, with a hint.
    let err = client
        .run_streaming("RUN seed=10 rounds=4 world-seed=90", |_| {})
        .expect_err("bucket is empty");
    assert!(err.to_string().contains("ERR credits"), "{err}");
    let hint = shortcuts_service::client::retry_after(&err).expect("retry-after-ms hint");
    assert!(hint <= Duration::from_secs(1), "{hint:?}");

    // STATS is free: it works while broke, and counts the denial.
    let stats = client.stats().expect("free probe while broke");
    assert!(service_counter(&stats, "credits_denied") >= 1);

    // CSV of the last successful run is free too.
    let (_, bytes) = client.fetch_csv("cases").unwrap();
    assert_eq!(String::from_utf8(bytes).unwrap(), solo_cases_csv(90, 9, 4));

    // After the hinted wait the bucket covers a smaller run.
    std::thread::sleep(hint + Duration::from_millis(150));
    let ok = client
        .run_streaming("RUN seed=11 rounds=2 world-seed=90", |_| {})
        .expect("refilled bucket must admit");
    assert_eq!(ok, "run 1");

    // And the retry helper rides the denial without manual sleeping.
    let ok = client
        .run_streaming_with_retry(
            "RUN seed=12 rounds=2 world-seed=90",
            shortcuts_service::RetryPolicy::with_attempts(10),
            |_| {},
        )
        .expect("backoff retry must eventually admit");
    assert_eq!(ok, "run 1");
    client.quit();
    server.shutdown();
}

/// Binary framing carries every response type: streams, CSVs and
/// STATS decode to exactly what text framing produces.
#[test]
fn binary_framing_is_indistinguishable_at_the_event_level() {
    let server = small_server(2);
    let mut text = Client::connect(server.local_addr()).unwrap();
    let (text_events, text_ok) = collect_stream(&mut text, "RUN seed=77 rounds=2 world-seed=90");
    let (text_name, text_csv) = text.fetch_csv("cases").unwrap();
    text.quit();

    let mut bin = Client::connect(server.local_addr()).unwrap();
    bin.negotiate(Framing::Binary).unwrap();
    assert_eq!(bin.framing(), Framing::Binary);
    let (bin_events, bin_ok) = collect_stream(&mut bin, "RUN seed=77 rounds=2 world-seed=90");
    let (bin_name, bin_csv) = bin.fetch_csv("cases").unwrap();
    assert_eq!(bin_ok, text_ok);
    assert_eq!(bin_events, text_events, "framings must carry equal events");
    assert_eq!(bin_name, text_name);
    assert_eq!(bin_csv, text_csv, "framings must carry equal CSV bytes");
    assert_eq!(
        String::from_utf8(bin_csv).unwrap(),
        solo_cases_csv(90, 77, 2)
    );
    // Errors and stats cross the binary framing too.
    let stats = bin.stats().unwrap();
    assert!(stats.iter().any(|l| l.starts_with("pool ")), "{stats:?}");
    let err = bin.fetch_csv("cases no-such-label").unwrap_err();
    assert!(err.to_string().contains("no scenario"), "{err}");
    bin.quit();
    server.shutdown();
}

/// A byte-budgeted server keeps serving byte-exact results while its
/// pool evicts idle stacks: two sequential sessions on different world
/// seeds leave at most one stack resident, the STATS pool line counts
/// the evictions, and every CSV still matches the solo baseline.
#[test]
fn budgeted_server_evicts_idle_stacks_and_stays_bytewise_correct() {
    use shortcuts_topology::MemoryBudget;
    let mut cfg = ServiceConfig::small();
    cfg.max_sessions = 2;
    cfg.default_world_seed = 90;
    // Smaller than one small-world substrate: every detach leaves the
    // pool over budget, so idle stacks are always reclaimed. Engine
    // caches run budgeted (and small) too — results must not care.
    cfg.memory = MemoryBudget::bytes(solo_world().shared().approx_bytes() / 2);
    let server = Server::start("127.0.0.1:0", cfg).expect("bind ephemeral port");

    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .run_streaming("RUN seed=4242 rounds=2 world-seed=90", |_| {})
        .unwrap();
    let (_, bytes) = client.fetch_csv("cases").unwrap();
    assert_eq!(
        String::from_utf8(bytes).unwrap(),
        solo_cases_csv(90, 4242, 2),
        "budgeted service CSV diverged from the unbudgeted solo run"
    );
    // A second batch on another world seed: the first (now idle) stack
    // gets evicted rather than accreting.
    client
        .run_streaming("RUN seed=7 rounds=1 world-seed=91", |_| {})
        .unwrap();
    assert!(
        server.manager().pool().worlds_resident() <= 1,
        "idle stacks must be evicted under the pool budget"
    );
    let stats = client.stats().unwrap();
    let pool_line = stats
        .iter()
        .find(|l| l.starts_with("pool "))
        .expect("pool line");
    let evictions: u64 = pool_line
        .split("stack_evictions=")
        .nth(1)
        .unwrap()
        .split_whitespace()
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert!(evictions >= 1, "{pool_line}");
    client.quit();
    server.shutdown();
}

/// Waits for every session thread to have released its permit.
fn wait_for_idle(server: &Server) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.manager().active_sessions() > 0 {
        assert!(Instant::now() < deadline, "a session never ended");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Sends `request` on a fresh raw connection and returns everything the
/// server said before it closed the connection, greeting stripped.
fn raw_exchange(server: &Server, request: &[u8]) -> String {
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    // The server may hang up mid-send; what it answered is the point.
    let _ = raw.write_all(request);
    let mut answer = Vec::new();
    // A reset after the answer still leaves the answer in `answer`.
    let _ = raw.read_to_end(&mut answer);
    let answer = String::from_utf8(answer).unwrap();
    let greeting = format!("{}\n", shortcuts_service::protocol::GREETING);
    answer
        .strip_prefix(&greeting)
        .unwrap_or_else(|| panic!("no greeting in {answer:?}"))
        .to_string()
}

/// A client streaming bytes without a newline gets one `ERR` and the
/// door, not an unbounded `String`; a line of exactly the cap is still
/// a (bad) request like any other, and the server keeps serving.
#[test]
fn oversized_request_lines_are_refused_and_the_session_closed() {
    use shortcuts_service::session::MAX_REQUEST_LINE_BYTES;
    let server = small_server(2);

    let answer = raw_exchange(&server, &vec![b'A'; 1 << 20]);
    assert_eq!(answer, "ERR request line too long\n");
    wait_for_idle(&server);

    // One byte over the cap, newline-terminated: still too long.
    let mut line = vec![b'A'; MAX_REQUEST_LINE_BYTES + 1];
    line.push(b'\n');
    assert_eq!(raw_exchange(&server, &line), "ERR request line too long\n");
    wait_for_idle(&server);

    // Exactly the cap: parsed (and rejected as an unknown verb), and the
    // session lives on to answer the next request.
    let mut line = vec![b'A'; MAX_REQUEST_LINE_BYTES];
    line.extend_from_slice(b"\nQUIT\n");
    let answer = raw_exchange(&server, &line);
    let lines: Vec<&str> = answer.lines().collect();
    assert_eq!(lines.len(), 2, "{answer:?}");
    assert!(lines[0].starts_with("ERR "), "{answer:?}");
    assert!(!lines[0].contains("too long"), "{answer:?}");
    assert_eq!(lines[1], "OK bye");
    wait_for_idle(&server);

    let mut client = Client::connect(server.local_addr()).expect("next connection is served");
    assert!(client.stats().is_ok());
    client.quit();
    server.shutdown();
}

/// Stall canary. A request/response exchange of small messages is what
/// Nagle's algorithm and delayed ACKs punish: written as two segments
/// on a socket without `TCP_NODELAY`, *every* round trip below waits
/// ~40 ms on loopback (56 of them: 2.2 s). Whole-message writes on
/// no-delay sockets make the same exchange a few milliseconds. The
/// stall is per request and deterministic, so the best of three
/// attempts still fails on it, while a descheduled test thread on a
/// loaded runner does not fail the build.
#[test]
fn request_response_round_trips_do_not_stall() {
    let server = small_server(4);
    let addr = server.local_addr();
    // Execute (and render) once up front: the timed sessions replay.
    let mut first = Client::connect(addr).unwrap();
    first
        .run_streaming("RUN seed=31 rounds=1 world-seed=90", |_| {})
        .unwrap();
    let (_, expected) = first.fetch_csv("cases").unwrap();
    first.quit();

    let attempt = || {
        let t0 = Instant::now();
        for framing in [Framing::Text, Framing::Binary] {
            let mut client = Client::connect(addr).unwrap();
            client.negotiate(framing).unwrap();
            for _ in 0..25 {
                client.stats().unwrap();
            }
            let (events, ok) =
                collect_stream(&mut client, "SUBSCRIBE seed=31 rounds=1 world-seed=90");
            assert_eq!((events.len(), ok.as_str()), (2, "run 1"));
            let (_, csv) = client.fetch_csv("cases").unwrap();
            assert_eq!(csv, expected);
            client.quit();
        }
        t0.elapsed()
    };
    let best = (0..3).map(|_| attempt()).min().unwrap();
    assert!(
        best < Duration::from_millis(400),
        "56 round trips took {best:?}: requests are stalling"
    );
    server.shutdown();
}

/// The CSV payloads of a finished batch are rendered once and shared:
/// by the taps of a broadcast, by repeat fetches, and per scenario of a
/// sweep — and what is shared is still the solo run's bytes.
#[test]
fn csv_payloads_render_once_per_finished_batch() {
    let server = small_server(4);
    let addr = server.local_addr();
    let counters = || server.manager().counters().snapshot();
    let expected = solo_cases_csv(90, 31, 2);

    let mut producer = Client::connect(addr).unwrap();
    producer
        .run_streaming("RUN seed=31 rounds=2 world-seed=90", |_| {})
        .unwrap();
    assert_eq!((counters().csv_fetches, counters().csv_renders), (0, 0));
    // Two taps (one per framing) and a repeat fetch on one broadcast key.
    for framing in [Framing::Text, Framing::Binary] {
        let mut tap = Client::connect(addr).unwrap();
        tap.negotiate(framing).unwrap();
        collect_stream(&mut tap, "SUBSCRIBE seed=31 rounds=2 world-seed=90");
        let (_, bytes) = tap.fetch_csv("cases").unwrap();
        assert_eq!(String::from_utf8(bytes).unwrap(), expected);
        tap.quit();
    }
    let (_, bytes) = producer.fetch_csv("cases").unwrap();
    assert_eq!(String::from_utf8(bytes).unwrap(), expected);
    producer.quit();
    assert_eq!((counters().csv_fetches, counters().csv_renders), (3, 1));

    // Every payload of a sweep renders once, however often it is asked for.
    let mut sweeper = Client::connect(addr).unwrap();
    sweeper
        .run_streaming("SWEEP seeds=7,8,9 rounds=1 world-seed=90", |_| {})
        .unwrap();
    for _ in 0..2 {
        for seed in [7u64, 8, 9] {
            let (_, bytes) = sweeper.fetch_csv(&format!("cases seed-{seed}")).unwrap();
            assert_eq!(
                String::from_utf8(bytes).unwrap(),
                solo_cases_csv(90, seed, 1)
            );
        }
        let (_, sweep) = sweeper.fetch_csv("sweep").unwrap();
        assert_eq!(String::from_utf8(sweep).unwrap().lines().count(), 4);
    }
    // A failed fetch serves nothing and counts nothing.
    assert!(sweeper.fetch_csv("cases no-such-label").is_err());
    sweeper.quit();
    assert_eq!((counters().csv_fetches, counters().csv_renders), (11, 5));
    server.shutdown();
}
