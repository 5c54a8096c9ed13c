//! `colo-shortcuts` — command-line front end for the reproduction.
//!
//! ```text
//! colo-shortcuts world-info [--seed S]
//! colo-shortcuts funnel     [--seed S]
//! colo-shortcuts campaign   [--seed S] [--world-seed W] [--rounds N]
//!                           [--out DIR] [--serial | --rounds-in-flight N]
//!                           [--memory-budget B] [--churn SPEC]
//!                           [--metrics-out PATH] [--trace-out PATH]
//! colo-shortcuts sweep      [--seed S] [--seeds S1,S2,..] [--rounds N]
//!                           [--jobs-in-flight N] [--out DIR]
//!                           [--memory-budget B] [--churn SPEC]
//!                           [--metrics-out PATH] [--trace-out PATH]
//! colo-shortcuts serve      [--addr A] [--max-sessions N]
//!                           [--world-scale small|paper] [--seed S]
//!                           [--memory-budget B] [--credits CAP]
//!                           [--credit-refill PER_SEC]
//!                           [--subscriber-lag N]
//! colo-shortcuts client     --addr A [--stats] [--metrics]
//!                           [--seed S | --seeds ..]
//!                           [--rounds N] [--world-seed W] [--out DIR]
//!                           [--subscribe] [--framing text|binary]
//!                           [--retries N]
//! ```
//!
//! `campaign` runs the paper's measurement campaign — streaming a
//! progress line per completed round — and writes the figure-ready
//! CSVs (`cases.csv`, `improvement.csv`, `top_relays.csv`,
//! `threshold.csv`, `funnel.csv`) into `--out` (default `./out`).
//! `--rounds-in-flight N` selects the round-sharded pipeline (N rounds
//! measured concurrently); `--serial` forces one window at a time; the
//! default is per-round parallel. All three produce bit-identical
//! results for the same seed.
//!
//! `sweep` runs one campaign **per seed in `--seeds`** concurrently on
//! one world — built from `--seed` — sharing router tables, the pair
//! cache and one worker pool, streaming a progress line per completed
//! `(scenario, round)`. It writes `cases_<label>.csv` per scenario —
//! byte-identical to a solo `campaign --seed <s> --world-seed W` run
//! on the same world (`W` being the sweep's `--seed`) — plus a
//! cross-scenario `sweep.csv` comparison table of improvement rates.
//! Duplicate `--seeds` are an error (their output files would
//! overwrite each other), and the run ends with an engine-health
//! summary line (pair-cache hit rate, resident routing tables, pings).
//!
//! `--memory-budget B` (bytes, with binary `K`/`M`/`G` suffixes, or
//! `unbounded`) caps the run's cache residency: the router's
//! destination-table cache and the pair cache evict under the budget
//! and transparently recompute on re-touch — results are
//! **byte-identical** to an unbounded run, only peak memory and
//! throughput change. Budgets too small to hold even a couple of
//! routing tables (or one pair entry per cache shard) are rejected
//! up front with the minimum workable size. On `serve` the budget
//! additionally bounds the world pool itself: idle engine stacks are
//! evicted whole, least-recently-used first.
//!
//! `--churn SPEC` injects topology churn between measurement rounds:
//! a comma-separated list of `<event>@[round]<N>` entries, e.g.
//! `link-down:AS1-AS2@round3,as-down:AS5@7`. Events are `link-down`,
//! `link-up`, `as-down`, `as-up`. A routing table built before the
//! change is rebuilt under the new topology on its next lookup, and
//! every cached pair expanded before the change is re-expanded on its
//! next lookup; an empty or absent
//! spec is byte-identical to today's churn-free runs. On `sweep` the
//! schedule is sweep-level: all scenarios share one world, so churn
//! hits every scenario at the same absolute round.
//!
//! `serve` turns the same machinery into a long-lived measurement
//! service ([`shortcuts_service`]): clients connect over TCP, submit
//! `RUN`/`SWEEP`/`SUBSCRIBE` requests, stream per-round progress and
//! fetch the final CSVs — sessions touching the same world share one
//! warmed engine stack, and identical batches execute once and fan
//! out. Work admission is credit-based (`--credits` bucket capacity,
//! `--credit-refill` per second, per client IP; cost =
//! rounds × scenarios); `--subscriber-lag` bounds how far a broadcast
//! subscriber may fall behind before it is shed with `ERR lagged`.
//!
//! Observability: `--metrics-out PATH` (on `campaign` and `sweep`)
//! enables telemetry and writes a Prometheus-style exposition of the
//! run's metrics — per-stage latency histograms, scheduler gauges and
//! the engine's cache counters — once the run finishes; `--trace-out
//! PATH` additionally records every pipeline span and dumps a
//! chrome://tracing-compatible JSON file (open it at
//! `chrome://tracing` or <https://ui.perfetto.dev>). Telemetry
//! observes durations only — output CSVs are byte-identical with it
//! on or off. Against a running server, `client --metrics` fetches
//! the same exposition live over the `METRICS` verb.
//!
//! `client` is the matching scripting front end: `--subscribe` sends
//! `SUBSCRIBE` instead of `RUN`/`SWEEP` (attaching to an identical
//! in-flight batch when one exists), `--framing binary` negotiates
//! length-prefixed binary response frames, and `--retries N` retries
//! `ERR busy`/`ERR credits` refusals with jittered exponential backoff
//! honoring the server's `retry-after-ms` hint.

use shortcuts_core::analysis::improvement::ImprovementAnalysis;
use shortcuts_core::analysis::threshold::ThresholdCurve;
use shortcuts_core::analysis::top_relays::TopRelayAnalysis;
use shortcuts_core::report;
use shortcuts_core::sweep::{Sweep, SweepConfig};
use shortcuts_core::workflow::{Campaign, CampaignConfig};
use shortcuts_core::world::{World, WorldConfig};
use shortcuts_core::RelayType;
use shortcuts_service::{
    BatchRequest, BatchVerb, Client, Framing, RetryPolicy, Server, ServiceConfig, StreamEvent,
};
use shortcuts_topology::routing::table_approx_bytes;
use shortcuts_topology::{ChurnSchedule, MemoryBudget};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;

struct Args {
    seed: u64,
    world_seed: Option<u64>,
    seeds: Vec<u64>,
    rounds: u32,
    out: PathBuf,
    serial: bool,
    rounds_in_flight: Option<usize>,
    jobs_in_flight: usize,
    addr: String,
    max_sessions: usize,
    world_scale: String,
    stats: bool,
    memory_budget: MemoryBudget,
    churn: ChurnSchedule,
    subscribe: bool,
    framing: Framing,
    retries: u32,
    credits: Option<f64>,
    credit_refill: Option<f64>,
    subscriber_lag: Option<usize>,
    metrics: bool,
    metrics_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

/// Parses one flag's value, or prints `<flag>: takes <what>, got
/// "<value>"` and exits 2, as every other malformed flag does.
fn parse_flag<T: FromStr>(flag: &str, value: &str, what: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: takes {what}, got \"{value}\"");
        std::process::exit(2);
    })
}

/// A `--credits` / `--credit-refill` value: a finite number >= 0, or
/// the same exit 2 as [`parse_flag`]. A negative or infinite policy
/// would make every charge meaningless.
fn parse_credit_flag(flag: &str, value: &str) -> f64 {
    let what = "a finite number >= 0";
    let credits: f64 = parse_flag(flag, value, what);
    if !(credits.is_finite() && credits >= 0.0) {
        eprintln!("{flag}: takes {what}, got \"{value}\"");
        std::process::exit(2);
    }
    credits
}

fn parse_args(mut argv: std::env::Args) -> (String, Args) {
    let _bin = argv.next();
    let cmd = argv.next().unwrap_or_else(|| "help".to_string());
    let mut args = Args {
        seed: 2017,
        world_seed: None,
        seeds: Vec::new(),
        rounds: 8,
        out: PathBuf::from("out"),
        serial: false,
        rounds_in_flight: None,
        jobs_in_flight: 8,
        addr: "127.0.0.1:4617".to_string(),
        max_sessions: 8,
        world_scale: "paper".to_string(),
        stats: false,
        memory_budget: MemoryBudget::unbounded(),
        churn: ChurnSchedule::none(),
        subscribe: false,
        framing: Framing::Text,
        retries: 0,
        credits: None,
        credit_refill: None,
        subscriber_lag: None,
        metrics: false,
        metrics_out: None,
        trace_out: None,
    };
    while let Some(flag) = argv.next() {
        let flag = flag.as_str();
        let mut value = || {
            argv.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                std::process::exit(2);
            })
        };
        match flag {
            "--seed" => args.seed = parse_flag(flag, &value(), "a u64"),
            "--world-seed" => args.world_seed = Some(parse_flag(flag, &value(), "a u64")),
            "--seeds" => {
                args.seeds = value()
                    .split(',')
                    .map(|s| parse_flag(flag, s.trim(), "comma-separated u64s"))
                    .collect()
            }
            "--jobs-in-flight" => args.jobs_in_flight = parse_flag(flag, &value(), "a usize"),
            "--rounds" => args.rounds = parse_flag(flag, &value(), "a u32"),
            "--out" => args.out = PathBuf::from(value()),
            "--serial" => args.serial = true,
            "--addr" => args.addr = value(),
            "--max-sessions" => args.max_sessions = parse_flag(flag, &value(), "a usize"),
            "--world-scale" => args.world_scale = value(),
            "--stats" => args.stats = true,
            "--metrics" => args.metrics = true,
            "--metrics-out" => args.metrics_out = Some(PathBuf::from(value())),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value())),
            "--memory-budget" => {
                args.memory_budget = MemoryBudget::parse(&value()).unwrap_or_else(|msg| {
                    eprintln!("--memory-budget: {msg}");
                    std::process::exit(2);
                })
            }
            "--churn" => {
                args.churn = ChurnSchedule::parse(&value()).unwrap_or_else(|msg| {
                    eprintln!("--churn: {msg}");
                    std::process::exit(2);
                })
            }
            "--subscribe" => args.subscribe = true,
            "--framing" => {
                args.framing = Framing::parse(&value()).unwrap_or_else(|| {
                    eprintln!("--framing takes `text` or `binary`");
                    std::process::exit(2);
                })
            }
            "--retries" => args.retries = parse_flag(flag, &value(), "a u32"),
            "--credits" => args.credits = Some(parse_credit_flag(flag, &value())),
            "--credit-refill" => args.credit_refill = Some(parse_credit_flag(flag, &value())),
            "--subscriber-lag" => args.subscriber_lag = Some(parse_flag(flag, &value(), "a usize")),
            "--rounds-in-flight" => {
                args.rounds_in_flight = Some(parse_flag(flag, &value(), "a usize"))
            }
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
    }
    if args.serial && args.rounds_in_flight.is_some() {
        eprintln!("--serial and --rounds-in-flight are mutually exclusive");
        std::process::exit(2);
    }
    (cmd, args)
}

fn main() {
    let (cmd, args) = parse_args(std::env::args());
    match cmd.as_str() {
        "world-info" => world_info(&args),
        "funnel" => funnel(&args),
        "campaign" => campaign(&args),
        "sweep" => sweep(&args),
        "serve" => serve(&args),
        "client" => client(&args),
        _ => {
            eprintln!(
                "usage: colo-shortcuts <world-info|funnel|campaign|sweep|serve|client> \
                 [--seed S] [--seeds S1,S2,..] [--rounds N] [--out DIR] \
                 [--serial | --rounds-in-flight N] [--jobs-in-flight N] \
                 [--addr HOST:PORT] [--max-sessions N] [--world-scale small|paper] [--stats] \
                 [--memory-budget BYTES|K|M|G|unbounded] [--churn SPEC] \
                 [--subscribe] [--framing text|binary] [--retries N] \
                 [--credits CAP] [--credit-refill PER_SEC] [--subscriber-lag N] \
                 [--metrics] [--metrics-out PATH] [--trace-out PATH]"
            );
            std::process::exit(2);
        }
    }
}

fn build(args: &Args) -> World {
    // The world seed defaults to the campaign seed but can be pinned
    // independently (--world-seed), e.g. to compare several campaign
    // seeds on one world the way `sweep` does.
    let seed = args.world_seed.unwrap_or(args.seed);
    eprintln!("building world (seed {seed}) ...");
    World::build(&WorldConfig::paper_scale(), seed)
}

/// Rejects a `--memory-budget` this world cannot run under — a router
/// share below a couple of routing tables, or a pair share below one
/// entry per cache shard — before any measurement starts. The error
/// names the minimum workable budget.
fn check_budget(budget: MemoryBudget, world: &World) {
    if let Err(msg) = budget.ensure_fits(
        table_approx_bytes(world.topo.node_index().len()),
        2,
        shortcuts_netsim::ping::pair_entry_min_bytes(),
        shortcuts_netsim::ping::CACHE_SHARDS as u64,
    ) {
        eprintln!("--memory-budget: {msg}");
        std::process::exit(2);
    }
}

fn world_info(args: &Args) {
    let w = build(args);
    println!("seed:        {}", w.seed);
    println!("ASes:        {}", w.topo.as_count());
    println!("links:       {}", w.topo.link_count());
    println!("facilities:  {}", w.topo.facilities().len());
    println!("IXPs:        {}", w.topo.ixps().len());
    println!("hosts:       {}", w.hosts.len());
    println!("RA probes:   {}", w.ripe.probes().len());
    println!("PL nodes:    {}", w.planetlab.nodes().len());
    println!(
        "LGs:         {} in {} cities",
        w.looking_glasses.lgs().len(),
        w.looking_glasses.city_count()
    );
    println!("facility-dataset records: {}", w.facility_dataset.len());
}

fn funnel(args: &Args) {
    use rand::SeedableRng;
    use shortcuts_core::colo::{run_pipeline, ColoPipelineConfig};
    use shortcuts_netsim::clock::SimTime;
    let w = build(args);
    let handle = shortcuts_netsim::PingHandle::new(w.shared().engine(Default::default()));
    let mut rng = rand::rngs::StdRng::seed_from_u64(args.seed);
    let pool = run_pipeline(
        &w,
        &handle,
        w.looking_glasses.lgs()[0].host,
        SimTime(0.0),
        &ColoPipelineConfig::default(),
        &mut rng,
    );
    print!("{}", report::funnel_csv(&pool.funnel));
}

/// Rejects a `--churn` schedule naming ASes or links the built world
/// does not have, before any measurement starts.
fn check_churn(churn: &ChurnSchedule, world: &World) {
    if let Err(msg) = churn.validate(&world.topo) {
        eprintln!("--churn: {msg}");
        std::process::exit(2);
    }
}

/// Turns telemetry on for this process when `--metrics-out` or
/// `--trace-out` asked for it. Must run before any measurement so the
/// stage spans actually record.
fn telemetry_setup(args: &Args) {
    if args.metrics_out.is_some() || args.trace_out.is_some() {
        shortcuts_telemetry::global().set_enabled(true);
    }
    if args.trace_out.is_some() {
        shortcuts_telemetry::global().start_trace();
    }
}

/// A file operation's result, or — on failure — `<flag>: <path>:
/// <error>` on stderr and exit 1: a bad path is the user's to fix.
fn or_exit<T>(flag: &str, path: &Path, result: std::io::Result<T>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{flag}: {}: {e}", path.display());
        std::process::exit(1);
    })
}

/// Writes `contents` to `name` in the `--out` directory.
fn write_out(args: &Args, name: &str, contents: impl AsRef<[u8]>) {
    let path = args.out.join(name);
    or_exit("--out", &path, std::fs::write(&path, contents));
    eprintln!("wrote {}", path.display());
}

/// Writes the `--metrics-out` exposition (global registry plus the
/// run's engine counters) and the `--trace-out` chrome-trace JSON.
fn telemetry_finish(args: &Args, engine: &shortcuts_netsim::PingEngine, world_seed: u64) {
    if let Some(path) = &args.metrics_out {
        let mut out = String::new();
        let tele = shortcuts_telemetry::global();
        tele.render_into(&mut out);
        let world = world_seed.to_string();
        shortcuts_telemetry::prom_fields(
            &mut out,
            "colo_engine",
            &[
                ("world", world.as_str()),
                ("policy", engine.router().policy().label()),
            ],
            &engine.engine_stats().fields(),
        );
        or_exit("--metrics-out", path, std::fs::write(path, out));
        eprintln!("wrote {}", path.display());
    }
    if let Some(path) = &args.trace_out {
        let json = shortcuts_telemetry::global().finish_trace_json();
        or_exit("--trace-out", path, std::fs::write(path, json));
        eprintln!("wrote {}", path.display());
    }
}

fn campaign(args: &Args) {
    telemetry_setup(args);
    or_exit("--out", &args.out, std::fs::create_dir_all(&args.out));
    let w = build(args);
    check_budget(args.memory_budget, &w);
    check_churn(&args.churn, &w);
    let mut cfg = CampaignConfig::paper();
    cfg.rounds = args.rounds;
    cfg.seed = args.seed;
    cfg.memory = args.memory_budget;
    cfg.churn = args.churn.clone();
    let mode = if args.serial {
        cfg.exec = shortcuts_core::ExecMode::Serial;
        "serial".to_string()
    } else if let Some(n) = args.rounds_in_flight {
        cfg.exec = shortcuts_core::ExecMode::Sharded {
            rounds_in_flight: n,
        };
        format!("sharded, {n} rounds in flight")
    } else {
        "parallel".to_string()
    };
    eprintln!("running {} rounds ({mode}) ...", cfg.rounds);
    // Build the engine explicitly (exactly what run_streaming would do)
    // so its cache counters can feed --metrics-out after the run.
    let engine = w.shared().engine_budgeted(cfg.routing, cfg.memory);
    // Stream per-round progress: summaries arrive in round order as
    // rounds complete, long before the campaign finishes.
    let results = Campaign::new(&w, cfg).run_streaming_on(&engine, |s| {
        eprintln!(
            "round {:>3}: {} endpoints, {} cases ({} unresponsive), \
             {} of {} links, {} symmetry samples",
            s.round,
            s.endpoints,
            s.cases,
            s.unresponsive_pairs,
            s.links_measured,
            s.links_planned,
            s.symmetry_samples,
        );
    });
    eprintln!(
        "{} cases, {:.2} M pings",
        results.total_cases(),
        results.pings_sent as f64 / 1e6
    );

    let write = |name: &str, contents: String| write_out(args, name, contents);
    write("cases.csv", report::cases_csv(&results));
    let imp = ImprovementAnalysis::compute(&results);
    write("improvement.csv", report::improvement_csv(&imp));
    let tops: Vec<TopRelayAnalysis> = RelayType::ALL
        .iter()
        .map(|&t| TopRelayAnalysis::compute(&results, t, 200))
        .collect();
    write("top_relays.csv", report::top_relays_csv(&tops));
    let xs: Vec<f64> = (0..=20).map(|i| f64::from(i) * 5.0).collect();
    let mut curves = Vec::new();
    for t in RelayType::ALL {
        curves.push(ThresholdCurve::compute(&results, t, Some(10), &xs));
        curves.push(ThresholdCurve::compute(&results, t, None, &xs));
    }
    write("threshold.csv", report::threshold_csv(&curves));
    write("funnel.csv", report::funnel_csv(&results.colo_pool.funnel));
    telemetry_finish(args, &engine, w.seed);
}

fn sweep(args: &Args) {
    telemetry_setup(args);
    let seeds: Vec<u64> = if args.seeds.is_empty() {
        // Default: four seeds starting at --seed.
        let Some(last) = args.seed.checked_add(3) else {
            eprintln!(
                "--seed: {} leaves no room for the default four scenarios; pass --seeds",
                args.seed
            );
            std::process::exit(2);
        };
        (args.seed..=last).collect()
    } else {
        args.seeds.clone()
    };
    // Scenario labels (and output file names) derive from the seed, so
    // a duplicate would silently overwrite another scenario's CSV.
    // Reject it outright — before paying for the world build — rather
    // than guessing which one was meant.
    let mut seen = std::collections::HashSet::new();
    for s in &seeds {
        if !seen.insert(*s) {
            eprintln!("duplicate seed {s} in --seeds: each scenario writes cases_seed-{s}.csv");
            std::process::exit(2);
        }
    }
    or_exit("--out", &args.out, std::fs::create_dir_all(&args.out));
    let w = Arc::new(build(args));
    check_budget(args.memory_budget, &w);
    check_churn(&args.churn, &w);
    let mut base = CampaignConfig::paper();
    base.rounds = args.rounds;
    base.memory = args.memory_budget;
    // from_seeds lifts the base schedule to sweep level: scenarios
    // share one world, so churn hits them at the same absolute round.
    base.churn = args.churn.clone();
    let mut cfg = SweepConfig::from_seeds(&base, seeds);
    cfg.jobs_in_flight = args.jobs_in_flight;
    let labels: Vec<String> = cfg.scenarios.iter().map(|s| s.label.clone()).collect();
    eprintln!(
        "sweeping {} scenarios x {} rounds ({} jobs in flight, shared world) ...",
        cfg.scenarios.len(),
        args.rounds,
        cfg.jobs_in_flight,
    );
    // Build the shared engine stack explicitly so its health counters
    // can be reported once the sweep is done. Under --memory-budget it
    // comes cache-bounded; results are byte-identical either way.
    let engine = w.shared().engine_budgeted(base.routing, base.memory);
    // One line per completed (scenario, round): each scenario streams
    // in round order while the others are still measuring.
    let outcome = Sweep::with_engine(Arc::clone(&w), Arc::clone(&engine), cfg).run_streaming(
        |scenario, s| {
            eprintln!(
                "{:>10} round {:>3}: {} endpoints, {} cases ({} unresponsive), \
             {} of {} links",
                labels[scenario],
                s.round,
                s.endpoints,
                s.cases,
                s.unresponsive_pairs,
                s.links_measured,
                s.links_planned,
            );
        },
    );

    let write = |name: &str, contents: String| write_out(args, name, contents);
    for sc in &outcome.scenarios {
        eprintln!(
            "{:>10}: {} cases, {:.2} M pings",
            sc.label,
            sc.results.total_cases(),
            sc.results.pings_sent as f64 / 1e6
        );
        write(
            &format!("cases_{}.csv", sc.label),
            report::cases_csv(&sc.results),
        );
    }
    write("sweep.csv", outcome.comparison_csv());
    eprintln!(
        "engine: {} memory_budget={}",
        engine.engine_stats().summary(),
        args.memory_budget,
    );
    telemetry_finish(args, &engine, w.seed);
}

fn serve(args: &Args) {
    let mut cfg = match args.world_scale.as_str() {
        "paper" => ServiceConfig::paper_scale(),
        "small" => ServiceConfig::small(),
        other => {
            eprintln!("--world-scale takes `small` or `paper`, got {other:?}");
            std::process::exit(2);
        }
    };
    cfg.max_sessions = args.max_sessions;
    cfg.default_world_seed = args.world_seed.unwrap_or(args.seed);
    cfg.memory = args.memory_budget;
    if let Some(cap) = args.credits {
        cfg.credits.capacity = cap;
    }
    if let Some(rate) = args.credit_refill {
        cfg.credits.refill_per_sec = rate;
    }
    if let Some(lag) = args.subscriber_lag {
        cfg.subscriber_lag = lag;
    }
    let credits = cfg.credits;
    // Worlds are built lazily per requested seed, so the exact table
    // size is unknown here — still reject budgets whose pair share
    // cannot hold one entry per cache shard.
    if let Err(msg) = args.memory_budget.ensure_fits(
        0,
        0,
        shortcuts_netsim::ping::pair_entry_min_bytes(),
        shortcuts_netsim::ping::CACHE_SHARDS as u64,
    ) {
        eprintln!("--memory-budget: {msg}");
        std::process::exit(2);
    }
    let max_sessions = cfg.max_sessions;
    let server = Server::start(args.addr.as_str(), cfg).unwrap_or_else(|e| {
        eprintln!("bind {}: {e}", args.addr);
        std::process::exit(1);
    });
    eprintln!(
        "shortcuts-service listening on {} ({} scale world, max {} sessions, \
         memory budget {}, credits {}/client refilling {}/s)",
        server.local_addr(),
        args.world_scale,
        max_sessions,
        args.memory_budget,
        credits.capacity,
        credits.refill_per_sec,
    );
    eprintln!(
        "try: colo-shortcuts client --addr {} --seed 2017 --rounds 4",
        server.local_addr()
    );
    // Serve until killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn client(args: &Args) {
    let retry = RetryPolicy::with_attempts(args.retries);
    let mut client = Client::connect_with_retry(args.addr.as_str(), retry).unwrap_or_else(|e| {
        eprintln!("connect {}: {e}", args.addr);
        std::process::exit(1);
    });
    if args.framing != Framing::Text {
        if let Err(e) = client.negotiate(args.framing) {
            eprintln!("HELLO framing={} failed: {e}", args.framing.label());
            std::process::exit(1);
        }
    }

    if args.stats {
        // Stats-only probe: print one line per pooled engine stack.
        match client.stats() {
            Ok(lines) if lines.is_empty() => println!("no engine stacks pooled yet"),
            Ok(lines) => lines.iter().for_each(|l| println!("{l}")),
            Err(e) => {
                eprintln!("STATS failed: {e}");
                std::process::exit(1);
            }
        }
        client.quit();
        return;
    }

    if args.metrics {
        // Metrics-only probe: dump the server's Prometheus-style
        // exposition (stage histograms, gauges, engine/pool/credit
        // counters) and leave.
        match client.metrics() {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("METRICS failed: {e}");
                std::process::exit(1);
            }
        }
        client.quit();
        return;
    }

    // Build the request: SUBSCRIBE with --subscribe, else SWEEP when
    // --seeds names several scenarios and RUN otherwise. Progress lines
    // stream to stderr as rounds finish.
    if args.subscribe && !args.churn.is_empty() {
        // SUBSCRIBE shares one execution with every identical request;
        // churn is rejected server-side (not shareable), so it is not
        // offered here.
        eprintln!("--subscribe does not take --churn: churning runs are not shareable");
        std::process::exit(2);
    }
    let verb = if args.subscribe {
        BatchVerb::Subscribe
    } else if args.seeds.is_empty() {
        BatchVerb::Run
    } else {
        BatchVerb::Sweep
    };
    let request = BatchRequest {
        verb,
        seeds: if args.seeds.is_empty() {
            vec![args.seed]
        } else {
            args.seeds.clone()
        },
        rounds: args.rounds,
        world_seed: args.world_seed,
        policy: Default::default(),
        label: None,
        in_flight: (verb == BatchVerb::Sweep).then_some(args.jobs_in_flight),
        churn: args.churn.clone(),
    };
    let labels: Vec<String> = request.seeds.iter().map(|s| format!("seed-{s}")).collect();
    let request = request.to_string();
    eprintln!("> {request}");
    let outcome = client.run_streaming_with_retry(&request, retry, |event| match event {
        StreamEvent::Round(line) => eprintln!("round {line}"),
        StreamEvent::End(line) => eprintln!("done  {line}"),
    });
    if let Err(e) = outcome {
        eprintln!("{request} failed: {e}");
        std::process::exit(1);
    }

    // Fetch every scenario's cases CSV (plus the comparison table for
    // sweeps) into --out, named by the server.
    or_exit("--out", &args.out, std::fs::create_dir_all(&args.out));
    let mut fetches: Vec<String> = labels.iter().map(|l| format!("cases {l}")).collect();
    if labels.len() > 1 {
        fetches.push("sweep".to_string());
    }
    for what in fetches {
        match client.fetch_csv(&what) {
            Ok((name, bytes)) => {
                // The name comes off the wire; never let a hostile
                // server steer the write outside --out (absolute paths
                // or `..` traversal through Path::join).
                if Path::new(&name).file_name() != Some(Path::new(&name).as_os_str()) {
                    eprintln!("server sent unsafe CSV name {name:?}");
                    std::process::exit(1);
                }
                write_out(args, &name, bytes);
            }
            Err(e) => {
                eprintln!("CSV {what} failed: {e}");
                std::process::exit(1);
            }
        }
    }
    client.quit();
}
