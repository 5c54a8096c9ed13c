//! End-to-end tests of the `METRICS` exposition surface.
//!
//! The anti-drift contract: `METRICS` and `STATS` render the *same*
//! `fields()` lists, so every engine / pool / service counter must
//! carry the same value on both surfaces when sampled back to back on
//! an idle session. On top of that: the process-wide telemetry series
//! (per-stage latency histograms, scheduler gauges) must be present
//! and populated after a run, and the per-IP credit lines must come
//! out sorted.

use shortcuts_service::{Client, CreditLedger, Server, ServiceConfig};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

/// Held by every test here that drives a `RUN`. `Telemetry` is a
/// process-global singleton, so every `Server` of this binary shares
/// one `colo_shard_jobs_in_flight` gauge: a sibling's campaign in
/// flight made `stage_histograms_populate_after_a_run` read it above
/// zero (3 failures in 25 runs). Serialising the runs hides that; the
/// fix is a `Telemetry` per `Server` (ROADMAP item 2a).
static ONE_RUN_AT_A_TIME: Mutex<()> = Mutex::new(());

fn one_run_at_a_time() -> MutexGuard<'static, ()> {
    // A failed sibling must not fail this test too.
    ONE_RUN_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn small_server() -> Server {
    let mut cfg = ServiceConfig::small();
    cfg.max_sessions = 4;
    cfg.default_world_seed = 90;
    Server::start("127.0.0.1:0", cfg).expect("bind ephemeral port")
}

/// Parses a Prometheus text exposition into `name{labels}` → value.
fn parse_exposition(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (key, value) = l
                .rsplit_once(' ')
                .unwrap_or_else(|| panic!("bad line {l:?}"));
            (key.to_string(), value.to_string())
        })
        .collect()
}

/// Parses the `name=value` pairs of one STATS summary segment.
fn parse_kv(segment: &str) -> Vec<(String, String)> {
    segment
        .split_whitespace()
        .map(|kv| {
            let (k, v) = kv
                .split_once('=')
                .unwrap_or_else(|| panic!("bad kv {kv:?}"));
            (k.to_string(), v.to_string())
        })
        .collect()
}

/// Every counter STATS reports must appear in METRICS with the same
/// rendered value — both surfaces format from one `fields()` list, so
/// any mismatch is a drift bug, not a tolerance question. (Credit
/// balances are the one time-dependent exception, checked separately.)
#[test]
fn metrics_values_agree_with_stats_fields() {
    let _serial = one_run_at_a_time();
    let server = small_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .run_streaming("RUN seed=4242 rounds=2 world-seed=90", |_| {})
        .unwrap();

    let stats = client.stats().unwrap();
    let metrics = parse_exposition(&client.metrics().unwrap());

    let mut engine_lines = 0;
    let mut credit_lines: Vec<String> = Vec::new();
    for line in &stats {
        if let Some(rest) = line.strip_prefix("world=") {
            // `world=90 policy=valley-free pair_hits=.. ...`
            let kvs = parse_kv(&format!("world={rest}"));
            let world = &kvs[0].1;
            let policy = &kvs[1].1;
            for (name, value) in &kvs[2..] {
                let key = format!("colo_engine_{name}{{world=\"{world}\",policy=\"{policy}\"}}");
                assert_eq!(
                    metrics.get(&key),
                    Some(value),
                    "engine field {name} drifted between STATS and METRICS"
                );
            }
            engine_lines += 1;
        } else if let Some(rest) = line.strip_prefix("pool ") {
            for (name, value) in parse_kv(rest) {
                // `budget=unbounded` has no numeric METRICS mirror;
                // a finite budget appears as colo_pool_budget_bytes.
                let key = if name == "budget" {
                    if value == "unbounded" {
                        continue;
                    }
                    "colo_pool_budget_bytes".to_string()
                } else {
                    format!("colo_pool_{name}")
                };
                assert_eq!(
                    metrics.get(&key),
                    Some(&value),
                    "pool field {name} drifted between STATS and METRICS"
                );
            }
        } else if let Some(rest) = line.strip_prefix("service ") {
            for (name, value) in parse_kv(rest) {
                assert_eq!(
                    metrics.get(&format!("colo_service_{name}")),
                    Some(&value),
                    "service field {name} drifted between STATS and METRICS"
                );
            }
        } else if line.starts_with("credits ") {
            credit_lines.push(line.clone());
        }
    }
    assert!(engine_lines >= 1, "no engine line in STATS: {stats:?}");

    // Credit balances refill on the clock, so the two surfaces sample
    // a moving value — compare within a generous window instead of
    // byte-for-byte, and require the same (sorted) client set.
    assert!(
        !credit_lines.is_empty(),
        "metered RUN left no credit line in STATS: {stats:?}"
    );
    let mut metric_ips = Vec::new();
    for line in &credit_lines {
        let kvs = parse_kv(line.strip_prefix("credits ").unwrap());
        let (ip, stats_balance) = (&kvs[0].1, kvs[1].1.parse::<f64>().unwrap());
        let key = format!("colo_credits_balance{{ip=\"{ip}\"}}");
        let metrics_balance: f64 = metrics
            .get(&key)
            .unwrap_or_else(|| panic!("no {key} in METRICS"))
            .parse()
            .unwrap();
        assert!(
            (metrics_balance - stats_balance).abs() < 4.0,
            "credit balance for {ip}: STATS {stats_balance} vs METRICS {metrics_balance}"
        );
        metric_ips.push(ip.clone());
    }
    let mut sorted = metric_ips.clone();
    sorted.sort();
    assert_eq!(metric_ips, sorted, "credit lines are not sorted by IP");

    client.quit();
    server.shutdown();
}

/// After a RUN the pipeline span histograms must be live: every stage
/// series exposed, and the stages that run in every execution mode
/// (plan, sample, stitch) populated with samples and a nonzero sum.
#[test]
fn stage_histograms_populate_after_a_run() {
    let _serial = one_run_at_a_time();
    let server = small_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .run_streaming("RUN seed=77 rounds=2 world-seed=90", |_| {})
        .unwrap();
    let metrics = parse_exposition(&client.metrics().unwrap());

    for stage in ["plan", "resolve_pairs", "sample", "stitch", "repair"] {
        assert!(
            metrics.contains_key(&format!(
                "colo_stage_duration_ns_count{{stage=\"{stage}\"}}"
            )),
            "stage {stage} series missing from METRICS"
        );
    }
    for stage in ["plan", "sample", "stitch"] {
        let count: u64 = metrics[&format!("colo_stage_duration_ns_count{{stage=\"{stage}\"}}")]
            .parse()
            .unwrap();
        let sum: u64 = metrics[&format!("colo_stage_duration_ns_sum{{stage=\"{stage}\"}}")]
            .parse()
            .unwrap();
        assert!(count > 0, "stage {stage} recorded no spans");
        assert!(sum > 0, "stage {stage} recorded zero total duration");
    }
    // Scheduler gauges exist and are back to idle.
    assert_eq!(metrics["colo_shard_jobs_in_flight"], "0");
    assert!(metrics.contains_key("colo_shard_queue_depth"));

    client.quit();
    server.shutdown();
}

/// Multi-client sort order of `balances()` — e2e sessions all arrive
/// from 127.0.0.1, so the many-IP ordering contract is pinned at the
/// ledger layer.
#[test]
fn ledger_balances_sort_by_ip_across_clients() {
    let ledger = CreditLedger::new(Default::default());
    for ip in ["10.9.9.9", "10.1.2.3", "192.168.0.1", "10.1.10.3"] {
        ledger.try_charge(ip.parse().unwrap(), 1.0);
    }
    let ips: Vec<String> = ledger
        .balances()
        .iter()
        .map(|(ip, _)| ip.to_string())
        .collect();
    assert_eq!(ips, ["10.1.2.3", "10.1.10.3", "10.9.9.9", "192.168.0.1"]);
}
