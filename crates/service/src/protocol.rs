//! The wire protocol: a small, line-oriented request/response language.
//!
//! Every request is one text line; every response is one or more text
//! lines, except CSV payloads which are length-prefixed raw bytes. The
//! protocol is deliberately telnet-friendly — you can drive a server
//! by hand with `nc` — and trivially scriptable, which is all a
//! measurement front end needs.
//!
//! ## Requests
//!
//! ```text
//! HELLO [framing=text|binary] [credits=on|off]
//! RUN seed=<u64> [rounds=<u32>] [world-seed=<u64>] [policy=<p>]
//!     [label=<name>] [rounds-in-flight=<n>] [churn=<spec>]
//! SWEEP seeds=<u64,u64,..> [rounds=<u32>] [world-seed=<u64>]
//!     [policy=<p>] [jobs-in-flight=<n>] [churn=<spec>]
//! SUBSCRIBE seed=<u64>|seeds=<u64,u64,..> [rounds=<u32>]
//!     [world-seed=<u64>] [policy=<p>] [jobs-in-flight=<n>]
//! CSV cases [<label>]
//! CSV sweep
//! STATS
//! METRICS
//! QUIT
//! ```
//!
//! `HELLO` negotiates response framing: the reply is always the text
//! line `OK hello framing=<f>`, after which every response uses the
//! negotiated framing (see [`crate::frame`] for the binary layout).
//! Requests stay text in both framings. `credits=on` additionally opts
//! this session into credit-spend feedback: each metered request's
//! terminating `OK` gains a ` credits=<remaining>` suffix. The suffix
//! is session-local — it is appended after broadcast fan-out, so taps
//! of the same batch still receive byte-identical streams.
//!
//! `SUBSCRIBE` asks for the *bytes* of a batch rather than an
//! execution: if a RUN/SWEEP/SUBSCRIBE with the same
//! `(world-seed, policy, seeds, rounds)` key is in flight (or recently
//! finished), the session taps its broadcast and receives the
//! identical stream without re-executing; otherwise the session
//! becomes the producer and executes normally. Options that change
//! the stream bytes (`label`, `churn`) are rejected — a relabelled or
//! churning batch is not shareable. `jobs-in-flight` is accepted but
//! excluded from the key (scheduling never changes bytes). A tap that
//! falls too far behind the producer is shed with `ERR lagged`.
//!
//! `policy` is `valley-free` (default) or `shortest-path`. `world-seed`
//! defaults to the server's configured default world. `rounds` defaults
//! to 4. Labels default to `seed-<seed>`. `churn` is a comma-separated
//! [`ChurnSchedule`] spec — e.g.
//! `churn=link-down:AS1-AS2@round3,as-down:AS5@7` — applying topology
//! deltas at round boundaries; churn requests run on a **private**
//! engine stack (deltas permanently advance an engine's epoch, so the
//! pooled stacks never see them).
//!
//! ## Responses
//!
//! - `OK <detail>` — request finished.
//! - `ERR <message>` — request rejected; the session stays usable
//!   (except the admission `ERR busy`, after which the server closes
//!   the connection).
//! - `ROUND <label> <round> endpoints=<e> pairs=<p> cases=<c>
//!   unresponsive=<u> links=<measured>/<planned> symmetry=<s>` — one
//!   per completed round, **per scenario in round order**, streamed
//!   while later rounds are still measuring.
//! - `END <label> seed=<s> cases=<n> pings=<n> unresponsive=<n>` — one
//!   per scenario once the whole batch finishes.
//! - `CSV <name> <len>` followed by exactly `<len>` raw bytes — a CSV
//!   payload.
//! - `STATS world=<seed> policy=<p> <EngineStats summary>` — one per
//!   pooled engine stack. The engine summary includes the byte-budget
//!   gauges: `tables_bytes`/`table_evictions`/`table_recomputes` for
//!   the router's destination-table cache and
//!   `pair_bytes`/`pair_evictions` for the sharded pair cache. The
//!   pair cache is keyed by **site pair** (`(AS, city)` →
//!   `(AS, city)`): every `pair_*` counter counts site-pair entries
//!   and lookups, `pair_rows` the host pairs served from them (so
//!   `pair_rows / (pair_hits + pair_misses)` is the live
//!   hosts-per-site sharing factor within a batch; sharing across
//!   batches reads as hit rate), and `routes_walked` the directed
//!   AS-pair routes walked off a routing table and interned.
//! - `STATS pool worlds=<n> engines=<n> bytes=<b> stack_evictions=<n>
//!   budget=<b|unbounded>` — one aggregate line after the per-engine
//!   lines: whole-stack residency against the service's memory budget
//!   (`--memory-budget` on `serve`).
//! - `STATS service subscribers=<n> broadcasts=<n>
//!   rounds_fanned_out=<n> subscribers_shed=<n> credits_denied=<n>` —
//!   the fan-out and admission counters, one line after the pool line.
//! - `STATS credits ip=<addr> balance=<n>` — one per client that has
//!   paid for metered work (free probes never create a bucket), sorted
//!   by IP, refilled to now. The count in `OK stats <n>` includes the
//!   pool, service and credits lines.
//! - `METRICS <len>` followed by exactly `<len>` raw bytes — a
//!   Prometheus-style text exposition (`name{label="v"} value` lines):
//!   process-wide telemetry (per-stage `colo_stage_duration_ns`
//!   latency histograms, the scheduler gauges
//!   `colo_shard_queue_depth` — queued work items, each a round to
//!   plan or a chunk of at most 64 windows — and
//!   `colo_shard_jobs_in_flight`) plus
//!   `colo_engine_*{world=..,policy=..}`, `colo_pool_*`,
//!   `colo_service_*` and `colo_credits_balance{ip=..}` samples
//!   rendered from the same field lists as the `STATS` lines, so the
//!   two surfaces cannot disagree.
//! - `ERR credits need=<n> have=<n> retry-after-ms=<ms>` — the request
//!   exceeded the client's credit balance; the session stays usable
//!   and the hint says when the bucket will cover the cost.
//! - `ERR lagged ...` — this subscriber fell behind the broadcast and
//!   was shed; re-request to resubscribe.

use crate::frame::Framing;
use shortcuts_topology::routing::RoutingPolicy;
use shortcuts_topology::ChurnSchedule;

/// Greeting the server sends on every admitted connection.
pub const GREETING: &str = "OK shortcuts-service ready";

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run one campaign, streaming its rounds.
    Run {
        /// Campaign seed.
        seed: u64,
        /// Number of rounds.
        rounds: u32,
        /// World to run against (server default when absent).
        world_seed: Option<u64>,
        /// Routing policy.
        policy: RoutingPolicy,
        /// Scenario label (default `seed-<seed>`).
        label: Option<String>,
        /// Rounds kept in flight (server-clamped).
        rounds_in_flight: Option<usize>,
        /// Topology churn schedule (empty = none). Non-empty schedules
        /// run the campaign on a private engine stack.
        churn: ChurnSchedule,
    },
    /// Run a multi-scenario sweep, streaming all scenarios' rounds.
    Sweep {
        /// One campaign seed per scenario; duplicates are rejected.
        seeds: Vec<u64>,
        /// Rounds per scenario.
        rounds: u32,
        /// World to run against (server default when absent).
        world_seed: Option<u64>,
        /// Routing policy (shared by all scenarios).
        policy: RoutingPolicy,
        /// `(campaign, round)` jobs kept in flight (server-clamped).
        jobs_in_flight: Option<usize>,
        /// Sweep-level topology churn, seen by every scenario at the
        /// same rounds (empty = none). Non-empty schedules run the
        /// sweep on a private engine stack.
        churn: ChurnSchedule,
    },
    /// Attach to the broadcast of a batch: tap an in-flight (or
    /// recently finished) identical batch, or become its producer.
    Subscribe {
        /// One campaign seed per scenario; duplicates are rejected.
        seeds: Vec<u64>,
        /// Rounds per scenario.
        rounds: u32,
        /// World to run against (server default when absent).
        world_seed: Option<u64>,
        /// Routing policy (part of the broadcast key).
        policy: RoutingPolicy,
        /// Scheduling bound if this session ends up producing; never
        /// part of the broadcast key.
        jobs_in_flight: Option<usize>,
    },
    /// Negotiate response framing for the rest of the session.
    Hello {
        /// Requested framing.
        framing: Framing,
        /// Opt into per-request credit-spend feedback: metered `OK`
        /// terminators gain a session-local ` credits=<remaining>`
        /// suffix.
        credits: bool,
    },
    /// Fetch the cases CSV of the session's last run — of scenario
    /// `label`, or of the only/first scenario when `None`.
    CsvCases {
        /// Scenario label to fetch.
        label: Option<String>,
    },
    /// Fetch the cross-scenario comparison CSV of the last run.
    CsvSweep,
    /// Engine-stack health of every pooled `(world, policy)` engine,
    /// plus one aggregate pool-residency line.
    Stats,
    /// Prometheus-style exposition of every metric the server holds:
    /// process-wide telemetry (per-stage latency histograms, scheduler
    /// gauges) plus per-engine, pool, service and credit samples
    /// derived from the same field lists `STATS` renders.
    Metrics,
    /// Close the session.
    Quit,
}

/// Splits `key=value` with a protocol-grade error.
fn split_kv(tok: &str) -> Result<(&str, &str), String> {
    tok.split_once('=')
        .ok_or_else(|| format!("expected key=value, got {tok:?}"))
}

fn parse_num<T: std::str::FromStr>(key: &str, val: &str) -> Result<T, String> {
    val.parse()
        .map_err(|_| format!("{key} takes a number, got {val:?}"))
}

fn parse_seeds(val: &str) -> Result<Vec<u64>, String> {
    let seeds: Vec<u64> = val
        .split(',')
        .map(|s| parse_num("seeds", s.trim()))
        .collect::<Result<_, _>>()?;
    if seeds.is_empty() {
        return Err("seeds must name at least one seed".into());
    }
    let mut seen = std::collections::BTreeSet::new();
    for s in &seeds {
        if !seen.insert(*s) {
            return Err(format!(
                "duplicate seed {s}: scenario labels derive from the seed, \
                 so its results would overwrite each other"
            ));
        }
    }
    Ok(seeds)
}

impl Request {
    /// Parses one request line. Errors are protocol `ERR` payloads:
    /// human-readable, single-line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let mut toks = line.split_whitespace();
        let cmd = toks.next().ok_or("empty request")?;
        let rest: Vec<&str> = toks.collect();
        match cmd.to_ascii_uppercase().as_str() {
            "RUN" => {
                let mut seed = None;
                let mut rounds = 4u32;
                let mut world_seed = None;
                let mut policy = RoutingPolicy::default();
                let mut label = None;
                let mut rounds_in_flight = None;
                let mut churn = ChurnSchedule::none();
                for tok in rest {
                    let (k, v) = split_kv(tok)?;
                    match k {
                        "seed" => seed = Some(parse_num("seed", v)?),
                        "rounds" => rounds = parse_num("rounds", v)?,
                        "world-seed" => world_seed = Some(parse_num("world-seed", v)?),
                        "policy" => {
                            policy = RoutingPolicy::parse(v)
                                .ok_or_else(|| format!("unknown policy {v:?}"))?;
                        }
                        "label" => label = Some(v.to_string()),
                        "rounds-in-flight" => {
                            rounds_in_flight = Some(parse_num("rounds-in-flight", v)?);
                        }
                        "churn" => churn = ChurnSchedule::parse(v)?,
                        other => return Err(format!("unknown RUN option {other:?}")),
                    }
                }
                Ok(Request::Run {
                    seed: seed.ok_or("RUN requires seed=<u64>")?,
                    rounds,
                    world_seed,
                    policy,
                    label,
                    rounds_in_flight,
                    churn,
                })
            }
            "SWEEP" => {
                let mut seeds = None;
                let mut rounds = 4u32;
                let mut world_seed = None;
                let mut policy = RoutingPolicy::default();
                let mut jobs_in_flight = None;
                let mut churn = ChurnSchedule::none();
                for tok in rest {
                    let (k, v) = split_kv(tok)?;
                    match k {
                        "seeds" => seeds = Some(parse_seeds(v)?),
                        "rounds" => rounds = parse_num("rounds", v)?,
                        "world-seed" => world_seed = Some(parse_num("world-seed", v)?),
                        "policy" => {
                            policy = RoutingPolicy::parse(v)
                                .ok_or_else(|| format!("unknown policy {v:?}"))?;
                        }
                        "jobs-in-flight" => {
                            jobs_in_flight = Some(parse_num("jobs-in-flight", v)?);
                        }
                        "churn" => churn = ChurnSchedule::parse(v)?,
                        other => return Err(format!("unknown SWEEP option {other:?}")),
                    }
                }
                Ok(Request::Sweep {
                    seeds: seeds.ok_or("SWEEP requires seeds=<u64,u64,..>")?,
                    rounds,
                    world_seed,
                    policy,
                    jobs_in_flight,
                    churn,
                })
            }
            "SUBSCRIBE" => {
                let mut seeds = None;
                let mut rounds = 4u32;
                let mut world_seed = None;
                let mut policy = RoutingPolicy::default();
                let mut jobs_in_flight = None;
                for tok in rest {
                    let (k, v) = split_kv(tok)?;
                    match k {
                        "seed" => seeds = Some(vec![parse_num("seed", v)?]),
                        "seeds" => seeds = Some(parse_seeds(v)?),
                        "rounds" => rounds = parse_num("rounds", v)?,
                        "world-seed" => world_seed = Some(parse_num("world-seed", v)?),
                        "policy" => {
                            policy = RoutingPolicy::parse(v)
                                .ok_or_else(|| format!("unknown policy {v:?}"))?;
                        }
                        "jobs-in-flight" => {
                            jobs_in_flight = Some(parse_num("jobs-in-flight", v)?);
                        }
                        "label" | "churn" => {
                            return Err(format!(
                                "SUBSCRIBE does not take {k}: it changes the stream \
                                 bytes, so the batch would not be shareable"
                            ));
                        }
                        other => return Err(format!("unknown SUBSCRIBE option {other:?}")),
                    }
                }
                Ok(Request::Subscribe {
                    seeds: seeds.ok_or("SUBSCRIBE requires seed=<u64> or seeds=<u64,u64,..>")?,
                    rounds,
                    world_seed,
                    policy,
                    jobs_in_flight,
                })
            }
            "HELLO" => {
                let mut framing = Framing::Text;
                let mut credits = false;
                for tok in rest {
                    let (k, v) = split_kv(tok)?;
                    match k {
                        "framing" => {
                            framing = Framing::parse(v)
                                .ok_or_else(|| format!("unknown framing {v:?} (text|binary)"))?;
                        }
                        "credits" => {
                            credits = match v {
                                "on" => true,
                                "off" => false,
                                other => {
                                    return Err(format!("credits takes on|off, got {other:?}"))
                                }
                            };
                        }
                        other => return Err(format!("unknown HELLO option {other:?}")),
                    }
                }
                Ok(Request::Hello { framing, credits })
            }
            "CSV" => match rest.as_slice() {
                ["cases"] => Ok(Request::CsvCases { label: None }),
                ["cases", label] => Ok(Request::CsvCases {
                    label: Some((*label).to_string()),
                }),
                ["sweep"] => Ok(Request::CsvSweep),
                _ => Err("CSV takes `cases [label]` or `sweep`".into()),
            },
            "STATS" => {
                if rest.is_empty() {
                    Ok(Request::Stats)
                } else {
                    Err("STATS takes no options".into())
                }
            }
            "METRICS" => {
                if rest.is_empty() {
                    Ok(Request::Metrics)
                } else {
                    Err("METRICS takes no options".into())
                }
            }
            "QUIT" => Ok(Request::Quit),
            other => Err(format!(
                "unknown command {other:?} \
                 (try HELLO, RUN, SWEEP, SUBSCRIBE, CSV, STATS, METRICS, QUIT)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_parses_with_defaults() {
        let r = Request::parse("RUN seed=2017").unwrap();
        assert_eq!(
            r,
            Request::Run {
                seed: 2017,
                rounds: 4,
                world_seed: None,
                policy: RoutingPolicy::ValleyFree,
                label: None,
                rounds_in_flight: None,
                churn: ChurnSchedule::none(),
            }
        );
    }

    #[test]
    fn run_parses_every_option() {
        let r = Request::parse(
            "RUN seed=1 rounds=9 world-seed=7 policy=shortest-path label=x rounds-in-flight=3",
        )
        .unwrap();
        assert_eq!(
            r,
            Request::Run {
                seed: 1,
                rounds: 9,
                world_seed: Some(7),
                policy: RoutingPolicy::ShortestPath,
                label: Some("x".into()),
                rounds_in_flight: Some(3),
                churn: ChurnSchedule::none(),
            }
        );
    }

    #[test]
    fn churn_specs_parse_on_run_and_sweep() {
        let r = Request::parse("RUN seed=1 churn=link-down:AS1-AS2@round3,as-down:AS5@7").unwrap();
        match r {
            Request::Run { churn, .. } => {
                assert!(!churn.is_empty());
                let batches: Vec<_> = churn.batches().collect();
                assert_eq!(batches.len(), 2);
                assert_eq!(batches[0].0, 3);
                assert_eq!(batches[1].0, 7);
            }
            other => panic!("{other:?}"),
        }
        let r = Request::parse("SWEEP seeds=1,2 churn=as-down:AS9@2").unwrap();
        match r {
            Request::Sweep { churn, .. } => assert!(!churn.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sweep_parses_seed_lists() {
        let r = Request::parse("SWEEP seeds=1,2,3 rounds=2 jobs-in-flight=5").unwrap();
        match r {
            Request::Sweep {
                seeds,
                rounds,
                jobs_in_flight,
                ..
            } => {
                assert_eq!(seeds, vec![1, 2, 3]);
                assert_eq!(rounds, 2);
                assert_eq!(jobs_in_flight, Some(5));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn subscribe_parses_seed_and_seed_lists() {
        let r = Request::parse("SUBSCRIBE seed=7 rounds=2").unwrap();
        assert_eq!(
            r,
            Request::Subscribe {
                seeds: vec![7],
                rounds: 2,
                world_seed: None,
                policy: RoutingPolicy::ValleyFree,
                jobs_in_flight: None,
            }
        );
        let r = Request::parse("SUBSCRIBE seeds=1,2 world-seed=9 policy=shortest-path").unwrap();
        assert_eq!(
            r,
            Request::Subscribe {
                seeds: vec![1, 2],
                rounds: 4,
                world_seed: Some(9),
                policy: RoutingPolicy::ShortestPath,
                jobs_in_flight: None,
            }
        );
    }

    #[test]
    fn subscribe_rejects_stream_changing_options() {
        for bad in [
            "SUBSCRIBE",
            "SUBSCRIBE seed=1 label=x",
            "SUBSCRIBE seed=1 churn=as-down:AS9@2",
            "SUBSCRIBE seeds=1,1",
            "SUBSCRIBE seed=1 bogus=2",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn hello_negotiates_framing() {
        assert_eq!(
            Request::parse("HELLO").unwrap(),
            Request::Hello {
                framing: Framing::Text,
                credits: false,
            }
        );
        assert_eq!(
            Request::parse("HELLO framing=binary").unwrap(),
            Request::Hello {
                framing: Framing::Binary,
                credits: false,
            }
        );
        assert!(Request::parse("HELLO framing=morse").is_err());
        assert!(Request::parse("HELLO compression=zstd").is_err());
    }

    #[test]
    fn hello_opts_into_credit_feedback() {
        assert_eq!(
            Request::parse("HELLO credits=on").unwrap(),
            Request::Hello {
                framing: Framing::Text,
                credits: true,
            }
        );
        assert_eq!(
            Request::parse("HELLO framing=binary credits=off").unwrap(),
            Request::Hello {
                framing: Framing::Binary,
                credits: false,
            }
        );
        assert!(Request::parse("HELLO credits=maybe").is_err());
    }

    #[test]
    fn malformed_requests_error_without_panicking() {
        for bad in [
            "",
            "FROBNICATE",
            "RUN",
            "RUN seed=abc",
            "RUN bogus=1",
            "RUN seed",
            "SWEEP",
            "SWEEP seeds=",
            "SWEEP seeds=1,1",
            "SWEEP seeds=1 policy=teleport",
            "CSV",
            "CSV nonsense",
            "STATS now",
            "RUN seed=1 churn=bogus",
            "RUN seed=1 churn=link-down:AS1-AS2",
            "SWEEP seeds=1 churn=teleport:AS1@2",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn commands_are_case_insensitive() {
        assert_eq!(Request::parse("quit").unwrap(), Request::Quit);
        assert_eq!(Request::parse("stats").unwrap(), Request::Stats);
    }
}
