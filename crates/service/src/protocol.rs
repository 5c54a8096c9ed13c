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
//! ## Batch requests
//!
//! `RUN`, `SWEEP` and `SUBSCRIBE` are three verbs of one
//! [`BatchRequest`]: campaign seeds measured for `rounds` rounds on one
//! `(world-seed, policy)` engine stack. They share one option grammar,
//! and each verb takes the options its synopsis above lists — any
//! other is refused as an unknown option of that verb.
//!
//! `RUN` and `SWEEP` execute. `SUBSCRIBE` asks for the *bytes* of a
//! batch rather than an execution: if a batch with the same
//! `(world-seed, policy, seeds, rounds)` key is in flight (or recently
//! finished), the session taps its broadcast and receives the
//! identical stream without re-executing; otherwise the session
//! becomes the producer and executes normally. Options that change
//! the stream bytes (`label`, `churn`) are rejected by name — a
//! relabelled or churning batch is not shareable. `jobs-in-flight` is
//! accepted but excluded from the key (scheduling never changes
//! bytes). A tap that falls too far behind the producer is shed with
//! `ERR lagged`.
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
//! - `OK <detail>` — request finished. A batch ends `OK run 1` when it
//!   has one scenario and `OK sweep <n>` when it has `n > 1`, whichever
//!   verb asked for it, so every request sharing a broadcast key gets
//!   the same terminator.
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
use std::fmt;

/// Greeting the server sends on every admitted connection.
pub const GREETING: &str = "OK shortcuts-service ready";

/// The verb a [`BatchRequest`] arrived as. It fixes which options the
/// line may carry and whether the session executes or subscribes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchVerb {
    /// Execute one campaign seed.
    Run,
    /// Execute several campaign seeds on one world.
    Sweep,
    /// Tap the broadcast of an identical batch, or produce it.
    Subscribe,
}

impl BatchVerb {
    /// The verb as it appears on the wire.
    fn name(self) -> &'static str {
        match self {
            BatchVerb::Run => "RUN",
            BatchVerb::Sweep => "SWEEP",
            BatchVerb::Subscribe => "SUBSCRIBE",
        }
    }

    /// Whether this verb takes option `key`: the per-verb allow-list.
    fn takes(self, key: &str) -> bool {
        use BatchVerb::*;
        match key {
            "rounds" | "world-seed" | "policy" => true,
            "seed" => self != Sweep,
            "seeds" | "jobs-in-flight" => self != Run,
            "label" | "rounds-in-flight" => self == Run,
            "churn" => self != Subscribe,
            _ => false,
        }
    }
}

/// A parsed `RUN`, `SWEEP` or `SUBSCRIBE` line: campaign seeds
/// measured for `rounds` rounds on one `(world, policy)` engine stack.
/// Its [`Display`](fmt::Display) renders the canonical request line,
/// which [`BatchRequest::parse`] reads back to an equal request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRequest {
    /// The verb the request arrived as.
    pub verb: BatchVerb,
    /// One campaign seed per scenario, in request order; never empty,
    /// no duplicates, exactly one for `RUN`.
    pub seeds: Vec<u64>,
    /// Rounds per scenario.
    pub rounds: u32,
    /// World to run against (server default when absent).
    pub world_seed: Option<u64>,
    /// Routing policy, shared by all scenarios.
    pub policy: RoutingPolicy,
    /// Scenario label of a `RUN` (default `seed-<seed>`).
    pub label: Option<String>,
    /// Rounds (`RUN`) or `(campaign, round)` jobs kept in flight,
    /// clamped by the server; never part of the broadcast key.
    pub in_flight: Option<usize>,
    /// Topology churn seen by every scenario at the same rounds
    /// (empty = none). Non-empty schedules run on a private engine
    /// stack.
    pub churn: ChurnSchedule,
}

impl BatchRequest {
    /// Parses one `RUN`, `SWEEP` or `SUBSCRIBE` line.
    pub fn parse(line: &str) -> Result<BatchRequest, String> {
        match Request::parse(line)? {
            Request::Batch(batch) => Ok(batch),
            _ => Err("not a batch request (RUN, SWEEP or SUBSCRIBE)".into()),
        }
    }

    /// Parses the `key=value` options of a `verb` line, each checked
    /// against the verb's allow-list.
    fn parse_options(verb: BatchVerb, opts: &[&str]) -> Result<BatchRequest, String> {
        let name = verb.name();
        let mut req = BatchRequest {
            verb,
            seeds: Vec::new(),
            rounds: 4,
            world_seed: None,
            policy: RoutingPolicy::default(),
            label: None,
            in_flight: None,
            churn: ChurnSchedule::none(),
        };
        for tok in opts {
            let (k, v) = split_kv(tok)?;
            if !verb.takes(k) {
                if verb == BatchVerb::Subscribe && matches!(k, "label" | "churn") {
                    return Err(format!(
                        "SUBSCRIBE does not take {k}: it changes the stream \
                         bytes, so the batch would not be shareable"
                    ));
                }
                return Err(format!("unknown {name} option {k:?}"));
            }
            match k {
                "seed" => req.seeds = vec![parse_num("seed", v)?],
                "seeds" => req.seeds = parse_seeds(v)?,
                "rounds" => req.rounds = parse_num("rounds", v)?,
                "world-seed" => req.world_seed = Some(parse_num("world-seed", v)?),
                "policy" => {
                    req.policy =
                        RoutingPolicy::parse(v).ok_or_else(|| format!("unknown policy {v:?}"))?;
                }
                "label" => req.label = Some(v.to_string()),
                "churn" => req.churn = ChurnSchedule::parse(v)?,
                _ => req.in_flight = Some(parse_num(k, v)?),
            }
        }
        if req.seeds.is_empty() {
            return Err(match verb {
                BatchVerb::Run => "RUN requires seed=<u64>",
                BatchVerb::Sweep => "SWEEP requires seeds=<u64,u64,..>",
                BatchVerb::Subscribe => "SUBSCRIBE requires seed=<u64> or seeds=<u64,u64,..>",
            }
            .into());
        }
        Ok(req)
    }

    /// Whether the stream is a pure function of the broadcast key: no
    /// relabelling and no churn.
    pub(crate) fn shareable(&self) -> bool {
        self.label.is_none() && self.churn.is_empty()
    }
}

impl fmt::Display for BatchRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let seeds: Vec<String> = self.seeds.iter().map(u64::to_string).collect();
        let key = if self.verb == BatchVerb::Sweep || seeds.len() > 1 {
            "seeds"
        } else {
            "seed"
        };
        write!(
            f,
            "{} {key}={} rounds={}",
            self.verb.name(),
            seeds.join(","),
            self.rounds
        )?;
        if let Some(w) = self.world_seed {
            write!(f, " world-seed={w}")?;
        }
        if self.policy != RoutingPolicy::default() {
            write!(f, " policy={}", self.policy.label())?;
        }
        if let Some(label) = &self.label {
            write!(f, " label={label}")?;
        }
        if let Some(n) = self.in_flight {
            let key = match self.verb {
                BatchVerb::Run => "rounds-in-flight",
                _ => "jobs-in-flight",
            };
            write!(f, " {key}={n}")?;
        }
        if !self.churn.is_empty() {
            write!(f, " churn={}", self.churn)?;
        }
        Ok(())
    }
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run, sweep or subscribe to a batch of campaigns, streaming
    /// every scenario's rounds.
    Batch(BatchRequest),
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

/// A comma-separated seed list. `split` yields at least one (possibly
/// empty, hence unparsable) item, so a parsed list is never empty.
fn parse_seeds(val: &str) -> Result<Vec<u64>, String> {
    let seeds: Vec<u64> = val
        .split(',')
        .map(|s| parse_num("seeds", s.trim()))
        .collect::<Result<_, _>>()?;
    let mut seen = std::collections::BTreeSet::new();
    if let Some(s) = seeds.iter().find(|s| !seen.insert(**s)) {
        return Err(format!(
            "duplicate seed {s}: scenario labels derive from the seed, \
             so its results would overwrite each other"
        ));
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
        let batch = |verb| BatchRequest::parse_options(verb, &rest).map(Request::Batch);
        match cmd.to_ascii_uppercase().as_str() {
            "RUN" => batch(BatchVerb::Run),
            "SWEEP" => batch(BatchVerb::Sweep),
            "SUBSCRIBE" => batch(BatchVerb::Subscribe),
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

    fn batch(line: &str) -> BatchRequest {
        BatchRequest::parse(line).unwrap_or_else(|e| panic!("{line:?}: {e}"))
    }

    #[test]
    fn run_parses_with_defaults() {
        assert_eq!(
            batch("RUN seed=2017"),
            BatchRequest {
                verb: BatchVerb::Run,
                seeds: vec![2017],
                rounds: 4,
                world_seed: None,
                policy: RoutingPolicy::ValleyFree,
                label: None,
                in_flight: None,
                churn: ChurnSchedule::none(),
            }
        );
    }

    #[test]
    fn run_parses_every_option() {
        assert_eq!(
            batch(
                "RUN seed=1 rounds=9 world-seed=7 policy=shortest-path label=x rounds-in-flight=3"
            ),
            BatchRequest {
                verb: BatchVerb::Run,
                seeds: vec![1],
                rounds: 9,
                world_seed: Some(7),
                policy: RoutingPolicy::ShortestPath,
                label: Some("x".into()),
                in_flight: Some(3),
                churn: ChurnSchedule::none(),
            }
        );
    }

    #[test]
    fn churn_specs_parse_on_run_and_sweep() {
        let churn = batch("RUN seed=1 churn=link-down:AS1-AS2@round3,as-down:AS5@7").churn;
        let batches: Vec<_> = churn.batches().collect();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].0, 3);
        assert_eq!(batches[1].0, 7);
        assert!(!batch("SWEEP seeds=1,2 churn=as-down:AS9@2")
            .churn
            .is_empty());
    }

    #[test]
    fn sweep_parses_seed_lists() {
        let r = batch("SWEEP seeds=1,2,3 rounds=2 jobs-in-flight=5");
        assert_eq!(r.verb, BatchVerb::Sweep);
        assert_eq!(r.seeds, vec![1, 2, 3]);
        assert_eq!(r.rounds, 2);
        assert_eq!(r.in_flight, Some(5));
    }

    #[test]
    fn subscribe_parses_seed_and_seed_lists() {
        assert_eq!(
            batch("SUBSCRIBE seed=7 rounds=2"),
            BatchRequest {
                verb: BatchVerb::Subscribe,
                seeds: vec![7],
                rounds: 2,
                world_seed: None,
                policy: RoutingPolicy::ValleyFree,
                label: None,
                in_flight: None,
                churn: ChurnSchedule::none(),
            }
        );
        assert_eq!(
            batch("SUBSCRIBE seeds=1,2 world-seed=9 policy=shortest-path"),
            BatchRequest {
                verb: BatchVerb::Subscribe,
                seeds: vec![1, 2],
                rounds: 4,
                world_seed: Some(9),
                policy: RoutingPolicy::ShortestPath,
                label: None,
                in_flight: None,
                churn: ChurnSchedule::none(),
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

    /// The batch grammar, verb by verb: every option each verb takes,
    /// every option it refuses, and the exact `ERR` payload of each
    /// refusal.
    #[test]
    fn each_verb_takes_its_options_and_refuses_the_rest_verbatim() {
        const UNSHAREABLE: &str =
            "it changes the stream bytes, so the batch would not be shareable";
        let table: &[(&str, Result<(), String>)] = &[
            ("RUN seed=1", Ok(())),
            (
                "RUN seed=1 rounds=2 world-seed=3 policy=shortest-path",
                Ok(()),
            ),
            ("RUN seed=1 label=x rounds-in-flight=2", Ok(())),
            ("RUN seed=1 churn=as-down:AS9@2", Ok(())),
            ("RUN", Err("RUN requires seed=<u64>".into())),
            ("RUN rounds=2", Err("RUN requires seed=<u64>".into())),
            ("RUN seeds=1,2", Err("unknown RUN option \"seeds\"".into())),
            (
                "RUN seed=1 jobs-in-flight=2",
                Err("unknown RUN option \"jobs-in-flight\"".into()),
            ),
            (
                "RUN seed=1 bogus=1",
                Err("unknown RUN option \"bogus\"".into()),
            ),
            (
                "RUN seed=abc",
                Err("seed takes a number, got \"abc\"".into()),
            ),
            (
                "RUN seed=1 rounds-in-flight=x",
                Err("rounds-in-flight takes a number, got \"x\"".into()),
            ),
            ("RUN seed", Err("expected key=value, got \"seed\"".into())),
            ("SWEEP seeds=1,2", Ok(())),
            (
                "SWEEP seeds=1 rounds=2 world-seed=3 policy=valley-free",
                Ok(()),
            ),
            ("SWEEP seeds=1,2 jobs-in-flight=4", Ok(())),
            ("SWEEP seeds=1,2 churn=as-down:AS9@2", Ok(())),
            ("SWEEP", Err("SWEEP requires seeds=<u64,u64,..>".into())),
            ("SWEEP seed=1", Err("unknown SWEEP option \"seed\"".into())),
            (
                "SWEEP seeds=1 label=x",
                Err("unknown SWEEP option \"label\"".into()),
            ),
            (
                "SWEEP seeds=1 rounds-in-flight=2",
                Err("unknown SWEEP option \"rounds-in-flight\"".into()),
            ),
            ("SWEEP seeds=", Err("seeds takes a number, got \"\"".into())),
            (
                "SWEEP seeds=1,1",
                Err("duplicate seed 1: scenario labels derive from the seed, \
                     so its results would overwrite each other"
                    .into()),
            ),
            (
                "SWEEP seeds=1 policy=teleport",
                Err("unknown policy \"teleport\"".into()),
            ),
            ("SUBSCRIBE seed=1", Ok(())),
            ("SUBSCRIBE seeds=1,2 jobs-in-flight=3", Ok(())),
            (
                "SUBSCRIBE seed=1 rounds=2 world-seed=3 policy=shortest-path",
                Ok(()),
            ),
            (
                "SUBSCRIBE",
                Err("SUBSCRIBE requires seed=<u64> or seeds=<u64,u64,..>".into()),
            ),
            (
                "SUBSCRIBE seed=1 label=x",
                Err(format!("SUBSCRIBE does not take label: {UNSHAREABLE}")),
            ),
            (
                "SUBSCRIBE seed=1 churn=as-down:AS9@2",
                Err(format!("SUBSCRIBE does not take churn: {UNSHAREABLE}")),
            ),
            (
                "SUBSCRIBE seed=1 rounds-in-flight=2",
                Err("unknown SUBSCRIBE option \"rounds-in-flight\"".into()),
            ),
            (
                "SUBSCRIBE seed=1 bogus=2",
                Err("unknown SUBSCRIBE option \"bogus\"".into()),
            ),
        ];
        for (line, want) in table {
            let got = Request::parse(line).map(|_| ());
            assert_eq!(&got, want, "{line:?}");
        }
    }

    #[test]
    fn batch_requests_render_canonical_lines_that_parse_back() {
        for (line, canonical) in [
            ("run seed=1", "RUN seed=1 rounds=4"),
            (
                "RUN rounds-in-flight=3 label=x seed=1 policy=shortest-path rounds=9 world-seed=7",
                "RUN seed=1 rounds=9 world-seed=7 policy=shortest-path label=x rounds-in-flight=3",
            ),
            (
                "RUN seed=2 churn=as-down:AS5@7",
                "RUN seed=2 rounds=4 churn=as-down:AS5@round7",
            ),
            ("SWEEP seeds=5", "SWEEP seeds=5 rounds=4"),
            (
                "SWEEP jobs-in-flight=2 seeds=3,1,2 rounds=1 churn=as-down:AS5@2",
                "SWEEP seeds=3,1,2 rounds=1 jobs-in-flight=2 churn=as-down:AS5@round2",
            ),
            ("SUBSCRIBE seeds=7 rounds=2", "SUBSCRIBE seed=7 rounds=2"),
            (
                "SUBSCRIBE seed=7 seeds=1,2 world-seed=90 jobs-in-flight=4",
                "SUBSCRIBE seeds=1,2 rounds=4 world-seed=90 jobs-in-flight=4",
            ),
        ] {
            let r = batch(line);
            assert_eq!(r.to_string(), canonical, "{line:?}");
            assert_eq!(BatchRequest::parse(&r.to_string()), Ok(r), "{line:?}");
        }
        assert!(BatchRequest::parse("STATS").is_err());
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
