//! ledger: the repo's performance ledger.
//!
//! Five named workloads, six end-to-end metrics every workload
//! reports, and per-layer metrics measured from outside the program —
//! by timing calls into its public functions and reading the counters
//! it already exposes. `README.md` next to this file documents every
//! name; `catalog.rs` is the table they all come from.
//!
//!     ledger bench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out PATH]
//!     ledger run [--workload NAME] [--seed S] [--reps N] [--seconds S] [--json PATH] [--trace-out DIR]
//!     ledger diff A.json B.json [--layers]
//!     ledger list [--json]
//!
//! `bench` is one run in this process and what `BENCHMARK.json`'s
//! command invokes: it prints gate and digest notes, then one JSON
//! result line. `run` executes `bench` in fresh child processes (`reps`
//! untraced runs plus one traced run per workload) and aggregates them
//! into a `BENCH_*.json`; `diff` compares two of those.

mod batch;
mod catalog;
mod json;
mod ledger;
mod outcome;
mod proc;
mod program_spans;
mod serve;
mod stats;
mod trace;

use catalog::{
    CAMPAIGN_CHURN_BUDGET, CAMPAIGN_PAPER, END_TO_END, PER_LAYER, SERVE_FANOUT, SERVE_PRIVATE,
    SWEEP_SHARED,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// `--name value` flags, `--name` switches and positional arguments.
pub struct Flags {
    named: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Flags {
    /// `switches` lists the flags that take no value.
    fn parse(args: &[String], switches: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags {
            named: BTreeMap::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) if switches.contains(&name) => {
                    flags.named.insert(name.to_string(), String::new());
                }
                Some(name) => {
                    let value = it.next().ok_or(format!("--{name} requires a value"))?;
                    flags.named.insert(name.to_string(), value.clone());
                }
                None => flags.positional.push(arg.clone()),
            }
        }
        Ok(flags)
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.named.get(name).map(String::as_str)
    }

    pub fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: {v:?} is not a whole number")),
        }
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or(format!("--{name} is required"))
    }
}

/// One run of one workload in this process.
fn bench(flags: &Flags) -> Result<ExitCode, String> {
    let workload = flags.required("workload")?;
    flags.required("seed")?;
    let seed = flags.number("seed", 0)?;
    let seconds = flags.number("seconds", catalog::RUN_SECONDS)?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    let trace = match flags.required("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other:?} is neither 0 nor 1")),
    };
    let trace_out = flags.get("trace-out").map(Path::new);
    let outcome = match workload {
        CAMPAIGN_PAPER | SWEEP_SHARED | CAMPAIGN_CHURN_BUDGET => {
            batch::run(workload, seed, seconds, trace, trace_out)
        }
        SERVE_PRIVATE | SERVE_FANOUT => serve::run(workload, seed, seconds, trace, trace_out),
        other => return Err(format!("unknown workload {other:?} (see `ledger list`)")),
    };
    for note in &outcome.gates.notes {
        println!("{note}");
    }
    let specs: &[catalog::MetricSpec] = if trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", outcome.result_line(specs));
    Ok(ExitCode::SUCCESS)
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let (command, rest) = args.split_first().ok_or("no command")?;
    match command.as_str() {
        "bench" => bench(&Flags::parse(rest, &[])?),
        "run" => ledger::run(&Flags::parse(rest, &[])?),
        "diff" => {
            let flags = Flags::parse(rest, &["layers"])?;
            match flags.positional.as_slice() {
                [a, b] => ledger::diff(a, b, flags.get("layers").is_some()),
                _ => Err("diff takes two ledger files".into()),
            }
        }
        "list" => {
            let flags = Flags::parse(rest, &["json"])?;
            if flags.get("json").is_some() {
                print!("{}", catalog::benchmark_json());
            } else {
                print!("{}", catalog::markdown());
            }
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("ledger: {msg}");
            eprintln!(
                "usage: ledger bench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out PATH]\n\
                 \x20      ledger run [--workload NAME] [--seed S] [--reps N] [--seconds S] [--json PATH] [--trace-out DIR]\n\
                 \x20      ledger diff A.json B.json [--layers]\n\
                 \x20      ledger list [--json]"
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn flags_parse_values_switches_and_positionals() {
        let flags = Flags::parse(&args(&["a.json", "--layers", "b.json"]), &["layers"]).unwrap();
        assert_eq!(flags.positional, ["a.json", "b.json"]);
        assert!(flags.get("layers").is_some());
        let flags = Flags::parse(&args(&["--seed", "7", "--trace", "1"]), &[]).unwrap();
        assert_eq!(flags.number("seed", 0), Ok(7));
        assert_eq!(flags.number("reps", 3), Ok(3));
        assert_eq!(flags.required("trace"), Ok("1"));
        assert!(flags.required("workload").is_err());
        assert!(Flags::parse(&args(&["--seed"]), &[]).is_err());
        assert!(Flags::parse(&args(&["--seed", "x"]), &[])
            .unwrap()
            .number("seed", 0)
            .is_err());
    }

    #[test]
    fn bad_bench_arguments_are_refused_before_anything_runs() {
        for bad in [
            &[
                "bench",
                "--workload",
                "nope",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ][..],
            &[
                "bench",
                "--workload",
                CAMPAIGN_PAPER,
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &[
                "bench",
                "--workload",
                CAMPAIGN_PAPER,
                "--seed",
                "1",
                "--seconds",
                "0",
                "--trace",
                "0",
            ],
            &[
                "bench",
                "--workload",
                CAMPAIGN_PAPER,
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            &["frobnicate"],
        ] {
            assert!(dispatch(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
