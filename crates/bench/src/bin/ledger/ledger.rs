//! `ledger run` and `ledger diff`: many runs into one `BENCH_*.json`,
//! and two such files into a verdict per (workload, metric).

use crate::catalog::{Better, MetricSpec, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::json::{self, Json};
use crate::stats::{median, quartiles, spread};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// Untraced runs per workload unless `--reps` says otherwise.
const DEFAULT_REPS: u32 = 3;

/// What one child run printed.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    /// The lines above the result line: gates, digests, top self times.
    notes: Vec<String>,
}

/// Parses a run's standard output: notes, then the result line.
fn parse_child(stdout: &str) -> Result<ChildRun, String> {
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or("run printed nothing")?;
    let doc = json::parse(last).map_err(|e| format!("result line is not JSON ({e}): {last}"))?;
    let field = |key: &str| doc.get(key).ok_or(format!("result line lacks `{key}`"));
    let metrics = field("metrics")?
        .as_obj()
        .ok_or("`metrics` is not an object")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            value
                .map(|v| (name.clone(), v))
                .ok_or(format!("metric {name} has no value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(ChildRun {
        correct: field("correct")?
            .as_bool()
            .ok_or("`correct` is not a bool")?,
        attempted: field("attempted")?
            .as_f64()
            .ok_or("`attempted` is not a number")? as u64,
        failed: field("failed")?
            .as_f64()
            .ok_or("`failed` is not a number")? as u64,
        metrics,
        notes: lines.iter().map(|l| l.to_string()).collect(),
    })
}

/// One run in a fresh process of this same executable, so peak RSS,
/// CPU time and cold caches are per run. Children run one at a time.
fn spawn_run(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<&Path>,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate the ledger executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("bench")
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    let output = cmd.output().map_err(|e| format!("spawn a run: {e}"))?;
    if !output.status.success() {
        return Err(format!("run of {workload} exited with {}", output.status));
    }
    parse_child(&String::from_utf8_lossy(&output.stdout))
}

fn summary_json(unit: &str, values: &[f64]) -> Json {
    let (q1, q2, q3) = quartiles(values);
    Json::obj([
        ("unit", Json::str(unit)),
        ("median", Json::Num(q2)),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        ("values", Json::nums(values)),
    ])
}

/// `ledger run [--workload NAME] [--seed S] [--reps N] [--seconds S]
/// [--json PATH] [--trace-out DIR]`.
pub fn run(flags: &crate::Flags) -> Result<ExitCode, String> {
    let seed = flags.number("seed", 2017)?;
    let reps = flags.number("reps", u64::from(DEFAULT_REPS))?.max(1);
    let seconds = flags.number("seconds", RUN_SECONDS)?.max(1);
    let only = flags.get("workload");
    if let Some(name) = only {
        crate::catalog::workload(name).ok_or(format!("unknown workload {name:?}"))?;
    }
    let trace_dir = flags.get("trace-out").map(Path::new);
    if let Some(dir) = trace_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }

    let mut all_correct = true;
    let mut workloads_json = Vec::new();
    for w in WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o == w.name))
    {
        let mut untraced = Vec::new();
        for rep in 0..reps {
            eprintln!("{}: untraced run {}/{reps} ...", w.name, rep + 1);
            untraced.push(spawn_run(w.name, seed, seconds, false, None)?);
        }
        eprintln!("{}: traced run ...", w.name);
        let trace_path = trace_dir.map(|d| d.join(format!("{}.trace.json", w.name)));
        let traced = spawn_run(w.name, seed, seconds, true, trace_path.as_deref())?;

        let mut e2e_json = Vec::new();
        for spec in &END_TO_END {
            let values: Vec<f64> = untraced
                .iter()
                .filter_map(|r| r.metrics.iter().find(|(n, _)| n == spec.name).map(|m| m.1))
                .collect();
            let (q1, q2, q3) = quartiles(&values);
            println!(
                "{} {} {q2} {} n={} q1={q1} q3={q3}",
                w.name,
                spec.name,
                spec.unit,
                values.len()
            );
            e2e_json.push((spec.name, summary_json(spec.unit, &values)));
        }
        let mut layer_json = Vec::new();
        for spec in &PER_LAYER {
            let value = traced
                .metrics
                .iter()
                .find(|(n, _)| n == spec.name)
                .map_or(0.0, |m| m.1);
            println!("{} {} {value} {} n=1", w.name, spec.name, spec.unit);
            layer_json.push((
                spec.name,
                Json::obj([("unit", Json::str(spec.unit)), ("value", Json::Num(value))]),
            ));
        }
        let runs = untraced.iter().chain([&traced]);
        let attempted: u64 = runs.clone().map(|r| r.attempted).sum();
        let failed: u64 = runs.clone().map(|r| r.failed).sum();
        let correct = runs.clone().all(|r| r.correct);
        all_correct &= correct;
        println!(
            "{} failed_share {} ratio n={attempted}",
            w.name,
            failed as f64 / attempted.max(1) as f64
        );
        for note in &traced.notes {
            println!("{} # {note}", w.name);
        }
        for (rep, r) in untraced.iter().enumerate() {
            for note in r.notes.iter().filter(|n| n.contains("FAILED")) {
                println!("{} # untraced run {}: {note}", w.name, rep + 1);
            }
        }
        workloads_json.push((
            w.name,
            Json::obj([
                ("correct", Json::Bool(correct)),
                ("attempted", Json::Num(attempted as f64)),
                ("failed", Json::Num(failed as f64)),
                ("end_to_end", Json::obj(e2e_json)),
                ("per_layer", Json::obj(layer_json)),
                (
                    "notes",
                    Json::Arr(traced.notes.iter().map(Json::str).collect()),
                ),
            ]),
        ));
    }

    if let Some(path) = flags.get("json") {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let doc = Json::obj([
            ("schema", Json::Num(1.0)),
            ("seed", Json::Num(seed as f64)),
            ("reps", Json::Num(reps as f64)),
            ("seconds", Json::Num(seconds as f64)),
            ("nproc", Json::Num(nproc as f64)),
            ("workloads", Json::obj(workloads_json)),
        ]);
        std::fs::write(path, doc.pretty()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("a correctness gate failed");
        ExitCode::FAILURE
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Worse,
    Better,
    Flat,
    /// Neither median moved past the bound, but a side's spread is
    /// wider than the bound: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Flat => "flat",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares the runs of side B with those of side A for one
/// end-to-end metric.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let every_b_beats_every_a = match better {
        Better::Lower => b.iter().all(|y| a.iter().all(|x| y < x)),
        Better::Higher => b.iter().all(|y| a.iter().all(|x| y > x)),
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else if spread(a).max(spread(b)) > bound && !every_b_beats_every_a {
        Verdict::Unresolved
    } else {
        Verdict::Flat
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn e2e_values(doc: &Json, workload: &str, spec: &MetricSpec) -> Option<Vec<f64>> {
    let values = doc
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(spec.name)?
        .get("values")?
        .as_f64s();
    (!values.is_empty()).then_some(values)
}

fn layer_value(doc: &Json, workload: &str, spec: &MetricSpec) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get("per_layer")?
        .get(spec.name)?
        .get("value")?
        .as_f64()
}

fn failed(doc: &Json, workload: &str) -> u64 {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("failed"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0) as u64
}

/// `ledger diff A.json B.json [--layers]`: one row per (workload,
/// end-to-end metric) with both medians, quartiles, the bound and the
/// verdict; with `--layers`, the per-layer values side by side too.
/// Exit code 1 on any `worse` or any rise in failures.
pub fn diff(a_path: &str, b_path: &str, layers: bool) -> Result<ExitCode, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut regressed = false;
    println!(
        "| workload | metric | A median [q1, q3] | B median [q1, q3] | change | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|");
    for w in &WORKLOADS {
        for spec in &END_TO_END {
            let (Some(va), Some(vb)) = (e2e_values(&a, w.name, spec), e2e_values(&b, w.name, spec))
            else {
                continue;
            };
            let bound = spec.bound.unwrap_or(0.0);
            let v = verdict(&va, &vb, spec.better, bound);
            regressed |= v == Verdict::Worse;
            let (a1, a2, a3) = quartiles(&va);
            let (b1, b2, b3) = quartiles(&vb);
            println!(
                "| {} | {} ({}) | {a2:.4} [{a1:.4}, {a3:.4}] | {b2:.4} [{b1:.4}, {b3:.4}] | {:+.1} % | {:.0} % | {} |",
                w.name,
                spec.name,
                spec.unit,
                100.0 * (b2 - a2) / a2,
                100.0 * bound,
                v.label()
            );
        }
        let (fa, fb) = (failed(&a, w.name), failed(&b, w.name));
        if fb > fa {
            regressed = true;
        }
        if fa + fb > 0 {
            println!(
                "| {} | failed | {fa} | {fb} | | 0 | {} |",
                w.name,
                if fb > fa { "worse" } else { "flat" }
            );
        }
    }
    if layers {
        println!();
        println!("| workload | layer metric | A | B | change |");
        println!("|---|---|---|---|---|");
        for w in &WORKLOADS {
            for spec in &PER_LAYER {
                let (Some(va), Some(vb)) =
                    (layer_value(&a, w.name, spec), layer_value(&b, w.name, spec))
                else {
                    continue;
                };
                let change = if va == vb {
                    "same".to_string()
                } else if va == 0.0 {
                    "moved".to_string()
                } else {
                    format!("{:+.1} %", 100.0 * (vb - va) / va)
                };
                println!(
                    "| {} | {} ({}) | {va} | {vb} | {change} |",
                    w.name, spec.name, spec.unit
                );
            }
        }
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_medians_then_spread() {
        let base = [10.0, 10.1, 10.2];
        // Lower is better, bound 8 %.
        assert_eq!(
            verdict(&base, &[11.0, 11.1, 11.2], Better::Lower, 0.08),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &[9.0, 9.1, 9.2], Better::Lower, 0.08),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &[10.3, 10.4, 10.2], Better::Lower, 0.08),
            Verdict::Flat
        );
        // Same medians, but one side's quartiles are 30 % apart.
        assert_eq!(
            verdict(&base, &[8.5, 10.1, 11.5], Better::Lower, 0.08),
            Verdict::Unresolved
        );
        // A wide spread does not hide a clean win below the bound.
        assert_eq!(
            verdict(&[10.0, 11.0, 12.0], &[9.5, 9.6, 9.9], Better::Lower, 0.15),
            Verdict::Flat
        );
        // Higher is better.
        assert_eq!(
            verdict(&base, &[9.0, 9.1, 9.2], Better::Higher, 0.08),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &[11.0, 11.1, 11.2], Better::Higher, 0.08),
            Verdict::Better
        );
    }

    #[test]
    fn child_output_is_notes_then_the_result_line() {
        let out = "gate digest ok\nsteps rounds 3/3\n\
                   {\"correct\":true,\"attempted\":4,\"failed\":0,\"metrics\":{\"wall_s\":{\"value\":1.5,\"unit\":\"s\"}}}\n";
        let run = parse_child(out).unwrap();
        assert!(run.correct);
        assert_eq!((run.attempted, run.failed), (4, 0));
        assert_eq!(run.metrics, vec![("wall_s".to_string(), 1.5)]);
        assert_eq!(run.notes.len(), 2);
        assert!(parse_child("not json").is_err());
        assert!(parse_child("{\"correct\":true}").is_err());
    }
}
