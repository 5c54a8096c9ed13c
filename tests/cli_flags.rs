//! A malformed or unworkable numeric flag is a usage error, not a
//! crash: the CLI names the flag on stderr and exits 2 before it builds
//! any world, as it does for `--memory-budget`, `--churn` and
//! `--framing`. So is a flag the subcommand does not read. A file it
//! cannot write is not a crash either: it names the flag and the path
//! and exits 1. The `--churn` example README documents names ASes and
//! links of the world it runs on.

use colo_shortcuts::core::world::{World, WorldConfig};
use colo_shortcuts::topology::ChurnSchedule;
use std::process::Command;

/// Each numeric flag, passed to a subcommand that reads it.
#[test]
fn bad_numeric_flags_exit_2_naming_the_flag() {
    let flags = [
        ("campaign", "--seed"),
        ("campaign", "--world-seed"),
        ("sweep", "--seeds"),
        ("campaign", "--rounds"),
        ("sweep", "--jobs-in-flight"),
        ("serve", "--max-sessions"),
        ("client", "--retries"),
        ("serve", "--credits"),
        ("serve", "--credit-refill"),
        ("serve", "--subscriber-lag"),
        ("campaign", "--rounds-in-flight"),
    ];
    for ((cmd, flag), value) in flags.into_iter().zip(["x", "", "7,x"].iter().cycle()) {
        let out = Command::new(env!("CARGO_BIN_EXE_colo-shortcuts"))
            .args([cmd, flag, value])
            .output()
            .expect("spawn colo-shortcuts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(
            stderr.starts_with(&format!("{flag}: ")),
            "{flag} {value}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
    }
}

/// Values that parse but cannot work — a `--seed` too close to
/// `u64::MAX` for `sweep`'s default four scenarios, a negative or
/// non-finite credit policy — are usage errors too.
#[test]
fn unworkable_flag_values_exit_2_naming_the_flag() {
    let cases: [&[&str]; 5] = [
        &["sweep", "--seed", "18446744073709551615"],
        &["sweep", "--seed", "18446744073709551613"],
        &["serve", "--credits", "-1"],
        &["serve", "--credit-refill", "inf"],
        &["serve", "--credit-refill", "NaN"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_colo-shortcuts"))
            .args(args)
            .output()
            .expect("spawn colo-shortcuts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("{}: ", args[1])),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("building world"), "{args:?}: {stderr}");
    }
}

/// A flag the subcommand does not read is refused, naming the flag and
/// the subcommand, before any world is built: a silently ignored
/// `--world-scale small` would still build the paper-scale world.
#[test]
fn flags_a_subcommand_does_not_read_exit_2_naming_both() {
    let cases: [&[&str]; 8] = [
        &[
            "world-info",
            "--churn",
            "as-down:AS99999999@0",
            "--memory-budget",
            "1K",
        ],
        &["report", "--serial", "--memory-budget", "1K", "--addr", "x"],
        &["campaign", "--world-scale", "small"],
        &["campaign", "--bogus"],
        &["funnel", "--rounds", "1"],
        &["sweep", "--serial"],
        &["serve", "--rounds", "1"],
        &["client", "--memory-budget", "1K"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_colo-shortcuts"))
            .args(args)
            .output()
            .expect("spawn colo-shortcuts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let refusal = format!("{}: not a `{}` flag", args[1], args[0]);
        assert!(stderr.starts_with(&refusal), "{args:?}: {stderr}");
        assert!(!stderr.contains("building world"), "{args:?}: {stderr}");
    }
}

#[test]
fn unwritable_out_exits_1_naming_the_flag() {
    // A regular file where the output directory should be.
    let file = std::env::temp_dir().join(format!("cli_flags_out_{}", std::process::id()));
    std::fs::write(&file, b"").expect("create a regular file");
    for cmd in ["campaign", "report"] {
        let out = Command::new(env!("CARGO_BIN_EXE_colo-shortcuts"))
            .args([cmd, "--rounds", "1", "--out"])
            .arg(&file)
            .output()
            .expect("spawn colo-shortcuts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {stderr}");
        assert!(stderr.starts_with("--out: "), "{cmd}: {stderr}");
        assert!(!stderr.contains("panicked"), "{cmd}: {stderr}");
    }
    let _ = std::fs::remove_file(&file);
}

/// README's churn example (`campaign --seed 2017 --rounds 6 --churn
/// SPEC`) passes the same check `campaign` runs before measuring:
/// every AS and base link it names exists in the seed-2017 paper world.
#[test]
fn readme_churn_example_validates_on_its_world() {
    let spec = include_str!("../README.md")
        .lines()
        .find_map(|line| line.trim().strip_prefix("--churn "))
        .expect("README shows a --churn example");
    let churn = ChurnSchedule::parse(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
    assert_eq!(churn.segments(6).len(), 4, "{spec}");
    let world = World::build(&WorldConfig::paper_scale(), 2017);
    churn
        .validate(&world.topo)
        .unwrap_or_else(|e| panic!("{spec}: {e}"));
}
