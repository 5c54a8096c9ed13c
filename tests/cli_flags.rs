//! A malformed or unworkable numeric flag is a usage error, not a
//! crash: the CLI names the flag on stderr and exits 2 before it builds
//! any world, as it does for `--memory-budget`, `--churn` and
//! `--framing`. A file it
//! cannot write is not a crash either: it names the flag and the path
//! and exits 1. The `--churn` example README documents names ASes and
//! links of the world it runs on.

use colo_shortcuts::core::world::{World, WorldConfig};
use colo_shortcuts::topology::ChurnSchedule;
use std::process::Command;

#[test]
fn bad_numeric_flags_exit_2_naming_the_flag() {
    let flags = "--seed --world-seed --seeds --rounds --jobs-in-flight --max-sessions \
                 --retries --credits --credit-refill --subscriber-lag --rounds-in-flight";
    for (flag, value) in flags
        .split_whitespace()
        .zip(["x", "", "7,x"].iter().cycle())
    {
        let out = Command::new(env!("CARGO_BIN_EXE_colo-shortcuts"))
            .args(["campaign", flag, value])
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
        &["campaign", "--credits", "-1"],
        &["campaign", "--credit-refill", "inf"],
        &["campaign", "--credit-refill", "NaN"],
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
