//! A malformed numeric flag is a usage error, not a crash: the CLI
//! names the flag on stderr and exits 2 before it builds any world, as
//! it does for `--memory-budget`, `--churn` and `--framing`. A file it
//! cannot write is not a crash either: it names the flag and the path
//! and exits 1.

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

#[test]
fn unwritable_out_exits_1_naming_the_flag() {
    // A regular file where the output directory should be.
    let file = std::env::temp_dir().join(format!("cli_flags_out_{}", std::process::id()));
    std::fs::write(&file, b"").expect("create a regular file");
    let out = Command::new(env!("CARGO_BIN_EXE_colo-shortcuts"))
        .args(["campaign", "--rounds", "1", "--out"])
        .arg(&file)
        .output()
        .expect("spawn colo-shortcuts");
    let _ = std::fs::remove_file(&file);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("--out: "), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
